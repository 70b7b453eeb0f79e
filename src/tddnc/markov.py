"""Absorbing-chain analysis of the burst/listen protocol and its analytic baselines.

The transfer of a block is a Markov chain on the receiver's deficit
(missing dofs), states M down to 0.  One round = a burst of N_i coded
packets followed by one wait for an ACK; a lost ACK leaves the chain in
place, so progress made during that round is not credited.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from .params import INT_BOUND, SystemParams, Timing, as_int


@dataclass(frozen=True)
class Policy:
    """Burst sizes indexed by deficit: N[i-1] packets are sent when i dofs are missing.

    Every burst size is an integer from 1 to 2**53, the integers a float holds
    exactly; a larger one would overflow N*T_p and Pe**N.
    """

    N: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "N", tuple(as_int(v, "burst size") for v in self.N))
        if len(self.N) < 1:
            raise ValueError("policy must cover at least one state")
        if not all(1 <= v <= INT_BOUND for v in self.N):
            raise ValueError("every burst size must be an integer from 1 to 2**53")

    @property
    def M(self) -> int:
        return len(self.N)


def fixed_window_policy(omega: int, M: int) -> Policy:
    """The fixed window of `omega`: a full window while the deficit is omega or
    more, exactly the deficit otherwise, i.e. N_i = min(i, omega)."""
    if omega < 1:
        raise ValueError("omega must be >= 1")
    return Policy(tuple(min(i, omega) for i in range(1, M + 1)))


@dataclass(frozen=True)
class CompletionProfile:
    """Expected seconds to finish from each deficit state; T[0] == 0.

    A state from which absorption is impossible, or whose time overflowed,
    holds inf (or NaN) and makes the profile not `finite`.
    """

    T: tuple[float, ...]

    @property
    def T_M(self) -> float:
        return self.T[-1]

    @property
    def finite(self) -> bool:
        return all(map(math.isfinite, self.T))


# lgamma(n + 1) for n < len(_LOG_FACT): one table for the process, read by the chain
# kernel and the policy search, grown on demand up to _LOG_FACT_CAP entries and
# never past them.  It holds lgamma's own values, so a read equals the call.  An
# entry never changes once written, so reads take no lock; growth does.
_LOG_FACT_CAP = 1 << 16
_LOG_FACT: list[float] = []
_LOG_FACT_GROWTH = threading.Lock()


def _log_factorials(top: int) -> list[float]:
    """The shared table, grown to cover n < min(top, _LOG_FACT_CAP)."""
    lf = _LOG_FACT
    with _LOG_FACT_GROWTH:
        lf.extend(map(math.lgamma, range(len(lf) + 1, min(top, _LOG_FACT_CAP) + 1)))
    return lf


def _log_factorial_run(start: int, stop: int) -> Iterator[float]:
    """lgamma(n + 1) for start <= n < stop: the shared table's values below its
    cap, lgamma's own above it."""
    above = map(math.lgamma, range(max(start, _LOG_FACT_CAP) + 1, stop + 1))
    return chain(_log_factorials(stop)[start:stop], above)


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _binom_pmf(k: int, n: int, p: float) -> float:
    """P[Binomial(n, p) = k] for 0 < p <= 1, combined in log domain so large n stays finite."""
    if k < 0 or k > n:
        return 0.0
    if p == 1.0:
        return 1.0 if k == n else 0.0
    return math.exp(_log_comb(n, k) + k * math.log(p) + (n - k) * math.log1p(-p))


def expected_extra_receptions(M: int, q: int) -> float:
    """Expected packets the receiver must capture before holding M independent
    combinations, when coefficients are drawn uniformly from a field of size q.

    Bounded above by M*q/(q-1); approaches M as q grows.
    """
    M, q = as_int(M, "M"), as_int(q, "q")
    if M < 1:
        raise ValueError("M must be positive")
    if q < 2:
        raise ValueError("field size must be >= 2")
    qf = float(q)
    return sum(1.0 / (1.0 - qf ** (-k)) for k in range(1, M + 1))


def state_completion_time(
    i: int,
    N_i: int,
    T_lower: list[float] | tuple[float, ...],
    Pe: float,
    Pe_ack: float,
    T_p: float,
    T_w: float,
) -> float:
    """Expected time to absorption from deficit i given the times of states below it.

    First-step analysis with the self-loop factored out: the round cost
    N_i*T_p + T_w is paid once per visit, and each lower state j < i is
    entered with the binomial probability of exactly i-j arrivals.

    The terms are `_binom_pmf`'s, inlined with the logs of the success and
    failure probabilities taken once per call.  Below 2**16 the log-factorials
    are read from the process's shared table of lgamma's own values, above
    it lgamma is called per term; the operands keep `_binom_pmf`'s order, so
    every value is bit-identical to it.  A success probability of 1 (Pe = 0)
    goes through `_binom_pmf` itself: there the log of the failure
    probability is infinite.
    """
    stay = Pe**N_i
    progress = 1.0 - stay
    t = (N_i * T_p + T_w) / ((1.0 - Pe_ack) * progress)
    acc = 0.0
    lo, p = i - N_i if N_i < i else 1, 1.0 - Pe
    if lo < i and 0.0 < p < 1.0:
        lp, lq = math.log(p), math.log1p(-p)
        if N_i < _LOG_FACT_CAP:
            lf = _LOG_FACT if N_i < len(_LOG_FACT) else _log_factorials(N_i + 1)
            lg_n = lf[N_i]
            for j in range(lo, i):
                k = i - j
                acc += math.exp(lg_n - lf[k] - lf[N_i - k] + k * lp + (N_i - k) * lq) * T_lower[j]
        else:
            lg_n = math.lgamma(N_i + 1)
            for j in range(lo, i):
                k = i - j
                log_pmf = lg_n - math.lgamma(k + 1) - math.lgamma(N_i - k + 1) + k * lp + (N_i - k) * lq
                acc += math.exp(log_pmf) * T_lower[j]
    else:
        for j in range(lo, i):
            acc += _binom_pmf(i - j, N_i, p) * T_lower[j]
    return t + acc / progress


def expected_completion(policy: Policy, sys: SystemParams, timing: Timing) -> CompletionProfile:
    """Expected completion time from every starting deficit under `policy`."""
    if policy.M != sys.M:
        raise ValueError("policy length must equal the block size M")
    T = [0.0]
    for i in range(1, sys.M + 1):
        T.append(state_completion_time(
            i, policy.N[i - 1], T, sys.Pe, sys.Pe_ack, timing.T_p, timing.T_w
        ))
    return CompletionProfile(tuple(T))


def fixed_window_completion(omega: int, sys: SystemParams, timing: Timing) -> CompletionProfile:
    """Completion profile of `fixed_window_policy(omega, M)`: at most `omega`
    coded packets are ever sent per burst."""
    return expected_completion(fixed_window_policy(omega, sys.M), sys, timing)


def full_duplex_completion(sys: SystemParams, timing: Timing) -> float:
    """Mean completion time of the idealized sender that never stops transmitting.

    Coded packets stream until the block is decodable, then ACKs stream back:
    T_rt + M*T_p/(1-Pe) + T_ack/(1-Pe_ack).
    """
    return (
        sys.T_rt
        + sys.M * timing.T_p / (1.0 - sys.Pe)
        + timing.T_ack / (1.0 - sys.Pe_ack)
    )


def sw_mean_throughput(N_1: int, sys: SystemParams, timing: Timing) -> float:
    """Mean throughput (bits/second) of the single-packet block, M = 1.

    The round count is geometric, so E[1/T] has the closed form
    -p0*ln(p0) / (p1 * round) with round = N_1*T_p + T_w and p0 the
    per-round completion probability (1 - Pe_ack)(1 - Pe**N_1), the chain's
    own term in `state_completion_time`; p0 > 0, as Pe, Pe_ack < 1.  At
    p1 = 1 - p0 = 0 the deterministic limit n/round applies.  N_1 is an
    integer from 1 to 2**53, as in `Policy`.
    """
    if sys.M != 1:
        raise ValueError("mean throughput closed form requires M = 1")
    N_1 = as_int(N_1, "N_1")
    if not 1 <= N_1 <= INT_BOUND:
        raise ValueError("N_1 must be an integer from 1 to 2**53")
    p_done = (1.0 - sys.Pe_ack) * (1.0 - sys.Pe**N_1)
    round_time = N_1 * timing.T_p + timing.T_w
    p_stay = 1.0 - p_done
    if p_stay == 0.0:
        return sys.n / round_time
    return sys.n * (-p_done * math.log(p_done)) / (p_stay * round_time)
