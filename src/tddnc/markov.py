"""Absorbing-chain analysis of the burst/listen protocol and its analytic baselines.

The transfer of a block is a Markov chain on the receiver's deficit
(missing dofs), states M down to 0.  One round = a burst of N_i coded
packets followed by one wait for an ACK; a lost ACK leaves the chain in
place, so progress made during that round is not credited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import SystemParams, Timing, as_int


@dataclass(frozen=True)
class Policy:
    """Burst sizes indexed by deficit: N[i-1] packets are sent when i dofs are missing."""

    N: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "N", tuple(as_int(v, "burst size") for v in self.N))
        if len(self.N) < 1:
            raise ValueError("policy must cover at least one state")
        if any(v < 1 for v in self.N):
            raise ValueError("every burst size must be >= 1")

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


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _binom_pmf(k: int, n: int, p: float) -> float:
    """P[Binomial(n, p) = k] for 0 < p <= 1, combined in log domain so large n stays finite."""
    if k < 0 or k > n:
        return 0.0
    if p == 1.0:
        return 1.0 if k == n else 0.0
    return math.exp(_log_comb(n, k) + k * math.log(p) + (n - k) * math.log1p(-p))


def _binom_tail(k: int, n: int, p: float) -> float:
    """P[Binomial(n, p) >= k], summed only over the terms that count.

    Past the mean the pmf only shrinks, so for k > n*p the terms from k up
    are added until one no longer changes the sum: every later term is
    smaller, and the result equals the left-to-right sum of all n - k + 1
    terms bit for bit.  For k <= n*p the tail is at least 1/2, so it is
    1 - P[X < k], with that lower sum taken the same way from k - 1 down.
    """
    if k > n * p:
        return _shrinking_sum(range(k, n + 1), n, p)
    return 1.0 - _shrinking_sum(range(k - 1, -1, -1), n, p)


def _shrinking_sum(ks, n: int, p: float) -> float:
    """Sum of the pmf over `ks`, whose terms shrink, up to the first term that adds nothing."""
    acc = 0.0
    for k in ks:
        t = _binom_pmf(k, n, p)
        if acc + t == acc:
            break
        acc += t
    return acc


def transition_prob(i: int, j: int, N_i: int, Pe: float, Pe_ack: float) -> float:
    """One-round transition probability of the deficit chain, state i to state j.

    j < i requires exactly i-j of the N_i packets to arrive (and the ACK);
    j = 0 collects every outcome with i or more arrivals; j = i covers a
    fully erased burst or a lost ACK.  Rows sum to one for any N_i >= 1:
    the binomial coefficient is taken as zero outside 0 <= i-j <= N_i, so
    state 0 is reachable in one round only when N_i >= i.
    """
    i, j, N_i = as_int(i, "i"), as_int(j, "j"), as_int(N_i, "N_i")
    if i < 1 or j < 0 or j > i:
        raise ValueError("states must satisfy 0 <= j <= i, i >= 1")
    if N_i < 1:
        raise ValueError("N_i must be >= 1")
    if not (0.0 <= Pe < 1.0 and 0.0 <= Pe_ack < 1.0):
        raise ValueError("erasure probabilities must lie in [0, 1)")
    if j == i:
        return (1.0 - Pe_ack) * Pe**N_i + Pe_ack
    if j == 0:
        return (1.0 - Pe_ack) * _binom_tail(i, N_i, 1.0 - Pe)
    return (1.0 - Pe_ack) * _binom_pmf(i - j, N_i, 1.0 - Pe)


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
    failure probabilities and lgamma(N_i + 1) taken once per call; the
    operands keep `_binom_pmf`'s order, so every value is bit-identical to
    it.  A success probability of 1 (Pe = 0) goes through `_binom_pmf`
    itself: there the log of the failure probability is infinite.
    """
    stay = Pe**N_i
    progress = 1.0 - stay
    t = (N_i * T_p + T_w) / ((1.0 - Pe_ack) * progress)
    acc = 0.0
    lo, p = max(1, i - N_i), 1.0 - Pe
    if lo < i and 0.0 < p < 1.0:
        lg_n, lp, lq = math.lgamma(N_i + 1), math.log(p), math.log1p(-p)
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
    -p0*ln(p0) / (p1 * round) with p0 the per-round completion probability
    and round = N_1*T_p + T_w.  At p1 = 0 the deterministic limit n/round
    applies.
    """
    if sys.M != 1:
        raise ValueError("mean throughput closed form requires M = 1")
    p_done = transition_prob(1, 0, N_1, sys.Pe, sys.Pe_ack)
    if p_done <= 0.0:
        raise ValueError("completion probability per round is zero")
    round_time = N_1 * timing.T_p + timing.T_w
    p_stay = 1.0 - p_done
    if p_stay == 0.0:
        return sys.n / round_time
    return sys.n * (-p_done * math.log(p_done)) / (p_stay * round_time)
