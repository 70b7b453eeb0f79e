"""Absorbing-chain analysis of the burst/listen protocol and its analytic baselines.

The transfer of a block is a Markov chain on the receiver's deficit
(missing dofs), states M down to 0.  One round = a burst of N_i coded
packets followed by one wait for an ACK; a lost ACK leaves the chain in
place, so progress made during that round is not credited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


# Where Pe**N underflows, the running product of the chances carries a power of 2
# beside it.  `state_completion_time` starts from Pe**N lifted by a power of _LIFT
# and takes one lift off whenever the product passes 1, a compare a term (a frexp a
# term doubled the time of such calls); `_arrival_chances` moves the power into an
# exponent array with frexp once a block of rows.
_LIFT_BITS = 600
_LIFT = 2.0**_LIFT_BITS
_TINY = 2.0**-1022   # the least normal float
_LN2 = math.log(2.0)


def _arrival_chances(N, stay, rows: int, Pe: float):
    """`state_completion_time`'s law over whole arrays, within its error bounds:
    entry [k, c] is the chance of k < rows arrivals in a burst of N[c] packets.

    N is a float array of ascending burst sizes and stay their Pe**N.  Row k is
    row k - 1 times (N - k + 1)*r/k.  A column whose Pe**N underflows runs as a
    mantissa and a power of 2.  A k above N has chance 0 (or -0).
    """
    import numpy as np

    out = np.empty((rows, N.size))
    p = 1.0 - Pe
    if p == 1.0:   # every packet arrives
        np.equal(np.arange(rows)[:, None], N, out=out)
        return out
    r = p / Pe
    k = np.arange(1.0, rows)
    if N.size > 1 and N[-1] - N[0] == N.size - 1:
        # consecutive sizes (the search's window), one pass instead of two: [k, c] of a
        # skew view of v is v[c - k + rows - 1] = N[c] - k + 1
        v = np.arange(N[0] + 2.0 - rows, N[-1] + 2.0)
        skew = np.ndarray(out.shape, float, v, (rows - 1) * v.itemsize, (-v.itemsize, v.itemsize))
        np.multiply(skew[1:], (r / k)[:, None], out=out[1:])
    else:
        np.subtract(N + 1.0, k[:, None], out=out[1:])
        out[1:] *= (r / k)[:, None]
    # Pe**N falls in N, so where it underflows that is a suffix of the columns
    lin = N.size if stay[-1] >= _TINY else int(np.count_nonzero(stay >= _TINY))
    out[0, :lin] = stay[:lin]
    if lin < N.size:   # there entry [k, c] is out[k, c] * 2**e[c]
        pm, q = math.frexp(Pe)   # Pe**N = exp(N ln pm) * 2**(q N)
        x = N[lin:] * math.log(pm)
        e = np.floor(x / _LN2)
        out[0, lin:], de = np.frexp(np.exp(x - e * _LN2))
        e = e.astype(np.int64) + de + q * N[lin:].astype(np.int64)
    # Running products in blocks of L rows: each block's own, then the block times the
    # last row of the one before.  A factor is below 2**bits, so a block multiplies at
    # most 2**1000 onto its start (one block from row 0 holds the chances themselves
    # while no column is lifted).  Where a row holds few columns, a block's products run
    # down its columns in one call, else a whole row at a time for all blocks, about
    # 2 sqrt(rows) calls that each cost more but run faster a cell; the two cross near
    # N.size * isqrt(rows) = 1500 in timings of tables of 4 to 600 rows.
    bits = max(1, math.frexp(N[-1] * r)[1])
    down = N.size * math.isqrt(rows) < 1500
    if down:
        L = rows if lin == N.size else 1000 // bits
    else:
        L = min(math.isqrt(rows), 1000 // bits)
        for j in range(1, L):
            row = out[j::L]
            row *= out[j - 1::L][:row.shape[0]]
    for b in range(0, rows, L):
        block = out[b:b + L]
        if down:
            np.cumprod(block, axis=0, out=block)
        if b:
            block[:, :lin] *= out[b - 1, :lin]
        if lin < N.size:
            tail = block[:, lin:]
            if b:
                tail *= m
            m, de = np.frexp(tail[-1])
            # int32 powers, a tenth of int64's cost; one below -2100 takes any entry to 0
            np.ldexp(tail, np.maximum(e, -2100).astype(np.int32), out=tail)
            e += de
    return out


def _progress(Pe: float, N, stay: float) -> float:
    """1 - Pe**N, given stay = Pe**N: -expm1(N ln Pe) where Pe**N >= 0.5, so
    that it does not cancel."""
    return 1.0 - stay if stay < 0.5 else -math.expm1(N * math.log(Pe))


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
    entered with the binomial probability of exactly k = i-j arrivals.

    Those chances come from one running product over k: the chance of no
    arrival is Pe**N_i, and each next one is the last times
    (N_i - k + 1)*r/k with r = (1 - Pe)/Pe.  No log-factorial is formed, so
    a term's relative error grows with k, not with N_i: it is within about
    (4k + 2)*2**-53 of the exact chance.  Where Pe**N_i underflows, the
    product starts from Pe**N_i taken as exp(N_i ln m) * 2**(q N_i), with
    Pe = m * 2**q and 1/2 <= m < 1, which adds at most about
    1.4 N_i * 2**-53.  1 - Pe**N_i comes from `_progress`.  A success
    probability of 1 (Pe below 2**-53, Pe = 0 included) sends all N_i
    packets through.
    """
    stay = Pe**N_i
    progress = _progress(Pe, N_i, stay)
    t = (N_i * T_p + T_w) / ((1.0 - Pe_ack) * progress)
    if i == 1:   # no lower state to enter
        return t
    acc = 0.0
    lo, p = i - N_i if N_i < i else 1, 1.0 - Pe
    if p == 1.0:
        for j in range(lo, i):
            acc += (i - j == N_i) * T_lower[j]
        return t + acc / progress
    r, top = p / Pe, N_i + 1
    w, lifts, scale = stay, 0, 1.0   # the chance of k arrivals is w * scale
    if stay < _TINY:   # Pe**N_i = exp(x) * 2**(q N_i), lifted into (2**-600, 1]
        m, q = math.frexp(Pe)
        x = N_i * math.log(m)
        lifts = math.floor(-(x / _LN2 + q * N_i) / _LIFT_BITS)
        w = math.exp(x + (q * N_i + _LIFT_BITS * lifts) * _LN2)
        scale = _LIFT**-lifts
    for k in range(1, i - lo + 1):
        w *= (top - k) * r / k
        if w > 1.0 and lifts:
            w /= _LIFT
            lifts -= 1
            scale = _LIFT**-lifts
        acc += w * scale * T_lower[i - k]
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
    p_done = (1.0 - sys.Pe_ack) * _progress(sys.Pe, N_1, sys.Pe**N_1)
    round_time = N_1 * timing.T_p + timing.T_w
    p_stay = 1.0 - p_done
    if p_stay == 0.0:
        return sys.n / round_time
    return sys.n * (-p_done * math.log(p_done)) / (p_stay * round_time)
