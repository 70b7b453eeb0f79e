"""Delay-optimal burst policies, throughput, and the classical ARQ baselines."""

from __future__ import annotations

import contextlib
import math
import sys as _sys
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

from .markov import (
    CompletionProfile,
    Policy,
    _log_factorial_run,
    expected_completion,
    state_completion_time,
)
from .params import SystemParams, Timing, as_int, derive_timing

_TABLE_ENTRIES = 7 << 14
_RESCORE_REL = 1e-10
_SCAN_TERMS = 32  # an estimate costs about as much as this many scalar binomial terms
# The searches of a process without numpy score their ranges with the scalar
# routine up to this many binomial terms in all before one imports numpy: about
# 7 ms against about 100 ms for the import on a 2-vCPU VM.  That covers the
# searches of M up to 16 drawn by the benchmark, and is all that a process loses
_SCALAR_BUDGET = 1 << 15
_scalar_left = _SCALAR_BUDGET   # what this process's searches have not spent of it

np = None   # numpy, imported by the first `_Terms`: a search that builds none runs without it


class SearchCounts(NamedTuple):
    """Candidates N of one state's search, by how they were scored.

    scanned    scored by the scalar routine without an estimate: the seed, the
               candidates of a range too short to estimate or scored within a
               process's numpy-free budget, and the tie check past the range
    estimated  estimated from the search's table of terms
    rescored   estimates re-scored by the scalar routine

    `state_completion_time` is called scanned + rescored times.  The counts
    depend on whether the process had imported numpy before the search (see
    `optimal_policy`); the policy, its profile and the search bounds do not.
    """

    scanned: int
    estimated: int
    rescored: int


@dataclass(frozen=True)
class OptimalPolicyResult:
    """An optimized policy, its completion profile, the per-state search bound used,
    and the per-state counts of scored candidates."""

    policy: Policy
    profile: CompletionProfile
    search_bounds_used: tuple[int, ...]
    search_counts: tuple[SearchCounts, ...]


class _Terms:
    """The terms of `state_completion_time` that one search shares between its states.

    None of them depends on the state.  Tables by N hold 1 - Pe**N (from the
    libm pow behind Python's own Pe**N), the round term
    (N*T_p + T_w) / ((1 - Pe_ack)(1 - Pe**N)) and lgamma(N + 1), copied from the
    process's shared table in `markov`, grown as the search reaches larger N.
    A window `pmf[rows - k, N - lo]` holds the binomial pmf of k = rows..1
    arrivals in a burst of N, rows of descending k, so that state i reads its
    candidates' terms as the last i - 1 rows of their columns.

    The window holds at most _TABLE_ENTRIES = 7 * 2**14 terms.  A request that it does
    not cover refills it from the request's first N for the later states as
    well, as many as fit: their ranges are taken to grow in proportion to i,
    so state s needs s - 1 rows and the columns up to about end*s/i.  A
    range too wide for one window is walked in blocks, each filled for its
    state alone.  So a term is computed once for all the states a window
    serves, not once per state.  State 1 reads no row, so the window is
    first filled by the first state i >= 2 that estimates.  The window is
    the search's only buffer of terms (0.9 MB at most); a refill frees it
    before allocating the next.

    A pmf term keeps the scalar routine's operands in their order, so np.exp
    differs from math.exp by an ulp or so.  A state sums its rows with one
    matrix-vector product, in BLAS's order rather than the scalar loop's;
    the terms are positive, so any order is within about i * 2**-53 relative
    of the scalar sum.  An estimate spans at least two N in at most
    _TABLE_ENTRIES terms, so only states i <= 57345 are estimated and this
    stays below 7e-12, inside the 1e-10 re-score window.  The tests hold the
    estimates to 1e-12 relative up to i = 500.
    """

    def __init__(self, M, Pe, Pa, T_p, T_w):
        global np
        import numpy as np

        self.M, self.Pe, self.Pa, self.T_p, self.T_w = M, Pe, Pa, T_p, T_w
        p = 1.0 - Pe
        self.lq = math.log1p(-p) if p < 1.0 else -math.inf
        self.k_lp = np.arange(M) * math.log(p)   # k * ln(p) for k arrivals
        self.progress = self.rounds = np.empty(0)
        # log_fact[M + m] = lgamma(m + 1); the M entries below pad the unread
        # terms k >= N of a row, so that every read stays inside the array
        self.log_fact = np.zeros(M)
        self.lo, self.pmf = 0, np.empty((0, 0))

    def estimates(self, i, n, end, T):
        """`state_completion_time(i, N, T, ...)` for n <= N < end.

        The caller keeps (i - 1)(end - n) within _TABLE_ENTRIES.  The sum over
        the lower states is one matrix-vector product, in BLAS's order.
        """
        rows, width = self.pmf.shape
        if i > rows + 1 or not self.lo <= n < end <= self.lo + width:
            self._refill(i, n, end)
            rows = self.pmf.shape[0]
        pmf = self.pmf[rows - i + 1:, n - self.lo:end - self.lo]
        return self.rounds[n:end] + np.array(T[1:i]) @ pmf / self.progress[n:end]

    def _refill(self, i, n, end):
        """Fill the window from N = n for state i and, at the first block of its
        range, for the later states that fit.  State 1 reads no row, so for it
        only the tables by N grow."""
        if i == 1:
            self._grow(end)
            self.pmf, self.lo = np.empty((0, end - n)), n
            return
        last, top = i, self.M if n == i else i
        while last < top:   # bisect for the last state s whose terms fit
            mid = (last + top + 1) // 2
            if (mid - 1) * (-(-end * mid // i) - n) <= _TABLE_ENTRIES:
                last = mid
            else:
                top = mid - 1
        rows, cols = last - 1, -(-end * last // i) - n
        self._grow(n + cols)
        self.pmf = None   # freed before its successor is allocated
        self.pmf = pmf = np.empty((rows, cols))
        self.lo = n
        if not rows:
            return
        # entry [r, c] is k = rows - r arrivals in N = n + c; k < n + cols, and a
        # k >= N leaves a term that no state reads
        M, lf, step = self.M, self.log_fact, self.log_fact.itemsize
        np.subtract(lf[M + n:M + n + cols], lf[M + 1:M + rows + 1][::-1, None], out=pmf)
        # [r, c] of a skew view of v is v[r + c]: the lgamma and log1p terms of N - k
        pmf -= np.ndarray((rows, cols), float, lf, (M + n - rows) * step, (step, step))
        pmf += self.k_lp[1:rows + 1][::-1, None]
        tail = np.arange(n - rows, n + cols - 1) * self.lq
        pmf += np.ndarray((rows, cols), float, tail, 0, (step, step))
        np.exp(pmf, out=pmf)

    def _grow(self, top):
        """Extend the tables by N to N < top."""
        ns = range(self.progress.size, top)
        if not ns:
            return
        N = np.arange(ns.start, top, dtype=float)
        # math.pow of N as a float is the libm call behind Python's own Pe**N, without
        # its int-to-float step
        progress = 1.0 - np.fromiter(map(math.pow, repeat(self.Pe), N.tolist()), float, len(ns))
        rounds = (N * self.T_p + self.T_w) / ((1.0 - self.Pa) * progress)
        # the first block is the table itself: nothing to append to
        self.progress = np.concatenate((self.progress, progress)) if ns.start else progress
        self.rounds = np.concatenate((self.rounds, rounds)) if ns.start else rounds
        if self.M > 1:
            more = np.fromiter(_log_factorial_run(ns.start, top), float, len(ns))
            self.log_fact = np.concatenate((self.log_fact, more))


def _live_end(n, stop, best_t, Pa, T_p, T_w):
    """First N in [n, stop) whose bound (N*T_p + T_w)/(1 - Pa) is not below `best_t`, else `stop`.

    The bound does not decrease in N, even in floating point: the answer is the root
    (best_t(1 - Pa) - T_w)/T_p rounded up and clipped to [n, stop], or, where rounding
    moved it, found by bisection beside it.  A NaN `best_t` leaves no N live.
    """
    keep = 1.0 - Pa   # N is live where (N*T_p + T_w) / keep < best_t
    root = (best_t * keep - T_w) / T_p
    lo = hi = n if not root > n else max(n, stop) if not root < stop else math.ceil(root)
    if lo < stop and (lo * T_p + T_w) / keep < best_t:
        lo, hi = lo + 1, stop
    elif lo > n and not ((lo - 1) * T_p + T_w) / keep < best_t:
        lo, hi = n, lo - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if (mid * T_p + T_w) / keep < best_t:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _real_N1(Pe, T_p, T_w):
    """The real minimizer of T_1(N) = (N*T_p + T_w) / (1 - Pe**N) for 0 < Pe < 1.

    It is ln(-W) / -ln(Pe) with W = W_{-1}(-exp(-1 - d)) and
    d = -ln(Pe)*T_w/T_p.  This equals (1 + W)/ln(Pe) - T_w/T_p, since
    ln(-W) = -W - 1 - d, but takes no difference of large terms.
    """
    ln_pe = math.log(Pe)
    return math.log(-_w_minus1_at(-ln_pe * (T_w / T_p))) / -ln_pe


def _seed_N1(Pe, T_p, T_w):
    """The rounded real minimizer of T_1, the first candidate the search scores at i = 1.

    Pe = 0 or a minimizer that is not finite gives 1.
    """
    if Pe == 0.0:
        return 1
    x = _real_N1(Pe, T_p, T_w)
    return max(1, round(x)) if math.isfinite(x) else 1


def optimal_policy(sys: SystemParams, timing: Timing) -> OptimalPolicyResult:
    """Minimize expected completion time with M one-dimensional integer searches.

    The time from deficit i depends on lower states only, so each N_i is
    optimized given the already-minimized T_1..T_{i-1}.  Every round costs
    N*T_p + T_w and leaves state i with probability at most 1 - Pe_ack, so
    the state lasts at least 1/(1 - Pe_ack) rounds on average and

        T_i(N) >= (N*T_p + T_w) / (1 - Pe_ack),

    a bound that grows with N.  Each state first scores a seed, a guess at
    N_i: the rounded continuous optimum at i = 1 (`_seed_N1`), else the
    line through N_{i-2} and N_{i-1} (N_0 = 0), never below i.  Only an N
    whose bound is below the seed's time can beat it, so the search scores
    that whole range, [i, first N whose bound reaches it), and the minimum
    is proven; nothing is tuned.  The first N above N_i whose bound reaches
    T_i is reported as the search bound.  Ties break toward smaller N, and
    a seed past the range is tied only by an N whose bound equals its time.

    A range whose scalar calls would cost at most 32 binomial terms (a call
    at state i costs about i) is scored with the scalar
    `state_completion_time`.  A longer one is estimated at once from a
    table of the terms that the search's states share (`_Terms`), which
    holds at most 7 * 2**14 binomial terms; a range wider than that for its
    state's rows is estimated in blocks.  An estimate sums its terms with
    one matrix-vector product, in BLAS's order, so it is within about
    i * 2**-53 relative of the scalar value.  Every candidate within 1e-10
    relative of a block's minimum estimate is re-scored with the scalar
    routine, and the winner and its T_i come from those scalar values, so
    policies and profiles are exactly those of a scalar search.

    A process that has not imported numpy runs its searches without it for
    as long as it can: until the ranges its searches have scored with the
    scalar routine would pass 2**15 binomial terms in all, about the cost
    of importing numpy, it scores every range that way.  The first range
    past that imports numpy and is estimated, and so is every later one as
    above.  A process that holds numpy already estimates from the start.
    The seed, the 32, the 2**15 and the table's size set only the speed.
    """
    global _scalar_left
    budget = 0 if "numpy" in _sys.modules else _scalar_left
    result, spent = _search(sys.M, sys.Pe, sys.Pe_ack, timing.T_p, timing.T_w, budget)
    if budget:   # searches racing in threads may both spend it: that moves only the speed
        _scalar_left = max(0, budget - spent)
    return result


def _search(M, Pe, Pa, T_p, T_w, budget) -> tuple[OptimalPolicyResult, int]:
    """The search of `optimal_policy` and the binomial terms of the ranges it
    scored with the scalar routine.  Ranges are scored that way while their
    terms stay within `budget` and no estimate has been made; the first
    estimate enters numpy's error state for the rest of the search."""
    terms = None   # built at the first estimate
    spent = 0      # binomial terms of the ranges scored with the scalar routine
    T: list[float] = [0.0]
    sizes = [0]
    bounds: list[int] = []
    counts: list[SearchCounts] = []
    keep = 1.0 - Pa   # N can beat or tie best_t only where (N*T_p + T_w) / keep < best_t
    with contextlib.ExitStack() as numpy_scope:
        for i in range(1, M + 1):
            seed = max(i, 2 * sizes[-1] - sizes[-2]) if i > 1 else _seed_N1(Pe, T_p, T_w)
            best_t, scanned = state_completion_time(i, seed, T, Pe, Pa, T_p, T_w), 1
            if seed > i and not best_t < math.inf:
                # a seed without a finite time bounds nothing: search upward from N = i
                seed, best_t, scanned = i, state_completion_time(i, i, T, Pe, Pa, T_p, T_w), 2
            best_n, estimated, rescored = seed, 0, 0
            widest = _TABLE_ENTRIES // max(1, i - 1)
            n = i
            while True:
                end = _live_end(n, n + widest, best_t, Pa, T_p, T_w)
                cost = (end - n) * i
                scalar = cost - i <= _SCAN_TERMS or (terms is None and spent + cost <= budget)
                if scalar:
                    spent += cost
                    scored = [m for m in range(n, end) if m != seed]
                else:
                    if terms is None:
                        terms = _Terms(M, Pe, Pa, T_p, T_w)
                        # overflow and 0*inf behave as in the scalar routine
                        numpy_scope.enter_context(np.errstate(all="ignore"))
                    est = terms.estimates(i, n, end, T)
                    estimated += end - n
                    # an estimate is NaN only where a lower T_j is not finite, and then
                    # none is finite: a NaN minimum, like an infinite one, scores nothing
                    low = est[est.argmin()]
                    near = (est <= low + low * _RESCORE_REL).nonzero()[0].tolist()
                    scored = [n + r for r in near if n + r != seed] if low < math.inf else []
                for m in scored:
                    if m > best_n and not (m * T_p + T_w) / keep < best_t:
                        break  # neither this N nor a larger one can beat or tie the best
                    t = state_completion_time(i, m, T, Pe, Pa, T_p, T_w)
                    scanned, rescored = scanned + scalar, rescored + (not scalar)
                    if t < best_t or (t == best_t and m < best_n):
                        best_t, best_n = t, m
                if end < n + widest:
                    break
                n = end
            # past the live range every bound is at least the seed's time, so a
            # smaller N ties the seed only where its bound equals that time
            for m in range(end, best_n):
                scanned += 1
                if state_completion_time(i, m, T, Pe, Pa, T_p, T_w) == best_t:
                    best_n = m
                    break
            sizes.append(best_n)
            bounds.append(_live_end(best_n + 1, end, best_t, Pa, T_p, T_w))
            counts.append(SearchCounts(scanned, estimated, rescored))
            T.append(best_t)
    return OptimalPolicyResult(
        policy=Policy(tuple(sizes[1:])),
        profile=CompletionProfile(tuple(T)),
        search_bounds_used=tuple(bounds),
        search_counts=tuple(counts),
    ), spent


_BRANCH_POINT = -math.exp(-1.0)


def _w_minus1_at(d: float) -> float:
    """W_{-1}(-exp(-1 - d)) for d >= 0, as -u for the root u >= 1 of u - ln(u) = 1 + d.

    Halley's method in e = u - 1 on f(e) = e - log1p(e) - d.  Taking d
    itself, not 1 + d, keeps its digits near the branch point d = 0, where
    u ~ 1 + sqrt(2d).  It starts from u = 1 + sqrt(2d) + 2d/3 when d < 1,
    else from u = s + ln(s) with s = 1 + d, and stops at an exact root, when
    a step no longer moves u, or when a step is no smaller than the one
    before it (the rounding floor; Halley steps shrink cubically).
    """
    if d < 1.0:
        e = math.sqrt(2.0 * d) + 2.0 * d / 3.0
    else:
        e = d + math.log1p(d)
    u, last = 1.0 + e, math.inf
    while True:
        f = e - math.log1p(e) - d
        if not f:
            return -u
        # f' = e/u and f'' = 1/u**2; this form of the Halley step cannot overflow
        step = f * u / (e - f / (2.0 * e))
        if not abs(step) < last:
            return -u
        e, last = e - step, abs(step)
        if 1.0 + e == u:
            return -u
        u = 1.0 + e


def lambert_w_minus1(x: float) -> float:
    """Lower real branch of w*exp(w) = x for x in [-1/e, 0).

    With u = -w the defining equation reads u - ln(u) = -ln(-x) >= 1,
    which `_w_minus1_at` solves.
    """
    if not (_BRANCH_POINT <= x < 0.0):
        raise ValueError("argument must lie in [-1/e, 0)")
    if x == _BRANCH_POINT:
        return -1.0
    return _w_minus1_at(-math.log(-x) - 1.0)


def continuous_optimum_N1(sys: SystemParams, timing: Timing) -> float:
    """Real-valued stationary point of T_1(N) for the single-packet block.

    N* = (1 + W_{-1}(-exp(-1 - d))) / ln(Pe) - T_w/T_p with d = -ln(Pe)*T_w/T_p,
    evaluated as ln(-W) / -ln(Pe), which does not cancel as T_w/T_p grows.
    d is positive, so the argument falls inside (-1/e, 0); the branch is
    solved from d directly, so no exp underflows however large d is.
    Undefined at Pe = 0, where the discrete optimum is 1.
    """
    if sys.M != 1:
        raise ValueError("closed form applies to M = 1")
    if not 0.0 < sys.Pe < 1.0:
        raise ValueError("Pe must lie in (0, 1); at Pe = 0 the discrete optimum is 1")
    return _real_N1(sys.Pe, timing.T_p, timing.T_w)


def eta(sys: SystemParams, timing: Timing, policy: Policy) -> float:
    """Block throughput M*n / T_M in bits/second for the given policy; a
    profile that is not finite raises ValueError."""
    profile = expected_completion(policy, sys, timing)
    if not profile.finite:
        raise ValueError("completion time is not finite under this policy")
    return sys.M * sys.n / profile.T_M


def _arq_cycle(sys: SystemParams, W: int) -> float:
    """Seconds of one ARQ round: W uncoded packets of h + n bits, then the
    coded link's wait for an ACK.  W must be an integer >= 1."""
    if as_int(W, "W") < 1:
        raise ValueError("window size must be >= 1")
    return W * ((sys.h + sys.n) / sys.R) + derive_timing(sys).T_w


def eta_gbn(sys: SystemParams, W: int) -> float:
    """Half-duplex Go-Back-N throughput, window W; the Pe = 0 limit equals Selective Repeat's."""
    cycle = _arq_cycle(sys, W)
    if sys.Pe == 0.0:
        return W * sys.n / cycle
    keep = 1.0 - sys.Pe
    # 1 - (1-Pe)**W via expm1 so the small-Pe limit does not cancel away
    window_loss = -math.expm1(W * math.log1p(-sys.Pe))
    return sys.n * keep * window_loss / (cycle * sys.Pe)


def eta_sr(sys: SystemParams, W: int) -> float:
    """Half-duplex Selective Repeat throughput: W*n*(1-Pe) / (W*(h+n)/R + T_w)."""
    cycle = _arq_cycle(sys, W)
    return W * sys.n * (1.0 - sys.Pe) / cycle
