import hashlib
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.special import lambertw as scipy_lambertw

from chain_oracle import joint_search
from tddnc import optimizer
from tddnc.markov import (
    Policy,
    expected_completion,
    fixed_window_completion,
    state_completion_time,
)
from tddnc.optimizer import (
    continuous_optimum_N1,
    eta,
    eta_gbn,
    eta_sr,
    lambert_w_minus1,
    optimal_policy,
)
from tddnc.params import SystemParams, Timing, derive_timing

SATELLITE = dict(M=10, n=10000, g=100, h=80, n_ack=100, R=1.5e6, T_rt=0.25)
HIGH_RATE = dict(M=10, n=10000, g=20, h=80, n_ack=100, R=1e7, T_rt=0.25)


def _sys(M=1, Pe=0.0, Pe_ack=0.0, n=10):
    return SystemParams(M=M, n=n, g=1, h=0, n_ack=1, R=1.0, T_rt=0.0, Pe=Pe, Pe_ack=Pe_ack)


def test_optimal_policy_perfect_channel_sends_exactly_the_deficit():
    for M in (1, 4, 10):
        sys = SystemParams(**{**SATELLITE, "M": M})
        res = optimal_policy(sys, derive_timing(sys))
        assert res.policy.N == tuple(range(1, M + 1))


def test_optimal_policy_single_state_matches_exhaustive():
    sys = SystemParams(**{**SATELLITE, "M": 1}, Pe=0.5)
    t = derive_timing(sys)
    res = optimal_policy(sys, t)
    best_n, best_t = None, math.inf
    for n1 in range(1, 501):
        cand = expected_completion(Policy((n1,)), sys, t).T_M
        if cand < best_t:
            best_n, best_t = n1, cand
    assert res.policy.N == (best_n,)
    assert res.profile.T_M == pytest.approx(best_t, rel=1e-12)


def test_optimal_policy_matches_joint_search():
    sys = _sys(M=3, Pe=0.5)
    t = Timing(T_p=1.0, T_ack=0.5, T_w=10.0)
    res = optimal_policy(sys, t)
    t_joint, n_joint = joint_search(3, 40, 0.5, 0.0, 1.0, 10.0)
    assert res.policy.N == n_joint
    assert res.profile.T_M == pytest.approx(t_joint, rel=1e-9)


def test_optimal_policy_reports_search_bounds():
    sys = SystemParams(**SATELLITE, Pe=0.8, Pe_ack=0.001)
    res = optimal_policy(sys, derive_timing(sys))
    assert len(res.search_bounds_used) == sys.M
    assert all(b >= n for b, n in zip(res.search_bounds_used, res.policy.N))


def _bounded_scalar_search(M, Pe, Pe_ack, T_p, T_w):
    """One scalar evaluation per N, from N = i until (N*T_p + T_w)/(1 - Pe_ack) reaches the best."""
    T, sizes = [0.0], []
    for i in range(1, M + 1):
        best_t, best_n, n = math.inf, i, i
        while True:
            t = state_completion_time(i, n, T, Pe, Pe_ack, T_p, T_w)
            if t < best_t:
                best_t, best_n = t, n
            n += 1
            if not (n * T_p + T_w) / (1.0 - Pe_ack) < best_t:
                break
        sizes.append(best_n)
        T.append(best_t)
    return tuple(sizes), tuple(T)


def test_optimal_policy_equals_bounded_scalar_search():
    rng = np.random.default_rng(2009)
    levels = [0.0, 1e-17, 1e-12, 0.99]
    for k in range(160):
        pe = levels[k] if k < len(levels) else float(rng.uniform(0.0, 0.99))
        pe_ack = float(rng.uniform(0.0, 0.5))
        ratio = float(10 ** rng.uniform(-3, 5))
        M = int(rng.integers(1, 31))
        t = Timing(T_p=1e-3, T_ack=0.0, T_w=ratio * 1e-3)
        res = optimal_policy(_sys(M=M, Pe=pe, Pe_ack=pe_ack), t)
        N, T = _bounded_scalar_search(M, pe, pe_ack, t.T_p, t.T_w)
        assert res.policy.N == N, (M, pe, pe_ack, ratio)
        assert res.profile.T == T, (M, pe, pe_ack, ratio)
        assert res.profile.T == expected_completion(res.policy, _sys(M=M, Pe=pe, Pe_ack=pe_ack), t).T
        _assert_first_excluded(res, pe_ack, t)


# sha256 over float.hex of N_i, T_i, the search bounds and a fixed window's profile
# for 300 seeded specs (M 1-40, Pe 0-0.999, T_w/T_p 0.1-1000), recorded from the
# kernel's running product of binomial terms; any faster path must keep every bit
SEARCH_PIN_SHA256 = "5ad9b76c243e71b411f20b663380ce031f32b8ff19386c3295e74f697d15c087"


def _pinned_digest(search):
    """The sha256 of `search`'s policies, profiles and bounds and of a fixed window's
    profile for the 300 pinned specs."""
    rng = np.random.default_rng(25)
    digest = hashlib.sha256()
    for k in range(300):
        M = int(rng.integers(1, 41))
        pe = (0.0, 0.999)[k % 2] if k < 20 else float(rng.uniform(0.0, 0.999))
        sys = SystemParams(M=M, n=1000, g=8, h=0, n_ack=1, R=1.0, Pe=pe,
                           Pe_ack=float(rng.uniform(0.0, 0.3)))
        T_p = float(rng.uniform(1e-4, 1.0))
        t = Timing(T_p=T_p, T_ack=0.0, T_w=T_p * 10 ** float(rng.uniform(-1.0, 3.0)))
        res = search(sys, t)
        fw = fixed_window_completion(int(rng.integers(1, M + 1)), sys, t)
        values = (*map(float, res.policy.N), *res.profile.T,
                  *map(float, res.search_bounds_used), *fw.T)
        digest.update(" ".join(map(float.hex, values)).encode() + b"\n")
    return digest.hexdigest()


def test_search_and_fixed_windows_match_the_pinned_digest():
    assert _pinned_digest(optimal_policy) == SEARCH_PIN_SHA256


def test_a_search_without_numpy_matches_the_pinned_digest():
    # each search as the first of a process that has not imported numpy runs it:
    # its scalar budget moves which candidates are estimated, never a policy, a
    # time or a bound
    def search(sys, t):
        return optimizer._search(sys.M, sys.Pe, sys.Pe_ack, t.T_p, t.T_w,
                                 optimizer._SCALAR_BUDGET)[0]

    assert _pinned_digest(search) == SEARCH_PIN_SHA256


def test_the_searches_of_a_process_without_numpy_share_one_budget(monkeypatch):
    # the M=10 search spends a few thousand scalar terms: the searches fitting
    # in one budget run without estimates, and the next one estimates once the
    # terms left run out; policies, times and bounds stay those of a numpy process
    s = SystemParams(**SATELLITE, Pe=0.8, Pe_ack=0.001)
    t = derive_timing(s)
    held = optimal_policy(s, t)
    _, spent = optimizer._search(s.M, s.Pe, s.Pe_ack, t.T_p, t.T_w, optimizer._SCALAR_BUDGET)
    monkeypatch.setattr(optimizer, "_sys", types.SimpleNamespace(modules={}))
    monkeypatch.setattr(optimizer, "_scalar_left", optimizer._SCALAR_BUDGET)
    free = optimizer._SCALAR_BUDGET // spent
    assert sum(c.estimated for c in held.search_counts) > 0 and free >= 2
    for k in range(free + 1):
        r = optimal_policy(s, t)
        assert (r.policy, r.profile, r.search_bounds_used) == \
            (held.policy, held.profile, held.search_bounds_used)
        assert (sum(c.estimated for c in r.search_counts) > 0) is (k == free)
        if k < free:
            assert optimizer._scalar_left == optimizer._SCALAR_BUDGET - (k + 1) * spent


def _assert_first_excluded(res, pe_ack, t):
    """Each search bound is the first N > N_i where (N*T_p + T_w)/(1 - Pe_ack) reaches T_i."""
    def reach(n):
        return (n * t.T_p + t.T_w) / (1.0 - pe_ack)

    for n_i, t_i, bound in zip(res.policy.N, res.profile.T[1:], res.search_bounds_used):
        assert bound > n_i
        assert not reach(bound) < t_i
        assert bound == n_i + 1 or reach(bound - 1) < t_i


def _live_end_by_scan(n, stop, best_t, Pa, T_p, T_w):
    while n < stop and (n * T_p + T_w) / (1.0 - Pa) < best_t:
        n += 1
    return n


def test_live_end_equals_a_linear_scan():
    # the closed-form start must land on the scan's N wherever rounding
    # moves the root: NaN and inf times, clipped ranges, Pe_ack near 1 and
    # burst sizes near 2**53, where consecutive N share one bound
    rng = np.random.default_rng(23)
    cases = [(1, 10, math.nan, 0.0, 1.0, 0.0), (1, 10, math.inf, 0.0, 1.0, 0.0),
             (5, 5, 3.0, 0.0, 1.0, 0.0), (9, 4, 100.0, 0.0, 1.0, 0.0),
             (1, 50, 7.0, 0.0, 1.0, 0.0), (3, 50, 2.0, 0.0, 1.0, 0.0),
             (1, 40, 1e300, 0.0, 1.0, 0.0), (1, 40, 5.0, 0.0, 1e-300, 1.0),
             (2**53 - 20, 2**53 + 40, float(2**53 + 4), 0.0, 1.0, 0.0),
             (2**54 - 30, 2**54 + 30, float(2**54 + 8), 0.0, 1.0, 0.0),
             (2**53 - 9, 2**53 + 9, math.inf, 0.0, 1.0, 0.0),
             (1, 7 << 14, 1.0 + 2**-52, 0.0, 1e-20, 1.0)]   # a plateau: the root is 11 102 off
    for _ in range(3000):
        n = int(rng.integers(1, 2**int(rng.integers(1, 54))))
        stop = n + int(rng.integers(0, 300))
        T_p = 10.0 ** rng.uniform(-8, 3)
        T_w = float(rng.choice([0.0, 10.0 ** rng.uniform(-6, 6)]))
        Pa = float(rng.choice([0.0, rng.uniform(0, 0.999), 1 - 10.0 ** -rng.uniform(6, 15)]))
        N = n + int(rng.integers(-5, 400))
        best_t = (N * T_p + T_w) / (1.0 - Pa) * float(rng.choice([1.0, 1 + 1e-16, 1 - 1e-16,
                                                                   rng.uniform(0.99, 1.01)]))
        cases.append((n, stop, best_t, Pa, T_p, T_w))
    for case in cases:
        assert optimizer._live_end(*case) == _live_end_by_scan(*case), case


@pytest.mark.parametrize("M, pe, pe_ack, T_p, T_w", [
    (5, 1e-17, 0.0, 1e-20, 1.0),   # a tie plateau: N_i = i, bounds i + 1
    (3, 0.5, 0.0, 1e-20, 1.0),     # the first seed, 66, lies past the plateau it ties
    (3, 0.5, 0.3, 1e-20, 1.0),
    (4, 0.0, 0.2, 1e-3, 0.5),
    (6, 0.0, 0.0, 1e-3, 0.0),
    (6, 0.6, 0.99, 1e-3, 0.05),
    (12, 0.3, 0.99, 1e-3, 2.0),
])
def test_search_where_the_seed_misses_equals_bounded_scalar_search(M, pe, pe_ack, T_p, T_w):
    t = Timing(T_p=T_p, T_ack=0.0, T_w=T_w)
    res = optimal_policy(_sys(M=M, Pe=pe, Pe_ack=pe_ack), t)
    N, T = _bounded_scalar_search(M, pe, pe_ack, T_p, T_w)
    assert res.policy.N == N
    assert res.profile.T == T
    _assert_first_excluded(res, pe_ack, t)


def test_search_near_certain_loss_pins_policy_and_bounds():
    # two bursts of thousands of packets; the bound excludes N only near T_i / T_p
    sys = SystemParams(M=2, n=10000, g=8, h=80, n_ack=100, R=1.5e6, T_rt=0.25,
                       Pe=0.99999, Pe_ack=0.001)
    res = optimal_policy(sys, derive_timing(sys))
    assert res.policy.N == (2714, 11870)
    assert res.search_bounds_used == (102714, 203120)
    _assert_first_excluded(res, 0.001, derive_timing(sys))


def test_range_wider_than_the_table_equals_bounded_scalar_search():
    t = Timing(T_p=1e-3, T_ack=0.0, T_w=0.05)
    res = optimal_policy(_sys(M=8, Pe=0.9995), t)
    # state 8's live range holds more candidates than the table holds for its 7
    # rows, so it is walked in blocks, each refilling the table
    assert res.search_counts[-1].estimated > optimizer._TABLE_ENTRIES // 7
    N, T = _bounded_scalar_search(8, 0.9995, 0.0, t.T_p, t.T_w)
    assert res.policy.N == N
    assert res.profile.T == T
    _assert_first_excluded(res, 0.0, t)


def test_estimates_past_an_infinite_lower_time_equal_bounded_scalar_search():
    # T_2 overflows, so every term of states 3 to 8 that reads it is infinite; at
    # M = 8 the search is long enough to estimate from the table
    t = Timing(T_p=1e307, T_ack=0.0, T_w=0.0)
    res = optimal_policy(_sys(M=8, Pe=0.9), t)
    assert res.profile.T[2] == math.inf
    assert res.search_counts[2].estimated > 0 and res.search_counts[3].estimated > 0
    N, T = _bounded_scalar_search(8, 0.9, 0.0, t.T_p, t.T_w)
    assert res.policy.N == N
    assert res.profile.T == T
    _assert_first_excluded(res, 0.0, t)


@pytest.mark.parametrize("M, pe, ratio, estimates", [(8, 0.45, 30.0, False),
                                                     (16, 0.88, 300.0, True)])
def test_state_1_picks_the_scorer_of_the_later_states(monkeypatch, M, pe, ratio, estimates):
    # state 1's live range predicts the cost of states 2..M: the short search is
    # scored by the scalar routine throughout, the long one estimates from the table;
    # a table that cost nothing to set up would be used by both, with the same result
    t = Timing(T_p=1e-3, T_ack=0.0, T_w=ratio * 1e-3)
    N, T = _bounded_scalar_search(M, pe, 0.01, t.T_p, t.T_w)
    for setup in (optimizer._TABLE_SETUP, -10**9):
        monkeypatch.setattr(optimizer, "_TABLE_SETUP", setup)
        res = optimal_policy(_sys(M=M, Pe=pe, Pe_ack=0.01), t)
        estimated = [c.estimated for c in res.search_counts]
        assert (estimated == [0] * M) is (not estimates and setup > 0), estimated
        assert res.policy.N == N
        assert res.profile.T == T
        _assert_first_excluded(res, 0.01, t)


@pytest.mark.parametrize("pe", [0.3, 0.9, 0.999, 1 - 1e-6])
def test_estimates_are_within_1e_12_of_the_scalar_routine(pe):
    # Near Pe = 1 the table takes 1 - Pe**N as the scalar routine does, from its power.
    # One table serves every state, its window moving up and back down, under the
    # search's own error state (its unread entries may overflow).  The long sums
    # of i = 120..500 run in BLAS's order, not the scalar loop's.
    top = 10**4
    terms = optimizer._Terms(501, pe, 0.05, 1e-3, 0.4)
    for i in (1, 2, 7, 23, 40, 120, 300, 500):
        T = [0.0] + [j * (1.0 + 0.37 * math.sin(j)) for j in range(1, i)]
        for n0, n1 in ((i, i + 60), (top - 59, top + 1)):
            with np.errstate(all="ignore"):
                est = terms.estimates(i, n0, n1, T)
            assert terms.pmf.size <= optimizer._TABLE_ENTRIES
            exact = np.array([state_completion_time(i, n, T, pe, 0.05, 1e-3, 0.4)
                              for n in range(n0, n1)])
            assert np.all(np.abs(est - exact) <= 1e-12 * exact), (i, n0)


def test_one_blas_thread_gives_the_same_search():
    # M=200 at Pe=0.8 estimates blocks of up to 7 * 2**14 window entries, which a
    # threaded gemv may split differently from a single thread; the variable does
    # nothing under a BLAS other than OpenBLAS
    spec = dict(M=200, n=10000, g=8, h=80, n_ack=100, R=1.5e6, T_rt=0.25, Pe=0.8, Pe_ack=0.001)
    # numpy is imported first, as in this process: a search in a process without
    # it scores more candidates with the scalar routine, so its counts differ
    code = ("import numpy; from tddnc.optimizer import optimal_policy; "
            "from tddnc.params import SystemParams, derive_timing; "
            f"s = SystemParams(**{spec!r}); r = optimal_policy(s, derive_timing(s)); "
            "print(repr((r.policy.N, r.profile.T, r.search_bounds_used, r.search_counts)))")
    src = Path(optimizer.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"})
    s = SystemParams(**spec)
    r = optimal_policy(s, derive_timing(s))
    assert out.stdout.strip() == repr((r.policy.N, r.profile.T, r.search_bounds_used,
                                       r.search_counts))


def test_search_counts_account_for_every_scalar_call(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return state_completion_time(*args)

    monkeypatch.setattr(optimizer, "state_completion_time", counted)
    # M=2 at Pe=0.9 and T_w/T_p = 1000 searches far past its scalar scan
    cases = [(2, 0.9, 1000.0), (1, 0.0, 1.0), (8, 0.45, 30.0), (16, 0.88, 300.0), (30, 0.99, 5.0)]
    for M, pe, ratio in cases:
        t = Timing(T_p=1e-3, T_ack=0.0, T_w=ratio * 1e-3)
        calls.clear()
        res = optimal_policy(_sys(M=M, Pe=pe, Pe_ack=0.01), t)
        assert len(calls) == sum(c.scanned + c.rescored for c in res.search_counts)
        assert len(res.search_counts) == M
        assert all(c.scanned >= 1 and 0 <= c.rescored <= c.estimated for c in res.search_counts)
        assert optimal_policy(_sys(M=M, Pe=pe, Pe_ack=0.01), t).search_counts == res.search_counts
        if (M, pe) == (2, 0.9):
            # state 1's range is estimated in one block: the seed is its only scalar call
            assert res.search_counts[0].scanned == 1
            assert res.search_counts[0].estimated > 0


def test_optimal_policy_beats_fixed_windows():
    sys = SystemParams(**SATELLITE, Pe=0.6, Pe_ack=0.001)
    t = derive_timing(sys)
    best = optimal_policy(sys, t).profile.T_M
    for omega in range(1, 30):
        assert best <= fixed_window_completion(omega, sys, t).T_M * (1 + 1e-12)


def test_lambert_branch_point_and_reference_value():
    assert lambert_w_minus1(-math.exp(-1.0)) == -1.0
    assert lambert_w_minus1(-0.1) == pytest.approx(-3.577152063957297, rel=1e-12)


def test_lambert_defining_equation():
    rng = np.random.default_rng(11)
    for _ in range(300):
        x = -math.exp(-1.0) * float(rng.uniform(1e-6, 1.0 - 1e-9))
        w = lambert_w_minus1(x)
        assert w <= -1.0
        assert abs(w * math.exp(w) - x) <= 1e-12 * abs(x)


def test_lambert_agrees_with_scipy():
    for u in (1e-5, 1e-3, 0.05, 0.3, 0.7, 0.95, 0.999):
        x = -math.exp(-1.0) * u
        assert lambert_w_minus1(x) == pytest.approx(float(scipy_lambertw(x, -1).real), rel=1e-10)


def test_lambert_rejects_out_of_domain():
    for x in (0.0, 0.5, -1.0, -math.exp(-1.0) - 1e-6):
        with pytest.raises(ValueError):
            lambert_w_minus1(x)


def _brute_minimizer_n1(pe, ratio, hi):
    best, best_n = math.inf, 1
    for n1 in range(1, hi):
        t = (n1 + ratio) / (1 - pe**n1)
        if t < best:
            best, best_n = t, n1
    return best_n


def test_continuous_optimum_brackets_integer_minimizer():
    rng = np.random.default_rng(23)
    for _ in range(20):
        pe = float(rng.uniform(0.05, 0.9))
        ratio = float(math.exp(rng.uniform(math.log(0.05), math.log(60))))
        sys = _sys(Pe=pe)
        t = Timing(T_p=1.0, T_ack=ratio / 2, T_w=ratio)
        x = continuous_optimum_N1(sys, t)
        got = _brute_minimizer_n1(pe, ratio, max(80, 3 * int(abs(x)) + 100))
        assert got in (math.floor(x), math.ceil(x))


def test_continuous_optimum_vanishing_wait_limit():
    # as the wait cost vanishes and erasures become rare, the integer optimum is a
    # single packet and the stationary point drops just below it
    sys = _sys(Pe=1e-6)
    t = Timing(T_p=1.0, T_ack=1e-10, T_w=1e-9)
    x = continuous_optimum_N1(sys, t)
    assert 0.0 < x < 1.0
    assert math.ceil(x) == 1 == _brute_minimizer_n1(1e-6, 1e-9, 40)


def test_continuous_optimum_argument_always_in_branch_domain():
    # the exponent -1 + ln(Pe)*T_w/T_p is strictly below -1, so the branch
    # argument -exp(.) lies in (-1/e, 0) mathematically; at float extremes it
    # can underflow to -0.0, which the evaluation never forms
    rng = np.random.default_rng(31)
    for _ in range(50):
        pe = float(rng.uniform(1e-4, 1 - 1e-4))
        ratio = float(math.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
        exponent = -1.0 + math.log(pe) * ratio
        assert exponent < -1.0
        assert -math.exp(-1.0) <= -math.exp(exponent) <= 0.0
        value = continuous_optimum_N1(_sys(Pe=pe), Timing(1.0, ratio / 2, ratio))
        assert math.isfinite(value)


@pytest.mark.parametrize("pe, ratio, optimum", [(0.5, 1500.0, 10), (0.5, 5000.0, 12),
                                               (0.9, 1e4, 66)])
def test_continuous_optimum_brackets_minimizer_where_the_branch_argument_underflows(
        pe, ratio, optimum):
    # exponents -1 + ln(Pe)*T_w/T_p of -1041, -3467 and -1055: -exp(.) is -0.0
    assert -math.exp(-1.0 + math.log(pe) * ratio) == 0.0
    x = continuous_optimum_N1(_sys(Pe=pe), Timing(1.0, ratio / 2, ratio))
    assert _brute_minimizer_n1(pe, ratio, 200) == optimum
    assert optimum in (math.floor(x), math.ceil(x))


@pytest.mark.parametrize("ratio, optimum", [(1e12, 39.33437076576228), (1e16, 52.62208314525291)])
def test_continuous_optimum_keeps_its_digits_at_long_waits(ratio, optimum):
    # (1 + W)/ln(Pe) - T_w/T_p cancels here: it gave 39.33447265625 and 52.0
    x = continuous_optimum_N1(_sys(Pe=0.5), Timing(1.0, ratio / 2, ratio))
    assert x == pytest.approx(optimum, rel=1e-12)


def test_continuous_optimum_rejects_zero_erasure():
    with pytest.raises(ValueError):
        continuous_optimum_N1(_sys(Pe=0.0), Timing(1.0, 0.5, 1.0))


def test_eta_perfect_channel():
    sys = SystemParams(**SATELLITE)
    t = derive_timing(sys)
    policy = Policy(tuple(range(1, 11)))
    assert eta(sys, t, policy) == pytest.approx(10 * 10000 / (10 * t.T_p + t.T_w), rel=1e-12)


def test_eta_optimal_dominates():
    sys = SystemParams(**SATELLITE, Pe=0.5, Pe_ack=0.001)
    t = derive_timing(sys)
    best = eta(sys, t, optimal_policy(sys, t).policy)
    for omega in (1, 2, 5, 10, 20):
        capped = Policy(tuple(min(i, omega) for i in range(1, 11)))
        assert best >= eta(sys, t, capped) * (1 - 1e-12)


def test_eta_rejects_an_overflowing_profile():
    # a round of 10 * 1e308 + 1e308 seconds overflows T_1 to inf
    with pytest.raises(ValueError, match="not finite"):
        eta(_sys(), Timing(1e308, 0.0, 1e308), Policy((10,)))


def test_arq_baselines_direct_values():
    sys = SystemParams(**HIGH_RATE, Pe=0.8)
    assert (sys.h + sys.n) / sys.R == pytest.approx(0.001008, rel=1e-15)
    assert eta_sr(sys, 10) == pytest.approx(76896.45891806683, rel=1e-12)
    assert eta_gbn(sys, 10) == pytest.approx(9612.056380483678, rel=1e-12)


def test_arq_timing_shares_the_coded_links_ack_wait():
    # uncoded packets of h + n bits, then the coded link's wait for an ACK
    W = 3
    for sys in (SystemParams(**SATELLITE, Pe=0.3), SystemParams(**HIGH_RATE), _sys()):
        cycle = W * ((sys.h + sys.n) / sys.R) + derive_timing(sys).T_w
        assert eta_sr(sys, W) == W * sys.n * (1.0 - sys.Pe) / cycle


def test_arq_baselines_agree_at_zero_loss():
    sys = SystemParams(**HIGH_RATE, Pe=0.0)
    assert eta_gbn(sys, 10) == pytest.approx(eta_sr(sys, 10), rel=1e-12)
    # and the limit is continuous from above
    tiny = SystemParams(**HIGH_RATE, Pe=1e-12)
    assert eta_gbn(tiny, 10) == pytest.approx(eta_gbn(sys, 10), rel=1e-6)


def test_gbn_never_beats_sr():
    for pe in np.linspace(0.01, 0.99, 25):
        for W in (1, 2, 5, 10, 40):
            sys = SystemParams(**HIGH_RATE, Pe=float(pe))
            assert eta_gbn(sys, W) <= eta_sr(sys, W) * (1 + 1e-12)


@pytest.mark.parametrize("field", ["W"])
@pytest.mark.parametrize("value", [True, 2.5, 10.0, "10"])
def test_arq_params_reject_non_integer_sizes(field, value):
    sys = SystemParams(**HIGH_RATE)
    for arq_eta in (eta_gbn, eta_sr):
        with pytest.raises(TypeError, match=field):
            arq_eta(sys, value)
        with pytest.raises(ValueError, match="window"):
            arq_eta(sys, 0)


def test_sr_linear_in_delivery_rate():
    base = eta_sr(SystemParams(**HIGH_RATE, Pe=0.0), 7)
    for pe in (0.25, 0.5, 0.75):
        assert eta_sr(SystemParams(**HIGH_RATE, Pe=pe), 7) == pytest.approx(
            base * (1 - pe), rel=1e-12
        )
