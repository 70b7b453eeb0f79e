import decimal
import math
from decimal import Decimal

import numpy as np
import pytest

from chain_oracle import absorption_times, enumerated_transition, transition_matrix
from tddnc.markov import (
    CompletionProfile,
    Policy,
    _arrival_chances,
    expected_completion,
    expected_extra_receptions,
    fixed_window_completion,
    fixed_window_policy,
    full_duplex_completion,
    state_completion_time,
    sw_mean_throughput,
)
from tddnc.optimizer import optimal_policy
from tddnc.params import SystemParams, Timing, derive_timing

SATELLITE = dict(M=10, n=10000, g=100, h=80, n_ack=100, R=1.5e6, T_rt=0.25)


def _sys(M=1, Pe=0.0, Pe_ack=0.0):
    return SystemParams(M=M, n=10, g=1, h=0, n_ack=1, R=1.0, T_rt=0.0, Pe=Pe, Pe_ack=Pe_ack)


def _absorbing_mass(i, N_i, Pe, Pe_ack):
    """P[state i -> 0 in one round]: i or more of N_i packets arrive and the ACK
    does, summed with exact binomial coefficients."""
    p = 1.0 - Pe
    return (1.0 - Pe_ack) * sum(math.comb(N_i, k) * p**k * Pe ** (N_i - k)
                                for k in range(i, N_i + 1))


def test_transition_rows_sum_to_one():
    # row i of the oracle's Q covers N_i below (i > N_i), at and above i
    for Ni in range(1, 31):
        for pe in (0.0, 0.1, 0.5, 0.9):
            for pa in (0.0, 0.3):
                Q = transition_matrix((Ni,) * 10, pe, pa)
                for i in range(1, 11):
                    mass = _absorbing_mass(i, Ni, pe, pa)
                    assert 1.0 - Q[i - 1].sum() == pytest.approx(mass, abs=1e-12)


def test_transition_matches_enumeration():
    # exhaustive over erasure patterns, covering N_i below, at, and above i
    for Ni in (1, 2, 3, 5, 7):
        for pe, pa in ((0.3, 0.0), (0.6, 0.2), (0.1, 0.45)):
            Q = transition_matrix((Ni,) * 5, pe, pa)
            for i in range(1, 6):
                for j in range(1, 6):
                    want = enumerated_transition(i, j, Ni, pe, pa) if j <= i else 0.0
                    assert Q[i - 1, j - 1] == pytest.approx(want, abs=1e-12)
                mass = enumerated_transition(i, 0, Ni, pe, pa)
                assert 1.0 - Q[i - 1].sum() == pytest.approx(mass, abs=1e-12)


def test_extra_receptions_values():
    assert expected_extra_receptions(1, 2) == pytest.approx(2.0, rel=1e-12)
    assert expected_extra_receptions(2, 2) == pytest.approx(10.0 / 3.0, rel=1e-12)
    assert expected_extra_receptions(10, 2**100) == pytest.approx(10.0, abs=1e-9)


def test_extra_receptions_bound():
    for M in range(1, 65):
        for q in (2, 4, 16, 256, 65536):
            v = expected_extra_receptions(M, q)
            assert M <= v <= M * q / (q - 1) + 1e-12


def test_completion_single_state():
    t = Timing(T_p=1.0, T_ack=0.5, T_w=10.0)
    prof = expected_completion(Policy((1,)), _sys(), t)
    assert prof.T == (0.0, 11.0)
    prof = expected_completion(Policy((1,)), _sys(Pe=0.5), t)
    assert prof.T[1] == pytest.approx(22.0, rel=1e-12)


def test_completion_one_burst_perfect():
    t = Timing(T_p=2.0, T_ack=0.5, T_w=7.0)
    for M in (1, 3, 6):
        prof = expected_completion(Policy(tuple(range(1, M + 1))), _sys(M=M), t)
        assert prof.T_M == pytest.approx(M * 2.0 + 7.0, rel=1e-12)
        assert prof.finite


def test_completion_matches_linear_solve():
    rng = np.random.default_rng(3)
    for _ in range(40):
        M = int(rng.integers(1, 9))
        N = tuple(int(v) for v in rng.integers(1, 31, size=M))
        pe = float(rng.uniform(0.0, 0.9))
        pa = float(rng.uniform(0.0, 0.5))
        tp = float(rng.uniform(0.01, 2.0))
        tw = float(rng.uniform(0.001, 5.0))
        prof = expected_completion(Policy(N), _sys(M=M, Pe=pe, Pe_ack=pa), Timing(tp, 1e-9, tw))
        oracle = absorption_times(N, pe, pa, tp, tw)
        for i in range(M):
            assert prof.T[i + 1] == pytest.approx(oracle[i], rel=1e-9)


def _exact_step(i, N_i, T_lower, Pe, Pe_ack, T_p, T_w):
    """The chain step from the same inputs in 40-digit decimal arithmetic, with
    math.comb's binomial coefficients: the reference the kernel is held to.
    T_lower holds finite floats or Decimals."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        ctx.Emin, ctx.Emax = decimal.MIN_EMIN, decimal.MAX_EMAX
        pe = Decimal(Pe)
        progress = 1 - pe**N_i
        t = (N_i * Decimal(T_p) + Decimal(T_w)) / ((1 - Decimal(Pe_ack)) * progress)
        acc = sum(_exact_chance(i - j, N_i, pe) * Decimal(T_lower[j])
                  for j in range(max(1, i - N_i), i))
        return t + acc / progress


def _exact_chance(k, N, pe):
    """P[k of N packets arrive] for the Decimal erasure probability pe."""
    return math.comb(N, k) * (1 - pe) ** k * (pe ** (N - k) if N > k else 1)


def _nonfinite_step(i, N_i, T_lower, Pe):
    """What the kernel gives where a lower time it reads is inf or NaN: NaN where a
    NaN is read, or an inf with a chance of 0 (a success probability of 1 leaves
    only k = N_i, and a chance below the least subnormal underflows); inf where
    each inf read has a chance of at least 2**-1000; None (either) otherwise."""
    seen = set()
    for j in range(max(1, i - N_i), i):
        if math.isnan(T_lower[j]):
            seen.add("nan")
        elif math.isinf(T_lower[j]):
            k = i - j
            chance = (k == N_i) if 1.0 - Pe == 1.0 else _exact_chance(k, N_i, Decimal(Pe))
            seen.add("inf" if chance >= Decimal(2) ** -1000 else
                     "nan" if chance < Decimal(2) ** -1080 else None)
    return math.nan if "nan" in seen else None if None in seen else math.inf


def _assert_step_within_1e_12(args):
    got = state_completion_time(*args)
    i, N_i, T_lower, Pe = args[:4]
    if all(map(math.isfinite, T_lower[max(1, i - N_i):i])):
        want = _exact_step(*args)
        assert abs(Decimal(got) - want) <= Decimal("1e-12") * want, args
        return
    want = _nonfinite_step(i, N_i, T_lower, Pe)
    if want is None:
        assert not math.isfinite(got), args
    else:
        assert got == want or math.isnan(got) and math.isnan(want), args


def test_state_completion_time_is_within_1e_12_of_exact_terms():
    # Pe = 0 and 1e-17 (a success probability of 1) and 1 - 1e-12, bursts below
    # and above i up to 2**53, and inf or NaN lower times, which propagate: a NaN
    # read with a zero chance still gives NaN
    rng = np.random.default_rng(11)
    edges = [0.0, 1e-17, 1.0 - 1e-12]
    for k in range(3000):
        i = int(rng.integers(1, 41))
        n_i = int(rng.choice([rng.integers(1, i + 1), rng.integers(i, 3 * i + 20),
                              rng.integers(1, 10**6 + 1), 10**6]))
        pe = edges[k % 3] if k < 300 else float(rng.uniform(0.0, 1.0) ** rng.choice([1, 8]))
        T = [0.0] + [float(v) for v in rng.uniform(0.0, 100.0, size=i - 1)]
        if i > 1 and k % 4 == 0:
            T[int(rng.integers(1, i))] = float(rng.choice([math.inf, math.nan]))
        _assert_step_within_1e_12((i, n_i, T, pe, float(rng.uniform(0.0, 0.5)),
                                   float(rng.uniform(1e-6, 1.0)), float(rng.uniform(0.0, 100.0))))
    for n_i in (10**5, 2**40, 2**53 - 1, 2**53):
        for pe in (1e-9, 0.3, 0.97, 1.0 - 1e-12):
            T = [0.0] + [float(v) for v in rng.uniform(0.0, 100.0, size=39)]
            _assert_step_within_1e_12((40, n_i, T, pe, 0.1, 1e-3, 0.5))


@pytest.mark.parametrize("pe", [0.3, 0.9, 0.999, 0.99999, 1 - 1e-9])
def test_state_completion_time_meets_1e_12_at_large_bursts(pe):
    # a term's error grows with k, not with N: bursts up to 10**5, and near Pe = 1
    # a 1 - Pe**N that would cancel
    for i in (1, 2, 12, 40):
        T = [0.0] + [j * (1.0 + 0.37 * math.sin(j)) for j in range(1, i)]
        for n_i in sorted({1, max(1, i - 1), i, 2 * i, 1000, 10**4, 3 * 10**4, 10**5}):
            _assert_step_within_1e_12((i, n_i, T, pe, 0.05, 1e-3, 0.4))


@pytest.mark.parametrize("M, pe, T_w", [(12, 0.999, 10.0), (4, 0.9999, 30.0), (30, 0.9995, 5.0)])
def test_optimal_profiles_meet_1e_12_with_bursts_in_the_10_4s(M, pe, T_w):
    sys = _sys(M=M, Pe=pe, Pe_ack=0.1)
    t = Timing(T_p=1e-3, T_ack=0.0, T_w=T_w)
    res = optimal_policy(sys, t)
    assert max(res.policy.N) >= 10**4
    exact = [Decimal(0)]
    for i, n_i in enumerate(res.policy.N, 1):
        exact.append(_exact_step(i, n_i, exact, pe, 0.1, t.T_p, t.T_w))
    for got, want in zip(res.profile.T[1:], exact[1:]):
        assert abs(Decimal(got) - want) <= Decimal("1e-12") * want


@pytest.mark.parametrize("pe", [0.5, 0.3])
@pytest.mark.parametrize("sizes", [range(900, 1300), (400, 800, 1200)], ids=["wide", "narrow"])
def test_arrival_chances_equal_exact_binomial_terms(pe, sizes):
    # A wide table (a window of the search) runs its products a row at a time, a
    # narrow one (an arrival table of the simulator) down its columns; both hold
    # columns whose Pe**N starts below the least normal float.  Each exact term is
    # comb(N, k) B**k A**(N - k) over D**N, with Pe = A/D and D a power of 2.
    N = np.array(sizes, dtype=float)
    got = _arrival_chances(N, pe**N, 200, pe)
    A, D = pe.as_integer_ratio()
    for c in range(0, N.size, 37):
        n = int(N[c])
        term, exact = A**n, []
        for k in range(200):
            if k:   # exactly: the last term times (n - k + 1) B / (k A)
                term = term * (n - k + 1) * (D - A) // (k * A)
            drop = max(term.bit_length() - 64, 0)
            exact.append(math.ldexp(float(term >> drop), drop - (D.bit_length() - 1) * n))
        np.testing.assert_allclose(got[:, c], exact, rtol=1e-12, atol=np.finfo(float).tiny)


def test_huge_bursts_give_a_finite_profile():
    t = Timing(T_p=1e-9, T_ack=0.0, T_w=1.0)
    for pe in (1e-9, 0.5, 1.0 - 1e-12):
        assert expected_completion(Policy((2**40,) * 3), _sys(M=3, Pe=pe), t).finite


def test_completion_monotone_in_ack_loss():
    t = Timing(T_p=1.0, T_ack=0.1, T_w=4.0)
    N = (2, 3, 5, 7)
    last = None
    for pa in (0.0, 0.05, 0.2, 0.5, 0.8):
        prof = expected_completion(Policy(N), _sys(M=4, Pe=0.3, Pe_ack=pa), t)
        if last is not None:
            assert all(a >= b for a, b in zip(prof.T[1:], last[1:]))
        last = prof.T


def test_fixed_window_perfect_channel():
    t = Timing(T_p=2.0, T_ack=0.5, T_w=7.0)
    prof = fixed_window_completion(5, _sys(M=5), t)
    assert prof.T_M == pytest.approx(5 * 2.0 + 7.0, rel=1e-12)


def test_fixed_window_one_is_send_and_wait():
    t = Timing(T_p=1.0, T_ack=0.5, T_w=10.0)
    prof = fixed_window_completion(1, _sys(Pe=0.5), t)
    assert prof.T_M == pytest.approx(2 * 11.0, rel=1e-12)


def test_fixed_window_equals_capped_policy():
    sys = SystemParams(**SATELLITE, Pe=0.8, Pe_ack=0.001)
    t = derive_timing(sys)
    for omega in (1, 3, 5, 9, 10):
        fw = fixed_window_completion(omega, sys, t)
        capped = Policy(tuple(min(i, omega) for i in range(1, 11)))
        direct = expected_completion(capped, sys, t)
        for a, b in zip(fw.T, direct.T):
            assert a == pytest.approx(b, rel=1e-12)


def test_fixed_window_policy():
    assert fixed_window_policy(3, 5).N == (1, 2, 3, 3, 3)
    assert fixed_window_policy(9, 2).N == (1, 2)
    for omega in (0, -1):
        with pytest.raises(ValueError):
            fixed_window_policy(omega, 5)
        with pytest.raises(ValueError):
            fixed_window_completion(omega, _sys(M=5), Timing(T_p=1.0, T_ack=0.5, T_w=1.0))


def test_burst_sizes_stop_at_2_53():
    assert Policy((2**53,)).N == (2**53,)
    t = Timing(T_p=1.0, T_ack=0.5, T_w=10.0)
    assert sw_mean_throughput(2**53, _sys(Pe=0.5), t) > 0.0
    for huge in (2**53 + 1, 10**400):
        with pytest.raises(ValueError, match="2\\*\\*53"):
            Policy((1, huge))
        with pytest.raises(ValueError, match="N_1"):
            sw_mean_throughput(huge, _sys(Pe=0.5), t)


@pytest.mark.parametrize("value", [True, 3.0, 2.5, "3"])
def test_policy_rejects_non_integer_burst_sizes(value):
    with pytest.raises(TypeError):
        Policy((2, value))


@pytest.mark.parametrize("M, q", [(True, 2), (2.5, 2), ("2", 2), (2, True), (2, 2.0), (2, "2")])
def test_expected_extra_receptions_rejects_non_integer_counts(M, q):
    with pytest.raises(TypeError):
        expected_extra_receptions(M, q)


def test_policy_keeps_numpy_integers_as_ints():
    policy = Policy(tuple(np.arange(1, 4)))
    assert policy.N == (1, 2, 3) and all(type(v) is int for v in policy.N)


def test_full_duplex_values():
    sys = SystemParams(**SATELLITE, Pe=0.0, Pe_ack=0.0)
    t = derive_timing(sys)
    assert full_duplex_completion(sys, t) == pytest.approx(0.25 + 10 * t.T_p + t.T_ack, rel=1e-14)
    lossy = SystemParams(**SATELLITE, Pe=0.8, Pe_ack=0.001)
    assert full_duplex_completion(lossy, derive_timing(lossy)) == pytest.approx(
        0.6194000667334, rel=1e-12
    )


def test_full_duplex_linear_in_block_size():
    lossy = SystemParams(**SATELLITE, Pe=0.4)
    t = derive_timing(lossy)
    single = full_duplex_completion(lossy, t)
    doubled = SystemParams(**{**SATELLITE, "M": 20}, Pe=0.4)
    # keep the packet duration fixed to isolate the M-linearity of the streaming term
    both = full_duplex_completion(doubled, t)
    assert (both - doubled.T_rt - t.T_ack) == pytest.approx(
        2 * (single - lossy.T_rt - t.T_ack), rel=1e-12
    )


def test_sw_throughput_deterministic_limit():
    t = Timing(T_p=1.0, T_ack=0.5, T_w=10.0)
    assert sw_mean_throughput(1, _sys(), t) == pytest.approx(10.0 / 11.0, rel=1e-12)


def test_sw_throughput_half_loss():
    t = Timing(T_p=1.0, T_ack=0.5, T_w=10.0)
    got = sw_mean_throughput(1, _sys(Pe=0.5), t)
    assert got == pytest.approx(10.0 * math.log(2.0) / 11.0, rel=1e-12)


def test_sw_throughput_bounds_block_measure():
    # the mean throughput is at least n / T_1 (convexity of 1/t)
    rng = np.random.default_rng(5)
    for _ in range(25):
        pe = float(rng.uniform(0.0, 0.9))
        pa = float(rng.uniform(0.0, 0.5))
        n1 = int(rng.integers(1, 12))
        t = Timing(T_p=float(rng.uniform(0.1, 2)), T_ack=0.01, T_w=float(rng.uniform(0.01, 8)))
        sys = _sys(Pe=pe, Pe_ack=pa)
        mean = sw_mean_throughput(n1, sys, t)
        block = sys.n / expected_completion(Policy((n1,)), sys, t).T_M
        assert mean >= block * (1 - 1e-12)


def test_sw_throughput_requires_single_packet_block():
    t = Timing(T_p=1.0, T_ack=0.5, T_w=10.0)
    with pytest.raises(ValueError):
        sw_mean_throughput(1, _sys(M=2), t)


def test_sw_throughput_rejects_an_empty_burst():
    with pytest.raises(ValueError, match="N_1"):
        sw_mean_throughput(0, _sys(Pe=0.5), Timing(T_p=1.0, T_ack=0.5, T_w=10.0))


@pytest.mark.parametrize("value", [True, 2.5, "1"])
def test_sw_throughput_rejects_non_integer_burst_sizes(value):
    with pytest.raises(TypeError, match="N_1"):
        sw_mean_throughput(value, _sys(Pe=0.5), Timing(T_p=1.0, T_ack=0.5, T_w=10.0))


def test_profile_flags():
    prof = CompletionProfile(T=(0.0, 1.0))
    assert prof.finite and prof.T_M == 1.0


def test_profile_with_an_infinite_state_is_not_finite():
    assert CompletionProfile((0.0, math.inf)).finite is False
    assert CompletionProfile((0.0, math.nan, 1.0)).finite is False
