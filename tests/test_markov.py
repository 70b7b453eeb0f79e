import math
import sys
import threading
import types

import numpy as np
import pytest

from chain_oracle import absorption_times, enumerated_transition, transition_matrix
from tddnc import markov
from tddnc.markov import (
    CompletionProfile,
    Policy,
    expected_completion,
    expected_extra_receptions,
    fixed_window_completion,
    fixed_window_policy,
    full_duplex_completion,
    state_completion_time,
    sw_mean_throughput,
)
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


def _reference_step(i, N_i, T_lower, Pe, Pe_ack, T_p, T_w):
    """The chain step with one binomial pmf per term, in `math` only and in
    `_binom_pmf`'s operand order: lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)
    + k*log(p) + (n - k)*log1p(-p)."""
    progress = 1.0 - Pe**N_i
    t = (N_i * T_p + T_w) / ((1.0 - Pe_ack) * progress)
    p, acc = 1.0 - Pe, 0.0
    for j in range(max(1, i - N_i), i):
        k = i - j
        if p == 1.0:
            pmf = 1.0 if k == N_i else 0.0
        else:
            log_comb = math.lgamma(N_i + 1) - math.lgamma(k + 1) - math.lgamma(N_i - k + 1)
            pmf = math.exp(log_comb + k * math.log(p) + (N_i - k) * math.log1p(-p))
        acc += pmf * T_lower[j]
    return t + acc / progress


def _same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def test_state_completion_time_is_bit_identical_to_per_term_pmf():
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
        args = (i, n_i, T, pe, float(rng.uniform(0.0, 0.5)), float(rng.uniform(1e-6, 1.0)),
                float(rng.uniform(0.0, 100.0)))
        got, want = state_completion_time(*args), _reference_step(*args)
        assert _same_float(got, want), args
    # both sides of the cap of the shared log-factorial table, past which lgamma is called
    cap = markov._LOG_FACT_CAP
    for n_i in (cap - 1, cap, cap + 1, 3 * cap, 2**40, 2**53):
        for pe in (1e-9, 0.3, 0.97, 1.0 - 1e-12):
            T = [0.0] + [float(v) for v in rng.uniform(0.0, 100.0, size=39)]
            args = (40, n_i, T, pe, 0.1, 1e-3, 0.5)
            assert _same_float(state_completion_time(*args), _reference_step(*args)), args


def test_log_factorial_table_holds_lgammas_own_values():
    lf = markov._log_factorials(5000)
    assert 5000 <= len(lf) <= markov._LOG_FACT_CAP
    assert all(v == math.lgamma(n + 1) for n, v in enumerate(lf))
    run = markov._log_factorial_run(markov._LOG_FACT_CAP - 3, markov._LOG_FACT_CAP + 3)
    assert list(run) == [math.lgamma(n + 1) for n in range(markov._LOG_FACT_CAP - 3,
                                                          markov._LOG_FACT_CAP + 3)]
    assert len(markov._LOG_FACT) == markov._LOG_FACT_CAP


def test_huge_bursts_leave_the_table_within_its_cap():
    t = Timing(T_p=1e-9, T_ack=0.0, T_w=1.0)
    profile = expected_completion(Policy((2**40,) * 3), _sys(M=3, Pe=0.5), t)
    assert profile.finite
    assert len(markov._LOG_FACT) <= markov._LOG_FACT_CAP


def test_log_factorial_table_grows_consistently_from_many_threads(monkeypatch):
    # lgamma as Python code lets a thread switch fall inside a growth step
    monkeypatch.setattr(markov, "math", types.SimpleNamespace(lgamma=lambda x: math.lgamma(x)))
    tops = range(1, 4001, 50)
    want = [math.lgamma(n + 1) for n in range(max(tops))]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            monkeypatch.setattr(markov, "_LOG_FACT", [])
            start = threading.Barrier(4)

            def grow(k):
                start.wait(timeout=30)
                for top in tops[k::4]:
                    markov._log_factorials(top)

            workers = [threading.Thread(target=grow, args=(k,)) for k in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
            assert not any(w.is_alive() for w in workers)
            assert markov._LOG_FACT == want
    finally:
        sys.setswitchinterval(old)


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
