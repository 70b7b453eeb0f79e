import bisect
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

import tddnc
from chain_oracle import absorption_times, receiver_completion_time
from tddnc.markov import Policy, expected_completion, expected_extra_receptions
from tddnc.optimizer import optimal_policy
from tddnc.params import SystemParams, Timing, derive_timing
from tddnc.rlnc import Decoder, GaloisField
from tddnc.simulator import (
    SimConfig,
    _arrival_cdf,
    _rank_thresholds,
    histogram,
    run_records,
    simulate,
    summarize,
)


def _sys(M=5, Pe=0.0, Pe_ack=0.0, n=1000, g=8):
    return SystemParams(M=M, n=n, g=g, h=80, n_ack=100, R=1e6, T_rt=0.1, Pe=Pe, Pe_ack=Pe_ack)


def test_perfect_channel_is_deterministic_in_every_mode():
    sys = _sys()
    t = derive_timing(sys)
    policy = Policy((1, 2, 3, 4, 5))
    expected = 5 * t.T_p + t.T_w
    for mode, field_g in (("chain", None), ("physical", None), ("rlnc", 8)):
        r = simulate(policy, sys, t, SimConfig(mode=mode, runs=4, master_seed=3, field_g=field_g))
        if mode == "rlnc":
            # random coefficients can be dependent, so full rank may need extra rounds
            assert r.mean_completion >= expected
            assert r.mean_stops >= 1.0
        else:
            assert r.mean_completion == expected
            assert r.stderr == 0.0
            assert r.mean_stops == 1.0
            assert r.mean_packets_sent == 5.0


def test_chain_mode_tracks_analytic_mean():
    for pe, pa in ((0.1, 0.0), (0.5, 0.001), (0.8, 0.1)):
        sys = _sys(M=5, Pe=pe, Pe_ack=pa)
        t = derive_timing(sys)
        res = optimal_policy(sys, t)
        r = simulate(res.policy, sys, t, SimConfig(mode="chain", runs=6000, master_seed=29))
        assert abs(r.mean_completion - res.profile.T_M) <= 3 * r.stderr


def test_chain_equals_physical_without_ack_loss():
    sys = _sys(M=5, Pe=0.5, Pe_ack=0.0)
    t = derive_timing(sys)
    res = optimal_policy(sys, t)
    a = run_records(res.policy, sys, t, SimConfig(mode="chain", runs=400, master_seed=9))
    b = run_records(res.policy, sys, t, SimConfig(mode="physical", runs=400, master_seed=9))
    assert np.array_equal(a, b)


def test_physical_never_slower_with_shared_burst_sizes():
    # constant-size bursts keep both modes' draws aligned round for round, so
    # retained progress makes physical at least as fast on every run
    sys = _sys(M=5, Pe=0.5, Pe_ack=0.1)
    t = derive_timing(sys)
    policy = Policy((7, 7, 7, 7, 7))
    a = run_records(policy, sys, t, SimConfig(mode="chain", runs=2500, master_seed=11))
    b = run_records(policy, sys, t, SimConfig(mode="physical", runs=2500, master_seed=11))
    assert (b[:, 0] <= a[:, 0]).all()
    assert b[:, 0].mean() < a[:, 0].mean()


def test_physical_never_slower_with_optimized_policy():
    sys = _sys(M=5, Pe=0.5, Pe_ack=0.1)
    t = derive_timing(sys)
    res = optimal_policy(sys, t)
    a = run_records(res.policy, sys, t, SimConfig(mode="chain", runs=2500, master_seed=11))
    b = run_records(res.policy, sys, t, SimConfig(mode="physical", runs=2500, master_seed=11))
    assert (b[:, 0] <= a[:, 0]).all()


def test_repeated_calls_are_bit_identical():
    sys = _sys(M=4, Pe=0.3, Pe_ack=0.01)
    t = derive_timing(sys)
    policy = Policy((2, 3, 5, 6))
    cfg = SimConfig(mode="chain", runs=1500, master_seed=123)
    assert simulate(policy, sys, t, cfg) == simulate(policy, sys, t, cfg)


def test_seed_changes_results():
    sys = _sys(M=4, Pe=0.3, Pe_ack=0.01)
    t = derive_timing(sys)
    policy = Policy((2, 3, 5, 6))
    a = simulate(policy, sys, t, SimConfig(mode="chain", runs=500, master_seed=1))
    b = simulate(policy, sys, t, SimConfig(mode="chain", runs=500, master_seed=2))
    assert a != b


def test_stops_at_least_one():
    for pe, pa in ((0.0, 0.0), (0.6, 0.2)):
        sys = _sys(M=3, Pe=pe, Pe_ack=pa)
        t = derive_timing(sys)
        res = optimal_policy(sys, t)
        r = simulate(res.policy, sys, t, SimConfig(mode="chain", runs=800, master_seed=5))
        assert r.mean_stops >= 1.0
        if pe == 0.0 and pa == 0.0:
            assert r.mean_stops == 1.0


def test_small_field_needs_more_time_than_byte_field():
    # one packet per burst makes packets-sent an exact proxy for receptions:
    # each arrival costs 1/(1-Pe) transmissions on average, so the extra
    # dependent receptions of the small field show up as 2x their count
    sys = _sys(M=10, Pe=0.5, Pe_ack=0.0, n=8, g=8)
    t = derive_timing(sys)
    policy = Policy((1,) * 10)
    gap_predicted = 2.0 * (expected_extra_receptions(10, 2) - expected_extra_receptions(10, 256))
    results = {}
    for g in (1, 8):
        cfg = SimConfig(mode="rlnc", runs=2500, master_seed=17, field_g=g)
        rec = run_records(policy, sys, t, cfg)
        results[g] = rec
    mean2, mean256 = results[1][:, 1].mean(), results[8][:, 1].mean()
    se = np.hypot(
        results[1][:, 1].std(ddof=1) / np.sqrt(2500),
        results[8][:, 1].std(ddof=1) / np.sqrt(2500),
    )
    assert mean2 > mean256
    assert abs((mean2 - mean256) - gap_predicted) <= 3 * se
    assert results[1][:, 0].mean() > results[8][:, 0].mean()


# sha256 of run_records(...).tobytes() per (mode, g): the streams of one
# default_rng(master_seed) per call, with the rlnc rank thresholds drawn first
RECORD_SHA256 = {
    ("chain", 8): "836500cbb86a6d4a9b5096689fe5ee3f352384acc958650f6854fe8e0f6c96ec",
    ("physical", 8): "b6b8320b2333dc66509788f1cf6b83e1ff7ba883227d5925cfb782a6783ddebc",
    ("rlnc", 1): "8c367dcd5213fe4bc1113c9d8566fedc7793fe6187cf9d1b07029e0c3dbdeb55",
    ("rlnc", 8): "f4af1299110e59db056220f9b2b293211710509139b7cf42e9d68824fa54b088",
    ("rlnc", 16): "f9551f3199e89ea39a0c76ff4ae96270bb9534b03a849f3b643c2a52d1d06f8e",
}


@pytest.mark.parametrize("mode, g", sorted(RECORD_SHA256))
def test_records_match_pinned_hashes(mode, g):
    sys = SystemParams(M=6, n=1000, g=g, h=80, n_ack=100, R=1e6, T_rt=0.01, Pe=0.3, Pe_ack=0.1)
    field_g = g if mode == "rlnc" else None
    cfg = SimConfig(mode=mode, runs=300, master_seed=20090419, field_g=field_g)
    rec = run_records(Policy((2, 3, 4, 6, 7, 9)), sys, derive_timing(sys), cfg)
    assert hashlib.sha256(rec.tobytes()).hexdigest() == RECORD_SHA256[mode, g]


def _reference_records(policy, sys, timing, cfg):
    """run_records one run at a time, from the same stream and CDF rows.

    The rlnc rank waits come first, then one rng.random((2, runs)) per
    round: row 0 draws the bursts, row 1 the ACKs.  Each unfinished run's
    arrivals are a bisect of its burst uniform on its size's CDF row.
    """
    M, runs = sys.M, cfg.runs
    rng = np.random.default_rng(cfg.master_seed)
    thresholds, most = None, M
    if cfg.mode == "rlnc":
        thresholds = _rank_thresholds(rng, runs, M, cfg.field_g).tolist()
        most = int(max(row[-1] for row in thresholds))
    sizes = sorted(set(policy.N))
    cdf = dict(zip(sizes, _arrival_cdf(sizes, sys.Pe, most).tolist()))
    belief, credited, elapsed, sent = [M] * runs, [0] * runs, [0.0] * runs, [0.0] * runs
    records = [None] * runs
    stops = 0
    while None in records:
        bursts, acks = rng.random((2, runs)).tolist()
        stops += 1
        for r in range(runs):
            if records[r] is not None:
                continue
            N = policy.N[belief[r] - 1]
            elapsed[r] += N * timing.T_p + timing.T_w
            sent[r] += N
            heard = acks[r] >= sys.Pe_ack
            if heard or cfg.mode != "chain":
                credited[r] += bisect.bisect_right(cdf[N], bursts[r])
            if thresholds is None:
                deficit = max(M - credited[r], 0)
            else:
                deficit = M - bisect.bisect_right(thresholds[r], credited[r])
            if heard:
                belief[r] = deficit
                if deficit == 0:
                    records[r] = (elapsed[r], sent[r], stops)
    return np.array(records, dtype=np.float64)


@pytest.mark.parametrize("mode, g, M, Pe, Pe_ack, runs", [
    ("chain", None, 6, 0.4, 0.3, 300),
    ("physical", None, 6, 0.4, 0.3, 300),
    ("rlnc", 1, 6, 0.4, 0.3, 300),
    ("rlnc", 8, 6, 0.4, 0.3, 300),
    ("chain", None, 6, 0.4, 0.3, 1),
    ("physical", None, 6, 0.0, 0.5, 200),
    ("rlnc", 1, 6, 0.0, 0.5, 200),
    ("rlnc", 8, 6, 0.7, 0.1, 1),
    ("rlnc", 8, 6, 0.0, 0.0, 50),
])
def test_records_equal_a_per_run_reference(mode, g, M, Pe, Pe_ack, runs):
    sys = _sys(M=M, Pe=Pe, Pe_ack=Pe_ack)
    t = derive_timing(sys)
    policy = Policy((2, 2, 3, 5, 8, 9))   # four burst sizes, one shared by two beliefs
    cfg = SimConfig(mode=mode, runs=runs, master_seed=20260, field_g=g)
    rec = run_records(policy, sys, t, cfg)
    ref = _reference_records(policy, sys, t, cfg)
    assert rec.tobytes() == ref.tobytes()
    if runs > 1 and (Pe, Pe_ack) != (0.0, 0.0):
        assert len(set(ref[:, 2])) > 2   # runs finish in several rounds


@pytest.mark.parametrize("mode", ["chain", "physical"])
def test_erasure_modes_ignore_the_field(mode):
    # only the mode decides whether a run decodes: a field set on a chain or
    # physical config must not change a single record
    sys = _sys(M=6, Pe=0.3, Pe_ack=0.1)
    t = derive_timing(sys)
    policy = Policy((2, 3, 4, 6, 7, 9))
    plain = run_records(policy, sys, t, SimConfig(mode=mode, runs=300, master_seed=7))
    with_field = SimConfig(mode=mode, runs=300, master_seed=7, field_g=8)
    assert np.array_equal(run_records(policy, sys, t, with_field), plain)


def test_summarize_single_and_tied_runs():
    t = Timing(T_p=1.0, T_ack=0.1, T_w=2.0)
    one = summarize(np.array([[4.0, 3, 1]]), t)
    assert one.mean_completion == 4.0 and one.stderr == 0.0 and one.runs == 1
    two = summarize(np.array([[4.0, 3, 1], [4.0, 3, 1]]), t)
    assert two.mean_completion == 4.0 and two.stderr == 0.0


def test_summarize_keeps_histogram_keys_past_2_63():
    # bucket keys are whole multiples of T_p beyond int64's range
    t = Timing(T_p=1.0, T_ack=0.1, T_w=2.0)
    h = histogram(np.array([[1e19, 2**53, 1], [2.5e19, 2**53, 2], [1e19, 2**53, 1]]), t)
    assert h == ((10**19, 2), (25 * 10**18, 1))


def test_packets_sent_count_exactly_past_2_63():
    # M = 1 sends N every round, so a run's packets are N times its stops
    N = 2**53
    sys = _sys(M=1, Pe=0.5, Pe_ack=0.999)
    cfg = SimConfig(mode="physical", runs=50, master_seed=1)
    rec = run_records(Policy((N,)), sys, derive_timing(sys), cfg)
    assert rec[:, 1].max() > 2**63
    assert np.array_equal(rec[:, 1], N * rec[:, 2])


def test_summarize_spread():
    t = Timing(T_p=1.0, T_ack=0.1, T_w=2.0)
    records = np.array([[1.0, 2, 1], [3.0, 4, 2]])
    r = summarize(records, t)
    assert r.mean_completion == 2.0
    assert r.stderr == pytest.approx(1.0, rel=1e-12)
    assert r.mean_packets_sent == 3.0
    assert r.mean_stops == 1.5
    assert histogram(records, t) == ((1, 1), (3, 1))


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(mode="other")
    with pytest.raises(ValueError):
        SimConfig(runs=0)
    with pytest.raises(ValueError):
        SimConfig(master_seed=-1)
    for field_g in (None, 0):
        with pytest.raises(ValueError):
            SimConfig(mode="rlnc", field_g=field_g)
    # only q = 2^g enters rlnc, so any width from 1 up is valid
    assert SimConfig(mode="rlnc", field_g=17).field_g == 17
    for field_g in (True, 8.0, "8"):
        with pytest.raises(TypeError):
            SimConfig(mode="rlnc", field_g=field_g)
    # chain reads no field: any field_g, even one rlnc rejects, is ignored
    assert SimConfig(mode="chain", field_g=8).field_g == 8
    assert SimConfig(mode="chain", field_g=0).mode == "chain"


@pytest.mark.parametrize("field", ["runs", "master_seed"])
@pytest.mark.parametrize("value", [True, 2.5, 10.0, "10"])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(TypeError):
        SimConfig(**{field: value})


def test_config_keeps_numpy_integers_as_ints():
    cfg = SimConfig(mode="rlnc", runs=np.int64(5), master_seed=np.uint64(2**64 - 1),
                    field_g=np.int8(16))
    assert type(cfg.runs) is int and type(cfg.master_seed) is int and type(cfg.field_g) is int
    assert cfg.master_seed == 2**64 - 1 and cfg.field_g == 16


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy 2 loads numpy.random lazily; commands that never simulate keep it so
    code = ("import sys, numpy; before = 'numpy.random' in sys.modules; import tddnc.cli; "
            "print(('numpy.random' in sys.modules) == before)")
    src = Path(tddnc.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "True"


def test_histogram_counts_runs():
    sys = _sys(M=3, Pe=0.4)
    t = derive_timing(sys)
    res = optimal_policy(sys, t)
    records = run_records(res.policy, sys, t, SimConfig(mode="chain", runs=600, master_seed=2))
    h = histogram(records, t)
    assert sum(c for _, c in h) == 600
    # buckets are T_p wide: bucket k counts the runs that finish in [k T_p, (k + 1) T_p)
    widths = records[:, 0] / t.T_p
    assert all(c == ((k <= widths) & (widths < k + 1)).sum() for k, c in h)


def test_analytic_profile_matches_simulated_intermediate_starts():
    # the per-state expectation, not just T_M: start the chain at a lower deficit
    # by shrinking the block
    sys_small = _sys(M=2, Pe=0.5)
    t = derive_timing(_sys(M=5, Pe=0.5))  # timing fixed separately from the block
    policy = Policy((3, 4))
    prof = expected_completion(policy, sys_small, t)
    r = simulate(policy, sys_small, t, SimConfig(mode="chain", runs=6000, master_seed=41))
    assert abs(r.mean_completion - prof.T_M) <= 3 * r.stderr


@pytest.mark.parametrize("N, Pe, most", [
    ((1, 2, 3, 5, 8, 30), 0.5, 8),
    ((1, 4, 9, 100), 0.1, 8),
    ((3, 7, 2000), 0.0, 8),                          # all mass at N_b: zeros below it
    ((5, 100, 10**6, 2**53), 0.3, 8),                # N_b >> M: P(K < most) = 0
    ((10**6, 2**53), 1 - 1e-6, 20),                  # N_b >> M at a tiny success rate
    ((12, 50), 0.999, 12),
    (tuple(range(400, 1100, 25)), 0.5, 500),         # CDF cut near the median
])
def test_arrival_table_equals_scipy_binomial(N, Pe, most):
    # the burst law the simulator samples: P(K <= k) below c = min(N_b, most),
    # inf from c on.  binom.cdf rounds tails near 1e-300 to 0, so the
    # reference sums scipy's pmf
    cdf = _arrival_cdf(N, Pe, most)
    assert cdf.shape == (len(N), most)
    for row, n in zip(cdf, N):
        c = min(n, most)
        assert np.isinf(row[c:]).all() and np.isfinite(row[:c]).all()
        ref = np.cumsum(binom.pmf(np.arange(c), n, 1 - Pe))
        # subnormal terms carry fewer than 53 bits, so they get an absolute floor
        np.testing.assert_allclose(row[:c], ref, rtol=1e-12, atol=np.finfo(float).tiny)


def _exact_cdf(N, Pe, c):
    """P(K <= k) for k < c, K ~ Binomial(N, 1 - Pe), each rounded to a float once
    from the integer sum of comb(N, k) * B**k * A**(N - k) over D**N, where
    Pe = A/D exactly and D is a power of 2."""
    A, D = Pe.as_integer_ratio()
    B, shift = D - A, (D.bit_length() - 1) * N
    term, acc, cdf = A**N, 0, []
    for k in range(c):
        if k:   # comb(N, k) B**k A**(N - k), exactly
            term = term * (N - k + 1) * B // (k * A)
        acc += term
        drop = max(acc.bit_length() - 64, 0)
        cdf.append(math.ldexp(float(acc >> drop), drop - shift))
    return cdf


@pytest.mark.parametrize("Pe", [0.01, 0.1, 0.3, 0.5, 0.9, 0.99])
def test_arrival_table_equals_the_exact_binomial_cdf(Pe):
    # bursts of 400-1100 packets, whose pmf starts below the least normal float
    # at Pe <= 0.5
    N = (400, 575, 750, 925, 1100)
    cdf = _arrival_cdf(N, Pe, 1100)
    for row, n in zip(cdf, N):
        np.testing.assert_allclose(row[:n], _exact_cdf(n, Pe, n), rtol=1e-12,
                                   atol=np.finfo(float).tiny)


@pytest.mark.parametrize("g", [1, 2])
def test_rank_thresholds_match_decoder_rank(g):
    # rank after k uniform rows: the geometric-wait sampler against Gaussian
    # elimination on drawn rows, each rank's frequency within 4.5 pooled
    # standard errors, over GF(2) and GF(4)
    M, rows, n_sampler, n_decoder = 4, 9, 40_000, 4000
    f = GaloisField(g)
    thresholds = _rank_thresholds(np.random.default_rng([7, g]), n_sampler, M, g)
    rng = np.random.default_rng([8, g])
    decoded = np.empty((n_decoder, rows), dtype=np.int64)
    for i in range(n_decoder):
        dec = Decoder(f, M, 0)
        for k in range(rows):
            dec.absorb(rng.integers(0, f.q, size=M))
            decoded[i, k] = dec.rank
    for k in range(1, rows + 1):
        a = np.bincount((thresholds <= k).sum(axis=1), minlength=M + 1) / n_sampler
        b = np.bincount(decoded[:, k - 1], minlength=M + 1) / n_decoder
        pooled = (a * n_sampler + b * n_decoder) / (n_sampler + n_decoder)
        se = np.sqrt(pooled * (1 - pooled) * (1 / n_sampler + 1 / n_decoder))
        assert (np.abs(a - b) <= 4.5 * se + 1e-12).all(), (k, a, b)


def test_rank_thresholds_are_one_to_M_in_a_wide_field():
    # over GF(2^64) no uniform in (0, 1] waits past one arrival: every
    # coding vector raises the rank
    M = 40
    thresholds = _rank_thresholds(np.random.default_rng(5), 2000, M, 64)
    assert (thresholds == np.arange(1, M + 1)).all()


def test_receiver_oracle_reduces_to_the_chain_and_to_physical():
    # the (deficit, belief) solve is the chain's solve when every ACK is heard,
    # and rlnc's dependent packets vanish as the field grows
    N, T_p, T_w = (3, 5, 6, 8, 9, 11), 0.01, 0.1
    chain = absorption_times(N, 0.5, 0.0, T_p, T_w)[-1]
    assert receiver_completion_time(N, 0.5, 0.0, T_p, T_w) == pytest.approx(chain, rel=1e-12)
    physical = receiver_completion_time(N, 0.5, 0.3, T_p, T_w)
    big = receiver_completion_time(N, 0.5, 0.3, T_p, T_w, q=2**40)
    assert big == pytest.approx(physical, rel=1e-9)
    assert receiver_completion_time(N, 0.5, 0.3, T_p, T_w, q=2) > big


@settings(max_examples=150, deadline=None)
@given(
    N=st.lists(st.integers(1, 8), min_size=1, max_size=5),
    Pe=st.floats(0.0, 0.8),
    Pe_ack=st.floats(0.0, 0.8),
    T_p=st.floats(1e-4, 10.0),
    T_w=st.floats(0.0, 10.0),
    runs=st.integers(1, 40),
    seed=st.integers(0, 2**64 - 1),
    g=st.sampled_from([1, 2, 8]),
)
def test_records_account_for_every_round(N, Pe, Pe_ack, T_p, T_w, runs, seed, g):
    # a vectorised loop must stop charging a run once it finishes: every record
    # is a whole number of rounds, and no mode can finish on fewer than M packets
    M = len(N)
    sys = SystemParams(M=M, n=1000, g=8, h=80, n_ack=100, R=1e6, T_rt=0.1, Pe=Pe, Pe_ack=Pe_ack)
    t = Timing(T_p=T_p, T_ack=0.0, T_w=T_w)
    policy = Policy(tuple(N))
    for mode in ("chain", "physical", "rlnc"):
        cfg = SimConfig(mode=mode, runs=runs, master_seed=seed, field_g=g)
        rec = run_records(policy, sys, t, cfg)
        elapsed, sent, stops = rec.T
        assert (sent >= M).all() and (stops >= 1).all()
        np.testing.assert_allclose(elapsed, sent * T_p + stops * T_w, rtol=1e-12, atol=0)
    lossless = SystemParams(**{**sys.__dict__, "Pe_ack": 0.0})
    chain, physical = (run_records(policy, lossless, t, SimConfig(mode=m, runs=runs, master_seed=seed))
                       for m in ("chain", "physical"))
    assert np.array_equal(chain, physical)
