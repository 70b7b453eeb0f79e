import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tddnc
from tddnc.markov import Policy, expected_completion, expected_extra_receptions
from tddnc.optimizer import optimal_policy
from tddnc.params import SystemParams, Timing, derive_timing
from tddnc.rlnc import GaloisField
from tddnc.simulator import (
    _CHUNK,
    SimConfig,
    _run,
    _seed_state_type,
    _seed_states,
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
    for mode, field in (("chain", None), ("physical", None), ("rlnc", GaloisField(8))):
        r = simulate(policy, sys, t, SimConfig(mode=mode, runs=4, master_seed=3, field=field))
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
        cfg = SimConfig(mode="rlnc", runs=2500, master_seed=17, field=GaloisField(g))
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


# sha256 of run_records(...).tobytes() per (mode, g).  The rlnc pins were
# recorded from the simulator that encoded and decoded payloads: rank-only
# tracking keeps every run's draws and outcome
RECORD_SHA256 = {
    ("chain", 8): "609fadf94901c663fc61da9ee713c140222aeb2f907f3d1d6fe04b34e4568a41",
    ("physical", 8): "5821263f921e9991cd1b8c22a9457cb0782fd851453399e6cfbfb9f78dfdb4d9",
    ("rlnc", 1): "378482497a6fd51d707c5c4ed13254cf920c737ec8dee6626a85af7225fe5920",
    ("rlnc", 8): "f0a4a2a8d9b02f2f7b27c71b40b663b275a3d3a14c7cbb6f02ef2c31a3c881b1",
    ("rlnc", 16): "7990706639bef79ce78b025c69c57e66052e7452274958c71ee41456a9e9fed8",
}


@pytest.mark.parametrize("mode, g", sorted(RECORD_SHA256))
def test_records_match_pinned_hashes(mode, g):
    sys = SystemParams(M=6, n=1000, g=g, h=80, n_ack=100, R=1e6, T_rt=0.01, Pe=0.3, Pe_ack=0.1)
    field = GaloisField(g) if mode == "rlnc" else None
    cfg = SimConfig(mode=mode, runs=300, master_seed=20090419, field=field)
    rec = run_records(Policy((2, 3, 4, 6, 7, 9)), sys, derive_timing(sys), cfg)
    assert hashlib.sha256(rec.tobytes()).hexdigest() == RECORD_SHA256[mode, g]


@pytest.mark.parametrize("mode", ["chain", "physical"])
def test_erasure_modes_ignore_the_field(mode):
    # only the mode decides whether a run decodes: a field set on a chain or
    # physical config must not change a single record
    sys = _sys(M=6, Pe=0.3, Pe_ack=0.1)
    t = derive_timing(sys)
    policy = Policy((2, 3, 4, 6, 7, 9))
    plain = run_records(policy, sys, t, SimConfig(mode=mode, runs=300, master_seed=7))
    with_field = SimConfig(mode=mode, runs=300, master_seed=7, field=GaloisField(8))
    assert np.array_equal(run_records(policy, sys, t, with_field), plain)


def test_summarize_single_and_tied_runs():
    t = Timing(T_p=1.0, T_ack=0.1, T_w=2.0)
    one = summarize(np.array([[4.0, 3, 1]]), t)
    assert one.mean_completion == 4.0 and one.stderr == 0.0 and one.runs == 1
    two = summarize(np.array([[4.0, 3, 1], [4.0, 3, 1]]), t)
    assert two.mean_completion == 4.0 and two.stderr == 0.0


def test_summarize_spread():
    t = Timing(T_p=1.0, T_ack=0.1, T_w=2.0)
    r = summarize(np.array([[1.0, 2, 1], [3.0, 4, 2]]), t)
    assert r.mean_completion == 2.0
    assert r.stderr == pytest.approx(1.0, rel=1e-12)
    assert r.mean_packets_sent == 3.0
    assert r.mean_stops == 1.5
    assert r.histogram == ((1, 1), (3, 1))


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(mode="other")
    with pytest.raises(ValueError):
        SimConfig(runs=0)
    with pytest.raises(ValueError):
        SimConfig(master_seed=-1)
    with pytest.raises(ValueError):
        SimConfig(mode="rlnc", field=None)


@pytest.mark.parametrize("field", ["runs", "master_seed"])
@pytest.mark.parametrize("value", [True, 2.5, 10.0, "10"])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(TypeError):
        SimConfig(**{field: value})


def test_config_keeps_numpy_integers_as_ints():
    cfg = SimConfig(runs=np.int64(5), master_seed=np.uint64(2**64 - 1))
    assert type(cfg.runs) is int and type(cfg.master_seed) is int
    assert cfg.master_seed == 2**64 - 1


EDGE_WORDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)


def _seed_sequence_state(seed, run):
    return np.random.SeedSequence([seed, run]).generate_state(4, np.uint64)


@pytest.mark.parametrize("seed", EDGE_WORDS)
def test_seed_states_equal_seed_sequence_at_word_edges(seed):
    for run in (0, 1, 2**32 - 1, 2**32, 2**53):
        assert np.array_equal(_seed_states(seed, run, 1), [_seed_sequence_state(seed, run)])
    # one chunk across the run index where r grows a second 32-bit word
    chunk = _seed_states(seed, 2**32 - 3, 6)
    runs = range(2**32 - 3, 2**32 + 3)
    assert np.array_equal(chunk, [_seed_sequence_state(seed, r) for r in runs])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), run=st.integers(0, 2**53))
def test_seed_states_equal_seed_sequence(seed, run):
    assert np.array_equal(_seed_states(seed, run, 1)[0], _seed_sequence_state(seed, run))


@pytest.mark.parametrize("seed, run", [(0, 0), (20090419, 299), (2**64 - 1, 2**32)])
def test_seeded_generator_draws_equal_default_rng(seed, run):
    rng = np.random.Generator(np.random.PCG64(_seed_state_type()(_seed_states(seed, run, 1)[0])))
    ref = np.random.default_rng([seed, run])
    assert np.array_equal(rng.random(16), ref.random(16))
    assert np.array_equal(rng.integers(0, 2**16, size=(3, 5)), ref.integers(0, 2**16, size=(3, 5)))
    assert np.array_equal(rng.binomial(9, 0.4, size=16), ref.binomial(9, 0.4, size=16))


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy 2 loads numpy.random lazily; commands that never simulate keep it so
    code = ("import sys, numpy; before = 'numpy.random' in sys.modules; import tddnc.cli; "
            "print(('numpy.random' in sys.modules) == before)")
    src = Path(tddnc.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "True"


def test_records_across_chunks_equal_per_run_default_rng():
    # every run, in every chunk, draws from default_rng([master_seed, r])
    sys = _sys(M=3, Pe=0.4, Pe_ack=0.1)
    t = derive_timing(sys)
    policy = Policy((2, 3, 5))
    runs = _CHUNK + 3
    rec = run_records(policy, sys, t, SimConfig(mode="physical", runs=runs, master_seed=2**40 + 1))
    ref = [_run(policy, sys.Pe, sys.Pe_ack, t.T_p, t.T_w, np.random.default_rng([2**40 + 1, r]),
                None, True) for r in range(runs)]
    assert np.array_equal(rec, np.asarray(ref, dtype=np.float64))


def test_histogram_counts_runs():
    sys = _sys(M=3, Pe=0.4)
    t = derive_timing(sys)
    res = optimal_policy(sys, t)
    r = simulate(res.policy, sys, t, SimConfig(mode="chain", runs=600, master_seed=2))
    assert sum(c for _, c in r.histogram) == 600
    assert r.bucket_width == t.T_p


def test_analytic_profile_matches_simulated_intermediate_starts():
    # the per-state expectation, not just T_M: start the chain at a lower deficit
    # by shrinking the block
    sys_small = _sys(M=2, Pe=0.5)
    t = derive_timing(_sys(M=5, Pe=0.5))  # timing fixed separately from the block
    policy = Policy((3, 4))
    prof = expected_completion(policy, sys_small, t)
    r = simulate(policy, sys_small, t, SimConfig(mode="chain", runs=6000, master_seed=41))
    assert abs(r.mean_completion - prof.T_M) <= 3 * r.stderr
