"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are fixed here, not tuned at runtime.
"""

import json
import math

import numpy as np

from chain_oracle import absorption_times, joint_search, receiver_completion_time
from tddnc.cli import main as cli_main
from tddnc.markov import (
    Policy,
    expected_completion,
    expected_extra_receptions,
    fixed_window_completion,
    full_duplex_completion,
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
from tddnc.params import (
    BitChannel,
    SystemParams,
    Timing,
    derive_timing,
    with_bit_channel,
)
from tddnc.rlnc import Decoder, GaloisField, encode
from tddnc.simulator import SimConfig, run_records, simulate

MASTER_SEED = 20260808

# satellite-style link: long round trip, wide coefficients
SATELLITE = dict(M=10, n=10000, g=100, h=80, n_ack=100, R=1.5e6, T_rt=0.25)
# faster link used for the ARQ comparisons: narrow coefficients, no ACK loss
ARQ_LINK = dict(M=10, n=10000, g=20, h=80, n_ack=100, R=1e7, T_rt=0.25)


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_completion_recursion_matches_linear_solve():
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for M in range(1, 9):
        for _ in range(50):
            N = tuple(int(v) for v in rng.integers(1, 31, size=M))
            pe = float(rng.uniform(0.0, 0.9))
            pa = float(rng.uniform(0.0, 0.5))
            tp = float(rng.uniform(0.01, 2.0))
            tw = float(rng.uniform(0.001, 5.0))
            sys = SystemParams(M=M, n=10, g=1, h=0, n_ack=1, R=1.0, Pe=pe, Pe_ack=pa)
            prof = expected_completion(Policy(N), sys, Timing(tp, 1e-9, tw))
            oracle = absorption_times(N, pe, pa, tp, tw)
            for i in range(M):
                worst = max(worst, abs(prof.T[i + 1] - oracle[i]) / oracle[i])
    _report(1, worst <= 1e-9, f"recursion vs linear solve, worst relative error {worst:.3e} (tol 1e-9)")


def test_criterion_02_recursive_search_matches_joint_search():
    rng = np.random.default_rng(MASTER_SEED + 1)
    worst = 0.0
    for M in (2, 3):
        for _ in range(20):
            pe = float(rng.uniform(0.05, 0.6))
            pa = float(rng.uniform(0.0, 0.3))
            tw = float(rng.uniform(0.1, 15.0))
            sys = SystemParams(M=M, n=10, g=1, h=0, n_ack=1, R=1.0, Pe=pe, Pe_ack=pa)
            res = optimal_policy(sys, Timing(1.0, 1e-9, tw))
            assert max(res.policy.N) < 40, "draw left the joint search box"
            t_joint, _ = joint_search(M, 40, pe, pa, 1.0, tw)
            worst = max(worst, abs(res.profile.T_M - t_joint) / t_joint)
    _report(2, worst <= 1e-9, f"per-state searches vs exhaustive joint search, worst relative gap {worst:.3e} (tol 1e-9)")


def test_criterion_03_closed_form_brackets_integer_optimum():
    rng = np.random.default_rng(MASTER_SEED + 2)
    worst_residual = 0.0
    bracketed = True
    for _ in range(100):
        pe = float(rng.uniform(0.01, 0.95))
        ratio = float(math.exp(rng.uniform(math.log(0.01), math.log(100.0))))
        sys = SystemParams(M=1, n=10, g=1, h=0, n_ack=1, R=1.0, Pe=pe)
        timing = Timing(1.0, ratio / 2, ratio)
        x = continuous_optimum_N1(sys, timing)
        w = lambert_w_minus1(-math.exp(-1.0 + math.log(pe) * ratio))
        arg = -math.exp(-1.0 + math.log(pe) * ratio)
        worst_residual = max(worst_residual, abs(w * math.exp(w) - arg) / abs(arg))
        best, best_n = math.inf, 1
        for n1 in range(1, max(80, 3 * int(abs(x)) + 100)):
            t = (n1 + ratio) / (1 - pe**n1)
            if t < best:
                best, best_n = t, n1
        bracketed = bracketed and best_n in (math.floor(x), math.ceil(x))
    ok = bracketed and worst_residual <= 1e-12
    _report(3, ok, f"integer optimum in floor/ceil of closed form: {bracketed}; "
                   f"worst branch residual {worst_residual:.3e} (tol 1e-12)")


def test_criterion_04_optimal_close_to_full_duplex():
    sys = SystemParams(**SATELLITE, Pe=0.8, Pe_ack=0.001)
    t = derive_timing(sys)
    ratio = optimal_policy(sys, t).profile.T_M / full_duplex_completion(sys, t)
    ok = abs(ratio - 1.29) <= 0.05
    _report(4, ok, f"optimal/full-duplex completion ratio at Pe=0.8 is {ratio:.4f} (target 1.29 +/- 0.05)")


def test_criterion_05_fixed_windows_pay_heavily():
    sys = SystemParams(**SATELLITE, Pe=0.8, Pe_ack=0.001)
    t = derive_timing(sys)
    fd = full_duplex_completion(sys, t)
    ratios = {w: fixed_window_completion(w, sys, t).T_M / fd for w in (1, 5, 9, 10)}
    ok = all(r >= 5.0 for r in ratios.values())
    _report(5, ok, "fixed-window/full-duplex ratios at Pe=0.8: "
            + ", ".join(f"w={w}: {r:.2f}" for w, r in ratios.items()) + " (all >= 5)")


def _arq_comparison(t_rt: float, pe: float):
    sys = SystemParams(**{**ARQ_LINK, "T_rt": t_rt}, Pe=pe, Pe_ack=0.0)
    t = derive_timing(sys)
    nc = eta(sys, t, optimal_policy(sys, t).policy)
    return nc, eta_sr(sys, 10), eta_gbn(sys, 10)


def test_criterion_06_beats_selective_repeat_at_high_loss_and_latency():
    nc, sr, _ = _arq_comparison(0.25, 0.8)
    nc_fast, sr_fast, _ = _arq_comparison(0.00025, 0.8)
    ok = nc / sr > 3.0
    _report(6, ok, f"eta ratio vs selective repeat at Pe=0.8: {nc/sr:.3f} at T_rt=250ms (required > 3); "
                   f"{nc_fast/sr_fast:.3f} at T_rt=0.25ms (reported, no threshold)")


def test_criterion_07_low_loss_ordering_and_overhead_bound():
    sys0 = SystemParams(**ARQ_LINK)
    overhead = sys0.g * sys0.M / sys0.packet_bits
    ok = True
    details = []
    for pe in (1e-4, 5e-4, 1e-3):
        nc, sr, _ = _arq_comparison(0.25, pe)
        deficit = (sr - nc) / sr
        details.append(f"Pe={pe:g}: deficit {deficit:.4f}")
        ok = ok and nc <= sr and deficit <= overhead + 0.01
    gbn_ok = True
    for pe in (1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9):
        _, sr, gbn = _arq_comparison(0.25, pe)
        gbn_ok = gbn_ok and gbn <= sr * (1 + 1e-12)
    ok = ok and gbn_ok
    _report(7, ok, "low-loss eta deficit vs selective repeat within coefficient overhead "
                   f"{overhead + 0.01:.4f}: " + "; ".join(details) + f"; go-back-N <= SR on grid: {gbn_ok}")


def test_criterion_08_chain_simulation_matches_analysis():
    worst_cells = []
    ok = True
    for M in (1, 5, 10):
        for pe in (0.0, 0.1, 0.5, 0.8):
            for pa in (0.0, 0.001, 0.1):
                sys = SystemParams(**{**SATELLITE, "M": M}, Pe=pe, Pe_ack=pa)
                t = derive_timing(sys)
                res = optimal_policy(sys, t)
                r = simulate(res.policy, sys, t, SimConfig(mode="chain", runs=10_000,
                                                           master_seed=MASTER_SEED))
                diff = abs(r.mean_completion - res.profile.T_M)
                # degenerate deterministic cells have stderr 0 and match to float
                # precision; allow that representation error explicitly
                cell_ok = diff <= 3 * r.stderr + 1e-9 * res.profile.T_M
                ok = ok and cell_ok
                if r.stderr > 1e-12 * res.profile.T_M:
                    worst_cells.append(diff / r.stderr)
    _report(8, ok, f"36-cell Monte-Carlo grid at 10^4 runs, worst |z| {max(worst_cells):.2f} (limit 3)")


def _unit_cost_profile(policy, pe, pa, T_p, T_w):
    """The chain recursion at per-packet cost T_p and per-stop cost T_w; below `Timing`,
    which rejects T_p = 0."""
    T = [0.0]
    for i, n_i in enumerate(policy.N, start=1):
        T.append(state_completion_time(i, n_i, T, pe, pa, T_p, T_w))
    return T[-1]


def test_criterion_08_chain_packets_and_stops_match_exact_counts():
    # unit costs turn the recursion into E[packets] at (T_p, T_w) = (1, 0) and
    # E[stops] at (0, 1); a run's time is T_p*packets + T_w*stops exactly
    ok, details = True, []
    for M, pe, pa in ((6, 0.5, 0.3), (10, 0.5, 0.1), (16, 0.3, 0.2)):
        sys = SystemParams(**{**SATELLITE, "M": M}, Pe=pe, Pe_ack=pa)
        t = derive_timing(sys)
        best = optimal_policy(sys, t)
        packets = _unit_cost_profile(best.policy, pe, pa, 1.0, 0.0)
        stops = _unit_cost_profile(best.policy, pe, pa, 0.0, 1.0)
        identity = abs(t.T_p * packets + t.T_w * stops - best.profile.T_M)
        ok = ok and identity <= 1e-12 * best.profile.T_M
        runs = 20_000
        records = run_records(best.policy, sys, t, SimConfig(mode="chain", runs=runs,
                                                             master_seed=MASTER_SEED))
        zs = [(records[:, c].mean() - exact) / (records[:, c].std(ddof=1) / math.sqrt(runs))
              for c, exact in ((1, packets), (2, stops))]
        ok = ok and all(abs(z) <= 3 for z in zs)
        details.append(f"M={M} Pe={pe} Pe_ack={pa}: packets z {zs[0]:+.2f}, stops z {zs[1]:+.2f}")
    _report(8, ok, "exact chain packets and stops at 2*10^4 runs (limit |z| 3): "
            + "; ".join(details))


def test_criterion_08_receiver_modes_match_exact_mean():
    # physical and rlnc against the oracle's exact solve on (deficit, belief) states
    cells = [("physical", None, 6, 0.5, 0.3, None), ("physical", None, 8, 0.3, 0.1, None)]
    cells += [("rlnc", g, 6, 0.5, 0.3, (3, 5, 6, 8, 9, 11)) for g in (1, 2, 8)]
    ok, details = True, []
    for mode, g, M, pe, pa, N in cells:
        sys = SystemParams(**{**SATELLITE, "M": M}, Pe=pe, Pe_ack=pa)
        t = derive_timing(sys)
        policy = optimal_policy(sys, t).policy if N is None else Policy(N)
        exact = receiver_completion_time(policy.N, pe, pa, t.T_p, t.T_w,
                                         q=None if g is None else 2**g)
        cfg = SimConfig(mode=mode, runs=10_000, master_seed=MASTER_SEED, field_g=g)
        r = simulate(policy, sys, t, cfg)
        z = (r.mean_completion - exact) / r.stderr
        ok = ok and abs(z) <= 3
        details.append(f"{mode}{'' if g is None else f' q={2**g}'} M={M}: z {z:+.2f}")
    _report(8, ok, "exact receiver means at 10^4 runs (limit |z| 3): " + "; ".join(details))


def test_criterion_09_receptions_to_full_rank_match_expectation():
    sys = SystemParams(M=10, n=8, g=8, h=80, n_ack=100, R=1e6, T_rt=0.001)
    t = derive_timing(sys)
    policy = Policy((1,) * 10)  # one packet per burst: packets sent == receptions
    ok = True
    details = []
    for g in (1, 8):
        cfg = SimConfig(mode="rlnc", runs=10_000, master_seed=MASTER_SEED, field_g=g)
        packets = run_records(policy, sys, t, cfg)[:, 1]
        mean = packets.mean()
        se = packets.std(ddof=1) / math.sqrt(len(packets))
        predicted = expected_extra_receptions(10, 2**g)
        cap = 10 * (2**g) / (2**g - 1)
        cell_ok = abs(mean - predicted) <= 3 * se and mean <= cap + 3 * se
        ok = ok and cell_ok
        details.append(f"q={2**g}: mean {mean:.4f} vs {predicted:.4f} (3se={3*se:.4f}), cap {cap:.4f}")
    _report(9, ok, "; ".join(details))


def test_criterion_10_codec_round_trip_is_bit_exact():
    ok = True
    for g in (1, 8):
        field = GaloisField(g)
        for M in (1, 5, 10):
            rng = np.random.default_rng([MASTER_SEED, g, M])
            for _ in range(100):
                block = rng.integers(0, field.q, size=(M, 8), dtype=np.int64)
                dec = Decoder(field, M, 8)
                last = None
                while dec.rank < M:
                    last = encode(field, block, rng.integers(0, field.q, size=M, dtype=np.int64))
                    dec.absorb(last)
                ok = ok and dec.absorb(last) == 0          # duplicates carry nothing
                ok = ok and np.array_equal(dec.decode(), block)
    _report(10, ok, "600 random blocks decoded bit-exactly at q in {2, 256}, M in {1, 5, 10}; "
                    "duplicate absorption adds no rank")


def test_criterion_11_throughput_has_interior_optimum_in_packet_size():
    base = SystemParams(M=10, n=10000, g=100, h=80, n_ack=100, R=1e8, T_rt=0.25)
    bc = BitChannel(1e-4)
    grid = [500, 707, 1000, 1414, 2000, 2828, 4000, 5657, 8000,
            11314, 16000, 22627, 32000, 45255, 64000]
    etas = []
    for n in grid:
        sys = with_bit_channel(SystemParams(**{**base.__dict__, "n": n}), bc)
        t = derive_timing(sys)
        etas.append(eta(sys, t, optimal_policy(sys, t).policy))
    peak = int(np.argmax(etas))
    ok = 0 < peak < len(grid) - 1 and etas[0] < etas[peak] and etas[-1] < etas[peak]
    _report(11, ok, f"eta over n in [500, 64000] peaks at n={grid[peak]} "
                    f"({etas[peak]:.3e} bps vs {etas[0]:.3e} at the low end, {etas[-1]:.3e} at the high end)")


def test_criterion_12_cli_output_is_byte_deterministic(tmp_path):
    spec = {
        "schema_version": 1,
        "command": "sweep-pe",
        "params": {k: v for k, v in SATELLITE.items()} | {"Pe_ack": 0.001},
        "pe_grid": [0.1, 0.3, 0.5, 0.8],
        "schemes": ["nc-optimal", "full-duplex", "fixed-window:1", "fixed-window:5",
                    "fixed-window:9", "fixed-window:10"],
    }
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps(spec))
    sim_spec = {
        "schema_version": 1,
        "command": "simulate",
        "params": dict(SATELLITE, Pe=0.5, Pe_ack=0.001),
        "sim": {"mode": "chain", "runs": 2000},
        "master_seed": MASTER_SEED,
    }
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps(sim_spec))

    blobs = []
    for k, threads in ((0, "1"), (1, "1"), (2, "8")):
        out = tmp_path / f"sweep{k}.csv"
        assert cli_main(["--config", str(cfg), "--out", str(out), "--threads", threads]) == 0
        blobs.append(out.read_bytes())
    sim_blobs = []
    for k, threads in ((0, "1"), (1, "8")):
        out = tmp_path / f"sim{k}.csv"
        assert cli_main(["--config", str(sim_cfg), "--out", str(out), "--threads", threads]) == 0
        sim_blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2] and sim_blobs[0] == sim_blobs[1]
    _report(12, ok, "sweep and simulation CSVs byte-identical across repeats and --threads 8")
