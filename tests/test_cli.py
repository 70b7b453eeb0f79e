import copy
import csv
import errno
import hashlib
import io
import itertools
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tddnc import cli, rlnc
from tddnc.cli import main, render_csv, run_spec
from tddnc.markov import Policy, expected_completion
from tddnc.optimizer import optimal_policy
from tddnc.params import BitChannel, SystemParams, derive_timing, with_bit_channel

SATELLITE_PARAMS = {
    "M": 10, "n": 10000, "g": 100, "h": 80, "n_ack": 100,
    "R": 1.5e6, "T_rt": 0.25, "Pe": 0.0, "Pe_ack": 0.001,
}


def _write(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_policy_command_perfect_channel(tmp_path):
    spec = {"schema_version": 1, "command": "policy", "params": SATELLITE_PARAMS}
    out = tmp_path / "out.csv"
    assert main(["--config", _write(tmp_path, spec), "--out", str(out)]) == 0
    rows = _read_rows(out)
    n_by_state = {int(r["state"]): int(r["value"]) for r in rows if r["metric"] == "N_i"}
    assert n_by_state == {i: i for i in range(1, 11)}
    t_by_state = {int(r["state"]): float(r["value"]) for r in rows if r["metric"] == "T_i_seconds"}
    sys = SystemParams(**SATELLITE_PARAMS)
    t = derive_timing(sys)
    assert t_by_state[10] == pytest.approx((10 * t.T_p + t.T_w) / 0.999, rel=1e-8)
    assert all(r["metric"] in ("N_i", "T_i_seconds", "search_bound") for r in rows)


def test_sweep_pe_is_byte_deterministic_across_threads(tmp_path):
    spec = {
        "schema_version": 1,
        "command": "sweep-pe",
        "params": {k: v for k, v in SATELLITE_PARAMS.items() if k != "Pe"},
        "pe_grid": [0.1, 0.3, 0.5, 0.8],
        "schemes": ["nc-optimal", "full-duplex", "fixed-window:5", "stop-and-wait"],
    }
    cfg = _write(tmp_path, spec)
    paths = [str(tmp_path / f"out{k}.csv") for k in range(3)]
    assert main(["--config", cfg, "--out", paths[0]]) == 0
    assert main(["--config", cfg, "--out", paths[1]]) == 0
    assert main(["--config", cfg, "--out", paths[2], "--threads", "8"]) == 0
    blobs = [Path(p).read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    rows = _read_rows(paths[0])
    # declared grid order, schemes nested inside each grid point
    assert [r["Pe"] for r in rows[:4]] == ["0.1"] * 4
    assert [r["scheme"] for r in rows[:4]] == spec["schemes"]


def test_sweep_pe_ratio_column(tmp_path):
    spec = {
        "schema_version": 1,
        "command": "sweep-pe",
        "params": {k: v for k, v in SATELLITE_PARAMS.items() if k != "Pe"},
        "pe_grid": [0.8],
        "schemes": ["full-duplex", "nc-optimal"],
    }
    out = tmp_path / "out.csv"
    main(["--config", _write(tmp_path, spec), "--out", str(out)])
    rows = {r["scheme"]: r for r in _read_rows(out)}
    assert float(rows["full-duplex"]["ratio_to_full_duplex"]) == 1.0
    ratio = float(rows["nc-optimal"]["ratio_to_full_duplex"])
    assert ratio == pytest.approx(
        float(rows["nc-optimal"]["value"]) / float(rows["full-duplex"]["value"]), rel=1e-8
    )
    assert 1.24 <= ratio <= 1.34  # the optimized scheme stays near the streaming bound


def test_one_cell_pe_grid_echoes_negative_zero(tmp_path):
    # a grid cell is built from its own grid value, never from the params' copy
    spec = {
        "schema_version": 1,
        "command": "sweep-pe",
        "params": {k: v for k, v in SATELLITE_PARAMS.items() if k != "Pe"},
        "pe_grid": [-0.0],
        "schemes": ["nc-optimal", "full-duplex"],
    }
    out = tmp_path / "out.csv"
    assert main(["--config", _write(tmp_path, spec), "--out", str(out)]) == 0
    assert [r["Pe"] for r in _read_rows(out)] == ["-0.0", "-0.0"]


def test_sweep_row_round_trips_to_same_value(tmp_path):
    spec = {
        "schema_version": 1,
        "command": "sweep-pe",
        "params": {k: v for k, v in SATELLITE_PARAMS.items() if k != "Pe"},
        "pe_grid": [0.37],
        "schemes": ["nc-optimal"],
        "metric": "completion",
    }
    out = tmp_path / "a.csv"
    main(["--config", _write(tmp_path, spec), "--out", str(out)])
    row = _read_rows(out)[0]
    echo = {
        "schema_version": 1,
        "command": "compare",
        "metric": "completion",
        "params": {
            "M": int(row["M"]), "n": int(row["n"]), "g": int(row["g"]), "h": int(row["h"]),
            "n_ack": int(row["n_ack"]), "R": float(row["R"]), "T_rt": float(row["T_rt"]),
            "Pe": float(row["Pe"]), "Pe_ack": float(row["Pe_ack"]),
        },
        "schemes": [row["scheme"]],
    }
    out2 = tmp_path / "b.csv"
    main(["--config", _write(tmp_path, echo, "echo.json"), "--out", str(out2)])
    row2 = _read_rows(out2)[0]
    assert row2["value"] == row["value"]


def test_sweep_n_uses_bit_channel(tmp_path):
    spec = {
        "schema_version": 1,
        "command": "sweep-n",
        "params": {"M": 4, "n": 1000, "g": 8, "h": 80, "n_ack": 100, "R": 1e7, "T_rt": 0.01},
        "bit_channel": {"Pe_bit": 1e-5},
        "n_grid": [1000, 4000, 16000],
    }
    out = tmp_path / "out.csv"
    main(["--config", _write(tmp_path, spec), "--out", str(out)])
    rows = _read_rows(out)
    assert [int(r["n"]) for r in rows] == [1000, 4000, 16000]
    pes = [float(r["Pe"]) for r in rows]
    assert pes[0] < pes[1] < pes[2]  # erasures grow with the packet
    assert all(r["metric"] == "eta_bps" for r in rows)
    assert all(r["Pe_bit"] == "1e-05" for r in rows)


def test_sweep_joint_grid_order(tmp_path):
    spec = {
        "schema_version": 1,
        "command": "sweep-joint",
        "params": {"M": 4, "n": 1000, "g": 8, "h": 80, "n_ack": 100, "R": 1e7, "T_rt": 0.01},
        "bit_channel": {"Pe_bit": 1e-5},
        "n_grid": [1000, 2000],
        "m_grid": [2, 4],
    }
    out = tmp_path / "out.csv"
    main(["--config", _write(tmp_path, spec), "--out", str(out)])
    rows = _read_rows(out)
    assert [(int(r["M"]), int(r["n"])) for r in rows] == [(2, 1000), (2, 2000), (4, 1000), (4, 2000)]


def _eta_sweep(command, params, pe_bit, **grids):
    """The `eta_bps` values of an eta sweep, as {(M, n): value string}, in row order."""
    rows = run_spec({"schema_version": 1, "command": command, "params": params,
                     "bit_channel": {"Pe_bit": pe_bit}, **grids})
    assert all(r["metric"] == "eta_bps" for r in rows)
    return {(int(r["M"]), int(r["n"])): r["value"] for r in rows}


def test_sweep_joint_rows_are_the_optimal_policy_of_each_cell():
    # each cell re-optimizes the policy for erasures of its own packet size
    params = {"M": 10, "n": 10000, "g": 100, "h": 80, "n_ack": 100, "R": 1e8, "T_rt": 0.25}
    etas = _eta_sweep("sweep-joint", params, 1e-4, n_grid=[2000, 8000, 32000], m_grid=[2, 10, 30])
    assert len(etas) == 9
    for (m, n), value in etas.items():
        cell = with_bit_channel(SystemParams(**{**params, "M": m, "n": n}), BitChannel(1e-4))
        T_M = optimal_policy(cell, derive_timing(cell)).profile.T_M
        assert value == format(m * n / T_M, ".8e")


def test_sweep_n_error_free_prefers_the_largest_packet():
    params = {"M": 4, "n": 1000, "g": 8, "h": 80, "n_ack": 100, "R": 1e6, "T_rt": 0.05}
    etas = _eta_sweep("sweep-n", params, 0.0, n_grid=[500, 1000, 4000, 16000])
    best = max(etas, key=lambda cell: float(etas[cell]))
    assert best == (4, 16000)


def test_sweep_m_grows_when_stops_dominate():
    # long waits and an error-free channel: more packets per mandatory stop always wins
    params = {"M": 1, "n": 1000, "g": 8, "h": 80, "n_ack": 100, "R": 1e6, "T_rt": 5.0}
    etas = [float(v) for v in _eta_sweep("sweep-m", params, 0.0, m_grid=[1, 2, 4, 8]).values()]
    assert len(etas) == 4 and etas == sorted(etas)


def test_compare_eta_schemes(tmp_path):
    spec = {
        "schema_version": 1,
        "command": "compare",
        "params": {"M": 10, "n": 10000, "g": 20, "h": 80, "n_ack": 100,
                   "R": 1e7, "T_rt": 0.25, "Pe": 0.8, "Pe_ack": 0.0},
        "schemes": ["nc-optimal", "sr:10", "gbn:10"],
        "metric": "eta",
    }
    out = tmp_path / "out.csv"
    main(["--config", _write(tmp_path, spec), "--out", str(out)])
    rows = {r["scheme"]: float(r["value"]) for r in _read_rows(out)}
    assert rows["nc-optimal"] > 3 * rows["sr:10"]
    assert rows["gbn:10"] < rows["sr:10"]


def test_simulate_single_run_perfect_channel_matches_analytic(tmp_path):
    spec = {
        "schema_version": 1,
        "command": "simulate",
        "params": {"M": 5, "n": 1000, "g": 8, "h": 80, "n_ack": 100,
                   "R": 1e6, "T_rt": 0.1, "Pe": 0.0, "Pe_ack": 0.0},
        "policy": {"type": "optimal"},
        "sim": {"mode": "chain", "runs": 1},
        "master_seed": 7,
    }
    out = tmp_path / "out.csv"
    main(["--config", _write(tmp_path, spec), "--out", str(out)])
    rows = {r["metric"]: r["value"] for r in _read_rows(out)}
    assert rows["sim_mean_seconds"] == rows["T_M_seconds"]
    assert float(rows["sim_stderr_seconds"]) == 0.0


def test_simulate_explicit_policy_and_rlnc_mode(tmp_path):
    spec = {
        "schema_version": 1,
        "command": "simulate",
        "params": {"M": 3, "n": 64, "g": 8, "h": 80, "n_ack": 100,
                   "R": 1e6, "T_rt": 0.01, "Pe": 0.2, "Pe_ack": 0.0},
        "policy": {"type": "explicit", "N": [2, 3, 4]},
        "sim": {"mode": "rlnc", "runs": 50, "field_g": 8},
        "master_seed": 5,
    }
    out = tmp_path / "out.csv"
    assert main(["--config", _write(tmp_path, spec), "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert rows[0]["scheme"] == "explicit:2;3;4"
    assert rows[0]["sim_mode"] == "rlnc"
    analytic = {r["metric"]: float(r["value"]) for r in rows}["T_M_seconds"]
    sys = SystemParams(M=3, n=64, g=8, h=80, n_ack=100, R=1e6, T_rt=0.01, Pe=0.2)
    want = expected_completion(Policy((2, 3, 4)), sys, derive_timing(sys)).T_M
    assert analytic == pytest.approx(want, rel=1e-8)


def test_seed_flag_overrides_config(tmp_path):
    spec = {
        "schema_version": 1,
        "command": "simulate",
        "params": {"M": 3, "n": 1000, "g": 8, "h": 80, "n_ack": 100,
                   "R": 1e6, "T_rt": 0.1, "Pe": 0.5, "Pe_ack": 0.0},
        "sim": {"mode": "chain", "runs": 200},
        "master_seed": 7,
    }
    cfg = _write(tmp_path, spec)
    a, b, c = (str(tmp_path / f"{k}.csv") for k in "abc")
    main(["--config", cfg, "--out", a])
    main(["--config", cfg, "--out", b, "--seed", "99"])
    main(["--config", cfg, "--out", c, "--seed", "7"])
    assert Path(a).read_text() == Path(c).read_text()
    assert Path(a).read_text() != Path(b).read_text()
    assert main(["--config", cfg, "--out", str(tmp_path / "d.csv"), "--seed", "-1"]) == 2
    assert not (tmp_path / "d.csv").exists()


def test_reused_parser_carries_no_flag_between_calls(tmp_path, capsys):
    spec = {
        "schema_version": 1,
        "command": "simulate",
        "params": {"M": 3, "n": 1000, "g": 8, "h": 80, "n_ack": 100,
                   "R": 1e6, "T_rt": 0.1, "Pe": 0.5, "Pe_ack": 0.0},
        "sim": {"mode": "chain", "runs": 50},
        "master_seed": 7,
    }
    cfg = _write(tmp_path, spec)
    assert main(["--config", cfg]) == 0
    first = capsys.readouterr()
    with pytest.raises(SystemExit) as missing:
        main(["--format", "json"])
    assert missing.value.code == 2
    assert "the following arguments are required: --config" in capsys.readouterr().err
    with pytest.raises(SystemExit) as helped:
        main(["--help"])
    assert helped.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tddnc ")
    seeded = tmp_path / "seeded.json"
    assert main(["--config", cfg, "--seed", "99", "--format", "json", "--out", str(seeded)]) == 0
    assert json.loads(seeded.read_text())["command"] == "simulate"
    assert capsys.readouterr().out == ""
    assert main(["--config", cfg]) == 0
    assert capsys.readouterr() == first


# the parser's texts and results, as argparse gave them for the same flags at 80 columns
USAGE = ("usage: tddnc [-h] --config CONFIG [--out OUT] [--format {csv,json}]\n"
         "             [--seed SEED] [--threads THREADS]\n")
HELP = USAGE + """
Delay-optimal network coding for TDD erasure links: policies, scheme sweeps,
and Monte-Carlo simulation.

options:
  -h, --help           show this help message and exit
  --config CONFIG      JSON run specification
  --out OUT            output path (stdout when omitted)
  --format {csv,json}
  --seed SEED          override a simulate config's master_seed; other
                       commands take no seed
  --threads THREADS    accepted and ignored: sweep cells and simulation runs
                       are serial
"""
FLAGS = {"config": None, "out": None, "format": "csv", "seed": None, "threads": None}


@pytest.mark.parametrize("argv, want", [
    (["--config=p"], {"config": "p"}),
    (["--conf", "p"], {"config": "p"}),
    (["--config", "a", "--format", "json", "--config", "b", "--format=csv"], {"config": "b"}),
    (["--config", "p", "--seed", "-1"], {"config": "p", "seed": -1}),
    (["--c", "p", "--seed=5", "--th", " 3 ", "--o", "-x y", "--fo", "json"],
     {"config": "p", "seed": 5, "threads": 3, "out": "-x y", "format": "json"}),
    (["--config", "-1", "--out=", "--seed", "1_0"], {"config": "-1", "out": "", "seed": 10}),
    (["--config", "p", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["--config", "p", "--threads", "2.5"], "argument --threads: invalid int value: '2.5'"),
    (["--config", "p", "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
    (["--config", "p", "--out"], "argument --out: expected one argument"),
    (["--config", "--out", "o"], "argument --config: expected one argument"),
    (["--config", "p", "--seed", "-x"], "argument --seed: expected one argument"),
    (["--config", "p", "--bogus", "x"], "unrecognized arguments: --bogus x"),
    (["--config", "p", "--", "x"], "unrecognized arguments: -- x"),
    (["--format", "json"], "the following arguments are required: --config"),
    (["--bogus", "-c", "p"], "the following arguments are required: --config"),
    (["--config", "p", "--=x"],
     "ambiguous option: --=x could match --help, --config, --out, --format, --seed, --threads"),
    (["--seed", "x", "--help"], "argument --seed: invalid int value: 'x'"),
    (["--config", "p", "-hx"], "argument -h/--help: ignored explicit argument 'x'"),
    (["--help="], "argument -h/--help: ignored explicit argument ''"),
    (["-h"], None),
    (["--help"], None),
    (["--he", "--format", "xml"], None),
    (["-hh", "--bogus"], None),
])
def test_flags_read_as_argparse_read_them(capsys, argv, want):
    # a dict is the flags read, a string the usage error (exit 2), None the help (exit 0)
    if isinstance(want, dict):
        assert cli._args(argv) == {**FLAGS, **want}
        assert capsys.readouterr() == ("", "")
        return
    with pytest.raises(SystemExit) as exited:
        main(argv)
    out, err = capsys.readouterr()
    if want is None:
        assert (exited.value.code, out, err) == (0, HELP, "")
    else:
        assert (exited.value.code, out, err) == (2, "", f"{USAGE}tddnc: error: {want}\n")


def test_a_spec_that_is_not_utf8_exits_2(tmp_path, capsys):
    # json.loads of bytes would take UTF-16 text; the spec is read as UTF-8 only
    text = json.dumps({"schema_version": 1, "command": "policy", "params": SATELLITE_PARAMS})
    for k, data in enumerate((text.encode("utf-16"), b"\xff" + text.encode())):
        cfg, out = tmp_path / f"spec{k}.json", tmp_path / f"out{k}.csv"
        cfg.write_bytes(data)
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-spec"
        assert err["message"].startswith("config is not valid JSON: 'utf-8' codec can't decode")


def test_line_ends_count_in_json_errors_as_in_a_text_read(tmp_path, capsys):
    # JSON errors name a character offset; CR LF and CR count as one newline each
    cfg = tmp_path / "spec.json"
    cfg.write_bytes(b'{\r\n"a":\r 1,\r\n}')
    assert main(["--config", str(cfg)]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert message.endswith("line 4 column 1 (char 11)"), message


def test_seed_flag_on_specs_without_a_seed(tmp_path):
    spec = {"schema_version": 1, "command": "policy", "params": SATELLITE_PARAMS}
    cfg = _write(tmp_path, spec)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["--config", cfg, "--out", a]) == 0
    assert main(["--config", cfg, "--out", b, "--seed", "5"]) == 0
    assert Path(a).read_text() == Path(b).read_text()
    assert main(["--config", _write(tmp_path, [spec], "list.json"), "--seed", "5"]) == 2


def test_json_format_is_deterministic(tmp_path):
    spec = {
        "schema_version": 1,
        "command": "compare",
        "params": SATELLITE_PARAMS,
        "schemes": ["nc-optimal", "full-duplex"],
        "metric": "completion",
    }
    cfg = _write(tmp_path, spec)
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    main(["--config", cfg, "--out", a, "--format", "json"])
    main(["--config", cfg, "--out", b, "--format", "json", "--threads", "4"])
    assert Path(a).read_bytes() == Path(b).read_bytes()
    doc = json.loads(Path(a).read_text())
    assert doc["schema_version"] == 1 and doc["command"] == "compare"
    assert {r["scheme"] for r in doc["rows"]} == {"nc-optimal", "full-duplex"}


_EVERY_ROW_PATH = [
    {"command": "policy", "bit_channel": {"Pe_bit": 1e-5}},
    {"command": "sweep-pe", "pe_grid": [0.0, 0.5], "metric": "completion",
     "schemes": ["nc-optimal", "full-duplex", "fixed-window:3", "stop-and-wait"]},
    {"command": "sweep-joint", "bit_channel": {"Pe_bit": 1e-5}, "n_grid": [1000, 4000],
     "m_grid": [2, 4], "schemes": ["nc-optimal", "full-duplex"]},
    {"command": "compare", "schemes": ["nc-optimal", "full-duplex", "fixed-window:2", "gbn:4",
                                       "sr:4"]},
    {"command": "simulate", "sim": {"mode": "chain", "runs": 20}},
    {"command": "simulate", "policy": {"type": "fixed-window", "omega": 3},
     "sim": {"mode": "rlnc", "runs": 5, "field_g": 1}},
]


@pytest.mark.parametrize("extra", _EVERY_ROW_PATH, ids=lambda e: e["command"])
def test_every_row_has_exactly_the_columns(tmp_path, extra):
    spec = {"schema_version": 1, "params": {**SATELLITE_PARAMS, "M": 4, "Pe": 0.3}, **extra}
    rows = run_spec(spec)
    assert rows and all(sorted(row) == sorted(cli.COLUMNS) for row in rows)
    out = tmp_path / "out.json"
    assert main(["--config", _write(tmp_path, spec), "--out", str(out), "--format", "json"]) == 0
    assert all(sorted(row) == sorted(cli.COLUMNS) for row in json.loads(out.read_text())["rows"])


def test_invalid_specs_exit_2_without_output(tmp_path, capsys):
    bad_specs = [
        {"schema_version": 2, "command": "policy", "params": SATELLITE_PARAMS},
        {"schema_version": 1, "command": "bogus", "params": SATELLITE_PARAMS},
        {"schema_version": 1, "command": "policy", "params": {**SATELLITE_PARAMS, "Pe": 1.0}},
        {"schema_version": 1, "command": "sweep-pe", "params": SATELLITE_PARAMS,
         "pe_grid": [], "schemes": ["nc-optimal"]},
        {"schema_version": 1, "command": "sweep-pe", "params": SATELLITE_PARAMS,
         "pe_grid": [0.1], "schemes": ["warp:3"]},
        {"schema_version": 1, "command": "compare", "params": SATELLITE_PARAMS,
         "schemes": ["sr:10"], "metric": "completion"},
        {"schema_version": 1, "command": "compare", "params": SATELLITE_PARAMS,
         "schemes": ["nc-optimal"], "metric": "bogus"},
        {"schema_version": 1, "command": "simulate", "params": SATELLITE_PARAMS,
         "policy": {"type": "explicit", "N": [1]}},
        {"schema_version": 1, "command": "simulate", "params": SATELLITE_PARAMS,
         "policy": {"type": "explicit", "N": [1.5] + list(range(2, 11))}},
        {"schema_version": 1, "command": "simulate", "params": SATELLITE_PARAMS,
         "policy": {"type": "fixed-window", "omega": "x"}},
        {"schema_version": 1, "command": "compare", "params": SATELLITE_PARAMS,
         "schemes": [5]},
        {"schema_version": 1, "command": "policy", "params": {**SATELLITE_PARAMS, "R": 1e400}},
        {"schema_version": 1, "command": "policy",
         "params": {**SATELLITE_PARAMS, "T_rt": float("nan")}},
    ]
    bad_specs += [{"schema_version": 1, "command": "simulate", "params": SATELLITE_PARAMS,
                   "sim": {"runs": 5}, "master_seed": seed} for seed in (7.9, True, "5")]
    bad_params = [{"M": True, "n": 1000.9}, {"M": True}, {"n": 1000.9}, {"g": 100.0},
                  {"h": False}, {"n_ack": "100"}]
    bad_specs += [{"schema_version": 1, "command": "policy",
                   "params": {**SATELLITE_PARAMS, **params}} for params in bad_params]
    bad_sims = [
        {"mode": "rlnc", "field_g": 8.0},
        {"mode": "rlnc", "field_g": True},
        {"mode": "rlnc", "field_g": 0},
        {"mode": "chain", "runs": 2.9},
        {"mode": "chain", "runs": "ten"},
        {"mode": "chain", "runs": True},
        {"mode": "chain", "field_g": 8},                       # read in rlnc mode only
        {"mode": "rlnc", "field_g": 8, "seed": 3},
    ]
    bad_specs += [{"schema_version": 1, "command": "simulate", "params": SATELLITE_PARAMS,
                   "sim": {"runs": 5, **sim}} for sim in bad_sims]
    eta_sweep = {"params": SATELLITE_PARAMS, "bit_channel": {"Pe_bit": 1e-5}}
    pe_sweep = {"command": "sweep-pe", "params": SATELLITE_PARAMS, "schemes": ["nc-optimal"]}
    bad_grids = [
        {"command": "sweep-n", **eta_sweep, "n_grid": [1000.9]},
        {"command": "sweep-n", **eta_sweep, "n_grid": [True]},
        {"command": "sweep-n", **eta_sweep, "n_grid": ["1000"]},
        {"command": "sweep-m", **eta_sweep, "m_grid": [2.0]},
        {"command": "sweep-m", **eta_sweep, "m_grid": [0]},
        {"command": "sweep-n", **eta_sweep, "n_grid": [-5]},
        {"command": "sweep-n", **eta_sweep, "n_grid": [1000], "schemes": ["fixed-window:2"]},
        {"command": "sweep-joint", **eta_sweep, "n_grid": [1000], "m_grid": [False]},
        {**pe_sweep, "pe_grid": ["0.5"]},
        {**pe_sweep, "pe_grid": [False]},
        {**pe_sweep, "pe_grid": [0.1, None]},
    ]
    unknown_keys = [
        {"command": "compare", "params": SATELLITE_PARAMS, "schemes": ["nc-optimal"],
         "metrics": "completion"},
        {"command": "compare", "params": SATELLITE_PARAMS, "schemes": ["nc-optimal"],
         "pe_grid": [0.1]},
        {"command": "policy", "params": SATELLITE_PARAMS, "master_seed": 5},
        {**pe_sweep, "pe_grid": [0.1], "bit_channel": {"Pe_bit": 1e-5}},
        {"command": "sweep-n", **eta_sweep, "n_grid": [1000], "metric": "eta"},
        {"command": "simulate", "params": SATELLITE_PARAMS, "sim": {"runs": 5}, "runs": 5},
    ]
    bad_specs += [{"schema_version": 1, **spec} for spec in bad_grids + unknown_keys]
    huge = 10**400  # a 401-digit JSON integer, too large for a float
    sim_spec = {"command": "simulate", "params": SATELLITE_PARAMS, "sim": {"runs": 5}}
    compare = {"command": "compare", "params": SATELLITE_PARAMS}
    coerced = [
        {"command": "policy", "params": {**SATELLITE_PARAMS, "R": "1.5e6"}},
        {"command": "policy", "params": {**SATELLITE_PARAMS, "Pe_ack": False}},
        {"command": "policy", "params": SATELLITE_PARAMS, "bit_channel": {"Pe_bit": "1e-5"}},
        {"command": "policy", "params": {**SATELLITE_PARAMS, "R": huge}},
        {"command": "policy", "params": {**SATELLITE_PARAMS, "n": huge}},
        {"command": "policy", "params": SATELLITE_PARAMS, "bit_channel": {"Pe_bit": huge}},
        {**pe_sweep, "pe_grid": [0.1, huge]},
        {**compare, "schemes": [f"gbn:{huge}"], "metric": "eta"},
        {**sim_spec, "policy": {"type": "explicit", "N": [huge] + list(range(2, 11))}},
        {**compare, "schemes": ["fixed-window: 2"]},
        {**compare, "schemes": ["gbn:1_0"], "metric": "eta"},
        {**compare, "schemes": ["nc-optimal:"]},
        # a bit channel that erases every packet: Pe rounds to 1
        {"command": "policy", "params": SATELLITE_PARAMS, "bit_channel": {"Pe_bit": 0.99}},
    ]
    unknown_nested = [
        {**sim_spec, "policy": {"type": "optimal", "omega": 3}},
        {**sim_spec, "policy": {"type": "explicit", "N": list(range(1, 11)), "omega": 3}},
        {**sim_spec, "policy": {"type": "fixed-window", "omega": 3, "N": [1]}},
        {**sim_spec, "bit_channel": {"Pe_bit": 1e-5, "x": 1}},
        {**sim_spec, "sim": {"mode": "rlnc", "runs": 5, "field_g": 8, "polynomial": None}},
    ]
    bad_specs += [{"schema_version": 1, **spec} for spec in coerced + unknown_nested]
    bad_specs += [{"schema_version": version, "command": "policy", "params": SATELLITE_PARAMS}
                  for version in (True, 1.0)]
    for k, spec in enumerate(bad_specs):
        out = tmp_path / f"no{k}.csv"
        code = main(["--config", _write(tmp_path, spec, f"bad{k}.json"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, spec
        assert not out.exists()
        assert json.loads(err.strip())["error"] == "invalid-spec"


def test_sim_polynomial_is_an_unknown_key(tmp_path, capsys):
    # only the field size enters rlnc, so no spec picks a reduction polynomial
    spec = {"schema_version": 1, "command": "simulate", "params": SATELLITE_PARAMS,
            "sim": {"mode": "rlnc", "runs": 5, "field_g": 8, "polynomial": 0x11B}}
    out = tmp_path / "no.csv"
    assert main(["--config", _write(tmp_path, spec), "--out", str(out)]) == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "invalid-spec" and "polynomial" in err["message"]


# sha256 of the CSV of an rlnc simulate spec per field_g (M=6, 300 runs); the
# seed is one at which the three widths give three different outputs
RLNC_CSV_SHA256 = {
    1: "e065638fefe38efa41d6021d1bd91e21bfdb72b98858aba246697b8311754a12",
    8: "5ab2339971bcaef26d4c3092d0da2113858b6b648c4c8bff76ab54095955d86a",
    16: "4cbb0f1c624611ad73ae992c8ffec168e2283ec870cc4b82b8d21c2fcef7684b",
}


def test_rlnc_csv_matches_pinned_hashes_without_a_field_table(tmp_path, monkeypatch):
    def built(self):
        raise AssertionError("a simulate job built a GF(2^g) table")

    monkeypatch.setattr(rlnc.GaloisField, "_build_tables", built)
    for field_g, want in RLNC_CSV_SHA256.items():
        spec = {"schema_version": 1, "command": "simulate",
                "params": {"M": 6, "n": 1000, "g": 8, "h": 80, "n_ack": 100,
                           "R": 1e6, "T_rt": 0.1, "Pe": 0.3, "Pe_ack": 0.1},
                "policy": {"type": "optimal"}, "master_seed": 20091027,
                "sim": {"mode": "rlnc", "runs": 300, "field_g": field_g}}
        out = tmp_path / f"g{field_g}.csv"
        assert main(["--config", _write(tmp_path, spec), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want, field_g


def test_rlnc_accepts_field_widths_past_16(tmp_path):
    # only q = 2^g enters rlnc: field_g defaults to params.g and has no upper bound
    params = {"M": 3, "n": 1000, "g": 32, "h": 80, "n_ack": 100, "R": 1e6, "T_rt": 0.1,
              "Pe": 0.3, "Pe_ack": 0.1}
    for sim in ({"mode": "rlnc", "runs": 20}, {"mode": "rlnc", "runs": 20, "field_g": 17}):
        spec = {"schema_version": 1, "command": "simulate", "params": params, "sim": sim}
        out = tmp_path / "out.csv"
        assert main(["--config", _write(tmp_path, spec), "--out", str(out)]) == 0
        assert {r["sim_mode"] for r in _read_rows(out)} == {"rlnc"}


def test_simulate_row_counts_packets_past_2_63(tmp_path, capsys):
    # M = 1 sends N every round, so the mean packets are N times the mean stops,
    # far past int64's range, and the histogram keys stay whole numbers
    N = 2**53
    spec = {"schema_version": 1, "command": "simulate",
            "params": {"M": 1, "n": 1000, "g": 8, "h": 80, "n_ack": 100,
                       "R": 1e6, "T_rt": 0.1, "Pe": 0.5, "Pe_ack": 0.999},
            "policy": {"type": "explicit", "N": [N]},
            "sim": {"mode": "physical", "runs": 50}, "master_seed": 1}
    out = tmp_path / "out.csv"
    assert main(["--config", _write(tmp_path, spec), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = {r["metric"]: r["value"] for r in _read_rows(out)}
    assert rows["sim_mean_packets"] == format(N * float(rows["sim_mean_stops"]), ".8e")
    assert rows["sim_mean_packets"] == "9.16968913e+18"


def test_unwritable_out_exits_2(tmp_path, capsys):
    spec = _write(tmp_path, {"schema_version": 1, "command": "policy", "params": SATELLITE_PARAMS})
    for out in (tmp_path / "missing" / "out.csv", tmp_path):
        before = sorted(tmp_path.rglob("*"))
        assert main(["--config", spec, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "invalid-spec"
        assert err["message"].startswith("cannot write output: ")
        assert sorted(tmp_path.rglob("*")) == before


def test_failed_write_leaves_no_partial_file(tmp_path, capsys, monkeypatch):
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    def opened(path, *args, **kwargs):
        if path != str(out):
            return open(path, *args, **kwargs)
        out.write_text("partial")   # the open created the file; the write then fails
        return Full()

    out = tmp_path / "out.csv"
    spec = _write(tmp_path, {"schema_version": 1, "command": "policy", "params": SATELLITE_PARAMS})
    monkeypatch.setattr(cli, "open", opened, raising=False)
    assert main(["--config", spec, "--out", str(out)]) == 2
    assert "No space left" in json.loads(capsys.readouterr().err.strip())["message"]
    assert not out.exists()


def _readme_cells(heading):
    """The cells of each body row of the README table that follows `heading`."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = lines.index(heading) + 4   # blank line, header row, rule row
    return [[c.strip() for c in line.strip("|").split("|")]
            for line in itertools.takewhile(lambda ln: ln.startswith("|"), lines[start:])]


def _readme_table(heading):
    """{first-column names: key names} of the README table that follows `heading`."""
    rows, tags = [], None
    for cells in _readme_cells(heading):
        tags = tuple(re.findall(r"`([^`]+)`", cells[0])) or tags
        rows.append((tags, re.findall(r"`([^`]+)`", cells[1])))
    return rows


def test_readme_spec_tables_name_exactly_the_spec_keys():
    # the README's params, policy and sim tables against cli's key tables
    params = [key for keys, row in _readme_table("`params`:") for key in keys]
    assert sorted(params) == sorted(cli._PARAMS)
    for heading, tables in (("`policy`, one table per `type`:", cli._POLICIES),
                            ("`sim`, one table per `mode`:", cli._SIMS)):
        named = {tag: set() for tag in tables}
        for tags, keys in _readme_table(heading):
            for tag in tags:
                named[tag].update(keys)
        assert named == {tag: set(table) for tag, table in tables.items()}, heading


def test_readme_field_table_names_exactly_the_default_polynomials():
    # the README's "Field tables" rows hold (g, polynomial) pairs side by side
    named = {}
    for cells in _readme_cells("`DEFAULT_POLYNOMIALS`, one reduction polynomial per width g:"):
        for g, poly in zip(cells[0::2], cells[1::2]):
            assert int(g) not in named, g
            named[int(g)] = int(poly, 16)
    assert named == rlnc.DEFAULT_POLYNOMIALS


def test_numeric_overflow_exits_3(tmp_path, capsys):
    # absurdly slow link: burst durations overflow doubles and the completion
    # time is no longer representable
    slow = {"n": 10000, "g": 100, "h": 80, "n_ack": 100, "R": 1e-304, "T_rt": 0.25,
            "Pe": 0.9, "Pe_ack": 0.0}
    overflows = [
        ({"command": "compare", "params": {**slow, "M": 10}, "schemes": ["nc-optimal"],
          "metric": "completion"}, None),
        ({"command": "policy", "params": {**slow, "M": 2}},
         "nc-optimal/T_i_seconds is not finite"),
    ]
    for k, (spec, message) in enumerate(overflows):
        out = tmp_path / f"no{k}.csv"
        cfg = _write(tmp_path, {"schema_version": 1, **spec}, f"overflow{k}.json")
        assert main(["--config", cfg, "--out", str(out)]) == 3
        assert not out.exists()
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "non-finite"
        assert message in (None, err["message"])


def test_unreadable_config_exits_2(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "missing.json")]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "invalid-spec"
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["--config", str(garbled)]) == 2


def test_render_csv_shape():
    rows = run_spec({
        "schema_version": 1,
        "command": "compare",
        "params": SATELLITE_PARAMS,
        "schemes": ["nc-optimal"],
        "metric": "eta",
    })
    text = render_csv(rows)
    assert text.endswith("\n")
    header, line = text.splitlines()[:2]
    assert header.startswith("scheme,metric,state,value")
    assert len(line.split(",")) == len(header.split(","))


def test_unparsable_json_text_exits_2(tmp_path, capsys):
    spec = json.dumps({"schema_version": 1, "command": "policy", "params": SATELLITE_PARAMS})
    texts = [
        spec[:-1] + ', "x": ' + "7" * 5000 + "}",  # more digits than int() converts
        "[" * 100000 + "]" * 100000,               # nested deeper than the recursion limit
    ]
    for k, text in enumerate(texts):
        cfg, out = tmp_path / f"bad{k}.json", tmp_path / f"no{k}.csv"
        cfg.write_text(text)
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert json.loads(capsys.readouterr().err.strip())["error"] == "invalid-spec"


def test_validation_precedes_computation(tmp_path, monkeypatch):
    def computed(*args):
        raise AssertionError("optimal_policy ran before the spec was validated")

    monkeypatch.setattr(cli, "optimal_policy", computed)
    spec = {
        "schema_version": 1,
        "command": "sweep-pe",
        "params": SATELLITE_PARAMS,
        "pe_grid": [0.1, 0.5, 1.0],
        "schemes": ["nc-optimal"],
    }
    out = tmp_path / "no.csv"
    assert main(["--config", _write(tmp_path, spec), "--out", str(out)]) == 2
    assert not out.exists()


# A valid small spec per command; the property test changes one key of one of them.
_LINK = {"M": 2, "n": 100, "g": 8, "h": 8, "n_ack": 10, "R": 1e4, "T_rt": 0.01,
         "Pe": 0.3, "Pe_ack": 0.1}
_SMALL_SPECS = [
    {"command": "policy", "params": _LINK, "bit_channel": {"Pe_bit": 1e-3}},
    {"command": "sweep-pe", "params": _LINK, "pe_grid": [0.0, 0.5], "metric": "completion",
     "schemes": ["nc-optimal", "full-duplex", "stop-and-wait", "fixed-window:2"]},
    {"command": "sweep-n", "params": _LINK, "bit_channel": {"Pe_bit": 1e-3}, "n_grid": [50, 100],
     "schemes": ["nc-optimal", "full-duplex"]},
    {"command": "sweep-m", "params": _LINK, "bit_channel": {"Pe_bit": 1e-3}, "m_grid": [1, 3]},
    {"command": "sweep-joint", "params": _LINK, "bit_channel": {"Pe_bit": 1e-3},
     "n_grid": [100], "m_grid": [2]},
    {"command": "compare", "params": _LINK, "metric": "eta",
     "schemes": ["nc-optimal", "full-duplex", "fixed-window:1", "gbn:3", "sr:3"]},
    {"command": "simulate", "params": _LINK, "policy": {"type": "optimal"},
     "sim": {"mode": "chain", "runs": 3}, "master_seed": 1},
    {"command": "simulate", "params": _LINK, "policy": {"type": "fixed-window", "omega": 2},
     "sim": {"mode": "rlnc", "runs": 3, "field_g": 4}, "master_seed": 2},
    {"command": "simulate", "params": _LINK, "policy": {"type": "explicit", "N": [1, 3]},
     "sim": {"mode": "physical", "runs": 3}, "master_seed": 3},
]
# numbers and integers come from this list only, so every example's cost stays bounded
_EDGE_NUMBERS = [0, -1, 0.5, 0.99, 1.0, float("nan"), float("inf"), 2**53 + 1, 10**400,
                 *range(1, 13)]
_WORDS = ["", "x", "policy", "compare", "chain", "physical", "rlnc", "optimal", "fixed-window",
          "explicit", "nc-optimal", "full-duplex", "stop-and-wait", "fixed-window:2", "gbn:3",
          "sr:3", "gbn:0", "completion", "eta"]
_KEYS = sorted({key for spec in _SMALL_SPECS for key in spec} | set(_LINK)
               | {"schema_version", "Pe_bit", "type", "omega", "N", "mode", "runs", "field_g",
                  "polynomial", "x"})


def _json_values():
    leaves = (st.sampled_from(_EDGE_NUMBERS) | st.sampled_from(_WORDS) | st.booleans()
              | st.none())
    nested = st.recursive(leaves, lambda inner: st.lists(inner, max_size=3)
                          | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3),
                          max_leaves=6)
    return leaves | nested


@st.composite
def _changed_specs(draw):
    spec = copy.deepcopy({"schema_version": 1, **draw(st.sampled_from(_SMALL_SPECS))})
    holder = draw(st.sampled_from([spec] + [v for v in spec.values() if isinstance(v, dict)]))
    change = draw(st.sampled_from(("add", "remove", "replace")))
    if change == "remove":
        del holder[draw(st.sampled_from(sorted(holder)))]
    else:
        keys = _KEYS if change == "add" else sorted(holder)
        holder[draw(st.sampled_from(keys))] = draw(_json_values())
    return spec


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=_changed_specs())
def test_changed_spec_exits_cleanly(tmp_path, spec):
    cfg, out = tmp_path / "spec.json", tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    cfg.write_text(json.dumps(spec))
    code = main(["--config", str(cfg), "--out", str(out)])
    assert code in (0, 2, 3)
    assert out.exists() == (code == 0)
