"""The benchmark's span tracer still finds every name it wraps.

`bench/tracing.py` patches library functions through `owner.__dict__[name]`,
so a rename or removal in `tddnc` breaks `bench/run.py --trace 1`.  These
tests run three tiny CLI jobs under the tracer to catch that here.
"""

import json
from pathlib import Path

import pytest

from tddnc import cli, markov, optimizer, rlnc, simulator

BENCH = Path(__file__).resolve().parent.parent / "bench"

PARAMS = {"M": 4, "n": 1000, "g": 8, "h": 80, "n_ack": 100,
          "R": 1e6, "T_rt": 0.01, "Pe": 0.3, "Pe_ack": 0.01}

JOBS = {
    "policy": {"command": "policy"},
    "compare": {"command": "compare", "schemes": ["gbn:3", "sr:3", "fixed-window:2"],
                "metric": "eta"},
    "simulate": {"command": "simulate", "policy": {"type": "optimal"},
                 "sim": {"mode": "rlnc", "runs": 2, "field_g": 8}, "master_seed": 1},
}

# every (owner, name) the tracer replaces
TRACED = [
    (cli, "optimal_policy"), (cli, "expected_completion"), (cli, "fixed_window_completion"),
    (cli, "simulate"), (cli, "derive_timing"), (cli, "render_csv"), (cli, "GaloisField"),
    (optimizer, "state_completion_time"), (optimizer, "expected_completion"),
    (markov, "state_completion_time"),
    (simulator, "run_records"), (simulator, "encode"),
    (rlnc.GaloisField, "scale"), (rlnc.Decoder, "absorb"),
]


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    return tracing


def test_tracer_wraps_and_restores_every_traced_name(tracing, tmp_path):
    originals = [owner.__dict__[name] for owner, name in TRACED]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[name] is not original
                   for (owner, name), original in zip(TRACED, originals))
        for command, extra in JOBS.items():
            spec = tmp_path / f"{command}.json"
            spec.write_text(json.dumps({"schema_version": 1, "params": PARAMS, **extra}))
            argv = ["--config", str(spec), "--out", str(tmp_path / f"{command}.csv")]
            assert tracer.run_job(lambda: cli.main(argv)) == 0, command
    finally:
        tracer.uninstall()
    names = {span[1] for span in tracer.spans}
    for name in ("optimizer.optimal_policy", "markov.fixed_window_completion",
                 "simulator.run_records"):
        assert name in names
    assert not tracer.builds   # the rlnc job needs the field width only: no table is built
    assert all(owner.__dict__[name] is original
               for (owner, name), original in zip(TRACED, originals))
