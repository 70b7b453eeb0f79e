"""A new `tddnc` process imports numpy only where its work needs it, and gives the
same bytes as a process that holds numpy.

Each test starts a new interpreter, as a user's script does, that has not
imported numpy; the tests themselves run in a process that has.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy  # noqa: F401  (this process holds numpy, as a library user's may)
import pytest

from test_configs import CONFIGS, CSV_SHA256, JSON_SHA256, POLICY_CSV_SHA256, POLICY_SPEC
from tddnc import optimizer
from tddnc.optimizer import optimal_policy
from tddnc.params import SystemParams, derive_timing

SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh(code: str, *args: str):
    """The JSON that `code` prints last, run in a new interpreter with `args`;
    `code` starts after `import json, sys, tddnc.cli` and a check that neither
    numpy nor argparse was imported."""
    prelude = ("import json, sys, tddnc.cli\n"
               "assert 'numpy' not in sys.modules, 'importing tddnc.cli imported numpy'\n"
               "assert 'argparse' not in sys.modules, 'importing tddnc.cli imported argparse'\n")
    out = subprocess.run([sys.executable, "-s", "-c", prelude + code, *args], check=True,
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    return json.loads(out.stdout.splitlines()[-1])


# whether a config's run imports numpy: a simulate spec runs the numpy
# simulator, and these searches stay within the scalar budget
NUMPY_AFTER = {"arq-compare.json": False, "satellite-sweep.json": False,
               "simulate-chain.json": True}

# runs the argv lists in sys.argv[1] and prints, for each, its exit code and
# whether numpy was loaded after it
RUN_CLI = """
states = []
for argv in json.loads(sys.argv[1]):
    states.append((tddnc.cli.main(argv), "numpy" in sys.modules))
print(json.dumps(states))
"""


def test_importing_the_package_imports_no_numpy():
    assert _fresh("import tddnc; print(json.dumps('numpy' in sys.modules))") is False


@pytest.mark.parametrize("name", sorted(CSV_SHA256))
def test_config_pins_hold_in_a_fresh_interpreter(tmp_path, name):
    csv, js = tmp_path / "out.csv", tmp_path / "out.json"
    argv = [["--config", str(CONFIGS / name), "--out", str(csv)],
            ["--config", str(CONFIGS / name), "--out", str(js), "--format", "json"]]
    states = _fresh(RUN_CLI, json.dumps(argv))
    assert [code for code, _ in states] == [0, 0]
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == CSV_SHA256[name]
    assert hashlib.sha256(js.read_bytes()).hexdigest() == JSON_SHA256[name]
    if name in NUMPY_AFTER:
        assert states[0][1] is NUMPY_AFTER[name]


def test_policy_spec_runs_without_numpy(tmp_path):
    spec, out = tmp_path / "spec.json", tmp_path / "out.csv"
    spec.write_text(json.dumps(POLICY_SPEC))
    assert _fresh(RUN_CLI, json.dumps([["--config", str(spec), "--out", str(out)]])) == [[0, False]]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == POLICY_CSV_SHA256
    # in a process that holds numpy the same search estimates from a table
    sys_ = SystemParams(**POLICY_SPEC["params"])
    assert sum(c.estimated for c in optimal_policy(sys_, derive_timing(sys_)).search_counts) > 0


def test_the_specs_of_one_process_share_the_scalar_budget(tmp_path):
    # each run of the policy spec spends the same scalar terms from one budget per
    # process, so a loop of specs loses at most that budget before numpy is
    # imported; the run that would pass it imports numpy, with the same bytes
    sys_ = SystemParams(**POLICY_SPEC["params"])
    t = derive_timing(sys_)
    _, spent = optimizer._search(sys_.M, sys_.Pe, sys_.Pe_ack, t.T_p, t.T_w,
                                 optimizer._SCALAR_BUDGET)
    free = optimizer._SCALAR_BUDGET // spent
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(POLICY_SPEC))
    outs = [tmp_path / f"out{k}.csv" for k in range(free + 1)]
    states = _fresh(RUN_CLI, json.dumps([["--config", str(spec), "--out", str(out)]
                                         for out in outs]))
    assert states == [[0, False]] * free + [[0, True]]
    assert {hashlib.sha256(out.read_bytes()).hexdigest() for out in outs} == {POLICY_CSV_SHA256}


def test_fresh_large_search_matches_the_in_process_search():
    # M=200 passes the scalar budget of a process without numpy, which then
    # imports numpy and estimates the rest of the search
    params = dict(M=200, n=10000, g=8, h=80, n_ack=100, R=1.5e6, T_rt=0.25, Pe=0.8,
                  Pe_ack=0.001)
    code = ("from tddnc.optimizer import optimal_policy\n"
            "from tddnc.params import SystemParams, derive_timing\n"
            "s = SystemParams(**json.loads(sys.argv[1]))\n"
            "r = optimal_policy(s, derive_timing(s))\n"
            "print(json.dumps([r.policy.N, [t.hex() for t in r.profile.T],\n"
            "                  r.search_bounds_used, 'numpy' in sys.modules]))")
    N, T, bounds, numpy_loaded = _fresh(code, json.dumps(params))
    s = SystemParams(**params)
    r = optimal_policy(s, derive_timing(s))
    assert numpy_loaded and sum(c.estimated for c in r.search_counts) > 0
    assert tuple(N) == r.policy.N
    assert [float.fromhex(t) for t in T] == list(r.profile.T)
    assert tuple(bounds) == r.search_bounds_used
