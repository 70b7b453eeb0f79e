"""Every shipped config, run through the CLI, gives the CSV and JSON it gave before.

The hashes pin the exact bytes: a change that is meant to keep results
(a faster search, a simpler recursion) must leave them alone, and a change
that alters a documented output updates them and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tddnc.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

CSV_SHA256 = {
    "arq-compare.json": "609299b3f12e0214efc5ca91c6d07d9b36d75ad441675cda818ba60344a61aae",
    "satellite-sweep.json": "438c0d1e78d4577da9fb2722fbbf3a04e516d1ef54ee36f70376f853ebc112cb",
    "simulate-chain.json": "b3f14354edfeabec645c5f054cfc248deeb59270b5141e7ecfc04ef1babb73b1",
    "throughput-surface.json": "50df48c7af5b3570a6a00473e0b27599a033149733b2d14e1aca612da2d62087",
}

JSON_SHA256 = {
    "arq-compare.json": "1237e49006d5ee37d86e0219300892a50c2b796f43f0a8863b15dc2013bd9b59",
    "satellite-sweep.json": "33e91f720b2fbbbf3923fff0dc48c594e0c6b60a53fa48bbe502fdcda91431bf",
    "simulate-chain.json": "af2d337e6ae3d81ec219ea48fbea55018f93fd5b29a8484f042d068c3d8adf30",
    "throughput-surface.json": "729cd6985b5c558e3be64af590f697efacd857dfd45d5adf6f87e1cbb600ed7e",
}

# The README's example link run through the `policy` command: the only pin of
# the `state` column and of the N_i / T_i_seconds / search_bound rows.
POLICY_SPEC = {
    "schema_version": 1, "command": "policy",
    "params": {"M": 10, "n": 10000, "g": 100, "h": 80, "n_ack": 100,
               "R": 1.5e6, "T_rt": 0.25, "Pe": 0.8, "Pe_ack": 0.001},
}
POLICY_CSV_SHA256 = "f4dd472dbc93e3d616973071bfcd567c47651366b4f6837e89fb13f4e2b0bf24"


def test_every_config_is_pinned():
    names = sorted(p.name for p in CONFIGS.glob("*.json"))
    assert names == sorted(CSV_SHA256) == sorted(JSON_SHA256)


# CSV cases keep the bare config name as their id; JSON cases add "-json"
PINS = ([pytest.param(name, "csv", CSV_SHA256[name], id=name) for name in sorted(CSV_SHA256)]
        + [pytest.param(name, "json", JSON_SHA256[name], id=f"{name}-json")
           for name in sorted(JSON_SHA256)])


@pytest.mark.parametrize("name, fmt, sha256", PINS)
def test_config_csv_is_byte_identical(tmp_path, name, fmt, sha256):
    out = tmp_path / "out"
    assert main(["--config", str(CONFIGS / name), "--out", str(out), "--format", fmt]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_policy_csv_is_byte_identical(tmp_path):
    spec, out = tmp_path / "spec.json", tmp_path / "out.csv"
    spec.write_text(json.dumps(POLICY_SPEC))
    assert main(["--config", str(spec), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == POLICY_CSV_SHA256
