"""Every shipped config, run through the CLI, gives the CSV it gave before.

The hashes pin the exact bytes: a change that is meant to keep results
(a faster search, a simpler recursion) must leave them alone, and a change
that alters a documented output updates them and says why.
"""

import hashlib
from pathlib import Path

import pytest

from tddnc.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

CSV_SHA256 = {
    "arq-compare.json": "609299b3f12e0214efc5ca91c6d07d9b36d75ad441675cda818ba60344a61aae",
    "satellite-sweep.json": "438c0d1e78d4577da9fb2722fbbf3a04e516d1ef54ee36f70376f853ebc112cb",
    "simulate-chain.json": "2ce8e690421c8262f5e679e5214bbf0f3a947cf45dbeb177213a8b252cc2c4e3",
    "throughput-surface.json": "50df48c7af5b3570a6a00473e0b27599a033149733b2d14e1aca612da2d62087",
}


def test_every_config_is_pinned():
    assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(CSV_SHA256)


@pytest.mark.parametrize("name", sorted(CSV_SHA256))
def test_config_csv_is_byte_identical(tmp_path, name):
    out = tmp_path / "out.csv"
    assert main(["--config", str(CONFIGS / name), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_SHA256[name]
