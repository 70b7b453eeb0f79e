"""Self-test of the benchmark's output check: a wrong answer must count as a failed job.

    python3 bench/selftest.py

Runs a small policy job and a small chain simulation through the same
Runner the benchmark uses, once as produced and once with one output value
perturbed: a T_i moved by one part in 1e5, and a simulated mean moved by
ten standard errors. Exits 0 when the honest jobs pass and each perturbed
job raises fail_ratio.
"""

from __future__ import annotations

import csv
import io
import shutil
import sys
from pathlib import Path

from run import OUT, Runner
from workloads import Job

PARAMS = {"M": 6, "n": 8000, "g": 8, "h": 80, "n_ack": 100, "R": 1e6, "T_rt": 0.05,
          "Pe": 0.4, "Pe_ack": 0.05}
POLICY = Job({"schema_version": 1, "command": "policy", "params": PARAMS}, 1)
SIMULATE = Job({"schema_version": 1, "command": "simulate", "params": PARAMS,
                "policy": {"type": "optimal"}, "sim": {"mode": "chain", "runs": 400},
                "master_seed": 7}, 400)


def perturb(text: str, metric: str, change) -> str:
    """`text` with the first `metric` row's value replaced by change(value, rows)."""
    rows = list(csv.DictReader(io.StringIO(text)))
    row = next(r for r in rows if r["metric"] == metric)
    row["value"] = format(change(float(row["value"]), rows), ".8e")
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def shift_by_stderr(value: float, rows) -> float:
    stderr = next(float(r["value"]) for r in rows if r["metric"] == "sim_stderr_seconds")
    return value + 10.0 * stderr


def fail_ratio(job: Job, workdir: Path, tamper=None) -> float:
    """fail_ratio of one job; `tamper` rewrites its CSV between the CLI and the check."""
    import tddnc.cli

    def cli_main(argv):
        code = tddnc.cli.main(argv)
        if tamper is not None:
            runner.out_path.write_text(tamper(runner.out_path.read_text()))
        return code

    runner = Runner(workdir, 1, cli_main)
    runner.run(job)
    return runner.failed / runner.attempted


def main() -> int:
    OUT.mkdir(exist_ok=True)
    workdir = OUT / "selftest"
    workdir.mkdir(exist_ok=True)
    cases = [
        ("policy as produced", POLICY, None, False),
        ("policy with T_1 * (1 + 1e-5)", POLICY,
         lambda t: perturb(t, "T_i_seconds", lambda v, _: v * (1 + 1e-5)), True),
        ("chain simulation as produced", SIMULATE, None, False),
        ("chain simulation with mean + 10 stderr", SIMULATE,
         lambda t: perturb(t, "sim_mean_seconds", shift_by_stderr), True),
    ]
    ok = True
    try:
        for label, job, tamper, should_fail in cases:
            ratio = fail_ratio(job, workdir, tamper)
            good = (ratio > 0) == should_fail
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {label}: fail_ratio={ratio}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
