"""Benchmark of the tddnc command line, one workload per process.

    python3 bench/run.py --workload small-block --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45 --trace 1

One job is one in-process `tddnc.cli.main(["--config", spec, "--out", csv,
"--threads", k])` call on a spec generated from the seed (see
workloads.py). A single client submits each job only after the previous
one has finished (a closed loop), as a script sweeping parameters does.
Every job's output is checked (check.py) right after it returns, outside
the timed region.

--trace 0 repeats the workload's round of strata until --seconds of wall
time have gone (and at least MIN_ROUNDS rounds) and reports the end-to-end
metrics, taking the lower quartile of a stratum's calls as its latency;
every call draws a new job from its stratum. Between rounds it times fresh
interpreters that import tddnc.cli and run one job (setup_s). --trace 1
runs a fixed set of draws untraced and another traced (tracing.py) and
reports the per-layer metrics, so their counts repeat exactly for a seed. The last line of
stdout is the result object; the full run record goes to .bench_out/ in
the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

from check import check_output  # noqa: E402
from workloads import WORKLOADS, draw, setup_job  # noqa: E402

SETUP_LAUNCHES = 11
# the tail is the highest percentile with at least this many jobs beyond it
TAIL_JOBS = 10
# an end-to-end run always completes this many rounds
MIN_ROUNDS = 3
MAX_REPORTED = 20


def fresh_interpreter(argv) -> int:
    """The tddnc command line in a new interpreter, as a user starts it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = "import sys, tddnc.cli; sys.exit(tddnc.cli.main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-s", "-c", script, *argv], env=env,
                          cwd=ROOT, stdout=subprocess.DEVNULL).returncode


class Runner:
    """Runs jobs one after another and tallies latency, work and failures."""

    def __init__(self, workdir: Path, threads: int, cli_main):
        self.cli_main = cli_main
        self.spec_path = workdir / "spec.json"
        self.out_path = workdir / "out.csv"
        self.threads = threads
        self.busy_s = 0.0      # total latency of timed jobs
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []   # the first MAX_REPORTED failures

    def run(self, job, tracer=None, timed=True, cli_main=None) -> float:
        """Run and check one job; returns its latency in seconds. Only timed
        jobs count in busy_s and units."""
        cli_main = cli_main or self.cli_main
        self.spec_path.write_text(json.dumps(job.spec))
        self.out_path.unlink(missing_ok=True)
        argv = ["--config", str(self.spec_path), "--out", str(self.out_path),
                "--threads", str(self.threads)]
        self.attempted += 1
        error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = cli_main(argv)
            else:
                code = tracer.run_job(lambda: cli_main(argv))
        except (Exception, SystemExit) as err:
            code, error = None, f"raised {err!r}"
        elapsed = time.perf_counter() - t0
        if timed:
            self.busy_s += elapsed
        if error is None and code != 0:
            error = f"exit code {code}"
        if error is None:
            try:
                check_output(job.spec, self.out_path.read_text())
            except Exception as err:  # any malformed output is a failed job, not a crash
                error = f"{type(err).__name__}: {err}"
        if error is None:
            if timed:
                self.units += job.units
        else:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED:
                self.failures.append(f"{job.spec['command']}: {error}")
        return elapsed


def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return None
    return top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tddnc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def end_to_end(workload, seed: int, seconds: float, runner: Runner) -> tuple[dict, dict]:
    """Repeat the workload's round, one call of every stratum, until
    `seconds` have gone (at least MIN_ROUNDS rounds, and only whole rounds);
    a stratum's latency is the lower quartile of its calls. Other tenants
    of a shared machine slow it for minutes at a time, yet leave calm
    spells within a run; the lower quartile follows those and, unlike the
    fastest call, is not set by a single lucky one. Every call draws a new
    job. Throughput over every call goes to the record.

    setup_s is the median of SETUP_LAUNCHES fresh interpreters that each
    import tddnc.cli and run one job, so that work done once per process
    (imports, tables built on first use) counts there. The launches are
    spread evenly through the run, between rounds, so that they meet the
    same spells of load as the jobs; their time does not count toward
    `seconds`."""
    strata = workload.strata
    times = [[] for _ in strata]   # every call's latency, per stratum
    launches = []                  # set-up times
    setup = setup_job(workload, seed)
    rounds = 0
    start = time.perf_counter()

    def elapsed():
        return time.perf_counter() - start - sum(launches)

    while rounds < MIN_ROUNDS or elapsed() < seconds:
        for k in range(len(strata)):
            times[k].append(runner.run(draw(workload, seed, k, rounds)))
        rounds += 1
        # once `seconds` have gone every launch is due, so all are made
        while (len(launches) < SETUP_LAUNCHES
               and elapsed() >= len(launches) * seconds / SETUP_LAUNCHES):
            launches.append(runner.run(setup, cli_main=fresh_interpreter, timed=False))
        if rounds == 1:
            # every stratum has run once: later rounds repeat the same kind of
            # work, and their number varies with speed, so the high-water mark
            # is read here
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stratum_ms = [1e3 * statistics.quantiles(t, n=4)[0] for t in times]
    # the highest whole percentile with TAIL_JOBS strata beyond it
    pct = math.floor(100.0 * (1.0 - TAIL_JOBS / len(strata)))
    job_tail = statistics.quantiles(stratum_ms, n=100, method="inclusive")[pct - 1]
    # a round's work is one job per stratum; a stratum's jobs all do the same units
    work = 1e3 * sum(draw(workload, seed, k, 0).units for k in range(len(strata))) / sum(stratum_ms)
    metrics = {
        "job_ms_p50": (statistics.median(stratum_ms), "ms"),
        "job_ms_tail": (job_tail, "ms"),
        "work_per_s": (work, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(launches), "s"),
    }
    detail = {
        "strata": len(strata),
        "rounds": rounds,
        "job_ms_tail_percentile": pct,
        "strata_beyond_tail": sum(1 for v in stratum_ms if v > job_tail),
        "cells_per_s" if workload.unit == "cells" else "sim_runs_per_s": work,
        "every_call_work_per_s": runner.units / runner.busy_s,
        "loop_wall_s": time.perf_counter() - start,
    }
    return metrics, detail


def traced(workload, seed: int, runner: Runner) -> tuple[dict, dict]:
    """Run trace_draws calls of every stratum untraced, then as many further
    calls traced; the two sets are drawn alike, so their times compare."""
    from tracing import Tracer

    n = workload.trace_draws
    strata = range(len(workload.strata))
    runner.run(setup_job(workload, seed), timed=False)  # warm-up: first-call costs stay out
    for k in range(n):
        for s in strata:
            runner.run(draw(workload, seed, s, k))
    plain = runner.busy_s
    tracer = Tracer()
    tracer.install()
    try:
        for k in range(n, 2 * n):
            for s in strata:
                runner.run(draw(workload, seed, s, k), tracer=tracer)
    finally:
        tracer.uninstall()
    with_spans = runner.busy_s - plain
    jobs = n * len(strata)
    metrics = tracer.layer_metrics(jobs)
    metrics["trace_overhead_ratio"] = (with_spans / plain, "ratio")
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload.name}-seed{seed}.npz"
    tracer.write(span_file)
    detail = {"trace_draws": n, "traced_jobs": jobs,
              "untraced_s": plain, "traced_s": with_spans, "spans": len(tracer.spans),
              "span_file": str(span_file.relative_to(ROOT))}
    return metrics, detail


def run_one(args) -> int:
    import numpy

    import tddnc.cli

    if Path(tddnc.cli.__file__).resolve().parent != SRC / "tddnc":
        print(f"error: imported tddnc from {tddnc.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    threads = workload.threads
    load_start = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(workdir, threads, tddnc.cli.main)
        if args.trace:
            metrics, detail = traced(workload, args.seed, runner)
        else:
            metrics, detail = end_to_end(workload, args.seed, args.seconds, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = runner.failed
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "threads": threads,
        "git_sha": git_sha(), "src_digest": src_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "attempted": runner.attempted, "failed": failed,
        "fail_ratio": failed / runner.attempted,
        "work_unit": workload.unit,
        **detail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": runner.failures,
    }
    (OUT / f"record-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{workload.name}  seed={args.seed}  jobs={runner.attempted}  failed={failed}  "
          f"fail_ratio={record['fail_ratio']:.4g}  threads={threads}")
    for key, value in detail.items():
        print(f"  {key:<40} {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:<14.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tddnc" / "cli.py").is_file():
        print(f"error: no tddnc sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_one(args)
    worst = 0
    for name in WORKLOADS:
        # one process per workload, so peak RSS is that workload's own
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        worst = max(worst, done.returncode)
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
