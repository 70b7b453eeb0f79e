"""Seeded job generators for the four benchmark workloads.

A workload is a fixed list of strata (command, block size, a loss level, a
decade of the wait-to-packet ratio, ...), which set a job's cost. Every
call of a stratum draws a new job from it (`draw`): the continuous values
come from the seed, the stratum and the call's index, so no two calls see
the same spec, while the calls of one stratum cost about the same. A round
is one call of every stratum.

One job is one `tddnc` CLI call on one generated spec; `units` is the work
it completes: analytic parameter points on `surface` and `small-block`,
Monte-Carlo protocol runs on `sim-erasure` and `sim-rlnc`.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Job:
    spec: dict
    units: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str               # what `Job.units` counts
    strata: tuple           # one round
    make_job: Callable[[random.Random, tuple], Job]
    setup: tuple            # the stratum a fresh interpreter runs once during set-up
    threads: int            # the CLI's --threads
    trace_draws: int        # a traced run calls every stratum this many times


def _near(rng: random.Random, level: float) -> float:
    """A loss probability within 0.01 of `level`; level 0 stays exactly 0."""
    return level and level + 0.02 * (rng.random() - 0.5)


def _link(rng: random.Random, M: int, Pe: float, Pe_ack: float, decade: int) -> dict:
    """Link constants with log10(T_w/T_p) within 0.1 of decade + 0.5 (about
    2.5-4, 25-40 or 250-400).

    The policy search's length grows with that ratio and with Pe, so both
    are held near their stratum's level; the rest, which leaves the cost
    alone, is drawn freely.
    """
    n = rng.randrange(1000, 20001)
    g = rng.choice((8, 16, 32, 100))
    n_ack = rng.choice((64, 100, 200))
    R = math.exp(rng.uniform(math.log(1e5), math.log(1e7)))
    ratio = 10.0 ** (decade + 0.5 + 0.2 * (rng.random() - 0.5))
    return {"M": M, "n": n, "g": g, "h": 80, "n_ack": n_ack, "R": R,
            "T_rt": (ratio * (80 + n + g * M) - n_ack) / R, "Pe": Pe, "Pe_ack": Pe_ack}


def _spec(command: str, params: dict, **extra) -> dict:
    return {"schema_version": 1, "command": command, "params": params, **extra}


# surface: configs/throughput-surface.json, restricted to M <= 20. A stratum
# is one (M, n) cell; each call moves Pe_bit by up to 1% and the link rate
# by up to 2%, so the cell's loss rate, which sets its cost, moves little.
SURFACE_BASE = {"M": 10, "n": 10000, "g": 100, "h": 80, "n_ack": 100, "R": 1e8, "T_rt": 0.25}
SURFACE_M = (1, 5, 10, 20)
SURFACE_N = (500, 1000, 2000, 4000, 8000, 16000, 32000, 64000)


def surface_job(rng: random.Random, stratum: tuple) -> Job:
    m, n = stratum
    params = dict(SURFACE_BASE, R=SURFACE_BASE["R"] * rng.uniform(0.98, 1.02))
    return Job(_spec("sweep-joint", params, bit_channel={"Pe_bit": 1e-4 * rng.uniform(0.99, 1.01)},
                     n_grid=[n], m_grid=[m], schemes=["nc-optimal", "full-duplex"]), 1)


# small-block: every block size meets every command, every loss level and
# every wait decade over its 16 strata.
SMALL_M = (1, 2, 4, 6, 8, 10, 12, 16)
SMALL_KINDS = ("policy-a", "policy-b", "compare-eta", "compare-completion")
SMALL_PE = (0.0, 0.2, 0.45, 0.7, 0.88)


def _small_block_strata() -> tuple:
    strata = []
    for M in SMALL_M:
        for kind in SMALL_KINDS:
            for _ in range(4):
                s = len(strata)
                strata.append((M, kind, SMALL_PE[s % len(SMALL_PE)], s % 3))
    return tuple(strata)


def small_block_job(rng: random.Random, stratum: tuple) -> Job:
    M, kind, level, decade = stratum
    params = _link(rng, M, _near(rng, level), rng.uniform(0.0, 0.1), decade)
    tdd = ["nc-optimal", "full-duplex", "stop-and-wait", f"fixed-window:{rng.randint(1, M)}"]
    if kind.startswith("policy"):
        return Job(_spec("policy", params), 1)
    if kind == "compare-eta":
        window = rng.randint(1, 2 * M)
        return Job(_spec("compare", params, metric="eta",
                         schemes=tdd + [f"gbn:{window}", f"sr:{window}"]), 1)
    return Job(_spec("compare", params, metric="completion", schemes=tdd), 1)


def _simulate(rng, params, sim) -> Job:
    spec = _spec("simulate", params, policy={"type": "optimal"}, sim=sim,
                 master_seed=rng.randrange(2**32))
    return Job(spec, sim["runs"])


SIM_ERASURE_M = (2, 4, 8, 12, 16)
SIM_ERASURE_PE = (0.1, 0.35, 0.6, 0.85)
SIM_ERASURE_RUNS = 1500


def sim_erasure_job(rng: random.Random, stratum: tuple) -> Job:
    M, mode, level, decade = stratum
    params = _link(rng, M, _near(rng, level), rng.uniform(0.0, 0.1), decade)
    return _simulate(rng, params, {"mode": mode, "runs": SIM_ERASURE_RUNS})


SIM_RLNC_G = (1, 8, 16)
SIM_RLNC_M = (2, 4, 8)
SIM_RLNC_PE = (0.15, 0.35, 0.55, 0.75)
SIM_RLNC_RUNS = 40


def sim_rlnc_job(rng: random.Random, stratum: tuple) -> Job:
    g, M, level, decade = stratum
    params = dict(_link(rng, M, _near(rng, level), 0.0, decade), g=g)
    return _simulate(rng, params, {"mode": "rlnc", "runs": SIM_RLNC_RUNS, "field_g": g})


NPROC = len(os.sched_getaffinity(0))


WORKLOADS = {w.name: w for w in (
    Workload("surface", "bit-channel throughput surface; time goes to optimizer and markov, "
             "a few near-certain-loss cells dominate", unit="cells",
             strata=tuple((m, n) for m in SURFACE_M for n in SURFACE_N),
             make_job=surface_job, setup=(10, 8000), threads=1, trace_draws=1),
    Workload("small-block", "short policy/compare jobs where per-call CLI and search "
             "overhead dominate", unit="cells", strata=_small_block_strata(),
             make_job=small_block_job, setup=(10, "policy-a", 0.45, 1), threads=1,
             trace_draws=5),
    Workload("sim-erasure", "chain/physical Monte-Carlo; the per-run simulator loop and "
             "its thread pool dominate", unit="runs",
             strata=tuple((M, ("chain", "physical")[b % 2], SIM_ERASURE_PE[(a + b) % 4],
                           (a + b) % 3)
                          for a, M in enumerate(SIM_ERASURE_M) for b in range(8)),
             make_job=sim_erasure_job, setup=(8, "chain", 0.35, 1), threads=NPROC,
             trace_draws=1),
    Workload("sim-rlnc", "rlnc Monte-Carlo over GF(2), GF(2^8), GF(2^16); field arithmetic "
             "and decoding dominate", unit="runs",
             strata=tuple((g, M, SIM_RLNC_PE[(a + b + c) % 4], (a + b + c) % 3)
                          for a, g in enumerate(SIM_RLNC_G) for b, M in enumerate(SIM_RLNC_M)
                          for c in range(4)),
             make_job=sim_rlnc_job, setup=(16, 2, 0.35, 1), threads=1, trace_draws=1),
)}


def draw(workload: Workload, seed: int, stratum: int, index: int) -> Job:
    """Call `index` of stratum `stratum`; a function of the workload, seed and both indices."""
    rng = random.Random(f"{workload.name}/{seed}/{stratum}/{index}")
    return workload.make_job(rng, workload.strata[stratum])


def setup_job(workload: Workload, seed: int) -> Job:
    """The job a fresh interpreter runs in the set-up measurement."""
    return workload.make_job(random.Random(f"{workload.name}/{seed}/setup"), workload.setup)
