"""Monte-Carlo execution of the burst/listen protocol under packet and ACK erasures.

One round loop advances every run at once.  A round sends each unfinished
run a burst sized for its transmitter's belief b, then waits for an ACK; a
heard ACK sets the belief to the receiver's deficit.  A burst's arrivals are
drawn from Binomial(N_b, 1 - Pe) by inverse CDF, searched in a table of
P(K <= k) up to the most arrivals any run can use (`_arrival_cdf`).  The
receiver counts the arrivals credited to it, and its deficit is M less the
number of rank thresholds that count has reached.  The modes differ only in
the receiver step:

chain     thresholds 1..M, and a burst's arrivals are credited only when its
          ACK is heard: a lost ACK forfeits the round's progress, replicating
          the analytic chain's self-transition exactly;
physical  thresholds 1..M, credited at once; the transmitter retransmits for
          its stale belief until an ACK gets through;
rlnc      credited at once, but an arrival only counts when its random
          encoding vector raises the rank of those received, so
          linear-dependence losses are included.  A uniform vector over
          GF(q)^M raises a deficit-d rank with probability 1 - q^-d, so the
          arrivals between rank steps are geometric waits, and each run's M
          thresholds are drawn before the first round (`_rank_thresholds`).
          Only the rank is modelled: no block, coefficient row or payload is
          generated, encoded or decoded.

Randomness: one generator, np.random.default_rng(master_seed), per call.  The
rlnc thresholds come first, as one (runs, M) block.  Then each round draws
one uniform per run for the burst and one for the ACK, finished runs
included, so run r's round-k uniforms are the same in every mode and chain
and physical stay coupled run for run.  A run's record depends on
(master_seed, runs), not on (master_seed, r) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .markov import Policy, _arrival_chances
from .params import SystemParams, Timing, as_int
from .rlnc import encode  # noqa: F401  (bench/tracing.py wraps tddnc.simulator.encode)

MODES = ("chain", "physical", "rlnc")


@dataclass(frozen=True)
class SimConfig:
    """Mode, runs and seed; rlnc needs only the width g of its GF(2^g), chain and physical none."""

    mode: str = "chain"
    runs: int = 10000
    master_seed: int = 0
    field_g: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        object.__setattr__(self, "runs", as_int(self.runs, "runs"))
        object.__setattr__(self, "master_seed", as_int(self.master_seed, "master_seed"))
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be an unsigned 64-bit integer")
        if self.mode == "rlnc":
            if self.field_g is None:
                raise ValueError("rlnc mode requires field_g")
            object.__setattr__(self, "field_g", as_int(self.field_g, "field_g"))
            if self.field_g < 1:
                raise ValueError("field_g must be >= 1")


@dataclass(frozen=True)
class SimResult:
    """Completion statistics over all runs: what a `simulate` row reports."""

    mean_completion: float
    stderr: float
    mean_packets_sent: float
    mean_stops: float
    runs: int


def _arrival_cdf(N, Pe: float, most: int) -> np.ndarray:
    """The CDF of one burst's arrivals, one row per burst size, shape (len(N), most).

    Row s holds P(K <= k) for k < c, where K ~ Binomial(N[s], 1 - Pe) and
    c = min(N[s], most), and inf from c on, so an inverse-CDF draw never
    exceeds c: no run can use more than `most` arrivals, and the table
    stays small for any burst size.  N is in ascending order.

    The pmf is the chain kernel's, `markov._arrival_chances`, for all sizes
    at once, and each row its cumulative sum.
    """
    N = np.asarray(N, dtype=np.float64)
    pmf = _arrival_chances(N, Pe**N, most, Pe)
    cdf = np.ascontiguousarray(np.cumsum(pmf, axis=0, out=pmf).T)
    cdf[np.arange(most) >= N[:, None]] = np.inf   # k < most, so this is k >= min(N, most)
    return cdf


def _rank_thresholds(rng, runs: int, M: int, g: int) -> np.ndarray:
    """Arrivals each run needs to reach rank 1..M over GF(2^g), float64, shape (runs, M).

    At deficit d a uniform coding vector raises the rank with probability
    1 - 2^(-g d), so each rank step waits a geometric number of arrivals,
    1 + floor(ln u / (-d g ln 2)) with u uniform in (0, 1], for d = M..1.
    """
    waits = rng.random((runs, M))   # in place: at 10^4 runs and M = 500 a copy is 40 MB
    np.log(np.subtract(1.0, waits, out=waits), out=waits)
    waits /= -g * math.log(2.0) * np.arange(M, 0, -1)
    np.floor(waits, out=waits)
    waits += 1.0
    return np.cumsum(waits, axis=1, out=waits)


def run_records(
    policy: Policy,
    sys: SystemParams,
    timing: Timing,
    cfg: SimConfig,
) -> np.ndarray:
    """Per-run records, shape (runs, 3): completion seconds, packets sent, stops."""
    if policy.M != sys.M:
        raise ValueError("policy length must equal the block size M")
    M, runs, Pa = sys.M, cfg.runs, sys.Pe_ack
    rng = np.random.default_rng(cfg.master_seed)
    thresholds, most = None, M
    if cfg.mode == "rlnc":
        thresholds = _rank_thresholds(rng, runs, M, cfg.field_g)
        most = int(thresholds[:, -1].max())
    sizes = sorted(set(policy.N))
    size_of = np.array([0, *map({n: s for s, n in enumerate(sizes)}.__getitem__, policy.N)])
    n = np.array(sizes, dtype=np.float64)
    cost = np.array((n * timing.T_p + timing.T_w, n, np.ones_like(n)))   # a round's record by size
    cdf = _arrival_cdf(n, sys.Pe, most)
    records = np.empty((runs, 3))
    # the unfinished runs' state, compacted as runs finish: run, belief and credited
    # arrivals; their records so far in float64 (an int64 count wraps past 2^63)
    state = np.zeros((3, runs), dtype=np.int64)
    state[0], state[1] = np.arange(runs), M
    spent = np.zeros((3, runs))
    while state.shape[1]:
        run, belief, credited = state
        burst, ack = rng.random((2, runs)).take(run, axis=1)
        size = size_of[belief]   # row 0 pads belief 0, which no live run holds
        spent += cost.take(size, axis=1)
        first, *rest = np.bincount(size).nonzero()[0].tolist()
        arrivals = cdf[first].searchsorted(burst, side="right")   # then the other sizes' runs
        for s in rest:
            mine = size == s
            arrivals[mine] = cdf[s].searchsorted(burst[mine], side="right")
        heard = ack >= Pa
        if cfg.mode == "chain":   # a burst is credited only when its ACK is heard
            arrivals[~heard] = 0
        credited += arrivals
        if thresholds is None:
            deficit = np.maximum(M - credited, 0)
        else:
            deficit = (thresholds > credited[:, None]).sum(axis=1)   # the ranks not yet reached
        np.copyto(belief, deficit, where=heard)
        done = belief == 0
        if done.any():
            records[run[done]] = spent.compress(done, axis=1).T
            left = ~done
            state, spent = state.compress(left, axis=1), spent.compress(left, axis=1)
            if thresholds is not None:
                thresholds = thresholds.compress(left, axis=0)
    return records


def summarize(records: np.ndarray, timing: Timing) -> SimResult:
    """Mean and standard error of the completion time, and mean packets and stops.

    The standard error repeats np.std(ddof=1)'s steps from the one mean, so
    its bits are np.std's.  `timing` is not read.
    """
    records = np.asarray(records, dtype=np.float64)
    if records.ndim != 2 or records.shape[0] < 1 or records.shape[1] != 3:
        raise ValueError("records must be a non-empty (runs, 3) array")
    times, runs = records[:, 0], records.shape[0]
    mean = times.sum() / runs
    var = np.square(times - mean).sum() / (runs - 1) if runs > 1 else 0.0
    return SimResult(float(mean), float(np.sqrt(var) / math.sqrt(runs)),
                     float(records[:, 1].sum() / runs), float(records[:, 2].sum() / runs), runs)


def histogram(records: np.ndarray, timing: Timing) -> tuple[tuple[int, int], ...]:
    """(k, runs) for each k with runs completing in [k T_p, (k + 1) T_p), in increasing k."""
    # floor stays float: int64 would wrap past 2^63, int() does not
    buckets = np.floor(np.asarray(records, dtype=np.float64)[:, 0] / timing.T_p)
    return tuple((int(v), int(c)) for v, c in zip(*np.unique(buckets, return_counts=True)))


def simulate(
    policy: Policy,
    sys: SystemParams,
    timing: Timing,
    cfg: SimConfig,
) -> SimResult:
    """Run the protocol cfg.runs times and summarize completion statistics."""
    return summarize(run_records(policy, sys, timing, cfg), timing)
