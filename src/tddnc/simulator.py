"""Monte-Carlo execution of the burst/listen protocol under packet and ACK erasures.

All three fidelity modes share one round loop: send a burst sized for the
transmitter's belief, then wait for an ACK; a heard ACK sets the belief to
the receiver's deficit.  The modes differ only in the receiver step:

chain     the burst's arrivals cut the deficit, but only when the ACK is
          heard: a lost ACK forfeits the round's progress, replicating the
          analytic chain's self-transition exactly;
physical  the same arrivals, kept at once; the transmitter retransmits for
          its stale belief until an ACK gets through;
rlnc      kept at once, but an arrival only counts when its random encoding
          vector raises the rank of those received, so linear-dependence
          losses are included.  Only the rank is tracked: the block is
          decodable exactly when the coefficient rows reach rank M, so the
          decoder gets coefficient vectors with no payload, and no block is
          generated or encoded.

Runs execute one after another.  Every run draws its randomness from a
substream keyed by (master_seed, run_index) only, so a run's result does not
depend on the runs before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .markov import Policy
from .params import SystemParams, Timing
from .rlnc import CodedPacket, Decoder, GaloisField
from .rlnc import encode  # noqa: F401  (bench/tracing.py wraps tddnc.simulator.encode)

MODES = ("chain", "physical", "rlnc")
_NO_PAYLOAD = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class SimConfig:
    mode: str = "chain"
    runs: int = 10000
    master_seed: int = 0
    field: GaloisField | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be an unsigned 64-bit integer")
        if self.mode == "rlnc" and self.field is None:
            raise ValueError("rlnc mode requires a field")


@dataclass(frozen=True)
class SimResult:
    """Completion statistics over all runs; histogram buckets are T_p wide."""

    mean_completion: float
    stderr: float
    histogram: tuple[tuple[int, int], ...]
    bucket_width: float
    mean_packets_sent: float
    mean_stops: float
    runs: int


def _rng_for_run(master_seed: int, run_index: int) -> np.random.Generator:
    return np.random.default_rng([master_seed, run_index])


def _run(policy, Pe, Pe_ack, T_p, T_w, rng, decoder, keep_progress):
    """One transfer: (completion seconds, packets sent, stops)."""
    M, N = policy.M, policy.N
    deficit = belief = M   # receiver truth; transmitter view from the last heard ACK
    elapsed = 0.0
    sent = stops = 0
    while True:
        n = N[belief - 1]
        elapsed += n * T_p + T_w
        sent += n
        stops += 1
        if decoder is None:
            after = max(deficit - int(rng.binomial(n, 1.0 - Pe)), 0)
        else:
            count = int((rng.random(n) >= Pe).sum())
            if count:
                # drawn even at full rank, so every run's draw sequence stays fixed
                for row in rng.integers(0, decoder.field.q, size=(count, M), dtype=np.int64):
                    if decoder.rank == M:
                        break
                    decoder.absorb(CodedPacket(row, _NO_PAYLOAD))
            after = M - decoder.rank
        if keep_progress:   # physical, rlnc: arrivals count before the ACK is heard
            deficit = after
        if rng.random() >= Pe_ack:
            deficit = belief = after
            if after == 0:
                return elapsed, sent, stops


def run_records(
    policy: Policy,
    sys: SystemParams,
    timing: Timing,
    cfg: SimConfig,
) -> np.ndarray:
    """Per-run records, shape (runs, 3): completion seconds, packets sent, stops."""
    if policy.M != sys.M:
        raise ValueError("policy length must equal the block size M")
    Pe, Pa, T_p, T_w = sys.Pe, sys.Pe_ack, timing.T_p, timing.T_w
    keep = cfg.mode != "chain"
    records = []
    for r in range(cfg.runs):
        decoder = Decoder(cfg.field, sys.M, 0) if cfg.mode == "rlnc" else None
        records.append(_run(policy, Pe, Pa, T_p, T_w, _rng_for_run(cfg.master_seed, r), decoder, keep))
    return np.asarray(records, dtype=np.float64)


def summarize(records: np.ndarray, timing: Timing) -> SimResult:
    """Mean, standard error, T_p-wide histogram, and packet/stop averages."""
    records = np.asarray(records, dtype=np.float64)
    if records.ndim != 2 or records.shape[0] < 1 or records.shape[1] != 3:
        raise ValueError("records must be a non-empty (runs, 3) array")
    times = records[:, 0]
    runs = records.shape[0]
    stderr = float(np.std(times, ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0
    buckets = np.floor(times / timing.T_p).astype(np.int64)
    values, counts = np.unique(buckets, return_counts=True)
    return SimResult(
        mean_completion=float(times.mean()),
        stderr=stderr,
        histogram=tuple((int(v), int(c)) for v, c in zip(values, counts)),
        bucket_width=timing.T_p,
        mean_packets_sent=float(records[:, 1].mean()),
        mean_stops=float(records[:, 2].mean()),
        runs=runs,
    )


def simulate(
    policy: Policy,
    sys: SystemParams,
    timing: Timing,
    cfg: SimConfig,
) -> SimResult:
    """Run the protocol cfg.runs times and summarize completion statistics."""
    return summarize(run_records(policy, sys, timing, cfg), timing)
