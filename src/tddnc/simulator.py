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

Runs execute one after another.  Run r draws from PCG64 seeded by
SeedSequence([master_seed, r]): the stream np.random.default_rng([master_seed,
r]) gives, so a run's result does not depend on the runs before it.  The
seed states are computed in bulk, a chunk of runs per vectorized pass of
numpy's SeedSequence mixer, which costs far less than hashing each run's
entropy through a SeedSequence object.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .markov import Policy
from .params import SystemParams, Timing, as_int
from .rlnc import Decoder, GaloisField
from .rlnc import encode  # noqa: F401  (bench/tracing.py wraps tddnc.simulator.encode)

MODES = ("chain", "physical", "rlnc")

# numpy's SeedSequence: a pool of four uint32 words and its hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# runs whose seed states are computed in one pass; bounds the memory they take
_CHUNK = 4096


@dataclass(frozen=True)
class SimConfig:
    mode: str = "chain"
    runs: int = 10000
    master_seed: int = 0
    field: GaloisField | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        object.__setattr__(self, "runs", as_int(self.runs, "runs"))
        object.__setattr__(self, "master_seed", as_int(self.master_seed, "master_seed"))
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


def _seed_states(master_seed: int, start: int, count: int) -> np.ndarray:
    """SeedSequence([master_seed, r]).generate_state(4, np.uint64) for the
    runs r = start .. start + count - 1, one row each, shape (count, 4).

    SeedSequence splits each integer of its entropy into little-endian
    32-bit words (0 is one word), hashes them into the pool, and hashes 0
    into the pool words past the end of the entropy.  So r can always enter
    as two words: a high word of 0 mixes as the padding would.  The hash
    constants advance the same way for every run, so each step below acts on
    the column of all runs at once; uint32 arrays wrap as numpy's C code does.
    """
    seed_words = []
    while True:
        seed_words.append(master_seed & _MASK32)
        master_seed >>= 32
        if not master_seed:
            break
    runs = np.arange(start, start + count, dtype=np.uint64)
    entropy = [np.full(count, w, dtype=np.uint32) for w in seed_words]
    entropy += [(runs & _MASK32).astype(np.uint32), (runs >> 32).astype(np.uint32)]
    entropy += [np.zeros(count, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    pool = [hashmix(w) for w in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> _XSHIFT)

    state = np.empty((count, 8), dtype=np.uint64)
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state[:, i] = value ^ (value >> _XSHIFT)
    # uint64 word k is uint32 words 2k (low half) and 2k + 1
    return state[:, 0::2] | state[:, 1::2] << 32


@functools.cache
def _seed_state_type() -> type:
    """The ISeedSequence whose instances hand PCG64 one run's precomputed state.

    Built on first use: numpy imports numpy.random lazily, and a command
    that never simulates should not load it.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state   # PCG64 asks for exactly (4, np.uint64)

    return SeedState


def _run(policy, Pe, Pe_ack, T_p, T_w, rng, decoder, keep_progress):
    """One transfer: (completion seconds, packets sent, stops)."""
    M, N = policy.M, policy.N
    if decoder is not None:
        q, reduce_row, rank = decoder.field.q, decoder.reduce_row, decoder.rank
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
            count = np.count_nonzero(rng.random(n) >= Pe)
            if count:
                # drawn even at full rank, so every run's draw sequence stays fixed;
                # the rows lie in [0, q), so they skip absorb's checks
                for row in rng.integers(0, q, size=(count, M), dtype=np.int64).tolist():
                    if rank == M:
                        break
                    rank += reduce_row(row)
            after = M - rank
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
    seed_state = _seed_state_type()
    records = np.empty((cfg.runs, 3), dtype=np.float64)
    for start in range(0, cfg.runs, _CHUNK):
        states = _seed_states(cfg.master_seed, start, min(_CHUNK, cfg.runs - start))
        for r, state in enumerate(states, start):
            rng = np.random.Generator(np.random.PCG64(seed_state(state)))
            decoder = Decoder(cfg.field, sys.M, 0) if cfg.mode == "rlnc" else None
            records[r] = _run(policy, Pe, Pa, T_p, T_w, rng, decoder, keep)
    return records


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
