"""Delay-optimal random linear network coding for time-division-duplex erasure links."""

from .markov import (
    CompletionProfile,
    Policy,
    expected_completion,
    expected_extra_receptions,
    fixed_window_completion,
    fixed_window_policy,
    full_duplex_completion,
    sw_mean_throughput,
    transition_prob,
)
from .optimizer import (
    OptimalPolicyResult,
    ThroughputPoint,
    continuous_optimum_N1,
    eta,
    eta_gbn,
    eta_sr,
    lambert_w_minus1,
    optimal_policy,
    optimize_joint,
)
from .params import (
    BitChannel,
    SystemParams,
    Timing,
    derive_timing,
    erasures_from_bit_channel,
    packet_erasure,
    with_bit_channel,
)
from .rlnc import Decoder, GaloisField, encode
from .simulator import SimConfig, SimResult, run_records, simulate, summarize

__version__ = "0.1.0"
