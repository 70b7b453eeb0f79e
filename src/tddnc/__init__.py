"""Delay-optimal random linear network coding for time-division-duplex erasure links."""

import importlib

from .markov import (
    CompletionProfile,
    Policy,
    expected_completion,
    expected_extra_receptions,
    fixed_window_completion,
    fixed_window_policy,
    full_duplex_completion,
    sw_mean_throughput,
)
from .optimizer import (
    OptimalPolicyResult,
    continuous_optimum_N1,
    eta,
    eta_gbn,
    eta_sr,
    lambert_w_minus1,
    optimal_policy,
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

__version__ = "0.1.0"

# The names of the numpy modules, imported on first access (PEP 562), so that
# `import tddnc` and the analysis above do not import numpy; `from tddnc import *`
# imports them.
_LAZY_EXPORTS = {
    "rlnc": ("Decoder", "GaloisField", "encode"),
    "simulator": ("SimConfig", "SimResult", "histogram", "run_records", "simulate", "summarize"),
}


__all__ = [
    "BitChannel", "CompletionProfile", "OptimalPolicyResult", "Policy", "SystemParams", "Timing",
    "continuous_optimum_N1", "derive_timing", "erasures_from_bit_channel", "eta", "eta_gbn",
    "eta_sr", "expected_completion", "expected_extra_receptions", "fixed_window_completion",
    "fixed_window_policy", "full_duplex_completion", "lambert_w_minus1", "optimal_policy",
    "packet_erasure", "sw_mean_throughput", "with_bit_channel",
    *(name for names in _LAZY_EXPORTS.values() for name in names),
]


def __getattr__(name):
    for module, names in _LAZY_EXPORTS.items():
        if name in names:
            value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
