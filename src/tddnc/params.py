"""Link, packet, and timing constants for coded transmission over a TDD erasure channel."""

from __future__ import annotations

import math
import operator
import sys as _sys
from dataclasses import dataclass, replace


INT_BOUND = 2**53   # integers a float holds exactly


def as_int(value, name: str) -> int:
    """`value` as an int; a bool, float, string or other non-integer raises TypeError."""
    if type(value) is int:   # the common case; a bool or numpy integer takes the checks below
        return value
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}")
    return operator.index(value)


def _reject_bool(obj, *names: str) -> None:
    """Raise TypeError if a named real field of `obj` is a bool, which would pass as 0 or 1.

    A numpy bool can exist only once numpy is imported, so this imports no numpy.
    """
    np = _sys.modules.get("numpy")
    bools = (bool, np.bool_) if np else bool
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bools):
            raise TypeError(f"{name} must be a real number, not {type(value).__name__}")


@dataclass(frozen=True)
class SystemParams:
    """All physical and protocol constants of one block transfer.

    M       data packets per block
    n       payload bits per data packet
    g       bits per encoding coefficient (field size q = 2**g)
    h       header bits per coded packet
    n_ack   ACK packet size in bits
    R       link data rate in bits/second
    T_rt    round-trip time in seconds
    Pe      erasure probability of a coded packet
    Pe_ack  erasure probability of an ACK packet

    Pe = 1 or Pe_ack = 1 is rejected outright: every completion-time
    formula downstream divides by (1 - Pe**N) or (1 - Pe_ack).
    """

    M: int
    n: int
    g: int
    h: int
    n_ack: int
    R: float
    T_rt: float = 0.0
    Pe: float = 0.0
    Pe_ack: float = 0.0

    def __post_init__(self):
        for name in ("M", "n", "g", "h", "n_ack"):
            as_int(getattr(self, name), name)
        _reject_bool(self, "R", "T_rt", "Pe", "Pe_ack")
        if self.M < 1:
            raise ValueError("M must be a positive integer")
        if self.n < 1:
            raise ValueError("n must be a positive number of bits")
        if self.g < 1:
            raise ValueError("g must be a positive number of bits")
        if self.h < 0:
            raise ValueError("h must be non-negative")
        if self.n_ack < 1:
            raise ValueError("n_ack must be a positive number of bits")
        if not 0 < self.R < math.inf:
            raise ValueError("R must be a positive finite rate")
        if not 0 <= self.T_rt < math.inf:
            raise ValueError("T_rt must be non-negative and finite")
        if not 0.0 <= self.Pe < 1.0:
            raise ValueError("Pe must lie in [0, 1)")
        if not 0.0 <= self.Pe_ack < 1.0:
            raise ValueError("Pe_ack must lie in [0, 1)")

    @property
    def packet_bits(self) -> int:
        """Total bits in one coded packet: header + payload + M coefficients of g bits."""
        return self.h + self.n + self.g * self.M

    @property
    def q(self) -> int:
        return 1 << self.g


@dataclass(frozen=True)
class Timing:
    """Derived transmission times, all in seconds.

    T_p > 0, and T_ack, T_w >= 0: a negative round cost would void the
    policy search's stopping bound.  NaN fails every check.
    """

    T_p: float
    T_ack: float
    T_w: float

    def __post_init__(self):
        _reject_bool(self, "T_p", "T_ack", "T_w")
        if not self.T_p > 0:
            raise ValueError("T_p must be positive")
        if not self.T_ack >= 0:
            raise ValueError("T_ack must be non-negative")
        if not self.T_w >= 0:
            raise ValueError("T_w must be non-negative")


@dataclass(frozen=True)
class BitChannel:
    """Symmetric channel with independent bit errors of probability Pe_bit."""

    Pe_bit: float

    def __post_init__(self):
        _reject_bool(self, "Pe_bit")
        if not 0.0 <= self.Pe_bit < 1.0:
            raise ValueError("Pe_bit must lie in [0, 1)")


def derive_timing(sys: SystemParams) -> Timing:
    """Coded-packet time, ACK time, and the post-burst wait T_w = T_rt + T_ack."""
    t_ack = sys.n_ack / sys.R
    return Timing(T_p=sys.packet_bits / sys.R, T_ack=t_ack, T_w=sys.T_rt + t_ack)


def packet_erasure(pe_bit: float, bits: int) -> float:
    """Probability that a packet of `bits` independent bits contains at least one error.

    Evaluated in log domain: (1 - pe_bit)**bits underflows its distance from 1
    when naively powered for large packets.
    """
    bits = as_int(bits, "bits")
    if not 0.0 <= pe_bit < 1.0:
        raise ValueError("pe_bit must lie in [0, 1)")
    if bits < 1:
        raise ValueError("bits must be positive")
    return -math.expm1(bits * math.log1p(-pe_bit))


def erasures_from_bit_channel(bc: BitChannel, sys: SystemParams) -> tuple[float, float]:
    """Map a bit-error probability to (coded packet, ACK) erasure probabilities."""
    return (
        packet_erasure(bc.Pe_bit, sys.packet_bits),
        packet_erasure(bc.Pe_bit, sys.n_ack),
    )


def with_bit_channel(sys: SystemParams, bc: BitChannel) -> SystemParams:
    """Copy of `sys` with Pe/Pe_ack recomputed from the bit channel."""
    pe, pe_ack = erasures_from_bit_channel(bc, sys)
    return replace(sys, Pe=pe, Pe_ack=pe_ack)
