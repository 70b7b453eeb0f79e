import math

import numpy as np
import pytest

from tddnc.markov import Policy, expected_completion, expected_extra_receptions
from tddnc.optimizer import continuous_optimum_N1
from tddnc.params import (
    BitChannel,
    SystemParams,
    Timing,
    as_int,
    derive_timing,
    erasures_from_bit_channel,
    packet_erasure,
    with_bit_channel,
)
from tddnc.rlnc import Decoder, GaloisField
from tddnc.simulator import SimConfig, run_records, summarize

SATELLITE = dict(M=10, n=10000, g=100, h=80, n_ack=100, R=1.5e6, T_rt=0.25)


def test_timing_satellite_link():
    t = derive_timing(SystemParams(**SATELLITE))
    assert t.T_p == pytest.approx(11080 / 1.5e6, rel=1e-15)
    assert t.T_ack == pytest.approx(100 / 1.5e6, rel=1e-15)
    assert t.T_w == pytest.approx(0.2500666666666667, rel=1e-15)


def test_timing_unit_rate_identity():
    t = derive_timing(SystemParams(M=1, n=1, g=1, h=0, n_ack=1, R=1.0, T_rt=0.0))
    assert t.T_p == 2.0
    assert t.T_ack == 1.0
    assert t.T_w == 1.0


def test_timing_high_rate_link():
    t = derive_timing(SystemParams(M=10, n=10000, g=20, h=80, n_ack=100, R=1e7, T_rt=0.25))
    assert t.T_p == pytest.approx(1.028e-3, rel=1e-15)


def test_timing_scale_covariance():
    base = SystemParams(**SATELLITE)
    t0 = derive_timing(base)
    for c in (2.0, 4.0, 8.0):
        t = derive_timing(SystemParams(**{**SATELLITE, "R": SATELLITE["R"] * c}))
        assert t.T_p == t0.T_p / c
        assert t.T_ack == t0.T_ack / c


def test_erasure_mapping_error_free():
    sys = SystemParams(**SATELLITE)
    assert erasures_from_bit_channel(BitChannel(0.0), sys) == (0.0, 0.0)


def test_erasure_mapping_large_packet():
    sys = SystemParams(**SATELLITE)
    pe, pe_ack = erasures_from_bit_channel(BitChannel(1e-4), sys)
    # log-domain arithmetic cross-check, then the coarse expected magnitudes
    assert pe == pytest.approx(-math.expm1(11080 * math.log1p(-1e-4)), rel=1e-12)
    assert pe_ack == pytest.approx(-math.expm1(100 * math.log1p(-1e-4)), rel=1e-12)
    assert pe == pytest.approx(0.6698, abs=5e-4)
    assert pe_ack == pytest.approx(0.00995, abs=5e-5)
    assert pe < 1.0 and pe_ack < 1.0


def test_erasure_mapping_single_bit_packet():
    assert packet_erasure(1e-4, 1) == pytest.approx(1e-4, rel=1e-12)


def test_erasure_mapping_monotone():
    last = -1.0
    for pe_bit in (0.0, 1e-6, 1e-4, 1e-2, 0.5):
        v = packet_erasure(pe_bit, 1000) if pe_bit else 0.0
        assert v >= last
        last = v
    # growing any size component grows the coded-packet erasure probability
    base = SystemParams(**SATELLITE)
    bc = BitChannel(1e-4)
    pe0, _ = erasures_from_bit_channel(bc, base)
    for field in ("h", "n", "g", "M"):
        bigger = SystemParams(**{**SATELLITE, field: SATELLITE[field] + 7})
        pe1, _ = erasures_from_bit_channel(bc, bigger)
        assert pe1 > pe0


def test_with_bit_channel_replaces_erasures():
    sys = with_bit_channel(SystemParams(**SATELLITE), BitChannel(1e-4))
    assert 0.66 < sys.Pe < 0.68
    assert 0.0099 < sys.Pe_ack < 0.01


def test_construction_rejects_invalid():
    with pytest.raises(ValueError):
        SystemParams(**{**SATELLITE, "Pe": 1.0})
    with pytest.raises(ValueError):
        SystemParams(**{**SATELLITE, "Pe_ack": 1.0})
    with pytest.raises(ValueError):
        SystemParams(**{**SATELLITE, "M": 0})
    with pytest.raises(ValueError):
        SystemParams(**{**SATELLITE, "R": 0.0})
    with pytest.raises(ValueError):
        SystemParams(**{**SATELLITE, "n": 0})
    with pytest.raises(ValueError):
        Timing(T_p=0.0, T_ack=1.0, T_w=1.0)
    # a negative round cost voids the policy search's stopping bound
    for t_ack, t_w in ((0.0, -5.0), (-1.0, 1.0), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            Timing(T_p=1.0, T_ack=t_ack, T_w=t_w)
    with pytest.raises(ValueError):
        BitChannel(1.0)


@pytest.mark.parametrize("field", ["M", "n", "g", "h", "n_ack"])
@pytest.mark.parametrize("value", [True, 2.5, 10.0, "10"])
def test_construction_rejects_non_integer_counts(field, value):
    with pytest.raises(TypeError):
        SystemParams(**{**SATELLITE, field: value})


def test_as_int_rejects_bools_and_returns_python_ints():
    with pytest.raises(TypeError, match="flag"):
        as_int(True, "flag")
    with pytest.raises(TypeError, match="flag"):
        as_int(np.True_, "flag")
    for value in (7, np.int64(7), np.uint8(7)):
        got = as_int(value, "count")
        assert got == 7 and type(got) is int


@pytest.mark.parametrize("field", ["R", "T_rt", "Pe", "Pe_ack"])
@pytest.mark.parametrize("value", [True, False, np.True_])
def test_system_params_reject_bool_reals(field, value):
    with pytest.raises(TypeError, match=field):
        SystemParams(**{**SATELLITE, field: value})
    # Python and numpy ints and floats stay accepted
    SystemParams(**{**SATELLITE, field: np.float64(0.5)})
    SystemParams(**{**SATELLITE, field: 1 if field in ("R", "T_rt") else 0})
    SystemParams(**{**SATELLITE, field: np.int64(1) if field in ("R", "T_rt") else np.int64(0)})


@pytest.mark.parametrize("field", ["T_p", "T_ack", "T_w"])
@pytest.mark.parametrize("value", [True, False, np.True_])
def test_timing_rejects_bool_times(field, value):
    base = dict(T_p=1.0, T_ack=0.5, T_w=2.0)
    with pytest.raises(TypeError, match=field):
        Timing(**{**base, field: value})
    Timing(**{**base, field: np.float64(1.0)})
    Timing(**{**base, field: 1})


@pytest.mark.parametrize("value", [True, False, np.False_])
def test_bit_channel_rejects_bool_probability(value):
    with pytest.raises(TypeError, match="Pe_bit"):
        BitChannel(Pe_bit=value)
    assert BitChannel(Pe_bit=0).Pe_bit == 0
    assert BitChannel(Pe_bit=np.float32(1e-4)).Pe_bit == np.float32(1e-4)


@pytest.mark.parametrize("bits", [True, 2.5, "10"])
def test_packet_erasure_rejects_non_integer_bits(bits):
    with pytest.raises(TypeError):
        packet_erasure(0.1, bits)


def test_packet_bits():
    assert SystemParams(**SATELLITE).packet_bits == 11080
    assert SystemParams(M=1, n=1, g=1, h=0, n_ack=1, R=1.0).q == 2


_M3 = SystemParams(**{**SATELLITE, "M": 3, "Pe": 0.3})
_M2 = SystemParams(**{**SATELLITE, "M": 2, "Pe": 0.3})


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Policy(()), "at least one state", id="policy-empty"),
    pytest.param(lambda: Policy((0,)), "every burst size", id="policy-zero"),
    pytest.param(lambda: expected_completion(Policy((1, 2)), _M3, derive_timing(_M3)),
                 "policy length", id="expected_completion"),
    pytest.param(lambda: run_records(Policy((1, 2)), _M3, derive_timing(_M3), SimConfig(runs=1)),
                 "policy length", id="run_records"),
    pytest.param(lambda: summarize(np.zeros((3, 2)), derive_timing(_M3)), r"\(runs, 3\)",
                 id="summarize"),
    pytest.param(lambda: Decoder(GaloisField(8), 0, 0), "block size", id="decoder-M"),
    pytest.param(lambda: Decoder(GaloisField(8), 3, -1), "payload length", id="decoder-payload"),
    pytest.param(lambda: continuous_optimum_N1(_M2, derive_timing(_M2)), "M = 1",
                 id="closed-form-M"),
    pytest.param(lambda: SystemParams(**{**SATELLITE, "n": 0}), "n must be", id="n"),
    pytest.param(lambda: SystemParams(**{**SATELLITE, "g": 0}), "g must be", id="g"),
    pytest.param(lambda: SystemParams(**{**SATELLITE, "h": -1}), "h must be", id="h"),
    pytest.param(lambda: packet_erasure(1e-3, 0), "bits must be", id="packet_erasure"),
    pytest.param(lambda: expected_extra_receptions(0, 2), "M must be", id="extra-receptions-M"),
    pytest.param(lambda: expected_extra_receptions(3, 1), "field size", id="extra-receptions-q"),
])
def test_library_rejects_out_of_range_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()
