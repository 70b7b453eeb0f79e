import numpy as np
import pytest
from tddnc.markov import expected_extra_receptions
from tddnc.rlnc import DEFAULT_POLYNOMIALS, Decoder, GaloisField, encode


def test_field_identity_and_inverse_exhaustive_byte_field():
    f = GaloisField(8)
    for a in range(256):
        assert f.mul(a, 1) == a
        assert f.add(a, a) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_field_single_reduction_step():
    # x * x^7 = x^8, reduced by x^8+x^4+x^3+x+1
    assert GaloisField(8).mul(0x02, 0x80) == 0x1B


def test_field_default_polynomials_build_and_satisfy_laws():
    rng = np.random.default_rng(2)
    for g, poly in DEFAULT_POLYNOMIALS.items():
        f = GaloisField(g)
        assert f.polynomial == poly
        for _ in range(50):
            a = int(rng.integers(1, f.q))
            b = int(rng.integers(1, f.q))
            c = int(rng.integers(0, f.q))
            assert f.mul(a, f.inv(a)) == 1
            assert f.mul(a, b) == f.mul(b, a)
            # distributivity over xor addition
            assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


def test_field_rejects_bad_arguments():
    with pytest.raises(ValueError):
        GaloisField(0)
    with pytest.raises(ValueError):
        GaloisField(17)
    with pytest.raises(ZeroDivisionError):
        GaloisField(4).inv(0)


@pytest.mark.parametrize("g", [8.0, True, "8"])
def test_field_rejects_non_integer_arguments(g):
    with pytest.raises(TypeError):
        GaloisField(g)


@pytest.mark.parametrize("M, payload_symbols", [(True, 0), (3.0, 0), ("3", 0),
                                                (3, False), (3, 2.0), (3, "2")])
def test_decoder_rejects_non_integer_sizes(M, payload_symbols):
    with pytest.raises(TypeError):
        Decoder(GaloisField(8), M, payload_symbols)


def _clmul_mod(a, b, g, poly):
    # schoolbook carry-less product, then reduction from the top bit down
    acc = 0
    for k in range(g):
        if b >> k & 1:
            acc ^= a << k
    for k in range(2 * g - 2, g - 1, -1):
        if acc >> k & 1:
            acc ^= poly << (k - g)
    return acc


def _reference_tables(g, poly):
    # first element of multiplicative order q-1, found by walking each candidate's powers;
    # zero's log is 2(q-1), and exp is zero past the powers written twice
    q = 1 << g
    for gen in range(2, q) if q > 2 else (1,):
        powers, x = [1], gen
        while x != 1 and len(powers) < q:
            powers.append(x)
            x = _clmul_mod(x, gen, g, poly)
        if len(powers) == q - 1 and x == 1:
            break
    log = [2 * (q - 1)] + [0] * (q - 1)
    for k, x in enumerate(powers):
        log[x] = k
    return gen, powers + powers + [0] * (2 * (q - 1) + 1), log


@pytest.mark.parametrize("g, poly", sorted(DEFAULT_POLYNOMIALS.items()) + [(8, 0x11B)])
def test_field_tables_equal_brute_force_reference(g, poly):
    f = GaloisField(g)
    gen, exp, log = _reference_tables(g, poly)
    assert f.polynomial == poly and f.generator == gen
    assert f._exp.tolist() == exp
    assert f._log.tolist() == log


@pytest.mark.parametrize("g", [1, 8, 16])
def test_scale_equals_elementwise_mul(g):
    f = GaloisField(g)
    rng = np.random.default_rng([2009, g])
    for _ in range(50):
        row = rng.integers(0, f.q, size=12, dtype=np.int64)
        row[rng.random(12) < 0.3] = 0
        for a in (0, 1, int(rng.integers(1, f.q))):
            assert f.scale(a, row).tolist() == [f.mul(a, int(x)) for x in row]


@pytest.mark.parametrize("g", [1, 8, 16])
def test_rank_only_decoder_rejects_dependent_rows(g):
    # zero, repeated and combined rows never raise the rank of a payload-free decoder
    f = GaloisField(g)
    rng = np.random.default_rng([2010, g])
    for M in range(1, 9):
        for _ in range(20):
            dec, seen, gained = Decoder(f, M, 0), [], 0
            for _ in range(3 * M):
                kind = rng.integers(0, 4)
                if kind == 0:
                    row, dependent = np.zeros(M, dtype=np.int64), True
                elif kind == 1 and seen:
                    row, dependent = seen[rng.integers(0, len(seen))], True
                elif kind == 2 and len(seen) >= 2:
                    a, b = (int(c) for c in rng.integers(1, f.q, size=2))
                    x, y = (seen[i] for i in rng.choice(len(seen), 2, replace=False))
                    row, dependent = f.scale(a, x) ^ f.scale(b, y), True
                else:
                    row, dependent = rng.integers(0, f.q, size=M, dtype=np.int64), False
                seen.append(row)
                delta = dec.absorb(row)
                if dependent:
                    assert delta == 0
                gained += delta
                assert dec.rank == gained <= M


def _reference_rank(rows, g, poly):
    # Gaussian elimination from scratch with schoolbook products, independent of the field tables
    def inv(a):
        out, e = 1, (1 << g) - 2   # a**(q-2)
        while e:
            if e & 1:
                out = _clmul_mod(out, a, g, poly)
            a, e = _clmul_mod(a, a, g, poly), e >> 1
        return out

    basis = []   # (pivot column, row with a 1 there)
    for row in rows:
        v = [int(x) for x in row]
        for pivot, b in basis:
            if v[pivot]:
                a = v[pivot]
                v = [x ^ _clmul_mod(a, y, g, poly) for x, y in zip(v, b)]
        nz = [k for k, x in enumerate(v) if x]
        if nz:
            s = inv(v[nz[0]])
            basis.append((nz[0], [_clmul_mod(s, x, g, poly) for x in v]))
    return len(basis)


@pytest.mark.parametrize("g", [1, 2, 4, 8, 16])
def test_decoder_matches_reference_elimination(g):
    f = GaloisField(g)
    rng = np.random.default_rng([2011, g])
    for M in (1, 2, 3, 6, 10):
        for _ in range(3):
            block = rng.integers(0, f.q, size=(M, 5), dtype=np.int64)
            dec, seen = Decoder(f, M, 5), []
            for step in range(2 * M + 2):
                kind = step % 4 if seen else 3
                if kind == 0:
                    row = np.zeros(M, dtype=np.int64)
                elif kind == 1:
                    row = seen[rng.integers(0, len(seen))]
                elif kind == 2:
                    a, b = (int(c) for c in rng.integers(0, f.q, size=2))
                    x, y = (seen[i] for i in rng.integers(0, len(seen), size=2))
                    row = np.array([_clmul_mod(a, int(u), g, f.polynomial)
                                    ^ _clmul_mod(b, int(w), g, f.polynomial)
                                    for u, w in zip(x, y)], dtype=np.int64)
                else:
                    row = rng.integers(0, f.q, size=M, dtype=np.int64)
                before = dec.rank
                seen.append(row)
                delta = dec.absorb(encode(f, block, row))
                assert dec.rank == before + delta == _reference_rank(seen, g, f.polynomial)
                held = [(p, r) for p, r in enumerate(dec._rows) if r is not None]
                assert len(held) == dec.rank
                for p, r in held:
                    assert r[p] == 1 and not any(r[:p])
            while _reference_rank(seen, g, f.polynomial) < M:
                seen.append(rng.integers(0, f.q, size=M, dtype=np.int64))
            for order in (range(len(seen)), rng.permutation(len(seen))):
                dec = Decoder(f, M, 5)
                for k in order:
                    dec.absorb(encode(f, block, seen[k]))
                assert dec.rank == M
                assert np.array_equal(dec.decode(), block)


def test_absorb_rejects_symbols_outside_the_field():
    f = GaloisField(8)
    dec = Decoder(f, 3, 2)
    for row in ([-1, 0, 0, 0, 0], [0, 256, 0, 0, 0], [1, 0, 0, 0, -1], [1, 0, 0, 256, 0]):
        with pytest.raises(ValueError, match=r"\[0, q\)"):
            dec.absorb(np.array(row))
    for row in ([1, 0, 0, 0], [1, 0, 0, 0, 0, 0]):
        with pytest.raises(ValueError, match="packet length"):
            dec.absorb(np.array(row))
    for row in ([2.9, True, 7.5, 0], [True, False, True, False], np.ones(5)):
        with pytest.raises(TypeError, match="must be integers"):
            Decoder(f, 2, 2).absorb(np.array(row))
    assert dec.rank == 0
    with pytest.raises(ValueError, match=r"\[0, q\)"):
        Decoder(f, 3, 0).absorb(np.array([-1, 0, 0]))
    # a list is judged element by element: numpy would read True as 1 and
    # 2**70 as an object
    with pytest.raises(TypeError, match="must be integers"):
        Decoder(f, 3, 0).absorb([True, 0, 0])
    with pytest.raises(ValueError, match=r"\[0, q\)"):
        Decoder(f, 3, 0).absorb([2**70, 0, 0])
    assert Decoder(f, 3, 0).absorb(np.array([0, 5, 0], dtype=np.uint8)) == 1


def test_field_operations_reject_symbols_outside_the_field():
    f = GaloisField(8)
    for call in (lambda: f.mul(-1, 3), lambda: f.mul(300, 1), lambda: f.mul(3, 256),
                 lambda: f.inv(-1), lambda: f.scale(3, [-1, 2]), lambda: f.scale(-3, [1, 2]),
                 lambda: f.mul(2**70, 1), lambda: f.scale(3, [1, 2**64])):
        with pytest.raises(ValueError, match=r"\[0, q\)"):
            call()
    for call in (lambda: f.mul(1.5, 3), lambda: f.mul(True, 3), lambda: f.inv(2.0),
                 lambda: f.scale(3, [1.0, 2.0]), lambda: f.scale(3, np.array([True])),
                 lambda: f.scale(3, [True, 2]), lambda: f.mul(3, np.True_)):
        with pytest.raises(TypeError, match="must be integers"):
            call()
    assert f.scale(3, [0, 2]).tolist() == [0, f.mul(3, 2)]


@pytest.mark.parametrize("g, payload_symbols", [
    *(pytest.param(g, 0, id=str(g)) for g in (1, 8, 16)),
    *(pytest.param(g, 3, id=f"{g}-payload") for g in (1, 8, 16)),
])
def test_reduce_row_matches_absorb(g, payload_symbols):
    # reducing the bare coefficient rows, given as Python lists, in a
    # rank-only decoder builds the same basis as absorbing the numpy packets,
    # with or without payload symbols after the coefficients: over
    # independent, sparse and repeated rows, the rank deltas are equal and
    # every pivot holds the same coefficients
    f = GaloisField(g)
    rng = np.random.default_rng([2012, g])
    checked = None
    absorbed, reduced = [], []
    for _ in range(500):
        if checked is None or checked.rank == checked.M:
            M = int(rng.integers(1, 9))
            checked = Decoder(f, M, payload_symbols)
            lean, seen = Decoder(f, M, 0), []
        if seen and rng.random() < 0.2:
            row = seen[rng.integers(0, len(seen))]
        else:
            row = rng.integers(0, f.q, size=M, dtype=np.int64) * (rng.random(M) < 0.6)
        seen.append(row)
        payload = rng.integers(0, f.q, size=payload_symbols, dtype=np.int64)
        absorbed.append(checked.absorb(np.concatenate((row, payload))))
        reduced.append(lean.absorb(row.tolist()))
        assert lean.rank == checked.rank
        for a, b in zip(lean._rows, checked._rows):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a, b[:M])
    assert absorbed == reduced
    assert 0 < sum(absorbed) < len(absorbed)


def test_absorb_and_decode_share_no_memory_with_callers():
    # absorb copies the packet, and decode returns a new array each call
    f = GaloisField(8)
    rng = np.random.default_rng(41)
    block = rng.integers(0, f.q, size=(4, 6), dtype=np.int64)
    for dtype in (np.int64, np.uint8):
        dec = Decoder(f, 4, 6)
        while dec.rank < 4:
            pkt = encode(f, block, rng.integers(0, f.q, size=4, dtype=np.int64)).astype(dtype)
            kept = pkt.copy()
            dec.absorb(pkt)
            assert np.array_equal(pkt, kept)
            pkt[:] = 0   # the held row is the decoder's own
        first = dec.decode()
        assert np.array_equal(first, block)
        first[:] = 0
        assert np.array_equal(dec.decode(), block)


def test_encode_unit_vector_projects():
    f = GaloisField(8)
    rng = np.random.default_rng(5)
    block = rng.integers(0, 256, size=(6, 20), dtype=np.int64)
    for k in range(6):
        coeffs = np.zeros(6, dtype=np.int64)
        coeffs[k] = 1
        pkt = encode(f, block, coeffs)
        assert pkt.dtype == np.int64
        assert np.array_equal(pkt, np.concatenate((coeffs, block[k])))


def test_encode_zero_vector_gives_zero_payload():
    f = GaloisField(8)
    block = np.arange(40, dtype=np.int64).reshape(4, 10) % 256
    pkt = encode(f, block, np.zeros(4, dtype=np.int64))
    assert pkt.shape == (14,) and not pkt.any()


def test_encode_rejects_bad_shapes_and_symbols_outside_the_field():
    f = GaloisField(8)
    block = np.zeros((3, 2), dtype=np.int64)
    coefficients = np.array([1, 2, 3], dtype=np.int64)
    with pytest.raises(ValueError, match="block must be"):
        encode(f, np.zeros(3, dtype=np.int64), coefficients)
    with pytest.raises(ValueError, match="length must equal"):
        encode(f, block, coefficients[:2])
    for bad in (-1, 256, 300):
        symbols = block.copy()
        symbols[1, 0] = bad
        with pytest.raises(ValueError, match=r"block symbols must lie in \[0, q\)"):
            encode(f, symbols, coefficients)
        weights = coefficients.copy()
        weights[2] = bad
        with pytest.raises(ValueError, match=r"coefficients must lie in \[0, q\)"):
            encode(f, block, weights)
    for rows, weights in ((block.astype(float), coefficients), (block, [1.5, 0.0, 2.0]),
                          (block, coefficients > 1), ([[1.9, 2.2], [3.0, 4.7]], [1.5, 0.0])):
        with pytest.raises(TypeError, match="must be integers"):
            encode(f, rows, weights)
    assert encode(f, block, coefficients).tolist() == [1, 2, 3, 0, 0]
    # an empty payload is valid, though numpy infers float64 for []
    empty = encode(f, [[], [], []], coefficients)
    assert empty.dtype == np.int64 and empty.tolist() == [1, 2, 3]
    assert Decoder(f, 3, 0).absorb(empty) == 1
    assert f.scale(3, []).tolist() == []


def test_absorb_duplicate_is_dependent():
    f = GaloisField(8)
    rng = np.random.default_rng(7)
    block = rng.integers(0, 256, size=(5, 8), dtype=np.int64)
    dec = Decoder(f, 5, 8)
    pkt = encode(f, block, rng.integers(0, 256, size=5, dtype=np.int64))
    assert dec.absorb(pkt) == 1
    assert dec.absorb(pkt) == 0
    assert dec.rank == 1


def test_absorb_standard_basis_reaches_full_rank():
    f = GaloisField(2)
    block = np.arange(12, dtype=np.int64).reshape(4, 3) % 4
    dec = Decoder(f, 4, 3)
    for k in (2, 0, 3, 1):
        coeffs = np.zeros(4, dtype=np.int64)
        coeffs[k] = 1
        assert dec.absorb(encode(f, block, coeffs)) == 1
    assert dec.rank == 4
    assert np.array_equal(dec.decode(), block)


def test_rank_monotone_and_bounded():
    f = GaloisField(2)
    rng = np.random.default_rng(13)
    block = rng.integers(0, 2, size=(6, 4), dtype=np.int64)
    dec = Decoder(f, 6, 4)
    last = 0
    for _ in range(60):
        dec.absorb(encode(f, block, rng.integers(0, f.q, size=6, dtype=np.int64)))
        assert last <= dec.rank <= 6
        last = dec.rank
    assert dec.rank == 6


def test_receptions_until_full_rank_match_expectation():
    # coupon-style overhead of random coefficient vectors vs the closed-form mean
    M, trials = 10, 4000
    for g in (1, 8):
        f = GaloisField(g)
        counts = np.empty(trials)
        for r in range(trials):
            rng = np.random.default_rng([606, g, r])
            dec = Decoder(f, M, 0)
            got = 0
            while dec.rank < M:
                dec.absorb(rng.integers(0, f.q, size=M, dtype=np.int64))
                got += 1
            counts[r] = got
        mean = counts.mean()
        stderr = counts.std(ddof=1) / np.sqrt(trials)
        predicted = expected_extra_receptions(M, f.q)
        assert abs(mean - predicted) <= 3 * stderr


def test_dependent_arrivals_rare_in_byte_field():
    f = GaloisField(8)
    M = 10
    dependent = total = 0
    for r in range(2000):
        rng = np.random.default_rng([777, r])
        dec = Decoder(f, M, 0)
        while dec.rank < M:
            delta = dec.absorb(rng.integers(0, f.q, size=M, dtype=np.int64))
            dependent += 1 - delta
            total += 1
    assert dependent / total < 0.01


@pytest.mark.parametrize("g, M, symbols", [
    *(pytest.param(g, M, 16, id=f"{g}-{M}") for g in (1, 8) for M in (1, 5, 10)),
    # packet-sized payloads: 1500 bytes, and 750 two-byte symbols
    pytest.param(8, 10, 1500, id="8-10-1500"),
    pytest.param(16, 10, 750, id="16-10-750"),
])
def test_round_trip(g, M, symbols):
    f = GaloisField(g)
    rng = np.random.default_rng([M, g])
    for _ in range(20):
        block = rng.integers(0, f.q, size=(M, symbols), dtype=np.int64)
        dec = Decoder(f, M, symbols)
        while dec.rank < M:
            dec.absorb(encode(f, block, rng.integers(0, f.q, size=M, dtype=np.int64)))
        assert np.array_equal(dec.decode(), block)


def test_single_packet_block_decodes_by_inverse():
    f = GaloisField(8)
    block = np.array([[7, 200, 13]], dtype=np.int64)
    coeffs = np.array([29], dtype=np.int64)
    pkt = encode(f, block, coeffs)
    dec = Decoder(f, 1, 3)
    dec.absorb(pkt)
    decoded = dec.decode()
    assert np.array_equal(decoded, block)
    manual = np.array([f.mul(f.inv(29), int(v)) for v in pkt[1:]])
    assert np.array_equal(decoded[0], manual)


def test_payload_corruption_breaks_round_trip():
    # mutation check: the round-trip comparison is actually sensitive to payload bits
    f = GaloisField(8)
    rng = np.random.default_rng(31)
    block = rng.integers(0, 256, size=(4, 6), dtype=np.int64)
    dec = Decoder(f, 4, 6)
    while dec.rank < 4:
        dec.absorb(encode(f, block, rng.integers(0, 256, size=4, dtype=np.int64)))
    dec._rows[2][4 + 3] ^= 0x55  # payload symbol 3 of the row held at pivot 2, after its M = 4
    assert not np.array_equal(dec.decode(), block)


def test_decode_requires_full_rank():
    dec = Decoder(GaloisField(4), 3, 2)
    with pytest.raises(ValueError):
        dec.decode()
