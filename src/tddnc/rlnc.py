"""Random linear network coding over GF(2**g): field tables, encoder, rank-tracking decoder, echelon form."""

from __future__ import annotations

import numpy as np

from .params import as_int

# The reduction polynomial of each coefficient width, written with the
# leading x**g term (0x11B = x^8+x^4+x^3+x+1).  One per width, so decoders
# built independently agree on the field.
DEFAULT_POLYNOMIALS = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
}


class GaloisField:
    """GF(2**g) arithmetic for 1 <= g <= 16 via log/antilog tables.

    Addition is bitwise xor.  Multiplication maps through discrete logs of a
    multiplicative generator; the generator is searched for rather than
    assumed to be x, because 0x11B is not primitive.  Every product is one
    table read, `exp[log[a] + log[b]]`: zero's log is 2(q-1), past every sum
    of two nonzero logs, and `exp` is zero from there on.  Tables are
    immutable after construction and safe to share.
    """

    def __init__(self, g: int):
        g = as_int(g, "g")
        if not 1 <= g <= 16:
            raise ValueError("coefficient width g must lie in [1, 16]")
        self.g = g
        self.q = 1 << g
        self.polynomial = DEFAULT_POLYNOMIALS[g]
        self._build_tables()

    def _mul_slow(self, a: int, b: int) -> int:
        # carry-less multiply with reduction, used only to build the tables
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a & self.q:
                a ^= self.polynomial
        return acc

    def _powers(self, c: int, exp: np.ndarray, scratch: np.ndarray, carry: np.ndarray) -> bool:
        """Fill exp[:q-1] with c**0 .. c**(q-2); False as soon as an early power is 1.

        Doubling: with exp[:s] known, exp[s:2s] = exp[:s] * c**s, one
        vectorized carry-less multiply (shift, carry out of bit g, xor with
        the polynomial) per bit of c**s.  `scratch` and `carry` hold the
        shifted operand and its carries, so no temporaries are allocated.
        """
        group, g, poly = self.q - 1, self.g, self.polynomial
        exp[0] = 1
        s, cs = 1, c
        while s < group:
            n = min(s, group - s)
            out, a, t = exp[s : s + n], scratch[:n], carry[:n]
            out[:] = 0
            a[:] = exp[:n]
            b = cs
            while b:
                if b & 1:
                    np.bitwise_xor(out, a, out=out)
                b >>= 1
                if b:
                    np.left_shift(a, 1, out=a)
                    np.right_shift(a, g, out=t)
                    np.multiply(t, poly, out=t)
                    np.bitwise_xor(a, t, out=a)
            if np.equal(out, 1, out=t.view(np.bool_)[:n]).any():
                return False
            s, cs = s + n, self._mul_slow(cs, cs)
        return True

    def _build_tables(self):
        group = self.q - 1
        # powers twice over, so sums of two nonzero logs need no modulo, then
        # zeros for every sum that involves log[0] = 2 * group
        exp = np.zeros(4 * group + 1, dtype=np.int64)
        log = np.zeros(self.q, dtype=np.int64)
        # the halves of log are the scratch space of the power fills
        scratch, carry = log[: self.q // 2], log[self.q // 2 :]
        # the generator is the first candidate with no 1 among its powers
        # c**1 .. c**(q-2); every polynomial of DEFAULT_POLYNOMIALS is
        # irreducible, so one exists
        candidates = range(2, self.q) if self.q > 2 else (1,)
        self.generator = next(c for c in candidates if self._powers(c, exp, scratch, carry))
        steps = exp[group : 2 * group]
        steps[:] = 1
        steps[0] = 0
        np.cumsum(steps, out=steps)  # 0 .. q-2, without a separate arange
        log[0] = 2 * group
        log[exp[:group]] = steps
        exp[group : 2 * group] = exp[:group]
        self._exp = exp
        self._log = log

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def _symbols(self, values, name: str = "symbols") -> np.ndarray:
        """`values` as an int64 array of field elements, never coerced.

        A float or bool element raises TypeError instead of being truncated,
        also in a list that mixes it with ints; an integer outside [0, q),
        however large, raises ValueError.
        """
        if not isinstance(values, np.ndarray) or values.dtype == object:
            # judge a list's or scalar's own elements: numpy folds bools into
            # ints and keeps integers beyond int64 as objects
            values = np.asarray(values, dtype=object)
            for v in values.flat:
                if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, np.integer)):
                    raise TypeError(f"{name} must be integers, not {type(v).__name__}")
                if not 0 <= v < self.q:
                    raise ValueError(f"{name} must lie in [0, q)")
            return values.astype(np.int64)
        if values.size == 0:  # nothing to truncate
            return np.zeros(values.shape, dtype=np.int64)
        if values.dtype.kind not in "iu":
            raise TypeError(f"{name} must be integers, not {values.dtype}")
        if ((values < 0) | (values >= self.q)).any():
            raise ValueError(f"{name} must lie in [0, q)")
        return values.astype(np.int64, copy=False)

    def mul(self, a: int, b: int) -> int:
        return int(self._scale(self._symbols(a), self._symbols(b)))

    def inv(self, a: int) -> int:
        a = self._symbols(a)
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return int(self._exp[self.q - 1 - self._log[a]])

    def scale(self, a: int, row: np.ndarray) -> np.ndarray:
        """Elementwise a * row over the field."""
        return self._scale(self._symbols(a), self._symbols(row, "row symbols"))

    def _scale(self, a: int, row: np.ndarray) -> np.ndarray:
        # `scale` without the symbol check, for symbols already checked; a
        # new array, zero wherever a or row is
        return self._exp[self._log[row] + self._log[a]]


def encode(field: GaloisField, block: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """One coded packet: the M coefficients, then the block's rows combined under them.

    This int64 row of length M + symbols is the codec's only packet format;
    `Decoder.absorb` takes it as is and holds it as an augmented row.
    """
    block = field._symbols(block, "block symbols")
    if block.ndim != 2:
        raise ValueError("block must be an (M, symbols) array")
    coefficients = field._symbols(coefficients, "coefficients")
    if coefficients.shape != (block.shape[0],):
        raise ValueError("coefficient vector length must equal the block size")
    payload = np.zeros(block.shape[1], dtype=np.int64)
    for c, row in zip(coefficients.tolist(), block):
        if c:
            payload ^= field._scale(c, row)
    return np.concatenate((coefficients, payload))


class Decoder:
    """Incremental Gaussian elimination over received packets, tracking received dofs.

    The basis is kept in echelon form, keyed by pivot column: the row held
    at pivot p is an int64 array, the M coefficients followed by the payload
    symbols, with zeros left of p and a 1 at p.  `absorb`, the one
    elimination routine, reduces a new row against the held pivots only and
    never touches an older row again, so the rank is known after every
    packet.  `decode` back-substitutes once, from the last pivot up.
    """

    def __init__(self, field: GaloisField, M: int, payload_symbols: int):
        M, payload_symbols = as_int(M, "M"), as_int(payload_symbols, "payload_symbols")
        if M < 1:
            raise ValueError("block size must be positive")
        if payload_symbols < 0:
            raise ValueError("payload length cannot be negative")
        self.field = field
        self.M = M
        self.payload_symbols = payload_symbols
        self._rows: list[np.ndarray | None] = [None] * M  # coefficients + payload by pivot
        self._rank = 0

    @property
    def rank(self) -> int:
        return self._rank

    def absorb(self, row: np.ndarray) -> int:
        """Fold one packet, as `encode` returns it, into the basis; 1 if it raised the rank.

        A rank-only decoder (no payload symbols) takes the M coefficients
        alone.  The packet is copied, never written to.
        """
        field = self.field
        v = field._symbols(row, "packet symbols")
        if v.shape != (self.M + self.payload_symbols,):
            raise ValueError("packet length must be M + payload_symbols")
        v = v.copy()  # `_symbols` may return the caller's own array
        for col, held in enumerate(self._rows):
            a = v[col]
            if not a:
                continue
            if held is None:
                # first free pivot: normalize it to 1 and hold the row there
                self._rows[col] = field._scale(field._exp[field.q - 1 - field._log[a]], v)
                self._rank += 1
                return 1
            v ^= field._scale(a, held)
        return 0

    def decode(self) -> np.ndarray:
        """The original (M, symbols) block, as a new array; requires full rank."""
        if self.rank < self.M:
            raise ValueError("decoding requires rank M")
        M, rows = self.M, self._rows
        out = np.array([row[M:] for row in rows], dtype=np.int64)
        for p in range(M - 2, -1, -1):
            for k in range(p + 1, M):
                out[p] ^= self.field._scale(rows[p][k], out[k])
        return out
