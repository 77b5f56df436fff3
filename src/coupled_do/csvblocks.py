"""Whole-block codecs of the float CSV series, for :mod:`coupled_do.fileio`.

:class:`BlockFormatter` writes blocks of rows whose cells have the bytes
of ``%.17g``; :func:`parse_records` reads the records of a dataset file
in blocks, with the bits that ``float`` gives each cell
(:class:`BlockParser`).  Both work on whole NumPy arrays, and both send the
few cells outside their fast path through CPython one at a time.

They live in a module of their own because compiling a module from source
leaves memory resident in proportion to its size: split from
:mod:`~coupled_do.fileio`, the two compile with less of it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import numpy as np

FLOAT_SPEC = ".17g"     # the format of every written float
# bytes of a cell with its separator: the longest %.17g, "-2.2250738585072014e-308,"
_CELL_BYTES = 25
_VELTKAMP = 134217729.0     # 2**27 + 1, which splits a float64 into two 26-bit halves
CHUNK_BYTES = 1 << 18   # bytes per block of the dataset parser
WINDOW = 24             # bytes of a cell that the dataset parser reads as three words


def _veltkamp_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: hi + lo == a exactly, each with at most 26
    significant bits, so that the product of two halves is exact."""
    c = a * _VELTKAMP
    hi = c - (c - a)
    return hi, a - hi


def _pow10_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """10**q for q = 0..22, all exact in float64, and their Veltkamp halves."""
    pow10 = np.array([float(10**q) for q in range(23)])
    return (pow10, *_veltkamp_split(pow10))


def _pow10_product(mag: np.ndarray, q: np.ndarray, pow10) -> tuple[np.ndarray, np.ndarray]:
    """``mag * 10**q`` as ``p + e`` exactly, ``p`` the float64 product:
    Dekker's two-product with the tables of :func:`_pow10_tables`."""
    pow10, pow_hi, pow_lo = pow10
    mag_hi, mag_lo = _veltkamp_split(mag)
    p = pow10.take(q)
    p *= mag
    e = pow_hi.take(q)
    cross = mag_lo * e
    e *= mag_hi
    e -= p
    e += cross
    np.multiply(mag_hi, pow_lo.take(q), out=cross)
    e += cross
    np.multiply(mag_lo, pow_lo.take(q), out=cross)
    e += cross
    return p, e


class BlockFormatter:
    """Formats blocks of up to ``rows`` rows of ``width`` float cells: each
    cell has the bytes of ``format(x, FLOAT_SPEC)``, the cells of a row are
    joined by commas and each row ends in ``end``.

    A finite nonzero cell x whose decimal exponent X (10**X <= |x| <
    10**(X+1)) is in -4..16 is written in fixed point, and every such cell
    of a block is formatted at once in float64 and small integers:

    - ``|x| 10**(16-X) = p + e`` exactly, by Dekker's two-product (10**q is
      exact for q <= 22).  X comes from ``floor(log10 |x|)``, which can be
      one off next to a power of ten; the few cells whose ``p`` is not
      strictly inside (1e16, 1e17) take the exact comparison of ``(p, e)``
      with those bounds and move X by one.
    - ``N = p + rint(e)`` is the 17-digit integer that ``%.17g`` prints:
      ``p`` is even, being above 2**53, so rounding ``e`` half-even rounds
      ``p + e`` half-even.  N never rounds up to 10**17: the float64 below
      10**(X+1) is more than eight units of the 17th digit below it.
    - N is cut into 17 digits by one uint32 ``//`` of its two halves by the
      powers of ten.  The digits then pass through uint8 planes of shape
      (position, cell): a barrel shift by the cell's sign and leading zeros
      (``-``, ``0.000``), a one-place shift after the integer part for the
      point, the point itself, and the comma after the last digit that is
      not a trailing zero of the fraction.  Each step blends two planes
      with a mask, so a block costs about thirty whole-array operations.
    - A boolean mask of the bytes each cell keeps compacts the block in
      (cell, position) order.  The last cell of a row ends in a newline,
      which no cell contains, and which becomes ``end``.

    Zeros are "0" and "-0" in the same pass (N = 0).  Every other cell, a
    non-finite one, an exponent outside -4..16, and a cell whose exponent
    could not be settled, is written by ``%``.  The workspace is allocated
    once per file; none of its buffers depends on the block's values.
    """

    def __init__(self, rows: int, width: int, end: bytes):
        cells = rows * width
        self.rows, self.width, self.end = rows, width, end
        self.values = np.empty((rows, width))
        # the byte after each cell: a comma, and a newline after a row's last
        self.after = np.tile(np.frombuffer(b"," * (width - 1) + b"\n", np.uint8), rows)
        self.pow10 = _pow10_tables()
        # by q = 16 - X: the zeros after "0." and the length of the integer part
        exponent = 16 - np.arange(23)
        self.zeros = np.maximum(-exponent, 0).astype(np.uint8)
        self.integer = (np.maximum(exponent, 0) + 1).astype(np.uint8)
        self.place = np.arange(_CELL_BYTES, dtype=np.uint8)[:, None]
        # 7 rows of "0", then the 17 digits: the shifts read up to 7 rows up
        self.digits = np.full((_CELL_BYTES + 7, cells), ord("0"), np.uint8)
        self.high_low = np.empty((1, 2 * cells), np.uint32)
        self.divisors = 10 ** np.arange(8, -1, -1, dtype=np.uint32)[:, None]
        # the quotients live only until the digits are cut, then the same
        # bytes hold the planes that the shifts alternate between (28 and
        # 26 rows: each shift drops 4, 2 or 1 of the digits' 32) and a mask
        scratch = np.empty(max(9 * 2 * cells * 4, (3 * _CELL_BYTES + 4) * cells), np.uint8)
        self.quotients = scratch[:9 * 2 * cells * 4].view(np.uint32).reshape(9, 2 * cells)
        planes = np.cumsum([0, _CELL_BYTES + 3, _CELL_BYTES + 1, _CELL_BYTES]) * cells
        self.planes = [scratch[lo:hi].reshape(-1, cells) for lo, hi in zip(planes, planes[1:])]

    def _settle(self, mag: np.ndarray, q: np.ndarray):
        """``p``, ``e`` and ``q`` of cells whose first product is not strictly
        inside (1e16, 1e17), and whether each is now inside [1e16, 1e17)."""
        p, e = _pow10_product(mag, q, self.pow10)
        q = np.clip(q + _decade_shift(p, e), 0, 22)
        p, e = _pow10_product(mag, q, self.pow10)
        return p, e, q, _decade_shift(p, e) == 0

    def __call__(self, blocks: list) -> bytes:
        """The rows of ``blocks``, arrays of shape (k, ·) side by side."""
        used = len(blocks[0]) * self.width
        np.concatenate(blocks, axis=1, out=self.values[:len(blocks[0])])
        v = self.values.reshape(-1)
        cells = len(v)
        mag = np.abs(v)
        fixed = (mag >= 1e-4) & (mag < 1e17)
        mag = np.where(fixed, mag, 1.0)
        q = (17 - np.log10(mag)).astype(np.intp)    # 16 - floor, or one more at 10**X
        p, e = _pow10_product(mag, q, self.pow10)
        odd = np.flatnonzero(fixed & ((p <= 1e16) | (p >= 1e17)))
        if odd.size:
            p[odd], e[odd], q[odd], fixed[odd] = self._settle(mag[odd], q[odd])
        n = p.astype(np.int64)
        n += np.rint(e).astype(np.int64)
        zero = v == 0
        n[zero] = 0
        fixed |= zero

        # the digits: each half of N (8 and 9 digits) by 10**8..10**0, then
        # each quotient less ten times the one before
        np.floor_divide(n, 10**9, out=self.high_low[0, :cells], casting="unsafe")
        np.subtract(n, self.high_low[0, :cells] * np.int64(10**9), out=self.high_low[0, cells:],
                    casting="unsafe")
        np.floor_divide(self.high_low, self.divisors, out=self.quotients)
        digits = self.digits[6:24].reshape(2, 9, cells)
        np.copyto(digits, self.quotients.reshape(9, 2, cells).transpose(1, 0, 2),
                  casting="unsafe")
        a, b, mask = self.planes
        tens = a[:16].reshape(2, 8, cells)
        np.multiply(digits[:, :-1], 10, out=tens)
        np.subtract(digits[:, 1:], tens, out=digits[:, 1:])
        digits += ord("0")

        # shift right by the sign and the zeros after "0.": bits 4, 2, 1
        sign = np.signbit(v).view(np.uint8)
        shift = self.zeros.take(q) + sign
        point = self.integer.take(q) + sign
        plane = self.digits
        for out, bit in ((a, 4), (b, 2), (a, 1)):
            rows = len(plane) - bit
            _blend(out[:rows], plane[:rows], plane[bit:],
                   (shift & bit).astype(bool).view(np.uint8))
            plane = out[:rows]
        text = b[:_CELL_BYTES]
        text[0] = plane[0]
        # after the integer part each byte moves one place right, for the point
        _blend(text[1:], plane[:-1], plane[1:],
               np.greater(self.place[1:], point, out=mask[1:].view(bool)).view(np.uint8))
        # the cell ends after its last nonzero digit, but not inside the integer part
        nonzero = np.greater(text, ord("0"), out=mask.view(bool)).view(np.uint8)
        length = np.maximum(np.multiply(nonzero, self.place + 1, out=mask).max(axis=0), point)
        _blend(text, np.uint8(ord(".")), text,
               np.equal(self.place, point, out=mask.view(bool)).view(np.uint8), spare=a)
        _blend(text, self.after, text,
               np.equal(self.place, length, out=mask.view(bool)).view(np.uint8), spare=a)
        text[0] -= sign * (ord("0") - ord("-"))     # a shifted "0" becomes the sign
        keep = np.less_equal(self.place, length, out=mask.view(bool))

        rest = np.flatnonzero(~fixed[:used])
        for c, x in zip(rest.tolist(), v[rest].tolist()):
            data = format(x, FLOAT_SPEC).encode() + self.after[c:c + 1].tobytes()
            text[:len(data), c] = np.frombuffer(data, np.uint8)
            keep[:, c] = self.place[:, 0] < len(data)
        kept = text[:, :used].T[keep[:, :used].T]
        return kept.tobytes().replace(b"\n", self.end)


def _decade_shift(p: np.ndarray, e: np.ndarray) -> np.ndarray:
    """+1 where ``p + e < 1e16``, -1 where ``p + e >= 1e17``, else 0: exact,
    as ``p`` is ``p + e`` rounded and rounding is monotonic."""
    below = (p < 1e16) | ((p == 1e16) & (e < 0))
    above = (p > 1e17) | ((p == 1e17) & (e >= 0))
    return below.astype(np.intp) - above


def _blend(out, a, b, mask, spare=None):
    """``out = a`` where ``mask`` is 1, else ``b``, for uint8 planes;
    ``spare`` holds the difference when ``out`` is ``a`` or ``b``."""
    diff = out if spare is None else spare[:len(out)]
    np.bitwise_xor(a, b, out=diff)
    np.multiply(diff, mask, out=diff)
    np.bitwise_xor(diff, b, out=out)


class BlockParser:
    """Parses blocks of whole records of ``width`` cells, separated by commas
    and each ended by ``eol`` (CRLF, LF or CR), into float64 rows that hold the
    bits ``float`` gives each cell; None refuses the block.

    - The separators are the bytes below ``-`` other than ``+``, which only
      an exponent holds.  Blank lines dropped, they must repeat
      ``width - 1`` commas and ``eol``, so a stray CR, a space, a quote or
      another width refuses the block.
    - Each cell after a leading ``-`` is gathered right-aligned into a
      window of ``WINDOW`` bytes, read as three ``'<u8'`` words, which are
      little-endian on any host; the bytes before the cell become zero
      digits.  A byte compare finds the point, and the bytes before it move
      one place up over it.  Three multiply-shift steps turn each word's
      eight digits into a number, and the words give a mantissa
      ``m < 10**19`` with ``k`` fraction digits.
    - ``fl(m) / 10**k`` is correctly rounded when ``m <= 2**53``: both are
      exact in float64 (k <= 22).  Above, ``m`` splits exactly into
      ``high``, its bits above the lowest eleven, and ``low``, and the
      quotient ``q0 = high / 10**k`` is corrected by
      ``(m - q0 10**k) / 10**k``, a remainder that Dekker's two-product gives
      but for two roundings.  The corrected quotient, summed exactly as
      ``s + z``, lies within 2**-40 units in the last place of ``s`` from
      ``m / 10**k``, so ``s`` is its rounding unless ``z`` lies within 2**-21
      units of half the gap from ``s`` to the float below, the smaller gap.
    - Every other cell goes through ``float``: one with an exponent, ``inf``,
      ``nan``, a ``+``, more than 19 digits, 23 fraction digits or more than
      ``WINDOW`` bytes, and one near a midpoint.  A cell that ``float``
      refuses refuses the block.
    """

    def __init__(self, width: int, eol: bytes):
        self.width, self.eol = width, eol
        self.pattern = np.frombuffer(b"," * (width - 1) + eol, np.uint8)
        self.pow10 = _pow10_tables()
        # word j of a cell of n bytes keeps its top min(max(n - 8 (2 - j), 0), 8) bytes
        self.keep = np.array([2**64 - 2**(64 - 8 * min(max(n - 8 * (2 - j), 0), 8))
                              for j in range(3) for n in range(WINDOW + 1)], np.uint64)
        self.word = np.arange(3)[:, None] * (WINDOW + 1)    # each word's row of keep
        # digit pairs, fours, then eights: (multiplier, shift, mask of the lanes)
        self.steps = [(np.uint64(1 + (10 << 8)), np.uint64(8), np.uint64(0x00FF00FF00FF00FF)),
                      (np.uint64(1 + (100 << 16)), np.uint64(16), np.uint64(0x0000FFFF0000FFFF)),
                      (np.uint64(1 + (10000 << 32)), np.uint64(32), np.uint64(2**32 - 1))]

    def _records(self, kind: np.ndarray) -> bool:
        """Whether the separators ``kind`` are whole records, each the pattern."""
        rows, rest = divmod(len(kind), len(self.pattern))
        return not rest and np.array_equal(kind, np.tile(self.pattern, rows))

    def __call__(self, area: bytearray, stop: int) -> Optional[np.ndarray]:
        """The records in ``area[WINDOW:stop]``; the bytes before them are
        digits, which no window keeps."""
        u64 = np.uint64
        ones = u64(0x0101010101010101)             # 1 in each byte of a word
        buf = np.frombuffer(area, np.uint8, count=stop)
        sep = np.flatnonzero(buf < ord("-"))
        kind = buf[sep]
        if (kind == ord("+")).any():
            sep = sep[kind != ord("+")]
            kind = buf[sep]
        starts = np.empty_like(sep)
        starts[0] = WINDOW
        np.add(sep[:-1], 1, out=starts[1:])
        if not self._records(kind):
            # blank lines carry no record: a line end right after a line end
            blank = (sep == starts) & np.concatenate(([True], kind[:-1] == self.eol[-1]))
            blank &= kind == self.eol[0]
            if len(self.eol) == 2:              # the CR, and the LF right after it
                blank[:-1] &= (kind[1:] == self.eol[-1]) & (sep[1:] == starts[1:])
                blank[-1] = False
                blank[1:] |= blank[:-1].copy()
            sep, kind, starts = sep[~blank], kind[~blank], starts[~blank]
            if not self._records(kind):
                return None
        per = len(self.pattern)
        # a record's separators are its cells' ends, then the LF of a CRLF
        ends = sep.reshape(-1, per)[:, :self.width].ravel()
        starts = starts.reshape(-1, per)[:, :self.width].ravel()
        neg = buf.take(starts) == ord("-")
        length = ends - starts - neg                # the cell's bytes after its sign
        windows = np.ndarray((stop - WINDOW + 1,), f"V{WINDOW}", area, strides=(1,))
        text = windows[ends - WINDOW].view(np.uint8)
        text ^= ord("0")                            # digits 0..9, the point 0x1e
        d = text.view("<u8").reshape(-1, 3).T.copy()
        d &= self.keep.take(np.minimum(length, WINDOW) + self.word)
        point = (d.view(np.uint8) == 0x1E).view(u64)     # 1 in a point's byte
        d -= point * u64(0x1E)
        bad = (d.view(np.uint8) > 9).view(u64)      # a byte in a word other than a digit
        bad = bad[0] | bad[1] | bad[2]
        after = (point * ones) >> u64(56)           # the points in each word,
        after[1] += after[2]
        after[0] += after[1]                        # ... and in the words after it
        move = (point - u64(1)) * after             # the bytes before the point
        moved = d & move
        d += moved * u64(255)
        d[1:] += moved[:2] >> u64(56)
        for factor, shift, mask in self.steps:
            d *= factor
            d >>= shift
            d &= mask
        mant = d[0] * u64(10**16)
        mant += d[1] * u64(10**8)
        mant += d[2]
        move &= ones
        before = ((move[0] + move[1] + move[2]) * ones) >> u64(56)
        frac = (u64(WINDOW - 1) - before) * after[0]
        points = after[0].view(np.int64)
        slow = ((bad > 0) | (points > 1) | (length > WINDOW) | (length <= points)
                | (d[0] >= 1000) | (frac > 22))
        frac = np.minimum(frac, u64(22)).view(np.int64)
        whole = mant.astype(np.float64)
        q = whole / self.pow10[0].take(frac)
        big = np.flatnonzero(mant > u64(2**53))
        if big.size:
            m, k = mant[big], frac[big]
            high = (m & u64(2**64 - 2**11)).astype(np.float64)     # m == high + low, both exact
            ten = self.pow10[0].take(k)
            q0 = high / ten
            p, e = _pow10_product(q0, k, self.pow10)
            rest = high - p                         # exact (Sterbenz): p is near high
            rest -= e
            rest += (m & u64(2**11 - 1)).astype(np.float64)
            q1 = rest / ten
            s = q0 + q1
            z = q1 - (s - q0)                       # s + z == q0 + q1 exactly
            gap = s - (s.view(u64) - u64(1)).view(np.float64)
            q[big] = s
            slow[big] |= np.abs(z) > gap * (0.5 - 2.0**-21)
        bits = q.view(u64)
        bits |= neg.astype(u64) << u64(63)
        for c in np.flatnonzero(slow).tolist():
            try:
                q[c] = float(area[starts[c]:ends[c]])
            except ValueError:
                return None
        return q.reshape(-1, self.width)


def parse_records(path: Path, header: list[str]) -> Optional[np.ndarray]:
    """The records after the header, parsed by one :class:`BlockParser` in
    blocks of whole records of about ``CHUNK_BYTES``; None when it refuses
    a block, a record is longer than a block, or the header line is not
    ``header`` joined by commas and ended by CRLF, LF or CR."""
    names = ",".join(header).encode()
    with open(path, "rb") as fh:
        line = fh.readline(len(names) + 2)
        eol = next((e for e in (b"\r\n", b"\n", b"\r") if line[len(names):].startswith(e)), b"")
        if not line.startswith(names) or not eol:
            return None
        fh.seek(len(names) + len(eol))      # a CR line end: readline read on into the records
        parse = BlockParser(len(header), eol)
        end = WINDOW + CHUNK_BYTES
        # the windows of a block's first cells reach into the digits before
        # it; after it, room for the line end of a last record without one
        area = bytearray(b"0" * WINDOW + bytes(CHUNK_BYTES + len(eol)))
        parts, filled = [], WINDOW
        while True:
            got = fh.readinto(memoryview(area)[filled:end])
            filled += got
            if got:
                stop = area.rfind(eol[-1:], WINDOW, filled) + 1
                if not stop:
                    if filled == end:
                        return None         # a record longer than a block
                    continue
            elif filled > WINDOW:
                area[filled:filled + len(eol)] = eol
                stop = filled = filled + len(eol)
            else:
                break
            part = parse(area, stop)
            if part is None:
                return None
            parts.append(part)
            area[WINDOW:WINDOW + filled - stop] = area[stop:filled]
            filled += WINDOW - stop
    return np.concatenate(parts)
