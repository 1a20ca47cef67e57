"""Exact ``%``-formatted CSV rows from numpy columns.

:func:`format_rows` gives the bytes of ``((fmt * n) % cells).encode()``
for n rows, a block of about _BLOCK float cells at a time, each block's
columns pulled from the caller, without a Python object per cell.  A row
format holds ``%.17g`` for float columns, ``%d`` for non-negative integer
columns and ``%s`` for bool columns or ASCII str (``U``) columns, and
literal text without ``%`` or NUL; anything else raises ValueError.  Each
cell becomes a fixed-width slot of 8-byte words padded with NUL bytes; a
block of rows is its slots and the format's literal text side by side,
and one ``bytes.translate`` drops the padding.

A ``%.17g`` cell is built from its 17 significant digits as an exact
integer D (Loitsch, "Printing floating-point numbers quickly and
accurately with integers", PLDI 2010, gives the shape: a fast integer path
plus a test that hands the values it cannot decide to an exact printer).
D is |x| 10^(16-k) rounded to an integer, where 10^k <= |x| < 10^(k+1).
The product comes from a double-double 10^(16-k), two correctly rounded
floats made from Python ints, and a Dekker split of x, so it is off by less
than 2^-40 (in units of D's last digit).  A product within 2^-30 of a
rounding tie is left to ``%``, as are zeros, subnormals, infinities, NaN
and |x| outside [1e-270, 1e290]: each such cell is formatted on its own by
``%`` into its slot.  The digits then go into the slot by table lookups,
shifts and masks on the words, which place the decimal point, the leading
``0.000``, the exponent and the sign, and clear the trailing zeros ``%g``
drops.
"""

from __future__ import annotations

import re
from functools import cache

import numpy as np

#: a conversion of a row format
_SPEC = re.compile(r"(%\.17g|%d|%s)")
#: float cells formatted together; a block of rows holds about this many
_BLOCK = 2048

_U8, _U4 = np.dtype("<u8"), np.dtype("<u4")
_E4, _E8, _E16 = 10**4, 10**8, 10**16
#: the float slot: four 8-byte words, of which the text may fill the first
#: 30 bytes; '-1.2345678901234567e-300' is 24 bytes
_FLOAT_WIDTH, _FLOAT_TEXT = 32, 30
#: |x| whose digits come from the double-double product, as float64 bits:
#: its split and its partial products stay finite and normal
_LOW_BITS, _HIGH_BITS = np.array([1e-270, 1e290]).view(np.uint64)
#: a product this close to a rounding tie goes to ``%``
_TIE = 2.0**-30
#: clears a float64's low 27 mantissa bits: the high part of a split
_SPLIT = np.uint64(2**64 - 2**27)
#: the decimal exponents the layout tables cover, from -_XOFF
_XOFF = 330
_SH8, _SH48, _SH56 = np.uint64(8), np.uint64(48), np.uint64(56)
#: offsets in the digit table, whose first part holds the four digits of
#: each of 0..9999 as little-endian ASCII: the same with trailing zeros as
#: NUL, with leading zeros as NUL, then a "0" in a group's last byte
_TS, _TL, _ZERO = _E4, 2 * _E4, 3 * _E4


def format_rows(fmt: str, n: int, rows):
    """The bytes of ``((fmt * n) % cells).encode()`` for rows 0..n-1, as an
    iterator of blocks of rows; ``rows(lo, hi)`` gives the parallel array
    columns of rows lo..hi-1, one per conversion of ``fmt``, and a block
    holds about _BLOCK float cells."""
    parts = _SPEC.split(fmt)
    literals, specs = [lit.encode() for lit in parts[0::2]], parts[1::2]
    if any(b"%" in lit or b"\0" in lit for lit in literals):
        raise ValueError(f"row format {fmt!r} holds a literal % or NUL")
    size = max(1, _BLOCK // max(1, specs.count("%.17g")))
    for lo in range(0, n, size):
        yield _block(literals, specs, rows(lo, min(lo + size, n))).translate(None, b"\0")


def _block(literals: list, specs: list, columns: list) -> bytearray:
    """The rows of ``columns`` as slots: each row its fields of 8-byte
    words, which a cell fills with its NUL-padded text and a literal with
    its own, or it joins the cell's last word where that has room."""
    if len(columns) != len(specs):
        raise ValueError(f"{len(specs)} conversions for {len(columns)} columns")
    m = len(columns[0])
    x = np.array([c for s, c in zip(specs, columns) if s == "%.17g"], float).reshape(-1, m)
    slots = iter(_float_words(x.ravel()).reshape(4, len(x), m).transpose(1, 0, 2))
    # each cell's (k, m) words and the bytes of a row's words its text may fill
    cells = [(next(slots), _FLOAT_TEXT) if s == "%.17g" else _cell_words(s, np.asarray(c))
             for s, c in zip(specs, columns)]
    fields = [_words(lit) for lit in literals[:1] if lit]
    for (words, used), lit in zip(cells, literals[1:]):
        room = 8 * len(words) - used
        if 0 < len(lit) <= room:  # the literal joins the cell's last word
            words[-1] |= np.uint64(int.from_bytes(lit, "little") << 8 * (8 - room))
            lit = b""
        fields += [words] + ([_words(lit)] if lit else [])
    width = sum(len(f) for f in fields)
    block = bytearray(8 * m * width)
    table = np.frombuffer(block, _U8).reshape(m, width)
    at = 0
    for f in fields:
        table[:, at:at + len(f)] = f.T
        at += len(f)
    return block


def _words(text: bytes) -> np.ndarray:
    """``text`` as 8-byte words, NUL-padded."""
    return np.frombuffer(text.ljust(-(-len(text) // 8) * 8, b"\0"), _U8)


#: "False" and "True" as words
_BOOLS = np.frombuffer(b"False\0\0\0True\0\0\0\0", _U8)


def _cell_words(spec: str, col: np.ndarray) -> tuple:
    """(k, m) words, the NUL-padded text of a ``%d`` or ``%s`` column, and
    the bytes of a row's words that text may fill."""
    kind = col.dtype.kind
    if spec == "%s" and kind == "b":
        return _BOOLS.take(col.view(np.uint8))[None], 5
    if spec == "%d" and kind in "iu" and not (col < 0).any():
        return _int_words(col.astype(np.uint64))
    if spec == "%s" and kind == "U":
        chars = np.ascontiguousarray(col).view(np.uint32).reshape(col.size, -1)
        nul = chars == 0
        if (chars < 128).all() and not (nul[:, :-1] > nul[:, 1:]).any():  # ASCII, no NUL inside
            text = np.zeros((len(chars), -(-chars.shape[1] // 8) * 8), np.uint8)
            text[:, :chars.shape[1]] = chars
            return text.view(_U8).T, chars.shape[1]
    raise ValueError(f"no {spec} cells for a {col.dtype} column of these values")


def _int_words(u: np.ndarray) -> tuple:
    """(k, m) words, the digits of uint64 ``u`` in four-digit groups,
    leading zeros as NUL, and the bytes of a row they fill."""
    g = max(1, -(-len(str(int(u.max()))) // 4))
    lanes = np.full((-(-g // 2), u.size, 2), _TS)  # 4-byte lanes
    groups = [lanes[i // 2, :, i % 2] for i in range(g)]  # most significant first
    for group in groups[:0:-1]:
        q = u // np.uint64(_E4)
        group[:] = u - q * np.uint64(_E4)
        u = q
    groups[0][:] = u
    # a group after zero groups only drops its leading zeros; the last keeps one digit
    leading = groups[0] == 0
    groups[0] += _TL
    for group in groups[1:]:
        zero = group == 0
        np.add(group, _TL, out=group, where=leading)
        leading &= zero
    groups[-1][leading] = _ZERO  # u == 0
    return _tables().digits.take(lanes).view(_U8).reshape(len(lanes), u.size), 4 * g


# ---------------------------------------------------------------------------
# floats


def _float_words(x: np.ndarray) -> np.ndarray:
    """(4, n) words: the NUL-padded ``%.17g`` of each float of ``x``.

    Slot bytes: 0 the sign, 1-5 a leading ``0.000``, 6 the first digit, 7 a
    point after it, 8-23 the other sixteen digits, or from 8 on the digits
    before and after a point among them, and 25-29 the exponent.
    """
    a = np.abs(x)
    fast = a.view(_U8) - _LOW_BITS <= _HIGH_BITS - _LOW_BITS  # not NaN either
    if not fast.all():
        a[~fast] = 1.0
    xi = np.log10(a)  # the decimal exponent, from -_XOFF
    xi = np.floor(xi, out=xi).astype(np.int64)
    xi += _XOFF
    d, near, edge, step = _digits17(a, xi)
    del a
    # log10 can miss the decade by one next to a power of ten
    if edge.size:
        xi[edge] += step
        d[edge], near[edge], _, _ = _digits17(np.abs(x[edge]), xi[edge])
    carried = (d == 10 * _E16).nonzero()[0]  # rounded up to the next decade
    if carried.size:
        d[carried] = _E16
        xi[carried] += 1
    near |= ~fast
    exact = near.nonzero()[0]
    del fast, near

    t = _tables()
    words = np.empty((4, x.size), _U8)
    lead = d // _E16
    d -= lead * _E16
    lead += 48
    np.left_shift(lead.view(_U8), _SH48, out=words[0])
    del lead
    halves = np.empty((2, x.size), np.int64)  # digits 1-8 and 9-16
    np.floor_divide(d, _E8, out=halves[0])
    np.subtract(d, halves[0] * _E8, out=halves[1])
    del d
    high = halves // _E4  # digits 1-4 and 9-12
    halves -= high * _E4  # digits 5-8 and 13-16
    # trailing zero digits as NUL: a group followed by zero groups only is stripped
    zero = halves == 0
    strip = zero[1]
    np.add(high[1], _TS, out=high[1], where=strip)
    strip &= high[1] == _TS
    np.add(halves[0], _TS, out=halves[0], where=strip)
    strip &= zero[0]
    np.add(high[0], _TS, out=high[0], where=strip)
    halves[1] += _TS
    tail = words[1:3]
    lanes = np.empty((2, x.size, 2), np.int64)  # the table entries of the tail's 4-byte lanes
    lanes[:, :, 0], lanes[:, :, 1] = high, halves
    del high, halves, strip
    t.digits.take(lanes, out=tail.view(_U4).reshape(lanes.shape), mode="clip")
    del lanes

    if edge.size or carried.size:
        t.make(xi)
    # sign, "0.000", and in exponent notation a point if a nonzero digit follows
    mark = 2 * xi + np.signbit(x)
    mark += mark + ((tail[0] & np.uint64(0xFF)) != 0)
    words[0] |= t.lead.take(mark)
    del mark
    t.exponent.take(xi, out=words[3], mode="clip")
    # fixed notation from 1: the digits before the point stay, the others
    # move up a byte behind it, and integer zeros dropped as trailing come back
    fixed = ((xi - _XOFF).view(_U8) <= np.uint64(16)).nonzero()[0]
    if fixed.size:
        k = xi.take(fixed) - _XOFF
        digits = tail.take(fixed, axis=1)
        keep = t.keep.take(k, axis=1)
        keep &= digits
        digits ^= keep  # the digits that move
        fraction = (digits[0] | digits[1]) != 0
        words[3][fixed] = digits[1] >> _SH56  # the last digit, moved out; none moves at 16
        carry = digits[0] >> _SH56
        digits <<= _SH8
        digits[1] |= carry
        digits &= t.moved.take(k, axis=1)
        digits |= keep
        digits |= t.fill.take(2 * k + fraction, axis=1)
        words[1][fixed], words[2][fixed] = digits

    for i in exact:
        words[:, i] = np.frombuffer(("%.17g" % x[i]).encode().ljust(_FLOAT_WIDTH, b"\0"), _U8)
    return words


def _digits17(a: np.ndarray, xi: np.ndarray) -> tuple:
    """``a * 10**(16 - k)``, k = ``xi - _XOFF``, rounded to an integer, half
    to even; where that product lies within _TIE of a tie; and where it lies
    outside [10^16, 10^17), with the step to k's decade."""
    t = _tables()
    if not t.made.take(xi).all():
        t.make(xi)
    # Dekker's product: p + e = a * (hi + low), hi's and a's halves multiplied exactly
    power = t.powers[0].take(xi)
    p = a * power
    a_big = (a.view(_U8) & _SPLIT).view(np.float64)
    a_small = a - a_big
    t.powers[1].take(xi, out=power, mode="clip")
    e = a_big * power
    e -= p
    e += np.multiply(a_small, power, out=power)
    t.powers[2].take(xi, out=power, mode="clip")
    e += np.multiply(a_big, power, out=a_big)
    e += np.multiply(a_small, power, out=a_small)
    t.powers[3].take(xi, out=power, mode="clip")
    e += np.multiply(a, power, out=power)
    del a_big, a_small
    # -1 where the product p + e is below 10^16, 1 where it is 10^17 or more
    edge = step = ((p <= 1e16) | (p >= 1e17)).nonzero()[0]
    if edge.size:
        pe, ee = p[edge], e[edge]
        step = ((pe > 1e17) | (pe == 1e17) & (ee >= 0)).astype(np.int64) - (
            (pe < 1e16) | (pe == 1e16) & (ee < 0))
        edge, step = edge[step != 0], step[step != 0]
    r = np.rint(e, out=power)
    d = p.astype(np.int64)
    d += r.astype(np.int64)
    e -= r
    near = np.abs(e, out=e) > 0.5 - _TIE
    return d, near, edge, step


@cache
def _power(s: int) -> tuple:
    """10^s as hi + low, each correctly rounded, and hi's Dekker split."""
    num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
    hi = num / den
    m, e = hi.as_integer_ratio()
    low = (num * e - m * den) / (den * e)
    c = hi * 134217729.0  # 2**27 + 1
    big = c - (c - hi)
    return hi, big, hi - big, low


class _Tables:
    """The lookup tables of the slots: the digit groups, made with numpy
    arithmetic, and the words of each decimal exponent, made in Python when
    the exponent first occurs."""

    def __init__(self):
        # the four digits of a group on four axes, the first digit the lowest byte
        axes = [(10,) + (1,) * (3 - i) for i in range(4)]
        chars = [(np.arange(48, 58, dtype=np.uint32) << 8 * i).reshape(a) for i, a in enumerate(axes)]
        zero = [(np.arange(10) == 0).reshape(a) for a in axes]
        trailing, leading = [zero[3]], [zero[0]]  # zeros from digit i to the last, from the first to i
        for i in (2, 1, 0):
            trailing.insert(0, zero[i] & trailing[0])
        for i in (1, 2, 3):
            leading.append(zero[i] & leading[-1])
        #: digit groups as little-endian ASCII, at the offsets above
        self.digits = np.zeros(_ZERO + 1, _U4)
        for part, dropped in enumerate(([False] * 4, trailing, leading)):
            group = self.digits[part * _E4:(part + 1) * _E4].reshape((10,) * 4)
            for c, z in zip(chars, dropped):
                group |= c * ~np.asarray(z)
        self.digits[_ZERO] = ord("0") << 24

        # fixed notation from 1, exponents p = 0..16: the point follows tail
        # byte p - 1 (p = 16: no point); bytes 0-15 of words 1-2 as tail bytes
        def words(rows):
            return np.frombuffer(b"".join(rows), _U8).reshape(len(rows), 2).T.copy()

        #: words 1-2 by exponent 0..16: the tail bytes that stay
        self.keep = words([b"\xff" * p + bytes(16 - p) for p in range(16)] + [b"\xff" * 16])
        #: words 1-2 by exponent 0..16: the bytes after the point, taken one byte later
        self.moved = words([bytes(p + 1) + b"\xff" * (15 - p) for p in range(16)] + [bytes(16)])
        #: words 1-2 by exponent 0..16 and nonzero fraction: integer zeros and the point
        self.fill = words([(b"0" * p + b"." * fraction * (p < 16)).ljust(16, b"\0")
                           for p in range(17) for fraction in (0, 1)])

        #: by exponent from -_XOFF, made with the exponent: 10^(16 - x) as by
        #: _power, word 0 by sign and nonzero fraction, and word 3
        self.made = np.zeros(2 * _XOFF + 1, bool)
        self.powers = np.zeros((4, self.made.size))
        self.lead = np.zeros(4 * self.made.size, _U8)
        self.exponent = np.zeros(self.made.size, _U8)

    def make(self, xi: np.ndarray) -> None:
        """Make the entries of the exponents ``xi - _XOFF`` not made yet."""
        todo = xi[~self.made.take(xi)]
        for i in set(todo.tolist()):
            x = i - _XOFF
            self.powers[:, i] = _power(16 - x)
            fixed = -4 <= x <= 16
            # the sign, "0.000" for -4 <= x < 0, and in exponent notation a point
            prefix = b"0." + b"0" * (-x - 1) if fixed and x < 0 else b""
            self.lead[4 * i:4 * i + 4] = [
                int.from_bytes((sign + prefix).ljust(7, b"\0") + (b"." if point else b"\0"), "little")
                for sign in (b"\0", b"-") for point in (False, not fixed)]
            self.exponent[i] = 0 if fixed else int.from_bytes(b"\0" + b"e%+03d" % x, "little")
            self.made[i] = True


@cache
def _tables() -> _Tables:
    return _Tables()
