"""The CSV row formatter gives exactly the bytes of ``%``.

``rowfmt.format_rows(fmt, n, rows)`` must join to ``((fmt * n) %
cells).encode()`` for every table the writers can hand it.  The floats are
drawn to hit its hard cases: raw bit patterns (subnormals, signed zeros,
infinities, NaN), decimal strings next to a rounding tie of the 17th digit,
floats exactly at such a tie, powers of ten with their neighbours, and
short decimals whose digits end in zeros.  Tables mix ``%.17g``, ``%d`` and
``%s`` columns with empty cells, as a minimal ledger's trace rows do, and
are cut into blocks of a few rows.  Columns and literals the formatter
does not take raise ValueError.

``PLGD_FORMAT_EXAMPLES`` sets the number of examples of each property
(default 100, drawn from a fixed seed).
"""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plgd import rowfmt

EXAMPLES = int(os.environ.get("PLGD_FORMAT_EXAMPLES", "100"))
SETTINGS = settings(max_examples=EXAMPLES, derandomize=True, deadline=None, database=None)

#: any float64, from its 64 bits
BITS = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
#: 17 digits, then a tail that puts the value at, just below or just above a
#: tie of the 17th digit, and an exponent
TIES = st.builds(
    lambda digits, tail, exp, sign: sign * float(f"{digits}{tail}e{exp}"),
    st.integers(10**16, 10**17 - 1),
    st.one_of(st.just("5"), st.integers(1, 20).map(lambda k: "4" + "9" * k),
              st.integers(1, 20).map(lambda k: "5" + "0" * k + "1")),
    st.integers(-300, 300),
    st.sampled_from([1.0, -1.0]),
)
#: floats exactly at a tie of the 17th digit: (2q + 1) / 2^(17 - k) lies
#: in [10^k, 10^(k + 1)) and ends in 5 at its 18th significant digit
EXACT_TIES = st.integers(0, 14).flatmap(lambda k: st.integers(
    10**k * 2 ** (16 - k), 10 ** (k + 1) * 2 ** (16 - k) - 1).map(lambda q: (2 * q + 1) / 2 ** (17 - k)))
#: 10^k correctly rounded, and the floats either side of it
POWERS = st.builds(
    lambda k, step: float(np.nextafter(float(f"1e{k}"), step * np.inf)) if step else float(f"1e{k}"),
    st.integers(-323, 308),
    st.sampled_from([-1, 0, 1]),
)
#: short decimals and integers, whose digit strings end in zeros
ROUND = st.builds(lambda m, e: m * 10.0**e, st.integers(-9999, 9999), st.integers(-8, 20))
FLOATS = st.one_of(BITS, TIES, EXACT_TIES, POWERS, ROUND, st.floats(-1e6, 1e6))
INTS = st.one_of(st.integers(0, 2**63 - 1), st.sampled_from([0, 9999, 10**4, 2**62, 2**63 - 1]))
#: the characters of a column of names: ASCII ones, as the writers' names are
NAME_CHARS = st.sampled_from(" _az-.09")
#: the text between two cells; several commas stand for empty cells
SEPARATORS = st.sampled_from(["", ",", ",,", ",,,", "\n", ",\n", ",,\n", " | "])


def percent(fmt: str, columns: list) -> bytes:
    cells = [c.tolist() for c in columns]
    return ((fmt * len(columns[0])) % tuple(cell for row in zip(*cells) for cell in row)).encode()


def formatted(fmt: str, columns: list, block: int) -> bytes:
    """``format_rows`` joined, with blocks of ``block`` float cells."""
    default, rowfmt._BLOCK = rowfmt._BLOCK, block
    try:
        return b"".join(rowfmt.format_rows(fmt, len(columns[0]), lambda lo, hi: [
            c[lo:hi] for c in columns]))
    finally:
        rowfmt._BLOCK = default


@SETTINGS
@given(values=st.lists(FLOATS, min_size=1, max_size=300))
def test_float_cells_are_exactly_percent_17g(values):
    x = np.array(values)
    assert formatted("%.17g\n", [x], 2048) == percent("%.17g\n", [x])


@st.composite
def tables(draw):
    """A row format and its columns: floats, non-negative ints, ASCII names
    and bools, among empty cells."""
    n = draw(st.integers(1, 40))
    specs, columns = [], []
    for kind in draw(st.lists(st.sampled_from(["float", "int", "str", "bool"]),
                              min_size=1, max_size=6)):
        if kind == "float":
            specs.append("%.17g")
            columns.append(np.array(draw(st.lists(FLOATS, min_size=n, max_size=n))))
        elif kind == "int":
            specs.append("%d")
            columns.append(np.array(draw(st.lists(INTS, min_size=n, max_size=n)), dtype=np.int64))
        elif kind == "bool":
            specs.append("%s")
            columns.append(np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))))
        else:
            specs.append("%s")
            names = draw(st.lists(st.text(NAME_CHARS, max_size=25), min_size=n, max_size=n))
            columns.append(np.array(names, dtype=str))
    seps = draw(st.lists(SEPARATORS, min_size=len(specs) + 1, max_size=len(specs) + 1))
    fmt = seps[0] + "".join(spec + sep for spec, sep in zip(specs, seps[1:]))
    return fmt, columns


@SETTINGS
@given(table=tables(), block=st.sampled_from([1, 3, 2048]))
def test_mixed_rows_are_exactly_percent(table, block):
    fmt, columns = table
    assert formatted(fmt, columns, block) == percent(fmt, columns)


@pytest.mark.parametrize("fmt, column", [
    ("%d\n", np.array([3, -1])),  # a negative int
    ("%d\n", np.array([True, False])),  # a bool as %d
    ("%d\n", np.array([1.0, 2.0])),  # a float as %d
    ("%s\n", np.array([1, 2])),  # an int as %s
    ("%s\n", np.array(["run", "lauf", "çık"])),  # a non-ASCII name
    ("%s\n", np.array(["a\0b", "c"])),  # a NUL inside a name
    ("%s\n", np.array(["a", None], dtype=object)),  # an object column
    ("%s\0\n", np.array(["a", "b"])),  # a NUL literal
    ("%s%%\n", np.array(["a", "b"])),  # a literal %
    ("%s,%s\n", np.array(["a", "b"])),  # a conversion without a column
])
def test_refused_columns_and_literals_raise(fmt, column):
    with pytest.raises(ValueError):
        formatted(fmt, [column], 2048)
