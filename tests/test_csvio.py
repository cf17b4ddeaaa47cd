import math

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from omtransfer.csvio import build_csv, format_value

EDGE_FLOATS = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    1e-310,
    math.inf,
    -math.inf,
    math.nan,
    1e300,
    -1e-300,
    1.7976931348623157e308,
    3.0,
    -12.0,
    1e12,
    123456789012.0,
    1234567890123.0,
    0.1,
    1 / 3,
    # the product y = v * 10**(11 - x) lands within its error of a rounding tie:
    # without the fallback band these print a wrong 12th digit
    0.3128910986805,
    4.768107029395e-10,
    3.591452681865e-17,
    -7.304238781825001e-18,
    -5.211578665025e16,
    -3.4814247386450004e-12,
    # exact ties in the 13th digit, which round half to even
    100000000000.5,
    999999999999.5,
    1234567890.125,
    # the edges between fixed and scientific notation, after rounding
    9.9999999999995e-05,
    0.0001,
    1e-05,
    999999999999.4,
    # the edges of the vectorized range, and their neighbours
    *(float(np.nextafter(e, toward)) for e in (1e-290, -1e-290, 1e290, -1e290) for toward in (e, 0.0, 2 * e)),
]


def _cell_by_cell(header, table):
    lines = [",".join(header)]
    lines += [",".join(format_value(x) for x in row) for row in table.tolist()]
    return "\n".join(lines) + "\n"


@st.composite
def _tables(draw):
    shape = (draw(st.integers(0, 6)), draw(st.integers(1, 5)))
    cells = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True))
    return draw(arrays(np.float64, shape, elements=cells))


@st.composite
def _large_tables(draw):
    """Up to 20,000 cells, uniform over the bit patterns of all finite float64 values."""
    shape = (draw(st.integers(1, 5000)), draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
    return np.where(np.isfinite(table), table, 0.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_tables())
def test_array_rows_match_format_value_rows(table):
    header = [f"c{j}" for j in range(table.shape[1])]
    assert build_csv(header, table) == _cell_by_cell(header, table)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_large_tables())
def test_large_tables_match_format_value_rows(table):
    header = [f"c{j}" for j in range(table.shape[1])]
    assert build_csv(header, table) == _cell_by_cell(header, table)


def test_edge_floats_in_one_table():
    table = np.array(EDGE_FLOATS).reshape(1, -1)
    header = [f"c{j}" for j in range(table.shape[1])]
    text = build_csv(header, table)
    assert text == _cell_by_cell(header, table)
    assert text.splitlines()[1].split(",")[:9] == [
        "0", "-0", "4.94065645841e-324", "-4.94065645841e-324",
        "2.22507385851e-308", "1e-310", "inf", "-inf", "nan",
    ]
    # each edge float in both columns of a reversed, strided view
    strided = np.array(EDGE_FLOATS * 3).reshape(3, -1).T[::-1, ::2]
    assert build_csv(header[:2], strided) == _cell_by_cell(header[:2], strided)


def test_mixed_rows_keep_cell_formatting():
    rows = [[0.5, "", True, 3], [1e-7, "x", False, -2]]
    assert build_csv(["a", "b", "c", "d"], rows) == "a,b,c,d\n0.5,,1,3\n1e-07,x,0,-2\n"


def test_empty_table_is_header_only():
    assert build_csv(["t", "re"], np.empty((0, 2))) == "t,re\n"
