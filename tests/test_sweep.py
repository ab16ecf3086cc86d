import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pomtrans.sweep import CSV_BLOCK_ROWS, FLOAT_FORMAT, SweepResult, format_float


def test_float_format_is_12_significant_digits():
    assert format_float(1 / 3) == "3.33333333333e-01"
    assert format_float(6.02214076e23) == "6.02214076000e+23"


def test_csv_round_trip():
    r = SweepResult(columns={
        "x": np.array([1.0, 2.0, 3.0]),
        "y": np.array([0.1, 0.25, 1e-12]),
    })
    text = r.to_csv()
    back = SweepResult.from_csv_text(text)
    np.testing.assert_array_equal(back.columns["x"], r.columns["x"])
    np.testing.assert_array_equal(back.columns["y"], r.columns["y"])


def test_complex_columns_split_on_write():
    r = SweepResult(columns={"g": np.array([1 + 2j, 3 - 4j])})
    text = r.to_csv()
    assert text.splitlines()[0] == "g_re,g_im"
    back = SweepResult.from_csv_text(text)
    np.testing.assert_array_equal(back.columns["g_re"], [1.0, 3.0])
    np.testing.assert_array_equal(back.columns["g_im"], [2.0, -4.0])


def test_serialization_is_deterministic():
    r = SweepResult(columns={"a": np.linspace(0, 1, 7), "b": np.geomspace(1e-3, 1e3, 7)})
    assert r.to_csv() == r.to_csv()


def test_column_length_mismatch_rejected():
    with pytest.raises(ValueError, match="length"):
        SweepResult(columns={"a": np.array([1.0]), "b": np.array([1.0, 2.0])})


def test_ragged_row_rejected_on_read():
    with pytest.raises(ValueError, match="width"):
        SweepResult.from_csv_text("a,b\n1.0\n")


def test_save_and_load(tmp_path):
    r = SweepResult(columns={"x": np.array([1.5, 2.5])})
    path = tmp_path / "out.csv"
    r.save_csv(path)
    back = SweepResult.load_csv(path)
    np.testing.assert_array_equal(back.columns["x"], r.columns["x"])


def reference_csv(result: SweepResult) -> str:
    """The per-element writer ``to_csv`` replaced, kept as its oracle."""
    cols = []
    for col in result.columns.values():
        if np.iscomplexobj(col):
            cols.extend([col.real, col.imag])
        else:
            cols.append(col)
    lines = [",".join(result.header())]
    lines.extend(",".join(FLOAT_FORMAT.format(float(c[i])) for c in cols)
                 for i in range(len(result)))
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
               2.2250738585072009e-308, sys.float_info.max, -sys.float_info.max]
floats64 = st.one_of(st.sampled_from(EDGE_FLOATS),
                     st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
lengths = st.sampled_from([0, 1, 2, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
int64s = st.integers(-2**63, 2**63 - 1)


def _column(draw, kind, n):
    """A length-``n`` column cycling through values Hypothesis draws."""
    if kind == "int":
        pool = np.array(draw(st.lists(int64s, min_size=1, max_size=32)), dtype=np.int64)
        return np.resize(pool, n)
    re = np.resize(np.array(draw(st.lists(floats64, min_size=1, max_size=32))), n)
    if kind == "real":
        return re
    col = np.empty(n, dtype=complex)  # set parts directly: 1j * inf would put nan in .real
    col.real = re
    col.imag = np.resize(np.array(draw(st.lists(floats64, min_size=1, max_size=32))), n)[::-1]
    return col


@st.composite
def sweep_results(draw):
    n = draw(lengths)
    kinds = draw(st.lists(st.sampled_from(["real", "complex", "int"]), min_size=1, max_size=4))
    return SweepResult(columns={f"c{i}": _column(draw, kind, n) for i, kind in enumerate(kinds)})


@settings(max_examples=50, deadline=None)
@given(sweep_results())
def test_bulk_writer_matches_per_element_reference(result):
    # compare lines: a failing diff of two whole 16k-row strings takes minutes
    assert result.to_csv().split("\n") == reference_csv(result).split("\n")


def test_bulk_writer_edge_values_and_empty_table():
    values = np.array(EDGE_FLOATS)
    z = np.empty(len(values), dtype=complex)
    z.real, z.imag = values[::-1], values
    ints = np.array([0, -1, 2**53 + 1, 2**63 - 1, -2**63] * 2)
    r = SweepResult(columns={"x": values, "z": z, "n": ints})
    assert r.to_csv() == reference_csv(r)
    assert SweepResult(columns={}).to_csv() == reference_csv(SweepResult(columns={})) == "\n"
