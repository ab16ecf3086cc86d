import itertools
import math
import sys

import numpy as np
import pytest
from conftest import read_table
from hypothesis import given, settings
from hypothesis import strategies as st

from pomtrans import cli, sweep
from pomtrans.sweep import CSV_BLOCK_ROWS, FLOAT_FORMAT, SweepResult, format_float


def test_float_format_is_12_significant_digits():
    assert format_float(1 / 3) == "3.33333333333e-01"
    assert format_float(6.02214076e23) == "6.02214076000e+23"


def test_csv_round_trip(tmp_path):
    r = SweepResult(columns={
        "x": np.array([1.0, 2.0, 3.0]),
        "y": np.array([0.1, 0.25, 1e-12]),
    })
    path = tmp_path / "out.csv"
    path.write_text(r.to_csv(), encoding="utf-8")
    back = read_table(path)
    np.testing.assert_array_equal(back["x"], r.columns["x"])
    np.testing.assert_array_equal(back["y"], r.columns["y"])


def test_complex_column_rejected_by_name():
    with pytest.raises(ValueError, match="column 'g' is complex; tables are real-valued"):
        SweepResult(columns={"x": np.array([1.0, 2.0]), "g": np.array([1 + 2j, 3 - 4j])})


def test_serialization_is_deterministic():
    r = SweepResult(columns={"a": np.linspace(0, 1, 7), "b": np.geomspace(1e-3, 1e3, 7)})
    assert r.to_csv() == r.to_csv()


@pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
def test_csv_chunks_are_the_header_then_one_per_block(rows):
    # a writer holds one block of text at a time, never the table
    r = SweepResult(columns={"a": np.linspace(1, 2, rows), "b": np.ones(rows)})
    chunks = list(r.csv_chunks())
    assert chunks[0] == "a,b\n"
    assert [len(c.splitlines()) for c in chunks[1:]] == [
        min(CSV_BLOCK_ROWS, rows - start) for start in range(0, rows, CSV_BLOCK_ROWS)]


def test_column_length_mismatch_rejected():
    with pytest.raises(ValueError, match="length"):
        SweepResult(columns={"a": np.array([1.0]), "b": np.array([1.0, 2.0])})


def reference_csv(result: SweepResult) -> str:
    """The per-element writer ``to_csv`` replaced, kept as its oracle."""
    cols = list(result.columns.values())
    lines = [",".join(result.columns)]
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
    return np.resize(np.array(draw(st.lists(floats64, min_size=1, max_size=32))), n)


@st.composite
def sweep_results(draw):
    n = draw(lengths)
    kinds = draw(st.lists(st.sampled_from(["real", "int"]), min_size=1, max_size=4))
    return SweepResult(columns={f"c{i}": _column(draw, kind, n) for i, kind in enumerate(kinds)})


@settings(max_examples=50, deadline=None)
@given(sweep_results())
def test_bulk_writer_matches_per_element_reference(result):
    # compare lines: a failing diff of two whole 16k-row strings takes minutes
    assert result.to_csv().split("\n") == reference_csv(result).split("\n")


def test_bulk_writer_edge_values_and_empty_table():
    values = np.array(EDGE_FLOATS)
    ints = np.array([0, -1, 2**53 + 1, 2**63 - 1, -2**63] * 2)
    r = SweepResult(columns={"x": values, "z_re": values[::-1], "z_im": values, "n": ints})
    assert r.to_csv() == reference_csv(r)
    assert SweepResult(columns={}).to_csv() == reference_csv(SweepResult(columns={})) == "\n"


# --- the vectorized '%.11e' fast path -----------------------------------------

FAST_MIN, FAST_MAX = 1e-99, 9.9e99


def percent_block(block: np.ndarray) -> str:
    """The ``%`` line the fast path stands in for."""
    row = ",".join(["%.11e"] * block.shape[1]) + "\n"
    return (row * len(block)) % tuple(block.ravel().tolist())


@st.composite
def fast_path_results(draw):
    """Tables of positive floats in [1e-99, 9.9e99], all of whose blocks take the fast path."""
    n = draw(st.sampled_from([CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for i in range(draw(st.integers(1, 3))):
        col = 10 ** rng.uniform(math.log10(FAST_MIN), math.log10(FAST_MAX), n)
        drawn = draw(st.lists(st.floats(FAST_MIN, FAST_MAX), min_size=1, max_size=64))
        col[rng.integers(0, n, len(drawn))] = drawn
        columns[f"c{i}"] = col
    return SweepResult(columns=columns)


@settings(max_examples=30, deadline=None)
@given(fast_path_results())
def test_fast_path_matches_per_element_reference(result):
    assert result.to_csv().split("\n") == reference_csv(result).split("\n")


def _ulps_around(x: float) -> list[float]:
    return [np.nextafter(x, 0.0), x, np.nextafter(x, math.inf)]


FAST_EDGES = np.array(
    # exact ties: half-to-even goes down on ...2|5 and up on ...3|5
    [1234567890125.0, 1234567890135.0, 123456789012.5, 123456789013.5]
    + [float(10**12 + 10 * k + 5) for k in range(200)]
    # decimal ties that are not binary ties: the near-tie window decides them
    + [float(f"1.234567890125e{n}") for n in range(-99, 99)]
    # decimal ties whose scaled float lands 2**-13 (one ulp) on the wrong side of the tie
    + [9.999956205835e-39, 9.999765649605e-12, 9.999690893225e16, 9.999632269535e87]
    # powers of ten, where log10 can put the exponent one off
    + [v for k in range(-99, 100) for v in _ulps_around(10.0**k) if v >= 1e-99]
    # mantissas that round up into the next exponent
    + [float(f"9.9999999999995e{n}") for n in range(-99, 99)]
    + [float(f"9.99999999999949e{n}") for n in range(-99, 99)]
    + [1e-99, FAST_MAX])


def test_fast_path_edge_values_match_percent():
    block = FAST_EDGES.reshape(-1, 1)
    text = sweep._e11_block(block)
    assert text is not None
    assert text.split("\n") == percent_block(block).split("\n")
    table = SweepResult(columns={"a": FAST_EDGES, "b": FAST_EDGES[::-1]})
    assert table.to_csv().split("\n") == reference_csv(table).split("\n")


@pytest.mark.parametrize("shift", [-0.75, 0.75])
def test_fast_path_fixes_an_exponent_estimate_one_off(monkeypatch, shift):
    # the scaled-mantissa check, not the accuracy of log10, makes the exponent exact
    log10 = np.log10
    monkeypatch.setattr(sweep.np, "log10", lambda x: log10(x) + shift)
    block = np.column_stack([FAST_EDGES, FAST_EDGES[::-1]])
    assert sweep._e11_block(block).split("\n") == percent_block(block).split("\n")


@pytest.mark.parametrize("odd", [
    -0.0, -1.0, math.nan, math.inf, 5e-324, np.nextafter(1e-99, 0.0),
    9.99999999999995e99, 9.999999999995e99, 1e100, sys.float_info.max])
def test_out_of_range_value_sends_its_block_to_percent(odd):
    block = np.column_stack([FAST_EDGES, FAST_EDGES[::-1]])
    block[len(block) // 2, 1] = odd
    assert sweep._e11_block(block) is None
    table = SweepResult(columns={"a": block[:, 0], "b": block[:, 1]})
    assert table.to_csv() == reference_csv(table)


def test_positive_zero_takes_the_fast_path():
    # +0.0 prints in 17 characters like every fast-path value, so its block stays fast
    block = np.column_stack([FAST_EDGES, FAST_EDGES[::-1]])
    block[0] = 0.0
    block[len(block) // 2, 1] = 0.0
    assert sweep._e11_block(block).split("\n") == percent_block(block).split("\n")
    assert sweep._e11_block(np.zeros((3, 2))) == "0.00000000000e+00,0.00000000000e+00\n" * 3


def test_fast_path_upper_bound_sits_below_three_digit_exponents():
    bound = 9.999999999995e99
    assert format_float(np.nextafter(bound, math.inf)) == "1.00000000000e+100"
    below = np.nextafter(bound, 0.0)
    assert sweep._e11_block(np.array([[below]])) == format_float(below) + "\n" == "9.99999999999e+99\n"
    assert sweep._e11_block(np.array([[bound]])) is None


@pytest.mark.parametrize("argv", [
    ["spectrum", "--grid-points", "40001"],
    ["contour", "--grid-points", "201", "131"],
    ["efficiency-curve"],
    ["rings", "--grid-points", "3001"],
])
def test_cli_tables_take_the_fast_path(tmp_path, monkeypatch, argv):
    blocks, formatted = [], []
    fast, records = sweep._e11_block, sweep._records

    def spy(block):
        text = fast(block)
        assert text == percent_block(block)
        blocks.append(len(block))
        return text

    def count(values):
        rec = records(values)
        assert rec is not None  # no value a block reaches sends it to '%'
        formatted.append(values.size)
        return rec

    written, csv_blocks = [], sweep.csv_blocks

    def record(columns, conversion):
        for text in csv_blocks(columns, conversion):
            written.append(text)
            yield text

    monkeypatch.setattr(sweep, "_e11_block", spy)
    monkeypatch.setattr(sweep, "_records", count)
    monkeypatch.setattr(sweep, "csv_blocks", record)
    assert cli.main([*argv, "--out", str(tmp_path / "t")]) == 0
    rows = len((tmp_path / "t.csv").read_text("utf-8").splitlines()) - 1
    if argv[0] != "contour":
        assert sum(blocks) == rows > 0
        return
    # the axes broadcast over the (n_g, n_k) grid: each block formats its
    # efficiencies and at most n_g + n_k axis values, not one of each per row
    n_g, n_k = 201, 131
    assert rows == n_g * n_k and len(written) == 2
    assert rows < sum(formatted) <= rows + len(written) * (n_g + n_k)


# --- tables whose columns broadcast ---------------------------------------------

#: table shapes: 1-D, 2-D and 3-D, with size-1 axes, and an inner size above,
#: equal to and below CSV_BLOCK_ROWS
BROADCAST_SHAPES = [
    (5,), (CSV_BLOCK_ROWS + 1,), (1, 7), (7, 1), (2, CSV_BLOCK_ROWS + 3),
    (3, CSV_BLOCK_ROWS), (3, CSV_BLOCK_ROWS - 1), (5, 4000), (1, 1, CSV_BLOCK_ROWS + 1),
    (4, 5, 1), (3, 5, 1100), (2, 3, 3000), (3, 1, 7000),
]


@st.composite
def broadcast_tables(draw):
    """(columns, shape, conversion): columns that broadcast to ``shape``, some odd values among them."""
    shape = draw(st.sampled_from(BROADCAST_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["real", "int"]), min_size=1, max_size=4)):
        own = tuple(n if draw(st.booleans()) else 1 for n in shape)
        while len(own) > 1 and own[0] == 1 and draw(st.booleans()):
            own = own[1:]  # a column may leave out leading size-1 axes
        if kind == "int":
            col = rng.integers(0, 2**63 - 1, own, dtype=np.int64, endpoint=True)
        else:
            col = 10 ** rng.uniform(-99, 99, own)
        if draw(st.booleans()):
            # sends the blocks that reach it to '%'
            odd = [-1, -2**63] if kind == "int" else EDGE_FLOATS + [-1.5, 1e100]
            col.flat[rng.integers(col.size)] = draw(st.sampled_from(odd))
        columns.append(col)
    full = np.broadcast_shapes(*(c.shape for c in columns))
    return columns, full, draw(st.sampled_from(["%.11e", "%r"]))


@settings(max_examples=60, deadline=None)
@given(broadcast_tables())
def test_broadcast_columns_write_the_materialized_tables_bytes(table):
    columns, shape, conversion = table
    materialized = [np.broadcast_to(c, shape).ravel() for c in columns]
    got = "".join(sweep.csv_blocks(columns, conversion))
    assert got.split("\n") == "".join(sweep.csv_blocks(materialized, conversion)).split("\n")


@pytest.mark.parametrize("shape", BROADCAST_SHAPES, ids=str)
def test_every_broadcast_pattern_writes_the_materialized_tables_bytes(shape):
    # one column per choice of broadcast axes, plus an int column: all fast-path values
    rng = np.random.default_rng(len(shape))
    columns = [10 ** rng.uniform(-99, 99, own) for own in itertools.product(*[(1, n) for n in shape])]
    columns.append(rng.integers(0, 10**15, shape[-1:]))
    materialized = [np.broadcast_to(c, shape).ravel() for c in columns]
    assert "".join(sweep.csv_blocks(columns, "%.11e")) == "".join(sweep.csv_blocks(materialized, "%.11e"))


def test_broadcast_blocks_take_the_fast_path_where_their_values_allow(monkeypatch):
    # one odd axis value sends only the blocks that reach it to '%'
    n_g, n_k = 7, 5000
    g = np.geomspace(1.0, 2.0, n_g)[:, None]
    g[4] = -1.0
    eta = np.linspace(0.1, 0.9, n_g * n_k).reshape(n_g, n_k)
    fast, records = [], sweep._records

    def spy(values):
        rec = records(values)
        fast.append(rec is not None)
        return rec

    monkeypatch.setattr(sweep, "_records", spy)
    table = SweepResult(columns={"g": g, "k": np.arange(n_k), "eta": eta})
    assert table.to_csv().split("\n") == reference_csv(SweepResult(columns={
        name: np.broadcast_to(c, table.shape).ravel() for name, c in table.columns.items()})).split("\n")
    # rows 20000-24999 hold g[4]: the second of three blocks
    assert fast == [True, False, True]


def test_2d_table_chunks_are_the_header_then_one_per_block():
    # a chunk is a box: as many whole g-rows of 7000 cells as fit in CSV_BLOCK_ROWS
    n_g, n_k = 5, 7000
    table = SweepResult(columns={"g": np.arange(1.0, n_g + 1)[:, None], "k": np.linspace(1, 2, n_k),
                                 "eta": np.full((n_g, n_k), 0.5)})
    assert table.shape == (n_g, n_k) and len(table) == n_g * n_k
    chunks = list(table.csv_chunks())
    assert chunks[0] == "g,k,eta\n"
    assert [len(c.splitlines()) for c in chunks[1:]] == [14_000, 14_000, 7_000]


@pytest.mark.parametrize("shape", BROADCAST_SHAPES + [(0, 3), (3, 0), (40_000, 1), (2, 3, 6000)],
                         ids=str)
def test_every_chunk_is_one_box(shape):
    # the table's value at a row is its C-order index, so a chunk names the rows it holds
    table = np.arange(math.prod(shape), dtype=float).reshape(shape)
    chunks = [np.array([float(v) for v in c.splitlines()], dtype=int)
              for c in sweep.csv_blocks([table], "%r")]
    assert np.array_equal(np.concatenate(chunks or [np.zeros(0, int)]), np.arange(table.size))
    inner = math.prod(shape[1:])
    for rows in chunks:
        assert 0 < len(rows) <= CSV_BLOCK_ROWS
        # distinct cells that fill the box spanning them
        index = np.unravel_index(rows, shape)
        assert math.prod(int(np.ptp(i)) + 1 for i in index) == len(rows)
        if inner <= CSV_BLOCK_ROWS:
            assert rows[0] % inner == 0 and (rows[-1] + 1) % inner == 0
        else:
            assert np.all(index[0] == index[0][0])


def test_column_shapes_that_do_not_broadcast_are_rejected():
    with pytest.raises(ValueError, match=r"^column shapes do not broadcast: "
                                         r"\{'a': \(2, 3\), 'b': \(2,\)\}$"):
        SweepResult(columns={"a": np.ones((2, 3)), "b": np.ones(2)})
    with pytest.raises(ValueError, match="column 'z' is complex; tables are real-valued"):
        SweepResult(columns={"a": np.ones((2, 3)), "z": np.ones(3) * 1j})
