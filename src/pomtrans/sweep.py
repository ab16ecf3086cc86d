"""Tabular sweep results with deterministic CSV serialization.

All floats are written with 12 significant digits in scientific notation so
identical runs produce byte-identical files on any platform.  Tables are
real-valued: a complex column is rejected by name.

The ``'%.11e'`` writer has a vectorized fast path that writes the same bytes
as ``%``.  It takes a block whose values are all +0.0 or in [1e-99,
9.999999999995e99), which ``%`` prints in 17 characters each.  A value in
range is a 12-digit integer mantissa, rounded from ``x * 10**(11 - e)``, and
a two-digit exponent ``e``.  Entries whose mantissa fraction lies within
``_NEAR_TIE`` of one half, exact ties among them, are re-formatted with
``%``: the scaled float is rounded twice (the power of ten, then the
product), so its fraction can be off by about 2.5e-4.  The +0.0 entries are
re-formatted with them.  Any other block (-0.0, a negative, a subnormal,
NaN/inf or a 3-digit exponent) and any other conversion take the ``%`` line,
which materializes only the block's own rows.

A table is the C-order broadcast of its columns, which may have any shapes
that broadcast together: a grid's axes can be passed at shapes ``(n, 1)`` and
``(m,)`` beside an ``(n, m)`` column.  Each block formats the values it
reaches once.  A column at the table's shape is formatted row by row, in
place; a broadcast column formats only the values its rows reach, when they
are fewer than its rows, and its 18-byte records are broadcast into the
block.  So a contour table formats each axis value once per block rather than
once per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FLOAT_FORMAT = "{:.11e}"
# rows per block: of 1 024 to all 562 341 rows of a spectrum table, 16 384
# formatted fastest with one '%' per block.  The fast path runs as fast at
# 4 096 to 65 536 rows, and its byte buffers stay under 1 MB at 16 384.
CSV_BLOCK_ROWS = 16_384

_E_MIN = -100  # floor(log10(1e-99)) may come out one low
#: correctly rounded 10**(11 - e) for e in _E_MIN..100
_SCALE = np.array([float(10**k) if k >= 0 else 1 / 10**-k for k in range(11 - _E_MIN, -90, -1)])
#: half-width of the fraction window around 0.5 that ``%`` resolves
_NEAR_TIE = 1e-3
# Digit tables, and the 18-byte record of one fast-path value with its
# separator.  The record splits the 12 mantissa digits 3 + 4 + 4 + 1, since
# numpy copies 1- and 4-byte fields far faster than 3-byte ones.
_DIGITS = (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
_QUADS = _DIGITS.view("S4")[:, 0]  # b"0000" .. b"9999"
_LEADS = np.insert(_DIGITS[:1000, 1:], 1, ord("."), axis=1).view("S4")[:, 0]  # b"0.00" .. b"9.99"
_SINGLES = _DIGITS[:10, 3:].view("S1")[:, 0]
# no entry keeps e = +-100: e = 100 only occurs in a near tie, which '%' re-formats,
# and e = -100 always carries to -99
_EXPONENTS = np.array([f"e{e:+03d}" for e in range(_E_MIN, 101)], dtype="S4")
_RECORD = np.dtype([("lead", "S4"), ("quad1", "S4"), ("quad2", "S4"), ("last", "S1"),
                    ("exp", "S4"), ("sep", "S1")])
# records are copied as opaque 18-byte items: numpy copies a structured item field
# by field, several times slower
_BYTES = np.dtype((np.void, _RECORD.itemsize))


def format_float(x: float) -> str:
    return FLOAT_FORMAT.format(float(x))


def _scaled(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    return x * _SCALE[e - _E_MIN]


def _records(x: np.ndarray) -> np.ndarray | None:
    """The 17-byte ``'%.11e'`` texts of a float array, as records in its shape.

    None if a value is out of range.  The separator bytes are left to the caller.
    """
    shape = x.shape
    v = x = x.ravel()
    zeros = None
    fast = (x >= 1e-99) & (x < 9.999999999995e99)
    if not np.all(fast):
        # +0.0 prints in 17 characters too: '%' writes it with the near ties
        zero = (x == 0) & ~np.signbit(x)
        if not np.all(fast | zero):
            return None
        v, zeros = np.where(zero, 1.0, x), np.flatnonzero(zero)
    e = np.floor(np.log10(v)).astype(np.int64)
    m = _scaled(v, e)
    # log10 can land one off next to a power of ten; the scaled mantissa decides
    e += (m >= 1e12).astype(np.int64) - (m < 1e11)
    m = _scaled(v, e)
    whole = np.floor(m)
    frac = m - whole
    mant = whole.astype(np.int64) + (frac > 0.5)
    carry = mant >= 10**12
    mant[carry] //= 10
    e += carry

    flat = np.empty(x.shape, _RECORD)
    rest = mant // 10
    flat["last"] = _SINGLES.take(mant - 10 * rest)
    for name in ("quad2", "quad1"):
        head = rest // 10_000
        flat[name] = _QUADS.take(rest - 10_000 * head)
        rest = head
    flat["lead"] = _LEADS.take(rest)
    flat["exp"] = _EXPONENTS.take(e - _E_MIN)
    near = np.flatnonzero(np.abs(frac - 0.5) < _NEAR_TIE)
    if zeros is not None:
        near = np.union1d(near, zeros)
    if near.size:
        exact = ("%.11e" * near.size) % tuple(x[near].tolist())
        chars = flat.view(np.uint8).reshape(-1, _RECORD.itemsize)
        chars[near, :-1] = np.frombuffer(exact.encode("ascii"), dtype=np.uint8).reshape(near.size, -1)
    return flat.reshape(shape)


def _text(rec: np.ndarray) -> str:
    """The CSV rows of a 2-D record array: its separators set, its bytes decoded."""
    rec["sep"] = b","
    rec["sep"][:, -1] = b"\n"
    # str() decodes straight from the buffer; tobytes() would copy it first
    return str(rec.reshape(-1).view(np.uint8).data, "ascii")


def _e11_block(block: np.ndarray) -> str | None:
    """``'%.11e'`` CSV rows of a 2-D float block, or None if a value is out of range."""
    rec = _records(block)
    return None if rec is None else _text(rec)


def _hull(shape: tuple[int, ...], start: int, stop: int) -> tuple[list[slice], int]:
    """The box of a ``shape`` table that holds its C-order rows ``start:stop``, and its first row.

    Its leading axes keep one index each, the next axis the range the rows reach and
    the trailing axes all of theirs, so the box's own C-order rows are the table's
    rows from the first on, and rows ``start:stop`` are a slice of them.
    """
    hull, first, inner, spread = [], 0, math.prod(shape), False
    for n in shape:
        inner //= n
        if spread:
            hull.append(slice(0, n))
            continue
        a, b = start // inner % n, (stop - 1) // inner % n
        hull.append(slice(a, b + 1))
        first += a * inner
        spread = b > a
    return hull, first


def _copy_rows(a: np.ndarray, start: int, stop: int, out: np.ndarray) -> None:
    """Write ``a.ravel()[start:stop]`` into the 1-D ``out``, copying only those elements.

    ``a`` may be a broadcast view: no more of it than the rows is materialized.
    """
    while a.ndim > 1:
        inner = math.prod(a.shape[1:])
        (i0, r0), (i1, r1) = divmod(start, inner), divmod(stop, inner)
        if i0 == i1:
            a, start, stop = a[i0], r0, r1
            continue
        if r0:
            _copy_rows(a[i0], r0, inner, out[:inner - r0])
            out, i0 = out[inner - r0:], i0 + 1
        if r1:
            _copy_rows(a[i1], 0, r1, out[len(out) - r1:])
            out = out[:len(out) - r1]
        np.reshape(out, a[i0:i1].shape, copy=False)[...] = a[i0:i1]
        return
    out[...] = a[start:stop]


def _rows(views: list[np.ndarray], start: int, stop: int) -> np.ndarray:
    """Rows ``start:stop`` of a table of full-shape column views, as one float block."""
    block = np.empty((stop - start, len(views)))
    for j, view in enumerate(views):
        _copy_rows(view, start, stop, block[:, j])
    return block


def _e11_rows(views: list[np.ndarray], broadcast: dict[int, np.ndarray], start: int,
              stop: int) -> str | None:
    """``'%.11e'`` CSV rows ``start:stop`` of a table, or None if a value they reach is out of range.

    ``views`` are the columns at the table's shape, and ``broadcast`` maps the index
    of each column given at a smaller shape to that array.  Such a column, if its
    rows reach fewer values than there are rows, formats those values once, over
    the box of :func:`_hull`, and its records are broadcast into the block.  The
    other columns are formatted row by row.  One call formats them all.
    """
    rows, reached = stop - start, {}
    if broadcast:
        hull, first = _hull(views[0].shape, start, stop)
        for j, col in broadcast.items():
            values = col[tuple(s if m > 1 else slice(None) for s, m in zip(hull, col.shape))]
            if values.size < rows:
                reached[j] = values
    if not reached:
        return _e11_block(_rows(views, start, stop))
    direct = [j for j in range(len(views)) if j not in reached]
    block = _rows([views[j] for j in direct], start, stop)
    formatted = _records(np.concatenate([block.ravel()] + [v.ravel() for v in reached.values()]))
    if formatted is None:
        return None
    formatted = formatted.view(_BYTES)
    rec = np.empty((rows, len(views)), _RECORD)
    items = rec.view(_BYTES)
    items[:, direct] = formatted[:block.size].reshape(block.shape)
    box = tuple(s.stop - s.start for s in hull)
    at = block.size
    for j, values in reached.items():
        records = formatted[at:at + values.size].reshape(values.shape)
        _copy_rows(np.broadcast_to(records, box), start - first, stop - first, items[:, j])
        at += values.size
    return _text(rec)


def csv_blocks(columns: list[np.ndarray], conversion: str):
    """CSV rows of a table of real array columns, ``CSV_BLOCK_ROWS`` rows per string.

    The columns broadcast together, and the rows are their broadcast shape in C
    order.  A ``'%.11e'`` block takes the vectorized fast path when the values it
    reaches allow it; any other block materializes its own rows and formats them
    with one C-level ``conversion`` ``%``.
    """
    if not columns:
        return
    shapes = {c.shape for c in columns}
    shape = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
    columns = [c.reshape((1,) * (len(shape) - c.ndim) + c.shape) for c in columns]
    views = [c if c.shape == shape else np.broadcast_to(c, shape) for c in columns]
    broadcast = {j: c for j, c in enumerate(columns) if c.shape != shape}
    row_fmt = ",".join([conversion] * len(columns)) + "\n"
    rows = math.prod(shape)
    for start in range(0, rows, CSV_BLOCK_ROWS):
        stop = min(start + CSV_BLOCK_ROWS, rows)
        text = _e11_rows(views, broadcast, start, stop) if conversion == "%.11e" else None
        if text is None:
            block = _rows(views, start, stop)
            text = (row_fmt * len(block)) % tuple(block.ravel().tolist())
        yield text


@dataclass
class SweepResult:
    """Real-valued, column-labelled series produced by a frequency/power/parameter sweep.

    A table is the C-order broadcast of its columns: a column may be any array
    that broadcasts to the table's :attr:`shape`, such as a grid axis held at
    shape ``(n, 1)``, and each block formats the values it reaches once.  In a
    table of 1-D columns, the columns must have equal lengths.

    :meth:`csv_chunks` yields its CSV text piece by piece, so a writer never
    holds the whole table as text; :meth:`to_csv` joins those pieces.
    """

    columns: dict[str, np.ndarray]

    def __post_init__(self):
        self.columns = {name: np.atleast_1d(np.asarray(col)) for name, col in self.columns.items()}
        shapes = {name: col.shape for name, col in self.columns.items()}
        if all(len(s) == 1 for s in shapes.values()):
            lengths = {name: s[0] for name, s in shapes.items()}
            if len(set(lengths.values())) > 1:
                raise ValueError(f"column length mismatch: {lengths}")
        else:
            try:
                np.broadcast_shapes(*shapes.values())
            except ValueError:
                raise ValueError(f"column shapes do not broadcast: {shapes}") from None
        for name, col in self.columns.items():
            if np.iscomplexobj(col):
                raise ValueError(f"column {name!r} is complex; tables are real-valued")

    @property
    def shape(self) -> tuple[int, ...]:
        """The broadcast shape of the columns; a table without columns has shape ``(0,)``."""
        return np.broadcast_shapes(*(c.shape for c in self.columns.values())) if self.columns else (0,)

    def __len__(self) -> int:
        return math.prod(self.shape)

    def csv_chunks(self):
        """The CSV text: the header line, then one string per ``CSV_BLOCK_ROWS`` rows."""
        yield ",".join(self.columns) + "\n"
        yield from csv_blocks(list(self.columns.values()), "%.11e")

    def to_csv(self) -> str:
        return "".join(self.csv_chunks())
