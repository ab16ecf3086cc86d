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
which materializes only the block's own box.

A table is the C-order broadcast of its columns, which may have any shapes
that broadcast together: a grid's axes can be passed at shapes ``(n, 1)`` and
``(m,)`` beside an ``(n, m)`` column.  A block is a box of the table: a run
of whole leading-axis rows when one such row fits in ``CSV_BLOCK_ROWS``,
otherwise one leading index and a box of the remaining axes.  A column's
values in a box are a plain slice of it, and each block formats them once: a
column that repeats within the box formats only its own values, and its
18-byte records are broadcast into the block.  So a contour table formats
each axis value once per block rather than once per row.

The text is bytes from the formatter to the file: each block is one
bytes-like chunk, and a fast-path chunk is a view of the block's records,
never decoded to ``str``.
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


def _text(rec: np.ndarray) -> memoryview:
    """The CSV rows of a 2-D record array: its separators set, a view of its bytes, not a copy."""
    rec["sep"] = b","
    rec["sep"][:, -1] = b"\n"
    return rec.reshape(-1).view(np.uint8).data


def _e11_block(block: np.ndarray) -> memoryview | None:
    """``'%.11e'`` CSV rows of a 2-D float block, or None if a value is out of range."""
    rec = _records(block)
    return None if rec is None else _text(rec)


def _boxes(shape: tuple[int, ...]):
    """The boxes a table of ``shape``, of at least one row, is cut into, in C order.

    A box is a tuple of one slice per axis.  It is a run of whole rows of the
    leading axis when one such row fits in ``CSV_BLOCK_ROWS``; otherwise it is one
    index of the leading axis, followed by the boxes of the remaining axes.  So a
    box holds at most ``CSV_BLOCK_ROWS`` rows, and they are a run of the table's
    C-order rows.
    """
    inner = math.prod(shape[1:])
    if inner > CSV_BLOCK_ROWS:
        for i in range(shape[0]):
            for box in _boxes(shape[1:]):
                yield (slice(i, i + 1), *box)
        return
    step, rest = CSV_BLOCK_ROWS // inner, [slice(0, m) for m in shape[1:]]
    for a in range(0, shape[0], step):
        yield (slice(a, min(a + step, shape[0])), *rest)


def _box_text(values: list[np.ndarray], shape: tuple[int, ...], conversion: str) -> bytes | memoryview:
    """The CSV rows of a box of ``shape``, given each column's ``values`` in the box.

    A column's values broadcast to the box.  When none repeats within it, a
    ``'%.11e'`` block is formatted row by row in one :func:`_e11_block` call.
    Otherwise each column formats only its own values, and their records are
    broadcast into the block.  A block with a value out of the fast path's range,
    and any other conversion, is materialized and takes the ``%`` line.
    """
    rows = math.prod(shape)
    repeats = min([v.size for v in values]) < rows
    if repeats and conversion == "%.11e":
        formatted = _records(np.concatenate([v.ravel() for v in values], dtype=float))
        if formatted is not None:
            formatted = formatted.view(_BYTES)
            rec = np.empty((*shape, len(values)), _RECORD)
            items, at = rec.view(_BYTES), 0
            for j, v in enumerate(values):
                items[..., j] = formatted[at:at + v.size].reshape(v.shape)
                at += v.size
            return _text(rec.reshape(rows, -1))
    block = np.empty((*shape, len(values)))
    for j, v in enumerate(values):
        block[..., j] = v
    block = block.reshape(rows, -1)
    text = _e11_block(block) if not repeats and conversion == "%.11e" else None
    if text is None:
        row = ",".join([conversion] * len(values)) + "\n"
        text = (row * rows % tuple(block.ravel().tolist())).encode()
    return text


def csv_blocks(columns: list[np.ndarray], conversion: str):
    """CSV bytes of a table of real array columns, one chunk per box of at most ``CSV_BLOCK_ROWS`` rows.

    The columns broadcast together, and the rows are their broadcast shape in C
    order, cut into the boxes of :func:`_boxes`.  A column's values in a box are
    ``c[box]``, its size-1 axes kept whole.  A ``'%.11e'`` block takes the
    vectorized fast path when the values it reaches allow it; any other block
    materializes its own box and formats it with one C-level ``conversion`` ``%``.
    """
    if not columns:
        return
    shapes = {c.shape for c in columns}
    shape = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
    if not math.prod(shape):
        return
    columns = [c if c.ndim == len(shape) else c.reshape((1,) * (len(shape) - c.ndim) + c.shape)
               for c in columns]
    for box in _boxes(shape):
        values = [c[box] if c.shape == shape else
                  c[tuple([s if m > 1 else slice(None) for s, m in zip(box, c.shape)])]
                  for c in columns]
        yield _box_text(values, tuple([s.stop - s.start for s in box]), conversion)


@dataclass
class SweepResult:
    """Real-valued, column-labelled series produced by a frequency/power/parameter sweep.

    A table is the C-order broadcast of its columns: a column may be any array
    that broadcasts to the table's :attr:`shape`, such as a grid axis held at
    shape ``(n, 1)``.  Its text comes in blocks, one per box of the table of at
    most ``CSV_BLOCK_ROWS`` rows, and each block formats the values it reaches
    once.  In a table of 1-D columns, the columns must have equal lengths.

    :meth:`csv_chunks` yields its CSV bytes piece by piece, so a writer
    never holds the whole table at once; :meth:`to_csv` joins those pieces.
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
        """The CSV bytes: the header line, then one chunk per box, of at most ``CSV_BLOCK_ROWS`` rows."""
        yield (",".join(self.columns) + "\n").encode()
        yield from csv_blocks(list(self.columns.values()), "%.11e")

    def to_csv(self) -> bytes:
        return b"".join(self.csv_chunks())
