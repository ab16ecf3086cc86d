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
NaN/inf or a 3-digit exponent) and any other conversion take the ``%`` line.
"""

from __future__ import annotations

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


def format_float(x: float) -> str:
    return FLOAT_FORMAT.format(float(x))


def _scaled(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    return x * _SCALE[e - _E_MIN]


def _e11_block(block: np.ndarray) -> str | None:
    """``'%.11e'`` CSV rows of a 2-D float block, or None if a value is out of range."""
    x = v = block.ravel()
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

    rec = np.empty(block.shape, _RECORD)
    flat = rec.ravel()
    rest = mant // 10
    flat["last"] = _SINGLES.take(mant - 10 * rest)
    for name in ("quad2", "quad1"):
        head = rest // 10_000
        flat[name] = _QUADS.take(rest - 10_000 * head)
        rest = head
    flat["lead"] = _LEADS.take(rest)
    flat["exp"] = _EXPONENTS.take(e - _E_MIN)
    rec["sep"] = b","
    rec["sep"][:, -1] = b"\n"
    near = np.flatnonzero(np.abs(frac - 0.5) < _NEAR_TIE)
    if zeros is not None:
        near = np.union1d(near, zeros)
    if near.size:
        exact = ("%.11e" * near.size) % tuple(x[near].tolist())
        chars = flat.view(np.uint8).reshape(-1, _RECORD.itemsize)
        chars[near, :-1] = np.frombuffer(exact.encode("ascii"), dtype=np.uint8).reshape(near.size, -1)
    # str() decodes straight from the buffer; tobytes() would copy it first
    return str(flat.view(np.uint8).data, "ascii")


def csv_blocks(columns, conversion: str):
    """CSV rows of equal-length float columns, ``CSV_BLOCK_ROWS`` rows per string.

    A ``'%.11e'`` block takes the vectorized fast path when its values allow
    it; any other block is formatted with one C-level ``conversion`` ``%``.
    """
    row_fmt = ",".join([conversion] * len(columns)) + "\n"
    for start in range(0, len(columns[0]) if columns else 0, CSV_BLOCK_ROWS):
        block = np.column_stack([c[start:start + CSV_BLOCK_ROWS] for c in columns]).astype(float)
        text = _e11_block(block) if conversion == "%.11e" else None
        yield text if text is not None else (row_fmt * len(block)) % tuple(block.ravel().tolist())


@dataclass
class SweepResult:
    """Real-valued, column-labelled series produced by a frequency/power/parameter sweep.

    :meth:`csv_chunks` yields its CSV text piece by piece, so a writer never
    holds the whole table as text; :meth:`to_csv` joins those pieces.
    """

    columns: dict[str, np.ndarray]

    def __post_init__(self):
        lengths = {name: len(np.atleast_1d(col)) for name, col in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"column length mismatch: {lengths}")
        self.columns = {name: np.atleast_1d(np.asarray(col)) for name, col in self.columns.items()}
        for name, col in self.columns.items():
            if np.iscomplexobj(col):
                raise ValueError(f"column {name!r} is complex; tables are real-valued")

    def __len__(self) -> int:
        return 0 if not self.columns else len(next(iter(self.columns.values())))

    def csv_chunks(self):
        """The CSV text: the header line, then one string per ``CSV_BLOCK_ROWS`` rows."""
        yield ",".join(self.columns) + "\n"
        yield from csv_blocks(list(self.columns.values()), "%.11e")

    def to_csv(self) -> str:
        return "".join(self.csv_chunks())
