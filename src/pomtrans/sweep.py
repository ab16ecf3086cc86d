"""Tabular sweep results with deterministic CSV serialization.

All floats are written with 12 significant digits in scientific notation so
identical runs produce byte-identical files on any platform.  Complex columns
are split into ``<name>_re`` / ``<name>_im`` pairs on write.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FLOAT_FORMAT = "{:.11e}"
# rows per bulk '%' call in to_csv: of 1 024 to all 562 341 rows of a
# spectrum table, 16 384 formatted fastest
CSV_BLOCK_ROWS = 16_384


def format_float(x: float) -> str:
    return FLOAT_FORMAT.format(float(x))


def csv_blocks(columns, conversion: str):
    """CSV rows of equal-length float columns, one C-level ``conversion`` ``%`` per block."""
    row_fmt = ",".join([conversion] * len(columns)) + "\n"
    for start in range(0, len(columns[0]) if columns else 0, CSV_BLOCK_ROWS):
        block = np.column_stack([c[start:start + CSV_BLOCK_ROWS] for c in columns]).astype(float)
        yield (row_fmt * len(block)) % tuple(block.ravel().tolist())


@dataclass
class SweepResult:
    """Column-labelled series produced by a frequency/power/parameter sweep."""

    columns: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        lengths = {name: len(np.atleast_1d(col)) for name, col in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"column length mismatch: {lengths}")
        self.columns = {name: np.atleast_1d(np.asarray(col)) for name, col in self.columns.items()}

    def __len__(self) -> int:
        return 0 if not self.columns else len(next(iter(self.columns.values())))

    def _written_columns(self) -> list[tuple[str, np.ndarray]]:
        """(name, column) as written: each complex column split into ``_re`` / ``_im``."""
        out = []
        for name, col in self.columns.items():
            if np.iscomplexobj(col):
                out.extend([(f"{name}_re", col.real), (f"{name}_im", col.imag)])
            else:
                out.append((name, col))
        return out

    def header(self) -> list[str]:
        return [name for name, _ in self._written_columns()]

    def to_csv(self) -> str:
        written = self._written_columns()
        header = ",".join(name for name, _ in written) + "\n"
        return "".join([header, *csv_blocks([col for _, col in written], "%.11e")])

    def save_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())

    @classmethod
    def from_csv_text(cls, text: str) -> "SweepResult":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty CSV")
        names = lines[0].split(",")
        data = [[] for _ in names]
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != len(names):
                raise ValueError(f"row width {len(parts)} != header width {len(names)}")
            for slot, part in zip(data, parts):
                slot.append(float(part))
        return cls(columns={n: np.asarray(v) for n, v in zip(names, data)})

    @classmethod
    def load_csv(cls, path) -> "SweepResult":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_csv_text(fh.read())
