"""Candidate-material dataset with electromechanical and optomechanical figures of merit.

One record per material, carrying the 33-components of the piezoelectric and
photoelastic response plus permittivities and density.  Missing or
inapplicable entries are explicit flags, never imputed values:

* ``zero-centrosymmetric`` / ``zero-piezo-class``: the coefficient is zero by
  symmetry (the whole tensor, or just this component).
* ``unknown``: not found in the literature.
* ``opaque``: the material does not transmit at the probe IR wavelength, so
  the entry is meaningless there.

Figures of merit (in the dataset's mixed units, densities in g/cm^3, so the
magnitudes match the source tabulation):

* electromechanical: h33 sqrt(eps33_rf / rho)
* optomechanical:    eps33_ir p33 / sqrt(rho)

Undefined inputs make the figure undefined-with-reason; ranking treats
undefined entries as trailing.  Defined inputs whose figure is not finite
(a subnormal density, say) are rejected by the material's name.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from importlib import resources
from math import isfinite, sqrt

from .errors import MaterialDataError, is_number, parse_number, shown

H33_FLAGS = ("value", "zero-centrosymmetric", "zero-piezo-class", "unknown")
IR_FLAGS = ("value", "unknown", "opaque")
P33_FLAGS = ("value", "unknown")
FAB_KINDS = ("yes", "front-end-compatible", "no")


@dataclass(frozen=True)
class MaterialRecord:
    """One row of the materials table, provenance flags included."""

    name: str
    h33: float | None
    h33_flag: str
    eps33_rf: float | None
    eps33_ir: float | None
    eps33_ir_flag: str
    rho_gcc: float | None
    p33: float | None
    p33_flag: str
    fab: str
    notes: str = ""

    def __post_init__(self):
        if self.h33_flag not in H33_FLAGS:
            raise MaterialDataError(f"{self.name}: bad h33 flag {self.h33_flag!r}")
        if self.eps33_ir_flag not in IR_FLAGS:
            raise MaterialDataError(f"{self.name}: bad eps33_ir flag {self.eps33_ir_flag!r}")
        if self.p33_flag not in P33_FLAGS:
            raise MaterialDataError(f"{self.name}: bad p33 flag {self.p33_flag!r}")
        if self.fab not in FAB_KINDS:
            raise MaterialDataError(f"{self.name}: bad fab marker {self.fab!r}")
        for column in ("h33", "eps33_ir", "p33"):
            if (getattr(self, column) is None) == (getattr(self, f"{column}_flag") == "value"):
                raise MaterialDataError(f"{self.name}: {column} value and flag are inconsistent")
        for column in _NUMERIC:
            value = getattr(self, column)
            if value is not None and not is_number(value):
                raise MaterialDataError(f"{self.name}: {column} is not a number: {shown(value)}")
        if self.rho_gcc is not None and self.rho_gcc <= 0:
            raise MaterialDataError(f"{self.name}: density must be positive")
        for column in _NUMERIC:
            value = getattr(self, column)
            if value is not None and not isfinite(value):
                raise MaterialDataError(f"{self.name}: {column} must be finite, got {value}")
        # em_fom takes the square root of eps33_rf / rho
        if self.eps33_rf is not None and self.eps33_rf <= 0:
            raise MaterialDataError(f"{self.name}: eps33_rf must be positive, got {self.eps33_rf}")


#: CSV columns, in file order, and the numeric ones among them
_COLUMNS = tuple(f.name for f in fields(MaterialRecord))
_NUMERIC = tuple(f.name for f in fields(MaterialRecord) if f.type == "float | None")


@dataclass(frozen=True)
class FomValue:
    """A figure of merit: either a number or undefined with a stated reason."""

    value: float | None
    reason: str | None = None

    @property
    def defined(self) -> bool:
        return self.value is not None


def em_fom(r: MaterialRecord) -> FomValue:
    """Electromechanical figure of merit h33 sqrt(eps33_rf / rho).

    Symmetry-zero piezoelectric coefficients give 0; unknown constituents
    give an undefined value carrying the reason.
    """
    if r.h33_flag in ("zero-centrosymmetric", "zero-piezo-class"):
        return FomValue(0.0)
    reasons = []
    if r.h33_flag == "unknown":
        reasons.append("h33 unknown")
    if r.eps33_rf is None:
        reasons.append("eps33_rf unknown")
    if r.rho_gcc is None:
        reasons.append("density unknown")
    if reasons:
        return FomValue(None, "; ".join(reasons))
    return _finite(r, "electromechanical", r.h33 * sqrt(r.eps33_rf / r.rho_gcc))


def om_fom(r: MaterialRecord) -> FomValue:
    """Optomechanical figure of merit eps33_ir p33 / sqrt(rho)."""
    reasons = []
    if r.eps33_ir_flag == "opaque":
        reasons.append("opaque at the probe IR wavelength")
    elif r.eps33_ir_flag == "unknown":
        reasons.append("eps33_ir unknown")
    if r.p33_flag == "unknown":
        reasons.append("p33 unknown")
    if r.rho_gcc is None:
        reasons.append("density unknown")
    if reasons:
        return FomValue(None, "; ".join(reasons))
    return _finite(r, "optomechanical", r.eps33_ir * r.p33 / sqrt(r.rho_gcc))


def _finite(r: MaterialRecord, which: str, value: float) -> FomValue:
    """``value`` as a figure of merit of ``r``, unless its inputs over- or underflowed it.

    Finite inputs can still give inf (a subnormal density) or NaN (0 times inf),
    which would rank first or anywhere; such a figure is rejected by name.
    """
    if not isfinite(value):
        raise MaterialDataError(f"{r.name}: {which} figure of merit must be finite, got {value}")
    return FomValue(value)


def rank(records, which: str, fab_filter: str | None = None):
    """Records ordered by descending |figure of merit|, undefined entries last.

    The sign of the coefficient is irrelevant for coupling strength, so the
    ordering uses the absolute value while the signed figure is preserved in
    the output.  Ties break by name, keeping the order total.  ``fab_filter``
    restricts to records with that fabrication marker.

    Returns a list of (record, FomValue) pairs.
    """
    try:
        fom = {"em": em_fom, "om": om_fom}[which]
    except KeyError:
        raise MaterialDataError(f"ranking must be 'em' or 'om', got {which!r}") from None
    pool = [r for r in records if fab_filter is None or r.fab == fab_filter]
    scored = [(r, fom(r)) for r in pool]
    defined = sorted(
        (x for x in scored if x[1].defined),
        key=lambda x: (-abs(x[1].value), x[0].name),
    )
    undefined = sorted((x for x in scored if not x[1].defined), key=lambda x: x[0].name)
    return defined + undefined


# --- dataset I/O --------------------------------------------------------------


def _parse_float(name: str, column: str, raw: str) -> float | None:
    raw = raw.strip()
    if raw == "":
        return None
    try:
        return parse_number(raw)
    except ValueError as exc:
        raise MaterialDataError(
            f"row {name!r}, column {column!r}: not a number: {raw!r}"
        ) from exc


def parse_materials_csv(text: str) -> list[MaterialRecord]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise MaterialDataError("empty materials file") from None
    if tuple(header) != _COLUMNS:
        raise MaterialDataError(
            f"unexpected header {header}; expected {list(_COLUMNS)}"
        )
    records: list[MaterialRecord] = []
    seen: set[str] = set()
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(_COLUMNS):
            raise MaterialDataError(
                f"row {line_no}: expected {len(_COLUMNS)} columns, got {len(row)}"
            )
        name = row[0].strip()
        if not name:
            raise MaterialDataError(f"row {line_no}: empty material name")
        if name in seen:
            raise MaterialDataError(f"duplicate material name: {name!r}")
        seen.add(name)
        try:
            record = MaterialRecord(**{
                column: _parse_float(name, column, cell) if column in _NUMERIC else cell.strip()
                for column, cell in zip(_COLUMNS, row)
            })
        except MaterialDataError as exc:
            raise MaterialDataError(f"row {line_no}: {exc}") from exc
        records.append(record)
    return records


def load_materials(path=None) -> list[MaterialRecord]:
    """Load a materials CSV; without a path, the bundled dataset."""
    if path is None:
        text = resources.files("pomtrans.data").joinpath("materials.csv").read_text("utf-8")
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_materials_csv(text)
