"""Microscopic coupling constants from discretized mode fields.

Electromagnetic and mechanical displacement mode functions live on uniform
rectilinear grids; overlap integrals use the trapezoid rule (second-order
accurate on smooth fields, verified by refinement in the tests) and strain is
the displacement gradient, valid in the absence of rigid-body rotation.

An unknown (NaN) Voigt entry M_rJ of ``h`` or ``p`` multiplies one overlap, of
R_r B_J, taken in the rate's one walk (:func:`_contraction`), and is read as 0
if it is at most _UNKNOWN_RTOL = 1e-10 of its finite Cauchy-Schwarz bound,
sqrt(integral |R_r|^2 integral sum_J |B_J|^2); else it raises.  That covers
np.gradient's roundoff, far below 1e-6: a gradient that vanishes analytically
sums stencil terms of weight 4/d at most in all (the edge stencil (-3/2, 2,
-1/2)/d; central differences of equal samples are exact), so it is off by
about 4 eps max|w|/d, against max|w|/(N d) over N points: 4 eps N, 9e-12 at
N = 10^4 (eps 2.2e-16).  Every walk reads a field rescaled by :meth:`ModeField._slab`; every
mode volume is read by :func:`_volume`, whose cache keeps it undecided, as its value on the
walk's unit cells and their power of two; and a rate, mode volume or effective mass is rejected
only when it is no finite normal float (:func:`_decided`).

Unit conventions follow the materials literature this feeds on: the
piezoelectric tensor ``h`` is stored in its stress-voltage Voigt form, the
photoelastic tensor ``p`` is the 6x6 Voigt matrix (NOT assumed symmetric),
``eta`` is the inverse relative permittivity and densities are SI kg/m^3
(tabulated g/cm^3 values are multiplied by 1000 on ingestion).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import warnings
from dataclasses import MISSING, dataclass, fields
from typing import Sequence

import numpy as np

from .constants import EPSILON_0, HBAR
from .errors import (GridError, MaterialDataError, ParameterError, is_number, parse_number,
                     require_number, shown)
from .sweep import CSV_BLOCK_ROWS, csv_blocks

# --- Voigt notation ---------------------------------------------------------

#: 0-based index pair (a, b) of each Voigt index 1..6, in Voigt order
_VOIGT_PAIRS = [(0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)]
#: 0-based Voigt column of each 0-based symmetric index pair, in both orders
_VOIGT_OF_INDICES = np.array([[0, 5, 4], [5, 1, 3], [4, 3, 2]])


def _is_index(value) -> bool:
    """Whether ``value`` is an int or a numpy integer, which a boolean (a mask to numpy) is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_index(value, what: str, first: int = 0) -> None:
    """Reject ``value`` by ``what`` unless it is an index (:func:`_is_index`) in first..first + 2."""
    if not _is_index(value):
        raise ParameterError(f"{what} must be an integer, got {shown(value)}")
    if not first <= value <= first + 2:
        raise ParameterError(f"{what} must be in {first}..{first + 2}, got {shown(int(value))}")


def voigt_index(i: int, j: int) -> int:
    """Map a symmetric tensor index pair (1-based) to its Voigt index 1..6."""
    if not (_is_index(i) and _is_index(j)):
        raise ParameterError(f"tensor indices must be integers, got ({shown(i)}, {shown(j)})")
    if not (1 <= i <= 3 and 1 <= j <= 3):
        raise ParameterError(f"tensor indices must be in 1..3, got {shown((int(i), int(j)))}")
    return int(_VOIGT_OF_INDICES[i - 1, j - 1]) + 1


def rank3_from_voigt(m: np.ndarray) -> np.ndarray:
    """Expand a 3x6 Voigt matrix (e.g. piezoelectric h) to the full 3x3x3 tensor."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 6):
        raise ParameterError(f"expected a 3x6 Voigt matrix, got shape {m.shape}")
    return m[:, _VOIGT_OF_INDICES]


def rank4_from_voigt(m: np.ndarray) -> np.ndarray:
    """Expand a 6x6 Voigt matrix (e.g. photoelastic p) to the full rank-4 tensor."""
    m = np.asarray(m, dtype=float)
    if m.shape != (6, 6):
        raise ParameterError(f"expected a 6x6 Voigt matrix, got shape {m.shape}")
    return m[_VOIGT_OF_INDICES][:, :, _VOIGT_OF_INDICES]


# --- grid and fields ---------------------------------------------------------


@dataclass(frozen=True)
class Grid3D:
    """Uniform rectilinear grid: origin, per-axis spacing and point counts."""

    origin: tuple[float, float, float]
    spacing: tuple[float, float, float]
    counts: tuple[int, int, int]

    def __post_init__(self):
        for name in ("origin", "spacing"):
            value = getattr(self, name)
            if is_number(value) or not all(map(is_number, value)):
                raise ParameterError(f"grid {name} is not 3 numbers: {shown(value)}")
        if any(s <= 0 for s in self.spacing):
            raise ParameterError(f"grid spacing must be positive, got {self.spacing}")
        if is_number(self.counts) or not all(
                is_number(c) and c >= 1 and float(c).is_integer() for c in self.counts):
            raise ParameterError(f"grid counts must be positive integers, got {shown(self.counts)}")
        if len(self.origin) != 3 or len(self.spacing) != 3 or len(self.counts) != 3:
            raise ParameterError("origin, spacing and counts must have 3 entries each")
        for name in ("origin", "spacing"):
            if not all(math.isfinite(v) for v in getattr(self, name)):
                raise ParameterError(f"grid {name} must be finite, got {getattr(self, name)}")
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        # Python floats: an overflowing last point is inf here, not an error
        last = tuple(o + s * (c - 1) for o, s, c in zip(self.origin, self.spacing, self.counts))
        if not all(math.isfinite(v) for v in last):
            raise ParameterError(f"grid last point must be finite, got {last}")

    def axis(self, k: int) -> np.ndarray:
        return self.origin[k] + self.spacing[k] * np.arange(self.counts[k])

    def meshgrid(self):
        return np.meshgrid(self.axis(0), self.axis(1), self.axis(2), indexing="ij")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.counts


EM = "em"
MECH = "mech"


@dataclass(frozen=True)
class ModeField:
    """Complex vector field on a grid: an EM mode or a mechanical displacement mode.

    ``components`` is stored read-only, so its cached power of two and mode
    volumes cannot go stale.  A complex array is stored without a copy: the
    caller's array is frozen too.  ``frequency`` must be a finite number > 0,
    so the rates may divide by it.
    """

    grid: Grid3D
    components: np.ndarray  # shape (3, nx, ny, nz)
    kind: str
    frequency: float  # rad/s

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=complex)
        if comps.shape != (3, *self.grid.shape):
            raise ParameterError(
                f"components shape {comps.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(comps)):
            raise ParameterError("mode field contains non-finite values")
        if self.kind not in (EM, MECH):
            raise ParameterError(f"kind must be '{EM}' or '{MECH}'")
        require_number(self.frequency, "mode frequency")
        if not math.isfinite(self.frequency):
            raise ParameterError(f"mode frequency must be finite, got {self.frequency}")
        if not self.frequency > 0:
            raise ParameterError(f"mode frequency must be > 0, got {self.frequency}")
        comps.flags.writeable = False
        object.__setattr__(self, "components", comps)
        # the one scan for the power of two that every walk takes out of the components
        object.__setattr__(self, "_power", _exponent(comps))

    def _slab(self, xs: slice, i=slice(None)) -> np.ndarray:
        """The x-planes ``xs`` of component(s) ``i`` (0-based) times 2^-``_power``."""
        return self.components[i, xs] * 2.0**-self._power

    def scaled(self, factor: complex) -> "ModeField":
        return ModeField(self.grid, self.components * factor, self.kind, self.frequency)


def trapezoid_3d(values: np.ndarray, grid: Grid3D):
    """Volume integral of a scalar sample array by the trapezoid rule."""
    out = np.asarray(values)
    for k in (2, 1, 0):
        if grid.counts[k] > 1:
            out = np.trapezoid(out, dx=grid.spacing[k], axis=k)
        else:
            out = np.squeeze(out, axis=k)
    return out


def _require_differentiable(w: ModeField) -> None:
    if w.kind != MECH:
        raise ParameterError("strain is defined for mechanical displacement fields")
    for k in range(3):
        if w.grid.counts[k] < 3:
            raise GridError(
                f"axis {k} has {w.grid.counts[k]} points; need >= 3 to differentiate"
            )


def strain_field(w: ModeField) -> np.ndarray:
    """All nine displacement gradients d w_j / d r_k, shape (3, 3, nx, ny, nz).

    Central differences in the interior and one-sided second-order stencils at
    the boundaries.  With rigid-body rotation excluded this gradient IS the
    strain.  Axes with fewer than 3 points cannot be differentiated.  The
    rates never hold this array: they differentiate slab by slab, to the same
    bits up to a power of two (see :func:`_slab_gradients`).
    """
    _require_differentiable(w)
    out = np.empty((3, 3, *w.grid.shape), dtype=complex)
    for j in range(3):
        for k in range(3):
            out[j, k] = np.gradient(
                w.components[j], w.grid.spacing[k], axis=k, edge_order=2
            )
    return out


def _exponent(values) -> int:
    """The k >= -1023 bringing the largest real or imaginary part of ``values`` 2^-k into [1, 2)."""
    parts = np.asarray(values, dtype=complex).reshape(-1).view(float)  # a view if contiguous
    return max(math.frexp(max(parts.max(), -parts.min()))[1] - 1, -1023)


def _unit_cells(grid: Grid3D) -> tuple:
    """``(cells, exponent)``: ``grid`` with each spacing times its own 2^-k in [1, 2), and the
    sum of those k over the axes the trapezoid rule integrates."""
    shifts = [_exponent(d) if n > 1 else 0 for d, n in zip(grid.spacing, grid.counts)]
    spacing = tuple(math.ldexp(d, -k) for d, k in zip(grid.spacing, shifts))
    return Grid3D(grid.origin, spacing, grid.counts), sum(shifts)


def _intensity_integral(f: ModeField, density=lambda intensity: intensity) -> tuple:
    """``(integral, exponent)``: ``density`` of I = sum_i |:meth:`~ModeField._slab` of f|^2 on
    the :func:`_unit_cells` of exponent ``exponent``, a float or, stacked, a list of floats.

    The rescaled f's largest part, in [1, 2), adds 1/8 at least: only a zero field integrates to 0.
    """
    cells, exponent = _unit_cells(f.grid)
    total = _slab_integral(cells, lambda xs: density(
        np.sum(np.abs(f._slab(xs)) ** 2, axis=0)))
    if not np.all(total):
        raise ParameterError("mode field is identically zero")
    return total.tolist(), exponent


def _decided(quantity: str, value, parts: dict):
    """``value`` times 2 to the sum of ``parts``' exponents, unless it is no finite normal float
    while ``value`` is nonzero: then the one error states each part's power of two, blaming none."""
    exponent, (fraction, k) = sum(parts.values()), math.frexp(abs(value))
    if fraction and not (math.isfinite(fraction) and -1021 <= k + exponent <= 1024):
        at = ", ".join(f"{name} {power}" for name, power in parts.items())
        raise ParameterError(f"{quantity} {2 * fraction:.6g} x 2^{k - 1 + exponent} is not a "
                             f"finite normal float; the power-of-two exponents of its parts: {at}")
    if isinstance(value, complex):
        return complex(math.ldexp(value.real, exponent), math.ldexp(value.imag, exponent))
    return math.ldexp(value, exponent)


def mech_mode_volume(w: ModeField) -> float:
    """Effective mechanical mode volume.

    Inverse of the integrated square of the normalized intensity density
    sum_i |w_i|^2; independent of any rescaling of the field.  The grid is
    walked twice, slab by slab: for the total intensity, then for the square of
    the normalized density.
    """
    value, cells, _ = _volume(w, MECH)
    return _decided("mech mode volume", value, {"cells": cells})


def em_mode_volume(e: ModeField, eta_eff: float) -> float:
    """Electromagnetic mode volume with inverse-permittivity weighting.

    (integral of eta_eff |E|^2)^2 / integral of (eta_eff |E|^2)^2, at the
    scalar effective inverse relative permittivity ``eta_eff``, a finite number
    > 0.  A scalar ``eta_eff`` cancels: its power of two exactly and any other
    factor to roundoff, so the volume is :func:`mech_mode_volume` of the same
    components to roundoff.  Both integrals are taken in one walk of the grid,
    slab by slab.
    """
    value, cells, _ = _volume(e, EM, eta_eff)
    return _decided("em mode volume", value, {"cells": cells})


def _volume(f: ModeField, kind: str, eta_eff=None) -> tuple:
    """``(value, cells, intensity)``: the mode volume of ``f`` is ``value`` 2^``cells``, ``value``
    its volume on the :func:`_unit_cells` of exponent ``cells``, and its integral of
    sum_i |f_i|^2 is ``intensity`` 2^(``cells`` + 2 ``_power``), walked once per field (per
    ``eta_eff`` of an EM field) into the one cache.

    ``f`` must be of ``kind``, and an ``EM`` field's ``eta_eff`` a finite number > 0: checked on
    each call, so no key equal to a cached one (True to 1.0) gets past them."""
    if f.kind != kind:
        raise ParameterError("expected a mechanical displacement field" if kind == MECH
                             else "expected an electromagnetic field")
    if kind == EM:
        require_number(eta_eff, "eta_eff")
        if not 0 < eta_eff < math.inf:
            raise ParameterError(f"eta_eff must be a finite number > 0, got {eta_eff}")
    key = None if kind == MECH else float(eta_eff)
    volumes = f.__dict__.setdefault("_volumes", {})
    if key not in volumes:
        if key is None:
            total, cells = _intensity_integral(f)
            square = _intensity_integral(f, lambda intensity: (intensity / total)**2)[0]
            volumes[key] = 1.0 / square, cells, total
        else:
            eta = math.ldexp(key, -_exponent(key))
            (total, square), cells = _intensity_integral(
                f, lambda intensity: np.stack([eta * intensity, (eta * intensity)**2]))
            volumes[key] = total**2 / square, cells, total / eta
    return volumes[key]


def _root(value: float, exponent: int) -> tuple:
    """sqrt(value 2^exponent) as ``(mantissa, exponent)``, with the root's bits if it is normal."""
    if exponent % 2:  # an even exponent halves exactly
        value, exponent = 2 * value, exponent - 1
    return math.sqrt(value), exponent // 2


def _scaled_to_volume(f: ModeField, volume: tuple) -> ModeField:
    """``f`` times sqrt(V / integral of sum_i |f_i|^2), from its :func:`_volume` record
    ``volume``: both share the cells' power of two, which cancels, so no volume need be a float."""
    value, _, intensity = volume
    return f.scaled(math.ldexp(*_root(value / intensity, -2 * f._power)))


def normalize_mech(w: ModeField) -> ModeField:
    """Rescale so the integrated intensity equals the effective mode volume."""
    return _scaled_to_volume(w, _volume(w, MECH))


def normalize_em(e: ModeField, eta_eff: float) -> ModeField:
    """Rescale so integral of eta_eff |E|^2 equals eta_eff times the mode volume."""
    return _scaled_to_volume(e, _volume(e, EM, eta_eff))


def effective_mass(w_m: ModeField, w_n: ModeField, rho) -> complex:
    """Density-weighted mode inner product: integral of rho sum_i w_m_i* w_n_i.

    For identical modes this is the (real, positive) effective mass; for
    distinct modes the return value is the orthogonality residual.
    ``rho`` may be a number (kg/m^3) or a real sample array that broadcasts to
    the grid.  Each entry must be finite and >= 0, so a cell may be vacuum, but
    not all of them.
    """
    if w_m.grid != w_n.grid:
        raise GridError("mode fields live on different grids")
    require_number(rho, "rho", arrays=True)
    rho = np.asarray(rho)
    try:
        np.broadcast_to(rho, w_m.grid.shape)
    except ValueError:
        raise ParameterError(f"rho of shape {rho.shape} does not broadcast to the grid "
                             f"{w_m.grid.shape}") from None
    bad = ~((rho >= 0) & (rho < math.inf))  # NaN is neither
    if bad.any():
        raise ParameterError(f"rho must be finite and >= 0, got {rho[bad][0]}")
    if not rho.any():
        raise ParameterError("rho is zero everywhere")
    r, (cells, exponent) = _exponent(rho), _unit_cells(w_m.grid)
    rho = np.broadcast_to(rho * 2.0**-r, w_m.grid.shape)
    value = complex(_slab_integral(cells, lambda xs: rho[xs] * np.sum(
        np.conj(w_m._slab(xs)) * w_n._slab(xs), axis=0)))
    return _decided("effective mass", value,
                    {"rho": r, "w_m": w_m._power, "w_n": w_n._power, "cells": exponent})


# --- material tensor set -----------------------------------------------------


@dataclass(frozen=True)
class MaterialTensorSet:
    """Bulk constitutive tensors of one material (SI units).

    ``h``: piezoelectric stress-voltage tensor, 3x6 Voigt; entries may be NaN
    to mark unknown elements.  ``e``: optional stress-charge form, 3x6.
    ``p``: photoelastic 6x6 Voigt matrix, not required to be symmetric.
    ``c``: elasticity 6x6 Voigt, symmetric.  ``eta``: inverse relative
    permittivity, 3x3 symmetric positive definite.  ``rho``: kg/m^3.

    Every value is checked here, however the record is built: a scalar must
    be a number and a matrix entry a finite number, by
    :func:`~pomtrans.errors.is_number` (so not a boolean or a string); NaN is
    allowed in ``h`` and ``p`` only.
    """

    rho: float
    eps_rf: float
    eps_ir: float
    h: np.ndarray | None = None
    e: np.ndarray | None = None
    p: np.ndarray | None = None
    c: np.ndarray | None = None
    eta: np.ndarray | None = None

    def __post_init__(self):
        for name in _TENSOR_SCALARS:
            value = getattr(self, name)
            require_number(value, f"tensor scalar {name}")
            object.__setattr__(self, name, float(value))
        for name in _TENSOR_MATRICES:
            value = getattr(self, name)
            if value is None:
                continue
            # a ragged matrix has lists among its entries, which are not numbers either
            entries = np.asarray(value, dtype=object)
            bad = [v for v in entries.flat if not is_number(v)]
            if bad:
                reason = ("booleans are not numbers" if isinstance(bad[0], (bool, np.bool_))
                          else f"{shown(bad[0])} is not a number")
                raise ParameterError(f"tensor {name} is not a numeric matrix: {reason}")
            matrix = entries.astype(float)
            # NaN marks an unknown element of h and p
            ok = np.isfinite(matrix) | (np.isnan(matrix) if name in ("h", "p") else False)
            if not np.all(ok):
                raise ParameterError(f"tensor {name} entries must be finite, got {matrix[~ok][0]}")
            object.__setattr__(self, name, matrix)
        if not 0 < self.rho < math.inf:
            raise MaterialDataError(
                f"density must be positive and finite, got rho = {self.rho}")
        for name in ("eps_rf", "eps_ir"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise MaterialDataError(
                    f"permittivities must be positive and finite, got {name} = {value}")
        # the model divides by rho and works with eta_eff = 1/eps_rf
        for name in ("rho", "eps_rf"):
            value = getattr(self, name)
            if not np.finfo(float).smallest_normal <= 1 / value < math.inf:
                raise MaterialDataError(
                    f"1/{name} must be finite and not subnormal, got {name} = {value}")
        for name, shape in (("h", (3, 6)), ("e", (3, 6)), ("p", (6, 6))):
            if getattr(self, name) is not None and getattr(self, name).shape != shape:
                raise MaterialDataError(f"{name} must be a {shape[0]}x{shape[1]} Voigt matrix")
        if self.c is not None:
            if self.c.shape != (6, 6):
                raise MaterialDataError("c must be a 6x6 Voigt matrix")
            if not np.allclose(self.c, self.c.T, rtol=1e-9, atol=0):
                raise MaterialDataError("elasticity matrix must be symmetric")
        if self.eta is not None:
            if self.eta.shape != (3, 3):
                raise MaterialDataError("eta must be 3x3")
            if not np.allclose(self.eta, self.eta.T, rtol=1e-9, atol=0):
                raise MaterialDataError("eta must be symmetric")
            if np.any(np.linalg.eigvalsh(self.eta) <= 0):
                raise MaterialDataError("eta must be positive definite")
        if self.h is not None and self.e is not None:
            eta_m = self.eta if self.eta is not None else np.eye(3) / self.eps_rf
            h_pred = eta_m @ self.e
            mask = np.isfinite(self.h) & np.isfinite(self.e).all(axis=0, keepdims=True)
            scale = np.max(np.abs(h_pred)) or 1.0
            if np.any(np.abs(self.h - h_pred)[mask] > 1e-9 * scale):
                raise MaterialDataError(
                    "h and e tensors are inconsistent: h_ijk must equal eta_im e_mjk"
                )

    @property
    def eta_eff(self) -> float:
        """Scalar effective inverse relative permittivity at microwave frequencies."""
        return 1.0 / self.eps_rf

    def h_element(self, i: int, j: int, k: int) -> float:
        """h_ijk (1-based tensor indices); raises when marked unknown."""
        if self.h is None:
            raise MaterialDataError("piezoelectric tensor h is not set")
        _require_index(i, "tensor index i", 1)
        value = float(self.h[i - 1, voigt_index(j, k) - 1])
        if math.isnan(value):
            raise MaterialDataError(f"piezoelectric element h_{i}{j}{k} is unknown")
        return value


#: the required scalars and the optional matrices of a tensor set, in field order
_TENSOR_SCALARS = tuple(f.name for f in fields(MaterialTensorSet) if f.default is MISSING)
_TENSOR_MATRICES = tuple(f.name for f in fields(MaterialTensorSet) if f.default is None)


# --- coupling constants -------------------------------------------------------


def require_matching(e: ModeField, w: ModeField):
    """Reject a pair that is not (EM field, mechanical field) on one grid."""
    if e.grid != w.grid:
        raise GridError("EM and mechanical fields live on different grids")
    if e.kind != EM or w.kind != MECH:
        raise ParameterError("expected (EM field, mechanical field)")


def _piezo_prefactor(e: ModeField, w: ModeField, mat: MaterialTensorSet) -> tuple:
    """``(mantissa, exponent)`` of i sqrt(omega_em/omega_mech) / (4 sqrt(V_em V_mech eta_eff rho)),
    each value split by ``frexp``, a volume's with its :func:`_volume` cells added, and each root
    taken by :func:`_root`: no term overflows."""
    (v_em, ce, _), (v_mech, cm, _) = _volume(e, EM, mat.eta_eff), _volume(w, MECH)
    (f_em, k_em), (f_mech, k_mech), (eta, keta), (rho, krho), (ve, kve), (vm, kvm) = map(
        math.frexp, (e.frequency, w.frequency, mat.eta_eff, mat.rho, v_em, v_mech))
    ratio, kr = _root(f_em / f_mech, k_em - k_mech)
    volumes, kv = _root(ve * vm, kve + ce + kvm + cm)
    density, kd = _root(eta * rho, keta + krho)
    return 1j * ratio / (4 * volumes) / density, kr - kv - kd


def overlap_integral(e: ModeField, gradients: np.ndarray, j: int, k: int,
                     component: int) -> complex:
    """integral of E_i dw_j/dr_k over the grid (all indices 1-based), from full gradients."""
    integrand = e.components[component - 1] * gradients[j - 1, k - 1]
    return complex(trapezoid_3d(integrand, e.grid))


# The rates and the mode volumes walk the grid in x-slabs, so beside the two fields
# they hold only a few slab-sized arrays, never a full-grid gradient or intensity.

#: roundoff's largest share of an unknown Voigt entry's overlap bound (see the module docstring)
_UNKNOWN_RTOL = 1e-10
#: a tensor is rescaled only by the power of two of its largest entry above this one, so that
#: entries far below the largest stay normal
_TENSOR_HEADROOM = 512


def _x_slabs(grid: Grid3D):
    """Slices of whole x-planes, each of at most CSV_BLOCK_ROWS voxels and at least one plane."""
    step = max(1, CSV_BLOCK_ROWS // (grid.counts[1] * grid.counts[2]))
    for start in range(0, grid.counts[0], step):
        yield slice(start, min(start + step, grid.counts[0]))


def _slab_gradients(w: ModeField, xs: slice, spacing, j=slice(None), axes=(0, 1, 2)) -> list:
    """d (w_j 2^-b) / d r_k (0-based) on the x-planes ``xs``, for each k of ``axes``.

    b is w's ``_power``: at the grid's ``spacing`` each is bit-equal to
    :func:`strain_field`'s times 2^-b.  The slab is read once, by
    :meth:`~ModeField._slab`, with two halo planes on each side, clipped at the
    grid's ends: along x every plane of ``xs`` then gets the stencil it gets on the
    whole grid, and the halo gives the 3 planes the one-sided second-order stencil needs.
    """
    lo, hi = max(xs.start - 2, 0), min(xs.stop + 2, w.grid.counts[0])
    halo, core = w._slab(slice(lo, hi), j), slice(xs.start - lo, xs.stop - lo)
    return [np.gradient(halo, spacing[0], axis=-3, edge_order=2)[..., core, :, :] if k == 0 else
            np.gradient(halo[..., core, :, :], spacing[k], axis=k - 3, edge_order=2) for k in axes]


def _pair_sums(w: ModeField, xs: slice, spacing) -> np.ndarray:
    """B_J: the :func:`_slab_gradients` d w_m / d r_n summed over both orders of Voigt pair J."""
    g = _slab_gradients(w, xs, spacing)  # g[n][m] is d w_m / d r_n
    return np.stack([g[m][m] if m == n else g[n][m] + g[m][n] for m, n in _VOIGT_PAIRS])


def _slab_integral(grid: Grid3D, integrand):
    """trapezoid_3d of the samples ``integrand(xs)`` returns for each x-slab ``xs``.

    The samples' last three axes are x, y and z; leading axes stack several
    integrands, each integrated alone; so does a generator of sample arrays,
    whose arrays are reduced one at a time.  Each step reduces the last axis: z,
    y, then the x-planes of all slabs.  A one-point axis is taken as its sample,
    as trapezoid_3d squeezes it, and the x-planes keep the integrand's dtype.
    The walk runs under numpy's ignore state: its caller decides on the result.
    """
    def planes(out):
        if not isinstance(out, np.ndarray):
            return np.stack([planes(o) for o in out])
        for k in (2, 1):
            out = (np.trapezoid(out, dx=grid.spacing[k]) if grid.counts[k] > 1
                   else np.squeeze(out, axis=-1))
        return out

    with np.errstate(all="ignore"):
        out = np.concatenate([planes(integrand(xs)) for xs in _x_slabs(grid)], axis=-1)
        return np.trapezoid(out, dx=grid.spacing[0]) if grid.counts[0] > 1 else out[..., 0]


def _rescaled(e: ModeField, w: ModeField) -> tuple:
    """``(cells, spacing, parts)``: an overlap of E and a gradient of w walks E 2^-a and w 2^-b
    (each field's :meth:`~ModeField._slab`) on the :func:`_unit_cells` ``cells``,
    differentiating at the ``spacing`` times the 2^-s that brings the largest into [1, 2);
    ``parts`` holds the overlap's powers of two, the grid's being the cells' exponent less s."""
    require_matching(e, w)
    _require_differentiable(w)
    (cells, exponent), s = _unit_cells(e.grid), _exponent(max(e.grid.spacing))
    spacing = tuple(math.ldexp(d, -s) for d in e.grid.spacing)
    return cells, spacing, {"em field": e._power, "mech field": w._power, "grid": exponent - s}


def _overlap(e: ModeField, w: ModeField, i: int, j: int, k: int) -> tuple:
    """``(overlap, parts)``: integral of E_i dw_j/dr_k (0-based), differentiating only that one
    gradient, is ``overlap`` times 2 to the sum of the exponents in ``parts``."""
    cells, spacing, parts = _rescaled(e, w)
    return complex(_slab_integral(cells, lambda xs: (
        e._slab(xs, i) * _slab_gradients(w, xs, spacing, j, [k])[0]))), parts


def _voigt_sum(matrix: np.ndarray, rows, pair_sums: np.ndarray):
    """sum_J (sum_K matrix[K, J] rows[K]) pair_sums[J], from elementwise products.

    The products are summed in index order, with no BLAS call, so the result
    depends neither on the thread count nor on the kernel chosen for the CPU.
    """
    # one buffer for every product: allocating a slab-sized array per term was slower
    product = np.empty(rows[0].shape, np.result_type(matrix, rows[0]))
    total = 0
    for J in range(matrix.shape[1]):
        weight = matrix[0, J] * rows[0]
        for K in range(1, matrix.shape[0]):
            weight += np.multiply(matrix[K, J], rows[K], out=product)
        total += weight * pair_sums[J]
    return total


def _element_name(tensor: str, r: int, J: int) -> str:
    """``h_ijk`` or ``p_ijkl`` of Voigt entry (r, J) by its a <= b image; sorts in index order."""
    first = (r,) if tensor == "h" else _VOIGT_PAIRS[r]
    return f"{tensor}_" + "".join(str(n + 1) for n in (*first, *_VOIGT_PAIRS[J]))


def _contraction(e: ModeField, w: ModeField, mat: MaterialTensorSet, tensor: str) -> tuple:
    """``(total, parts)``: sum_rJ M_rJ integral of R_r B_J is ``total`` times 2 to the sum of
    the exponents in ``parts``.

    M is the Voigt matrix of ``tensor``, ``"h"`` or ``"p"``; B_J sums dw_a/dr_b over
    both orders of Voigt pair J; R_r is E_i for ``h``, and A_I, E_a E_b* summed
    likewise, for ``p``.  The one walk, under numpy's ignore state, reads E, w
    and the grid as :func:`_rescaled` and M over its largest known entry's power
    of two above 2^_TENSOR_HEADROOM: no sum overflows, in any error state."""
    kind, matrix = ("piezoelectric" if tensor == "h" else "photoelastic"), getattr(mat, tensor)
    if matrix is None:
        raise MaterialDataError(f"{kind} tensor {tensor} is not set")
    cells, spacing, parts = _rescaled(e, w)

    def rows(xs):
        field = e._slab(xs)
        if tensor == "h":
            return field
        # |E_a|^2 for a = b, else E_a E_b* + E_b E_a* = 2 Re(E_a E_b*)
        return [(field[m] * field[n].conj()).real * (1 if m == n else 2) for m, n in _VOIGT_PAIRS]

    unknown = sorted(np.argwhere(np.isnan(matrix)).tolist(),
                     key=lambda entry: _element_name(tensor, *entry))
    known = np.where(np.isnan(matrix), 0.0, matrix)
    t = max(0, _exponent(known) - _TENSOR_HEADROOM)
    known = np.ldexp(known, -t)

    def integrand(xs):
        r_rows, pair_sums = rows(xs), _pair_sums(w, xs, spacing)
        yield _voigt_sum(known, r_rows, pair_sums)
        if unknown:
            yield from (r_rows[r] * pair_sums[J] for r, J in unknown)
            yield from (np.abs(row)**2 for row in r_rows)
            yield np.sum(np.abs(pair_sums)**2, axis=0)

    total, *values = _slab_integral(cells, integrand).tolist()
    # an overlap and its bound share one power of two, so both are compared as walked
    for (r, J), overlap in zip(unknown, values):  # then the squares of each R_r and of B
        bound = math.sqrt(values[len(unknown) + r].real * values[-1].real)
        if not abs(overlap) <= _UNKNOWN_RTOL * bound < math.inf:
            raise MaterialDataError(f"{kind} element {_element_name(tensor, r, J)} is "
                                    "unknown but its overlap integral is nonzero")
    return total, {f"tensor {tensor}": t, **parts,
                   "em field": e._power * (1 if tensor == "h" else 2)}


def piezo_coupling(e: ModeField, w: ModeField, mat: MaterialTensorSet,
                   component: tuple[int, int, int]) -> complex:
    """Single-component piezoelectric coupling rate g_ijk between two modes.

    |h_ijk| i sqrt(omega_em/omega_mech) / (4 V_mn sqrt(eta_eff rho)) *
    integral of E_i dw_j/dr_k, with V_mn the geometric mean of the two mode
    volumes (:func:`em_mode_volume` at eta_eff and :func:`mech_mode_volume`).
    ``component`` is the 1-based (i, j, k) selection of one tensor element.
    """
    require_matching(e, w)
    i, j, k = component
    h = abs(mat.h_element(i, j, k))
    t = _exponent(h)
    prefactor, p = _piezo_prefactor(e, w, mat)
    overlap, parts = _overlap(e, w, i - 1, j - 1, k - 1)
    return _decided(f"piezoelectric coupling rate g_{i}{j}{k}",
                    math.ldexp(h, -t) * prefactor * overlap,
                    {f"tensor h_{i}{j}{k}": t, **parts, "prefactor": p})


def piezo_coupling_total(e: ModeField, w: ModeField, mat: MaterialTensorSet) -> complex:
    """Full-tensor piezoelectric coupling: signed sum of h_ijk-weighted overlaps.

    It is the sum over all 27 tensor elements of sign(h_ijk) times
    :func:`piezo_coupling` of (i, j, k), in which a shear Voigt entry h_iJ
    (J = 4..6) sets two, h_iab and h_iba: the :func:`_contraction` of ``h``.
    """
    total, parts = _contraction(e, w, mat, "h")
    prefactor, p = _piezo_prefactor(e, w, mat)
    return _decided("piezoelectric coupling rate", total * prefactor, {**parts, "prefactor": p})


def optomech_coupling(e: ModeField, w: ModeField, mat: MaterialTensorSet) -> float:
    """Single-photon optomechanical coupling rate between an EM and a mechanical mode.

    sqrt(hbar / (32 rho V_mech eps0^2 eta_eff^2 V_em^2 omega_mech)) times the
    photoelastic overlap sum p_ijkl integral of E_i E_j* dw_k/dr_l, with
    omega_mech the frequency of ``w``.  The optical field enters as E E*, so
    the result is independent of its global phase; the magnitude of the
    (generally complex) overlap sum, the :func:`_contraction` of ``p``, is returned.
    """
    total, parts = _contraction(e, w, mat, "p")
    (v_em, ce, _), (v_mech, cm, _) = _volume(e, EM, mat.eta_eff), _volume(w, MECH)
    (rho, kr), (eps0, ke0), (eta, ket), (om, kom), (hbar, kh), (ve, kve), (vm, kvm) = map(
        math.frexp, (mat.rho, EPSILON_0, mat.eta_eff, w.frequency, HBAR, v_em, v_mech))
    denominator = 32 * rho * vm * eps0**2 * eta**2 * ve**2 * om
    prefactor, p = _root(hbar / denominator, kh - (kr + kvm + cm + 2 * (ke0 + ket + kve + ce) + kom))
    return _decided("optomechanical coupling rate", prefactor * abs(total),
                    {**parts, "prefactor": p})


# --- analytic mode library -----------------------------------------------------


def plane_wave(grid: Grid3D, kind: str, frequency: float, amplitude: complex,
               wavevector: Sequence[float], polarization: int) -> ModeField:
    """Single-polarization plane wave A e^{i q . r} along one Cartesian axis.

    ``polarization`` is the 0-based axis of the field's one nonzero component.
    """
    _require_index(polarization, "polarization")
    x, y, z = grid.meshgrid()
    qx, qy, qz = wavevector
    phase = np.exp(1j * (qx * x + qy * y + qz * z))
    comps = np.zeros((3, *grid.shape), dtype=complex)
    comps[polarization] = amplitude * phase
    return ModeField(grid, comps, kind, frequency)


def gaussian_sheet(grid: Grid3D, kind: str, frequency: float, amplitude: complex,
                   polarization: int, axis: int, center: float, width: float) -> ModeField:
    """Field concentrated in a Gaussian sheet transverse to one axis.

    ``polarization`` and ``axis`` are 0-based axes and ``width``, the 1/e
    half-width along ``axis``, is a finite number > 0.
    """
    _require_index(polarization, "polarization")
    _require_index(axis, "axis")
    require_number(width, "width")
    if not 0 < width < math.inf:
        raise ParameterError(f"width must be a finite number > 0, got {width}")
    coords = grid.meshgrid()[axis]
    comps = np.zeros((3, *grid.shape), dtype=complex)
    comps[polarization] = amplitude * np.exp(-((coords - center) / width) ** 2)
    return ModeField(grid, comps, kind, frequency)


# --- field file I/O -------------------------------------------------------------


def save_mode_field(path, f: ModeField) -> None:
    """Columnar CSV export with grid metadata on a comment header line."""
    g = f.grid
    header_meta = (
        "# origin={0},{1},{2} spacing={3},{4},{5} counts={6},{7},{8} "
        "kind={9} frequency={10!r}"
    ).format(*g.origin, *g.spacing, *g.counts, f.kind, f.frequency)
    # the axes broadcast against the grid, and each block materializes only its own rows
    cols = [g.axis(0)[:, None, None], g.axis(1)[:, None], g.axis(2)]
    for c in range(3):
        cols += [f.components[c].real, f.components[c].imag]
    with open(path, "wb") as fh:
        fh.write(f"{header_meta}\nx,y,z,Re_fx,Im_fx,Re_fy,Im_fy,Re_fz,Im_fz\n".encode())
        fh.writelines(csv_blocks(cols, "%r"))


def _malformed_row(lines: list[str], start: int, width: int | None) -> str:
    """The first data row of a mode field file that is not 9 numbers, and what is wrong.

    ``lines`` is the block ``np.loadtxt`` rejected, after ``start`` data rows of
    ``width`` cells each (None if there were none), so the first of them is
    wrong unless ``width`` is 9.  Rows are numbered from 1 like ``np.loadtxt``'s
    rows: after the two header lines, skipping blank lines and ``#`` comments.
    The file is not read again: a pipe could not be.
    """
    if width not in (None, 9):
        return f"data row 1 has {width} cells, expected 9"
    lines = (line.split("#", 1)[0] for line in lines)
    for n, line in enumerate((line for line in lines if line.strip()), start=start + 1):
        cells = line.split(",")
        if len(cells) != 9:
            return f"data row {n} has {len(cells)} cells, expected 9"
        for c, cell in enumerate(cells, start=1):
            try:
                parse_number(cell)
            except ValueError:
                return f"data row {n} cell {c} is not a number: {cell.strip()!r}"
    return "a data row is not 9 comma-separated numbers"


def load_mode_field(path) -> ModeField:
    """Read a mode field written by :func:`save_mode_field`.

    Rows must be 9 numbers listing the header grid's points in "ij" (x-major)
    order; a row that is not, or whose x, y or z is off its grid point by more
    than 1e-3 of that axis's spacing, is rejected, naming the first such row.
    Every :class:`ParameterError` raised while loading names the file.  The
    rows are read ``CSV_BLOCK_ROWS`` lines at a time straight into the
    component array, which is allocated only if the file is large enough to
    hold the header grid's rows.

    A coordinate cell is converted only where its text differs from the cell
    one grid step back on its axis (:func:`_coordinate_rows`).  The files
    :func:`save_mode_field` writes spell each coordinate alike wherever it
    recurs, so few cells are converted; a file whose coordinate text seldom
    repeats converts most of them on top of the text read, and loads about
    60% slower than with a float read.  Either way the same files load, to
    the same bits, and the rest fail with the same messages.
    """
    try:
        return _read_mode_field(path)
    except ParameterError as exc:
        raise ParameterError(f"mode field {path}: {exc}") from exc


#: bytes a coordinate cell is read into by :func:`_coordinate_rows`: they hold the repr of any
#: float but a negative one with 17 digits and a three-digit exponent, which fills them, and
#: a multiple of 8 compares as whole words
_CELL_BYTES = 24
#: a data row as :func:`_coordinate_rows` reads it: three coordinate cells as text, six numbers
_CELL_ROW = np.dtype([("xyz", f"S{_CELL_BYTES}", 3), ("f", float, 6)])


def _loadtxt(lines, dtype=float):
    with warnings.catch_warnings():
        # a block without rows would also print a warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", ndmin=2 if dtype is float else 1)


def _coordinate_rows(lines: list[str], period: int):
    """A block's ``(coordinates, components)``, with each coordinate cell converted
    only where its text differs from the cell one grid step back along its axis, or None.

    A step back is the row before for x and y and ``period`` rows before for z;
    a repeated cell takes the value of the cell it repeats, and the converted
    cells are read by :func:`~pomtrans.errors.parse_number` in one cast.  None
    leaves the block to the float read: a block that is not 9-cell rows, has no
    rows, holds a NUL (a bytes cell drops a trailing one), has a coordinate
    cell that fills its ``_CELL_BYTES`` (it may be cut short) or one that is
    no number.
    """
    if any("\x00" in line for line in lines):
        return None
    try:
        rows = _loadtxt(lines, _CELL_ROW)
    except ValueError:
        return None
    n, cells = len(rows), rows["xyz"]
    if not n or cells.view(np.uint8)[:, _CELL_BYTES - 1::_CELL_BYTES].any():
        return None
    words = cells.view(np.uint64).reshape(n, 3, -1)
    # a z period past the block's rows, which the header sets, leaves no cell a step back
    steps = 1, 1, min(period, n)
    changed = np.ones((n, 3), dtype=bool)
    for k, step in enumerate(steps):
        ahead, back = words[step:, k], words[:-step, k]
        # word by word: a reduction along the short last axis is ten times slower
        changed[step:, k] = np.logical_or.reduce(
            [ahead[:, i] != back[:, i] for i in range(words.shape[2])])
    try:
        values = parse_number(cells[changed])
    except ValueError:
        return None
    coordinates = np.empty((n, 3))
    coordinates[changed] = values
    for k, step in enumerate(steps):
        # each row's last converted cell on its axis, in steps back: a running max per chain
        last = np.zeros(-(-n // step) * step, dtype=np.intp)
        last[:n] = np.where(changed[:, k], np.arange(n), 0)
        last = np.maximum.accumulate(last.reshape(-1, step), axis=0).reshape(-1)[:n]
        coordinates[:, k] = coordinates[last, k]
    return coordinates, rows["f"]


def _data_blocks(fh, period: int):
    """``(first data row, coordinates, components)`` per ``CSV_BLOCK_ROWS`` lines of ``fh``.

    These are float arrays of each data row's first three cells and of the rest;
    a block of only blank lines and comments is skipped.  Each block is read by
    :func:`_coordinate_rows`, ``period`` the rows per z period of the header
    grid; a block it leaves is read as float rows, which convert every cell.
    A block that is not numbers, or whose column count differs from the first
    block's, raises the :func:`_malformed_row` message, as a whole-file
    ``np.loadtxt`` would.
    """
    start, width = 0, None
    while True:
        lines = list(itertools.islice(fh, CSV_BLOCK_ROWS))
        if not lines:
            return
        block = _coordinate_rows(lines, period) if width in (None, 9) else None
        if block is None:
            try:
                rows = _loadtxt(lines)
                if len(rows) and width not in (None, rows.shape[1]):
                    raise ValueError("column count changed")
            except ValueError as exc:
                raise ParameterError(_malformed_row(lines, start, width)) from exc
            block = rows[:, :3], rows[:, 3:]
        coordinates, components = block
        if len(coordinates):
            width = coordinates.shape[1] + components.shape[1]
            yield start, coordinates, components
            start += len(coordinates)


def _read_mode_field(path) -> ModeField:
    with open(path, "r", encoding="utf-8") as fh:
        meta_line = fh.readline().strip()
        if not meta_line.startswith("#"):
            raise ParameterError("mode field file must start with a '# origin=...' header")
        meta = {}
        for token in meta_line.lstrip("#").split():
            key, _, raw = token.partition("=")
            meta[key] = raw
        try:
            # read like the data rows: np.loadtxt reads no '1_0' and no non-ASCII digit
            origin = tuple(parse_number(v) for v in meta["origin"].split(","))
            spacing = tuple(parse_number(v) for v in meta["spacing"].split(","))
            counts = tuple(parse_number(v, int) for v in meta["counts"].split(","))
            kind = meta["kind"]
            frequency = parse_number(meta["frequency"])
        except (KeyError, ValueError) as exc:
            raise ParameterError(f"malformed mode field header: {meta_line!r}") from exc
        fh.readline()  # column header
        try:
            grid = Grid3D(origin, spacing, counts)
        except ParameterError:
            for _ in _data_blocks(fh, 1):  # a malformed row is named first, at any counts
                pass
            raise
        expected = math.prod(counts)
        # a row is 9 numbers and 8 commas, and all but the last a newline: a
        # file too small for the grid is only counted, never given its array
        fits = not fh.seekable() or expected <= (os.fstat(fh.fileno()).st_size + 1) // 18
        comps = np.empty((3, expected), dtype=complex) if fits else None
        n_rows, width, off_grid = 0, 1, None
        for start, coordinates, values in _data_blocks(fh, counts[2]):
            n_rows, width = start + len(values), coordinates.shape[1] + values.shape[1]
            if comps is None or width != 9 or n_rows > expected or off_grid is not None:
                continue  # the shape or an earlier row is already wrong: only count
            index = np.unravel_index(np.arange(start, n_rows), counts)
            off = np.zeros(len(values), dtype=bool)
            for k in range(3):
                # grid.axis(k)[index[k]], without an axis array; written as
                # "not within" so a NaN coordinate is off the grid too
                off |= ~(np.abs(coordinates[:, k] - (origin[k] + spacing[k] * index[k]))
                         <= 1e-3 * spacing[k])
            if off.any():
                first = int(off.argmax())
                off_grid = start + first, tuple(coordinates[first].tolist())
                continue
            # set apart, not as re + 1j * im: an infinite cell must reach ModeField's check
            comps[:, start:n_rows].real = values[:, 0::2].T
            comps[:, start:n_rows].imag = values[:, 1::2].T
    if (n_rows, width) != (expected, 9):
        raise ParameterError(
            f"mode field file has shape {(n_rows, width)}, expected ({expected}, 9)"
        )
    if off_grid is not None:
        row, at = off_grid
        point = tuple(float(grid.axis(k)[i]) for k, i in enumerate(np.unravel_index(row, counts)))
        raise ParameterError(f"data row {row + 1} at {at} is off its header grid point {point}")
    return ModeField(grid, comps.reshape(3, *counts), kind, frequency)


def load_tensor_set(path) -> MaterialTensorSet:
    """Read a material tensor JSON file into a :class:`MaterialTensorSet`.

    The file is one JSON object with the required scalars ``rho``, ``eps_rf``
    and ``eps_ir`` and the optional Voigt matrices ``h``, ``e``, ``p``, ``c``
    and ``eta`` (SI units).  Unknown keys and a missing scalar are rejected
    by name; :class:`MaterialTensorSet` checks the values.  Every JSON number
    is read as a float, so an integer literal beyond float range reads as inf.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_int=float)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"invalid tensor JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParameterError(f"tensor file {path} must contain a JSON object")
    unknown = sorted(set(data) - {*_TENSOR_SCALARS, *_TENSOR_MATRICES})
    if unknown:
        raise ParameterError(f"unknown tensor keys: {unknown}")
    for key in _TENSOR_SCALARS:
        if key not in data:
            raise ParameterError(f"tensor file missing required scalar {key!r}")
    return MaterialTensorSet(**data)
