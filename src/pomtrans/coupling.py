"""Microscopic coupling constants from discretized mode fields.

Electromagnetic and mechanical displacement mode functions live on uniform
rectilinear grids; overlap integrals use the trapezoid rule (second-order
accurate on smooth fields, verified by refinement in the tests) and strain is
the displacement gradient, valid in the absence of rigid-body rotation.

An unknown (NaN) Voigt entry M_rJ of ``h`` or ``p`` multiplies one overlap, of
R_r B_J (:func:`_contraction`), and is read as 0 if that overlap is at most
_UNKNOWN_RTOL = 1e-10 of its finite Cauchy-Schwarz bound, sqrt(integral
|R_r|^2 integral sum_J |B_J|^2); else it raises.  That covers np.gradient's
roundoff, far below 1e-6: a gradient that vanishes analytically sums stencil
terms of weight 4/d at most in all (the edge stencil (-3/2, 2, -1/2)/d; central
differences of equal samples are exact), so it is off by about 4 eps max|w|/d,
against max|w|/(N d) over N points: 4 eps N, 9e-12 at N = 10^4 (eps 2.2e-16).

Unit conventions follow the materials literature this feeds on: the
piezoelectric tensor ``h`` is stored in its stress-voltage Voigt form, the
photoelastic tensor ``p`` is the 6x6 Voigt matrix (NOT assumed symmetric),
``eta`` is the inverse relative permittivity and densities are SI kg/m^3
(tabulated g/cm^3 values are multiplied by 1000 on ingestion).
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import itertools
import json
import math
import os
import warnings
from dataclasses import MISSING, dataclass, fields
from typing import Sequence

import numpy as np

from .constants import EPSILON_0, HBAR
from .errors import GridError, MaterialDataError, ParameterError
from .sweep import CSV_BLOCK_ROWS, csv_blocks

# --- Voigt notation ---------------------------------------------------------

_PAIR_OF_VOIGT = {1: (1, 1), 2: (2, 2), 3: (3, 3), 4: (2, 3), 5: (1, 3), 6: (1, 2)}
#: both orders of each symmetric 1-based index pair -> Voigt index
_VOIGT_OF_PAIR = {pair: v for v, (i, j) in _PAIR_OF_VOIGT.items() for pair in ((i, j), (j, i))}
#: 0-based Voigt column of each 0-based symmetric index pair
_VOIGT_OF_INDICES = np.array(
    [[_VOIGT_OF_PAIR[(i, j)] - 1 for j in (1, 2, 3)] for i in (1, 2, 3)])


def voigt_index(i: int, j: int) -> int:
    """Map a symmetric tensor index pair (1-based) to its Voigt index 1..6."""
    try:
        return _VOIGT_OF_PAIR[(i, j)]
    except KeyError:
        raise ParameterError(f"tensor indices must be in 1..3, got ({i}, {j})") from None


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
        if len(self.origin) != 3 or len(self.spacing) != 3 or len(self.counts) != 3:
            raise ParameterError("origin, spacing and counts must have 3 entries each")
        if any(s <= 0 for s in self.spacing):
            raise ParameterError(f"grid spacing must be positive, got {self.spacing}")
        if any(int(c) < 1 or int(c) != c for c in self.counts):
            raise ParameterError(f"grid counts must be positive integers, got {self.counts}")
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

    ``components`` is stored read-only, so the cached mode volumes cannot go
    stale.  A complex array is stored without a copy: the caller's array is
    frozen too.  ``frequency`` must be finite and > 0, so the rates may
    divide by it.
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
        if not math.isfinite(self.frequency):
            raise ParameterError(f"mode frequency must be finite, got {self.frequency}")
        if not self.frequency > 0:
            raise ParameterError(f"mode frequency must be > 0, got {self.frequency}")
        comps.flags.writeable = False
        object.__setattr__(self, "components", comps)

    @functools.cached_property
    def mech_volume(self) -> float:
        """:func:`mech_mode_volume` of this field, computed on first use."""
        return mech_mode_volume(self)

    def em_volume(self, eta_eff: float) -> float:
        """:func:`em_mode_volume` of this field at a scalar ``eta_eff``, computed once per value."""
        volumes = self.__dict__.setdefault("_em_volumes", {})
        if eta_eff not in volumes:
            volumes[eta_eff] = em_mode_volume(self, eta_eff)
        return volumes[eta_eff]

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
    bits (see :func:`_slab_gradient`).
    """
    _require_differentiable(w)
    out = np.empty((3, 3, *w.grid.shape), dtype=complex)
    for j in range(3):
        for k in range(3):
            out[j, k] = np.gradient(
                w.components[j], w.grid.spacing[k], axis=k, edge_order=2
            )
    return out


def _intensity(f: ModeField, xs: slice) -> np.ndarray:
    """sum_i |f_i|^2 on the x-planes ``xs``."""
    return np.sum(np.abs(f.components[:, xs]) ** 2, axis=0)


def _intensity_integral(density, f: ModeField):
    """:func:`_slab_integral` of an intensity ``density(xs)`` of ``f``, rejecting a zero integral.

    A float, or a list of floats when ``density`` stacks several densities, each
    of which is rejected if its integral is 0.
    """
    total = _slab_integral(f.grid, density)
    if not np.all(total):
        if np.any(f.components):
            raise ParameterError(
                "mode field intensity integral underflows to 0, though the field is not zero")
        raise ParameterError("mode field is identically zero")
    return total.tolist()


@contextlib.contextmanager
def _intensity_overflow_named(f: ModeField):
    """Raise :class:`ParameterError` naming ``f``'s kind if its intensity arithmetic overflows.

    Numpy raises on overflow inside, whatever the caller's error state, and a
    Python float square raises ``OverflowError``; neither warns.
    """
    try:
        with np.errstate(over="raise"):
            yield
    except (FloatingPointError, OverflowError):
        raise ParameterError(
            f"{f.kind} mode field intensity overflows to inf, though the field is finite"
        ) from None


def mech_mode_volume(w: ModeField) -> float:
    """Effective mechanical mode volume.

    Inverse of the integrated square of the normalized intensity density
    sum_i |w_i|^2; independent of any rescaling of the field.  The grid is
    walked twice, slab by slab: for the total intensity, then for the square of
    the normalized density.
    """
    if w.kind != MECH:
        raise ParameterError("expected a mechanical displacement field")
    with _intensity_overflow_named(w):
        total = _intensity_integral(lambda xs: _intensity(w, xs), w)
        return 1.0 / _intensity_integral(lambda xs: (_intensity(w, xs) / total)**2, w)


def em_mode_volume(e: ModeField, eta_eff: float) -> float:
    """Electromagnetic mode volume with inverse-permittivity weighting.

    (integral of eta_eff |E|^2)^2 / integral of (eta_eff |E|^2)^2, at the
    scalar effective inverse relative permittivity ``eta_eff``.  Both integrals
    are taken in one walk of the grid, slab by slab.
    """
    if e.kind != EM:
        raise ParameterError("expected an electromagnetic field")
    eta_eff = float(eta_eff)

    def density(xs):
        weighted = eta_eff * _intensity(e, xs)
        return np.stack([weighted, weighted**2])

    with _intensity_overflow_named(e):
        total, square = _intensity_integral(density, e)
        return total**2 / square


def _scaled_to_volume(f: ModeField, v_eff: float) -> ModeField:
    return f.scaled(math.sqrt(v_eff / float(_slab_integral(f.grid, lambda xs: _intensity(f, xs)))))


def normalize_mech(w: ModeField) -> ModeField:
    """Rescale so the integrated intensity equals the effective mode volume."""
    return _scaled_to_volume(w, mech_mode_volume(w))


def normalize_em(e: ModeField, eta_eff: float) -> ModeField:
    """Rescale so integral of eta_eff |E|^2 equals eta_eff times the mode volume."""
    return _scaled_to_volume(e, em_mode_volume(e, eta_eff))


def effective_mass(w_m: ModeField, w_n: ModeField, rho) -> complex:
    """Density-weighted mode inner product: integral of rho sum_i w_m_i* w_n_i.

    For identical modes this is the (real, positive) effective mass; for
    distinct modes the return value is the orthogonality residual.
    ``rho`` may be a scalar (kg/m^3) or a sample array on the grid.
    """
    if w_m.grid != w_n.grid:
        raise GridError("mode fields live on different grids")
    overlap = np.sum(np.conj(w_m.components) * w_n.components, axis=0)
    value = complex(trapezoid_3d(np.asarray(rho) * overlap, w_m.grid))
    return value


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
    be a number, not a boolean, and a matrix entry a finite number, not a
    boolean (NaN is allowed in ``h`` and ``p`` only).
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
            try:
                if isinstance(value, (bool, np.bool_)):  # float(True) would read as 1
                    raise TypeError(value)
                object.__setattr__(self, name, float(value))
            except (TypeError, ValueError) as exc:
                raise ParameterError(f"tensor scalar {name} is not a number: {value!r}") from exc
        for name in _TENSOR_MATRICES:
            value = getattr(self, name)
            if value is None:
                continue
            try:
                matrix = np.asarray(value, dtype=float)
                entries = np.asarray(value, dtype=object).flat
                if any(isinstance(v, (bool, np.bool_)) for v in entries):
                    raise TypeError("booleans are not numbers")
            except (TypeError, ValueError) as exc:
                raise ParameterError(f"tensor {name} is not a numeric matrix: {exc}") from exc
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
        if i not in (1, 2, 3):
            raise ParameterError(f"tensor index i must be in 1..3, got {i}")
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


def _in_range(value: float, what: str, mat: MaterialTensorSet) -> float:
    """``value`` of a prefactor term under a square root, unless it over- or underflowed."""
    if not 0 < value < math.inf:
        raise MaterialDataError(
            f"coupling prefactor term {what} = {value} is out of range (0, inf) "
            f"at rho = {mat.rho}, eps_rf = {mat.eps_rf}")
    return value


def _piezo_prefactor(e: ModeField, w: ModeField, mat: MaterialTensorSet) -> complex:
    """i sqrt(omega_em/omega_mech) / (4 sqrt(V_em V_mech eta_eff rho))."""
    v_em, v_mech = e.em_volume(mat.eta_eff), w.mech_volume
    scale = 1j * math.sqrt(e.frequency / w.frequency) / (4 * math.sqrt(v_em * v_mech))
    return scale / math.sqrt(_in_range(mat.eta_eff * mat.rho, "eta_eff rho", mat))


def overlap_integral(e: ModeField, gradients: np.ndarray, j: int, k: int,
                     component: int) -> complex:
    """integral of E_i dw_j/dr_k over the grid (all indices 1-based), from full gradients."""
    integrand = e.components[component - 1] * gradients[j - 1, k - 1]
    return complex(trapezoid_3d(integrand, e.grid))


# The rates and the mode volumes walk the grid in x-slabs, so beside the two fields
# they hold only a few slab-sized arrays, never a full-grid gradient or intensity.

#: 0-based index pair (a, b) of each Voigt index 1..6, in Voigt order
_VOIGT_PAIRS = [(i - 1, j - 1) for _, (i, j) in sorted(_PAIR_OF_VOIGT.items())]
#: roundoff's largest share of an unknown Voigt entry's overlap bound (see the module docstring)
_UNKNOWN_RTOL = 1e-10


def _x_slabs(grid: Grid3D):
    """Slices of whole x-planes, each of at most CSV_BLOCK_ROWS voxels and at least one plane."""
    step = max(1, CSV_BLOCK_ROWS // (grid.counts[1] * grid.counts[2]))
    for start in range(0, grid.counts[0], step):
        yield slice(start, min(start + step, grid.counts[0]))


def _slab_gradient(w: ModeField, xs: slice, j: int, k: int) -> np.ndarray:
    """d w_j / d r_k (0-based) on the x-planes ``xs``, bit-equal to :func:`strain_field`'s.

    Along x the slab is differentiated with two halo planes on each side,
    clipped at the grid's ends: every plane of ``xs`` then gets the stencil it
    gets on the whole grid, and the halo always gives the 3 planes that the
    one-sided second-order stencil needs.
    """
    if k != 0:
        return np.gradient(w.components[j, xs], w.grid.spacing[k], axis=k, edge_order=2)
    lo, hi = max(xs.start - 2, 0), min(xs.stop + 2, w.grid.counts[0])
    grad = np.gradient(w.components[j, lo:hi], w.grid.spacing[0], axis=0, edge_order=2)
    return grad[xs.start - lo:xs.stop - lo]


def _pair_sums(w: ModeField, xs: slice) -> np.ndarray:
    """B_J: d w_a / d r_b summed over both orders of each Voigt pair J, on ``xs``; shape (6, ...)."""
    g = [[_slab_gradient(w, xs, a, b) for b in range(3)] for a in range(3)]
    return np.stack([g[a][a] if a == b else g[a][b] + g[b][a] for a, b in _VOIGT_PAIRS])


def _slab_integral(grid: Grid3D, integrand):
    """trapezoid_3d of the samples ``integrand(xs)`` returns for each x-slab ``xs``.

    The samples' last three axes are x, y and z; leading axes stack several
    integrands, each integrated alone; so does a generator of sample arrays,
    whose arrays are reduced one at a time.  Each step reduces the last axis: z,
    y, then the x-planes of all slabs.  A one-point axis is taken as its sample,
    as trapezoid_3d squeezes it, and the x-planes keep the integrand's dtype.
    """
    def planes(out):
        if not isinstance(out, np.ndarray):
            return np.stack([planes(o) for o in out])
        for k in (2, 1):
            out = (np.trapezoid(out, dx=grid.spacing[k]) if grid.counts[k] > 1
                   else np.squeeze(out, axis=-1))
        return out

    out = np.concatenate([planes(integrand(xs)) for xs in _x_slabs(grid)], axis=-1)
    return np.trapezoid(out, dx=grid.spacing[0]) if grid.counts[0] > 1 else out[..., 0]


def _overlap(e: ModeField, w: ModeField, i: int, j: int, k: int) -> complex:
    """integral of E_i dw_j/dr_k (0-based), differentiating only that one gradient."""
    _require_differentiable(w)
    return complex(_slab_integral(
        e.grid, lambda xs: e.components[i, xs] * _slab_gradient(w, xs, j, k)))


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


def _too_large(tensor: str, which: str, value: float) -> MaterialDataError:
    """The error naming element ``which`` of tensor ``h`` or ``p``, too large for a finite rate."""
    kind = "piezoelectric" if tensor == "h" else "photoelastic"
    return MaterialDataError(
        f"{kind} tensor {tensor}: the coupling rate overflows at its {which} = {value}")


def _element_name(tensor: str, r: int, J: int) -> str:
    """``h_ijk`` or ``p_ijkl`` of Voigt entry (r, J) by its a <= b image; sorts in index order."""
    first = (r,) if tensor == "h" else _VOIGT_PAIRS[r]
    return f"{tensor}_" + "".join(str(n + 1) for n in (*first, *_VOIGT_PAIRS[J]))


def _contraction(e: ModeField, w: ModeField, mat: MaterialTensorSet, tensor: str) -> complex:
    """sum_rJ M_rJ integral of R_r B_J, M the Voigt matrix of ``tensor``, ``"h"`` or ``"p"``.

    B_J sums dw_a/dr_b over both orders of Voigt pair J; R_r is E_i for ``h``,
    and A_I, E_a E_b* summed likewise, for ``p``.  One walk checks every unknown
    entry by the module's rule.  If the known entries' integral is not finite
    but is with the tensor scaled to a largest element of magnitude 1, that
    element is named; else it is evaluated again in the caller's error state.
    """
    require_matching(e, w)
    kind, matrix = ("piezoelectric" if tensor == "h" else "photoelastic"), getattr(mat, tensor)
    if matrix is None:
        raise MaterialDataError(f"{kind} tensor {tensor} is not set")
    _require_differentiable(w)

    def rows(xs):
        field = e.components[:, xs]
        if tensor == "h":
            return field
        # |E_a|^2 for a = b, else E_a E_b* + E_b E_a* = 2 Re(E_a E_b*)
        return [(field[a] * field[b].conj()).real * (1 if a == b else 2) for a, b in _VOIGT_PAIRS]

    unknown = sorted(np.argwhere(np.isnan(matrix)).tolist(),
                     key=lambda entry: _element_name(tensor, *entry))
    if unknown:
        def integrand(xs):
            r_rows, pair_sums = rows(xs), _pair_sums(w, xs)
            yield from (r_rows[r] * pair_sums[J] for r, J in unknown)
            yield from (np.abs(row)**2 for row in r_rows)
            yield np.sum(np.abs(pair_sums)**2, axis=0)

        *values, b_square = _slab_integral(e.grid, integrand).tolist()
        r_squares = values[len(unknown):]
        for (r, J), overlap in zip(unknown, values):
            bound = math.sqrt(r_squares[r].real * b_square.real)
            if not abs(overlap) <= _UNKNOWN_RTOL * bound < math.inf:
                raise MaterialDataError(f"{kind} element {_element_name(tensor, r, J)} is "
                                        "unknown but its overlap integral is nonzero")
        matrix = np.where(np.isnan(matrix), 0.0, matrix)

    def total(m):
        return complex(_slab_integral(
            e.grid, lambda xs: _voigt_sum(m, rows(xs), _pair_sums(w, xs))))

    with np.errstate(all="ignore"):
        value = total(matrix)
        if cmath.isfinite(value):
            return value
        at = np.unravel_index(np.argmax(np.abs(matrix)), matrix.shape)
        scale_at_fault = cmath.isfinite(total(matrix / abs(matrix[at])))
    if scale_at_fault:
        raise _too_large(tensor, f"largest element {_element_name(tensor, *at)}", matrix[at])
    return total(matrix)


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
    h = mat.h_element(i, j, k)
    prefactor, overlap = _piezo_prefactor(e, w, mat), _overlap(e, w, i - 1, j - 1, k - 1)
    rate = abs(h) * prefactor * overlap
    if not cmath.isfinite(rate) and cmath.isfinite(prefactor * overlap):
        raise _too_large("h", f"element h_{i}{j}{k}", h)
    return rate


def piezo_coupling_total(e: ModeField, w: ModeField, mat: MaterialTensorSet) -> complex:
    """Full-tensor piezoelectric coupling: signed sum of h_ijk-weighted overlaps.

    It is the sum over all 27 tensor elements of sign(h_ijk) times
    :func:`piezo_coupling` of (i, j, k), in which a shear Voigt entry h_iJ
    (J = 4..6) sets two, h_iab and h_iba: the :func:`_contraction` of ``h``.
    """
    return _contraction(e, w, mat, "h") * _piezo_prefactor(e, w, mat)


def optomech_coupling(e: ModeField, w: ModeField, mat: MaterialTensorSet) -> float:
    """Single-photon optomechanical coupling rate between an EM and a mechanical mode.

    sqrt(hbar / (32 rho V_mech eps0^2 eta_eff^2 V_em^2 omega_mech)) times the
    photoelastic overlap sum p_ijkl integral of E_i E_j* dw_k/dr_l, with
    omega_mech the frequency of ``w``.  The optical field enters as E E*, so
    the result is independent of its global phase; the magnitude of the
    (generally complex) overlap sum, the :func:`_contraction` of ``p``, is returned.
    """
    total = _contraction(e, w, mat, "p")
    v_em, v_mech = e.em_volume(mat.eta_eff), w.mech_volume
    denominator = _in_range(
        32 * mat.rho * v_mech * EPSILON_0**2 * mat.eta_eff**2 * v_em**2 * w.frequency,
        "32 rho V_mech eps0^2 eta_eff^2 V_em^2 omega_mech", mat)
    prefactor = math.sqrt(_in_range(HBAR / denominator, "hbar / (32 rho ... omega_mech)", mat))
    return prefactor * abs(total)


# --- analytic mode library -----------------------------------------------------


def plane_wave(grid: Grid3D, kind: str, frequency: float, amplitude: complex,
               wavevector: Sequence[float], polarization: int) -> ModeField:
    """Single-polarization plane wave A e^{i q . r} along one Cartesian axis."""
    x, y, z = grid.meshgrid()
    qx, qy, qz = wavevector
    phase = np.exp(1j * (qx * x + qy * y + qz * z))
    comps = np.zeros((3, *grid.shape), dtype=complex)
    comps[polarization] = amplitude * phase
    return ModeField(grid, comps, kind, frequency)


def gaussian_sheet(grid: Grid3D, kind: str, frequency: float, amplitude: complex,
                   polarization: int, axis: int, center: float, width: float) -> ModeField:
    """Field concentrated in a Gaussian sheet transverse to one axis."""
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
                float(cell)
            except ValueError:
                return f"data row {n} cell {c} is not a number: {cell.strip()!r}"
    # a cell that float() reads and np.loadtxt does not, such as '1_0'
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
    """
    try:
        return _read_mode_field(path)
    except ParameterError as exc:
        raise ParameterError(f"mode field {path}: {exc}") from exc


def _data_blocks(fh):
    """``(first data row, rows)`` per block of ``CSV_BLOCK_ROWS`` lines of ``fh``.

    ``rows`` is the block's data rows as a float array; a block of only blank
    lines and comments is skipped.  A block that is not numbers, or whose
    column count differs from the first block's, raises the
    :func:`_malformed_row` message, as a whole-file ``np.loadtxt`` would.
    """
    start, width = 0, None
    while True:
        lines = list(itertools.islice(fh, CSV_BLOCK_ROWS))
        if not lines:
            return
        try:
            with warnings.catch_warnings():
                # a block without rows would also print a warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                rows = np.loadtxt(lines, delimiter=",", ndmin=2)
            if len(rows) and width not in (None, rows.shape[1]):
                raise ValueError("column count changed")
        except ValueError as exc:
            raise ParameterError(_malformed_row(lines, start, width)) from exc
        if len(rows):
            width = rows.shape[1]
            yield start, rows
            start += len(rows)


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
            origin = tuple(float(v) for v in meta["origin"].split(","))
            spacing = tuple(float(v) for v in meta["spacing"].split(","))
            counts = tuple(int(v) for v in meta["counts"].split(","))
            kind = meta["kind"]
            frequency = float(meta["frequency"])
        except (KeyError, ValueError) as exc:
            raise ParameterError(f"malformed mode field header: {meta_line!r}") from exc
        fh.readline()  # column header
        try:
            grid = Grid3D(origin, spacing, counts)
        except ParameterError:
            for _ in _data_blocks(fh):  # a malformed row is named first
                pass
            raise
        expected = math.prod(counts)
        # a row is 9 numbers and 8 commas, and all but the last a newline: a
        # file too small for the grid is only counted, never given its array
        fits = not fh.seekable() or expected <= (os.fstat(fh.fileno()).st_size + 1) // 18
        comps = np.empty((3, expected), dtype=complex) if fits else None
        n_rows, width, off_grid = 0, 1, None
        for start, rows in _data_blocks(fh):
            n_rows, width = start + len(rows), rows.shape[1]
            if comps is None or width != 9 or n_rows > expected or off_grid is not None:
                continue  # the shape or an earlier row is already wrong: only count
            index = np.unravel_index(np.arange(start, n_rows), counts)
            off = np.zeros(len(rows), dtype=bool)
            for k in range(3):
                # grid.axis(k)[index[k]], without an axis array; written as
                # "not within" so a NaN coordinate is off the grid too
                off |= ~(np.abs(rows[:, k] - (origin[k] + spacing[k] * index[k]))
                         <= 1e-3 * spacing[k])
            if off.any():
                first = int(off.argmax())
                off_grid = start + first, tuple(rows[first, :3].tolist())
                continue
            # set apart, not as re + 1j * im: an infinite cell must reach ModeField's check
            comps[:, start:n_rows].real = rows[:, 3::2].T
            comps[:, start:n_rows].imag = rows[:, 4::2].T
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
    by name; :class:`MaterialTensorSet` checks the values.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
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
