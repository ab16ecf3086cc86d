"""Microscopic coupling constants from discretized mode fields.

Electromagnetic and mechanical displacement mode functions live on uniform
rectilinear grids; overlap integrals use the trapezoid rule (second-order
accurate on smooth fields, verified by refinement in the tests) and strain is
the displacement gradient, valid in the absence of rigid-body rotation.

Unit conventions follow the materials literature this feeds on: the
piezoelectric tensor ``h`` is stored in its stress-voltage Voigt form, the
photoelastic tensor ``p`` is the 6x6 Voigt matrix (NOT assumed symmetric),
``eta`` is the inverse relative permittivity and densities are SI kg/m^3
(tabulated g/cm^3 values are multiplied by 1000 on ingestion).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import warnings
from dataclasses import MISSING, dataclass, fields
from typing import Sequence

import numpy as np

from .constants import EPSILON_0, HBAR
from .errors import GridError, MaterialDataError, ParameterError
from .sweep import csv_blocks

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


def voigt_pair(index: int) -> tuple[int, int]:
    """Canonical (i, j) pair of a Voigt index; inverse of :func:`voigt_index`."""
    try:
        return _PAIR_OF_VOIGT[index]
    except KeyError:
        raise ParameterError(f"Voigt index must be in 1..6, got {index}") from None


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

    @property
    def box_volume(self) -> float:
        return math.prod(
            self.spacing[k] * (self.counts[k] - 1) for k in range(3) if self.counts[k] > 1
        )


EM = "em"
MECH = "mech"


@dataclass(frozen=True)
class ModeField:
    """Complex vector field on a grid: an EM mode or a mechanical displacement mode.

    ``components`` is stored read-only, so the cached :attr:`strain` and mode
    volumes cannot go stale.  A complex array is stored without a copy: the
    caller's array is frozen too.  ``frequency`` must be finite and > 0, so
    the rates may divide by it.
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
    def strain(self) -> np.ndarray:
        """:func:`strain_field` of this field, computed on first use."""
        return strain_field(self)

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


def strain_field(w: ModeField) -> np.ndarray:
    """All nine displacement gradients d w_j / d r_k, shape (3, 3, nx, ny, nz).

    Central differences in the interior and one-sided second-order stencils at
    the boundaries.  With rigid-body rotation excluded this gradient IS the
    strain.  Axes with fewer than 3 points cannot be differentiated.
    """
    if w.kind != MECH:
        raise ParameterError("strain is defined for mechanical displacement fields")
    for k in range(3):
        if w.grid.counts[k] < 3:
            raise GridError(
                f"axis {k} has {w.grid.counts[k]} points; need >= 3 to differentiate"
            )
    out = np.empty((3, 3, *w.grid.shape), dtype=complex)
    for j in range(3):
        for k in range(3):
            out[j, k] = np.gradient(
                w.components[j], w.grid.spacing[k], axis=k, edge_order=2
            )
    return out


def _intensity(f: ModeField) -> np.ndarray:
    return np.sum(np.abs(f.components) ** 2, axis=0)


def _intensity_integral(density: np.ndarray, f: ModeField) -> float:
    """trapezoid_3d of an intensity ``density`` of ``f``, rejecting a zero integral."""
    total = float(trapezoid_3d(density, f.grid))
    if total == 0:
        if np.any(f.components):
            raise ParameterError(
                "mode field intensity integral underflows to 0, though the field is not zero")
        raise ParameterError("mode field is identically zero")
    return total


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
    sum_i |w_i|^2; independent of any rescaling of the field.
    """
    if w.kind != MECH:
        raise ParameterError("expected a mechanical displacement field")
    with _intensity_overflow_named(w):
        intensity = _intensity(w)
        density = intensity / _intensity_integral(intensity, w)
        return 1.0 / _intensity_integral(density**2, w)


def em_mode_volume(e: ModeField, eta_eff: float) -> float:
    """Electromagnetic mode volume with inverse-permittivity weighting.

    (integral of eta_eff |E|^2)^2 / integral of (eta_eff |E|^2)^2, at the
    scalar effective inverse relative permittivity ``eta_eff``.
    """
    if e.kind != EM:
        raise ParameterError("expected an electromagnetic field")
    with _intensity_overflow_named(e):
        density = float(eta_eff) * _intensity(e)
        return _intensity_integral(density, e)**2 / _intensity_integral(density**2, e)


def _scaled_to_volume(f: ModeField, v_eff: float) -> ModeField:
    return f.scaled(math.sqrt(v_eff / float(trapezoid_3d(_intensity(f), f.grid))))


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


def _piezo_prefactor(e: ModeField, w: ModeField, mat: MaterialTensorSet,
                     h: float | None = None) -> complex:
    """i sqrt(omega_em/omega_mech) / (4 sqrt(V_em V_mech eta_eff rho)), times |h| if given."""
    v_em, v_mech = e.em_volume(mat.eta_eff), w.mech_volume
    scale = 1j * math.sqrt(e.frequency / w.frequency) / (4 * math.sqrt(v_em * v_mech))
    eta_rho = _in_range(mat.eta_eff * mat.rho, "eta_eff rho", mat)
    if h is None:
        return scale / math.sqrt(eta_rho)
    # sqrt(h^2 / (eta_eff rho)) as piezo_coupling documents it; |h| / sqrt(...) rounds differently
    return scale * math.sqrt(h**2 / eta_rho)


def overlap_integral(e: ModeField, gradients: np.ndarray, j: int, k: int,
                     component: int) -> complex:
    """integral of E_i dw_j/dr_k over the grid (all indices 1-based)."""
    integrand = e.components[component - 1] * gradients[j - 1, k - 1]
    return complex(trapezoid_3d(integrand, e.grid))


def piezo_coupling(e: ModeField, w: ModeField, mat: MaterialTensorSet,
                   component: tuple[int, int, int]) -> complex:
    """Single-component piezoelectric coupling rate g_ijk between two modes.

    i sqrt(omega_em/omega_mech) / (4 V_mn) * sqrt(h_ijk^2 / (eta_eff rho)) *
    integral of E_i dw_j/dr_k, with V_mn the geometric mean of the two mode
    volumes (:func:`em_mode_volume` at eta_eff and :func:`mech_mode_volume`).
    ``component`` is the 1-based (i, j, k) selection.
    """
    require_matching(e, w)
    i, j, k = component
    h = mat.h_element(i, j, k)
    # the prefactor squares h; a square that over- or underflows would raise or give 0
    if h != 0 and not 0 < h * h < math.inf:
        raise MaterialDataError(
            f"piezoelectric element h_{i}{j}{k} = {h} has a square out of range (0, inf)")
    integral = overlap_integral(e, w.strain, j, k, component=i)
    return _piezo_prefactor(e, w, mat, h) * integral


def piezo_coupling_total(e: ModeField, w: ModeField, mat: MaterialTensorSet) -> complex:
    """Full-tensor piezoelectric coupling: signed sum of h_ijk-weighted overlaps.

    Reduces to :func:`piezo_coupling` (up to the sign of h_ijk) when a single
    tensor element is nonzero.  Unknown (NaN) elements raise only when the
    corresponding overlap would contribute; the known elements contract with
    the fields into one integrand, integrated once.
    """
    require_matching(e, w)
    if mat.h is None:
        raise MaterialDataError("piezoelectric tensor h is not set")
    grads = w.strain
    h = rank3_from_voigt(mat.h)
    for i, j, k in np.argwhere(np.isnan(h)) + 1:
        if overlap_integral(e, grads, j, k, component=i) != 0:
            raise MaterialDataError(
                f"piezoelectric element h_{i}{j}{k} is unknown but its "
                "overlap integral is nonzero"
            )
    known = np.where(np.isnan(h), 0.0, h)
    integrand = np.einsum("ijk,i...,jk...->...", known, e.components, grads)
    total = complex(trapezoid_3d(integrand, e.grid))
    return _piezo_prefactor(e, w, mat) * total


def optomech_coupling(e: ModeField, w: ModeField, mat: MaterialTensorSet) -> float:
    """Single-photon optomechanical coupling rate between an EM and a mechanical mode.

    sqrt(hbar / (32 rho V_mech eps0^2 eta_eff^2 V_em^2 omega_mech)) times the
    photoelastic overlap sum p_ijkl integral of E_i E_j* dw_k/dr_l, with
    omega_mech the frequency of ``w``.  The optical field enters as E E*, so
    the result is independent of its global phase; the magnitude of the
    (generally complex) overlap sum is returned.  The sum over tensor
    elements is taken inside one integrand, integrated once.
    """
    require_matching(e, w)
    if mat.p is None:
        raise MaterialDataError("photoelastic tensor p is not set")
    p = rank4_from_voigt(mat.p)
    unknown = np.argwhere(np.isnan(p))
    if len(unknown):
        i, j, k, l = unknown[0] + 1
        raise MaterialDataError(f"photoelastic element p_{i}{j}{k}{l} is unknown")
    # no optimize=: a pairwise contraction would build a (3, 3, grid) intermediate
    integrand = np.einsum("ijkl,i...,j...,kl...->...", p, e.components,
                          np.conj(e.components), w.strain)
    total = complex(trapezoid_3d(integrand, e.grid))
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


def top_hat(grid: Grid3D, kind: str, frequency: float, amplitude: complex,
            polarization: int, lo: Sequence[float], hi: Sequence[float]) -> ModeField:
    """Uniform field on the axis-aligned box [lo, hi], zero outside."""
    x, y, z = grid.meshgrid()
    inside = (
        (x >= lo[0]) & (x <= hi[0])
        & (y >= lo[1]) & (y <= hi[1])
        & (z >= lo[2]) & (z <= hi[2])
    )
    comps = np.zeros((3, *grid.shape), dtype=complex)
    comps[polarization] = amplitude * inside
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
    x, y, z = g.meshgrid()
    cols = [x.ravel(), y.ravel(), z.ravel()]
    for c in range(3):
        cols.append(f.components[c].real.ravel())
        cols.append(f.components[c].imag.ravel())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header_meta + "\n")
        fh.write("x,y,z,Re_fx,Im_fx,Re_fy,Im_fy,Re_fz,Im_fz\n")
        fh.writelines(csv_blocks(cols, "%r"))


def _malformed_row(path) -> str:
    """The first data row of a mode field file that is not 9 numbers, and what is wrong.

    Rows are numbered from 1 like ``np.loadtxt``'s rows: after the two header
    lines, skipping blank lines and ``#`` comments.  A decode error that
    ``np.loadtxt`` hit is raised again here.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = (line.split("#", 1)[0] for line in itertools.islice(fh, 2, None))
        for n, line in enumerate((line for line in lines if line.strip()), start=1):
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
    Every :class:`ParameterError` raised while loading names the file.
    """
    try:
        return _read_mode_field(path)
    except ParameterError as exc:
        raise ParameterError(f"mode field {path}: {exc}") from exc


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
        with warnings.catch_warnings():
            # a file without rows would also print a warning; the shape check names it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise ParameterError(_malformed_row(path)) from exc
    grid = Grid3D(origin, spacing, counts)
    expected = math.prod(counts)
    if data.shape != (expected, 9):
        raise ParameterError(
            f"mode field file has shape {data.shape}, expected ({expected}, 9)"
        )
    off_grid = np.zeros(counts, dtype=bool)
    for k in range(3):
        axis = grid.axis(k).reshape([-1 if a == k else 1 for a in range(3)])
        # written as "not within" so a NaN coordinate is off the grid too
        off_grid |= ~(np.abs(data[:, k].reshape(counts) - axis) <= 1e-3 * spacing[k])
    if off_grid.any():
        row = int(np.flatnonzero(off_grid)[0])
        point = tuple(float(grid.axis(k)[i]) for k, i in enumerate(np.unravel_index(row, counts)))
        raise ParameterError(
            f"data row {row + 1} at {tuple(data[row, :3].tolist())} "
            f"is off its header grid point {point}"
        )
    comps = np.empty((3, *counts), dtype=complex)
    for c in range(3):
        # set apart, not as re + 1j * im: an infinite cell must reach ModeField's check
        comps[c].real = data[:, 3 + 2 * c].reshape(counts)
        comps[c].imag = data[:, 4 + 2 * c].reshape(counts)
    return ModeField(grid, comps, kind, frequency)


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
