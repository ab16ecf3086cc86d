"""Cooperativity reformulation, optimization and sweep engines.

The transduction efficiency factorizes into extraction efficiencies and a
two-cooperativity internal conversion term; on resonance

    eta = F2 * Fm * 4 C_om C_12 / (1 + C_om + C_12)^2

which is maximized over pump power exactly when C_om = C_12 + 1.  This module
carries that reformulation, the critical photon number, spectrum/bandwidth
extraction and the parameter-sweep engines, plus the named multiplier presets
used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constants import TWO_PI
from .dynamics import (
    OperatingPoint,
    TransducerParams,
    _holds,
    _require_divisors,
    _require_finite_result,
    chi_01,
    chi_02,
    chi_m,
    derived_rates,
    efficiency,
    enhancement_resonances,
    pump_power_to_photons,
)
from .errors import GridError, ModelViolationError, ParameterError, UndefinedOptimumError
from .sweep import SweepResult

_F_M_TOL = 1e-12


@dataclass(frozen=True)
class CooperativitySet:
    """Cooperativities and extraction efficiencies of an operating point.

    On resonance all four entries are real:
    c_om = 4 g_om^2 |a1|^2 / (kappa_1 gamma_m), c_12 = 4 J^2 / (kappa_1 kappa_2),
    f_2 = kappa_ex2 / kappa_2 and f_m = gamma_ex / gamma_m.  When evaluated at
    a frequency they generalize to the complex susceptibility products.
    """

    c_om: complex
    c_12: complex
    f_2: complex
    f_m: complex


def cooperativities(op: OperatingPoint, omega: float | None = None) -> CooperativitySet:
    """On-resonance cooperativity parameters, or their complex functions at ``omega``.

    On resonance the parameter fields and the pump level broadcast together.
    Raises :class:`ModelViolationError` when the real extraction efficiency
    f_m exceeds 1 (a supplied gamma_ex inconsistent with gamma_m).
    """
    p = op.params
    r = derived_rates(p)
    if omega is None:
        _require_divisors(kappa_1=p.kappa_1, kappa_2=r.kappa_2, gamma_m=r.gamma_m)
        c_om = 4 * p.g_om**2 * op.intra_ring_photons / (p.kappa_1 * r.gamma_m)
        c_12 = 4 * p.J**2 / (p.kappa_1 * r.kappa_2)
        f_2 = p.kappa_ex2 / r.kappa_2
        f_m = r.gamma_ex / r.gamma_m
        if not _holds(f_m <= 1 + _F_M_TOL):
            raise ModelViolationError(
                f"extraction efficiency f_m = gamma_ex/gamma_m = {np.max(f_m):.6g} exceeds 1; "
                "the externally supplied gamma_ex is inconsistent with gamma_m"
            )
        return CooperativitySet(c_om, c_12, f_2, f_m)
    c01 = chi_01(p)(omega)
    c02 = chi_02(p)(omega)
    cm = chi_m(p)(omega)
    return CooperativitySet(
        c_om=p.g_om**2 * op.intra_ring_photons * c01 * cm,
        c_12=p.J**2 * c01 * c02,
        f_2=p.kappa_ex2 * c02 / 2,
        f_m=r.gamma_ex * cm / 2,
    )


def efficiency_via_cooperativities(op: OperatingPoint, omega) -> float:
    """Transduction efficiency assembled from the cooperativity functions.

    |F_2 F_m * 4 C_om C_12 / (1 + C_om + C_12)^2| with the complex functions
    of :func:`cooperativities`; algebraically identical to
    ``dynamics.efficiency`` and used as its cross-check.
    """
    c = cooperativities(op, omega)
    value = np.abs(c.f_2 * c.f_m * 4 * c.c_om * c.c_12 / (1 + c.c_om + c.c_12) ** 2)
    return float(value) if np.ndim(value) == 0 else value


def critical_photon_number(p: TransducerParams) -> float:
    """Intra-ring pump photon number at which on-resonance C_om = C_12 + 1.

    (gamma_m / (4 g_om^2)) (4 J^2 / kappa_2 + kappa_1); this is the pump level
    maximizing the on-resonance efficiency.  Array parameter fields broadcast.
    """
    if not _holds(p.g_om > 0):
        raise UndefinedOptimumError("g_om must be > 0 for a finite optimal pump level")
    r = derived_rates(p)
    _require_divisors(kappa_2=r.kappa_2)
    return r.gamma_m / (4 * p.g_om**2) * (4 * p.J**2 / r.kappa_2 + p.kappa_1)


def max_efficiency(p: TransducerParams) -> float:
    """On-resonance efficiency at the critical photon number: F2 Fm C12/(C12+1).

    Array parameter fields broadcast; scalar fields give a float.
    """
    op = OperatingPoint(p, critical_photon_number(p))
    c = cooperativities(op)
    eta = c.f_2 * c.f_m * c.c_12 / (c.c_12 + 1)
    if not _holds(eta <= 1 + 1e-9):  # false for NaN too
        _require_finite_result(eta, "maximum efficiency")
        raise ModelViolationError(f"maximum efficiency {np.max(eta):.12g} exceeds 1")
    return eta


@dataclass(frozen=True)
class ThresholdResult:
    """Monotonicity threshold of the efficiency in the bus coupling."""

    threshold: float
    monotone_increasing: bool


def kappa_ex2_threshold(p: TransducerParams) -> ThresholdResult:
    """Bus-coupling growth condition: d(eta)/d(kappa_ex2) > 0 while F2 < (1+C12)/(2+C12)."""
    c = cooperativities(OperatingPoint(p, 0.0))
    threshold = (1 + c.c_12) / (2 + c.c_12)
    return ThresholdResult(threshold=threshold, monotone_increasing=c.f_2 < threshold)


# --- spectra ----------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumResult:
    """Efficiency spectrum with interpolated peak location and 50% bandwidth."""

    frequencies: np.ndarray  # rad/s
    efficiencies: np.ndarray
    peak_shift: float  # rad/s, peak location minus omega_m
    fwhm: float  # rad/s
    broad_peak_flag: bool
    peak_efficiency: float
    intra_ring_photons: float


def _quadratic_peak(x: np.ndarray, y: np.ndarray, i: int) -> float:
    """Vertex abscissa of the parabola through samples i-1, i, i+1 (an interior i)."""
    curvature = y[i - 1] - 2 * y[i] + y[i + 1]
    if curvature == 0:
        return float(x[i])
    dx = x[i + 1] - x[i]
    return float(x[i] + 0.5 * dx * (y[i - 1] - y[i + 1]) / curvature)


def _cross(x, y, j, k, level):
    return float(x[j] + (level - y[j]) * (x[k] - x[j]) / (y[k] - y[j]))


def efficiency_spectrum(p: TransducerParams, omega_grid) -> SpectrumResult:
    """Efficiency vs signal frequency at the resonance-critical pump level.

    |a1|^2 is held fixed at :func:`critical_photon_number` across the sweep
    (the pump is not re-optimized per frequency).  The peak is located by
    three-point quadratic interpolation; the 50% crossings are found by linear
    interpolation independently on each side, so asymmetric peaks are handled.

    Raises :class:`GridError` when the grid is not strictly increasing, does
    not span the peak, or resolves the 50% band with fewer than 8 points.
    The broad-peak flag is set when the 50% band hits a grid boundary or the
    top of the peak is flat to 1e-6 relative over more than 10% of the band.
    """
    w = np.asarray(omega_grid, dtype=float)
    if w.ndim != 1 or len(w) < 3:
        raise GridError("omega grid must be a 1-D array with at least 3 points")
    if np.any(np.diff(w) <= 0):
        raise GridError("omega grid must be strictly increasing")

    n_pump = critical_photon_number(p)
    op = OperatingPoint(p, n_pump)
    eta = np.asarray(efficiency(op, w))

    i_max = int(np.argmax(eta))
    if i_max == 0 or i_max == len(w) - 1:
        raise GridError("grid does not span the efficiency peak")
    peak_eff = float(eta[i_max])
    peak_omega = _quadratic_peak(w, eta, i_max)
    half = peak_eff / 2

    above = eta >= half
    idx = np.flatnonzero(above)
    lo, hi = int(idx[0]), int(idx[-1])
    if hi - lo + 1 < 8:
        raise GridError(
            f"only {hi - lo + 1} grid points inside the 50% band; refine the grid"
        )
    hits_boundary = lo == 0 or hi == len(w) - 1
    left = w[0] if lo == 0 else _cross(w, eta, lo - 1, lo, half)
    right = w[-1] if hi == len(w) - 1 else _cross(w, eta, hi, hi + 1, half)
    fwhm = right - left

    flat = eta >= peak_eff * (1 - 1e-6)
    j = np.flatnonzero(flat)
    flat_width = float(w[j[-1]] - w[j[0]]) if len(j) > 1 else 0.0
    broad = hits_boundary or (fwhm > 0 and flat_width > 0.1 * fwhm)

    return SpectrumResult(
        frequencies=w,
        efficiencies=eta,
        peak_shift=peak_omega - p.omega_m,
        fwhm=fwhm,
        broad_peak_flag=bool(broad),
        peak_efficiency=peak_eff,
        intra_ring_photons=n_pump,
    )


# --- presets ----------------------------------------------------------------

#: multiplier tables applied to the base parameter record
PRESETS: dict[str, dict[str, float]] = {
    "nominal": {},
    "5kex2": {"kappa_ex2": 5.0},
    "5gem": {"g_em": 5.0},
    "5gem-5kex2-10G": {"g_em": 5.0, "kappa_ex2": 5.0, "g_om": 10.0},
    "5gem-5kex2-10G-lowloss": {
        "g_em": 5.0, "kappa_ex2": 5.0, "g_om": 10.0, "gamma_0": 0.1, "kappa_1": 0.1,
    },
    # variant resolving the ambiguity of which optical losses the low-loss
    # case scales: additionally lowers the second ring's intrinsic loss
    "5gem-5kex2-10G-lowloss-k02": {
        "g_em": 5.0, "kappa_ex2": 5.0, "g_om": 10.0, "gamma_0": 0.1,
        "kappa_1": 0.1, "kappa_02": 0.1,
    },
}


def apply_preset(p: TransducerParams, name: str) -> TransducerParams:
    """Scale a base parameter record by the named multiplier set.

    Scaling g_em invalidates a directly supplied gamma_ex (it would exceed
    gamma_m), so those presets fall back to the derived gamma_ex relation;
    the supplied gamma_m consistency value is dropped for the same reason.
    The identity preset returns the record unchanged.
    """
    try:
        multipliers = PRESETS[name]
    except KeyError:
        raise ParameterError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None
    if not multipliers:
        return p
    changes = {field: getattr(p, field) * m for field, m in multipliers.items()}
    if multipliers.get("g_em", 1.0) != 1.0:
        changes["gamma_ex"] = None
        changes["gamma_m_supplied"] = None
    return replace(p, **changes)


# --- sweep engines ----------------------------------------------------------


def max_efficiency_contour(p: TransducerParams, g_em_grid, kappa_ex2_grid) -> SweepResult:
    """Maximum achievable efficiency over a (g_em, kappa_ex2) grid.

    Every cell has its own derived rates: gamma_m and gamma_ex respond to
    g_em, kappa_2 responds to kappa_ex2.  Since g_em varies, gamma_ex follows
    the derived relation everywhere (a supplied value on the base record is
    ignored; it cannot scale consistently).  Cells are emitted row-major over
    the g_em axis with axes as log10 of plain-Hz frequencies.
    """
    g_grid = np.asarray(g_em_grid, dtype=float)
    k_grid = np.asarray(kappa_ex2_grid, dtype=float)
    if np.any(g_grid <= 0) or np.any(k_grid <= 0):
        raise ParameterError("contour grids must be strictly positive")
    eta = max_efficiency(replace(p, gamma_ex=None, gamma_m_supplied=None,
                                 g_em=g_grid[:, None], kappa_ex2=k_grid[None, :]))
    return SweepResult(columns={
        "log10_gEM_hz": np.repeat(np.log10(g_grid / TWO_PI), len(k_grid)),
        "log10_kex2_hz": np.tile(np.log10(k_grid / TWO_PI), len(g_grid)),
        "max_efficiency": eta.ravel(),
    })


def power_curve(p: TransducerParams, power_grid, pump_offset: float | None = None) -> SweepResult:
    """On-resonance efficiency versus pump power in the bus waveguide.

    The pump is mapped to intra-ring photons via the ring-pair enhancement
    factor at ``pump_offset`` (rad/s, rotating frame), by default the lower
    enhancement resonance; the signal stays at omega_m.
    """
    powers = np.asarray(power_grid, dtype=float)
    if pump_offset is None:
        pump_offset = enhancement_resonances(p).lower
    photons = pump_power_to_photons(p, powers, pump_offset)
    eta = efficiency(OperatingPoint(p, photons), p.omega_m)
    i_best = int(np.argmax(eta))
    return SweepResult(
        columns={
            "power_w": powers,
            "intra_ring_photons": photons,
            "efficiency": eta,
        },
        metadata={
            "peak_power_w": float(powers[i_best]),
            "peak_efficiency": float(eta[i_best]),
            "pump_offset_hz": pump_offset / TWO_PI,
        },
    )
