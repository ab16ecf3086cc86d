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

from . import sweep
from .dynamics import (
    OperatingPoint,
    TransducerParams,
    _holds,
    _require_passive,
    derived_rates,
    efficiency,
    pump_power_to_photons,
    susceptibilities,
    with_derived_gamma_ex,
)
from .errors import (
    GridError,
    ParameterError,
    PomtransError,
    UndefinedOptimumError,
)


@dataclass(frozen=True)
class CooperativitySet:
    """On-resonance cooperativities and extraction efficiencies of an operating point.

    c_om = 4 g_om^2 |a1|^2 / (kappa_1 gamma_m), c_12 = 4 J^2 / (kappa_1 kappa_2),
    f_2 = kappa_ex2 / kappa_2 and f_m = gamma_ex / gamma_m.
    """

    c_om: float
    c_12: float
    f_2: float
    f_m: float


def cooperativities(op: OperatingPoint) -> CooperativitySet:
    """On-resonance cooperativity parameters; parameter fields and pump level broadcast.

    f_m <= 1 holds because :class:`TransducerParams` rejects gamma_ex > gamma_m.
    """
    p = op.params
    r = derived_rates(p)
    return CooperativitySet(
        c_om=4 * p.g_om**2 * op.intra_ring_photons / (p.kappa_1 * r.gamma_m),
        c_12=4 * p.J**2 / (p.kappa_1 * r.kappa_2),
        f_2=p.kappa_ex2 / r.kappa_2,
        f_m=r.gamma_ex / r.gamma_m,
    )


def efficiency_via_cooperativities(op: OperatingPoint, omega) -> float:
    """Transduction efficiency assembled from the complex cooperativity functions.

    |F_2 F_m * 4 C_om C_12 / (1 + C_om + C_12)^2| with C_om = g_om^2 |a1|^2 chi_01 chi_m,
    C_12 = J^2 chi_01 chi_02, F_2 = kappa_ex2 chi_02 / 2 and F_m = gamma_ex chi_m / 2
    at ``omega``; these reduce to :func:`cooperativities` on resonance.  Algebraically
    identical to ``dynamics.efficiency`` and used as its cross-check.
    """
    p = op.params
    c01, c02, cm = susceptibilities(p, omega)
    c_om = p.g_om**2 * op.intra_ring_photons * c01 * cm
    c_12 = p.J**2 * c01 * c02
    f_2 = p.kappa_ex2 * c02 / 2
    f_m = derived_rates(p).gamma_ex * cm / 2
    value = np.abs(f_2 * f_m * 4 * c_om * c_12 / (1 + c_om + c_12) ** 2)
    return float(value) if np.ndim(value) == 0 else value


def critical_photon_number(p: TransducerParams) -> float:
    """Intra-ring pump photon number at which on-resonance C_om = C_12 + 1.

    (gamma_m / (4 g_om^2)) (4 J^2 / kappa_2 + kappa_1); this is the pump level
    maximizing the on-resonance efficiency.  Array parameter fields broadcast.
    """
    if not _holds(p.g_om > 0):
        raise UndefinedOptimumError("g_om must be > 0 for a finite optimal pump level")
    r = derived_rates(p)
    return r.gamma_m / (4 * p.g_om**2) * (4 * p.J**2 / r.kappa_2 + p.kappa_1)


def max_efficiency(p: TransducerParams) -> float:
    """On-resonance efficiency at the critical photon number: F2 Fm C12/(C12+1).

    Array parameter fields broadcast; scalar fields give a float.
    """
    op = OperatingPoint(p, critical_photon_number(p))
    c = cooperativities(op)
    eta = c.f_2 * c.f_m * c.c_12 / (c.c_12 + 1)
    _require_passive(eta, "maximum efficiency")
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


def _first_last(mask: np.ndarray) -> tuple[int, int]:
    """Indices of the first and last true element of a mask that holds somewhere."""
    return int(np.argmax(mask)), len(mask) - 1 - int(np.argmax(mask[::-1]))


def _cross(x, y, j, k, level):
    return float(x[j] + (level - y[j]) * (x[k] - x[j]) / (y[k] - y[j]))


def efficiency_spectrum(p: TransducerParams, omega_grid) -> SpectrumResult:
    """Efficiency vs signal frequency at the resonance-critical pump level.

    |a1|^2 is held fixed at :func:`critical_photon_number` across the sweep
    (the pump is not re-optimized per frequency).  The efficiency is
    evaluated ``sweep.CSV_BLOCK_ROWS`` frequencies at a time into one float64
    array, so its complex temporaries stay bounded whatever the grid size.
    If a block raises, the whole grid is evaluated once more in one call, so
    the error names every offending frequency and the grid-wide maximum, as
    a single call would.  The peak is located by
    three-point quadratic interpolation; the 50% crossings are found by linear
    interpolation independently on each side, so asymmetric peaks are handled.

    Raises :class:`GridError` when the grid is not finite or not strictly
    increasing, does not span the peak, or resolves the 50% band with fewer
    than 8 points.
    The broad-peak flag is set when the 50% band hits a grid boundary or the
    top of the peak is flat to 1e-6 relative over more than 10% of the band.
    """
    w = np.asarray(omega_grid, dtype=float)
    if w.ndim != 1 or len(w) < 3:
        raise GridError("omega grid must be a 1-D array with at least 3 points")
    if not np.all(np.isfinite(w)):
        raise GridError("omega grid must be finite")
    if np.any(w[1:] <= w[:-1]):
        raise GridError("omega grid must be strictly increasing")

    n_pump = critical_photon_number(p)
    op = OperatingPoint(p, n_pump)
    eta = np.empty(len(w))
    step = sweep.CSV_BLOCK_ROWS
    try:
        for start in range(0, len(w), step):
            eta[start:start + step] = efficiency(op, w[start:start + step])
    except (PomtransError, ArithmeticError):
        efficiency(op, w)  # raises the error of the whole grid
        raise

    i_max = int(np.argmax(eta))
    if i_max == 0 or i_max == len(w) - 1:
        raise GridError("grid does not span the efficiency peak")
    peak_eff = float(eta[i_max])
    peak_omega = _quadratic_peak(w, eta, i_max)
    half = peak_eff / 2

    lo, hi = _first_last(eta >= half)
    if hi - lo + 1 < 8:
        raise GridError(
            f"only {hi - lo + 1} grid points inside the 50% band; refine the grid"
        )
    hits_boundary = lo == 0 or hi == len(w) - 1
    left = w[0] if lo == 0 else _cross(w, eta, lo - 1, lo, half)
    right = w[-1] if hi == len(w) - 1 else _cross(w, eta, hi, hi + 1, half)
    fwhm = right - left

    first, last = _first_last(eta >= peak_eff * (1 - 1e-6))
    flat_width = float(w[last] - w[first])
    broad = hits_boundary or (fwhm > 0 and flat_width > 0.1 * fwhm)

    return SpectrumResult(
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
    if multipliers.get("g_em", 1.0) != 1.0:
        # before scaling: a scaled g_em fails the supplied gamma_m check
        p = with_derived_gamma_ex(p)
    return replace(p, **{field: getattr(p, field) * m for field, m in multipliers.items()})


# --- sweep engines ----------------------------------------------------------


def max_efficiency_contour(p: TransducerParams, g_em_grid, kappa_ex2_grid) -> np.ndarray:
    """Maximum achievable efficiency over a (g_em, kappa_ex2) grid.

    Every cell has its own derived rates: gamma_m and gamma_ex respond to
    g_em, kappa_2 responds to kappa_ex2.  Since g_em varies, gamma_ex follows
    the derived relation everywhere (a supplied value on the base record is
    ignored; it cannot scale consistently).  Returns the
    ``(len(g_em_grid), len(kappa_ex2_grid))`` array, rows along g_em.
    """
    g_grid = np.asarray(g_em_grid, dtype=float)
    k_grid = np.asarray(kappa_ex2_grid, dtype=float)
    if np.any(g_grid <= 0) or np.any(k_grid <= 0):
        raise ParameterError("contour grids must be strictly positive")
    return max_efficiency(replace(with_derived_gamma_ex(p),
                                  g_em=g_grid[:, None], kappa_ex2=k_grid[None, :]))


def power_curve(p: TransducerParams, power_grid, pump_offset: float | None = None):
    """On-resonance ``(intra_ring_photons, efficiency)`` versus pump power in the bus waveguide.

    The pump is mapped to intra-ring photons via the ring-pair enhancement
    factor at ``pump_offset`` (rad/s, rotating frame), by default the lower
    enhancement resonance; the signal stays at omega_m.
    """
    photons = pump_power_to_photons(p, np.asarray(power_grid, dtype=float), pump_offset)
    return photons, efficiency(OperatingPoint(p, photons), p.omega_m)
