"""Spectral model of the coupled micro-ring pair and its bus waveguide.

Two nominally identical rings of round-trip time ``T`` exchange light through
an inter-ring splitter with field transmission sin(J T); the pair hangs off a
bus waveguide in a symmetric double-bus arrangement.  In the weak-bus-coupling
limit the transmission extrema solve

    (cos(J T) + cos(omega T)) sin(omega T) = 0

placing flat points at n pi / T and split resonances at (pi + 2 pi n)/T +/- J:
the splitting is 2 J regardless of the free spectral range.  The transfer
model here reproduces that structure; only the critical-point equation and its
limits are contractual, the off-extremum curve shape is illustrative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import TWO_PI
from .errors import GridError, ParameterError, require_number


@dataclass(frozen=True)
class RingPair:
    """Coupled ring pair: equal round-trip time, inter-ring coupling J >= 0.

    ``loss`` is the per-ring round-trip amplitude transmission in (0, 1];
    ``bus_coupling`` the field coupling fraction k of each (identical) bus
    coupler, with through amplitude sqrt(1 - k^2).
    """

    T: float
    J: float
    loss: float
    bus_coupling: float

    def __post_init__(self):
        for name in ("T", "J", "loss", "bus_coupling"):
            require_number(getattr(self, name), name)
        if not 0 < self.T < math.inf:
            raise ParameterError(f"round-trip time T must be > 0 and finite, got {self.T}")
        if not 1 / self.T < math.inf:
            raise ParameterError(f"free spectral range 1/T must be finite, got T={self.T}")
        if not self.J >= 0:
            raise ParameterError("inter-ring coupling J must be >= 0")
        if not self.J < math.inf:
            raise ParameterError(f"inter-ring coupling J must be finite, got {self.J}")
        if not math.isfinite(self.J * self.T):
            raise ParameterError(
                f"inter-ring phase J*T must be finite, got J={self.J} and T={self.T}")
        if not 0 < self.loss <= 1:
            raise ParameterError("round-trip amplitude loss must be in (0, 1]")
        if not 0 <= self.bus_coupling < 1:
            raise ParameterError("bus field coupling must be in [0, 1)")


FLAT_POINT = "flat-point"
SPLIT_LOWER = "split-resonance-lower"
SPLIT_UPPER = "split-resonance-upper"


@dataclass(frozen=True)
class CriticalFrequency:
    omega: float  # rad/s
    label: str


def critical_frequencies(rp: RingPair, n_range) -> list[CriticalFrequency]:
    """Roots of (cos(JT) + cos(wT)) sin(wT) = 0 for each n in ``n_range``.

    Per order n this yields the flat point n pi / T and the split resonance
    pair (pi + 2 pi n)/T +/- J.  With J = 0 the pair degenerates to the
    single-ring resonance.
    """
    out: list[CriticalFrequency] = []
    for n in n_range:
        out.append(CriticalFrequency(n * math.pi / rp.T, FLAT_POINT))
        center = (math.pi + TWO_PI * n) / rp.T
        if not center + rp.J < math.inf:
            raise ParameterError(
                f"critical frequencies of order {n} overflow: round-trip time T={rp.T} is too small")
        out.append(CriticalFrequency(center - rp.J, SPLIT_LOWER))
        out.append(CriticalFrequency(center + rp.J, SPLIT_UPPER))
    out.sort(key=lambda c: (c.omega, c.label))
    return out


def critical_equation_residual(rp: RingPair, omega) -> np.ndarray:
    """|(cos(JT) + cos(wT)) sin(wT)| evaluated at ``omega`` (dimensionless)."""
    wt = np.asarray(omega) * rp.T
    return np.abs((math.cos(rp.J * rp.T) + np.cos(wt)) * np.sin(wt))


def _inner_ring_response(rp: RingPair, phase: np.ndarray) -> np.ndarray:
    # effective through-coefficient of the inter-ring coupler loaded by the
    # closed first ring; unimodular when the ring is lossless
    c = math.cos(rp.J * rp.T)
    loop1 = rp.loss * phase
    return (c + loop1) / (1 + c * loop1)


def transmission_spectrum(rp: RingPair, omega_grid) -> np.ndarray:
    """Bus through-port power transmission of the ring pair at each ``omega_grid`` point.

    Symmetric double-bus transfer model: the second ring carries the bus
    couplers and sees the first ring as a frequency-dependent all-pass
    element.  The spectrum is periodic in 2 pi / T and its minima converge to
    the split-resonance critical frequencies as the bus coupling goes to zero.
    Setting J = 0 recovers the single-ring comb.

    Raises :class:`GridError` when the grid is not 1-D with at least 2 points
    or not strictly increasing.
    """
    w = np.asarray(omega_grid, dtype=float)
    if w.ndim != 1 or len(w) < 2:
        raise GridError("omega grid must be a 1-D array with at least 2 points")
    if np.any(w[1:] <= w[:-1]):
        raise GridError("omega grid must be strictly increasing")
    phase = np.exp(1j * w * rp.T)
    t_bus = math.sqrt(1 - rp.bus_coupling**2)
    loop = rp.loss * _inner_ring_response(rp, phase) * phase
    amp = t_bus * (1 + loop) / (1 + t_bus**2 * loop)
    return np.abs(amp) ** 2


@dataclass(frozen=True)
class CouplerGeometry:
    """Evanescent coupler described by its supermode effective indices."""

    wavelength: float  # vacuum wavelength, m
    n_eff_sym: float
    n_eff_asym: float
    interaction_length: float = 0.0  # m

    def __post_init__(self):
        for name in ("wavelength", "n_eff_sym", "n_eff_asym", "interaction_length"):
            require_number(getattr(self, name), name)
        if not 0 < self.wavelength < math.inf:
            raise ParameterError(f"wavelength must be > 0 and finite, got {self.wavelength}")
        for name in ("n_eff_sym", "n_eff_asym", "interaction_length"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")


def beat_length(cg: CouplerGeometry) -> float:
    """Coupling beat length lambda / (2 (n_sym - n_asym)).

    Equal effective indices mean the supermodes never dephase; this returns
    ``math.inf`` in that case rather than raising.
    """
    dn = cg.n_eff_sym - cg.n_eff_asym
    if dn == 0:
        return math.inf
    return cg.wavelength / (2 * abs(dn))


def coupled_fraction(cg: CouplerGeometry) -> float:
    """Fraction of light remaining in the launch waveguide, cos^2(pi z / (2 L_c))."""
    lc = beat_length(cg)
    if math.isinf(lc):
        return 1.0
    return math.cos(math.pi * cg.interaction_length / (2 * lc)) ** 2
