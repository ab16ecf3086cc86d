import math
import re

import numpy as np
import pytest

from pomtrans import rings
from pomtrans.errors import ParameterError

TWO_PI = 2 * math.pi


def make_pair(T=1e-11, J=TWO_PI * 1.6425e9, loss=1.0, bus=0.05) -> rings.RingPair:
    return rings.RingPair(T=T, J=J, loss=loss, bus_coupling=bus)


# --- critical frequencies ---------------------------------------------------


def test_critical_frequency_residuals():
    rp = make_pair()
    crit = rings.critical_frequencies(rp, range(0, 60))
    for c in crit:
        assert rings.critical_equation_residual(rp, c.omega) <= 1e-12


def test_residuals_over_wide_round_trip_range():
    # the defining equation holds across two orders of magnitude in T
    for T in np.geomspace(1e-12, 1e-10, 7):
        rp = make_pair(T=float(T))
        crit = rings.critical_frequencies(rp, range(0, 10))
        for c in crit:
            assert rings.critical_equation_residual(rp, c.omega) <= 1e-12


def test_split_pair_gap_is_twice_J():
    for T in np.geomspace(1e-12, 1e-10, 9):
        rp = make_pair(T=float(T))
        crit = rings.critical_frequencies(rp, range(0, 5))
        lowers = [c.omega for c in crit if c.label == rings.SPLIT_LOWER]
        uppers = [c.omega for c in crit if c.label == rings.SPLIT_UPPER]
        for lo, up in zip(sorted(lowers), sorted(uppers)):
            assert up - lo == pytest.approx(2 * rp.J, rel=1e-12)


def test_zero_coupling_degenerates_split_pair():
    rp = make_pair(J=0.0)
    crit = rings.critical_frequencies(rp, range(0, 3))
    lowers = sorted(c.omega for c in crit if c.label == rings.SPLIT_LOWER)
    uppers = sorted(c.omega for c in crit if c.label == rings.SPLIT_UPPER)
    for n, (lo, up) in enumerate(zip(lowers, uppers)):
        expected = (math.pi + 2 * math.pi * n) / rp.T
        assert lo == up == pytest.approx(expected, rel=1e-12)


def test_nominal_scale_splitting_matches_microwave_frequency():
    # J at half the mechanical frequency puts the split-pair spacing at omega_m
    omega_m = TWO_PI * 3.285e9
    rp = make_pair(J=omega_m / 2)
    crit = rings.critical_frequencies(rp, range(0, 1))
    lo = next(c.omega for c in crit if c.label == rings.SPLIT_LOWER)
    up = next(c.omega for c in crit if c.label == rings.SPLIT_UPPER)
    assert up - lo == pytest.approx(omega_m, rel=1e-12)


# --- transmission spectrum -------------------------------------------------------


def test_single_ring_comb_dips_at_odd_multiples():
    # J = 0 with near-critical coupling: dips at (pi + 2 pi n) / T
    rp = make_pair(J=0.0, loss=0.98, bus=0.2)
    fsr = TWO_PI / rp.T
    grid = np.linspace(0.25 * fsr, 2.8 * fsr, 60001)
    t = rings.transmission_spectrum(rp, grid)
    step = grid[1] - grid[0]
    for n in (0, 1, 2):
        expected = (math.pi + 2 * math.pi * n) / rp.T
        window = (grid > expected - 0.2 * fsr) & (grid < expected + 0.2 * fsr)
        found = grid[window][np.argmin(t[window])]
        assert abs(found - expected) <= step


def test_split_resonances_emerge_with_coupling():
    rp = make_pair(T=2e-11, J=TWO_PI * 2e9, loss=1.0, bus=0.02)
    fsr = TWO_PI / rp.T
    grid = np.linspace(0.3 * fsr, 0.7 * fsr, 400001)
    t = rings.transmission_spectrum(rp, grid)
    step = grid[1] - grid[0]
    for label in (rings.SPLIT_LOWER, rings.SPLIT_UPPER):
        predicted = next(
            c.omega for c in rings.critical_frequencies(rp, range(0, 1))
            if c.label == label
        )
        window = (grid > predicted - 0.05 * fsr) & (grid < predicted + 0.05 * fsr)
        found = grid[window][np.argmin(t[window])]
        assert abs(found - predicted) <= step


def test_transmission_is_passive():
    rng = np.random.default_rng(9)
    for _ in range(10):
        rp = make_pair(
            T=float(rng.uniform(1e-12, 1e-10)),
            J=TWO_PI * float(rng.uniform(0, 5e9)),
            loss=float(rng.uniform(0.7, 1.0)),
            bus=float(rng.uniform(0.0, 0.9)),
        )
        grid = np.linspace(0.0, 3 * TWO_PI / rp.T, 20001)
        t = rings.transmission_spectrum(rp, grid)
        assert np.all(t >= 0)
        assert np.all(t <= 1 + 1e-12)


def test_transmission_periodicity():
    rp = make_pair(T=1.3e-11, J=TWO_PI * 1.1e9, loss=0.93, bus=0.3)
    fsr = TWO_PI / rp.T
    grid = np.linspace(0.1 * fsr, 0.9 * fsr, 5001)
    a = rings.transmission_spectrum(rp, grid)
    b = rings.transmission_spectrum(rp, grid + fsr)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("grid, message", [
    (np.zeros((2, 2)), "omega grid must be a 1-D array with at least 2 points"),
    (np.array([1.0]), "omega grid must be a 1-D array with at least 2 points"),
    (np.array([1.0, 1.0, 2.0]), "omega grid must be strictly increasing"),
    (np.array([2.0, 1.0]), "omega grid must be strictly increasing"),
])
def test_transmission_spectrum_rejects_a_bad_grid(grid, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        rings.transmission_spectrum(make_pair(), grid)


def test_bad_ring_parameters_rejected():
    with pytest.raises(ParameterError):
        make_pair(T=0.0, J=1.0)
    with pytest.raises(ParameterError):
        make_pair(T=1e-11, J=1.0, loss=0.0)
    with pytest.raises(ParameterError):
        make_pair(T=1e-11, J=1.0, bus=1.0)


# --- coupler beat length -----------------------------------------------------------


def test_beat_length_hand_value():
    cg = rings.CouplerGeometry(wavelength=1.55e-6, n_eff_sym=2.01, n_eff_asym=2.00)
    assert rings.beat_length(cg) == pytest.approx(77.5e-6, rel=1e-12)


def test_beat_length_degenerate_indices():
    cg = rings.CouplerGeometry(wavelength=1.55e-6, n_eff_sym=2.0, n_eff_asym=2.0)
    assert math.isinf(rings.beat_length(cg))
    assert rings.coupled_fraction(cg) == 1.0


def test_coupled_fraction_limits():
    lc = rings.beat_length(
        rings.CouplerGeometry(wavelength=1.55e-6, n_eff_sym=2.01, n_eff_asym=2.00))
    at = lambda z: rings.coupled_fraction(
        rings.CouplerGeometry(1.55e-6, 2.01, 2.00, interaction_length=z))
    assert at(0.0) == pytest.approx(1.0)
    assert at(lc) == pytest.approx(0.0, abs=1e-30)
    assert 0.0 <= at(0.37 * lc) <= 1.0


@pytest.mark.parametrize("J", [-1.0, -TWO_PI * 1e9, math.nan])
def test_negative_ring_coupling_rejected_by_name(J):
    with pytest.raises(ParameterError, match="inter-ring coupling J must be >= 0"):
        make_pair(T=1e-11, J=J)


def test_zero_ring_coupling_allowed():
    crit = rings.critical_frequencies(make_pair(T=1e-11, J=0.0), range(1))
    lower, upper = (c for c in crit if c.label != rings.FLAT_POINT)
    assert lower.omega == upper.omega


@pytest.mark.parametrize("kwargs, message", [
    ({"T": math.nan}, "round-trip time T must be > 0 and finite, got nan"),
    ({"T": math.inf}, "round-trip time T must be > 0 and finite, got inf"),
    ({"J": math.inf}, "inter-ring coupling J must be finite, got inf"),
])
def test_non_finite_ring_pair_fields_rejected_by_name(kwargs, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        make_pair(**{"T": 1e-11, "J": 1.0, **kwargs})


@pytest.mark.parametrize("name", ["wavelength", "n_eff_sym", "n_eff_asym", "interaction_length"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_coupler_fields_rejected_by_name(name, value):
    kwargs = {"wavelength": 1.55e-6, "n_eff_sym": 2.01, "n_eff_asym": 2.00,
              "interaction_length": 1e-5, name: value}
    with pytest.raises(ParameterError, match=rf"^{name} must be .*finite, got {value}$"):
        rings.CouplerGeometry(**kwargs)


@pytest.mark.parametrize("T, J", [(1e300, TWO_PI * 1.6425e9), (10.0, 1.7e308)])
def test_overflowing_ring_phase_rejected_by_name(T, J):
    message = f"inter-ring phase J*T must be finite, got J={J} and T={T}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        make_pair(T=T, J=J)
