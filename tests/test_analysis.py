import math
from dataclasses import replace

import numpy as np
import pytest

from pomtrans import analysis, dynamics
from pomtrans.errors import (
    GridError,
    ModelViolationError,
    ParameterError,
    UndefinedOptimumError,
)

from conftest import TWO_PI, random_valid_params


# --- cooperativities ------------------------------------------------------------


def test_nominal_inter_ring_cooperativity(nominal_params):
    op = dynamics.OperatingPoint(nominal_params, 0.0)
    c = analysis.cooperativities(op)
    assert c.c_12.real == pytest.approx(2.88e3, rel=1e-2)
    assert c.f_2.real == pytest.approx(125 / 150, rel=1e-12)
    assert c.c_om == 0.0


def test_cooperativity_functions_reduce_on_resonance(nominal_params):
    op = dynamics.OperatingPoint(nominal_params, 4.0e11)
    on_res = analysis.cooperativities(op)
    at_center = analysis.cooperativities(op, omega=nominal_params.omega_m)
    # chi at its center is real (2/width), so the functions collapse to the
    # real parameter definitions
    assert at_center.c_om.imag == pytest.approx(0.0, abs=1e-9 * abs(at_center.c_om))
    assert at_center.c_om.real == pytest.approx(on_res.c_om.real, rel=1e-12)
    assert at_center.c_12.real == pytest.approx(on_res.c_12.real, rel=1e-12)
    assert at_center.f_2.real == pytest.approx(on_res.f_2.real, rel=1e-12)
    assert at_center.f_m.real == pytest.approx(on_res.f_m.real, rel=1e-12)


def test_extraction_efficiency_bound_enforced(nominal_params):
    p = replace(nominal_params, gamma_ex=None)
    object.__setattr__(p, "gamma_ex", 2 * dynamics.derived_rates(p).gamma_m)
    op = dynamics.OperatingPoint(p, 1e10)
    with pytest.raises(ModelViolationError, match="gamma_ex"):
        analysis.cooperativities(op)


# --- efficiency identity -----------------------------------------------------------


def test_efficiency_identity_nominal(nominal_params):
    rng = np.random.default_rng(2)
    op = dynamics.OperatingPoint(nominal_params, 5.96e11)
    omegas = nominal_params.omega_m + TWO_PI * rng.uniform(-80e6, 80e6, size=400)
    direct = dynamics.efficiency(op, omegas)
    via = analysis.efficiency_via_cooperativities(op, omegas)
    np.testing.assert_allclose(via, direct, rtol=1e-12)


def test_efficiency_vanishes_without_pump(nominal_params):
    op = dynamics.OperatingPoint(nominal_params, 0.0)
    w = nominal_params.omega_m + TWO_PI * 3e6
    assert analysis.cooperativities(op).c_om == 0.0
    assert analysis.efficiency_via_cooperativities(op, w) == 0.0


def test_efficiency_identity_randomized():
    rng = np.random.default_rng(31)
    for _ in range(50):
        p = random_valid_params(rng, supplied_gamma_ex=bool(rng.integers(2)))
        op = dynamics.OperatingPoint(p, float(rng.uniform(0, 2e12)))
        w = p.omega_m + TWO_PI * float(rng.uniform(-150e6, 150e6))
        a = dynamics.efficiency(op, w)
        b = analysis.efficiency_via_cooperativities(op, w)
        assert abs(a - b) <= 1e-12 * max(abs(a), 1e-300)


# --- critical photon number and maximum efficiency -----------------------------------


def test_critical_photon_number_defining_identity(nominal_params):
    n_crit = analysis.critical_photon_number(nominal_params)
    op = dynamics.OperatingPoint(nominal_params, n_crit)
    c = analysis.cooperativities(op)
    assert abs(c.c_om.real - c.c_12.real - 1) <= 1e-12 * c.c_12.real


def test_critical_photon_number_decoupled_ring_limit(nominal_params):
    p = replace(nominal_params, J=0.0)
    r = dynamics.derived_rates(p)
    expected = r.gamma_m * p.kappa_1 / (4 * p.g_om**2)
    assert analysis.critical_photon_number(p) == pytest.approx(expected, rel=1e-12)


def test_critical_photon_number_requires_optomech_coupling(nominal_params):
    with pytest.raises(UndefinedOptimumError):
        analysis.critical_photon_number(replace(nominal_params, g_om=0.0))


def test_numeric_pump_optimum_matches_critical_value(nominal_params):
    n_crit = analysis.critical_photon_number(nominal_params)

    def eff(n):
        return dynamics.efficiency(dynamics.OperatingPoint(nominal_params, n),
                                   nominal_params.omega_m)

    # golden-section search over photon number around the analytic optimum
    lo, hi = n_crit / 100, n_crit * 100
    invphi = (math.sqrt(5) - 1) / 2
    a, b = math.log(lo), math.log(hi)
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    for _ in range(120):
        if eff(math.exp(c)) > eff(math.exp(d)):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    found = math.exp((a + b) / 2)
    assert found == pytest.approx(n_crit, rel=1e-6)


def test_max_efficiency_is_efficiency_at_critical_pump(nominal_params):
    n_crit = analysis.critical_photon_number(nominal_params)
    op = dynamics.OperatingPoint(nominal_params, n_crit)
    direct = dynamics.efficiency(op, nominal_params.omega_m)
    assert analysis.max_efficiency(nominal_params) == pytest.approx(direct, rel=1e-12)


def test_max_efficiency_asymptote(nominal_params):
    # for very large inter-ring cooperativity the maximum approaches F2 * Fm
    p = replace(nominal_params, J=nominal_params.J * 1e3)
    c = analysis.cooperativities(dynamics.OperatingPoint(p, 0.0))
    assert analysis.max_efficiency(p) == pytest.approx(
        c.f_2.real * c.f_m.real, rel=1e-5
    )


def test_max_efficiency_matches_two_dimensional_grid_search(nominal_params):
    p = nominal_params
    target = analysis.max_efficiency(p)
    n_crit = analysis.critical_photon_number(p)
    best = 0.0
    for n in np.linspace(0.98 * n_crit, 1.02 * n_crit, 81):
        op = dynamics.OperatingPoint(p, float(n))
        w = p.omega_m + TWO_PI * np.linspace(-0.5e6, 0.5e6, 81)
        best = max(best, float(np.max(dynamics.efficiency(op, w))))
    assert best == pytest.approx(target, rel=1e-4)


def test_on_resonance_efficiency_stationary_at_critical_coupling(nominal_params):
    # central finite difference of the on-resonance efficiency with respect to
    # C_om, evaluated at C_om = C_12 + 1, normalized by the peak value
    p = nominal_params
    n_crit = analysis.critical_photon_number(p)
    h = 1e-6 * n_crit

    def eff(n):
        return dynamics.efficiency(dynamics.OperatingPoint(p, n), p.omega_m)

    slope = (eff(n_crit + h) - eff(n_crit - h)) / (2 * h) * n_crit / eff(n_crit)
    assert abs(slope) <= 1e-4


# --- bus-coupling threshold ----------------------------------------------------------


def test_threshold_nominal_monotone(nominal_params):
    res = analysis.kappa_ex2_threshold(nominal_params)
    c12 = analysis.cooperativities(dynamics.OperatingPoint(nominal_params, 0.0)).c_12.real
    assert res.threshold == pytest.approx((1 + c12) / (2 + c12), rel=1e-12)
    assert res.monotone_increasing  # F2 = 0.833 is far below the threshold


def test_threshold_boundary_fully_extracted(nominal_params):
    p = replace(nominal_params, kappa_02=0.0)  # F2 = 1
    assert not analysis.kappa_ex2_threshold(p).monotone_increasing


def test_threshold_sign_matches_finite_difference():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 20:
        p = random_valid_params(rng)
        res = analysis.kappa_ex2_threshold(p)
        h = p.kappa_ex2 * 1e-6
        up = analysis.max_efficiency(replace(p, kappa_ex2=p.kappa_ex2 + h))
        down = analysis.max_efficiency(replace(p, kappa_ex2=p.kappa_ex2 - h))
        slope = (up - down) / (2 * h)
        if abs(slope) * p.kappa_ex2 < 1e-9:
            continue  # too flat to resolve the sign reliably
        assert (slope > 0) == res.monotone_increasing
        checked += 1


# --- spectrum extraction ---------------------------------------------------------------


def synthetic_lorentzian_spectrum(center, halfwidth, span, points):
    grid = np.linspace(center - span, center + span, points)
    chi = dynamics.Susceptibility(center, halfwidth)
    return grid, np.abs(chi(grid)) ** 2


def test_fwhm_extraction_on_synthetic_lorentzian(nominal_params):
    # run the extraction machinery against an exact Lorentzian of known width
    center = nominal_params.omega_m
    halfwidth = TWO_PI * 2.0e6
    grid, values = synthetic_lorentzian_spectrum(center, halfwidth, TWO_PI * 40e6, 40001)

    half = values.max() / 2
    idx = np.flatnonzero(values >= half)
    lo, hi = idx[0], idx[-1]

    def cross(j, k):
        return grid[j] + (half - values[j]) * (grid[k] - grid[j]) / (values[k] - values[j])

    fwhm = cross(hi, hi + 1) - cross(lo - 1, lo)
    assert fwhm == pytest.approx(2 * halfwidth, rel=1e-3)


def test_efficiency_spectrum_basic(nominal_params):
    p = nominal_params
    grid = p.omega_m + TWO_PI * np.linspace(-40e6, 40e6, 20001)
    spec = analysis.efficiency_spectrum(p, grid)
    assert spec.intra_ring_photons == pytest.approx(
        analysis.critical_photon_number(p), rel=1e-12
    )
    assert spec.peak_efficiency == pytest.approx(analysis.max_efficiency(p), rel=1e-6)
    # the model is symmetric about omega_m here, so the peak sits at omega_m
    assert abs(spec.peak_shift) < TWO_PI * 1e3
    assert spec.fwhm > 0
    assert not spec.broad_peak_flag


def test_efficiency_spectrum_fwhm_stable_under_refinement(nominal_params):
    p = nominal_params
    coarse = analysis.efficiency_spectrum(
        p, p.omega_m + TWO_PI * np.linspace(-40e6, 40e6, 8001))
    fine = analysis.efficiency_spectrum(
        p, p.omega_m + TWO_PI * np.linspace(-40e6, 40e6, 64001))
    assert coarse.fwhm == pytest.approx(fine.fwhm, rel=1e-3)


def test_efficiency_spectrum_grid_errors(nominal_params):
    p = nominal_params
    with pytest.raises(GridError, match="increasing"):
        analysis.efficiency_spectrum(p, np.array([1.0, 1.0, 2.0]))
    # a grid that stops left of the peak
    with pytest.raises(GridError, match="span"):
        analysis.efficiency_spectrum(
            p, p.omega_m - TWO_PI * np.linspace(100e6, 50e6, 101))
    # too coarse to resolve the 50% band
    with pytest.raises(GridError, match="refine"):
        analysis.efficiency_spectrum(
            p, p.omega_m + TWO_PI * np.linspace(-200e6, 200e6, 41))


def test_efficiency_spectrum_boundary_sets_broad_flag(nominal_params):
    p = nominal_params
    # window much narrower than the bandwidth: the 50% band hits the edges
    grid = p.omega_m + TWO_PI * np.linspace(-2e6, 2e6, 4001)
    spec = analysis.efficiency_spectrum(p, grid)
    assert spec.broad_peak_flag


# --- presets -----------------------------------------------------------------------------


def test_preset_multiplier_tables():
    assert analysis.PRESETS["nominal"] == {}
    assert analysis.PRESETS["5kex2"] == {"kappa_ex2": 5.0}
    assert analysis.PRESETS["5gem"] == {"g_em": 5.0}
    assert analysis.PRESETS["5gem-5kex2-10G"] == {
        "g_em": 5.0, "kappa_ex2": 5.0, "g_om": 10.0}
    assert analysis.PRESETS["5gem-5kex2-10G-lowloss"] == {
        "g_em": 5.0, "kappa_ex2": 5.0, "g_om": 10.0, "gamma_0": 0.1, "kappa_1": 0.1}


def test_preset_round_trip_bit_exact(nominal_params):
    for name in analysis.PRESETS:
        once = analysis.apply_preset(nominal_params, name)
        again = analysis.apply_preset(nominal_params, name)
        assert once == again
    assert analysis.apply_preset(nominal_params, "nominal") == nominal_params


def test_preset_scaling_values(nominal_params):
    p = analysis.apply_preset(nominal_params, "5gem-5kex2-10G-lowloss")
    assert p.g_em == pytest.approx(5 * nominal_params.g_em)
    assert p.kappa_ex2 == pytest.approx(5 * nominal_params.kappa_ex2)
    assert p.g_om == pytest.approx(10 * nominal_params.g_om)
    assert p.gamma_0 == pytest.approx(0.1 * nominal_params.gamma_0)
    assert p.kappa_1 == pytest.approx(0.1 * nominal_params.kappa_1)
    # scaling g_em invalidates the supplied gamma_ex: the derived relation wins
    assert p.gamma_ex is None


def test_preset_without_gem_scaling_keeps_supplied_gamma_ex(nominal_params):
    p = analysis.apply_preset(nominal_params, "5kex2")
    assert p.gamma_ex == nominal_params.gamma_ex


def test_unknown_preset_rejected(nominal_params):
    with pytest.raises(ParameterError, match="unknown preset"):
        analysis.apply_preset(nominal_params, "11kex9")


# --- sweep engines -----------------------------------------------------------------------


def test_contour_cell_matches_max_efficiency(nominal_params):
    p = nominal_params
    g_axis = np.array([p.g_em / 2, p.g_em, p.g_em * 5])
    k_axis = np.array([p.kappa_ex2, p.kappa_ex2 * 5])
    result = analysis.max_efficiency_contour(p, g_axis, k_axis)
    base = dynamics.with_derived_gamma_ex(replace(p, gamma_m_supplied=None))
    # the cell at the nominal coordinates equals the scalar optimizer output
    idx = 1 * len(k_axis) + 0
    assert result.columns["max_efficiency"][idx] == pytest.approx(
        analysis.max_efficiency(base), rel=1e-12
    )
    # and the (5 g_em, 5 kex2) cell matches the scaled parameter set
    scaled = replace(base, g_em=p.g_em * 5, kappa_ex2=p.kappa_ex2 * 5)
    assert result.columns["max_efficiency"][-1] == pytest.approx(
        analysis.max_efficiency(scaled), rel=1e-12
    )


def test_contour_monotone_in_bus_coupling_below_threshold(nominal_params):
    p = nominal_params
    k_axis = TWO_PI * np.logspace(7, 9, 9)
    g_axis = np.array([p.g_em])
    result = analysis.max_efficiency_contour(p, g_axis, k_axis)
    eta = result.columns["max_efficiency"]
    base = dynamics.with_derived_gamma_ex(replace(p, gamma_m_supplied=None))
    for i in range(len(k_axis) - 1):
        cell = replace(base, kappa_ex2=float(k_axis[i]))
        if analysis.kappa_ex2_threshold(cell).monotone_increasing:
            assert eta[i + 1] > eta[i]


def test_contour_axes_are_log10_hz(nominal_params):
    p = nominal_params
    result = analysis.max_efficiency_contour(
        p, np.array([p.g_em]), np.array([p.kappa_ex2]))
    assert result.columns["log10_gEM_hz"][0] == pytest.approx(
        math.log10(p.g_em / TWO_PI))
    assert result.columns["log10_kex2_hz"][0] == pytest.approx(
        math.log10(p.kappa_ex2 / TWO_PI))


def test_power_curve_unimodal_and_vanishing(nominal_params):
    p = nominal_params
    n_crit = analysis.critical_photon_number(p)
    # pick a power range bracketing the critical photon number
    gain = abs(dynamics.intra_ring_gain(p, dynamics.enhancement_resonances(p).lower)) ** 2
    p_crit = n_crit / gain / dynamics.photon_flux(p, 1.0)
    powers = np.logspace(math.log10(p_crit) - 3, math.log10(p_crit) + 3, 301)
    curve = analysis.power_curve(p, powers)
    eta = curve.columns["efficiency"]

    # exactly one interior maximum: the discrete derivative changes sign once
    signs = np.sign(np.diff(eta))
    signs = signs[signs != 0]
    flips = np.sum(np.abs(np.diff(signs)) > 0)
    assert flips == 1

    assert curve.columns["efficiency"][0] >= 0
    assert analysis.power_curve(p, np.array([0.0])).columns["efficiency"][0] == 0.0

    # far above the optimum the efficiency collapses (asymptotically to zero)
    peak = float(np.max(eta))
    op_high = dynamics.OperatingPoint(p, 1e3 * n_crit)
    assert dynamics.efficiency(op_high, p.omega_m) < 0.1 * peak


# --- broadcast closed forms against their scalar forms ------------------------------------


@pytest.mark.parametrize("preset", sorted(analysis.PRESETS))
def test_contour_matches_per_cell_scalar_forms(nominal_params, preset):
    p = analysis.apply_preset(nominal_params, preset)
    g_axis = TWO_PI * np.logspace(7, 10, 7)
    k_axis = TWO_PI * np.logspace(7, 10, 5)
    result = analysis.max_efficiency_contour(p, g_axis, k_axis)
    base = dynamics.with_derived_gamma_ex(replace(p, gamma_m_supplied=None))
    cells = [replace(base, g_em=float(g), kappa_ex2=float(k)) for g in g_axis for k in k_axis]
    # the broadcast closed form is the scalar one cell by cell, to the bit
    assert result.columns["max_efficiency"].tolist() == [analysis.max_efficiency(c) for c in cells]
    # and agrees with the full transfer function at the critical pump level
    full = [
        dynamics.efficiency(
            dynamics.OperatingPoint(c, analysis.critical_photon_number(c)), c.omega_m)
        for c in cells
    ]
    np.testing.assert_allclose(result.columns["max_efficiency"], full, rtol=1e-12, atol=0)
    assert result.columns["log10_gEM_hz"].tolist() == [
        math.log10(c.g_em / TWO_PI) for c in cells]
    assert result.columns["log10_kex2_hz"].tolist() == [
        math.log10(c.kappa_ex2 / TWO_PI) for c in cells]


@pytest.mark.parametrize("offset_hz", [None, 1.7e9, 3.2e9])
def test_power_curve_matches_per_point_scalar_forms(nominal_params, offset_hz):
    p = nominal_params
    offset = None if offset_hz is None else TWO_PI * offset_hz
    powers = np.concatenate([[0.0], np.logspace(-6, 2, 81)])
    curve = analysis.power_curve(p, powers, pump_offset=offset)
    rows = zip(powers, curve.columns["intra_ring_photons"], curve.columns["efficiency"])
    for power, photons, eta in rows:
        n = dynamics.pump_power_to_photons(p, float(power), offset)
        assert photons == pytest.approx(n, rel=1e-12, abs=0)
        expected = dynamics.efficiency(dynamics.OperatingPoint(p, n), p.omega_m)
        assert eta == pytest.approx(expected, rel=1e-12, abs=0)
    resonance = dynamics.enhancement_resonances(p).lower
    assert curve.metadata["pump_offset_hz"] == pytest.approx(
        (offset if offset is not None else resonance) / TWO_PI, rel=1e-15)


def test_ring_pair_forms_broadcast_over_an_array_j(nominal_params):
    # J = 0 and the two small values leave the splitting collapsed (degenerate)
    js = TWO_PI * np.array([0.0, 1e5, 1e7, 1.6425e9, 8e9])
    p = replace(nominal_params, J=js)
    cells = [replace(nominal_params, J=float(j)) for j in js]
    powers = np.logspace(-6, 2, len(js))
    res = dynamics.enhancement_resonances(p)
    per_cell = [dynamics.enhancement_resonances(c) for c in cells]
    assert all(type(r.lower) is type(r.upper) is float and type(r.degenerate) is bool
               for r in per_cell)
    # the broadcast closed forms are the scalar ones cell by cell, to the bit
    assert res.lower.tolist() == [r.lower for r in per_cell]
    assert res.upper.tolist() == [r.upper for r in per_cell]
    assert res.degenerate.tolist() == [r.degenerate for r in per_cell]
    assert res.degenerate.tolist() == [True, True, True, False, False]
    assert dynamics.enhancement_peak_value(p).tolist() == [
        dynamics.enhancement_peak_value(c) for c in cells]
    np.testing.assert_allclose(
        dynamics.pump_power_to_photons(p, powers),
        [dynamics.pump_power_to_photons(c, float(w)) for c, w in zip(cells, powers)],
        rtol=1e-12, atol=0)
    curve = analysis.power_curve(p, powers)
    for i, c in enumerate(cells):
        point = analysis.power_curve(c, powers[i:i + 1])
        for name, column in point.columns.items():
            assert curve.columns[name][i] == pytest.approx(column[0], rel=1e-12, abs=0)
        assert curve.metadata["pump_offset_hz"][i] == point.metadata["pump_offset_hz"]


def test_zero_ring_pair_enhancement_denominator_named(nominal_params):
    p = nominal_params
    k2 = dynamics.derived_rates(p).kappa_2
    p = replace(p, J=np.array([p.J, abs(p.kappa_1 - k2) / 4]))  # 16 J^2 = (kappa_1 - kappa_2)^2
    with pytest.raises(ParameterError, match=r"^ring-pair enhancement denominator .* must be "
                                             r"nonzero, got 0\.0$"):
        dynamics.enhancement_peak_value(p)


def test_scalar_inputs_return_python_scalars(nominal_params):
    p = nominal_params
    n = analysis.critical_photon_number(p)
    op = dynamics.OperatingPoint(p, n)
    r = dynamics.derived_rates(p)
    c = analysis.cooperativities(op)
    floats = [
        n, analysis.max_efficiency(p), r.gamma_m, r.kappa_2, r.gamma_ex,
        c.c_om, c.c_12, c.f_2, c.f_m, dynamics.efficiency(op, p.omega_m),
        dynamics.photon_flux(p, 1e-3), dynamics.pump_power_to_photons(p, 1e-3),
        analysis.efficiency_via_cooperativities(op, p.omega_m),
    ]
    assert all(type(x) is float for x in floats)
    complexes = [op.a1, dynamics.transduction_amplitude(op, p.omega_m),
                 dynamics.intra_ring_gain(p, p.delta_1)]
    assert all(type(x) is complex for x in complexes)


@pytest.mark.parametrize("changes, name", [
    ({"kappa_1": 0.0}, "kappa_1"),
    ({"kappa_02": 0.0, "kappa_ex2": 0.0}, "kappa_2"),
    ({"gamma_0": 0.0, "g_em": 0.0}, "gamma_m"),
])
def test_zero_divisor_linewidth_rejected_by_name(nominal_params, changes, name):
    p = replace(nominal_params, gamma_ex=None, gamma_m_supplied=None, **changes)
    with pytest.raises(ParameterError, match=rf"^{name} must be > 0"):
        analysis.max_efficiency(p)
    with pytest.raises(ParameterError, match=rf"^{name} must be > 0"):
        analysis.cooperativities(dynamics.OperatingPoint(p, 1e11))


def test_threshold_equals_the_closed_form_bit_for_bit():
    rng = np.random.default_rng(29)
    for i in range(50):
        p = random_valid_params(rng, supplied_gamma_ex=bool(i % 2))
        # reference: the closed form written out, independent of cooperativities
        r = dynamics.derived_rates(p)
        c_12 = 4 * p.J**2 / (p.kappa_1 * r.kappa_2)
        f_2 = p.kappa_ex2 / r.kappa_2
        threshold = (1 + c_12) / (2 + c_12)
        res = analysis.kappa_ex2_threshold(p)
        assert res.threshold == threshold
        assert res.monotone_increasing == (f_2 < threshold)


def test_threshold_rejects_zero_mechanical_linewidth_by_name(nominal_params):
    p = replace(nominal_params, gamma_ex=None, gamma_m_supplied=None, gamma_0=0.0, g_em=0.0)
    with pytest.raises(ParameterError, match=r"^gamma_m must be > 0"):
        analysis.kappa_ex2_threshold(p)
