import concurrent.futures
import json
import math
import re
import sys
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from pomtrans import dynamics, sfg
from pomtrans.errors import ModelViolationError, ParameterError

from conftest import TWO_PI, random_valid_params


# --- parameter record ---------------------------------------------------------


def test_nominal_derived_rates(nominal_params):
    r = dynamics.derived_rates(nominal_params)
    # gamma_m = gamma_0 + 4 g_em^2 / Gamma, 5.3 MHz to two significant figures
    assert r.gamma_m / TWO_PI == pytest.approx(5.3e6, rel=5e-3)
    assert r.kappa_2 / TWO_PI == pytest.approx(150e6, rel=1e-12)
    # the supplied gamma_ex wins; the derived value is reported alongside
    assert r.gamma_ex / TWO_PI == pytest.approx(2.98e6, rel=1e-12)
    assert r.gamma_ex_derived / TWO_PI == pytest.approx(2.61e6, rel=2e-3)
    assert r.gamma_ex_discrepancy == pytest.approx(0.142, abs=0.005)


def test_derived_gamma_ex_limits(nominal_params):
    p = replace(nominal_params, gamma_ex=None, gamma_m_supplied=None)
    # nominal-scale inputs land at 2.61 MHz, not the tabulated 2.98 MHz
    assert dynamics.derived_rates(p).gamma_ex / TWO_PI == pytest.approx(2.61e6, rel=2e-3)
    # fully external limit (Gamma_0 = 0): gamma_ex = 4 g^2 / Gamma
    r = dynamics.derived_rates(replace(p, Gamma_0=0.0))
    assert r.gamma_ex == pytest.approx(4 * p.g_em**2 / p.Gamma, rel=1e-12)
    assert r.gamma_ex == pytest.approx(r.gamma_m - p.gamma_0, rel=1e-12)
    with pytest.raises(ParameterError, match="Gamma_0"):  # Gamma_ex = Gamma - Gamma_0 > Gamma
        replace(p, Gamma_0=-TWO_PI * 1e6)
    with pytest.raises(ParameterError, match="Gamma must be > 0"):
        replace(p, Gamma=0.0, Gamma_0=0.0)


def test_gamma_below_its_intrinsic_part_rejected(nominal_params):
    with pytest.raises(ParameterError,
                       match="^total microwave linewidth Gamma must be >= Gamma_0$"):
        replace(nominal_params, Gamma_0=2 * nominal_params.Gamma)


def test_derived_rates_broadcast_over_array_fields(nominal_params):
    # the first cell is the Gamma = 0 limit, which needs g_em = 0 and so Gamma_0 = 0
    base = replace(nominal_params, gamma_ex=None, gamma_m_supplied=None)
    fields = {
        "Gamma": [0.0, base.Gamma, 2 * base.Gamma],
        "Gamma_0": [0.0, base.Gamma_0, base.Gamma_0],
        "g_em": [0.0, base.g_em, base.g_em],
    }
    supplied = [base.gamma_0 / 2, nominal_params.gamma_ex, nominal_params.gamma_ex]
    for cell_fields in (fields, {**fields, "gamma_ex": supplied}):
        p = replace(base, **{name: np.array(v) for name, v in cell_fields.items()})
        cells = [replace(base, **{name: v[i] for name, v in cell_fields.items()})
                 for i in range(3)]
        r = dynamics.derived_rates(p)
        per_cell = [dynamics.derived_rates(c) for c in cells]
        for name in ("gamma_m", "kappa_2", "gamma_ex", "gamma_ex_derived",
                     "gamma_ex_discrepancy"):
            assert all(type(getattr(c, name)) is float for c in per_cell)
            # the broadcast rates are the scalar ones cell by cell, to the bit
            assert np.broadcast_to(getattr(r, name), (3,)).tolist() == [
                getattr(c, name) for c in per_cell]
        assert per_cell[0].gamma_m == base.gamma_0 and per_cell[0].gamma_ex_derived == 0.0
    assert per_cell[0].gamma_ex_discrepancy == math.inf  # supplied, but g_em = 0 derives 0
    with pytest.raises(ParameterError, match=r"^Gamma must be > 0 when g_em is nonzero, "
                                             r"got 0\.0$"):
        replace(base, g_em=np.array([base.g_em, base.g_em]),
                Gamma=np.array([base.Gamma, 0.0]), Gamma_0=np.array([base.Gamma_0, 0.0]))


def test_decoupled_limit_rates(nominal_params):
    p = replace(nominal_params, g_em=0.0, gamma_ex=None, gamma_m_supplied=None)
    r = dynamics.derived_rates(p)
    assert r.gamma_m == p.gamma_0
    assert r.gamma_ex == 0.0


def test_supplied_gamma_m_consistency_enforced(nominal_params):
    with pytest.raises(ParameterError, match="gamma_m"):
        replace(nominal_params, gamma_m_supplied=TWO_PI * 2.6e6)


def test_supplied_gamma_ex_above_gamma_m_rejected(nominal_params):
    with pytest.raises(ParameterError, match="gamma_ex"):
        replace(nominal_params, gamma_ex=TWO_PI * 6e6)


def test_negative_rate_rejected(nominal_params):
    with pytest.raises(ParameterError, match="kappa_1"):
        replace(nominal_params, kappa_1=-1.0)


@pytest.mark.parametrize("name, value", [
    ("J", True), ("J", np.True_), ("g_om", "400"), ("g_om", None), ("J", 1j),
    ("J", np.array([True, False])), ("gamma_ex", True), ("J", [1.0]), ("J", 10**400),
], ids=["bool", "numpy-bool", "string", "none-required", "complex", "bool-array",
        "bool-optional", "list", "int-beyond-float-range"])
def test_non_number_rejected_by_name(nominal_params, name, value):
    # True used to read as 1 rad/s; "400" and None ended in a bare TypeError
    expected = f"{name} is not a number: {value!r}"
    with pytest.raises(ParameterError, match=f"^{re.escape(expected)}$"):
        replace(nominal_params, **{name: value})


@pytest.mark.parametrize("name, value, shown", [
    ("pump_phase", math.nan, "nan"), ("pump_phase", math.inf, "inf"),
    ("pump_phase", np.array([0.3, -math.inf]), "-inf"),
    ("intra_ring_photons", math.inf, "inf"),
    ("intra_ring_photons", np.array([1e11, math.inf]), "inf"),
], ids=["phase-nan", "phase-inf", "phase-array", "photons-inf", "photons-array"])
def test_operating_point_rejects_a_non_finite_pump_by_name(nominal_params, name, value, shown):
    # a NaN phase used to fail in efficiency as "a rate is too small or too large", an
    # infinite one warned from exp, and an infinite photon number gave c_om = inf
    with pytest.raises(ParameterError, match=f"^{name} must be finite, got {shown}$"):
        dynamics.OperatingPoint(nominal_params, **{"intra_ring_photons": 1e11, name: value})


@pytest.mark.parametrize("value", [3, np.float64(2.0), np.array([1e6, 2e6])],
                         ids=["int", "numpy-float", "float-array"])
def test_real_numbers_and_arrays_accepted(nominal_params, value):
    assert replace(nominal_params, J=value).J is value


@pytest.mark.parametrize("name", dynamics._SQUARED_RATES)
def test_rate_whose_square_overflows_rejected_by_name(nominal_params, name):
    limit = dynamics._SQUARED_RATE_MAX
    fields = {"gamma_ex": None, "gamma_m_supplied": None, "Gamma": limit}
    replace(nominal_params, **{**fields, name: limit})  # the bound itself is accepted
    expected = (f"{name} must be <= {limit:.4g} rad/s so that its square stays finite, "
                f"got {2 * limit!r}")
    with pytest.raises(ParameterError, match=f"^{re.escape(expected)}$"):
        replace(nominal_params, **{**fields, name: 2 * limit})
    # an array field names its first offending element
    values = np.array([getattr(nominal_params, name), 2 * limit, 3 * limit])
    with pytest.raises(ParameterError, match=f"^{re.escape(expected)}$"):
        replace(nominal_params, **{**fields, name: values})


def test_params_json_round_trip(nominal_params, tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(dynamics.params_to_dict(nominal_params)))
    again = dynamics.load_params(path)
    assert again == nominal_params


def test_unknown_json_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"omega_m_hz": 1e9, "bogus_key": 2.0}))
    with pytest.raises(ParameterError, match="bogus_key"):
        dynamics.load_params(path)


def test_missing_json_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"omega_m_hz": 1e9}))
    with pytest.raises(ParameterError, match="missing"):
        dynamics.load_params(path)


# --- susceptibilities -----------------------------------------------------------


def test_susceptibility_peak_and_fwhm(nominal_params):
    p = replace(nominal_params, delta_1=5.0, kappa_1=0.5)
    grid = np.linspace(3.0, 7.0, 20001)
    mag = np.abs(dynamics.susceptibilities(p, grid)[0])
    assert grid[np.argmax(mag)] == pytest.approx(5.0, abs=grid[1] - grid[0])
    assert np.max(mag) == pytest.approx(1 / 0.25, rel=1e-6)
    # FWHM of |chi|^2 equals twice the halfwidth
    power = mag**2
    above = grid[power >= power.max() / 2]
    assert above[-1] - above[0] == pytest.approx(0.5, rel=1e-3)


# --- closed-form transduction amplitude -------------------------------------------


def test_zero_coupling_breaks_conversion_chain(nominal_params):
    n = 1e10
    for field in ("g_om", "J"):
        p = replace(nominal_params, **{field: 0.0})
        op = dynamics.OperatingPoint(p, n)
        assert dynamics.transduction_amplitude(op, p.omega_m) == 0j
    p = replace(nominal_params, g_em=0.0, gamma_ex=None, gamma_m_supplied=None)
    op = dynamics.OperatingPoint(p, n)
    assert dynamics.transduction_amplitude(op, p.omega_m) == 0j


def test_closed_form_matches_graph_routes(nominal_params):
    rng = np.random.default_rng(5)
    op = dynamics.OperatingPoint(nominal_params, 5.9e11, pump_phase=0.3)
    graph = dynamics.transducer_graph(op)
    omegas = nominal_params.omega_m + TWO_PI * rng.uniform(-50e6, 50e6, size=200)
    for w in omegas:
        closed = dynamics.transduction_amplitude(op, float(w))
        direct = sfg.linear_solve_gain(graph, "c_in", "a_out", float(w))
        mason = sfg.mason_gain(graph, "c_in", "a_out", float(w))
        assert abs(closed - direct) / abs(direct) <= 1e-10
        assert abs(closed - mason) / abs(mason) <= 1e-10


def test_closed_form_matches_graph_on_random_parameter_sets():
    rng = np.random.default_rng(17)
    for _ in range(25):
        p = random_valid_params(rng, supplied_gamma_ex=bool(rng.integers(2)))
        op = dynamics.OperatingPoint(p, float(rng.uniform(0, 1e12)))
        graph = dynamics.transducer_graph(op)
        w = p.omega_m + TWO_PI * float(rng.uniform(-100e6, 100e6))
        closed = dynamics.transduction_amplitude(op, w)
        direct = sfg.linear_solve_gain(graph, "c_in", "a_out", w)
        assert abs(closed - direct) / max(abs(direct), 1e-30) <= 1e-10


def test_transducer_graph_structure(nominal_params):
    op = dynamics.OperatingPoint(nominal_params, 1e11)
    g = dynamics.transducer_graph(op)
    assert g.source_ids() == ("a_in", "c_in", "f_01", "f_02", "f_m")
    assert sfg.enumerate_paths(g, "c_in", "a_out") == [("c_in", "b", "a1", "a2", "a_out")]
    assert sfg.enumerate_loops(g) == [("a1", "a2"), ("a1", "b")]
    gains = sfg.all_source_gains(g, "a_out", nominal_params.omega_m)
    assert len(gains.gains) == 5


def test_graph_edges_are_the_linear_models_couplings(nominal_params):
    op = dynamics.OperatingPoint(nominal_params, 2e11, pump_phase=0.4)
    _, couplings, outputs = dynamics.linear_model(op)
    assert len(couplings) == 9 and len(outputs) == 2
    g = dynamics.transducer_graph(op)
    assert {(e.src, e.dst) for e in g.edges} == set(couplings) | {(u, "a_out") for u in outputs}
    w = nominal_params.omega_m + TWO_PI * 3e6
    chi = dict(zip(("a1", "a2", "b"), dynamics.susceptibilities(nominal_params, w)))
    for (u, v), c in couplings.items():
        assert g.edge(u, v).evaluate(w) == c * chi[v]
    for u, d in outputs.items():
        assert g.edge(u, "a_out").evaluate(w) == d


def test_graph_solves_call_neither_derived_rates_nor_susceptibilities(nominal_params,
                                                                       monkeypatch):
    # each edge reads its mode's (centre, halfwidth) from the table the graph was built with
    g = dynamics.transducer_graph(dynamics.OperatingPoint(nominal_params, 1e11))
    calls = []
    for name in ("derived_rates", "susceptibilities"):
        monkeypatch.setattr(dynamics, name, lambda *args, name=name: calls.append(name))
    w = nominal_params.omega_m + TWO_PI * 2e6
    sfg.mason_gain(g, "c_in", "a_out", w)
    sfg.linear_solve_gain(g, "c_in", "a_out", w)
    sfg.all_source_gains(g, "a_out", w)
    assert calls == []


@pytest.mark.parametrize("omega", [
    lambda w: w, np.float64, np.array, lambda w: complex(w, 1e3), int],
    ids=["float", "np.float64", "0-d array", "complex", "int"])
def test_graph_gains_at_any_scalar_frequency_match_the_closed_form(nominal_params, omega):
    op = dynamics.OperatingPoint(nominal_params, 1e11)
    g = dynamics.transducer_graph(op)
    w = omega(nominal_params.omega_m + TWO_PI * 2e6)
    closed = dynamics.transduction_amplitude(op, w)
    for solve in (sfg.mason_gain, sfg.linear_solve_gain):
        assert abs(solve(g, "c_in", "a_out", w) - closed) <= 1e-10 * abs(closed)


def test_graph_reads_a_0d_array_frequency_changed_in_place(nominal_params):
    # each solve reads omega's value when it runs, not when the array was first seen
    op = dynamics.OperatingPoint(nominal_params, 1e11)
    g = dynamics.transducer_graph(op)
    w = np.array(nominal_params.omega_m)
    sfg.mason_gain(g, "c_in", "a_out", w)
    w[()] += TWO_PI * 2e6
    closed = dynamics.transduction_amplitude(op, float(w))
    assert abs(sfg.mason_gain(g, "c_in", "a_out", w) - closed) <= 1e-10 * abs(closed)


def test_graph_gains_are_right_under_concurrent_calls(nominal_params):
    # more threads than cores and than frequencies, switching often: a gain shared
    # between calls would give some solve another frequency's gain
    op = dynamics.OperatingPoint(nominal_params, 1e11)
    g = dynamics.transducer_graph(op)
    omegas = [nominal_params.omega_m + TWO_PI * df for df in (-2e6, 0.0, 3e6)]
    expected = [sfg.mason_gain(g, "c_in", "a_out", w) for w in omegas]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(sfg.mason_gain, g, "c_in", "a_out", w)
                       for _ in range(1000) for w in omegas]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected * 1000


def test_graph_determinant_is_eq3_denominator(nominal_params):
    p = nominal_params
    op = dynamics.OperatingPoint(p, 3.3e11)
    g = dynamics.transducer_graph(op)
    w = p.omega_m + TWO_PI * 7e6
    c01, c02, cm = dynamics.susceptibilities(p, w)
    expected = 1 + p.g_om**2 * op.intra_ring_photons * c01 * cm + p.J**2 * c01 * c02
    assert sfg.graph_determinant(g, w) == pytest.approx(expected, rel=1e-12)


def test_efficiency_phase_invariance(nominal_params):
    w = nominal_params.omega_m + TWO_PI * 2e6
    for phase in (0.0, 0.7, math.pi / 2, math.pi, 4.0):
        op = dynamics.OperatingPoint(nominal_params, 2e11, pump_phase=phase)
        base = dynamics.OperatingPoint(nominal_params, 2e11)
        assert dynamics.efficiency(op, w) == pytest.approx(dynamics.efficiency(base, w), rel=1e-12)
    # conjugating the pump amplitude leaves the efficiency unchanged
    op_conj = dynamics.OperatingPoint(nominal_params, 2e11, pump_phase=-0.7)
    op_fwd = dynamics.OperatingPoint(nominal_params, 2e11, pump_phase=0.7)
    assert dynamics.efficiency(op_conj, w) == pytest.approx(dynamics.efficiency(op_fwd, w), rel=1e-12)


def test_efficiency_bounded_on_random_parameter_sets():
    rng = np.random.default_rng(23)
    for _ in range(40):
        p = random_valid_params(rng, supplied_gamma_ex=bool(rng.integers(2)))
        op = dynamics.OperatingPoint(p, float(rng.uniform(0, 5e12)))
        w = p.omega_m + TWO_PI * rng.uniform(-200e6, 200e6, size=41)
        eta = dynamics.efficiency(op, w)
        assert np.all(eta >= 0)
        assert np.all(eta <= 1 + 1e-9)


def test_efficiency_model_violation_raises(nominal_params):
    # gamma_ex > gamma_m is rejected at construction; bypass the validation to
    # confirm the runtime bound catches the resulting super-unity efficiency
    p = replace(nominal_params, gamma_ex=None)
    object.__setattr__(p, "gamma_ex", 4 * dynamics.derived_rates(p).gamma_m)
    from pomtrans.analysis import critical_photon_number

    op = dynamics.OperatingPoint(p, critical_photon_number(p))
    with pytest.raises(ModelViolationError, match="efficiency"):
        dynamics.efficiency(op, p.omega_m)


# --- intra-ring gain and enhancement resonances --------------------------------------


def test_intra_ring_gain_zero_without_ring_coupling(nominal_params):
    p = replace(nominal_params, J=0.0)
    assert dynamics.intra_ring_gain(p, p.omega_m) == 0j


def test_enhancement_resonance_closed_form_matches_peak_formula(nominal_params):
    p = nominal_params
    res = dynamics.enhancement_resonances(p)
    assert not res.degenerate
    peak = dynamics.enhancement_peak_value(p)
    for w in (res.lower, res.upper):
        value = abs(dynamics.intra_ring_gain(p, w)) ** 2
        assert value == pytest.approx(peak, rel=1e-6)


def test_enhancement_resonances_lossless_limit(nominal_params):
    # halfwidths must stay positive, so emulate the lossless limit with tiny kappas
    p = replace(nominal_params, kappa_1=1e-3, kappa_02=1e-3, kappa_ex2=0.0)
    res = dynamics.enhancement_resonances(p)
    assert res.lower == pytest.approx(p.delta_1 - p.J, rel=1e-12)
    assert res.upper == pytest.approx(p.delta_1 + p.J, rel=1e-12)


def test_enhancement_resonances_degenerate_flag(nominal_params):
    p = replace(nominal_params, J=TWO_PI * 1e6)  # 8 J^2 < kappa_1^2 + kappa_2^2
    res = dynamics.enhancement_resonances(p)
    assert res.degenerate
    assert res.lower == res.upper == p.delta_1


@pytest.mark.parametrize("j_scale", [1.0, 0.051])
def test_enhancement_resonances_match_grid_argmax(nominal_params, j_scale):
    # j_scale = 0.051 puts 8 J^2 close to 2 (kappa_1^2 + kappa_2^2)
    p = replace(nominal_params, J=nominal_params.J * j_scale)
    res = dynamics.enhancement_resonances(p)
    assert not res.degenerate
    step = TWO_PI * 1e3
    for predicted in (res.lower, res.upper):
        grid = np.arange(predicted - TWO_PI * 2e6, predicted + TWO_PI * 2e6, step)
        power = np.abs(dynamics.intra_ring_gain(p, grid)) ** 2
        found = grid[np.argmax(power)]
        assert abs(found - predicted) <= step


# --- pump power mapping ----------------------------------------------------------


def test_photon_flux_hand_value(nominal_params):
    # 1 mW at 1550 nm is 7.80e15 photons/s
    flux = dynamics.photon_flux(nominal_params, 1e-3)
    assert flux == pytest.approx(7.80e15, rel=1e-3)


def test_pump_power_zero(nominal_params):
    assert dynamics.pump_power_to_photons(nominal_params, 0.0) == 0.0


def test_pump_power_strictly_increasing(nominal_params):
    powers = np.linspace(0.001, 2.0, 50)
    photons = [dynamics.pump_power_to_photons(nominal_params, float(pw)) for pw in powers]
    assert np.all(np.diff(photons) > 0)


def test_pump_power_requires_wavelength(nominal_params):
    p = replace(nominal_params, lambda_l=None)
    with pytest.raises(ParameterError, match="lambda_l"):
        dynamics.pump_power_to_photons(p, 1e-3)


@pytest.mark.parametrize("power, first", [(1e308, "1e+308"),
                                          (np.array([1e-3, 1e300, 1e308]), "1e+300")])
def test_overflowing_photon_flux_names_power(nominal_params, power, first):
    # an array used to raise FloatingPointError under the CLI's errstate
    with np.errstate(over="raise"):
        with pytest.raises(ParameterError,
                           match=f"^power must give a finite photon flux, got {re.escape(first)}$"):
            dynamics.photon_flux(nominal_params, power)


def test_array_fields_validated_elementwise(nominal_params):
    g = nominal_params.g_em * np.array([[1.0, 2.0], [-3.0, math.nan]])
    with pytest.raises(ParameterError, match=r"^g_em must be finite, got nan$"):
        replace(nominal_params, g_em=g, gamma_ex=None, gamma_m_supplied=None)
    g[1, 1] = -4.0
    expected = f"g_em must be >= 0, got {float(g[1, 0])!r}"  # the first negative, row-major
    with pytest.raises(ParameterError, match=re.escape(expected)):
        replace(nominal_params, g_em=g, gamma_ex=None, gamma_m_supplied=None)
    gamma_ex = nominal_params.gamma_ex * np.array([1.0, 10.0])
    with pytest.raises(ParameterError, match=r"^gamma_ex must not exceed the total mechanical "
                                             r"linewidth gamma_m = \d"):
        replace(nominal_params, gamma_ex=gamma_ex)


def test_load_params_defaults_to_bundled_nominal_set(nominal_params):
    assert dynamics.load_params() == nominal_params
    assert dynamics.load_params(None) == nominal_params


def test_singular_denominators_report_a_scalar_omega_as_given(nominal_params, monkeypatch):
    # a huge tolerance makes every frequency singular
    monkeypatch.setattr(dynamics, "_SINGULARITY_RTOL", 1e30)
    p = nominal_params
    op = dynamics.OperatingPoint(p, 1e11)
    for call, omega, what in [
        (lambda w: dynamics.transduction_amplitude(op, w), p.omega_m, "transduction"),
        (lambda w: dynamics.intra_ring_gain(p, w), p.delta_1, "ring-pair"),
    ]:
        with pytest.raises(sfg.SingularityError, match=f"{what} denominator vanished") as info:
            call(omega)
        assert info.value.omega == omega and isinstance(info.value.omega, float)


def test_ring_pair_singularity_reports_only_the_offending_frequencies(nominal_params,
                                                                      monkeypatch):
    p = nominal_params
    omegas = p.delta_1 + TWO_PI * np.array([0.0, 1e9, 3e10])
    c01, c02, _ = dynamics.susceptibilities(p, omegas)
    loop = p.J**2 * c01 * c02
    margin = np.abs(1 + loop) / (1 + np.abs(loop))
    monkeypatch.setattr(dynamics, "_SINGULARITY_RTOL", float(np.median(margin)))
    with pytest.raises(sfg.SingularityError, match="ring-pair denominator vanished") as info:
        dynamics.intra_ring_gain(p, omegas)
    offending = omegas[margin < np.median(margin)]
    assert len(offending) == 1
    np.testing.assert_array_equal(info.value.omega, offending)


def test_efficiency_rejects_a_non_finite_result_by_name():
    text = resources.files("pomtrans.data").joinpath("nominal_params.json").read_text("utf-8")
    p = dynamics.params_from_dict({**json.loads(text), "kappa_1_hz": 1e-320})
    op = dynamics.OperatingPoint(p, 1e11)
    # chi_01 overflows at its centre, so the amplitude there is inf / inf
    with np.errstate(all="ignore"):
        for omega in (p.omega_m, p.omega_m + np.linspace(-1e9, 1e9, 201)):
            with pytest.raises(ModelViolationError, match="^efficiency is not finite"):
                dynamics.efficiency(op, omega)
