import argparse
import csv
import dataclasses
import errno
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from conftest import coupling_input_fields, read_table, write_coupling_inputs

from pomtrans import analysis, cli, coupling, dynamics, rings, sweep
from pomtrans.errors import SingularityError
from pomtrans.sweep import SweepResult

TWO_PI = 2 * math.pi


def run(args, capsys=None):
    code = cli.main(args)
    return code


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_optimize_nominal(outdir, capsys):
    assert run(["optimize", "--out", "opt"]) == 0
    payload = json.loads((outdir / "opt.json").read_text())
    assert payload["max_efficiency"] == pytest.approx(0.4685, rel=1e-3)
    assert payload["cooperativities"]["c_12"] == pytest.approx(2877.66, rel=1e-4)
    assert payload["critical_photon_number"] == pytest.approx(5.9583e11, rel=1e-3)
    assert payload["resolved_params"]["gamma_ex_rel_discrepancy"] == pytest.approx(0.142, abs=0.01)


def test_optimize_zero_optomech_coupling_exits_2(outdir, tmp_path, capsys):
    params = {
        "omega_m_hz": 3.285e9, "gamma_0_hz": 2.6e6, "Gamma_0_hz": 5e8,
        "Gamma_hz": 1.5e10, "g_em_hz": 1.006e8, "J_hz": 1.6425e9,
        "delta_1_hz": 3.285e9, "delta_2_hz": 3.285e9, "kappa_1_hz": 2.5e7,
        "kappa_02_hz": 2.5e7, "kappa_ex2_hz": 1.25e8, "g_om_hz": 0.0,
    }
    path = tmp_path / "zero_g.json"
    path.write_text(json.dumps(params))
    code = run(["optimize", "--params", str(path), "--out", "opt"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: undefined-optimum:")


def test_unknown_param_key_exits_2(outdir, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"omega_m_hz": 1e9, "mystery_hz": 1.0}))
    assert run(["optimize", "--params", str(path)]) == 2
    assert "error: validation:" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("nope", "invalid JSON in {path}: Expecting value: line 1 column 1 (char 0)"),
    ("[1]", "parameter file {path} must contain a flat JSON object"),
], ids=["invalid-json", "not-an-object"])
def test_malformed_params_file_exits_2(outdir, tmp_path, capsys, text, message):
    path = tmp_path / "params.json"
    path.write_text(text)
    assert run(["optimize", "--params", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: validation: " + message.format(path=path)]
    assert list(outdir.iterdir()) == [path]


def test_spectrum_sidecar_matches_library(outdir):
    assert run([
        "spectrum", "--preset", "nominal", "--out", "spec",
        "--grid-start", str(3.285e9 - 40e6), "--grid-stop", str(3.285e9 + 40e6),
        "--grid-points", "40001",
    ]) == 0
    payload = json.loads((outdir / "spec.json").read_text())
    table = read_table(outdir / "spec.csv")
    assert len(table["frequency_hz"]) == 40001

    p = dynamics.params_from_dict({
        k: v for k, v in payload["resolved_params"].items()
        if k in dynamics._PARAM_KEYS
    })
    grid = TWO_PI * np.linspace(3.285e9 - 40e6, 3.285e9 + 40e6, 40001)
    spec = analysis.efficiency_spectrum(p, grid)
    assert payload["fwhm_mhz"] == pytest.approx(spec.fwhm / TWO_PI / 1e6, rel=1e-12)
    assert payload["peak_shift_mhz"] == pytest.approx(spec.peak_shift / TWO_PI / 1e6, abs=1e-9)
    assert payload["broad_peak"] == spec.broad_peak_flag
    np.testing.assert_allclose(
        table["efficiency"], spec.efficiencies, rtol=1e-11)


def test_contour_cell_matches_optimize_derived(outdir):
    p_nom_hz = 1.006e8
    k_nom_hz = 1.25e8
    assert run([
        "contour", "--out", "cont",
        "--grid-start", str(p_nom_hz / 5), str(k_nom_hz / 5),
        "--grid-stop", str(p_nom_hz), str(k_nom_hz),
        "--grid-points", "2", "2",
    ]) == 0
    table = read_table(outdir / "cont.csv")
    assert run(["optimize", "--out", "opt"]) == 0
    opt = json.loads((outdir / "opt.json").read_text())
    # cell at the nominal coordinates equals the optimizer's derived-gamma_ex value
    gs = table["log10_gEM_hz"]
    ks = table["log10_kex2_hz"]
    eta = table["max_efficiency"]
    idx = np.argmin(np.hypot(gs - math.log10(p_nom_hz), ks - math.log10(k_nom_hz)))
    assert eta[idx] == pytest.approx(opt["max_efficiency_derived_gamma_ex"], rel=1e-9)


def test_contour_axes_are_log10_hz(outdir, nominal_params):
    assert run(["contour", "--out", "c", "--grid-start", "1e7", "1e8",
                "--grid-stop", "1e9", "1e10", "--grid-points", "3", "4"]) == 0
    table = read_table(outdir / "c.csv")
    # rows run over kappa_ex2 within each g_em value
    np.testing.assert_allclose(table["log10_gEM_hz"], np.repeat([7.0, 8.0, 9.0], 4),
                               rtol=1e-11, atol=0)
    np.testing.assert_allclose(table["log10_kex2_hz"], np.tile(np.linspace(8.0, 10.0, 4), 3),
                               rtol=1e-11, atol=0)
    eta = analysis.max_efficiency_contour(
        nominal_params, TWO_PI * np.logspace(7, 9, 3), TWO_PI * np.logspace(8, 10, 4))
    np.testing.assert_allclose(table["max_efficiency"], eta.ravel(), rtol=1e-11, atol=0)


def test_efficiency_curve_outputs(outdir):
    assert run([
        "efficiency-curve", "--out", "curve",
        "--grid-start", "1e-4", "--grid-stop", "50", "--grid-points", "120",
    ]) == 0
    eta = read_table(outdir / "curve.csv")["efficiency"]
    assert np.all((eta >= 0) & (eta <= 1))
    payload = json.loads((outdir / "curve.json").read_text())
    assert payload["metadata"]["peak_efficiency"] == pytest.approx(max(eta), rel=1e-9)


def test_rings_outputs(outdir):
    assert run(["rings", "--out", "r", "--grid-points", "20001"]) == 0
    t = read_table(outdir / "r.csv")["transmission"]
    assert np.all((t >= 0) & (t <= 1 + 1e-12))
    payload = json.loads((outdir / "r.json").read_text())
    labels = {c["label"] for c in payload["critical_frequencies"]}
    assert labels == {"flat-point", "split-resonance-lower", "split-resonance-upper"}


def test_materials_ranking_output(outdir):
    assert run(["materials", "--which", "om", "--out", "m"]) == 0
    lines = (outdir / "m.csv").read_text().splitlines()
    assert lines[0].startswith("rank,name")
    assert lines[1].split(",")[1] == "BaTiO3"
    # undefined entries trail with their reasons
    assert any("unknown" in ln or "opaque" in ln for ln in lines[-6:])


def test_coupling_command(outdir, tmp_path):
    grid = coupling.Grid3D((0, 0, 0), (1e-7, 1e-7, 0.25e-7), (5, 5, 41))
    z = grid.meshgrid()[2]
    e_comps = np.zeros((3, *grid.shape), dtype=complex)
    e_comps[0] = 1.0
    w_comps = np.zeros((3, *grid.shape), dtype=complex)
    w_comps[2] = 1e-4 * np.sin(math.pi * z / 1e-6)
    e = coupling.ModeField(grid, e_comps, coupling.EM, TWO_PI * 1.935e14)
    w = coupling.ModeField(grid, w_comps, coupling.MECH, TWO_PI * 3.285e9)
    coupling.save_mode_field(tmp_path / "e.csv", e)
    coupling.save_mode_field(tmp_path / "w.csv", w)
    h = np.zeros((3, 6)); h[2, 2] = 0.145
    p = np.zeros((6, 6)); p[0, 2] = 0.239
    (tmp_path / "tensors.json").write_text(json.dumps({
        "rho": 3255.0, "eps_rf": 9.5, "eps_ir": 3.67,
        "h": h.tolist(), "p": p.tolist(),
    }))
    assert run([
        "coupling", "--em-field", str(tmp_path / "e.csv"),
        "--mech-field", str(tmp_path / "w.csv"),
        "--tensors", str(tmp_path / "tensors.json"),
        "--component", "3", "3", "3", "--out", "coupling",
    ]) == 0
    payload = json.loads((outdir / "coupling.json").read_text())
    assert payload["optomech_coupling_rad_s"] > 0
    g = coupling.optomech_coupling(e, w, coupling.MaterialTensorSet(
        rho=3255.0, eps_rf=9.5, eps_ir=3.67, h=h, p=p))
    assert payload["optomech_coupling_rad_s"] == pytest.approx(g, rel=1e-12)
    assert payload["piezo_coupling_component"]["ijk"] == [3, 3, 3]


def _readme_command_lines():
    """The ``pomtrans ...`` lines of the first ``sh`` block under README's "Command line"."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("pomtrans ")]


#: the extensions of the artifacts each subcommand writes beside its --out base
_ARTIFACTS = {"optimize": (".json",), "spectrum": (".csv", ".json"), "contour": (".csv", ".json"),
              "efficiency-curve": (".csv", ".json"), "rings": (".csv", ".json"),
              "materials": (".csv",), "coupling": (".json",)}


@pytest.mark.parametrize("line", _readme_command_lines(), ids=lambda line: line.split()[1])
def test_readme_command_line_example_runs(outdir, line):
    argv = shlex.split(line)[1:]
    if argv[0] == "coupling":
        write_coupling_inputs(outdir)  # e.csv, w.csv and tensors.json, as the line names them
    before = set(os.listdir(outdir))
    assert run(argv) == 0
    out = argv[argv.index("--out") + 1]
    assert set(os.listdir(outdir)) - before == {out + ext for ext in _ARTIFACTS[argv[0]]}


def test_readme_lists_one_command_line_example_per_subcommand():
    assert sorted(line.split()[1] for line in _readme_command_lines()) == sorted(_ARTIFACTS)


def test_outputs_are_deterministic(outdir):
    assert run(["optimize", "--out", "a"]) == 0
    assert run(["optimize", "--out", "b"]) == 0
    assert (outdir / "a.json").read_bytes() == (outdir / "b.json").read_bytes()
    args = ["spectrum", "--out", "s1", "--grid-points", "4001",
            "--grid-start", str(3.285e9 - 30e6), "--grid-stop", str(3.285e9 + 30e6)]
    assert run(args) == 0
    args[2] = "s2"
    assert run(args) == 0
    assert (outdir / "s1.csv").read_bytes() == (outdir / "s2.csv").read_bytes()


def test_singularity_maps_to_exit_3(outdir, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise SingularityError(1.0, "synthetic")

    monkeypatch.setattr(analysis, "efficiency_spectrum", boom)
    assert run(["spectrum", "--out", "x"]) == 3
    assert capsys.readouterr().err.startswith("error: singularity:")


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000) "
                 "and data type float64"),
     "error: memory: Unable to allocate 74.5 GiB for an array with shape (100000, 100000) "
     "and data type float64"),
    (MemoryError(), "error: memory: MemoryError"),
])
def test_memory_error_maps_to_exit_2(outdir, monkeypatch, capsys, exc, line):
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(analysis, "max_efficiency_contour", boom)
    assert run(["contour", "--out", "x"]) == 2
    assert capsys.readouterr().err.splitlines() == [line]
    assert list(outdir.iterdir()) == []


def test_preset_flag_resolves_parameters(outdir):
    assert run(["optimize", "--preset", "5gem-5kex2-10G-lowloss", "--out", "ll"]) == 0
    payload = json.loads((outdir / "ll.json").read_text())
    assert payload["resolved_params"]["g_em_hz"] == pytest.approx(5 * 1.006e8)
    assert payload["resolved_params"]["kappa_1_hz"] == pytest.approx(2.5e6)
    # supplied gamma_ex is dropped when g_em scales: effective equals derived
    assert payload["resolved_params"]["effective_gamma_ex_hz"] == pytest.approx(
        payload["resolved_params"]["derived_gamma_ex_hz"])
    assert payload["max_efficiency"] == pytest.approx(0.9258, abs=2e-3)


def _nominal_payload():
    return json.loads(resources.files("pomtrans.data").joinpath("nominal_params.json").read_text())


def test_zero_linewidth_divisor_exits_2(outdir, tmp_path, capsys):
    params = _nominal_payload()
    params["kappa_1_hz"] = 0.0
    path = tmp_path / "zero_kappa_1.json"
    path.write_text(json.dumps(params))
    assert run(["optimize", "--params", str(path), "--out", "opt"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: validation: kappa_1 must be > 0 where it divides, got 0.0"]
    assert not (outdir / "opt.json").exists()


ZERO_LINEWIDTHS = {
    "kappa_1": {"kappa_1_hz": 0.0},
    "kappa_2": {"kappa_02_hz": 0.0, "kappa_ex2_hz": 0.0},
    # a supplied gamma_ex or gamma_m would fail its own check against gamma_m = 0
    "gamma_m": {"gamma_0_hz": 0.0, "g_em_hz": 0.0, "gamma_ex_hz": None, "gamma_m_hz": None},
}


@pytest.mark.parametrize("command", ["spectrum", "efficiency-curve"])
@pytest.mark.parametrize("linewidth", sorted(ZERO_LINEWIDTHS))
def test_frequency_domain_zero_linewidth_named(outdir, tmp_path, capsys, command, linewidth):
    params = _nominal_payload()
    for key, value in ZERO_LINEWIDTHS[linewidth].items():
        if value is None:
            del params[key]
        else:
            params[key] = value
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(params))
    assert run([command, "--params", str(path), "--out", "x"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: validation: {linewidth} must be > 0 where it divides, got 0.0"]
    assert list(outdir.glob("x.*")) == []


def test_pump_offset_reported_as_given(outdir):
    assert run(["efficiency-curve", "--pump-offset-hz", "3.2e9", "--out", "c",
                "--grid-points", "11"]) == 0
    metadata = json.loads((outdir / "c.json").read_text())["metadata"]
    assert metadata["pump_offset_hz"] == 3.2e9  # not 3199999999.9999995


def test_default_pump_offset_reported_at_the_lower_enhancement_resonance(outdir,
                                                                         nominal_params):
    assert run(["efficiency-curve", "--out", "c", "--grid-points", "11"]) == 0
    metadata = json.loads((outdir / "c.json").read_text())["metadata"]
    lower = dynamics.enhancement_resonances(nominal_params).lower
    assert metadata["pump_offset_hz"] == lower / TWO_PI


def test_parser_reuse_does_not_leak_flags(outdir):
    assert run(["optimize", "--preset", "5gem-5kex2-10G", "--out", "a"]) == 0
    assert run(["optimize"]) == 0
    first = json.loads((outdir / "a.json").read_text())
    second = json.loads((outdir / "optimize.json").read_text())
    assert first["preset"] == "5gem-5kex2-10G"
    assert second["preset"] == "nominal"
    assert second["resolved_params"]["g_em_hz"] == pytest.approx(1.006e8)


@pytest.mark.parametrize("exc", [ZeroDivisionError("float division by zero"),
                                 OverflowError("math range error")])
def test_stray_arithmetic_error_exits_2(outdir, monkeypatch, capsys, exc):
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(analysis, "critical_photon_number", boom)
    assert run(["optimize", "--out", "opt"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: arithmetic: {type(exc).__name__}: {exc}"]
    assert "Traceback" not in err
    assert not (outdir / "opt.json").exists()


@pytest.mark.parametrize("key", ["g_om_hz", "J_hz"])
@pytest.mark.parametrize("value", [math.nan, math.inf, True])
def test_non_finite_and_boolean_parameters_exit_2(outdir, tmp_path, capsys, key, value):
    params = _nominal_payload()
    params[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(params))  # NaN and inf as the JSON literals NaN / Infinity
    assert run(["optimize", "--params", str(path), "--out", "opt"]) == 2
    if value is True:
        expected = f"error: validation: parameter {key} is not a number: True"
    else:
        expected = f"error: validation: {key.removesuffix('_hz')} must be finite, got {value}"
    assert capsys.readouterr().err.splitlines() == [expected]
    assert not (outdir / "opt.json").exists()


@pytest.mark.parametrize("literal, expected", [
    pytest.param("1" + "0" * 400, "g_em must be finite, got inf", id="400-digit-integer"),
    pytest.param("1" + "0" * 5001, "g_em must be finite, got inf", id="5001-digit-integer"),
    pytest.param('"1_0"', "parameter g_em_hz is not a number: '1_0'", id="numeric-string"),
])
def test_over_long_integer_and_numeric_string_parameters_exit_2(outdir, tmp_path, capsys,
                                                                literal, expected):
    # the integers used to end in "arithmetic: OverflowError" or in Python's digit-limit
    # advice, without the key; the string used to read as 10 Hz
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_nominal_payload(), "g_em_hz": "@"}).replace('"@"', literal))
    assert run(["optimize", "--params", str(path), "--out", "opt"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: validation: {expected}"]
    assert not (outdir / "opt.json").exists()


def test_artifacts_honour_umask(outdir):
    old = os.umask(0o022)
    try:
        assert run(["optimize", "--out", "opt"]) == 0
    finally:
        os.umask(old)
    assert (outdir / "opt.json").stat().st_mode & 0o777 == 0o644


def _float_flags():
    """(subcommand, flag) for every float-typed option of the parser."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, action.option_strings[0])
            for name, subparser in sub.choices.items()
            for action in subparser._actions if action.type is float]


def test_float_flag_list_is_complete():
    assert sorted(_float_flags()) == sorted(
        [(command, flag) for command in ("spectrum", "contour", "efficiency-curve", "rings")
         for flag in ("--grid-start", "--grid-stop")]
        + [("efficiency-curve", "--pump-offset-hz")]
        + [("rings", flag) for flag in ("--round-trip-time", "--ring-j-hz", "--ring-loss",
                                        "--bus-coupling")])


@pytest.mark.parametrize("command, flag", _float_flags())
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_flag_rejected_by_name(outdir, capsys, recwarn, command, flag, value):
    assert run([command, f"{flag}={value}", "--out", "x"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: validation: {flag} must be finite, got {float(value)}"]
    assert len(recwarn) == 0
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("component", [["0", "1", "3"], ["-2", "1", "3"], ["4", "1", "3"]])
def test_component_row_index_out_of_range_exits_2(outdir, tmp_path, capsys, component):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling", "--component", *component] + write_coupling_inputs(inputs)
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: validation: tensor index i must be in 1..3, got {component[0]}"]
    assert not (outdir / "coupling.json").exists()


@pytest.mark.parametrize("component", [["3", "3", "3"], ["9", "9", "9"]])
def test_component_without_h_exits_2(outdir, tmp_path, capsys, component):
    # both used to exit 0 and write a JSON with no component entry
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling", "--component", *component] + write_coupling_inputs(inputs)
    tensors = json.loads((inputs / "tensors.json").read_text())
    del tensors["h"]
    (inputs / "tensors.json").write_text(json.dumps(tensors))
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: material-data: piezoelectric tensor h is not set"]
    assert sorted(p.name for p in outdir.iterdir()) == ["inputs"]


def test_tensor_file_without_object_exits_2(outdir, tmp_path, capsys):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling"] + write_coupling_inputs(inputs)
    (inputs / "tensors.json").write_text("3")
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: validation: tensor file {inputs / 'tensors.json'} must contain a JSON object"]
    assert not (outdir / "coupling.json").exists()


@pytest.mark.parametrize("argv, axis", [
    (["efficiency-curve", "--grid-start", "0"], "power grid"),
    (["efficiency-curve", "--grid-start", "-1"], "power grid"),
    (["contour", "--grid-start", "0"], "g_em axis"),
    (["contour", "--grid-start", "1e7", "-1"], "kappa_ex2 axis"),
])
def test_log_axis_start_must_be_positive(outdir, capsys, argv, axis):
    assert run(argv + ["--out", "x"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: validation: {axis}: start must be > 0"]
    assert list(outdir.iterdir()) == []


def test_sidecar_failure_leaves_no_csv(outdir, monkeypatch, capsys):
    def nan_frequency(rp, n_range):
        return [rings.CriticalFrequency(math.nan, rings.FLAT_POINT)]

    monkeypatch.setattr(rings, "critical_frequencies", nan_frequency)
    assert run(["rings", "--grid-points", "101"]) == 2
    assert capsys.readouterr().err.startswith("error: validation: Out of range float values")
    assert list(outdir.iterdir()) == []


def test_optimize_takes_no_grid_flags(outdir, capsys):
    assert run(["optimize", "--grid-points", "5"]) == 2
    assert "unrecognized arguments: --grid-points 5" in capsys.readouterr().err
    assert list(outdir.iterdir()) == []


# --- argument parsing and input files --------------------------------------------


@pytest.mark.parametrize("argv, flag, value", [
    (["efficiency-curve"], "--pump-offset-hz", "-1.6e9"),
    (["efficiency-curve"], "--pump-offset-hz", "-.5E+9"),
    # spectrum is the one grid command whose start may be below 0
    (["spectrum", "--grid-points", "5001"], "--grid-start", "-1e9"),
])
def test_negative_exponent_flag_space_form_matches_equals_form(outdir, argv, flag, value):
    assert run(argv + [flag, value, "--out", "space"]) == 0
    assert run(argv + [f"{flag}={value}", "--out", "equals"]) == 0
    written = sorted(p.name for p in outdir.iterdir())
    assert written == sorted(f"{base}{ext}" for base in ("equals", "space")
                             for ext in (".csv", ".json"))
    for ext in (".csv", ".json"):
        assert (outdir / f"space{ext}").read_bytes() == (outdir / f"equals{ext}").read_bytes()


def test_negative_ring_j_exits_2(outdir, capsys):
    assert run(["rings", "--ring-j-hz=-1e9", "--grid-points", "101"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: validation: inter-ring coupling J must be >= 0"]
    assert list(outdir.iterdir()) == []


def test_overflowing_ring_phase_exits_2(outdir, capsys):
    assert run(["rings", "--round-trip-time", "1e300", "--grid-points", "101"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: validation: inter-ring phase J*T must be finite, "
        f"got J={TWO_PI * 1.6425e9} and T=1e+300"]
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    # 1/T overflows: the run used to fail on an inf in the JSON, or on an inf grid stop
    (["--round-trip-time", "1e-320", "--grid-stop", "1e9", "--grid-points", "8"],
     "free spectral range 1/T must be finite, got T=1e-320"),
    (["--round-trip-time", "1e-320"], "free spectral range 1/T must be finite, got T=1e-320"),
    # 1/T is finite, but the order-0 split resonance pi/T is not
    (["--round-trip-time", "1e-308", "--grid-stop", "1e9", "--grid-points", "8"],
     "critical frequencies of order 0 overflow: round-trip time T=1e-308 is too small"),
], ids=["subnormal-grid-stop", "subnormal-default-grid", "overflowing-order"])
def test_tiny_round_trip_time_exits_2(outdir, capsys, argv, message):
    assert run(["rings", *argv]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: validation: {message}"]
    assert list(outdir.iterdir()) == []


def test_rings_default_grid_stop_overflow_names_round_trip_time(outdir, capsys):
    # 1/T is finite at T = 1e-308, but the default stop 3/T is not
    assert run(["rings", "--round-trip-time", "1e-308"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: validation: frequency grid: the default stop 3/T overflows at round-trip "
        "time T=1e-308; pass --grid-stop"]
    assert list(outdir.iterdir()) == []


def test_rings_negative_grid_start_exits_2(outdir, capsys):
    # the critical frequencies start at 0 Hz, and the order count reads only stop*T
    assert run(["rings", "--grid-start", "-1e12", "--grid-stop", "1e10",
                "--grid-points", "50"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: validation: frequency grid: start must be >= 0"]
    assert list(outdir.iterdir()) == []


def test_rings_with_more_critical_orders_than_grid_points_exits_2(outdir, capsys):
    # T = 1e-11 s: a 1e13 Hz grid spans 100 free spectral ranges, so orders 0..100
    assert run(["rings", "--grid-stop", "1e13", "--grid-points", "50"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: validation: frequency grid: stop 1e+13 Hz spans 100 free spectral ranges, "
        "so the critical frequencies listed would outnumber its 50 points"]
    assert list(outdir.iterdir()) == []


def test_rings_lists_as_many_critical_orders_as_grid_points(outdir):
    assert run(["rings", "--grid-stop", "1e13", "--grid-points", "101", "--out", "r"]) == 0
    payload = json.loads((outdir / "r.json").read_text())
    rp = rings.RingPair(T=1e-11, J=TWO_PI * 1.6425e9, loss=0.995, bus_coupling=0.05)
    orders = rings.critical_frequencies(rp, range(0, 101))
    assert [c["frequency_hz"] for c in payload["critical_frequencies"]] == [
        c.omega / TWO_PI for c in orders]


GRID_VALUES = {"--grid-start": "1e7", "--grid-stop": "1e9", "--grid-points": "101"}


@pytest.mark.parametrize("flag", sorted(GRID_VALUES))
@pytest.mark.parametrize("command, axes", [
    ("spectrum", 1), ("efficiency-curve", 1), ("rings", 1), ("contour", 2)])
def test_extra_grid_values_rejected_by_name(outdir, capsys, command, axes, flag):
    assert run([command, flag, *[GRID_VALUES[flag]] * (axes + 1), "--out", "x"]) == 2
    most = "one value" if axes == 1 else f"at most {axes} values"
    assert capsys.readouterr().err.splitlines() == [
        f"error: validation: {flag} takes {most}, got {axes + 1}"]
    assert list(outdir.iterdir()) == []


def _rewrite_header(path, key, value):
    lines = path.read_text().split("\n")
    tokens = [f"{key}={value}" if t.startswith(f"{key}=") else t for t in lines[0].split()]
    path.write_text("\n".join([" ".join(tokens)] + lines[1:]))


@pytest.mark.parametrize("key, value, message", [
    ("origin", "nan,0,0", "grid origin must be finite, got (nan, 0.0, 0.0)"),
    ("origin", "0,-inf,0", "grid origin must be finite, got (0.0, -inf, 0.0)"),
    ("spacing", "1e-07,inf,2.5e-08", "grid spacing must be finite, got (1e-07, inf, 2.5e-08)"),
    # finite, but the 41st point along z overflows
    ("spacing", "1e-07,1e-07,1e+307", "grid last point must be finite, got (4e-07, 4e-07, inf)"),
    ("frequency", "nan", "mode frequency must be finite, got nan"),
    ("frequency", "inf", "mode frequency must be finite, got inf"),
    # 0 used to pass the load and fail at the rate, without naming the file
    ("frequency", "0", "mode frequency must be > 0, got 0.0"),
    # this used to end in "arithmetic: OverflowError", without naming the file
    pytest.param("counts", f"5,5,{10**400}",
                 f"grid counts must be positive integers, got (5, 5, {10**400})",
                 id="counts-400-digit-integer"),
])
def test_non_finite_mode_field_header_exits_2(outdir, tmp_path, capsys, key, value, message):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling"] + write_coupling_inputs(inputs)
    _rewrite_header(inputs / "w.csv", key, value)
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: validation: mode field {inputs / 'w.csv'}: {message}"]
    assert not (outdir / "coupling.json").exists()


@pytest.mark.parametrize("key, value", [
    ("origin", "0.0,0.0,\u0660"),  # an Arabic-Indic zero
    ("spacing", "1e-07,1e-07,2.5e-0_8"),
    ("counts", "5,5,4_1"),
    ("frequency", "20_640_263_734.08494"),  # float() reads the frequency the file holds
], ids=["origin", "spacing", "counts", "frequency"])
def test_mode_field_header_number_that_np_loadtxt_rejects_exits_2(outdir, tmp_path, capsys,
                                                                   key, value):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling"] + write_coupling_inputs(inputs)
    _rewrite_header(inputs / "w.csv", key, value)
    header = (inputs / "w.csv").read_text().split("\n")[0]
    before = set(os.listdir(outdir))
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: validation: mode field {inputs / 'w.csv'}: "
        f"malformed mode field header: {header!r}"]
    assert set(os.listdir(outdir)) == before


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
def test_non_finite_mode_field_cell_exits_2(outdir, tmp_path, capsys, cell):
    # an infinite cell used to end in "arithmetic: FloatingPointError: invalid value"
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling"] + write_coupling_inputs(inputs)
    lines = (inputs / "w.csv").read_text().split("\n")
    lines[2] = ",".join(lines[2].split(",")[:-1] + [cell])
    (inputs / "w.csv").write_text("\n".join(lines))
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: validation: mode field {inputs / 'w.csv'}: mode field contains non-finite values"]
    assert not (outdir / "coupling.json").exists()


def test_mode_field_without_rows_exits_2_without_a_warning(outdir, tmp_path, capsys):
    # numpy's "input contained no data" warning used to print a second stderr line
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling"] + write_coupling_inputs(inputs)
    lines = (inputs / "e.csv").read_text().split("\n")
    (inputs / "e.csv").write_text("\n".join(lines[:2]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: validation: mode field {inputs / 'e.csv'}: "
        "mode field file has shape (0, 1), expected (1025, 9)"]
    assert not (outdir / "coupling.json").exists()


@pytest.mark.parametrize("column, value", [
    ("h33", "nan"), ("eps33_rf", "inf"), ("rho_gcc", "inf"), ("p33", "-inf")])
def test_non_finite_materials_cell_exits_2(outdir, tmp_path, capsys, column, value):
    path, line_no = _materials_file_with_aln(tmp_path, {column: value})
    assert run(["materials", "--which", "em", "--materials-file", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: material-data: row {line_no}: AlN: {column} must be finite, "
        f"got {float(value)}"]
    assert not (outdir / "materials-em.csv").exists()


def _materials_file_with_aln(tmp_path, cells):
    """The bundled materials CSV with AlN's ``cells`` replaced: its path and AlN's line."""
    text = resources.files("pomtrans.data").joinpath("materials.csv").read_text("utf-8")
    rows = [line.split(",") for line in text.splitlines()]
    aln = next(row for row in rows if row[0] == "AlN")
    for column, value in cells.items():
        aln[rows[0].index(column)] = value
    path = tmp_path / "materials.csv"
    path.write_text("\n".join(",".join(row) for row in rows) + "\n")
    return path, rows.index(aln) + 1


@pytest.mark.parametrize("column, value", [
    ("rho_gcc", "3_2"),  # read as 32
    ("h33", "\u0661.\u0665"),  # Arabic-Indic digits, read as 1.5
], ids=["underscore", "arabic-indic-digits"])
def test_materials_cell_that_np_loadtxt_rejects_exits_2(outdir, tmp_path, capsys, column, value):
    path, line_no = _materials_file_with_aln(tmp_path, {column: value})
    before = set(os.listdir(outdir))
    assert run(["materials", "--which", "em", "--materials-file", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: material-data: row {line_no}: row 'AlN', column {column!r}: "
        f"not a number: {value!r}"]
    assert set(os.listdir(outdir)) == before


@pytest.mark.parametrize("which, cells, figure", [
    # an infinite figure used to rank first
    ("em", {"rho_gcc": "1e-320"}, "electromechanical figure of merit must be finite, got inf"),
    ("em", {"rho_gcc": "1e-320", "h33": "0"},
     "electromechanical figure of merit must be finite, got nan"),
    ("om", {"eps33_ir": "1e200", "p33": "1e200"},
     "optomechanical figure of merit must be finite, got inf"),
], ids=["em-inf", "em-nan", "om-inf"])
def test_non_finite_figure_of_merit_exits_2(outdir, tmp_path, capsys, which, cells, figure):
    path, _ = _materials_file_with_aln(tmp_path, cells)
    assert run(["materials", "--which", which, "--materials-file", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: material-data: AlN: {figure}"]
    assert not (outdir / f"materials-{which}.csv").exists()


@pytest.mark.parametrize("key, entry, message", [
    ("h", True, "tensor h is not a numeric matrix: booleans are not numbers"),
    ("p", math.inf, "tensor p entries must be finite, got inf"),
    ("eta", -math.inf, "tensor eta entries must be finite, got -inf"),
    ("c", math.nan, "tensor c entries must be finite, got nan"),
])
def test_non_numeric_tensor_matrix_entry_exits_2(outdir, tmp_path, capsys, key, entry, message):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling"] + write_coupling_inputs(inputs)
    data = json.loads((inputs / "tensors.json").read_text())
    shape = {"h": (3, 6), "p": (6, 6), "c": (6, 6), "eta": (3, 3)}[key]
    matrix = data.get(key) or (np.eye(*shape) * 0.1).tolist()
    matrix[0][0] = entry
    data[key] = matrix
    (inputs / "tensors.json").write_text(json.dumps(data))
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: validation: {message}"]
    assert not (outdir / "coupling.json").exists()


@pytest.mark.parametrize("key, literal, expected", [
    pytest.param("rho", "1" + "0" * 400,
                 "material-data: density must be positive and finite, got rho = inf",
                 id="rho-400-digit-integer"),
    ("eps_rf", '"9.5"', "validation: tensor scalar eps_rf is not a number: '9.5'"),
    ("h", '[["1_0", 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]]',
     "validation: tensor h is not a numeric matrix: '1_0' is not a number"),
])
def test_over_long_integer_and_numeric_string_tensor_values_exit_2(outdir, tmp_path, capsys,
                                                                   key, literal, expected):
    # the integer used to end in "arithmetic: OverflowError"; the strings read as numbers
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling"] + write_coupling_inputs(inputs)
    data = json.loads((inputs / "tensors.json").read_text())
    (inputs / "tensors.json").write_text(json.dumps({**data, key: "@"}).replace('"@"', literal))
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {expected}"]
    assert not (outdir / "coupling.json").exists()


@pytest.mark.parametrize("key, value", [("rho", 1e-320), ("eps_rf", 1e308)])
def test_tensor_scalar_with_out_of_range_reciprocal_exits_2(outdir, tmp_path, capsys, key,
                                                              value):
    # rho = 1e-320 used to end in ZeroDivisionError, eps_rf = 1e308 in "identically zero"
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling"] + write_coupling_inputs(inputs)
    data = json.loads((inputs / "tensors.json").read_text())
    (inputs / "tensors.json").write_text(json.dumps({**data, key: value}))
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: material-data: 1/{key} must be finite and not subnormal, got {key} = {value}"]
    assert not (outdir / "coupling.json").exists()


def _coupling_rates(argv, outdir):
    """The piezoelectric and optomechanical rates ``coupling`` writes for ``argv``."""
    assert run(argv) == 0
    data = json.loads((outdir / "coupling.json").read_text())
    piezo = data["piezo_coupling_rad_s"]
    return complex(piezo["re"], piezo["im"]), data["optomech_coupling_rad_s"]


@pytest.mark.parametrize("scalars", [
    # the optomechanical denominator overflowed (the coupling used to read 0.0) ...
    {"rho": 1e307},
    # ... or underflowed (it used to end in ZeroDivisionError)
    {"rho": 1e-300},
    # eta_eff rho overflowed (the piezoelectric coupling used to read 0.0)
    {"rho": 1e300, "eps_rf": 1e-10},
], ids=["optomech-overflow", "optomech-underflow", "piezo-overflow"])
def test_out_of_range_coupling_prefactor_exits_2(outdir, tmp_path, capsys, scalars):
    # each term used to be rejected as out of range (0, inf); split into powers of two no term
    # over- or underflows, and the rates written scale as 1/sqrt(eta_eff rho) and
    # 1/(eta_eff sqrt(rho)), eta_eff = 1/eps_rf, from the pair's rates with only h33 and p33 set
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling"] + write_coupling_inputs(inputs, piezo=True)
    data = json.loads((inputs / "tensors.json").read_text())
    data["p"][2][2] = 0.1
    (inputs / "tensors.json").write_text(json.dumps(data))
    piezo, optomech = _coupling_rates(argv, outdir)
    (inputs / "tensors.json").write_text(json.dumps({**data, **scalars}))
    rho = scalars["rho"] / data["rho"]
    eps_rf = scalars.get("eps_rf", data["eps_rf"]) / data["eps_rf"]
    assert _coupling_rates(argv, outdir) == (
        pytest.approx(piezo * math.sqrt(eps_rf / rho), rel=1e-12),
        pytest.approx(optomech * eps_rf / math.sqrt(rho), rel=1e-12))
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("em, mech", [
    ("1e-300", "1e+300"),  # the piezoelectric coupling used to read 0.0
    ("1e+300", "1e-300"),  # it used to be nan, which failed the JSON writer
], ids=["underflow", "overflow"])
def test_out_of_range_piezo_frequency_ratio_exits_2(outdir, tmp_path, capsys, em, mech):
    # the ratio 1e-600 or 1e600 used to be rejected as out of range (0, inf); split into powers
    # of two, its square root gives the rate, which scales as sqrt(omega_em/omega_mech)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling"] + write_coupling_inputs(inputs, piezo=True)
    data = json.loads((inputs / "tensors.json").read_text())
    del data["p"]  # only the piezoelectric rate depends on the frequency ratio
    (inputs / "tensors.json").write_text(json.dumps(data))
    assert run(argv) == 0
    nominal = json.loads((outdir / "coupling.json").read_text())["piezo_coupling_rad_s"]["im"]
    _rewrite_header(inputs / "e.csv", "frequency", em)
    _rewrite_header(inputs / "w.csv", "frequency", mech)
    assert run(argv) == 0
    rate = json.loads((outdir / "coupling.json").read_text())["piezo_coupling_rad_s"]
    assert rate["re"] == 0.0
    # the pair's omega_em/omega_mech is 1.935e14/3.285e9
    assert rate["im"] == pytest.approx(
        nominal * math.sqrt(float(em)) / math.sqrt(float(mech)) / math.sqrt(1.935e14 / 3.285e9),
        rel=1e-12)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", ["e.csv", "w.csv"])
def test_underflowing_field_intensity_exits_2(outdir, tmp_path, capsys, name):
    # |1e-170|^2 underflowed to 0, and the field was rejected though it is not zero; the
    # rescaled walks give its volumes, and the rates scale as w and as E for the piezoelectric
    # rate, as |E|^2 for the optomechanical one, which at 1e-340 times 0.0073 is no float
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling"] + write_coupling_inputs(inputs, piezo=True)
    data = json.loads((inputs / "tensors.json").read_text())
    data["p"][2][2] = 0.1
    (inputs / "tensors.json").write_text(json.dumps(data))
    piezo, optomech = _coupling_rates(argv, outdir)
    field = coupling.load_mode_field(inputs / name)
    coupling.save_mode_field(inputs / name, field.scaled(1e-170))
    if name == "w.csv":
        assert _coupling_rates(argv, outdir) == (pytest.approx(piezo * 1e-170, rel=1e-12),
                                                pytest.approx(optomech * 1e-170, rel=1e-12))
        assert capsys.readouterr().err == ""
        return
    (outdir / "coupling.json").unlink()
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: validation: optomechanical coupling rate 1.3578 x 2^-1137 is not a finite normal "
        "float; the power-of-two exponents of its parts: tensor p 0, em field -1130, "
        "mech field -14, grid -50, prefactor 53"]
    assert not (outdir / "coupling.json").exists()


def test_underflowing_mechanical_volume_integral_exits_2(outdir, tmp_path, capsys):
    # this used to end in "arithmetic: ZeroDivisionError: float division by zero", then was
    # rejected as an underflowing integral; on rescaled cells both volumes are the box's
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling"] + write_coupling_inputs(inputs)
    grid = coupling.Grid3D((0.0, 0.0, 0.0), (1e100,) * 3, (5, 5, 5))
    # an x-polarized EM field on the same grid, small enough that its volume stays finite
    e_comps = np.zeros((3, 5, 5, 5))
    e_comps[0] = 1e-75
    coupling.save_mode_field(inputs / "e.csv", coupling.ModeField(
        grid, e_comps, coupling.EM, TWO_PI * 1.935e14))
    coupling.save_mode_field(inputs / "w.csv", coupling.ModeField(
        grid, np.ones((3, 5, 5, 5)), coupling.MECH, TWO_PI * 3.285e9))
    assert run(argv) == 0
    data = json.loads((outdir / "coupling.json").read_text())
    assert data["em_mode_volume_m3"] == pytest.approx(4e100**3, rel=1e-14)
    assert data["mech_mode_volume_m3"] == pytest.approx(4e100**3, rel=1e-14)
    # a flat w has no strain
    assert data["optomech_coupling_rad_s"] == 0 and data["piezo_coupling_rad_s"]["abs"] == 0


@pytest.mark.parametrize("name, factor, kind", [("w.csv", 1e200, "mech"), ("e.csv", 1e100, "em")])
def test_overflowing_field_intensity_exits_2(outdir, tmp_path, capsys, name, factor, kind):
    # these used to end in "arithmetic: FloatingPointError: overflow encountered in square"
    # and "arithmetic: OverflowError: (34, 'Numerical result out of range')", then were
    # rejected by kind; rescaled, the amplitude limits no field: the volumes stay and the
    # rates scale as the field, and as |E|^2 for the optomechanical one
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling"] + write_coupling_inputs(inputs, piezo=True)
    data = json.loads((inputs / "tensors.json").read_text())
    data["p"][2][2] = 0.1
    (inputs / "tensors.json").write_text(json.dumps(data))
    piezo, optomech = _coupling_rates(argv, outdir)
    volumes = json.loads((outdir / "coupling.json").read_text())
    field = coupling.load_mode_field(inputs / name)
    coupling.save_mode_field(inputs / name, field.scaled(factor))
    optomech_factor = factor**2 if kind == "em" else factor
    assert _coupling_rates(argv, outdir) == (pytest.approx(piezo * factor, rel=1e-12),
                                            pytest.approx(optomech * optomech_factor, rel=1e-12))
    scaled = json.loads((outdir / "coupling.json").read_text())
    for key in ("em_mode_volume_m3", "mech_mode_volume_m3"):
        assert scaled[key] == pytest.approx(volumes[key], rel=1e-12)
    assert capsys.readouterr().err == ""


def test_materials_name_with_comma_is_quoted(outdir, tmp_path):
    text = resources.files("pomtrans.data").joinpath("materials.csv").read_text("utf-8")
    text = text.replace("\nAlN,", '\n"AlN, wurtzite",', 1)
    path = tmp_path / "materials.csv"
    path.write_text(text)
    assert run(["materials", "--which", "em", "--materials-file", str(path), "--out", "m"]) == 0
    with open(outdir / "m.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert {len(row) for row in rows} == {7}
    assert rows[1][1] == "AlN, wurtzite"


def test_materials_name_outside_ascii_is_written_as_its_utf8_bytes(outdir, tmp_path):
    name = "AlN (wurtzite ε∞; 窒化アルミニウム)"
    text = resources.files("pomtrans.data").joinpath("materials.csv").read_text("utf-8")
    path = tmp_path / "materials.csv"
    path.write_bytes(text.replace("\nAlN,", f"\n{name},", 1).encode("utf-8"))
    assert run(["materials", "--which", "em", "--materials-file", str(path), "--out", "m"]) == 0
    assert (outdir / "m.csv").read_bytes().split(b"\n")[1].split(b",")[1] == name.encode("utf-8")


@pytest.mark.parametrize("command", ["spectrum", "optimize", "contour", "efficiency-curve", "rings",
                                     "materials", "coupling"])
def test_every_artifact_chunk_is_bytes(outdir, tmp_path, monkeypatch, command):
    # the text of an artifact is encoded where it is rendered, and no chunk is a str
    flags = {"spectrum": ["--grid-points", "4001"], "contour": ["--grid-points", "11"],
             "rings": ["--grid-points", "301"]}.get(command, [])
    if command == "coupling":
        (tmp_path / "inputs").mkdir()
        flags = write_coupling_inputs(tmp_path / "inputs", piezo=True)
    chunks, write_all = {}, cli._write_all

    def record(path, drawn):
        for chunk in drawn:
            chunks[path].append(chunk)
            yield chunk

    def spy(files):
        chunks.update({path: [] for path in files})
        write_all({path: record(path, drawn) for path, drawn in files.items()})

    monkeypatch.setattr(cli, "_write_all", spy)
    assert run([command, *flags, "--out", "a"]) == 0
    assert chunks and all(chunks.values())
    for path, drawn in chunks.items():
        assert not any(isinstance(chunk, str) for chunk in drawn)
        assert (outdir / path).read_bytes() == b"".join(drawn)


# --- exit contract: one error line, all artifacts or none ----------------------------------


def _names(directory):
    return sorted(p.name for p in directory.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["optimize", "--grid-points", "5"], "unrecognized arguments: --grid-points 5"),
    (["efficiency-curve", "--pump-offset-hz", "-inf"],
     "argument --pump-offset-hz: expected one argument"),
    (["contour", "--grid-points", "x"], "argument --grid-points: invalid int value: 'x'"),
    ([], "the following arguments are required: command"),
])
def test_argparse_error_prints_one_line(outdir, capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: validation: {message}"]
    assert captured.out == ""
    assert _names(outdir) == []


def test_help_still_exits_0(outdir, capsys):
    assert run(["optimize", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: pomtrans optimize")
    assert captured.err == ""


def test_failed_rename_removes_artifacts_already_placed(outdir, capsys):
    (outdir / "o" / "x.json").mkdir(parents=True)
    assert run(["contour", "--grid-points", "5", "--out", "o/x"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: io:")
    assert _names(outdir / "o") == ["x.json"]
    assert _names(outdir / "o" / "x.json") == []


def test_failed_temp_write_removes_every_temp_file(outdir, monkeypatch, capsys):
    real_fdopen = os.fdopen
    opened = []

    def full_disk_on_second(fd, *args, **kwargs):
        opened.append(fd)
        if len(opened) == 2:
            os.close(fd)
            raise OSError(28, "No space left on device")
        return real_fdopen(fd, *args, **kwargs)

    monkeypatch.setattr(os, "fdopen", full_disk_on_second)
    assert run(["rings", "--grid-points", "101"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: io: [Errno 28] No space left on device"]
    assert _names(outdir) == []


@pytest.mark.parametrize("exc, line", [
    (MemoryError(), "error: memory: MemoryError"),
    (FloatingPointError("overflow encountered in multiply"),
     "error: arithmetic: FloatingPointError: overflow encountered in multiply"),
])
def test_failure_while_streaming_a_table_leaves_no_file(outdir, monkeypatch, capsys, exc, line):
    # the first block is already in the temp file when the second fails
    fast, blocks = sweep._e11_block, []

    def fail_after_first(block):
        blocks.append(len(block))
        if len(blocks) > 1:
            raise exc
        return fast(block)

    monkeypatch.setattr(sweep, "_e11_block", fail_after_first)
    assert run(["spectrum", "--grid-points", str(3 * sweep.CSV_BLOCK_ROWS)]) == 2
    assert capsys.readouterr().err.splitlines() == [line]
    assert len(blocks) == 2
    assert _names(outdir) == []


def test_shuffled_mode_field_rows_exit_2(outdir, tmp_path, capsys):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling"] + write_coupling_inputs(inputs)
    lines = (inputs / "w.csv").read_text().splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    (inputs / "w.csv").write_text("\n".join(lines) + "\n")
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: validation: mode field {inputs / 'w.csv'}: data row 1 at (0.0, 0.0, 2.5e-08) "
        "is off its header grid point (0.0, 0.0, 0.0)"]
    assert _names(outdir) == ["inputs"]
    assert _names(inputs) == ["e.csv", "tensors.json", "w.csv"]


def _cut_to_five_cells(cells):
    return cells[:5]


def _abc_in_cell_4(cells):
    return cells[:3] + ["abc"] + cells[4:]


@pytest.mark.parametrize("edit, what", [
    (_cut_to_five_cells, "has 5 cells, expected 9"),
    (_abc_in_cell_4, "cell 4 is not a number: 'abc'"),
])
def test_malformed_mode_field_row_names_file_and_row(outdir, tmp_path, capsys, edit, what):
    # numpy's own messages used to pass through, numbering this row 3 and 2 respectively
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling"] + write_coupling_inputs(inputs)
    lines = (inputs / "w.csv").read_text().splitlines()
    lines[4] = ",".join(edit(lines[4].split(",")))  # data row 3
    (inputs / "w.csv").write_text("\n".join(lines) + "\n")
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: validation: mode field {inputs / 'w.csv'}: data row 3 {what}"]
    assert _names(outdir) == ["inputs"]


@pytest.mark.parametrize("block_rows", [1, 2 * 5 * 41, 10**6])
def test_coupling_json_is_the_same_in_any_block_size(outdir, tmp_path, monkeypatch, block_rows):
    # the field files are read, and the overlaps integrated, block by block
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling", "--component", "3", "3", "3"] + write_coupling_inputs(inputs)
    assert run(argv + ["--out", "whole"]) == 0
    monkeypatch.setattr(coupling, "CSV_BLOCK_ROWS", block_rows)
    assert run(argv + ["--out", "blocked"]) == 0
    assert (outdir / "blocked.json").read_bytes() == (outdir / "whole.json").read_bytes()


def test_coupling_json_is_the_same_at_any_blas_thread_count(tmp_path):
    # the rates contract their tensors without BLAS, whose sums depend on its thread count
    rng = np.random.default_rng(13)
    grid = coupling.Grid3D((0.0, 0.0, 0.0), (1.1e-7, 0.9e-7, 1.3e-7), (24, 24, 24))
    for name, kind in (("e", coupling.EM), ("w", coupling.MECH)):
        comps = rng.normal(size=(3, *grid.shape)) + 1j * rng.normal(size=(3, *grid.shape))
        coupling.save_mode_field(tmp_path / f"{name}.csv",
                                 coupling.ModeField(grid, comps, kind, TWO_PI * 3e9))
    (tmp_path / "tensors.json").write_text(json.dumps({
        "rho": 3255.0, "eps_rf": 9.5, "eps_ir": 3.67,
        "h": rng.uniform(-1, 1, (3, 6)).tolist(), "p": rng.uniform(-0.3, 0.3, (6, 6)).tolist()}))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if not k.endswith("THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outputs = []
    for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        out = tmp_path / f"out{len(outputs)}"
        subprocess.run([sys.executable, "-m", "pomtrans.cli", "coupling",
                        "--em-field", "e.csv", "--mech-field", "w.csv", "--tensors", "tensors.json",
                        "--out", str(out)], cwd=tmp_path, env={**env, **threads}, check=True,
                       capture_output=True, timeout=300)
        outputs.append(out.with_suffix(".json").read_bytes())
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["optomech_coupling_rad_s"] > 0


def test_mode_field_too_short_for_its_header_grid_exits_2_without_its_array(outdir, tmp_path,
                                                                             capsys):
    # a 4000^3 grid would need 3 TB of components; two rows cannot fill it
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling"] + write_coupling_inputs(inputs)
    _rewrite_header(inputs / "e.csv", "counts", "4000,4000,4000")
    lines = (inputs / "e.csv").read_text().split("\n")
    (inputs / "e.csv").write_text("\n".join(lines[:4]) + "\n")
    tracemalloc.start()
    try:
        assert run(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert capsys.readouterr().err.splitlines() == [
        f"error: validation: mode field {inputs / 'e.csv'}: "
        "mode field file has shape (2, 9), expected (64000000000, 9)"]
    assert not (outdir / "coupling.json").exists()


def test_coupling_integrates_each_mode_volume_once(outdir, tmp_path, monkeypatch):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling", "--component", "3", "3", "3"] + write_coupling_inputs(inputs)
    calls = []
    for name in ("em_mode_volume", "mech_mode_volume"):
        def counting(*args, _real=getattr(coupling, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(coupling, name, counting)
    assert run(argv) == 0
    assert sorted(calls) == ["em_mode_volume", "mech_mode_volume"]
    monkeypatch.undo()
    payload = json.loads((outdir / "coupling.json").read_text())
    mat = coupling.load_tensor_set(inputs / "tensors.json")
    assert payload["em_mode_volume_m3"] == coupling.em_mode_volume(
        coupling.load_mode_field(inputs / "e.csv"), mat.eta_eff)
    assert payload["mech_mode_volume_m3"] == coupling.mech_mode_volume(
        coupling.load_mode_field(inputs / "w.csv"))


def test_coupling_scans_each_field_and_walks_each_volume_once(outdir, tmp_path, monkeypatch):
    # each walk used to scan both fields for their power of two again, 7 scans in all
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling"] + write_coupling_inputs(inputs, piezo=True)
    scans, walks = [], []
    exponent, intensity_integral = coupling._exponent, coupling._intensity_integral

    def scanning(values):
        if np.ndim(values) == 4:  # a field's components, not a spacing, eta_eff or a tensor
            scans.append(values.shape)
        return exponent(values)

    def walking(f, *args):
        walks.append(f.kind)
        return intensity_integral(f, *args)

    monkeypatch.setattr(coupling, "_exponent", scanning)
    monkeypatch.setattr(coupling, "_intensity_integral", walking)
    assert run(argv) == 0
    assert len(scans) == 2
    # the mechanical volume takes the total intensity, then the square of the normalized one
    assert sorted(walks) == [coupling.EM, coupling.MECH, coupling.MECH]


@pytest.fixture()
def subnormal_kappa_1(tmp_path):
    """A parameter file whose kappa_1 is positive but subnormal, so the closed forms overflow."""
    text = resources.files("pomtrans.data").joinpath("nominal_params.json").read_text("utf-8")
    path = tmp_path / "inputs" / "subnormal.json"
    path.parent.mkdir()
    path.write_text(json.dumps({**json.loads(text), "kappa_1_hz": 1e-320}))
    return path


@pytest.mark.parametrize("argv, prefix", [
    (["spectrum", "--grid-points", "2001"], "error: arithmetic: FloatingPointError: "),
    (["efficiency-curve"], "error: arithmetic: FloatingPointError: "),
    (["contour"], "error: arithmetic: FloatingPointError: "),
    (["optimize"], "error: model-violation: maximum efficiency is not finite"),
], ids=["spectrum", "efficiency-curve", "contour", "optimize"])
def test_subnormal_linewidth_exits_2_with_one_line(outdir, subnormal_kappa_1, capsys, argv,
                                                    prefix):
    assert run(argv + ["--params", str(subnormal_kappa_1)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)
    assert [p.name for p in outdir.iterdir()] == ["inputs"]
    assert [p.name for p in (outdir / "inputs").iterdir()] == ["subnormal.json"]


def test_failing_rerun_keeps_the_previous_artifacts(outdir, capsys):
    argv = ["contour", "--grid-points", "5", "--out", "x"]
    assert run(argv) == 0
    csv_bytes = (outdir / "x.csv").read_bytes()
    (outdir / "x.json").unlink()
    (outdir / "x.json").mkdir()
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: io: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: 'x.json'"]
    assert (outdir / "x.csv").read_bytes() == csv_bytes
    assert sorted(p.name for p in outdir.iterdir()) == ["x.csv", "x.json"]


@pytest.mark.parametrize("argv, names", [
    (["optimize"], ["o.json"]),
    (["spectrum", "--grid-points", "2001"], ["o.csv", "o.json"]),
], ids=["optimize", "spectrum"])
def test_artifacts_get_open_mode_with_the_umask_left_alone(outdir, monkeypatch, argv, names):
    # the kernel applies the umask to the 0o666 temp files; nothing reads or sets it
    def no_umask(mask):
        raise AssertionError("the process umask was read or set")

    real_umask = os.umask
    old = real_umask(0o022)
    try:
        monkeypatch.setattr(os, "umask", no_umask)
        assert run([*argv, "--out", "o"]) == 0
    finally:
        real_umask(old)
    assert {n: (outdir / n).stat().st_mode & 0o777 for n in _names(outdir)} == dict.fromkeys(
        names, 0o644)


def test_file_at_the_temp_path_is_left_alone(outdir, monkeypatch, capsys):
    monkeypatch.setattr(os, "urandom", lambda n: bytes(range(n)))
    tmp = outdir / ".pomtrans-0001020304050607.tmp"
    tmp.write_bytes(b"not a pomtrans artifact\n")
    assert run(["optimize", "--out", "o"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: io: [Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: '{tmp}'"]
    assert tmp.read_bytes() == b"not a pomtrans artifact\n"
    assert _names(outdir) == [tmp.name]


def test_coupling_fields_on_different_grids_exit_2(outdir, tmp_path, capsys):
    # without h or p no rate compares the grids, so the command itself must
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling"] + write_coupling_inputs(inputs)
    grid = coupling.Grid3D((0, 0, 0), (1e-7, 1e-7, 0.25e-7), (5, 5, 5))
    w_comps = np.zeros((3, *grid.shape), dtype=complex)
    w_comps[2] = 1e-4
    coupling.save_mode_field(inputs / "w.csv",
                             coupling.ModeField(grid, w_comps, coupling.MECH, TWO_PI * 3.285e9))
    (inputs / "tensors.json").write_text(json.dumps({"rho": 3255.0, "eps_rf": 9.5, "eps_ir": 3.67}))
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: grid: EM and mechanical fields live on different grids"]
    assert _names(outdir) == ["inputs"]


def test_only_the_cli_names_columns_and_converts_to_hz():
    # the physics modules return rad/s arrays; cli.py builds every table it writes
    assert not hasattr(analysis, "SweepResult")
    assert not hasattr(analysis, "TWO_PI")
    assert not hasattr(rings, "SweepResult")
    assert [f.name for f in dataclasses.fields(SweepResult)] == ["columns"]


@pytest.mark.parametrize("command", ["optimize", "spectrum", "efficiency-curve", "contour"])
@pytest.mark.parametrize("key", ["Gamma_0_hz", "Gamma_hz", "g_em_hz", "J_hz", "kappa_1_hz",
                                 "kappa_02_hz", "kappa_ex2_hz", "g_om_hz"])
def test_rate_whose_square_overflows_named(outdir, tmp_path, capsys, command, key):
    # each used to end in an unnamed "arithmetic: OverflowError" under some subcommand
    params = {k: v for k, v in _nominal_payload().items() if k not in ("gamma_ex_hz", "gamma_m_hz")}
    path = tmp_path / "inputs" / "huge.json"
    path.parent.mkdir()
    path.write_text(json.dumps({**params, key: 1e200}))
    assert run([command, "--params", str(path), "--out", "x"]) == 2
    # the file's key, number and unit, not the record's rad/s field
    assert capsys.readouterr().err.splitlines() == [
        f"error: validation: {key} must be <= {dynamics._SQUARED_RATE_MAX / TWO_PI:.4g} Hz "
        "so that its square stays finite, got 1e+200"]
    assert [p.name for p in outdir.iterdir()] == ["inputs"]


@pytest.mark.parametrize("key, message", [
    ("g_om_hz", "g_om_hz must be <= 5.335e+152 Hz so that its square stays finite, "
                "got 1.7e+308"),
    ("delta_1_hz", "delta_1_hz must have magnitude <= 2.861e+307 Hz so that its rad/s value "
                   "stays finite, got 1.7e+308"),
    ("gamma_0_hz", "gamma_0_hz must have magnitude <= 2.861e+307 Hz so that its rad/s value "
                   "stays finite, got 1.7e+308"),
])
def test_finite_hz_value_whose_rad_s_value_overflows_named(outdir, tmp_path, capsys, key,
                                                           message):
    # each used to read "<field> must be finite, got inf", naming neither key nor number
    path = tmp_path / "inputs" / "huge.json"
    path.parent.mkdir()
    path.write_text(json.dumps({**_nominal_payload(), key: 1.7e308}))
    assert run(["optimize", "--params", str(path), "--out", "x"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: validation: {message}"]
    assert [p.name for p in outdir.iterdir()] == ["inputs"]


@pytest.mark.parametrize("change, message", [
    ({"gamma_ex_hz": 1e9}, "gamma_ex_hz must not exceed the total mechanical linewidth "
                           "gamma_m = {gamma_m_hz:.6g} Hz, got 1000000000.0"),
    ({"gamma_m_hz": 1e9}, "gamma_m_hz must agree within 2% with the derived value "
                          "gamma_0 + 4 g_em^2 / Gamma = {gamma_m_hz:.6g} Hz, got 1000000000.0"),
    ({"gamma_m_hz": 0.0}, "gamma_m_hz must agree within 2% with the derived value "
                          "gamma_0 + 4 g_em^2 / Gamma = {gamma_m_hz:.6g} Hz, got 0.0"),
    ({"kappa_1_hz": -2.5}, "kappa_1_hz must be >= 0, got -2.5"),
    ({"omega_m_hz": -2.5}, "omega_m_hz must be > 0, got -2.5"),
    # a number that reads the same in Hz keeps the record's field name
    ({"kappa_1_hz": 0.0}, "kappa_1 must be > 0 where it divides, got 0.0"),
], ids=["gamma_ex", "gamma_m", "zero-gamma_m", "negative-kappa_1", "negative-omega_m",
        "zero-kappa_1"])
def test_range_error_quotes_the_file_key_and_number_in_hz(outdir, tmp_path, capsys,
                                                         nominal_params, change, message):
    path = tmp_path / "inputs" / "bad.json"
    path.parent.mkdir()
    path.write_text(json.dumps({**_nominal_payload(), **change}))
    assert run(["optimize", "--params", str(path), "--out", "x"]) == 2
    gamma_m_hz = dynamics.derived_rates(nominal_params).gamma_m / TWO_PI
    assert capsys.readouterr().err.splitlines() == [
        "error: validation: " + message.format(gamma_m_hz=gamma_m_hz)]
    assert [p.name for p in outdir.iterdir()] == ["inputs"]


@pytest.mark.parametrize("omega_m_hz", [3e24, 1e23])  # the window collapses / holds ~30 values
def test_collapsed_default_spectrum_window_names_omega_m(outdir, tmp_path, capsys, omega_m_hz):
    path = tmp_path / "inputs" / "far.json"
    path.parent.mkdir()
    path.write_text(json.dumps({**_nominal_payload(), "omega_m_hz": omega_m_hz,
                                "delta_1_hz": omega_m_hz, "delta_2_hz": omega_m_hz}))
    assert run(["spectrum", "--params", str(path), "--grid-points", "2001", "--out", "x"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: validation: spectrum grid: the default window omega_m_hz +- 2.5e8 Hz holds too "
        f"few distinct frequencies at omega_m_hz={omega_m_hz:g}; pass --grid-start/--grid-stop"]
    assert [p.name for p in outdir.iterdir()] == ["inputs"]


@pytest.mark.parametrize("command, what", [("spectrum", "spectrum grid"), ("rings", "frequency grid")])
def test_collapsed_explicit_window_names_its_flags(outdir, capsys, command, what):
    # 100 000 points in 1 kHz at 1e15 Hz: the rad/s doubles there are 1 apart, so few are distinct
    assert run([command, "--grid-start", "1e15", "--grid-stop", "1.000000000001e15",
                "--grid-points", "100000", "--out", "x"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: validation: {what}: --grid-start/--grid-stop/--grid-points "
        "1000000000000000.0/1000000000001000.0/100000 hold too few distinct frequencies; "
        "widen the window or pass fewer points"]
    assert list(outdir.iterdir()) == []


_COLLAPSED_G = "1000000000.0/1000000000.0001/50 hold too few distinct frequencies"


@pytest.mark.parametrize("argv, line", [
    # each used to exit 0 with one distinct value in its axis column
    (["contour", "--grid-start", "1e9", "--grid-stop", "1.0000000000001e9", "--grid-points", "50"],
     f"g_em axis: --grid-start/--grid-stop/--grid-points {_COLLAPSED_G}"),
    (["contour", "--grid-start", "1e9", "1e7", "--grid-stop", "1.0000000000001e9", "1e10",
      "--grid-points", "50", "41"],
     f"g_em axis: --grid-start/--grid-stop/--grid-points {_COLLAPSED_G}"),
    (["contour", "--grid-start", "1e7", "1e9", "--grid-stop", "1e10", "1.0000000000001e9",
      "--grid-points", "41", "50"],
     f"kappa_ex2 axis: --grid-start/--grid-stop/--grid-points {_COLLAPSED_G}"),
    (["efficiency-curve", "--grid-start", "1e-3", "--grid-stop", "1.0000000000000002e-3",
      "--grid-points", "50"],
     "power grid: --grid-start/--grid-stop/--grid-points 0.001/0.0010000000000000002/50 hold "
     "too few distinct values"),
], ids=["contour-both", "contour-g_em", "contour-kappa_ex2", "efficiency-curve"])
def test_collapsed_log_axis_names_its_flags(outdir, capsys, argv, line):
    assert run(argv + ["--out", "x"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: validation: {line}; widen the window or pass fewer points"]
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("command, points, line", [
    ("spectrum", "2", "spectrum grid: --grid-points must be at least 3, got 2"),
    ("spectrum", "1", "spectrum grid: --grid-points must be at least 3, got 1"),
    ("rings", "1", "frequency grid: --grid-points must be at least 2, got 1"),
    ("contour", "1", "g_em axis: --grid-points must be at least 2, got 1"),
    ("efficiency-curve", "1", "power grid: --grid-points must be at least 2, got 1"),
])
def test_too_few_grid_points_name_the_flag(outdir, capsys, command, points, line):
    assert run([command, "--grid-points", points, "--out", "x"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: validation: " + line]
    assert list(outdir.iterdir()) == []


def test_contour_axis_whose_square_overflows_names_g_em(outdir, capsys):
    # used to end in "arithmetic: FloatingPointError: overflow encountered in square"
    assert run(["contour", "--grid-stop", "1e300", "--grid-points", "3", "--out", "x"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: validation: g_em must be <= ")
    assert list(outdir.iterdir()) == []


def test_overflowing_photon_flux_names_power(outdir, capsys):
    # used to end in "arithmetic: FloatingPointError: overflow encountered in divide"
    assert run(["efficiency-curve", "--grid-stop", "1e308", "--grid-points", "11",
                "--out", "x"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: validation: power must give a finite photon flux, got 1e+308"]
    assert list(outdir.iterdir()) == []


def test_piezo_component_scales_as_the_magnitude_of_its_element(outdir, tmp_path, capsys):
    # on a pair whose h33 overlap is nonzero; a huge or tiny element is a finite rate,
    # as it is in piezo_coupling_total, not a range error
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = (["coupling"] + write_coupling_inputs(inputs, piezo=True)
            + ["--component", "3", "3", "3", "--out", "g"])
    data = json.loads((inputs / "tensors.json").read_text())
    rates = {}
    for h33 in (data["h"][2][2], 1e200, -1e200, 1e-200):
        data["h"][2][2] = h33
        (inputs / "tensors.json").write_text(json.dumps(data))
        assert run(argv) == 0
        component = json.loads((outdir / "g.json").read_text())["piezo_coupling_component"]
        rates[h33] = complex(component["re"], component["im"])
    base_h33, base = next(iter(rates.items()))
    assert base != 0
    for h33, rate in rates.items():
        assert abs(rate / abs(h33) - base / base_h33) <= 1e-12 * abs(base / base_h33)


@pytest.mark.parametrize("tensor, row, col, message", [
    ("h", 2, 2, "piezoelectric coupling rate 1.66325 x 2^1051 is not a finite normal float; the "
                "power-of-two exponents of its parts: tensor h 511, em field 9, mech field -4, "
                "grid -50, prefactor 67"),
    ("p", 2, 2, "optomechanical coupling rate 1.20577 x 2^1049 is not a finite normal float; the "
                "power-of-two exponents of its parts: tensor p 511, em field 18, mech field -4, "
                "grid -50, prefactor 53"),
], ids=["h", "p"])
def test_tensor_element_whose_rate_overflows_exits_2(outdir, tmp_path, capsys,
                                                     tensor, row, col, message):
    # each used to exit with "error: arithmetic: ... invalid value encountered in multiply",
    # and then with "error: material-data:" naming the largest element; the one message
    # names no part
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling"] + write_coupling_inputs(inputs, piezo=True) + ["--out", "g"]
    # both fields scaled by 1e3: without that, the optomechanical rate at p_3333 = 1e308 is a
    # finite 7.3e306
    for name, field in zip(("e.csv", "w.csv"), coupling_input_fields(piezo=True)):
        coupling.save_mode_field(inputs / name, field.scaled(1e3))
    data = json.loads((inputs / "tensors.json").read_text())
    data[tensor][row][col] = 1e308
    (inputs / "tensors.json").write_text(json.dumps(data))
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: validation: {message}"]
    assert not (outdir / "g.json").exists()


def test_tensor_element_whose_contraction_is_finite_but_rate_overflows_exits_2(outdir, tmp_path,
                                                                               capsys):
    # the contraction at h_333 = 5e305 is finite, and only its product with the prefactor,
    # 2.5e19 on this pair, overflows; it used to fail in the JSON writer on an inf, and then
    # named the element
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = ["coupling"] + write_coupling_inputs(inputs, piezo=True) + ["--out", "g"]
    data = json.loads((inputs / "tensors.json").read_text())
    data["h"][2][2] = 5e305
    (inputs / "tensors.json").write_text(json.dumps(data))
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: validation: piezoelectric coupling rate 1.11619 x 2^1024 is not a finite normal "
        "float; the power-of-two exponents of its parts: tensor h 503, em field 0, "
        "mech field -14, grid -50, prefactor 67"]
    assert not (outdir / "g.json").exists()


def test_finite_rate_whose_magnitude_overflows_exits_2(outdir, tmp_path, capsys):
    # the rate at this h_111 is a finite -1.48e308 - 1.79e308j, and the JSON writer's abs of it
    # used to end in "arithmetic: OverflowError: absolute value too large"; the rate is decided
    # on its magnitude, once, by the one message
    rng = np.random.default_rng(12)
    grid = coupling.Grid3D((0.0, 0.0, 0.0), (1.1e-7, 0.9e-7, 1.3e-7), (7, 6, 5))
    for name, kind, frequency, scale in (("e.csv", coupling.EM, 2e14, 1.0),
                                         ("w.csv", coupling.MECH, 3e9, 1e-4)):
        comps = scale * (rng.normal(size=(3, 7, 6, 5)) + 1j * rng.normal(size=(3, 7, 6, 5)))
        coupling.save_mode_field(tmp_path / name, coupling.ModeField(grid, comps, kind,
                                                                     TWO_PI * frequency))
    h = np.zeros((3, 6))
    h[0, 0] = 3.3945229621735804e+305  # 0.999 x 1.79e308 / |Im g| at h_111 = 1
    (tmp_path / "t.json").write_text(json.dumps(
        {"rho": 3000.0, "eps_rf": 9.0, "eps_ir": 4.0, "h": h.tolist()}))
    assert run(["coupling", "--em-field", str(tmp_path / "e.csv"), "--mech-field",
                str(tmp_path / "w.csv"), "--tensors", str(tmp_path / "t.json")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: validation: piezoelectric coupling rate 1.28969 x 2^1024 is not a finite normal "
        "float; the power-of-two exponents of its parts: tensor h 502, em field 1, "
        "mech field -12, grid -48, prefactor 66"]
    assert not (outdir / "coupling.json").exists()


@pytest.mark.parametrize("command, flag", [("efficiency-curve", "--pump-offset-hz"),
                                           ("rings", "--ring-j-hz")])
@pytest.mark.parametrize("hz", ["1e308", "-1e308"])
def test_hz_flag_whose_rad_s_value_overflows_named(outdir, capsys, command, flag, hz):
    # used to blame a value the user never set: "intra_ring_photons must be >= 0, got nan"
    # for --pump-offset-hz, "inter-ring coupling J must be finite, got inf" for --ring-j-hz
    assert run([command, flag, hz, "--out", "x"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: validation: {flag} must have magnitude <= 2.861e+307 Hz so that its rad/s "
        f"value stays finite, got {float(hz)}"]
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("argv, flag, hz", [
    (["spectrum", "--grid-start", "1e307", "--grid-stop", "1e308"], "--grid-stop", 1e308),
    (["spectrum", "--grid-start", "-1e308", "--grid-stop", "1e307"], "--grid-start", -1e308),
    (["contour", "--grid-start", "1e307", "--grid-stop", "1e308"], "--grid-stop", 1e308),
    (["contour", "--grid-start", "1e7", "1e307", "--grid-stop", "1e10", "1e308"],
     "--grid-stop", 1e308),
    (["rings", "--round-trip-time", "1e-305", "--grid-stop", "1e308"], "--grid-stop", 1e308),
], ids=["spectrum-stop", "spectrum-start", "contour", "contour-second-axis", "rings"])
def test_grid_end_whose_rad_s_value_overflows_named(outdir, capsys, argv, flag, hz):
    # used to exit with "error: arithmetic: FloatingPointError: overflow encountered in multiply"
    assert run([*argv, "--grid-points", "10001", "--out", "x"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: validation: {flag} must have magnitude <= 2.861e+307 Hz so that its rad/s "
        f"value stays finite, got {hz}"]
    assert list(outdir.iterdir()) == []


def test_pump_offset_just_below_the_rad_s_bound_writes(outdir, capsys):
    assert run(["efficiency-curve", "--pump-offset-hz", "2.8e307", "--out", "x"]) == 0
    assert sorted(p.name for p in outdir.iterdir()) == ["x.csv", "x.json"]
    payload = json.loads((outdir / "x.json").read_text())
    assert payload["metadata"]["pump_offset_hz"] == 2.8e307
