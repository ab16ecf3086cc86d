"""Command-line front end.

Subcommands bind parameter files and presets to the sweep and optimization
engines and emit CSV/JSON artifacts.  All user-facing frequencies are plain
Hz; conversion to angular rad/s happens at this boundary only.  Output files
are written atomically (write-then-rename) and deterministically: byte
identical for identical configurations.

Exit codes: 0 success, 2 validation error, 3 numerical singularity.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from importlib import resources

import numpy as np

from . import analysis, coupling, dynamics, materials, rings
from .errors import (
    GridError,
    MaterialDataError,
    ModelViolationError,
    ParameterError,
    PomtransError,
    SingularityError,
    UndefinedOptimumError,
)
from .sweep import SweepResult, format_float

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SINGULARITY = 3

TWO_PI = 2 * math.pi


class _CliError(Exception):
    def __init__(self, code: int, kind: str, message: str):
        super().__init__(message)
        self.code = code
        self.kind = kind


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pomtrans-", suffix=".tmp")
    try:
        # mkstemp creates the file 0600; publish it with the mode open() would give
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _load_params(args) -> dynamics.TransducerParams:
    if getattr(args, "params", None):
        p = dynamics.load_params(args.params)
    else:
        text = resources.files("pomtrans.data").joinpath("nominal_params.json").read_text("utf-8")
        p = dynamics.params_from_dict(json.loads(text))
    preset = getattr(args, "preset", None)
    if preset:
        p = analysis.apply_preset(p, preset)
    return p


def _resolved_params_payload(p: dynamics.TransducerParams) -> dict:
    r = dynamics.derived_rates(p)
    discrepancy = r.gamma_ex_discrepancy
    payload = dynamics.params_to_dict(p)
    payload.update({
        "derived_gamma_m_hz": r.gamma_m / TWO_PI,
        "derived_kappa_2_hz": r.kappa_2 / TWO_PI,
        "effective_gamma_ex_hz": r.gamma_ex / TWO_PI,
        "derived_gamma_ex_hz": r.gamma_ex_derived / TWO_PI,
        # infinite when gamma_ex is supplied but not derivable (g_em = 0)
        "gamma_ex_rel_discrepancy": discrepancy if math.isfinite(discrepancy) else None,
    })
    return payload


def _out_base(args, default: str) -> str:
    return args.out if args.out else default


def _grid(args, default_start, default_stop, default_points, what="grid"):
    start = args.grid_start[0] if args.grid_start else default_start
    stop = args.grid_stop[0] if args.grid_stop else default_stop
    points = int(args.grid_points[0]) if args.grid_points else default_points
    if not (stop > start):
        raise _CliError(EXIT_VALIDATION, "validation", f"{what}: stop must exceed start")
    if points < 2:
        raise _CliError(EXIT_VALIDATION, "validation", f"{what}: need at least 2 points")
    return start, stop, points


# --- subcommand implementations ----------------------------------------------


def _cmd_spectrum(args) -> int:
    p = _load_params(args)
    f_m = p.omega_m / TWO_PI
    start, stop, points = _grid(args, f_m - 2.5e8, f_m + 2.5e8, 500_001, "spectrum grid")
    grid = TWO_PI * np.linspace(start, stop, points)
    spec = analysis.efficiency_spectrum(p, grid)

    base = _out_base(args, "spectrum")
    table = SweepResult(columns={
        "frequency_hz": spec.frequencies / TWO_PI,
        "efficiency": spec.efficiencies,
    })
    _atomic_write(base + ".csv", table.to_csv())
    sidecar = {
        "peak_shift_mhz": spec.peak_shift / TWO_PI / 1e6,
        "fwhm_mhz": spec.fwhm / TWO_PI / 1e6,
        "broad_peak": spec.broad_peak_flag,
        "peak_efficiency": spec.peak_efficiency,
        "intra_ring_photons": spec.intra_ring_photons,
        "preset": args.preset or "nominal",
        "resolved_params": _resolved_params_payload(p),
    }
    _atomic_write(base + ".json", _dump_json(sidecar))
    print(f"wrote {base}.csv and {base}.json")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    p = _load_params(args)
    n_crit = analysis.critical_photon_number(p)
    op = analysis.OperatingPoint(p, n_crit)
    coops = analysis.cooperativities(op)
    p_derived = dynamics.with_derived_gamma_ex(p)
    payload = {
        "critical_photon_number": n_crit,
        "max_efficiency": analysis.max_efficiency(p),
        "max_efficiency_derived_gamma_ex": analysis.max_efficiency(p_derived),
        "cooperativities": {
            "c_om": coops.c_om.real,
            "c_12": coops.c_12.real,
            "f_2": coops.f_2.real,
            "f_m": coops.f_m.real,
        },
        "preset": args.preset or "nominal",
        "resolved_params": _resolved_params_payload(p),
    }
    base = _out_base(args, "optimize")
    _atomic_write(base + ".json", _dump_json(payload))
    print(f"wrote {base}.json")
    return EXIT_OK


def _cmd_contour(args) -> int:
    p = _load_params(args)

    def per_axis(values, i, default):
        # one value applies to both axes, two values are (g_em, kappa_ex2)
        if not values:
            return default
        return values[i] if len(values) > i else values[0]

    g_start = per_axis(args.grid_start, 0, 1e7)
    k_start = per_axis(args.grid_start, 1, 1e7)
    g_stop = per_axis(args.grid_stop, 0, 1e10)
    k_stop = per_axis(args.grid_stop, 1, 1e10)
    for name, (start, stop) in (("g_em", (g_start, g_stop)),
                                ("kappa_ex2", (k_start, k_stop))):
        if start <= 0 or stop <= start:
            raise _CliError(EXIT_VALIDATION, "validation",
                            f"{name} axis must be positive with stop > start")
    n_g = int(per_axis(args.grid_points, 0, 41))
    n_k = int(per_axis(args.grid_points, 1, 41))
    if n_g < 2 or n_k < 2:
        raise _CliError(EXIT_VALIDATION, "validation", "contour axes need >= 2 points")

    g_grid = TWO_PI * np.logspace(math.log10(g_start), math.log10(g_stop), n_g)
    k_grid = TWO_PI * np.logspace(math.log10(k_start), math.log10(k_stop), n_k)
    result = analysis.max_efficiency_contour(p, g_grid, k_grid)
    base = _out_base(args, "contour")
    _atomic_write(base + ".csv", result.to_csv())
    sidecar = {
        "g_em_axis_hz": [g_start, g_stop, int(n_g)],
        "kappa_ex2_axis_hz": [k_start, k_stop, int(n_k)],
        "preset": args.preset or "nominal",
        "resolved_params": _resolved_params_payload(p),
        "note": "gamma_ex follows the derived relation across the grid",
    }
    _atomic_write(base + ".json", _dump_json(sidecar))
    print(f"wrote {base}.csv and {base}.json")
    return EXIT_OK


def _cmd_efficiency_curve(args) -> int:
    p = _load_params(args)
    start, stop, points = _grid(args, 1e-6, 100.0, 601, "power grid")
    powers = np.logspace(math.log10(start), math.log10(stop), points)
    offset = None if args.pump_offset_hz is None else TWO_PI * args.pump_offset_hz
    result = analysis.power_curve(p, powers, pump_offset=offset)
    metadata = result.metadata
    if args.pump_offset_hz is not None:
        # report the flag as given, not after its round trip through rad/s
        metadata = {**metadata, "pump_offset_hz": args.pump_offset_hz}
    base = _out_base(args, "efficiency-curve")
    _atomic_write(base + ".csv", result.to_csv())
    sidecar = {
        "metadata": metadata,
        "preset": args.preset or "nominal",
        "resolved_params": _resolved_params_payload(p),
    }
    _atomic_write(base + ".json", _dump_json(sidecar))
    print(f"wrote {base}.csv and {base}.json")
    return EXIT_OK


def _cmd_rings(args) -> int:
    rp = rings.RingPair(
        T=args.round_trip_time,
        J=TWO_PI * args.ring_j_hz,
        loss=args.ring_loss,
        bus_coupling=args.bus_coupling,
    )
    fsr = 1.0 / args.round_trip_time
    start, stop, points = _grid(args, 0.0, 3 * fsr, 30_001, "frequency grid")
    grid = TWO_PI * np.linspace(start, stop, points)
    spectrum = rings.transmission_spectrum(rp, grid)
    table = SweepResult(columns={
        "frequency_hz": grid / TWO_PI,
        "transmission": spectrum.columns["transmission"],
    })
    n_max = max(1, int(math.ceil(stop * rp.T)))
    crit = rings.critical_frequencies(rp, range(0, n_max + 1))
    base = _out_base(args, "rings")
    _atomic_write(base + ".csv", table.to_csv())
    sidecar = {
        "round_trip_time_s": rp.T,
        "ring_j_hz": args.ring_j_hz,
        "loss": rp.loss,
        "bus_coupling": rp.bus_coupling,
        "critical_frequencies": [
            {"frequency_hz": c.omega / TWO_PI, "label": c.label} for c in crit
        ],
    }
    _atomic_write(base + ".json", _dump_json(sidecar))
    print(f"wrote {base}.csv and {base}.json")
    return EXIT_OK


def _cmd_materials(args) -> int:
    records = materials.load_materials(args.materials_file)
    ranked = materials.rank(records, args.which, fab_filter=args.fab)
    lines = ["rank,name,fom,fom_abs,defined,reason,fab"]
    for i, (rec, fom) in enumerate(ranked, start=1):
        if fom.defined:
            lines.append(
                f"{i},{rec.name},{format_float(fom.value)},{format_float(abs(fom.value))},"
                f"yes,,{rec.fab}"
            )
        else:
            reason = (fom.reason or "").replace(",", ";")
            lines.append(f"{i},{rec.name},,,no,{reason},{rec.fab}")
    base = _out_base(args, f"materials-{args.which}")
    _atomic_write(base + ".csv", "\n".join(lines) + "\n")
    print(f"wrote {base}.csv")
    return EXIT_OK


def _load_tensor_set(path) -> coupling.MaterialTensorSet:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"invalid tensor JSON in {path}: {exc}") from exc
    known = {"rho", "eps_rf", "eps_ir", "h", "e", "p", "c", "eta"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ParameterError(f"unknown tensor keys: {unknown}")
    kwargs = {}
    for key in ("rho", "eps_rf", "eps_ir"):
        if key not in data:
            raise ParameterError(f"tensor file missing required scalar {key!r}")
        kwargs[key] = float(data[key])
    for key in ("h", "e", "p", "c", "eta"):
        if key in data and data[key] is not None:
            kwargs[key] = np.asarray(data[key], dtype=float)
    return coupling.MaterialTensorSet(**kwargs)


def _cmd_coupling(args) -> int:
    e_field = coupling.load_mode_field(args.em_field)
    w_field = coupling.load_mode_field(args.mech_field)
    mat = _load_tensor_set(args.tensors)
    v_em = coupling.em_mode_volume(e_field, mat.eta_eff)
    v_mech = coupling.mech_mode_volume(w_field)
    payload = {
        "em_mode_volume_m3": v_em,
        "mech_mode_volume_m3": v_mech,
        "em_frequency_hz": e_field.frequency / TWO_PI,
        "mech_frequency_hz": w_field.frequency / TWO_PI,
    }
    if mat.h is not None:
        g = coupling.piezo_coupling_total(
            e_field, w_field, mat, v_eff_em=v_em, v_eff_mech=v_mech
        )
        payload["piezo_coupling_rad_s"] = {"re": g.real, "im": g.imag, "abs": abs(g)}
        if args.component:
            i, j, k = args.component
            g1 = coupling.piezo_coupling(
                e_field, w_field, mat, (i, j, k), v_eff_em=v_em, v_eff_mech=v_mech
            )
            payload["piezo_coupling_component"] = {
                "ijk": [i, j, k], "re": g1.real, "im": g1.imag, "abs": abs(g1),
            }
    if mat.p is not None:
        payload["optomech_coupling_rad_s"] = coupling.optomech_coupling(
            e_field, w_field, mat, v_eff_em=v_em, v_eff_mech=v_mech
        )
    base = _out_base(args, "coupling")
    _atomic_write(base + ".json", _dump_json(payload))
    print(f"wrote {base}.json")
    return EXIT_OK


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pomtrans",
        description="Model, analyze and optimize a piezo-optomechanical microwave-optical transducer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, params=True):
        if params:
            sp.add_argument("--params", help="parameter JSON file (defaults to the bundled nominal set)")
            sp.add_argument("--preset", choices=sorted(analysis.PRESETS),
                            help="named multiplier preset applied to the parameter set")
        sp.add_argument("--out", help="output path base (extension added per artifact)")
        sp.add_argument("--grid-start", type=float, nargs="+", metavar="V")
        sp.add_argument("--grid-stop", type=float, nargs="+", metavar="V")
        sp.add_argument("--grid-points", type=int, nargs="+", metavar="N")

    sp = sub.add_parser("spectrum", help="efficiency vs signal frequency at the critical pump level")
    common(sp)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("optimize", help="critical photon number, maximum efficiency, cooperativities")
    common(sp)
    sp.set_defaults(func=_cmd_optimize)

    sp = sub.add_parser("contour", help="maximum efficiency over a (g_em, kappa_ex2) grid")
    common(sp)
    sp.set_defaults(func=_cmd_contour)

    sp = sub.add_parser("efficiency-curve", help="efficiency vs pump power on resonance")
    common(sp)
    sp.add_argument("--pump-offset-hz", type=float,
                    help="pump placement in the rotating frame (default: lower enhancement resonance)")
    sp.set_defaults(func=_cmd_efficiency_curve)

    sp = sub.add_parser("rings", help="ring-pair transmission spectrum and critical frequencies")
    common(sp, params=False)
    sp.add_argument("--round-trip-time", type=float, default=1e-11, help="ring round-trip time, s")
    sp.add_argument("--ring-j-hz", type=float, default=1.6425e9, help="inter-ring coupling J, Hz")
    sp.add_argument("--ring-loss", type=float, default=0.995,
                    help="per-ring round-trip amplitude transmission")
    sp.add_argument("--bus-coupling", type=float, default=0.05, help="bus field coupling fraction")
    sp.set_defaults(func=_cmd_rings)

    sp = sub.add_parser("materials", help="rank candidate materials by figure of merit")
    sp.add_argument("--which", choices=("em", "om"), default="om")
    sp.add_argument("--fab", choices=materials.FAB_KINDS, default=None,
                    help="restrict to a fabrication-compatibility class")
    sp.add_argument("--materials-file", default=None, help="CSV override of the bundled dataset")
    sp.add_argument("--out", help="output path base")
    sp.set_defaults(func=_cmd_materials)

    sp = sub.add_parser("coupling", help="coupling constants from discretized mode fields")
    sp.add_argument("--em-field", required=True, help="EM mode field CSV")
    sp.add_argument("--mech-field", required=True, help="mechanical mode field CSV")
    sp.add_argument("--tensors", required=True, help="material tensor JSON")
    sp.add_argument("--component", type=int, nargs=3, metavar=("I", "J", "K"),
                    help="also evaluate a single piezoelectric component (1-based)")
    sp.add_argument("--out", help="output path base")
    sp.set_defaults(func=_cmd_coupling)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than a small run."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching the validation exit code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc.kind}: {exc}", file=sys.stderr)
        return exc.code
    except SingularityError as exc:
        print(f"error: singularity: {exc}", file=sys.stderr)
        return EXIT_SINGULARITY
    except (ParameterError, ModelViolationError, UndefinedOptimumError, GridError,
            MaterialDataError, ValueError) as exc:
        if isinstance(exc, UndefinedOptimumError):
            kind = "undefined-optimum"
        elif isinstance(exc, ModelViolationError):
            kind = "model-violation"
        elif isinstance(exc, GridError):
            kind = "grid"
        elif isinstance(exc, MaterialDataError):
            kind = "material-data"
        else:
            kind = "validation"
        print(f"error: {kind}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, PomtransError) as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        # an input the validators let through overflowed or divided by zero
        print(f"error: arithmetic: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
