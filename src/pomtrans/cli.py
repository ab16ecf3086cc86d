"""Command-line front end.

Subcommands bind parameter files and presets to the sweep and optimization
engines and emit CSV/JSON artifacts.  All user-facing frequencies are plain
Hz; conversion to angular rad/s happens at this boundary only.  Every
artifact is rendered block by block into a temp file before the first is
renamed into place, so a failure leaves none behind.  Files are written
deterministically: byte identical for identical configurations.

Exit codes: 0 success, 2 validation error, 3 numerical singularity.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import json
import math
import os
import re
import sys
from collections.abc import Iterable

import numpy as np

from . import analysis, coupling, dynamics, materials, rings
from .constants import TWO_PI
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

#: (exception type, exit code, error kind); the first matching row wins
_ERRORS = (
    (SingularityError, EXIT_SINGULARITY, "singularity"),
    (UndefinedOptimumError, EXIT_VALIDATION, "undefined-optimum"),
    (ModelViolationError, EXIT_VALIDATION, "model-violation"),
    (GridError, EXIT_VALIDATION, "grid"),
    (MaterialDataError, EXIT_VALIDATION, "material-data"),
    (ParameterError, EXIT_VALIDATION, "validation"),
    (ValueError, EXIT_VALIDATION, "validation"),
    (OSError, EXIT_VALIDATION, "io"),
    (MemoryError, EXIT_VALIDATION, "memory"),
    (PomtransError, EXIT_VALIDATION, "io"),
)


def _write_all(files: dict[str, Iterable[bytes]]) -> None:
    """Write each ``{path: byte chunks}`` to a temp file beside it, then rename them all.

    The bytes-like chunks are drawn as they are written, so a table never exists
    whole, and an error raised while rendering one counts as a failed write.

    A target that is an existing directory is rejected before anything is
    written, so a failing rerun leaves the previous run's files in place.  On
    a later failure the temp files and every artifact already renamed into
    place are removed, so a run writes all of its artifacts or none.

    Each temp file, ``.pomtrans-<16 hex digits>.tmp``, is created with mode
    0o666, so it gets the mode ``open()`` would give it.
    """
    for path in files:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    temps, placed = [], []
    try:
        for path, chunks in files.items():
            tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                               f".pomtrans-{os.urandom(8).hex()}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            temps.append(tmp)
            with os.fdopen(fd, "wb") as fh:
                fh.writelines(chunks)
        for tmp, path in zip(temps, files):
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for path in temps + placed:
            if os.path.exists(path):
                os.unlink(path)
        raise


def _dump_json(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


def _load_params(args) -> dynamics.TransducerParams:
    p = dynamics.load_params(args.params or None)
    return analysis.apply_preset(p, args.preset) if args.preset else p


def _sidecar(args, p: dynamics.TransducerParams, payload: dict) -> bytes:
    """JSON sidecar bytes: ``payload`` plus the preset and the resolved parameters."""
    r = dynamics.derived_rates(p)
    discrepancy = r.gamma_ex_discrepancy
    resolved = {
        **dynamics.params_to_dict(p),
        "derived_gamma_m_hz": r.gamma_m / TWO_PI,
        "derived_kappa_2_hz": r.kappa_2 / TWO_PI,
        "effective_gamma_ex_hz": r.gamma_ex / TWO_PI,
        "derived_gamma_ex_hz": r.gamma_ex_derived / TWO_PI,
        # infinite when gamma_ex is supplied but not derivable (g_em = 0)
        "gamma_ex_rel_discrepancy": discrepancy if math.isfinite(discrepancy) else None,
    }
    return _dump_json({**payload, "preset": args.preset or "nominal", "resolved_params": resolved})


def _grid(args, i, what, start, stop, points, least=2, log=False, hz=False, collapsed=None):
    """``(start, stop, points, values)`` of axis ``i`` from the --grid-* flags, else the defaults.

    A flag given one value sets it for every axis; more values than axes are
    rejected.  So is an axis whose stop does not exceed its start, of fewer than
    ``least`` points, a ``log`` axis that does not start above 0, and an ``hz``
    axis with an end whose rad/s value overflows.  ``values`` are ``points``
    linearly or, for ``log``, logarithmically spaced values, in rad/s for an
    ``hz`` axis.  Unless they strictly increase, the axis is rejected with
    ``collapsed``, or else with a message naming the flags that set it.
    """
    def pick(flag, default):
        values = getattr(args, flag) or [default]
        if len(values) > args.grid_axes:
            most = "one value" if args.grid_axes == 1 else f"at most {args.grid_axes} values"
            raise ParameterError(f"--{flag.replace('_', '-')} takes {most}, got {len(values)}")
        return values[i] if len(values) > i else values[0]

    start, stop, points = (pick("grid_start", start), pick("grid_stop", stop),
                           pick("grid_points", points))
    if not stop > start:
        raise ParameterError(f"{what}: stop must exceed start")
    if points < least:
        raise ParameterError(f"{what}: --grid-points must be at least {least}, got {points}")
    if log and not start > 0:
        raise ParameterError(f"{what}: start must be > 0")
    if hz:
        dynamics._rad_s("--grid-start", start)
        dynamics._rad_s("--grid-stop", stop)
    values = (np.logspace(math.log10(start), math.log10(stop), points) if log
              else np.linspace(start, stop, points))
    if hz:
        values = TWO_PI * values
    if not np.all(values[1:] > values[:-1]):
        raise ParameterError(collapsed or (
            f"{what}: --grid-start/--grid-stop/--grid-points {start!r}/{stop!r}/{points} hold "
            f"too few distinct {'frequencies' if hz else 'values'}; widen the window or pass "
            f"fewer points"))
    return start, stop, points, values


def _require_finite(args) -> None:
    """Reject a NaN or infinite value of any float flag, naming the flag."""
    for dest, value in vars(args).items():
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and not math.isfinite(v):
                raise ParameterError(f"--{dest.replace('_', '-')} must be finite, got {v}")


# --- subcommand implementations ----------------------------------------------
# Each returns (default output base, {extension: byte chunks}); main writes them.
# A table is its lazy ``SweepResult.csv_chunks()``; a JSON text is a one-element list.


def _cmd_spectrum(args):
    p = _load_params(args)
    f_m = p.omega_m / TWO_PI
    start, stop = f_m - 2.5e8, f_m + 2.5e8
    # the default window holds ever fewer distinct frequencies as omega_m grows
    default_window = not (args.grid_start or args.grid_stop)
    collapsed = (f"spectrum grid: the default window omega_m_hz +- 2.5e8 Hz holds too few "
                 f"distinct frequencies at omega_m_hz={f_m:g}; pass --grid-start/--grid-stop")
    if default_window and not stop > start:
        raise ParameterError(collapsed)
    # efficiency_spectrum interpolates its peak through three points
    *_, grid = _grid(args, 0, "spectrum grid", start, stop, 500_001, least=3, hz=True,
                     collapsed=collapsed if default_window else None)
    spec = analysis.efficiency_spectrum(p, grid)
    table = SweepResult(columns={"frequency_hz": grid / TWO_PI, "efficiency": spec.efficiencies})
    return "spectrum", {
        ".csv": table.csv_chunks(),
        ".json": [_sidecar(args, p, {
            "peak_shift_mhz": spec.peak_shift / TWO_PI / 1e6,
            "fwhm_mhz": spec.fwhm / TWO_PI / 1e6,
            "broad_peak": spec.broad_peak_flag,
            "peak_efficiency": spec.peak_efficiency,
            "intra_ring_photons": spec.intra_ring_photons,
        })],
    }


def _cmd_optimize(args):
    p = _load_params(args)
    n_crit = analysis.critical_photon_number(p)
    coops = analysis.cooperativities(analysis.OperatingPoint(p, n_crit))
    return "optimize", {".json": [_sidecar(args, p, {
        "critical_photon_number": n_crit,
        "max_efficiency": analysis.max_efficiency(p),
        "max_efficiency_derived_gamma_ex": analysis.max_efficiency(
            dynamics.with_derived_gamma_ex(p)),
        "cooperativities": {
            "c_om": coops.c_om,
            "c_12": coops.c_12,
            "f_2": coops.f_2,
            "f_m": coops.f_m,
        },
    })]}


def _cmd_contour(args):
    p = _load_params(args)
    g_start, g_stop, n_g, g_grid = _grid(args, 0, "g_em axis", 1e7, 1e10, 41, log=True, hz=True)
    k_start, k_stop, n_k, k_grid = _grid(args, 1, "kappa_ex2 axis", 1e7, 1e10, 41, log=True,
                                         hz=True)
    eta = analysis.max_efficiency_contour(p, g_grid, k_grid)
    # the axes broadcast against eta's (n_g, n_k) grid, so a block formats each axis value
    # once, not once per row
    table = SweepResult(columns={
        "log10_gEM_hz": np.log10(g_grid / TWO_PI)[:, None],
        "log10_kex2_hz": np.log10(k_grid / TWO_PI),
        "max_efficiency": eta,
    })
    return "contour", {
        ".csv": table.csv_chunks(),
        ".json": [_sidecar(args, p, {
            "g_em_axis_hz": [g_start, g_stop, n_g],
            "kappa_ex2_axis_hz": [k_start, k_stop, n_k],
            "note": "gamma_ex follows the derived relation across the grid",
        })],
    }


def _cmd_efficiency_curve(args):
    p = _load_params(args)
    *_, powers = _grid(args, 0, "power grid", 1e-6, 100.0, 601, log=True)
    if args.pump_offset_hz is None:
        offset = dynamics.enhancement_resonances(p).lower
        offset_hz = offset / TWO_PI
    else:
        # report the flag as given, not after its round trip through rad/s
        offset = dynamics._rad_s("--pump-offset-hz", args.pump_offset_hz)
        offset_hz = args.pump_offset_hz
    photons, eta = analysis.power_curve(p, powers, pump_offset=offset)
    table = SweepResult(columns={"power_w": powers, "intra_ring_photons": photons,
                                 "efficiency": eta})
    i_best = int(np.argmax(eta))
    return "efficiency-curve", {
        ".csv": table.csv_chunks(),
        ".json": [_sidecar(args, p, {"metadata": {
            "peak_power_w": float(powers[i_best]),
            "peak_efficiency": float(eta[i_best]),
            "pump_offset_hz": offset_hz,
        }})],
    }


def _cmd_rings(args):
    rp = rings.RingPair(T=args.round_trip_time, J=dynamics._rad_s("--ring-j-hz", args.ring_j_hz),
                        loss=args.ring_loss, bus_coupling=args.bus_coupling)
    default_stop = 3 * (1.0 / args.round_trip_time)
    if not args.grid_stop and not default_stop < math.inf:
        raise ParameterError(
            f"frequency grid: the default stop 3/T overflows at round-trip time "
            f"T={args.round_trip_time:g}; pass --grid-stop")
    start, stop, points, grid = _grid(args, 0, "frequency grid", 0.0, default_stop, 30_001, hz=True)
    if start < 0:
        raise ParameterError("frequency grid: start must be >= 0")
    # orders 0..max(1, ceil(stop T)) are listed; more orders than grid points is rejected
    fsrs = stop * rp.T
    if not fsrs <= points - 1:
        raise ParameterError(
            f"frequency grid: stop {stop:g} Hz spans {fsrs:.6g} free spectral ranges, so the "
            f"critical frequencies listed would outnumber its {points} points")
    table = SweepResult(columns={"frequency_hz": grid / TWO_PI,
                                 "transmission": rings.transmission_spectrum(rp, grid)})
    n_max = max(1, math.ceil(fsrs))
    crit = rings.critical_frequencies(rp, range(0, n_max + 1))
    return "rings", {
        ".csv": table.csv_chunks(),
        ".json": [_dump_json({
            "round_trip_time_s": rp.T,
            "ring_j_hz": args.ring_j_hz,
            "loss": rp.loss,
            "bus_coupling": rp.bus_coupling,
            "critical_frequencies": [
                {"frequency_hz": c.omega / TWO_PI, "label": c.label} for c in crit
            ],
        })],
    }


def _cmd_materials(args):
    records = materials.load_materials(args.materials_file)
    ranked = materials.rank(records, args.which, fab_filter=args.fab)
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["rank", "name", "fom", "fom_abs", "defined", "reason", "fab"])
    for i, (rec, fom) in enumerate(ranked, start=1):
        if fom.defined:
            writer.writerow([i, rec.name, format_float(fom.value),
                             format_float(abs(fom.value)), "yes", "", rec.fab])
        else:
            writer.writerow([i, rec.name, "", "", "no", fom.reason, rec.fab])
    return f"materials-{args.which}", {".csv": [text.getvalue().encode()]}


def _cmd_coupling(args):
    e_field = coupling.load_mode_field(args.em_field)
    w_field = coupling.load_mode_field(args.mech_field)
    coupling.require_matching(e_field, w_field)
    mat = coupling.load_tensor_set(args.tensors)
    payload = {
        "em_mode_volume_m3": coupling.em_mode_volume(e_field, mat.eta_eff),
        "mech_mode_volume_m3": coupling.mech_mode_volume(w_field),
        "em_frequency_hz": e_field.frequency / TWO_PI,
        "mech_frequency_hz": w_field.frequency / TWO_PI,
    }
    if mat.h is not None:
        g = coupling.piezo_coupling_total(e_field, w_field, mat)
        payload["piezo_coupling_rad_s"] = {"re": g.real, "im": g.imag, "abs": abs(g)}
    if args.component:  # without h, this names the missing tensor
        g1 = coupling.piezo_coupling(e_field, w_field, mat, tuple(args.component))
        payload["piezo_coupling_component"] = {
            "ijk": args.component, "re": g1.real, "im": g1.imag, "abs": abs(g1),
        }
    if mat.p is not None:
        payload["optomech_coupling_rad_s"] = coupling.optomech_coupling(e_field, w_field, mat)
    return "coupling", {".json": [_dump_json(payload)]}


# --- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads ``-1.6e9`` as a negative number, not an option; subparsers share the class.

    A usage error raises :class:`ParameterError`, so it prints one ``error:``
    line like every other failure instead of argparse's usage block.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        raise ParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pomtrans",
        description="Model, analyze and optimize a piezo-optomechanical microwave-optical transducer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, params=False, grid=0):
        sp = sub.add_parser(name, help=help)
        if params:
            sp.add_argument("--params", help="parameter JSON file (defaults to the bundled nominal set)")
            sp.add_argument("--preset", choices=sorted(analysis.PRESETS),
                            help="named multiplier preset applied to the parameter set")
        sp.add_argument("--out", help="output path base (extension added per artifact)")
        if grid:
            sp.add_argument("--grid-start", type=float, nargs="+", metavar="V")
            sp.add_argument("--grid-stop", type=float, nargs="+", metavar="V")
            sp.add_argument("--grid-points", type=int, nargs="+", metavar="N")
        sp.set_defaults(func=func, grid_axes=grid)
        return sp

    command("spectrum", _cmd_spectrum, "efficiency vs signal frequency at the critical pump level",
            params=True, grid=1)
    command("optimize", _cmd_optimize,
            "critical photon number, maximum efficiency, cooperativities", params=True)
    command("contour", _cmd_contour, "maximum efficiency over a (g_em, kappa_ex2) grid",
            params=True, grid=2)

    sp = command("efficiency-curve", _cmd_efficiency_curve,
                 "efficiency vs pump power on resonance", params=True, grid=1)
    sp.add_argument("--pump-offset-hz", type=float,
                    help="pump placement in the rotating frame (default: lower enhancement resonance)")

    sp = command("rings", _cmd_rings, "ring-pair transmission spectrum and critical frequencies",
                 grid=1)
    sp.add_argument("--round-trip-time", type=float, default=1e-11, help="ring round-trip time, s")
    sp.add_argument("--ring-j-hz", type=float, default=1.6425e9, help="inter-ring coupling J, Hz")
    sp.add_argument("--ring-loss", type=float, default=0.995,
                    help="per-ring round-trip amplitude transmission")
    sp.add_argument("--bus-coupling", type=float, default=0.05, help="bus field coupling fraction")

    sp = command("materials", _cmd_materials, "rank candidate materials by figure of merit")
    sp.add_argument("--which", choices=("em", "om"), default="om")
    sp.add_argument("--fab", choices=materials.FAB_KINDS, default=None,
                    help="restrict to a fabrication-compatibility class")
    sp.add_argument("--materials-file", default=None, help="CSV override of the bundled dataset")

    sp = command("coupling", _cmd_coupling, "coupling constants from discretized mode fields")
    sp.add_argument("--em-field", required=True, help="EM mode field CSV")
    sp.add_argument("--mech-field", required=True, help="mechanical mode field CSV")
    sp.add_argument("--tensors", required=True, help="material tensor JSON")
    sp.add_argument("--component", type=int, nargs=3, metavar=("I", "J", "K"),
                    help="also evaluate the term of one piezoelectric tensor element h_ijk "
                         "(1-based); a shear Voigt entry adds two such terms to the total")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than a small run."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        _require_finite(args)
        # an overflow or invalid value the validators let through raises, not warns,
        # while the tables are rendered too
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            default_base, artifacts = args.func(args)
            files = {(args.out or default_base) + ext: chunks for ext, chunks in artifacts.items()}
            _write_all(files)
    except SystemExit as exc:
        # --help: argparse prints it and exits 0; usage errors raise ParameterError
        return int(exc.code) if exc.code else EXIT_OK
    except tuple(t for t, _, _ in _ERRORS) as exc:
        code, kind = next((c, k) for t, c, k in _ERRORS if isinstance(exc, t))
        # a bare MemoryError has no message
        print(f"error: {kind}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return code
    except ArithmeticError as exc:
        # an input the validators let through overflowed, divided by zero or gave NaN
        print(f"error: arithmetic: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print("wrote " + " and ".join(files))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
