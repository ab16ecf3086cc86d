"""Exit-code contract of the CLI under random flags and input files.

Whatever the input, ``pomtrans`` exits 0, 2 or 3.  A success prints nothing on
stderr and writes the files it names; a failure prints exactly one
``error: <kind>: <message>`` line, no traceback, and leaves no artifact and
no temp file behind.  No run warns, since a warning is one more stderr line.
The input files are parameter JSON, mode-field CSV, tensor JSON and materials
CSV, each perturbed cell by cell and then possibly cut short or given bytes
that are not UTF-8.  Grids are kept small (at most 2 001 points, 21 per
contour axis, 6^3 per mode field) so that no example allocates much.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile
import warnings
from importlib import resources

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pomtrans import analysis, cli, materials

#: zero, subnormal, smallest and largest magnitudes a float flag can take
EXTREMES = (0.0, 1e-320, -1e-320, 1.7e308, -1.7e308, 4.9e-324)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


#: plausible values of each float flag, in its own unit; a subcommand stands for
#: its --grid-start and --grid-stop.  The round-trip time spans enough decades
#: that a rings grid reaches from a fraction of one free spectral range to 1e20.
PLAUSIBLE = {
    "spectrum": st.floats(2.5e9, 4e9),
    "contour": log_uniform(1e6, 1e11),
    "efficiency-curve": log_uniform(1e-7, 1e3),
    "rings": st.floats(0.0, 4e11),
    "--pump-offset-hz": st.floats(-5e9, 5e9),
    "--round-trip-time": log_uniform(1e-13, 1e11),
    "--ring-j-hz": st.floats(0.0, 5e9),
    "--ring-loss": st.floats(0.0, 1.0),
    "--bus-coupling": st.floats(0.0, 1.0),
}

#: (grid axes, largest --grid-points value) of each subcommand
GRIDS = {"spectrum": (1, 2001), "optimize": (0, 0), "contour": (2, 21),
         "efficiency-curve": (1, 2001), "rings": (1, 2001), "coupling": (0, 0),
         "materials": (0, 0)}

NOMINAL = json.loads(
    resources.files("pomtrans.data").joinpath("nominal_params.json").read_text("utf-8"))
MATERIALS = list(csv.reader(io.StringIO(
    resources.files("pomtrans.data").joinpath("materials.csv").read_text("utf-8"))))
#: an AlN-like tensor set, as in ``conftest.write_coupling_inputs``
TENSORS = {"rho": 3255.0, "eps_rf": 9.5, "eps_ir": 3.67,
           "h": [[0.0] * 6, [0.0] * 6, [0.0, 0.0, 0.145, 0.0, 0.0, 0.0]],
           "p": [[0.0, 0.0, 0.239, 0.0, 0.0, 0.0]] + [[0.0] * 6] * 5}

DELETE = object()
PARAM_VALUES = st.one_of(
    st.sampled_from(EXTREMES + (-1.0, 1e30, float("inf"), float("nan"))),
    st.sampled_from(["", "x", "1e9"]),
    st.booleans(),
    st.none(),
    st.just(DELETE),
)
#: a number where a file holds one: an extreme, a non-finite value or any float
FILE_NUMBERS = st.one_of(
    st.sampled_from(EXTREMES + (-1.0, 1e30, math.inf, -math.inf, math.nan)), st.floats())
#: a matrix entry of a tensor file
ENTRIES = st.one_of(FILE_NUMBERS, st.booleans(), st.none(), st.just("x"), st.just([]))


def rarely(strategy, otherwise, odds=6):
    """``strategy`` about one time in ``odds``, else ``otherwise``, so that most files stay
    valid enough to reach the model."""
    # one_of would pick either branch about half the time, however often it is listed
    return st.sampled_from([False] * (odds - 1) + [True]).flatmap(
        lambda rare: strategy if rare else otherwise)


@st.composite
def cut_or_garbled(draw, text):
    """``text`` as UTF-8 bytes, one time in six cut short or given invalid UTF-8 bytes."""
    data = text.encode("utf-8")
    how = draw(rarely(st.sampled_from(["cut", "bytes"]), st.just("keep")))
    at = draw(st.integers(0, len(data)))
    if how == "cut":
        return data[:at]
    if how == "bytes":
        invalid = draw(st.sampled_from([b"\xff", b"\xc3", b"\x80\x80", b"\xed\xa0\x80"]))
        return data[:at] + invalid + data[at:]
    return data


@st.composite
def mode_grids(draw):
    """(origin, spacing, counts) of a mode-field grid of at most 6^3 points."""
    counts = tuple(draw(st.lists(rarely(st.integers(1, 2), st.integers(3, 6), odds=12),
                                 min_size=3, max_size=3)))
    spacing = tuple(draw(st.lists(rarely(FILE_NUMBERS, log_uniform(1e-9, 1e-6), odds=12),
                                  min_size=3, max_size=3)))
    origin = tuple(draw(st.lists(rarely(FILE_NUMBERS, st.just(0.0), odds=12),
                                 min_size=3, max_size=3)))
    return origin, spacing, counts


@st.composite
def mode_field_file(draw, kind, grid):
    """A mode-field CSV on ``grid``: header tokens dropped or garbled, cells replaced,
    a row cut short."""
    origin, spacing, counts = grid
    tokens = {
        "origin": ",".join(map(repr, origin)),
        "spacing": ",".join(map(repr, spacing)),
        "counts": ",".join(map(str, counts)),
        "kind": kind,
        "frequency": repr(draw(rarely(FILE_NUMBERS, log_uniform(1e8, 1e15)))),
    }
    garbled = draw(rarely(st.lists(st.sampled_from(sorted(tokens)), min_size=1, max_size=2,
                                   unique=True), st.just([])))
    for key in garbled:
        value = draw(st.one_of(
            st.just(DELETE),
            st.sampled_from(["", "x", "1,2", "1,2,3,4", "0,0,0", "-1,3,3", "3.5,3,3",
                             "1000,1000,1000", "em", "mech", "EM"]),
            FILE_NUMBERS.map(lambda v: ",".join([repr(v)] * 3))))
        if value is DELETE:
            del tokens[key]
        else:
            tokens[key] = value
    prefix = draw(rarely(st.sampled_from(["#", ""]), st.just("# ")))
    lines = [prefix + " ".join(f"{key}={value}" for key, value in tokens.items()),
             "x,y,z,Re_fx,Im_fx,Re_fy,Im_fy,Re_fz,Im_fz"]
    # a random field of one amplitude, so that its strain is nonzero
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amplitude = draw(rarely(st.sampled_from(EXTREMES), log_uniform(1e-6, 1e6)))
    values = [[x * amplitude for x in row]
              for row in rng.standard_normal((math.prod(counts), 6)).tolist()]
    for _ in range(draw(rarely(st.integers(1, 2), st.just(0)))):
        row = draw(st.integers(0, len(values) - 1))
        values[row][draw(st.integers(0, 5))] = draw(FILE_NUMBERS)
    # points in "ij" order; Python floats overflow to inf, not to a warning
    points = [(i, j, k) for i in range(counts[0]) for j in range(counts[1])
              for k in range(counts[2])]
    rows = [[repr(origin[a] + n * spacing[a]) for a, n in enumerate(point)] + list(map(repr, v))
            for point, v in zip(points, values)]
    if draw(rarely(st.just(True), st.just(False))):
        row = draw(st.integers(0, len(rows) - 1))
        rows[row] = rows[row][:draw(st.integers(0, 8))]
    lines += [",".join(row) for row in rows]
    return draw(cut_or_garbled("\n".join(lines) + "\n"))


@st.composite
def matrices(draw):
    """A JSON matrix of any shape up to 6x6 or a ragged or nested one, with one entry
    possibly a boolean, null, string or extreme number."""
    shape = draw(st.sampled_from([(3, 6), (6, 6), (3, 3), (6, 3), (2, 2), (0,), (3,), (3, 6, 2)]))
    m = np.zeros(shape)
    if len(shape) == 2:
        m[np.diag_indices(min(shape))] = draw(st.one_of(st.floats(0.01, 10.0), FILE_NUMBERS))
    m = m.tolist()
    flat = m
    while flat and isinstance(flat[0], list):
        flat = flat[draw(st.integers(0, len(flat) - 1))]
    if flat and draw(st.booleans()):
        flat[draw(st.integers(0, len(flat) - 1))] = draw(ENTRIES)
    if draw(st.integers(0, 7)) == 0 and m and isinstance(m[0], list) and m[0]:
        m[0].pop()  # ragged
    return m


@st.composite
def tensor_file(draw):
    """A tensor JSON with up to three keys set to a bad scalar or any matrix, or deleted."""
    data = dict(TENSORS)
    keys = draw(st.lists(st.sampled_from(["rho", "eps_rf", "eps_ir", "h", "e", "p", "c", "eta",
                                          "bogus"]), max_size=3, unique=True))
    for key in keys:
        value = draw(st.one_of(PARAM_VALUES, matrices()))
        if value is DELETE:
            data.pop(key, None)
        else:
            data[key] = value
    return draw(cut_or_garbled(json.dumps(data)))


@st.composite
def materials_file(draw):
    """The bundled materials CSV with up to three cells replaced and a row cut short."""
    rows = [list(row) for row in MATERIALS]
    cells = st.one_of(
        FILE_NUMBERS.map(repr),
        st.sampled_from(["", " ", "x", "nan", "-inf", "-0", "bogus", "AlN",
                         *materials.H33_FLAGS, *materials.IR_FLAGS, *materials.FAB_KINDS]))
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(cells)
    if draw(st.integers(0, 3)) == 0:
        row = draw(st.integers(0, len(rows) - 1))
        rows[row] = rows[row][:draw(st.integers(0, len(rows[row]) - 1))]
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return draw(cut_or_garbled(text.getvalue()))


def flag_value(key):
    """A float flag's text: an extreme or any finite value one time in five each, else a
    plausible one."""
    plain = PLAUSIBLE[key]
    anything = st.floats(allow_nan=False, allow_infinity=False)
    return st.one_of(st.sampled_from(EXTREMES), anything, plain, plain, plain).map(repr)


@st.composite
def invocations(draw):
    """(argv without --out, {flag: (file name, bytes)} of its input files) for one CLI run."""
    command = draw(st.sampled_from(sorted(GRIDS)))
    argv = [command]
    files = {}
    if command == "coupling":
        grid = draw(mode_grids())
        files["--em-field"] = ("e.csv", draw(mode_field_file("em", grid)))
        # the fields mostly share a grid
        w_grid = draw(rarely(mode_grids(), st.just(grid)))
        files["--mech-field"] = ("w.csv", draw(mode_field_file("mech", w_grid)))
        files["--tensors"] = ("tensors.json", draw(tensor_file()))
        if draw(st.booleans()):
            argv += ["--component", *map(str, draw(st.lists(st.integers(-1, 4), min_size=3,
                                                             max_size=3)))]
    elif command == "materials":
        argv += ["--which", draw(st.sampled_from(["em", "om"]))]
        fab = draw(st.sampled_from([None, *materials.FAB_KINDS]))
        if fab:
            argv += ["--fab", fab]
        if draw(st.booleans()):  # else the bundled dataset
            files["--materials-file"] = ("materials.csv", draw(materials_file()))
    elif command != "rings":
        if draw(st.booleans()):
            payload = dict(NOMINAL)
            keys = draw(st.lists(st.sampled_from(sorted(NOMINAL)), min_size=1, max_size=3,
                                 unique=True))
            for key in keys:
                value = draw(PARAM_VALUES)
                if value is DELETE:
                    del payload[key]
                else:
                    payload[key] = value
            files["--params"] = ("params.json", draw(cut_or_garbled(json.dumps(payload))))
        preset = draw(st.sampled_from([None] + sorted(analysis.PRESETS)))
        if preset:
            argv += ["--preset", preset]

    axes, most_points = GRIDS[command]
    if axes:
        for flag in ("--grid-start", "--grid-stop"):
            values = draw(st.lists(flag_value(command), min_size=0, max_size=axes))
            if values:
                argv += [flag, *values]
        # always given, so no run falls back to a large default grid
        sized = st.integers(2, most_points)
        points = st.one_of(st.sampled_from([-1, 0, 1]), sized, sized, sized)
        argv += ["--grid-points", *map(str, draw(st.lists(points, min_size=1, max_size=axes)))]
    flags = {"efficiency-curve": ["--pump-offset-hz"],
             "rings": ["--round-trip-time", "--ring-j-hz", "--ring-loss", "--bus-coupling"]}
    for flag in flags.get(command, []):
        if draw(st.booleans()):
            argv += [flag, draw(flag_value(flag))]
    return argv, files


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    # outside a test run a warning is printed on stderr
    assert caught == [], (argv, [str(w.message) for w in caught])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=1200, deadline=None)
@given(invocations())
def test_every_run_exits_0_2_or_3_with_all_artifacts_or_none(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as inputs, tempfile.TemporaryDirectory() as outdir:
        for flag, (name, data) in files.items():
            path = os.path.join(inputs, name)
            with open(path, "wb") as fh:
                fh.write(data)
            argv = argv + [flag, path]
        code, out, err = run_cli(argv + ["--out", os.path.join(outdir, "run")])

        assert code in (0, 2, 3), (argv, err)
        left = sorted(os.listdir(outdir))
        if code == 0:
            assert err == ""
            wrote = out.splitlines()[-1]
            assert wrote.startswith("wrote ")
            files = wrote[len("wrote "):].split(" and ")
            assert sorted(os.path.basename(f) for f in files) == left
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            assert "Traceback" not in err
            assert left == [], (argv, err)
