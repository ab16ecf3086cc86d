"""Exit-code contract of the CLI under random flags and parameter files.

Whatever the input, ``pomtrans`` exits 0, 2 or 3.  A success prints nothing on
stderr and writes the files it names; a failure prints exactly one
``error: <kind>: <message>`` line, no traceback, and leaves no artifact and
no temp file behind.  Grids are kept small (at most 2 001 points, 21 per
contour axis) so that no example allocates much.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

from pomtrans import analysis, cli

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
         "efficiency-curve": (1, 2001), "rings": (1, 2001)}

NOMINAL = json.loads(
    resources.files("pomtrans.data").joinpath("nominal_params.json").read_text("utf-8"))

DELETE = object()
PARAM_VALUES = st.one_of(
    st.sampled_from(EXTREMES + (-1.0, 1e30, float("inf"), float("nan"))),
    st.sampled_from(["", "x", "1e9"]),
    st.booleans(),
    st.none(),
    st.just(DELETE),
)


def flag_value(key):
    """A float flag's text: an extreme or any finite value one time in five each, else a
    plausible one."""
    plain = PLAUSIBLE[key]
    anything = st.floats(allow_nan=False, allow_infinity=False)
    return st.one_of(st.sampled_from(EXTREMES), anything, plain, plain, plain).map(repr)


@st.composite
def invocations(draw):
    """(argv without --out, parameter payload or None) for one CLI run."""
    command = draw(st.sampled_from(sorted(GRIDS)))
    argv = [command]
    payload = None
    if command != "rings":
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
    return argv, payload


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=600, deadline=None)
@given(invocations())
def test_every_run_exits_0_2_or_3_with_all_artifacts_or_none(invocation):
    argv, payload = invocation
    with tempfile.TemporaryDirectory() as inputs, tempfile.TemporaryDirectory() as outdir:
        if payload is not None:
            path = os.path.join(inputs, "params.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            argv = argv + ["--params", path]
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
