"""Seeded input generation for the pomtrans benchmark.

Runs in its own process before the timed workload process, so neither its
time nor its memory reaches the workload metrics.  It writes, under
``--dir``:

* ``schedule.json``: one pass of CLI ops (argv, item count, artifacts and the
  facts the output checks need), plus the set-up probe and warm-up ops;
* ``inputs/``: parameter files, mode-field files and tensor JSON.

The same ``--seed`` gives byte-identical inputs.  Op sizes are stratified:
each op of a pass takes the middle of its own equal-probability stratum of
the workload's log-uniform size range, so every seed runs the same size mix
and the per-pass work and peak memory are steady across seeds.  The seed
draws everything else: parameters, presets, axis ranges, fields, tensors and
the op order.

Usage: python3 perfbench/inputs.py --workload contour --seed 1 --dir DIR
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from pomtrans import analysis, coupling, dynamics  # noqa: E402
from pomtrans.constants import EPSILON_0, HBAR  # noqa: E402

TWO_PI = 2 * math.pi
PRESETS = sorted(analysis.PRESETS)

# Ops per pass, and the seconds one untraced pass takes at the parent commit
# on a 2-core x86 VM.  A run makes max(3, round(seconds / PASS_SECONDS))
# passes, a fixed number for a given --seconds, so every commit is measured
# on the same work and its latency samples have the same count.  The heavy
# workloads run few distinct ops per pass, so each op runs in many passes and
# its latency is a mean over moments spread across the run (see workload.py).
SPECTRUM_OPS = 2
CONTOUR_OPS = 4
COUPLING_OPS = 4
COUPLING_GRIDS = 2
PASS_SECONDS = {"spectrum": 2.6, "contour": 2.8, "coupling": 3.7, "cli-small": 3.3}
# cli-small pass, (kind, ops): a design loop that screens many candidate
# parameter files with `optimize`, draws efficiency curves for some of them,
# and runs the ring-pair and materials screens now and then.  So the median
# op is an `optimize` op, which is mostly parameter resolution, and the tail
# an `efficiency-curve` op.
CLI_SMALL_MIX = (
    ("optimize", 130), ("curve", 24), ("curve-offset", 24), ("rings", 14),
    ("materials-em", 4), ("materials-om", 4),
)
CHECK_ROWS = 12

_NOMINAL_HZ = {
    "omega_m_hz": 3.285e9, "gamma_0_hz": 2.6e6, "Gamma_0_hz": 5.0e8,
    "Gamma_hz": 1.5e10, "g_em_hz": 1.006e8, "J_hz": 1.6425e9,
    "kappa_1_hz": 2.5e7, "kappa_02_hz": 2.5e7, "kappa_ex2_hz": 1.25e8,
    "g_om_hz": 400.0,
}


def log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def stratified(rng, lo, hi, m):
    """``m`` log-uniform sizes, one in the middle of each stratum, in seeded order."""
    u = (np.arange(m) + 0.5) / m
    return list(lo * (hi / lo) ** u[rng.permutation(m)])


def write_params(rng, path):
    """A valid parameter file: jittered nominal rates, derived gamma_ex, with lambda_l.

    Detunings stay on the mechanical resonance, so the efficiency peak sits at
    omega_m and the on-resonance closed forms used by the checks apply.
    """
    data = {k: float(v * log_uniform(rng, 0.8, 1.25)) for k, v in _NOMINAL_HZ.items()}
    data["delta_1_hz"] = data["delta_2_hz"] = data["omega_m_hz"]
    data["lambda_l_m"] = float(rng.choice([1.31e-6, 1.55e-6]) * rng.uniform(0.99, 1.01))
    dynamics.params_from_dict(data)  # rejects an invalid draw here, not in the timed loop
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return data


def param_pool(rng, inputs, n):
    files = []
    for i in range(n):
        path = inputs / f"params-{i:02d}.json"
        files.append((f"inputs/{path.name}", write_params(rng, path)))
    return files


def sample_rows(rng, n_rows):
    rows = {0, n_rows // 2, n_rows - 1}
    rows.update(int(r) for r in rng.integers(0, n_rows, CHECK_ROWS))
    return sorted(rows)


# --- workloads -----------------------------------------------------------------


def gen_spectrum(rng, inputs):
    pool = param_pool(rng, inputs, SPECTRUM_OPS)
    ops = []
    for i, points in enumerate(stratified(rng, 1e5, 1e6, SPECTRUM_OPS)):
        points = int(round(points))
        pfile, data = pool[i]
        preset = str(rng.choice(PRESETS))
        half = float(rng.uniform(1.5e8, 3.0e8))
        start, stop = data["omega_m_hz"] - half, data["omega_m_hz"] + half
        out = f"out/op{i:03d}"
        ops.append({
            "argv": ["spectrum", "--params", pfile, "--preset", preset,
                     "--grid-start", repr(start), "--grid-stop", repr(stop),
                     "--grid-points", str(points), "--out", out],
            "items": points,
            "artifacts": [out + ".csv", out + ".json"],
            "check": {"kind": "spectrum", "params": pfile, "preset": preset,
                      "start": start, "stop": stop, "points": points,
                      "rows": sample_rows(rng, points)},
        })
    return ops, pool


def gen_contour(rng, inputs):
    pool = param_pool(rng, inputs, 8)
    ops = []
    for i, cells in enumerate(stratified(rng, 101**2, 201**2, CONTOUR_OPS)):
        n_g = int(np.clip(round(math.sqrt(cells) * rng.uniform(0.9, 1.1)), 101, 201))
        n_k = int(np.clip(round(cells / n_g), 101, 201))
        pfile, _ = pool[int(rng.integers(len(pool)))]
        preset = str(rng.choice(PRESETS))
        g_start, k_start = (float(x) for x in log_uniform(rng, 3e6, 3e7, 2))
        g_stop = g_start * 10 ** float(rng.uniform(2, 3))
        k_stop = k_start * 10 ** float(rng.uniform(2, 3))
        out = f"out/op{i:03d}"
        ops.append({
            "argv": ["contour", "--params", pfile, "--preset", preset,
                     "--grid-start", repr(g_start), repr(k_start),
                     "--grid-stop", repr(g_stop), repr(k_stop),
                     "--grid-points", str(n_g), str(n_k), "--out", out],
            "items": n_g * n_k,
            "artifacts": [out + ".csv", out + ".json"],
            "check": {"kind": "contour", "params": pfile, "preset": preset,
                      "g_axis": [g_start, g_stop, n_g], "k_axis": [k_start, k_stop, n_k],
                      "rows": sample_rows(rng, n_g * n_k)},
        })
    return ops, pool


def write_field(path, f):
    """Mode-field CSV in the layout ``coupling.load_mode_field`` reads.

    Components are integer-valued (see ``analytic_field``) and written as
    integers; coordinates are written with ``repr``.  Both round-trip
    exactly, so the loaded field equals the in-memory one the oracle uses.
    """
    g = f.grid
    header = "# origin={},{},{} spacing={},{},{} counts={},{},{} kind={} frequency={}".format(
        *map(repr, g.origin), *map(repr, g.spacing), *g.counts, f.kind, repr(f.frequency))
    xs, ys, zs = ([repr(float(v)) for v in g.axis(k)] for k in range(3))
    coords = [f"{x},{y},{z}" for x in xs for y in ys for z in zs]  # meshgrid "ij" order
    parts = np.stack([f.components.real, f.components.imag], axis=1).reshape(6, -1)
    values = parts.T.astype(np.int64).tolist()
    fmt = ",%d,%d,%d,%d,%d,%d\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.write("x,y,z,Re_fx,Im_fx,Re_fy,Im_fy,Re_fz,Im_fz\n")
        fh.write("".join([c + fmt % tuple(v) for c, v in zip(coords, values)]))


def _complex(rng, scale):
    return complex(*(scale * rng.uniform(-1, 1, 2)))


def analytic_field(rng, grid, kind, frequency, terms):
    """Superposition of ``plane_wave`` and ``gaussian_sheet`` modes, all polarizations.

    Amplitudes are in arbitrary units of up to 1e6 and every sample is
    rounded to an integer, so the field file needs no float formatting.
    """
    extent = [grid.spacing[k] * (grid.counts[k] - 1) for k in range(3)]
    comps = np.zeros((3, *grid.shape), dtype=complex)
    for t in range(terms):
        pol = t % 3
        if t % 2 == 0:
            q = [float(rng.uniform(-3, 3)) * TWO_PI / extent[k] for k in range(3)]
            f = coupling.plane_wave(grid, kind, frequency, _complex(rng, 1e6), q, pol)
        else:
            axis = int(rng.integers(3))
            f = coupling.gaussian_sheet(
                grid, kind, frequency, _complex(rng, 1e6), pol, axis,
                float(rng.uniform(0.3, 0.7)) * extent[axis],
                float(rng.uniform(0.1, 0.3)) * extent[axis])
        comps += f.components
    comps = np.round(comps.real) + 1j * np.round(comps.imag)
    return coupling.ModeField(grid, comps, kind, frequency)


def coupling_oracle(e, w, mat):
    """Expected coupling JSON from one full-tensor einsum per overlap.

    The CLI sums 27 piezoelectric and 81 photoelastic element integrals one
    Voigt lookup at a time; here the tensors are expanded with
    ``rank3_from_voigt``/``rank4_from_voigt`` and contracted with the strain
    before a single trapezoid integral.
    """
    v_em = coupling.em_mode_volume(e, mat.eta_eff)
    v_mech = coupling.mech_mode_volume(w)
    strain = coupling.strain_field(w)
    h3 = coupling.rank3_from_voigt(mat.h)
    piezo_sum = complex(coupling.trapezoid_3d(
        np.einsum("ijk,i...,jk...->...", h3, e.components, strain), e.grid))
    g = (1j * math.sqrt(e.frequency / w.frequency) / (4 * math.sqrt(v_em * v_mech))
         / math.sqrt(mat.eta_eff * mat.rho) * piezo_sum)
    p_strain = np.einsum("ijkl,kl...->ij...", coupling.rank4_from_voigt(mat.p), strain)
    om_sum = complex(coupling.trapezoid_3d(
        np.einsum("ij...,i...,j...->...", p_strain, e.components, np.conj(e.components)),
        e.grid))
    g_om = math.sqrt(HBAR / (32 * mat.rho * v_mech * EPSILON_0**2
                             * mat.eta_eff**2 * v_em**2 * w.frequency)) * abs(om_sum)
    return {
        "em_mode_volume_m3": v_em,
        "mech_mode_volume_m3": v_mech,
        "em_frequency_hz": e.frequency / TWO_PI,
        "mech_frequency_hz": w.frequency / TWO_PI,
        "piezo_coupling_rad_s": {"re": g.real, "im": g.imag, "abs": abs(g)},
        "optomech_coupling_rad_s": g_om,
    }


def gen_coupling(rng, inputs):
    """Field pairs on stratified grids; each pair serves several ops with their own tensors."""
    ops = []
    for g, voxels in enumerate(stratified(rng, 32**3, 64**3, COUPLING_GRIDS)):
        n = int(round(voxels ** (1 / 3)))
        spacing = tuple(float(s) for s in log_uniform(rng, 5e-8, 2e-7, 3))
        grid = coupling.Grid3D((0.0, 0.0, 0.0), spacing, (n, n, n))
        e = analytic_field(rng, grid, coupling.EM, TWO_PI * float(rng.uniform(2e9, 6e9)), 4)
        w = analytic_field(rng, grid, coupling.MECH, TWO_PI * float(rng.uniform(2e9, 6e9)), 5)
        fields = [f"inputs/grid{g:02d}-{s}.csv" for s in ("em", "mech")]
        write_field(inputs.parent / fields[0], e)
        write_field(inputs.parent / fields[1], w)
        for _ in range(COUPLING_OPS // COUPLING_GRIDS):
            tensors = {
                "rho": float(rng.uniform(2000, 8000)),
                "eps_rf": float(rng.uniform(5, 50)),
                "eps_ir": float(rng.uniform(2, 10)),
                "h": (rng.uniform(-1, 1, (3, 6)) * 1e9).tolist(),
                "p": rng.uniform(-0.3, 0.3, (6, 6)).tolist(),
            }
            mat = coupling.MaterialTensorSet(**tensors)
            tensor_file = f"inputs/tensors{len(ops):02d}.json"
            (inputs.parent / tensor_file).write_text(json.dumps(tensors) + "\n", encoding="utf-8")
            ops.append({
                "argv": ["coupling", "--em-field", fields[0], "--mech-field", fields[1],
                         "--tensors", tensor_file],
                "items": n**3,
                "artifacts": [".json"],
                "check": {"kind": "coupling", "expected": coupling_oracle(e, w, mat)},
            })
    ops = [ops[i] for i in rng.permutation(len(ops))]
    for i, op in enumerate(ops):
        out = f"out/op{i:03d}"
        op["argv"] += ["--out", out]
        op["artifacts"] = [out + ".json"]
    return ops, None


def gen_cli_small(rng, inputs):
    pool = param_pool(rng, inputs, 24)
    ops = []
    kinds = [kind for kind, count in CLI_SMALL_MIX for _ in range(count)]
    for i in rng.permutation(len(kinds)):
        kind = kinds[i]
        out = f"out/op{len(ops):03d}"
        pfile, data = pool[int(rng.integers(len(pool)))]
        preset = str(rng.choice(PRESETS))
        if kind == "optimize":
            argv = ["optimize", "--params", pfile, "--preset", preset]
            artifacts = [out + ".json"]
            check = {"kind": "optimize", "params": pfile, "preset": preset}
        elif kind.startswith("materials"):
            which = kind.split("-")[1]
            argv = ["materials", "--which", which]
            artifacts = [out + ".csv"]
            check = {"kind": "materials", "which": which}
        elif kind == "rings":
            T = float(rng.uniform(0.8e-11, 1.25e-11))
            points = int(rng.integers(2500, 3501))
            argv = ["rings", "--round-trip-time", repr(T),
                    "--ring-j-hz", repr(float(rng.uniform(1e9, 2e9))),
                    "--ring-loss", repr(float(rng.uniform(0.99, 0.999))),
                    "--bus-coupling", repr(float(rng.uniform(0.02, 0.1))),
                    "--grid-points", str(points)]
            artifacts = [out + ".csv", out + ".json"]
            check = {"kind": "rings"}
        else:
            start = float(log_uniform(rng, 1e-6, 1e-5))
            stop = float(log_uniform(rng, 10, 100))
            argv = ["efficiency-curve", "--params", pfile, "--preset", preset,
                    "--grid-start", repr(start), "--grid-stop", repr(stop)]
            offset = None
            if kind == "curve-offset":
                offset = data["delta_1_hz"] + data["J_hz"] * float(rng.uniform(-1.2, 1.2))
                argv += ["--pump-offset-hz", repr(offset)]
            artifacts = [out + ".csv", out + ".json"]
            check = {"kind": "curve", "params": pfile, "preset": preset, "start": start,
                     "stop": stop, "points": 601, "offset_hz": offset,
                     "rows": sample_rows(rng, 601)}
        ops.append({"argv": argv + ["--out", out], "items": 1,
                    "artifacts": artifacts, "check": check})
    return ops, pool


GENERATORS = {
    "spectrum": gen_spectrum,
    "contour": gen_contour,
    "coupling": gen_coupling,
    "cli-small": gen_cli_small,
}


def generate(workload, seed, workdir):
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(workload)])
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    (workdir / "out").mkdir(exist_ok=True)
    ops, pool = GENERATORS[workload](rng, inputs)
    if pool is None:
        pool = param_pool(rng, inputs, 1)
    pfile = pool[0][0]
    schedule = {
        "workload": workload,
        "seed": seed,
        "ops": ops,
        "pass_seconds": PASS_SECONDS[workload],
        "setup": {"params": pfile, "preset": "5gem"},
        # Untimed, so no timed op pays one-off costs such as the allocator
        # first growing the heap to the workload's largest arrays.
        "warmup": [
            ["optimize", "--params", pfile, "--out", "warmup/optimize"],
            ["materials", "--which", "om", "--out", "warmup/materials"],
            max(ops, key=lambda op: op["items"])["argv"][:-1] + ["warmup/largest"],
        ],
    }
    (workdir / "warmup").mkdir(exist_ok=True)
    tmp = workdir / "schedule.json.tmp"
    tmp.write_text(json.dumps(schedule) + "\n", encoding="utf-8")
    os.replace(tmp, workdir / "schedule.json")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, type=Path)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
