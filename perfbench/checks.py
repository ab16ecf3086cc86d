"""Output checks for benchmark ops, run outside the timed region.

Each check reads the op's artifacts and compares sampled values with an
independent route through the model:

* spectrum: rows against ``|sfg.linear_solve_gain(...)|^2`` on the op's graph;
* contour: cells against closed-form ``dynamics.efficiency`` at the critical
  photon number, on resonance;
* coupling: the JSON against the einsum oracle computed by ``inputs.py``;
* optimize: ``max_efficiency`` against ``efficiency_via_cooperativities``;
* efficiency-curve: rows against ``dynamics.efficiency``;
* rings and materials: structural invariants (passive transmission, roots of
  the critical equation, ranking order).

A check returns ``None`` when the output is right, else a one-line reason.
Checks read the artifacts from disk as a stream and keep only the sampled
rows, so their memory stays small beside the op's own and does not show in
the workload's peak RSS.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np

from pomtrans import analysis, dynamics, materials, rings, sfg

TWO_PI = 2 * math.pi
RTOL = 1e-9
CHUNK = 1 << 20


def _close(got, expected, rtol=RTOL):
    return abs(got - expected) <= rtol * abs(expected)


def _linspace_at(start, stop, num, i):
    """``np.linspace(start, stop, num)[i]`` without building the grid."""
    if i == num - 1:
        return stop
    return float(i) * ((stop - start) / (num - 1)) + start


def _json(path):
    with open(path, "rb") as fh:
        return json.load(fh)


class Checker:
    def __init__(self):
        self._params = {}
        self._n_materials = len(materials.load_materials())

    def params(self, path, preset):
        key = (path, preset)
        if key not in self._params:
            self._params[key] = analysis.apply_preset(dynamics.load_params(path), preset)
        return self._params[key]

    def check(self, spec, paths):
        """``paths`` names the op's artifacts, in schedule order."""
        return getattr(self, "_" + spec["kind"])(spec, paths)

    @staticmethod
    def _table(path, header, n_rows, wanted):
        """Read a CSV in chunks; return ({row index: fields} for ``wanted``, error)."""
        wanted = sorted(set(wanted))
        rows = {}
        base = 0  # index of the first row in ``lines``
        rest = b""
        with open(path, "rb") as fh:
            first = fh.readline()
            if first != header.encode() + b"\n":
                return None, f"CSV header {first!r} != {header!r}"
            while chunk := fh.read(CHUNK):
                rest += chunk
                cut = rest.rfind(b"\n") + 1
                lines = rest[:cut].split(b"\n")[:-1]
                rest = rest[cut:]
                while wanted and wanted[0] < base + len(lines):
                    r = wanted.pop(0)
                    rows[r] = lines[r - base].decode("utf-8").split(",")
                base += len(lines)
        if base != n_rows or rest:
            return None, f"CSV has {base} rows, expected {n_rows}"
        return rows, None

    def _spectrum(self, c, paths):
        rows, err = self._table(paths[0], "frequency_hz,efficiency", c["points"], c["rows"])
        if err:
            return err
        p = self.params(c["params"], c["preset"])
        graph = dynamics.transducer_graph(
            dynamics.OperatingPoint(p, analysis.critical_photon_number(p)))
        for r in c["rows"]:
            freq, eta = (float(x) for x in rows[r])
            w = TWO_PI * _linspace_at(c["start"], c["stop"], c["points"], r)
            expected = abs(sfg.linear_solve_gain(graph, "c_in", "a_out", w)) ** 2
            if not _close(eta, expected):
                return f"spectrum row {r}: efficiency {eta!r} != linear solve {expected!r}"
            if not _close(freq, w / TWO_PI, 1e-11):
                return f"spectrum row {r}: frequency {freq!r} != {w / TWO_PI!r}"
        sidecar = _json(paths[1])
        if not 0 < sidecar["peak_efficiency"] <= 1:
            return f"spectrum peak efficiency {sidecar['peak_efficiency']!r} outside (0, 1]"
        return None

    def _contour(self, c, paths):
        (g_start, g_stop, n_g), (k_start, k_stop, n_k) = c["g_axis"], c["k_axis"]
        rows, err = self._table(
            paths[0], "log10_gEM_hz,log10_kex2_hz,max_efficiency", n_g * n_k, c["rows"])
        if err:
            return err
        base = dynamics.with_derived_gamma_ex(
            replace(self.params(c["params"], c["preset"]), gamma_m_supplied=None))
        g_grid = TWO_PI * np.logspace(math.log10(g_start), math.log10(g_stop), n_g)
        k_grid = TWO_PI * np.logspace(math.log10(k_start), math.log10(k_stop), n_k)
        for r in c["rows"]:
            i, j = divmod(r, n_k)
            log_g, log_k, eta = (float(x) for x in rows[r])
            cell = replace(base, g_em=float(g_grid[i]), kappa_ex2=float(k_grid[j]))
            op = dynamics.OperatingPoint(cell, analysis.critical_photon_number(cell))
            expected = dynamics.efficiency(op, cell.omega_m)
            if not _close(eta, expected):
                return f"contour cell {r}: {eta!r} != closed form {expected!r}"
            if (abs(log_g - math.log10(g_grid[i] / TWO_PI)) > 1e-10
                    or abs(log_k - math.log10(k_grid[j] / TWO_PI)) > 1e-10):
                return f"contour cell {r}: axis values ({log_g}, {log_k}) off the grid"
        return None

    def _coupling(self, c, paths):
        got = _json(paths[0])
        for key, expected in c["expected"].items():
            if key == "piezo_coupling_rad_s":
                g = complex(got[key]["re"], got[key]["im"])
                want = complex(expected["re"], expected["im"])
                ok = abs(g - want) <= RTOL * abs(want) and _close(got[key]["abs"], abs(want))
            else:
                ok = _close(got[key], expected)
            if not ok:
                return f"coupling {key}: {got[key]!r} != einsum oracle {expected!r}"
        return None

    def _optimize(self, c, paths):
        got = _json(paths[0])
        p = self.params(c["params"], c["preset"])
        op = dynamics.OperatingPoint(p, analysis.critical_photon_number(p))
        expected = analysis.efficiency_via_cooperativities(op, p.omega_m)
        for key in ("max_efficiency", "max_efficiency_derived_gamma_ex"):
            if not _close(got[key], expected):
                return f"optimize {key}: {got[key]!r} != via cooperativities {expected!r}"
        return None

    def _curve(self, c, paths):
        rows, err = self._table(
            paths[0], "power_w,intra_ring_photons,efficiency", c["points"], c["rows"])
        if err:
            return err
        p = self.params(c["params"], c["preset"])
        powers = np.logspace(math.log10(c["start"]), math.log10(c["stop"]), c["points"])
        offset = None if c["offset_hz"] is None else TWO_PI * c["offset_hz"]
        for r in c["rows"]:
            power, photons, eta = (float(x) for x in rows[r])
            n = dynamics.pump_power_to_photons(p, float(powers[r]), offset)
            expected = dynamics.efficiency(dynamics.OperatingPoint(p, n), p.omega_m)
            if not (_close(power, float(powers[r]), 1e-11) and _close(photons, n)):
                return f"curve row {r}: ({power!r}, {photons!r}) != ({powers[r]!r}, {n!r})"
            if not _close(eta, expected):
                return f"curve row {r}: efficiency {eta!r} != closed form {expected!r}"
        return None

    def _rings(self, c, paths):
        with open(paths[0], "rb") as fh:
            if fh.readline() != b"frequency_hz,transmission\n":
                return "rings CSV malformed"
            for line in fh:
                if not line.endswith(b"\n"):
                    return "rings CSV malformed"
                if not 0 <= float(line.split(b",")[1]) <= 1 + 1e-9:
                    return "rings transmission outside [0, 1]"
        side = _json(paths[1])
        rp = rings.RingPair(T=side["round_trip_time_s"], J=TWO_PI * side["ring_j_hz"],
                            loss=side["loss"], bus_coupling=side["bus_coupling"])
        for crit in side["critical_frequencies"]:
            residual = float(rings.critical_equation_residual(rp, TWO_PI * crit["frequency_hz"]))
            if residual > 1e-9:
                return f"rings critical frequency {crit} has residual {residual:.3g}"
        return None

    def _materials(self, c, paths):
        with open(paths[0], "rb") as fh:
            lines = fh.read().decode("utf-8").split("\n")
        rows = [ln.split(",") for ln in lines[1:-1]]
        if lines[0] != "rank,name,fom,fom_abs,defined,reason,fab" or lines[-1] != "":
            return "materials CSV malformed"
        if len(rows) != self._n_materials or any(len(r) != 7 for r in rows):
            return f"materials CSV has {len(rows)} rows, expected {self._n_materials}"
        if [int(r[0]) for r in rows] != list(range(1, len(rows) + 1)):
            return "materials ranks are not 1..n"
        defined = [r[4] == "yes" for r in rows]
        if defined != sorted(defined, reverse=True):
            return "materials: undefined figure of merit ranked above a defined one"
        foms = [float(r[3]) for r in rows if r[4] == "yes"]
        if foms != sorted(foms, reverse=True):
            return "materials: |fom| not in descending order"
        return None
