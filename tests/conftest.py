import json
import math
from importlib import resources

import numpy as np
import pytest

from pomtrans import dynamics, sfg

TWO_PI = 2 * math.pi


@pytest.fixture(scope="session")
def nominal_params() -> dynamics.TransducerParams:
    text = resources.files("pomtrans.data").joinpath("nominal_params.json").read_text("utf-8")
    return dynamics.params_from_dict(json.loads(text))


def random_valid_params(rng: np.random.Generator, supplied_gamma_ex: bool = False,
                        with_wavelength: bool = False) -> dynamics.TransducerParams:
    """Random physically valid parameter record.

    Rates are drawn log-uniform around the magnitudes of a GHz-scale device.
    When ``supplied_gamma_ex`` is set the supplied value stays at or below the
    derived total mechanical linewidth, keeping the record passive.
    """
    def logu(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    omega_m = TWO_PI * logu(0.5e9, 10e9)
    gamma_0 = TWO_PI * logu(0.1e6, 20e6)
    Gamma = TWO_PI * logu(1e9, 50e9)
    Gamma_0 = Gamma * rng.uniform(0.005, 0.5)
    g_em = TWO_PI * logu(10e6, 500e6)
    J = omega_m / 2
    kappa_1 = TWO_PI * logu(5e6, 200e6)
    kappa_02 = TWO_PI * logu(5e6, 200e6)
    kappa_ex2 = TWO_PI * logu(20e6, 1000e6)
    g_om = TWO_PI * logu(100, 10e3)
    gamma_ex = None
    if supplied_gamma_ex:
        gamma_m = gamma_0 + 4 * g_em**2 / Gamma
        gamma_ex = gamma_m * rng.uniform(0.05, 1.0)
    return dynamics.TransducerParams(
        omega_m=omega_m, gamma_0=gamma_0, Gamma_0=Gamma_0, Gamma=Gamma,
        g_em=g_em, J=J, delta_1=omega_m, delta_2=omega_m,
        kappa_1=kappa_1, kappa_02=kappa_02, kappa_ex2=kappa_ex2, g_om=g_om,
        gamma_ex=gamma_ex,
        lambda_l=1.55e-6 if with_wavelength else None,
    )


def read_table(path) -> dict[str, np.ndarray]:
    """Columns of a CSV table written by ``SweepResult.to_csv``, by header name."""
    with open(path, encoding="utf-8") as fh:
        names = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return dict(zip(names, data.T))


def random_graph(rng: np.random.Generator, n_nodes: int | None = None,
                 acyclic: bool = False, omega_dependent: bool = True):
    """Random signal flow graph with one guaranteed source and sink.

    Gains are kept small enough that loop products stay bounded; graphs whose
    determinant gets close to zero anywhere relevant are simply regenerated by
    the caller.  Returns (graph, source id, sink id).
    """
    n = int(n_nodes if n_nodes is not None else rng.integers(3, 8))
    names = [f"n{i}" for i in range(n)]
    src, dst = names[0], names[-1]

    def gain_fn():
        c = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)) / n
        if omega_dependent and rng.random() < 0.5:
            tau = float(rng.uniform(0.1, 2.0))
            return lambda w, c=c, tau=tau: c / (1 - 1j * w * tau)
        return lambda w, c=c: c

    edges = {}
    # a guaranteed route so src -> dst exists
    route = names[0:1] + sorted(rng.permutation(names[1:-1]).tolist()) + names[-1:]
    for u, v in zip(route, route[1:]):
        edges[(u, v)] = sfg.SfgEdge(u, v, gain_fn())
    n_extra = int(rng.integers(n, 3 * n))
    for _ in range(n_extra):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        if acyclic and i >= j:
            i, j = min(i, j), max(i, j)
            if i == j:
                continue
        u, v = names[i], names[j]
        if u == dst or v == src:
            continue  # keep src a source and dst a sink
        if (u, v) not in edges:
            edges[(u, v)] = sfg.SfgEdge(u, v, gain_fn())
    return sfg.SignalFlowGraph(edges.values()), src, dst


def coupling_input_fields():
    """The small analytic ``(EM, mechanical)`` field pair of :func:`write_coupling_inputs`."""
    from pomtrans import coupling

    grid = coupling.Grid3D((0, 0, 0), (1e-7, 1e-7, 0.25e-7), (5, 5, 41))
    z = grid.meshgrid()[2]
    e_comps = np.zeros((3, *grid.shape), dtype=complex)
    e_comps[0] = 1.0
    w_comps = np.zeros((3, *grid.shape), dtype=complex)
    w_comps[2] = 1e-4 * np.sin(math.pi * z / 1e-6)
    return (coupling.ModeField(grid, e_comps, coupling.EM, TWO_PI * 1.935e14),
            coupling.ModeField(grid, w_comps, coupling.MECH, TWO_PI * 3.285e9))


def top_hat(grid, kind, frequency, amplitude, polarization, lo, hi):
    """Uniform field on the axis-aligned box [lo, hi], zero outside."""
    from pomtrans import coupling

    x, y, z = grid.meshgrid()
    inside = (
        (x >= lo[0]) & (x <= hi[0])
        & (y >= lo[1]) & (y <= hi[1])
        & (z >= lo[2]) & (z <= hi[2])
    )
    comps = np.zeros((3, *grid.shape), dtype=complex)
    comps[polarization] = amplitude * inside
    return coupling.ModeField(grid, comps, kind, frequency)


def write_coupling_inputs(directory) -> list[str]:
    """Small analytic EM/mechanical fields and a tensor file for ``coupling``.

    Writes ``e.csv``, ``w.csv`` and ``tensors.json`` into ``directory`` and
    returns the matching ``--em-field/--mech-field/--tensors`` arguments.
    """
    from pomtrans import coupling

    e_field, w_field = coupling_input_fields()
    coupling.save_mode_field(directory / "e.csv", e_field)
    coupling.save_mode_field(directory / "w.csv", w_field)
    h = np.zeros((3, 6)); h[2, 2] = 0.145
    p = np.zeros((6, 6)); p[0, 2] = 0.239
    (directory / "tensors.json").write_text(json.dumps({
        "rho": 3255.0, "eps_rf": 9.5, "eps_ir": 3.67,
        "h": h.tolist(), "p": p.tolist(),
    }))
    return ["--em-field", str(directory / "e.csv"), "--mech-field", str(directory / "w.csv"),
            "--tensors", str(directory / "tensors.json")]
