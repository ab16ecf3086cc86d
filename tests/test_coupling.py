import cmath
import dataclasses
import inspect
import json
import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import coupling_input_fields, top_hat

from pomtrans import coupling
from pomtrans.constants import EPSILON_0, HBAR
from pomtrans.errors import GridError, MaterialDataError, ParameterError
from pomtrans.sweep import CSV_BLOCK_ROWS

TWO_PI = 2 * math.pi


def box_grid(n=33, length=1.0e-6):
    spacing = length / (n - 1)
    return coupling.Grid3D(origin=(0.0, 0.0, 0.0),
                           spacing=(spacing, spacing, spacing),
                           counts=(n, n, n))


def box_volume(grid: coupling.Grid3D) -> float:
    """Volume spanned by the grid's sample points; an axis of one point adds no length."""
    return math.prod(
        grid.spacing[k] * (grid.counts[k] - 1) for k in range(3) if grid.counts[k] > 1)


def simple_material(h33=0.1, p33=0.5, eps_rf=10.0, eps_ir=4.0, rho=3000.0):
    h = np.zeros((3, 6))
    h[2, 2] = h33
    p = np.zeros((6, 6))
    p[2, 2] = p33
    return coupling.MaterialTensorSet(rho=rho, eps_rf=eps_rf, eps_ir=eps_ir, h=h, p=p)


# --- Voigt notation -----------------------------------------------------------


def test_voigt_forward_mapping():
    assert coupling.voigt_index(1, 1) == 1
    assert coupling.voigt_index(2, 2) == 2
    assert coupling.voigt_index(3, 3) == 3
    assert coupling.voigt_index(2, 3) == coupling.voigt_index(3, 2) == 4
    assert coupling.voigt_index(1, 3) == coupling.voigt_index(3, 1) == 5
    assert coupling.voigt_index(1, 2) == coupling.voigt_index(2, 1) == 6


def test_voigt_rank4_pair_mapping():
    # the elastic-constant compression c_2223 -> c_24
    assert (coupling.voigt_index(2, 2), coupling.voigt_index(2, 3)) == (2, 4)


def test_voigt_round_trip():
    # both orders of a pair land on one index, and the nine pairs reach all six
    indices = {(i, j): coupling.voigt_index(i, j) for i in range(1, 4) for j in range(1, 4)}
    assert all(indices[i, j] == indices[j, i] for i, j in indices)
    assert sorted(set(indices.values())) == [1, 2, 3, 4, 5, 6]


def test_voigt_out_of_range():
    with pytest.raises(ParameterError):
        coupling.voigt_index(0, 1)


def test_rank3_expansion_places_elements():
    m = np.zeros((3, 6))
    m[0, 4] = 1.5  # h_15 <-> h_113 = h_131
    full = coupling.rank3_from_voigt(m)
    assert full[0, 0, 2] == 1.5
    assert full[0, 2, 0] == 1.5
    assert full[0, 0, 0] == 0.0


def test_rank4_expansion_not_symmetrized():
    m = np.zeros((6, 6))
    m[0, 3] = 2.0  # p_14
    m[3, 0] = -1.0  # p_41 differs: the matrix need not be symmetric
    full = coupling.rank4_from_voigt(m)
    assert full[0, 0, 1, 2] == 2.0
    assert full[0, 0, 2, 1] == 2.0
    assert full[1, 2, 0, 0] == -1.0


@pytest.mark.parametrize("expand, shape, message", [
    (coupling.rank3_from_voigt, (6, 3), "expected a 3x6 Voigt matrix, got shape (6, 3)"),
    (coupling.rank3_from_voigt, (18,), "expected a 3x6 Voigt matrix, got shape (18,)"),
    (coupling.rank4_from_voigt, (3, 6), "expected a 6x6 Voigt matrix, got shape (3, 6)"),
])
def test_voigt_expansion_rejects_a_wrong_shape(expand, shape, message):
    with pytest.raises(ParameterError) as info:
        expand(np.zeros(shape))
    assert str(info.value) == message


# --- strain --------------------------------------------------------------------


def test_uniform_translation_has_zero_strain():
    grid = box_grid(9)
    comps = np.zeros((3, *grid.shape), dtype=complex)
    comps[0] = 1.0 + 0.5j
    w = coupling.ModeField(grid, comps, coupling.MECH, TWO_PI * 1e9)
    grads = coupling.strain_field(w)
    assert np.max(np.abs(grads)) == 0.0


def test_affine_displacement_is_exact():
    grid = box_grid(9)
    x, _, _ = grid.meshgrid()
    alpha = 3.7e3
    comps = np.zeros((3, *grid.shape), dtype=complex)
    comps[0] = alpha * x
    w = coupling.ModeField(grid, comps, coupling.MECH, TWO_PI * 1e9)
    grads = coupling.strain_field(w)
    np.testing.assert_allclose(grads[0, 0].real, alpha, rtol=1e-12)
    assert np.max(np.abs(grads[1])) == 0.0


def test_degenerate_axis_rejected():
    grid = coupling.Grid3D((0, 0, 0), (1e-7, 1e-7, 1e-7), (5, 2, 5))
    comps = np.zeros((3, 5, 2, 5), dtype=complex)
    w = coupling.ModeField(grid, comps, coupling.MECH, 1.0)
    with pytest.raises(GridError, match="axis 1"):
        coupling.strain_field(w)


def test_plane_wave_gradient_second_order_convergence():
    # d/dz of A e^{iqz} is iq A e^{iqz}; measure the discretization order
    length = 1.0e-6
    q = 2 * math.pi * 2.3 / length  # non-integer periods: genuine O(h^2) error
    errors = []
    for n in (17, 33, 65):
        spacing = length / (n - 1)
        grid = coupling.Grid3D((0, 0, 0), (spacing, spacing, spacing), (5, 5, n))
        z = grid.meshgrid()[2]
        comps = np.zeros((3, *grid.shape), dtype=complex)
        comps[0] = np.exp(1j * q * z)
        w = coupling.ModeField(grid, comps, coupling.MECH, 1.0)
        grads = coupling.strain_field(w)
        err = np.max(np.abs(grads[0, 2] - 1j * q * comps[0]))
        errors.append(err)
    order1 = math.log2(errors[0] / errors[1])
    order2 = math.log2(errors[1] / errors[2])
    assert order1 >= 1.9
    assert order2 >= 1.9


# --- mode volumes and effective mass -----------------------------------------------


@pytest.mark.parametrize("check, message", [
    (lambda e, w: coupling.strain_field(e), "strain is defined for mechanical displacement fields"),
    (lambda e, w: coupling.mech_mode_volume(e), "expected a mechanical displacement field"),
    (lambda e, w: coupling.em_mode_volume(w, 0.1), "expected an electromagnetic field"),
    (lambda e, w: coupling.require_matching(w, e), "expected (EM field, mechanical field)"),
    (lambda e, w: coupling.optomech_coupling(w, e, simple_material()),
     "expected (EM field, mechanical field)"),
], ids=["strain_field", "mech_mode_volume", "em_mode_volume", "require_matching",
        "optomech_coupling"])
def test_field_of_the_wrong_kind_rejected(check, message):
    e, w = coupling_input_fields()
    with pytest.raises(ParameterError) as info:
        check(e, w)
    assert str(info.value) == message


def test_uniform_field_mode_volume_is_box_volume():
    grid = box_grid(21, length=2.0e-6)
    comps = np.zeros((3, *grid.shape), dtype=complex)
    comps[1] = 0.3 - 0.1j
    w = coupling.ModeField(grid, comps, coupling.MECH, 1.0)
    assert coupling.mech_mode_volume(w) == pytest.approx(box_volume(grid), rel=1e-12)
    e = coupling.ModeField(grid, comps, coupling.EM, 1.0)
    assert coupling.em_mode_volume(e, 0.1) == pytest.approx(box_volume(grid), rel=1e-12)


def test_mode_volume_scale_invariance():
    grid = box_grid(17)
    x, y, z = grid.meshgrid()
    comps = np.zeros((3, *grid.shape), dtype=complex)
    comps[0] = np.sin(2 * math.pi * x / 1e-6) + 0.2
    comps[2] = np.cos(2 * math.pi * z / 1e-6) * 1j
    w = coupling.ModeField(grid, comps, coupling.MECH, 1.0)
    v0 = coupling.mech_mode_volume(w)
    for alpha in (2.0, 17.5, 1e-3):
        assert coupling.mech_mode_volume(w.scaled(alpha)) == pytest.approx(v0, rel=1e-10)


def test_half_box_top_hat_mode_volume():
    grid = box_grid(41, length=1.0e-6)
    half = top_hat(
        grid, coupling.MECH, 1.0, amplitude=2.0, polarization=0,
        lo=(0, 0, 0), hi=(1.0e-6, 1.0e-6, 0.5e-6),
    )
    # a flat density on half the box has V_eff = V/2; the top-hat edge is
    # resolved exactly on this grid (boundary on a sample plane)
    expected = box_volume(grid) / 2
    assert coupling.mech_mode_volume(half) == pytest.approx(expected, rel=1e-9)


def test_zero_field_mode_volume_rejected():
    grid = box_grid(9)
    comps = np.zeros((3, *grid.shape), dtype=complex)
    w = coupling.ModeField(grid, comps, coupling.MECH, 1.0)
    with pytest.raises(ParameterError, match="zero"):
        coupling.mech_mode_volume(w)


def test_underflowing_mechanical_volume_integral_rejected():
    # the normalized density squared underflows to 0; this used to raise ZeroDivisionError
    grid = coupling.Grid3D((0.0, 0.0, 0.0), (1e100,) * 3, (5, 5, 5))
    w = coupling.ModeField(grid, np.ones((3, 5, 5, 5)), coupling.MECH, 1.0)
    with pytest.raises(ParameterError, match="^mode field intensity integral underflows to 0, "
                                             "though the field is not zero$"):
        coupling.mech_mode_volume(w)


@pytest.mark.parametrize("amplitude, message", [
    (0.0, "^mode field is identically zero$"),
    # eta_eff |E|^2 ~ 1e-201 integrates to about 1e-219, but its square underflows to 0
    (1e-100, "^mode field intensity integral underflows to 0, though the field is not zero$"),
    # |E|^2 underflows already, so both integrals are 0
    (1e-170, "^mode field intensity integral underflows to 0, though the field is not zero$"),
])
def test_each_em_volume_integral_rejects_zero(monkeypatch, amplitude, message):
    grid = box_grid(9)
    comps = np.zeros((3, *grid.shape), dtype=complex)
    comps[0] = amplitude
    walks, walk = [], coupling._slab_integral

    def spy(grid, integrand):
        walks.append(grid)
        return walk(grid, integrand)

    monkeypatch.setattr(coupling, "_slab_integral", spy)
    with pytest.raises(ParameterError, match=message):
        coupling.em_mode_volume(coupling.ModeField(grid, comps, coupling.EM, 1.0), 1 / 9.5)
    # both integrals are taken in one walk of the grid
    assert len(walks) == 1


@pytest.mark.parametrize("kind, factor, volume", [
    (coupling.MECH, 1e200, coupling.mech_mode_volume),
    (coupling.EM, 1e100, lambda e: coupling.em_mode_volume(e, 1 / 9.5)),
])
def test_overflowing_field_intensity_rejected_by_kind(kind, factor, volume):
    # no caller error state: numpy would warn (an error under this suite's filter) or,
    # for the Python-float square of the EM integral, raise OverflowError
    e, w = coupling_input_fields()
    field = (e if kind == coupling.EM else w).scaled(factor)
    with pytest.raises(ParameterError, match=rf"^{kind} mode field intensity overflows to inf, "
                                             "though the field is finite$"):
        volume(field)


def _whole_grid_volumes(f, eta_eff):
    """The mode volumes from whole-grid intensities and trapezoid_3d, the slab walk's oracle."""
    intensity = np.sum(np.abs(f.components) ** 2, axis=0)
    density = intensity / float(coupling.trapezoid_3d(intensity, f.grid))
    mech = 1.0 / float(coupling.trapezoid_3d(density**2, f.grid))
    weighted = eta_eff * intensity
    em = (float(coupling.trapezoid_3d(weighted, f.grid))**2
          / float(coupling.trapezoid_3d(weighted**2, f.grid)))
    return mech, em


@pytest.mark.parametrize("block_rows", [7, CSV_BLOCK_ROWS])
@pytest.mark.parametrize("counts", [(1, 1, 2), (1, 7, 9), (3, 1, 5), (130, 3, 1), (2, 200, 100),
                                    (9, 4, 6)], ids=str)
def test_mode_volumes_walk_the_slabs_to_trapezoid_3d_bits(monkeypatch, block_rows, counts):
    # one-point axes are taken as their samples, and the x-planes of many slabs add up alike
    rng = np.random.default_rng(sum(counts))
    grid = coupling.Grid3D((0.0, -1e-7, 2e-7), (1e-8, 2e-8, 3e-8), counts)
    comps = (rng.normal(size=(3, *counts)) * 10 ** rng.uniform(-3, 3, (3, *counts))
             + 1j * rng.normal(size=(3, *counts)))
    monkeypatch.setattr(coupling, "CSV_BLOCK_ROWS", block_rows)
    mech = coupling.mech_mode_volume(coupling.ModeField(grid, comps, coupling.MECH, 1.0))
    em = coupling.em_mode_volume(coupling.ModeField(grid, comps, coupling.EM, 1.0), 0.37)
    assert type(mech) is float and type(em) is float
    assert (mech, em) == _whole_grid_volumes(coupling.ModeField(grid, comps, coupling.EM, 1.0), 0.37)
    if block_rows == 7 and counts[0] > 1:
        assert len(list(coupling._x_slabs(grid))) >= 2


def test_mode_volume_peak_memory_is_a_few_slabs():
    # whole-grid intensities and their squares took 32-33 B per voxel, 8.5 MB here
    grid = coupling.Grid3D((0.0, 0.0, 0.0), (1e-8, 1e-8, 1e-8), (64, 64, 64))
    rng = np.random.default_rng(9)
    comps = rng.normal(size=(3, *grid.shape)) + 1j * rng.normal(size=(3, *grid.shape))
    w = coupling.ModeField(grid, comps, coupling.MECH, 1.0)
    e = coupling.ModeField(grid, comps, coupling.EM, 1.0)
    tracemalloc.start()
    try:
        coupling.mech_mode_volume(w)
        coupling.em_mode_volume(e, 0.37)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_normalization_convention():
    # after normalization the integrated intensity equals the mode volume
    grid = box_grid(17)
    z = grid.meshgrid()[2]
    comps = np.zeros((3, *grid.shape), dtype=complex)
    comps[1] = np.sin(2 * math.pi * z / 1e-6) + 0.4
    w = coupling.normalize_mech(coupling.ModeField(grid, comps, coupling.MECH, 1.0))
    total = coupling.trapezoid_3d(np.sum(np.abs(w.components) ** 2, axis=0), grid)
    assert float(total) == pytest.approx(coupling.mech_mode_volume(w), rel=1e-12)
    e = coupling.normalize_em(
        coupling.ModeField(grid, comps, coupling.EM, 1.0), eta_eff=0.25)
    total_e = coupling.trapezoid_3d(np.sum(np.abs(e.components) ** 2, axis=0), grid)
    assert float(total_e) == pytest.approx(coupling.em_mode_volume(e, 0.25), rel=1e-12)


def test_effective_mass_uniform_density():
    grid = box_grid(21)
    comps = np.zeros((3, *grid.shape), dtype=complex)
    comps[2] = 1.0
    w = coupling.normalize_mech(coupling.ModeField(grid, comps, coupling.MECH, 1.0))
    rho = 3255.0
    m_eff = coupling.effective_mass(w, w, rho)
    v_eff = coupling.mech_mode_volume(w)
    assert m_eff.imag == pytest.approx(0.0, abs=1e-20)
    assert m_eff.real == pytest.approx(rho * v_eff, rel=1e-10)
    assert m_eff.real > 0


def test_orthogonal_plane_waves_residual():
    # two Fourier modes over a full-period box are orthogonal
    n = 65
    length = 1.0e-6
    spacing = length / (n - 1)
    grid = coupling.Grid3D((0, 0, 0), (spacing, spacing, spacing), (3, 3, n))
    q1 = 2 * math.pi * 1 / length
    q2 = 2 * math.pi * 3 / length
    w1 = coupling.plane_wave(grid, coupling.MECH, 1.0, 1.0, (0, 0, q1), 0)
    w2 = coupling.plane_wave(grid, coupling.MECH, 1.0, 1.0, (0, 0, q2), 0)
    rho = 2300.0
    m11 = coupling.effective_mass(w1, w1, rho)
    residual = coupling.effective_mass(w1, w2, rho)
    assert abs(residual) <= 1e-10 * abs(m11)


def test_effective_mass_grid_mismatch():
    w1 = coupling.plane_wave(box_grid(9), coupling.MECH, 1.0, 1.0, (0, 0, 0), 0)
    w2 = coupling.plane_wave(box_grid(11), coupling.MECH, 1.0, 1.0, (0, 0, 0), 0)
    with pytest.raises(GridError):
        coupling.effective_mass(w1, w2, 1000.0)


# --- piezoelectric coupling ----------------------------------------------------------


def test_piezo_zero_tensor_gives_zero():
    grid = box_grid(17)
    mat = simple_material(h33=0.0)
    e = coupling.plane_wave(grid, coupling.EM, TWO_PI * 1e10, 1.0, (0, 0, 0), 2)
    z = grid.meshgrid()[2]
    comps = np.zeros((3, *grid.shape), dtype=complex)
    comps[2] = np.sin(2 * math.pi * z / 1e-6)
    w = coupling.ModeField(grid, comps, coupling.MECH, TWO_PI * 3e9)
    assert coupling.piezo_coupling(e, w, mat, (3, 3, 3)) == 0j
    assert coupling.piezo_coupling_total(e, w, mat) == 0j


def test_piezo_orthogonal_polarizations_give_zero():
    # E polarized along x, strain purely x_33; tensor pattern with h_15/h_3j
    # elements only and h_13 = 0: no element connects them
    grid = box_grid(17)
    h = np.zeros((3, 6))
    h[0, 4] = 0.08  # h_15
    h[1, 3] = 0.08  # h_24
    h[2, 0] = -0.05  # h_31
    h[2, 1] = -0.05  # h_32
    h[2, 2] = 0.15  # h_33;  h_13 (row 1, col 3) stays zero
    mat = coupling.MaterialTensorSet(rho=3000.0, eps_rf=9.0, eps_ir=4.0, h=h)
    e = coupling.plane_wave(grid, coupling.EM, TWO_PI * 1e10, 1.0, (0, 0, 0), 0)
    z = grid.meshgrid()[2]
    comps = np.zeros((3, *grid.shape), dtype=complex)
    comps[2] = 1e-3 * z  # strain x_33 only
    w = coupling.ModeField(grid, comps, coupling.MECH, TWO_PI * 3e9)
    g_orth = coupling.piezo_coupling_total(e, w, mat)
    # reference magnitude: the same geometry with the connecting element set
    h_ref = h.copy()
    h_ref[0, 2] = 0.15  # h_13 nonzero now connects E_x to x_33
    mat_ref = coupling.MaterialTensorSet(rho=3000.0, eps_rf=9.0, eps_ir=4.0, h=h_ref)
    g_ref = coupling.piezo_coupling_total(e, w, mat_ref)
    # only rounding noise survives (1-ulp residues of the discrete gradient)
    assert abs(g_orth) <= 1e-12 * abs(g_ref)


def test_piezo_plane_wave_matches_hand_evaluation():
    # phase-conjugate plane waves: the overlap integrand is constant, so the
    # only numerical error is the O((q h)^2) bias of the discrete derivative
    length = 1.0e-6
    cycles = 3
    q = 2 * math.pi * cycles / length
    amp_w = 2.2e-4
    omega_em = TWO_PI * 1.0e10
    omega_mech = TWO_PI * 3.285e9
    mat = simple_material(h33=0.145, eps_rf=9.5, rho=3255.0)

    def setup(nz):
        spacing = (0.5e-6, 0.5e-6, length / (nz - 1))
        grid = coupling.Grid3D((0, 0, 0), spacing, (3, 3, nz))
        e = coupling.plane_wave(grid, coupling.EM, omega_em, 1.0, (0, 0, -q), 2)
        w = coupling.plane_wave(grid, coupling.MECH, omega_mech, amp_w, (0, 0, q), 2)
        return grid, e, w

    grid, e, w = setup(41)
    v_em = coupling.em_mode_volume(e, mat.eta_eff)
    v_mech = coupling.mech_mode_volume(w)
    volume = box_volume(grid)
    assert v_em == pytest.approx(volume, rel=1e-9)
    assert v_mech == pytest.approx(volume, rel=1e-9)

    grads = coupling.strain_field(w)
    overlap = coupling.overlap_integral(e, grads, 3, 3, component=3)
    qh = q * grid.spacing[2]
    assert overlap == pytest.approx(1j * q * amp_w * volume, rel=1.2 * qh**2 / 6)

    # the assembled constant matches the hand-evaluated prefactor exactly
    prefactor = (
        1j * math.sqrt(omega_em / omega_mech) / (4 * volume)
        * math.sqrt(0.145**2 / (mat.eta_eff * mat.rho))
    )
    g = coupling.piezo_coupling(e, w, mat, (3, 3, 3))
    assert g == pytest.approx(prefactor * overlap, rel=1e-12)
    assert g == pytest.approx(prefactor * (1j * q * amp_w * volume), rel=1e-6 + qh**2 / 5)
    # the full-tensor sum reduces to the same single element here
    g_total = coupling.piezo_coupling_total(e, w, mat)
    assert g_total == pytest.approx(g, rel=1e-12)

    # with the derivative resolved, the full value meets the closed form at 1e-6
    grid_f, e_f, w_f = setup(8193)
    g_fine = coupling.piezo_coupling(e_f, w_f, mat, (3, 3, 3))
    expected = (
        1j * math.sqrt(omega_em / omega_mech) / (4 * box_volume(grid_f))
        * math.sqrt(0.145**2 / (mat.eta_eff * mat.rho))
        * (1j * q * amp_w * box_volume(grid_f))
    )
    assert g_fine == pytest.approx(expected, rel=1e-6)


def test_piezo_purely_imaginary_for_real_fields():
    grid = box_grid(17)
    z = grid.meshgrid()[2]
    e_comps = np.zeros((3, *grid.shape), dtype=complex)
    e_comps[2] = np.cos(2 * math.pi * z / 1e-6)
    w_comps = np.zeros((3, *grid.shape), dtype=complex)
    w_comps[2] = np.sin(2 * math.pi * z / 1e-6) * 1e-3
    e = coupling.ModeField(grid, e_comps, coupling.EM, TWO_PI * 1e10)
    w = coupling.ModeField(grid, w_comps, coupling.MECH, TWO_PI * 3e9)
    g = coupling.piezo_coupling_total(e, w, simple_material())
    assert g.real == pytest.approx(0.0, abs=1e-20 * max(abs(g), 1.0))


def test_piezo_total_is_the_signed_sum_of_the_element_terms():
    # a shear Voigt entry h_iJ sets two tensor elements, h_iab and h_iba, so it adds two
    # piezo_coupling terms to the total, not one
    grid = box_grid(9)
    shape = (3, *grid.shape)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        e = coupling.ModeField(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape),
                               coupling.EM, TWO_PI * 1e10)
        w = coupling.ModeField(grid, 1e-3 * (rng.normal(size=shape) + 1j * rng.normal(size=shape)),
                               coupling.MECH, TWO_PI * 3e9)
        mat = coupling.MaterialTensorSet(rho=3000.0, eps_rf=9.0, eps_ir=4.0,
                                         h=rng.normal(size=(3, 6)))
        h = coupling.rank3_from_voigt(mat.h)
        terms = sum(np.sign(h[i, j, k]) * coupling.piezo_coupling(e, w, mat, (i + 1, j + 1, k + 1))
                    for i, j, k in np.ndindex(3, 3, 3))
        total = coupling.piezo_coupling_total(e, w, mat)
        assert abs(terms - total) <= 1e-12 * abs(total)

def test_piezo_unknown_element_raises():
    grid = box_grid(9)
    h = np.zeros((3, 6))
    h[2, 2] = math.nan
    mat = coupling.MaterialTensorSet(rho=3000.0, eps_rf=9.0, eps_ir=4.0, h=h)
    z = grid.meshgrid()[2]
    comps = np.zeros((3, *grid.shape), dtype=complex)
    comps[2] = 1e-3 * z
    e = coupling.plane_wave(grid, coupling.EM, TWO_PI * 1e10, 1.0, (0, 0, 0), 2)
    w = coupling.ModeField(grid, comps, coupling.MECH, TWO_PI * 3e9)
    with pytest.raises(MaterialDataError, match="h_333"):
        coupling.piezo_coupling(e, w, mat, (3, 3, 3))
    with pytest.raises(MaterialDataError, match="h_333"):
        coupling.piezo_coupling_total(e, w, mat)


def test_disjoint_supports_give_exactly_zero():
    grid = box_grid(33, length=1.0e-6)
    e = top_hat(grid, coupling.EM, TWO_PI * 1e10, 1.0, 2,
                lo=(0, 0, 0.0), hi=(1e-6, 1e-6, 0.4e-6))
    # displacement confined to the far half; gradient support stays clear of
    # the EM support
    z = grid.meshgrid()[2]
    comps = np.zeros((3, *grid.shape), dtype=complex)
    comps[2] = np.where(z >= 0.7e-6, (z - 0.7e-6) * 1e-3, 0.0)
    w = coupling.ModeField(grid, comps, coupling.MECH, TWO_PI * 3e9)
    g = coupling.piezo_coupling(e, w, simple_material(), (3, 3, 3))
    assert g == 0j
    assert coupling.optomech_coupling(e, w, simple_material()) == 0.0


# --- optomechanical coupling -----------------------------------------------------------


def test_optomech_zero_photoelasticity():
    grid = box_grid(17)
    mat = simple_material(p33=0.0)
    e = coupling.plane_wave(grid, coupling.EM, TWO_PI * 2e14, 1.0, (0, 0, 0), 0)
    z = grid.meshgrid()[2]
    comps = np.zeros((3, *grid.shape), dtype=complex)
    comps[2] = 1e-4 * z
    w = coupling.ModeField(grid, comps, coupling.MECH, TWO_PI * 3e9)
    assert coupling.optomech_coupling(e, w, mat) == 0.0


def test_optomech_global_phase_invariance():
    grid = box_grid(17)
    z = grid.meshgrid()[2]
    comps = np.zeros((3, *grid.shape), dtype=complex)
    comps[2] = np.sin(2 * math.pi * z / 1e-6) * 1e-4
    w = coupling.ModeField(grid, comps, coupling.MECH, TWO_PI * 3e9)
    e = coupling.plane_wave(grid, coupling.EM, TWO_PI * 2e14, 1.0, (0, 0, 4e6), 2)
    mat = simple_material(p33=0.77)
    base = coupling.optomech_coupling(e, w, mat)
    for phase in (0.4, 1.9, math.pi):
        rotated = e.scaled(np.exp(1j * phase))
        assert coupling.optomech_coupling(rotated, w, mat) == pytest.approx(base, rel=1e-12)


def test_optomech_linear_in_photoelastic_element():
    # TE-like field with only |E_x|^2, strain only x_33, p with only p_13.  The
    # overlap is p13 * L^2 * integral of cos^2(pi z/2L) (pi amp/L) cos(pi z/L) dz
    # = p13 * L^2 * amp * pi/4; a cos^3(pi z/L) profile would integrate to 0
    length, amp = 1e-6, 1e-4
    grid = box_grid(17, length)
    z = grid.meshgrid()[2]
    e_comps = np.zeros((3, *grid.shape), dtype=complex)
    e_comps[0] = np.cos(math.pi * z / (2 * length))
    e = coupling.ModeField(grid, e_comps, coupling.EM, TWO_PI * 2e14)
    w_comps = np.zeros((3, *grid.shape), dtype=complex)
    w_comps[2] = np.sin(math.pi * z / length) * amp
    w = coupling.ModeField(grid, w_comps, coupling.MECH, TWO_PI * 3e9)

    def material(p13):
        p = np.zeros((6, 6))
        p[0, 2] = p13
        return coupling.MaterialTensorSet(rho=317.0, eps_rf=4.2, eps_ir=3.99, p=p)

    mat = material(0.239)
    g1 = coupling.optomech_coupling(e, w, mat)
    g2 = coupling.optomech_coupling(e, w, material(0.478))
    assert g2 == pytest.approx(2 * g1, rel=1e-12)
    v_em = coupling.em_mode_volume(e, mat.eta_eff)
    v_mech = coupling.mech_mode_volume(w)
    prefactor = math.sqrt(HBAR / (32 * mat.rho * v_mech * EPSILON_0**2 * mat.eta_eff**2
                                  * v_em**2 * w.frequency))
    # 17 points per axis: the stencil and the quadrature are off by O(h^2)
    assert g1 == pytest.approx(prefactor * 0.239 * length**2 * amp * math.pi / 4, rel=5e-3)


def test_optomech_hand_prefactor():
    # |E_x|^2 is unity everywhere, so the overlap is the volume integral of
    # dw_z/dz alone: area * (w_z(L) - w_z(0)) = area * amp for a quarter wave
    n = 65
    length = 1.0e-6
    spacing = length / (n - 1)
    grid = coupling.Grid3D((0, 0, 0), (spacing, spacing, spacing), (n, n, n))
    amp = 3e-5
    omega_mech = TWO_PI * 3.285e9
    e = coupling.plane_wave(grid, coupling.EM, TWO_PI * 2e14, 1.0, (0, 0, 7e6), 0)
    z = grid.meshgrid()[2]
    w_comps = np.zeros((3, *grid.shape), dtype=complex)
    w_comps[2] = amp * np.sin(math.pi * z / (2 * length))
    w = coupling.ModeField(grid, w_comps, coupling.MECH, omega_mech)

    p13 = 0.31
    p = np.zeros((6, 6))
    p[0, 2] = p13
    mat = coupling.MaterialTensorSet(rho=2650.0, eps_rf=4.6, eps_ir=2.36, p=p)

    v_em = coupling.em_mode_volume(e, mat.eta_eff)
    v_mech = coupling.mech_mode_volume(w)
    area = length * length
    overlap = p13 * amp * area
    expected = math.sqrt(
        HBAR / (32 * mat.rho * v_mech * EPSILON_0**2 * mat.eta_eff**2
                * v_em**2 * omega_mech)
    ) * overlap
    got = coupling.optomech_coupling(e, w, mat)
    assert got == pytest.approx(expected, rel=1e-3)


# --- quadrature convergence of the full overlap route ------------------------------------


def test_overlap_quadrature_convergence_order():
    # oscillatory, non-periodic integrand: error must fall off as h^2 and
    # reach 1e-6 relative after two refinements
    length = 1.0e-6
    q_e = 2 * math.pi * 1.7 / length
    q_w = 2 * math.pi * 2.4 / length
    amp = 1e-4

    def overlap_at(n):
        # transverse extent is held fixed; only the oscillatory axis refines
        spacing = (0.5e-6, 0.5e-6, length / (n - 1))
        grid = coupling.Grid3D((0, 0, 0), spacing, (3, 3, n))
        e = coupling.plane_wave(grid, coupling.EM, 1.0, 1.0, (0, 0, -q_e), 2)
        w = coupling.plane_wave(grid, coupling.MECH, 1.0, amp, (0, 0, q_w), 2)
        grads = coupling.strain_field(w)
        return complex(coupling.overlap_integral(e, grads, 3, 3, component=3))

    dq = q_w - q_e
    area = 1.0e-6 * 1.0e-6
    exact = area * 1j * q_w * amp * (np.exp(1j * dq * length) - 1) / (1j * dq)

    errors = []
    for n in (2049, 4097, 8193):
        errors.append(abs(overlap_at(n) - exact))
    order1 = math.log2(errors[0] / errors[1])
    order2 = math.log2(errors[1] / errors[2])
    assert order1 >= 1.9
    assert order2 >= 1.9
    assert errors[-1] <= 1e-6 * abs(exact)


# --- material tensor set -----------------------------------------------------------------


def test_h_e_consistency_check():
    eta = np.eye(3) * 0.1
    e_tensor = np.zeros((3, 6))
    e_tensor[2, 2] = 1.5
    h_good = eta @ e_tensor
    coupling.MaterialTensorSet(rho=3000.0, eps_rf=10.0, eps_ir=4.0,
                               h=h_good, e=e_tensor, eta=eta)
    h_bad = h_good.copy()
    h_bad[2, 2] *= 1.001
    with pytest.raises(MaterialDataError, match="inconsistent"):
        coupling.MaterialTensorSet(rho=3000.0, eps_rf=10.0, eps_ir=4.0,
                                   h=h_bad, e=e_tensor, eta=eta)


@pytest.mark.parametrize("values, message", [
    ({"h": np.zeros((6, 3))}, "h must be a 3x6 Voigt matrix"),
    ({"e": np.zeros((3, 3))}, "e must be a 3x6 Voigt matrix"),
    ({"p": np.zeros((3, 6))}, "p must be a 6x6 Voigt matrix"),
    ({"c": np.eye(3)}, "c must be a 6x6 Voigt matrix"),
    ({"eta": np.eye(2)}, "eta must be 3x3"),
    ({"eta": np.eye(3) + np.triu(np.ones((3, 3)), 1) * 0.1}, "eta must be symmetric"),
])
def test_tensor_set_rejects_a_wrong_shape_or_an_asymmetric_eta(values, message):
    with pytest.raises(MaterialDataError) as info:
        coupling.MaterialTensorSet(rho=1000.0, eps_rf=5.0, eps_ir=2.0, **values)
    assert str(info.value) == message


@pytest.mark.parametrize("rate, unset, message", [
    (lambda e, w, mat: mat.h_element(3, 3, 3), "h", "piezoelectric tensor h is not set"),
    (coupling.piezo_coupling_total, "h", "piezoelectric tensor h is not set"),
    (coupling.optomech_coupling, "p", "photoelastic tensor p is not set"),
], ids=["h_element", "piezo_coupling_total", "optomech_coupling"])
def test_rate_without_its_tensor_rejected(rate, unset, message):
    # a record may leave out h or p; `coupling` then skips the rate rather than calling it
    e, w = coupling_input_fields()
    mat = dataclasses.replace(simple_material(), **{unset: None})
    with pytest.raises(MaterialDataError) as info:
        rate(e, w, mat)
    assert str(info.value) == message


def test_eta_must_be_positive_definite():
    eta = -np.eye(3)
    with pytest.raises(MaterialDataError, match="positive definite"):
        coupling.MaterialTensorSet(rho=1000.0, eps_rf=5.0, eps_ir=2.0, eta=eta)


def test_elasticity_must_be_symmetric():
    c = np.eye(6)
    c[0, 1] = 1.0
    with pytest.raises(MaterialDataError, match="symmetric"):
        coupling.MaterialTensorSet(rho=1000.0, eps_rf=5.0, eps_ir=2.0, c=c)


# --- mode field file round trip ------------------------------------------------------------


def test_mode_field_csv_round_trip(tmp_path):
    grid = coupling.Grid3D((0.0, -1e-7, 2e-7), (1e-8, 2e-8, 3e-8), (4, 3, 5))
    rng = np.random.default_rng(4)
    comps = rng.normal(size=(3, *grid.shape)) + 1j * rng.normal(size=(3, *grid.shape))
    f = coupling.ModeField(grid, comps, coupling.EM, TWO_PI * 1.93e14)
    path = tmp_path / "field.csv"
    coupling.save_mode_field(path, f)
    again = coupling.load_mode_field(path)
    assert again.grid == grid
    assert again.kind == f.kind
    assert again.frequency == f.frequency
    np.testing.assert_array_equal(again.components, f.components)


def _rewrite_rows(path, edit):
    """Apply ``edit`` to the data rows of a mode field file, as lists of strings."""
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    edit(rows)
    path.write_text("\n".join(lines[:2] + [",".join(row) for row in rows]) + "\n")


@pytest.fixture()
def field_file(tmp_path):
    grid = coupling.Grid3D((0.0, -1e-7, 2e-7), (1e-8, 2e-8, 3e-8), (4, 3, 5))
    f = coupling.ModeField(grid, np.ones((3, *grid.shape)), coupling.MECH, TWO_PI * 3e9)
    path = tmp_path / "field.csv"
    coupling.save_mode_field(path, f)
    return path, f


def test_mode_field_rows_may_sit_within_tolerance_of_the_grid(field_file):
    path, f = field_file

    def nudge(rows):
        rows[7][1] = repr(float(rows[7][1]) + 0.9e-3 * f.grid.spacing[1])

    _rewrite_rows(path, nudge)
    np.testing.assert_array_equal(coupling.load_mode_field(path).components, f.components)


def _swap_first_rows(rows):
    rows[0], rows[1] = rows[1], rows[0]


def _shift_z(rows):
    rows[9][2] = repr(float(rows[9][2]) + 1.1e-3 * 3e-8)


def _nan_x(rows):
    rows[4][0] = "nan"


@pytest.mark.parametrize("edit, row, at, point", [
    (_swap_first_rows, 1, (0.0, -1e-07, 2.3e-07), (0.0, -1e-07, 2e-07)),
    (_shift_z, 10, (0.0, -8e-08, 3.2e-07 + 1.1e-3 * 3e-8), (0.0, -8e-08, 3.2e-07)),
    (_nan_x, 5, (math.nan, -1e-07, 3.2e-07), (0.0, -1e-07, 3.2e-07)),
])
def test_mode_field_row_off_the_header_grid_rejected(field_file, edit, row, at, point):
    path, _ = field_file
    _rewrite_rows(path, edit)
    with pytest.raises(ParameterError) as info:
        coupling.load_mode_field(path)
    assert str(info.value) == (
        f"mode field {path}: data row {row} at {at} is off its header grid point {point}")


def _cut_row_3(rows):
    rows[2] = rows[2][:5]


def _abc_cell(rows):
    rows[2][3] = "abc"


def _comment_and_blank_before_cut(rows):
    # np.loadtxt skips both, so the cut row is still data row 3
    rows[:0] = [["# note"], [""]]
    rows[4] = rows[4][:5]


def _underscored_cell(rows):
    rows[2][3] = "1_0"  # float() reads it, np.loadtxt does not


@pytest.mark.parametrize("edit, what", [
    (_cut_row_3, "data row 3 has 5 cells, expected 9"),
    (_abc_cell, "data row 3 cell 4 is not a number: 'abc'"),
    (_comment_and_blank_before_cut, "data row 3 has 5 cells, expected 9"),
    (_underscored_cell, "a data row is not 9 comma-separated numbers"),
])
def test_malformed_mode_field_row_named(field_file, edit, what):
    path, _ = field_file
    _rewrite_rows(path, edit)
    with pytest.raises(ParameterError) as info:
        coupling.load_mode_field(path)
    assert str(info.value) == f"mode field {path}: {what}"


def _grid_point(grid, row):
    return tuple(float(grid.axis(k)[i]) for k, i in enumerate(np.unravel_index(row, grid.counts)))


def _cut_row_21(rows):
    rows[20] = rows[20][:5]


def _shift_row_21_z(rows):
    rows[20][2] = repr(float(rows[20][2]) + 1.1e-3 * 3e-8)


def _nan_row_21_y(rows):
    rows[20][1] = "nan"


def _comments_across_a_block_boundary(rows):
    # data lines 16 and 17, the last line of one 16-line block and the first of the next
    rows[15:15] = [["# note"], [""]]
    rows[22] = rows[22][:5]  # data row 21


def _extra_row(rows):
    rows.append(list(rows[-1]))


def _eight_cells_in_rows_1_to_20(rows):
    # the first blocks read as 8 columns, and a later one as 9
    for row in rows[:20]:
        del row[-1]


@pytest.mark.parametrize("block_rows", [2, 3, 16, CSV_BLOCK_ROWS])
@pytest.mark.parametrize("edit, message", [
    (_cut_row_21, lambda f, at: "data row 21 has 5 cells, expected 9"),
    (_shift_row_21_z, lambda f, at: f"data row 21 at {at} is off its header grid point "
                                    f"{_grid_point(f.grid, 20)}"),
    (_nan_row_21_y, lambda f, at: f"data row 21 at {at} is off its header grid point "
                                  f"{_grid_point(f.grid, 20)}"),
    (_comments_across_a_block_boundary, lambda f, at: "data row 21 has 5 cells, expected 9"),
    (_extra_row, lambda f, at: "mode field file has shape (61, 9), expected (60, 9)"),
    (_eight_cells_in_rows_1_to_20, lambda f, at: "data row 1 has 8 cells, expected 9"),
], ids=["malformed", "off-grid", "nan-coordinate", "comments-at-boundary", "extra-row",
        "eight-cells-first"])
def test_mode_field_errors_in_a_later_block_read_as_one_block(field_file, monkeypatch,
                                                              block_rows, edit, message):
    # the file has 60 data rows: row 21 sits in the second block of 16 lines
    path, f = field_file
    _rewrite_rows(path, edit)
    at = tuple(float(v) for v in path.read_text().splitlines()[22].split(",")[:3])
    monkeypatch.setattr(coupling, "CSV_BLOCK_ROWS", block_rows)
    with pytest.raises(ParameterError) as info:
        coupling.load_mode_field(path)
    assert str(info.value) == f"mode field {path}: {message(f, at)}"


@pytest.mark.parametrize("block_rows", [1, 7, 60, CSV_BLOCK_ROWS])
def test_mode_field_reads_the_same_in_any_block_size(field_file, monkeypatch, block_rows):
    path, base = field_file
    rng = np.random.default_rng(block_rows)
    f = coupling.ModeField(base.grid, rng.normal(size=(3, *base.grid.shape)) + 1j,
                           coupling.EM, 1.0)
    coupling.save_mode_field(path, f)
    monkeypatch.setattr(coupling, "CSV_BLOCK_ROWS", block_rows)
    np.testing.assert_array_equal(coupling.load_mode_field(path).components, f.components)


def _comment_and_blank_line_after_row_16(rows):
    rows[16:16] = [["# note"], [""]]


@pytest.mark.parametrize("block_rows", [1, 2])
def test_mode_field_block_of_only_a_comment_and_a_blank_line_reads_without_a_warning(
        field_file, monkeypatch, block_rows):
    # np.loadtxt warns on a block without rows; the test settings make a UserWarning an error
    path, f = field_file
    _rewrite_rows(path, _comment_and_blank_line_after_row_16)
    monkeypatch.setattr(coupling, "CSV_BLOCK_ROWS", block_rows)
    np.testing.assert_array_equal(coupling.load_mode_field(path).components, f.components)


def test_mode_field_reads_from_a_pipe(field_file, tmp_path):
    # a pipe has no size to bound the rows by: the loader reads it like a file
    path, f = field_file
    fifo = tmp_path / "field.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
    writer.start()
    try:
        loaded = coupling.load_mode_field(fifo)
    finally:
        writer.join()
    np.testing.assert_array_equal(loaded.components, f.components)


def test_malformed_mode_field_row_from_a_pipe_is_named(tmp_path):
    # naming the row must not open the file again: a second open of a pipe
    # waits for a writer that has already gone
    grid = coupling.Grid3D((0.0, 0.0, 0.0), (1e-8, 1e-8, 1e-8), (1, 1, 2))
    path = tmp_path / "field.csv"
    coupling.save_mode_field(path, coupling.ModeField(grid, np.ones((3, 1, 1, 2)), coupling.EM, 1.0))
    _rewrite_rows(path, lambda rows: rows[1].__setitem__(7, "zz"))
    fifo = tmp_path / "field.fifo"
    os.mkfifo(fifo)
    raised = []

    def load():
        try:
            coupling.load_mode_field(fifo)
        except ParameterError as exc:
            raised.append(exc)

    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
    reader = threading.Thread(target=load, daemon=True)
    writer.start()
    reader.start()
    reader.join(timeout=10)
    hangs = reader.is_alive()
    if hangs:  # a writer that opens and closes at once lets the reader see the end
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    writer.join(timeout=10)
    assert not hangs, "load_mode_field still waits on the pipe after 10 s"
    assert [str(exc) for exc in raised] == [
        f"mode field {fifo}: data row 2 cell 8 is not a number: 'zz'"]


def test_load_mode_field_peak_memory_is_its_components_and_a_block(tmp_path):
    # the whole-file table alone took 72 B per voxel, 19 MB here
    grid = coupling.Grid3D((0.0, 0.0, 0.0), (1e-8, 1e-8, 1e-8), (64, 64, 64))
    rng = np.random.default_rng(8)
    # integer-valued like the benchmark's field files, so the file writes fast
    comps = np.round(1e3 * rng.normal(size=(3, *grid.shape))) + 1j
    path = tmp_path / "field.csv"
    coupling.save_mode_field(path, coupling.ModeField(grid, comps, coupling.EM, 1.0))
    tracemalloc.start()
    try:
        f = coupling.load_mode_field(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - f.components.nbytes < 10e6


# --- read-only components and the rates' signatures -------------------------------------


def test_mode_field_components_are_read_only():
    _, w = _random_pair(np.random.default_rng(2))
    assert not w.components.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        w.components[0, 0, 0, 0] = 1.0


def test_no_public_coupling_function_takes_a_mode_volume():
    functions = [f for name, f in inspect.getmembers(coupling, inspect.isfunction)
                 if f.__module__ == coupling.__name__ and not name.startswith("_")]
    assert coupling.optomech_coupling in functions
    for f in functions:
        names = inspect.signature(f).parameters
        assert not [n for n in names if "v_eff" in n or "volume" in n], f.__name__


@pytest.mark.parametrize("rate, args", [
    (coupling.piezo_coupling, ((3, 3, 3),)),
    (coupling.piezo_coupling_total, ()),
    (coupling.optomech_coupling, ()),
])
def test_rates_reject_a_mode_volume_keyword(rate, args):
    e, w = _random_pair(np.random.default_rng(5))
    with pytest.raises(TypeError, match="v_eff_em"):
        rate(e, w, simple_material(), *args, v_eff_em=1.0)


# --- tensor contractions against the per-element sums ------------------------------------


def _random_pair(rng, shape=(7, 6, 5)):
    grid = coupling.Grid3D((0.0, 0.0, 0.0), (1.1e-7, 0.9e-7, 1.3e-7), shape)

    def field(kind, frequency, scale):
        comps = scale * (rng.normal(size=(3, *shape)) + 1j * rng.normal(size=(3, *shape)))
        return coupling.ModeField(grid, comps, kind, frequency)

    return field(coupling.EM, TWO_PI * 2e14, 1.0), field(coupling.MECH, TWO_PI * 3e9, 1e-4)


def _per_element_piezo_sum(e, grads, h):
    total = 0j
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                h_el = float(h[i - 1, coupling.voigt_index(j, k) - 1])
                if h_el == 0.0:
                    continue
                integral = coupling.overlap_integral(e, grads, j, k, component=i)
                if math.isnan(h_el):
                    assert integral == 0
                    continue
                total += h_el * integral
    return total


def _per_element_photoelastic_sum(e, grads, p):
    total = 0j
    for i in range(3):
        for j in range(3):
            ee = e.components[i] * np.conj(e.components[j])
            for k in range(3):
                for l in range(3):
                    p_el = float(p[coupling.voigt_index(i + 1, j + 1) - 1,
                                   coupling.voigt_index(k + 1, l + 1) - 1])
                    total += p_el * complex(coupling.trapezoid_3d(ee * grads[k, l], e.grid))
    return total


@pytest.mark.parametrize("seed", range(4))
def test_coupling_contractions_match_per_element_sums(seed):
    rng = np.random.default_rng(seed)
    e, w = _random_pair(rng)
    # no E_x anywhere: every overlap of the unknown h_15 (h_113, h_131) is zero
    comps = e.components.copy()
    comps[0] = 0.0
    e = coupling.ModeField(e.grid, comps, e.kind, e.frequency)
    h = rng.normal(size=(3, 6))
    h[0, 4] = math.nan
    h[1, 1] = 0.0
    p = rng.normal(size=(6, 6))
    mat = coupling.MaterialTensorSet(rho=3000.0, eps_rf=9.0, eps_ir=4.0, h=h, p=p)
    grads = coupling.strain_field(w)

    v_em = coupling.em_mode_volume(e, mat.eta_eff)
    v_mech = coupling.mech_mode_volume(w)

    piezo = coupling.piezo_coupling_total(e, w, mat)
    piezo_prefactor = 1j * math.sqrt(e.frequency / w.frequency) / 4 / math.sqrt(
        v_em * v_mech * mat.eta_eff * mat.rho)
    expected = piezo_prefactor * _per_element_piezo_sum(e, grads, h)
    assert abs(piezo - expected) <= 1e-12 * abs(expected)

    om = coupling.optomech_coupling(e, w, mat)
    om_prefactor = math.sqrt(HBAR / (
        32 * mat.rho * v_mech * EPSILON_0**2 * mat.eta_eff**2 * v_em**2 * w.frequency))
    assert om == pytest.approx(
        om_prefactor * abs(_per_element_photoelastic_sum(e, grads, p)), rel=1e-12)


def test_optomech_unknown_element_named_in_index_order():
    rng = np.random.default_rng(9)
    e, w = _random_pair(rng)
    p = rng.normal(size=(6, 6))
    p[3, 0] = math.nan  # p_41: p_2311 and its images
    p[5, 5] = math.nan  # p_66: first met as p_1212
    mat = coupling.MaterialTensorSet(rho=3000.0, eps_rf=9.0, eps_ir=4.0, p=p)
    with pytest.raises(MaterialDataError, match=(
            "^photoelastic element p_1212 is unknown but its overlap integral is nonzero$")):
        coupling.optomech_coupling(e, w, mat)


# --- slab-wise overlaps against the full-gradient oracles ---------------------------------


def _strain_pair_sums(strain):
    """B_J of the full gradient array: strain[a, b] + strain[b, a] for each Voigt pair J."""
    pairs = [(0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)]
    return np.stack([strain[a, a] if a == b else strain[a, b] + strain[b, a] for a, b in pairs])


@pytest.mark.parametrize("n0", [3, 4, 7])
@pytest.mark.parametrize("block_rows, planes", [
    (1, 1),  # fewer voxels than a plane: still one plane per slab
    (2 * 20, 2), (3 * 20 + 19, 3), (10**6, 7)])
def test_slab_pair_sums_bit_equal_the_strain_field_pairs(monkeypatch, n0, block_rows, planes):
    rng = np.random.default_rng(n0 * block_rows)
    shape = (n0, 4, 5)
    grid = coupling.Grid3D((1e-7, -2e-7, 3e-7), (1.1e-7, 0.9e-7, 1.3e-7), shape)
    comps = rng.normal(size=(3, *shape)) + 1j * rng.normal(size=(3, *shape))
    w = coupling.ModeField(grid, comps, coupling.MECH, 1.0)
    monkeypatch.setattr(coupling, "CSV_BLOCK_ROWS", block_rows)
    slabs = list(coupling._x_slabs(grid))
    assert [xs.stop - xs.start for xs in slabs[:-1]] == [planes] * (len(slabs) - 1)
    assert slabs[0].start == 0 and slabs[-1].stop == n0 and 0 < slabs[-1].stop - slabs[-1].start
    got = np.concatenate([coupling._pair_sums(w, xs) for xs in slabs], axis=1)
    np.testing.assert_array_equal(got, _strain_pair_sums(coupling.strain_field(w)))


@pytest.mark.parametrize("planes", [1, 2, 3, 8])
def test_rates_match_the_rank_tensor_einsum_oracle(monkeypatch, planes):
    # 8 x-planes: slabs of 3 leave a slab of 2
    rng = np.random.default_rng(20 + planes)
    e, w = _random_pair(rng, shape=(8, 5, 4))
    comps = e.components.copy()
    comps[0] = 0.0  # every overlap of the unknown h_15 (h_113, h_131) is zero
    e = coupling.ModeField(e.grid, comps, e.kind, e.frequency)
    h = rng.normal(size=(3, 6))
    h[0, 4] = math.nan
    p = rng.normal(size=(6, 6))  # not symmetric
    mat = coupling.MaterialTensorSet(rho=3000.0, eps_rf=9.0, eps_ir=4.0, h=h, p=p)
    monkeypatch.setattr(coupling, "CSV_BLOCK_ROWS", planes * 5 * 4)
    strain = coupling.strain_field(w)
    v_em = coupling.em_mode_volume(e, mat.eta_eff)
    v_mech = coupling.mech_mode_volume(w)

    h3 = np.nan_to_num(coupling.rank3_from_voigt(h))
    piezo_sum = complex(coupling.trapezoid_3d(
        np.einsum("ijk,i...,jk...->...", h3, e.components, strain), e.grid))
    piezo_prefactor = 1j * math.sqrt(e.frequency / w.frequency) / 4 / math.sqrt(
        v_em * v_mech * mat.eta_eff * mat.rho)
    piezo = coupling.piezo_coupling_total(e, w, mat)
    assert abs(piezo - piezo_prefactor * piezo_sum) <= 1e-12 * abs(piezo_prefactor * piezo_sum)

    om_sum = complex(coupling.trapezoid_3d(np.einsum(
        "ijkl,i...,j...,kl...->...", coupling.rank4_from_voigt(p), e.components,
        np.conj(e.components), strain), e.grid))
    om_prefactor = math.sqrt(HBAR / (
        32 * mat.rho * v_mech * EPSILON_0**2 * mat.eta_eff**2 * v_em**2 * w.frequency))
    assert coupling.optomech_coupling(e, w, mat) == pytest.approx(
        om_prefactor * abs(om_sum), rel=1e-12)

    # each element's slab-wise overlap has the bits of the full-gradient overlap
    for i, j, k in np.ndindex(3, 3, 3):
        assert coupling._overlap(e, w, i, j, k) == coupling.overlap_integral(
            e, strain, j + 1, k + 1, component=i + 1)


def test_rates_and_volumes_make_no_blas_call(monkeypatch):
    # a BLAS kernel's sum order depends on the thread count and on the CPU
    rng = np.random.default_rng(31)
    e, w = _random_pair(rng)
    mat = coupling.MaterialTensorSet(rho=3000.0, eps_rf=9.0, eps_ir=4.0,
                                     h=rng.normal(size=(3, 6)), p=rng.normal(size=(6, 6)))

    def blas(*args, **kwargs):
        raise AssertionError("a coupling rate or mode volume called BLAS")

    for name in ("tensordot", "dot", "matmul", "einsum"):
        monkeypatch.setattr(np, name, blas)
    assert coupling.em_mode_volume(e, mat.eta_eff) > 0
    assert coupling.mech_mode_volume(w) > 0
    assert coupling.piezo_coupling(e, w, mat, (1, 2, 3)) != 0
    assert coupling.piezo_coupling_total(e, w, mat) != 0
    assert coupling.optomech_coupling(e, w, mat) > 0


def test_unknown_piezo_elements_take_one_walk(monkeypatch):
    # the 15 unknown Voigt entries, whose overlaps vanish on this pair, take one walk beside
    # the three of the two volumes and the one of the total
    e, w = coupling_input_fields(piezo=True)
    h = np.full((3, 6), math.nan)
    h[2, 2:5] = 0.145, 0.0, 0.0
    mat = coupling.MaterialTensorSet(rho=3255.0, eps_rf=9.5, eps_ir=3.67, h=h)
    walks = []
    slab_integral = coupling._slab_integral
    monkeypatch.setattr(coupling, "_slab_integral",
                        lambda grid, integrand: walks.append(1) or slab_integral(grid, integrand))
    total = coupling.piezo_coupling_total(e, w, mat)
    assert len(walks) == 5
    assert total == coupling.piezo_coupling_total(e, w, _piezo_pair_material()) != 0

    h[2, 2] = math.nan
    with pytest.raises(MaterialDataError, match="^piezoelectric element h_333 is unknown but"):
        coupling.piezo_coupling_total(e, w, dataclasses.replace(mat, h=h))


@pytest.mark.parametrize("tensor, value, rate, expected", [
    ("h", 0.145, coupling.piezo_coupling_total, 58.19),
    ("p", 0.1, coupling.optomech_coupling, 0.007273),
])
def test_only_the_33_element_known_gives_the_rate_of_the_unknowns_as_0(tensor, value, rate,
                                                                     expected):
    # on the piezo pair only the 33 element contributes analytically; roundoff leaves the
    # overlaps of Voigt entries 34 and 35 at 2.4e-18 of their bound, which a comparison with
    # exactly 0 rejects
    e, w = coupling_input_fields(piezo=True)
    matrix = np.full((3, 6) if tensor == "h" else (6, 6), math.nan)
    matrix[2, 2] = value
    unknown = coupling.MaterialTensorSet(rho=3255.0, eps_rf=9.5, eps_ir=3.67, **{tensor: matrix})
    as_0 = dataclasses.replace(unknown, **{tensor: np.nan_to_num(matrix)})
    assert rate(e, w, unknown) == rate(e, w, as_0)
    assert abs(rate(e, w, unknown)) == pytest.approx(expected, rel=1e-3)


def test_unknown_entry_that_a_rigid_rotation_cancels_is_read_as_0():
    # dw_x/dy = -3 and dw_y/dx = 3 cancel exactly in B_6, so the unknown h_16 multiplies
    # nothing, though the overlaps of h_112 and h_121 alone are nonzero
    grid = coupling.Grid3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (5, 6, 7))
    x, y, z = grid.meshgrid()
    e = coupling.ModeField(grid, np.stack([1 + x, 0 * x, 1 + 0 * x]), coupling.EM, TWO_PI * 1e10)
    w = coupling.ModeField(grid, np.stack([-3 * y, 3 * x, z**2]), coupling.MECH, TWO_PI * 3e9)
    h = np.zeros((3, 6))
    h[2, 2] = 1.0
    known = coupling.MaterialTensorSet(rho=3000.0, eps_rf=9.0, eps_ir=4.0, h=h)
    h[0, 5] = math.nan
    total = coupling.piezo_coupling_total(e, w, dataclasses.replace(known, h=h))
    assert total == coupling.piezo_coupling_total(e, w, known) != 0


@pytest.mark.parametrize("tensor, rate, name", [
    ("h", coupling.piezo_coupling_total, "piezoelectric element h_313"),
    ("p", coupling.optomech_coupling, "photoelastic element p_3313"),
])
def test_unknown_entry_at_a_millionth_of_its_bound_is_rejected_by_name(tensor, rate, name):
    # w_x = c z adds c to B_5 on the piezo pair, where R_3 = E_z = 1 and A_3 = |E_z|^2 = 1:
    # c is set so the overlap of Voigt entry 35 is 1e-6 of its Cauchy-Schwarz bound
    e, w = coupling_input_fields(piezo=True)
    volume = coupling.trapezoid_3d(np.ones(e.grid.shape), e.grid)
    b_square = coupling.trapezoid_3d(np.abs(coupling.strain_field(w)[2, 2])**2, e.grid)
    comps = w.components.copy()
    comps[0] = 1e-6 * math.sqrt(b_square / volume) * e.grid.meshgrid()[2]
    w = coupling.ModeField(w.grid, comps, w.kind, w.frequency)
    pair_sums = _strain_pair_sums(coupling.strain_field(w))
    b_square = coupling.trapezoid_3d(np.sum(np.abs(pair_sums)**2, axis=0), e.grid)
    ratio = abs(coupling.trapezoid_3d(pair_sums[4], e.grid)) / math.sqrt(volume * b_square)
    assert ratio == pytest.approx(1e-6, rel=1e-6)
    matrix = np.full((3, 6) if tensor == "h" else (6, 6), math.nan)
    matrix[2, 2] = 0.1
    mat = coupling.MaterialTensorSet(rho=3255.0, eps_rf=9.5, eps_ir=3.67, **{tensor: matrix})
    message = f"^{name} is unknown but its overlap integral is nonzero$"
    with pytest.raises(MaterialDataError, match=message):
        rate(e, w, mat)


def _assert_rate_peak_below_its_two_fields(rate, e, w, mat, *args):
    tracemalloc.start()
    try:
        rate(e, w, mat, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < e.components.nbytes + w.components.nbytes


@pytest.mark.parametrize("rate, args", [
    (coupling.piezo_coupling, ((3, 3, 3),)),
    (coupling.piezo_coupling_total, ()),
    (coupling.optomech_coupling, ()),
])
def test_rate_peak_memory_stays_below_its_two_fields(rate, args):
    # a cached full-grid strain alone took 1.5 times the two fields
    e, w = _random_pair(np.random.default_rng(6), shape=(48, 48, 48))
    _assert_rate_peak_below_its_two_fields(rate, e, w, simple_material(), *args)


@pytest.mark.parametrize("rate", [coupling.piezo_coupling_total, coupling.optomech_coupling])
def test_rate_with_unknown_entries_peak_memory_stays_below_its_two_fields(rate):
    # no E_x: the 6 unknown h entries of row 1 and the 18 unknown p entries of rows 1, 5 and 6
    # are read as 0, after one walk; stacked whole, their overlaps took 1.2 times the two fields
    e, w = _random_pair(np.random.default_rng(6), shape=(48, 48, 48))
    comps = e.components.copy()
    comps[0] = 0.0
    e = coupling.ModeField(e.grid, comps, e.kind, e.frequency)
    mat = simple_material()
    h, p = mat.h.copy(), mat.p.copy()
    h[0] = p[[0, 4, 5]] = math.nan
    _assert_rate_peak_below_its_two_fields(rate, e, w, dataclasses.replace(mat, h=h, p=p))


# --- tensor file loading and component indices -------------------------------------------


@pytest.mark.parametrize("i", [0, -2, 4])
def test_h_element_rejects_row_index_out_of_range(i):
    with pytest.raises(ParameterError, match=f"tensor index i must be in 1..3, got {i}"):
        simple_material().h_element(i, 1, 3)


def _tensor_file(tmp_path, text):
    path = tmp_path / "tensors.json"
    path.write_text(text)
    return path


def test_load_tensor_set_reads_scalars_and_matrices(tmp_path):
    mat = simple_material()
    path = _tensor_file(tmp_path, json.dumps({
        "rho": mat.rho, "eps_rf": mat.eps_rf, "eps_ir": mat.eps_ir,
        "h": mat.h.tolist(), "p": mat.p.tolist(), "c": None,
    }))
    loaded = coupling.load_tensor_set(path)
    assert (loaded.rho, loaded.eps_rf, loaded.eps_ir) == (mat.rho, mat.eps_rf, mat.eps_ir)
    np.testing.assert_array_equal(loaded.h, mat.h)
    np.testing.assert_array_equal(loaded.p, mat.p)
    assert loaded.c is None and loaded.e is None and loaded.eta is None


SCALARS = {"rho": 3255.0, "eps_rf": 9.5, "eps_ir": 3.67}


@pytest.mark.parametrize("text, message", [
    ("3", "must contain a JSON object"),
    ("[1, 2]", "must contain a JSON object"),
    ("{", "invalid tensor JSON"),
    (json.dumps({**SCALARS, "mystery": 1}), "unknown tensor keys: ['mystery']"),
    (json.dumps({"rho": 3255.0, "eps_rf": 9.5}), "missing required scalar 'eps_ir'"),
    (json.dumps({**SCALARS, "rho": "x"}), "tensor scalar rho is not a number: 'x'"),
    (json.dumps({**SCALARS, "eps_rf": True}), "tensor scalar eps_rf is not a number: True"),
    (json.dumps({**SCALARS, "eps_ir": [1.0]}), "tensor scalar eps_ir is not a number: [1.0]"),
    (json.dumps({**SCALARS, "rho": math.nan}),
     MaterialDataError("density must be positive and finite, got rho = nan")),
    (json.dumps({**SCALARS, "eps_rf": math.inf}),
     MaterialDataError("permittivities must be positive and finite, got eps_rf = inf")),
    (json.dumps({**SCALARS, "eps_ir": -math.inf}),
     MaterialDataError("permittivities must be positive and finite, got eps_ir = -inf")),
    (json.dumps({**SCALARS, "h": [["x"] * 6] * 3}), "tensor h is not a numeric matrix"),
])
def test_load_tensor_set_rejects_malformed_files_by_name(tmp_path, text, message):
    # a value the record rejects raises the record's error, given here as an instance
    error = type(message) if isinstance(message, Exception) else ParameterError
    with pytest.raises(error) as info:
        coupling.load_tensor_set(_tensor_file(tmp_path, text))
    assert str(message) in str(info.value)


@pytest.mark.parametrize("origin, spacing, name", [
    ((math.nan, 0.0, 0.0), (1.0, 1.0, 1.0), "origin"),
    ((0.0, math.inf, 0.0), (1.0, 1.0, 1.0), "origin"),
    ((0.0, 0.0, 0.0), (1.0, math.nan, 1.0), "spacing"),
    ((0.0, 0.0, 0.0), (1.0, 1.0, math.inf), "spacing"),
])
def test_grid_rejects_non_finite_origin_and_spacing(origin, spacing, name):
    value = origin if name == "origin" else spacing
    with pytest.raises(ParameterError) as info:
        coupling.Grid3D(origin, spacing, (3, 3, 3))
    assert str(info.value) == f"grid {name} must be finite, got {value}"


@pytest.mark.parametrize("origin, spacing, counts, message", [
    ((0.0, 0.0), (1.0, 1.0, 1.0), (3, 3, 3), "origin, spacing and counts must have 3 entries each"),
    ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0), (3, 3, 3),
     "origin, spacing and counts must have 3 entries each"),
    ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (3, 3), "origin, spacing and counts must have 3 entries each"),
    ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (3, 0, 3), "grid counts must be positive integers, got (3, 0, 3)"),
    ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (3, 3, 2.5),
     "grid counts must be positive integers, got (3, 3, 2.5)"),
])
def test_grid_rejects_wrong_lengths_and_counts(origin, spacing, counts, message):
    with pytest.raises(ParameterError) as info:
        coupling.Grid3D(origin, spacing, counts)
    assert str(info.value) == message


@pytest.mark.parametrize("shape, kind, message", [
    ((3, 3, 3, 2), coupling.MECH, "components shape (3, 3, 3, 2) does not match grid (3, 3, 3)"),
    ((3, 3, 3, 3), "acoustic", "kind must be 'em' or 'mech'"),
])
def test_mode_field_rejects_components_off_its_grid_and_an_unknown_kind(shape, kind, message):
    grid = coupling.Grid3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (3, 3, 3))
    with pytest.raises(ParameterError) as info:
        coupling.ModeField(grid, np.ones(shape), kind, 1.0)
    assert str(info.value) == message


def test_gaussian_sheet_peaks_at_its_center():
    grid = coupling.Grid3D((0.0, 0.0, -1.0), (1.0, 1.0, 0.1), (2, 3, 21))
    f = coupling.gaussian_sheet(grid, coupling.EM, 1.0, 2.0 - 1.0j, polarization=1, axis=2,
                                center=0.0, width=0.3)
    profile = f.components[1]
    assert not np.any(f.components[[0, 2]])
    # constant across the sheet, largest at the center, and even about it
    np.testing.assert_array_equal(profile, np.broadcast_to(profile[:1, :1], profile.shape))
    z = profile[0, 0]
    assert np.argmax(np.abs(z)) == 10 and z[10] == 2.0 - 1.0j
    np.testing.assert_allclose(z, z[::-1], rtol=1e-12)
    np.testing.assert_allclose(z[13], (2.0 - 1.0j) * math.exp(-1.0), rtol=1e-12)


@pytest.mark.parametrize("frequency", [math.nan, math.inf])
def test_mode_field_rejects_non_finite_frequency(frequency):
    grid = coupling.Grid3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (3, 3, 3))
    with pytest.raises(ParameterError, match=f"mode frequency must be finite, got {frequency}"):
        coupling.ModeField(grid, np.ones((3, 3, 3, 3)), coupling.MECH, frequency)


@pytest.mark.parametrize("frequency", [0.0, -1.0])
def test_mode_field_rejects_a_frequency_not_above_zero(frequency):
    # the rates divide by both mode frequencies; 0 used to pass as "unset"
    grid = coupling.Grid3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (3, 3, 3))
    with pytest.raises(ParameterError) as info:
        coupling.ModeField(grid, np.ones((3, 3, 3, 3)), coupling.MECH, frequency)
    assert str(info.value) == f"mode frequency must be > 0, got {frequency}"


TENSOR_SHAPES = {"h": (3, 6), "e": (3, 6), "p": (6, 6), "c": (6, 6), "eta": (3, 3)}


def _matrix_with(key, entry):
    matrix = np.eye(*TENSOR_SHAPES[key]).tolist()
    matrix[0][0] = entry
    return matrix


@pytest.mark.parametrize("values, message", [
    *[({key: _matrix_with(key, math.inf)}, f"tensor {key} entries must be finite, got inf")
      for key in TENSOR_SHAPES],
    *[({key: _matrix_with(key, math.nan)}, f"tensor {key} entries must be finite, got nan")
      for key in ("e", "c", "eta")],
    ({"p": _matrix_with("p", True)}, "tensor p is not a numeric matrix: booleans are not numbers"),
    ({"eta": np.eye(3, dtype=bool)},
     "tensor eta is not a numeric matrix: booleans are not numbers"),
    ({"rho": "x"}, "tensor scalar rho is not a number: 'x'"),
    ({"eps_ir": np.True_}, "tensor scalar eps_ir is not a number: np.True_"),
])
def test_tensor_set_built_in_python_checks_values_like_the_loader(values, message):
    # an infinite p or h used to give a nan coupling rather than an error
    with pytest.raises(ParameterError) as info:
        coupling.MaterialTensorSet(**{**SCALARS, **values})
    assert str(info.value) == message


def test_tensor_set_built_in_python_keeps_nan_as_unknown_in_h_and_p():
    h, p = _matrix_with("h", math.nan), _matrix_with("p", math.nan)
    mat = coupling.MaterialTensorSet(**SCALARS, h=h, p=p)
    assert math.isnan(mat.h[0, 0]) and math.isnan(mat.p[0, 0])
    with pytest.raises(MaterialDataError, match="^piezoelectric element h_111 is unknown$"):
        mat.h_element(1, 1, 1)


@pytest.mark.parametrize("key, entry, message", [
    ("h", True, "tensor h is not a numeric matrix: booleans are not numbers"),
    ("eta", False, "tensor eta is not a numeric matrix: booleans are not numbers"),
    ("h", math.inf, "tensor h entries must be finite, got inf"),
    ("p", -math.inf, "tensor p entries must be finite, got -inf"),
    ("c", math.nan, "tensor c entries must be finite, got nan"),
    ("e", math.inf, "tensor e entries must be finite, got inf"),
])
def test_load_tensor_set_rejects_boolean_and_non_finite_entries(tmp_path, key, entry, message):
    shape = {"h": (3, 6), "e": (3, 6), "p": (6, 6), "c": (6, 6), "eta": (3, 3)}[key]
    matrix = np.eye(*shape).tolist()
    matrix[0][0] = entry
    path = _tensor_file(tmp_path, json.dumps({**SCALARS, key: matrix}))
    with pytest.raises(ParameterError) as info:
        coupling.load_tensor_set(path)
    assert str(info.value) == message


def test_load_tensor_set_keeps_nan_as_unknown_in_h_and_p(tmp_path):
    h = np.zeros((3, 6)).tolist()
    p = np.zeros((6, 6)).tolist()
    h[1][0] = p[3][4] = math.nan
    path = _tensor_file(tmp_path, json.dumps({**SCALARS, "h": h, "p": p}))
    loaded = coupling.load_tensor_set(path)
    assert math.isnan(loaded.h[1, 0]) and math.isnan(loaded.p[3, 4])
    assert np.isfinite(np.delete(loaded.h.ravel(), 6)).all()


def reference_mode_field_text(f: coupling.ModeField) -> str:
    """The per-row writer ``save_mode_field`` replaced, kept as its oracle."""
    g = f.grid
    lines = [(
        "# origin={0},{1},{2} spacing={3},{4},{5} counts={6},{7},{8} "
        "kind={9} frequency={10!r}"
    ).format(*g.origin, *g.spacing, *g.counts, f.kind, f.frequency),
        "x,y,z,Re_fx,Im_fx,Re_fy,Im_fy,Re_fz,Im_fz"]
    cols = [axis.ravel() for axis in g.meshgrid()]
    for c in range(3):
        cols.extend([f.components[c].real.ravel(), f.components[c].imag.ravel()])
    lines.extend(",".join(repr(float(v)) for v in row) for row in zip(*cols))
    return "\n".join(lines) + "\n"


# -0.0, subnormals, the smallest normal and the largest finite float
EDGE_COMPONENTS = [complex(-0.0, 5e-324), complex(-5e-324, 2.2250738585072009e-308),
                   complex(1.7976931348623157e308, -0.0)]


@pytest.mark.parametrize("counts", [
    (1, 1, 1), (1, 1, CSV_BLOCK_ROWS - 1), (1, 1, CSV_BLOCK_ROWS), (1, 1, CSV_BLOCK_ROWS + 1),
    (4, 3, 5),
    # two blocks; the first ends partway through an x slab and a y row
    (5, 37, 97),
])
def test_save_mode_field_writes_the_per_row_writers_bytes(tmp_path, counts):
    grid = coupling.Grid3D((-1e-6, -0.0, 2.5e-7), (1.3e-8, 7e-9, 1e-8), counts)
    rng = np.random.default_rng(sum(counts))
    comps = rng.normal(size=(3, *counts)) + 1j * rng.normal(size=(3, *counts))
    comps[:, 0, 0, 0] = EDGE_COMPONENTS
    comps[:, -1, -1, -1] = EDGE_COMPONENTS[::-1]
    for kind in (coupling.EM, coupling.MECH):
        f = coupling.ModeField(grid, comps, kind, TWO_PI * 3.2e9)
        path = tmp_path / f"{kind}.csv"
        coupling.save_mode_field(path, f)
        assert path.read_bytes() == reference_mode_field_text(f).encode()


def test_save_mode_field_holds_no_coordinate_grid(tmp_path):
    # the axes broadcast and the components are read in place; meshgrid coordinates
    # and raveled component copies would hold 72 B per voxel, a 17 MB peak at 48^3
    grid = coupling.Grid3D((-1e-6, 2e-7, 3e-7), (1e-8, 1.1e-8, 1.2e-8), (48, 48, 48))
    rng = np.random.default_rng(4)
    comps = rng.normal(size=(3, *grid.shape)) + 1j * rng.normal(size=(3, *grid.shape))
    f = coupling.ModeField(grid, comps, coupling.EM, TWO_PI * 3.2e9)
    tracemalloc.start()
    try:
        coupling.save_mode_field(tmp_path / "f.csv", f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


@pytest.mark.parametrize("name", ["rho", "eps_rf", "eps_ir"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_tensor_set_non_finite_scalar_rejected_by_name(name, value):
    prefix = "density" if name == "rho" else "permittivities"
    with pytest.raises(MaterialDataError,
                       match=rf"^{prefix} must be positive and finite, got {name} = {value}$"):
        coupling.MaterialTensorSet(**{**SCALARS, name: value})


# --- a tensor element too large for a finite rate ---------------------------------


def _piezo_pair_material(entries=None):
    """The conftest piezo pair's tensors, each 1-based Voigt entry ``(tensor, I, J)`` of ``entries`` set."""
    h, p = np.zeros((3, 6)), np.zeros((6, 6))
    h[2, 2], p[0, 2] = 0.145, 0.239
    for (tensor, i, j), value in (entries or {}).items():
        {"h": h, "p": p}[tensor][i - 1, j - 1] = value
    return coupling.MaterialTensorSet(rho=3255.0, eps_rf=9.5, eps_ir=3.67, h=h, p=p)


@pytest.mark.parametrize("errors", ["warn", "raise"])
@pytest.mark.parametrize("rate, entry, message", [
    (coupling.piezo_coupling_total, ("h", 3, 3),
     "piezoelectric tensor h: the coupling rate overflows at its largest element h_333 = 1e+308"),
    (lambda e, w, mat: coupling.piezo_coupling(e, w, mat, (3, 3, 3)), ("h", 3, 3),
     "piezoelectric tensor h: the coupling rate overflows at its element h_333 = 1e+308"),
    (coupling.optomech_coupling, ("p", 3, 3),
     "photoelastic tensor p: the coupling rate overflows at its largest element p_3333 = 1e+308"),
], ids=["piezo-total", "piezo-component", "optomech"])
def test_tensor_element_whose_rate_overflows_named(rate, entry, message, errors):
    # each used to end in "arithmetic: FloatingPointError: invalid value encountered in multiply"
    e, w = coupling_input_fields(piezo=True)
    with np.errstate(all=errors):
        with pytest.raises(MaterialDataError, match=f"^{re.escape(message)}$"):
            rate(e, w, _piezo_pair_material({entry: 1e308}))


@pytest.mark.parametrize("tensor, voigt, value, name", [
    ("h", (0, 4), 1e308, "h_113 = 1e+308"), ("p", (3, 5), -1e308, "p_2312 = -1e+308")])
def test_overflow_names_the_largest_element_by_its_tensor_indices(tensor, voigt, value, name):
    e, w = _random_pair(np.random.default_rng(12))
    matrix = np.zeros((3, 6) if tensor == "h" else (6, 6))
    matrix[voigt] = value
    matrix[0, 0] = 1.0
    mat = coupling.MaterialTensorSet(rho=3000.0, eps_rf=9.0, eps_ir=4.0, **{tensor: matrix})
    with pytest.raises(MaterialDataError, match=f"its largest element {re.escape(name)}$"):
        coupling._contraction(e, w, mat, tensor)


def test_finite_rates_keep_their_bits_beside_the_overflow_check():
    e, w = coupling_input_fields(piezo=True)
    mat = _piezo_pair_material({("h", 3, 3): 1e300, ("p", 3, 3): 1e300})
    with np.errstate(all="raise"):
        total = coupling.piezo_coupling_total(e, w, mat)
        assert coupling.optomech_coupling(e, w, mat) > 0
    # the total is the integral the check evaluates, as it was written before the check
    integral = coupling._slab_integral(e.grid, lambda xs: np.einsum(
        "J...,J...->...", np.tensordot(mat.h, e.components[:, xs], axes=(0, 0)),
        coupling._pair_sums(w, xs)))
    assert total == coupling._piezo_prefactor(e, w, mat) * complex(integral) != 0


def test_overflowing_fields_are_not_blamed_on_the_tensor():
    # the contraction overflows at a unit tensor too: the caller's error state decides
    e, w = _random_pair(np.random.default_rng(13))
    h = np.zeros((3, 6))
    h[2, 2] = 1e308
    mat = coupling.MaterialTensorSet(rho=3000.0, eps_rf=9.0, eps_ir=4.0, h=h)
    e = e.scaled(1e306)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        coupling._contraction(e, w, mat, "h")
    with np.errstate(all="ignore"):
        assert not cmath.isfinite(coupling._contraction(e, w, mat, "h"))
