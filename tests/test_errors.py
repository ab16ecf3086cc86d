"""The one rule for a number: in every input record, in a rejection's message and in a
cell of a text file."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pomtrans import coupling, dynamics, errors, materials, rings
from pomtrans.errors import MaterialDataError, ParameterError

GRID = coupling.Grid3D((0.0, 0.0, 0.0), (1e-7, 1e-7, 1e-7), (3, 3, 3))
RING_PAIR = {"T": 1e-11, "J": 1e10, "loss": 0.99, "bus_coupling": 0.1}
COUPLER = {"wavelength": 1.55e-6, "n_eff_sym": 2.0, "n_eff_asym": 1.9, "interaction_length": 0.0}


def _aln():
    return next(r for r in materials.load_materials() if r.name == "AlN")


#: record field -> (build it with a value, the error, its message with ``{}`` for the value)
RECORD_FIELDS = {
    "OperatingPoint.intra_ring_photons": (
        lambda p, v: dynamics.OperatingPoint(p, v), ParameterError,
        "intra_ring_photons is not a number: {}"),
    "OperatingPoint.pump_phase": (
        lambda p, v: dynamics.OperatingPoint(p, 1e11, pump_phase=v), ParameterError,
        "pump_phase is not a number: {}"),
    "ModeField.frequency": (
        lambda p, v: coupling.ModeField(GRID, np.zeros((3, 3, 3, 3)), coupling.EM, v),
        ParameterError, "mode frequency is not a number: {}"),
    "Grid3D.origin": (
        lambda p, v: coupling.Grid3D((v, 0, 0), GRID.spacing, GRID.counts), ParameterError,
        "grid origin is not 3 numbers: ({}, 0, 0)"),
    "Grid3D.spacing": (
        lambda p, v: coupling.Grid3D(GRID.origin, (1e-7, v, 1e-7), GRID.counts), ParameterError,
        "grid spacing is not 3 numbers: (1e-07, {}, 1e-07)"),
    **{f"RingPair.{name}": (
        lambda p, v, name=name: rings.RingPair(**{**RING_PAIR, name: v}), ParameterError,
        f"{name} is not a number: {{}}") for name in RING_PAIR},
    **{f"CouplerGeometry.{name}": (
        lambda p, v, name=name: rings.CouplerGeometry(**{**COUPLER, name: v}), ParameterError,
        f"{name} is not a number: {{}}") for name in COUPLER},
    "MaterialRecord.rho_gcc": (
        lambda p, v: replace(_aln(), rho_gcc=v), MaterialDataError,
        "AlN: rho_gcc is not a number: {}"),
}


@pytest.mark.parametrize("value", [True, "1"], ids=["bool", "string"])
@pytest.mark.parametrize("field", list(RECORD_FIELDS))
def test_record_field_that_is_not_a_number_rejected_by_name(nominal_params, field, value):
    # True used to read as 1 (or fail an unrelated range check), a string as a bare TypeError
    build, error, message = RECORD_FIELDS[field]
    with pytest.raises(error, match=f"^{re.escape(message.format(repr(value)))}$"):
        build(nominal_params, value)


HUGE = 10**5000  # more decimal digits than Python converts to str by default
SHOWN = f"<int of {HUGE.bit_length()} bits>"


@pytest.mark.parametrize("build, message", [
    (lambda p: dynamics.params_from_dict({**dynamics.params_to_dict(p), "g_em_hz": HUGE}),
     f"parameter g_em_hz is not a number: {SHOWN}"),
    (lambda p: replace(p, J=HUGE), f"J is not a number: {SHOWN}"),
    (lambda p: dynamics.OperatingPoint(p, HUGE), f"intra_ring_photons is not a number: {SHOWN}"),
    (lambda p: coupling.Grid3D((0, 0, 0), (1, 1, 1), (3, 3, HUGE)),
     f"grid counts must be positive integers, got (3, 3, {SHOWN})"),
    (lambda p: coupling.Grid3D((HUGE, 0, 0), (1, 1, 1), (3, 3, 3)),
     f"grid origin is not 3 numbers: ({SHOWN}, 0, 0)"),
    (lambda p: coupling.MaterialTensorSet(rho=HUGE, eps_rf=9.5, eps_ir=3.67),
     f"tensor scalar rho is not a number: {SHOWN}"),
    (lambda p: coupling.MaterialTensorSet(rho=3255.0, eps_rf=9.5, eps_ir=3.67,
                                          h=[[HUGE] + [0] * 5] + [[0] * 6] * 2),
     f"tensor h is not a numeric matrix: {SHOWN} is not a number"),
    (lambda p: rings.RingPair(**{**RING_PAIR, "T": HUGE}), f"T is not a number: {SHOWN}"),
], ids=["params_from_dict", "TransducerParams", "OperatingPoint", "Grid3D-counts",
        "Grid3D-origin", "MaterialTensorSet-scalar", "MaterialTensorSet-entry", "RingPair"])
def test_over_long_int_rejected_by_its_bit_count(nominal_params, build, message):
    # formatting the value in decimal used to raise Python's "Exceeds the limit" ValueError
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        build(nominal_params)


@pytest.mark.parametrize("cell", [
    "1.5", " -2e3 ", "\t1\x0b", "\x1c7", "\xa01", "12 ", ".5", "1.", "1e5000", "-1e-5000",
    "nan", "-NaN", "inf", "+Infinity", "1_0", "3_2.5", "٣", "١٢", "１",
    "0x1", "1d0", "", " ", ".", "1e", "--1", "1 2", "infinit",
])
def test_text_cell_read_as_np_loadtxt_reads_a_row_cell(cell):
    # float() reads '1_0' as 10 and Arabic-Indic digits as their value; np.loadtxt reads neither
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            expected = np.loadtxt([cell + ",0"], delimiter=",", ndmin=2)[0, 0]
        except ValueError:
            expected = None
    if expected is None:
        with pytest.raises(ValueError):
            errors.parse_number(cell)
    else:
        assert np.array_equal(errors.parse_number(cell), expected, equal_nan=True)
        assert np.signbit(errors.parse_number(cell)) == np.signbit(expected)


@pytest.mark.parametrize("cell", [
    " 1.5 ", "1_0", "nan", "-Infinity", "1e500", "1e-400", "0x10", "", "+1.",
    "\t1\x0b", "\x1c7", "\xa01", "1\xb2",
])
def test_array_of_byte_cells_read_as_each_cell_is(cell):
    # the mode-field loader casts many cells at once; float() of bytes reads '1_0' as 10 and
    # refuses '\x1c7' and '\xa01', which the one rule reads as 7 and 1
    cells = np.array([b"2.5", cell.encode("latin-1"), b"-0.0"])
    try:
        expected = [errors.parse_number(c.decode("latin-1")) for c in cells.tolist()]
    except ValueError:
        with pytest.raises(ValueError):
            errors.parse_number(cells)
        return
    values = errors.parse_number(cells)
    assert values.dtype == float and values.shape == (3,)
    assert np.array_equal(values, expected, equal_nan=True)
    assert np.array_equal(np.signbit(values), np.signbit(expected))
