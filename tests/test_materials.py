import math

import pytest

from pomtrans import materials
from pomtrans.errors import MaterialDataError


@pytest.fixture(scope="module")
def records():
    return materials.load_materials()


def by_name(records, name):
    return next(r for r in records if r.name == name)


# --- dataset loading -----------------------------------------------------------


def test_bundled_dataset_has_25_rows(records):
    assert len(records) == 25


def test_aln_row_values(records):
    r = by_name(records, "AlN")
    assert r.h33 == 0.145
    assert r.eps33_rf == 9.5
    assert r.rho_gcc == 3.255
    assert r.p33 == -0.107
    assert r.fab == "yes"


def test_sapphire_is_centrosymmetric(records):
    r = by_name(records, "Al2O3 (sapphire)")
    assert r.h33_flag == "zero-centrosymmetric"
    assert r.h33 is None


def test_quartz_zero_component_is_piezo_class(records):
    r = by_name(records, "alpha-SiO2 (quartz)")
    assert r.h33_flag == "zero-piezo-class"


def test_duplicate_names_rejected():
    text = (
        "name,h33,h33_flag,eps33_rf,eps33_ir,eps33_ir_flag,rho_gcc,p33,p33_flag,fab,notes\n"
        "X,0.1,value,1,1,value,1,0.1,value,yes,\n"
        "X,0.2,value,1,1,value,1,0.1,value,yes,\n"
    )
    with pytest.raises(MaterialDataError, match="duplicate"):
        materials.parse_materials_csv(text)


def test_malformed_cell_names_row_and_column():
    text = (
        "name,h33,h33_flag,eps33_rf,eps33_ir,eps33_ir_flag,rho_gcc,p33,p33_flag,fab,notes\n"
        "X,abc,value,1,1,value,1,0.1,value,yes,\n"
    )
    with pytest.raises(MaterialDataError, match="h33"):
        materials.parse_materials_csv(text)


def test_wrong_width_row_names_index():
    text = (
        "name,h33,h33_flag,eps33_rf,eps33_ir,eps33_ir_flag,rho_gcc,p33,p33_flag,fab,notes\n"
        "X,0.1,value\n"
    )
    with pytest.raises(MaterialDataError, match="row 2"):
        materials.parse_materials_csv(text)


# --- figures of merit -------------------------------------------------------------


def test_em_fom_examples(records):
    assert materials.em_fom(by_name(records, "AlN")).value == pytest.approx(2.47e-1, rel=5e-3)
    assert materials.em_fom(by_name(records, "KTiOPO4 (KTP)")).value == pytest.approx(2.25e-1, rel=5e-3)
    assert materials.em_fom(by_name(records, "LiNbO3")).value == pytest.approx(1.12e-1, rel=5e-3)


def test_centrosymmetric_em_fom_is_zero(records):
    for name in ("Al2O3 (sapphire)", "Si3N4 (amorphous)", "Si (crystal)"):
        assert materials.em_fom(by_name(records, name)).value == 0.0


def test_om_fom_examples(records):
    assert materials.om_fom(by_name(records, "BaTiO3")).value == pytest.approx(1.53, rel=5e-3)
    assert materials.om_fom(by_name(records, "LiNbO3")).value == pytest.approx(2.54e-1, rel=5e-3)


def test_om_fom_opaque_is_undefined(records):
    fom = materials.om_fom(by_name(records, "KD2PO4 (DKDP)"))
    assert not fom.defined
    assert "opaque" in fom.reason


def test_unknown_constituents_undefined_with_reason(records):
    sto = by_name(records, "SrTiO3 (STO)")
    em, om = materials.em_fom(sto), materials.om_fom(sto)
    assert not em.defined and "h33 unknown" in em.reason
    assert not om.defined and "p33 unknown" in om.reason
    ktp = materials.om_fom(by_name(records, "KTiOPO4 (KTP)"))
    assert not ktp.defined and "p33 unknown" in ktp.reason


# --- ranking ------------------------------------------------------------------------


def test_om_ranking_puts_barium_titanate_first(records):
    ranked = materials.rank(records, "om")
    assert ranked[0][0].name == "BaTiO3"
    assert ranked[0][1].value == pytest.approx(1.53, rel=5e-3)


def test_em_ranking_puts_aln_first(records):
    ranked = materials.rank(records, "em")
    assert ranked[0][0].name == "AlN"


def test_ranking_orders_by_absolute_value(records):
    ranked = materials.rank(records, "om")
    values = [abs(f.value) for _, f in ranked if f.defined]
    assert values == sorted(values, reverse=True)
    # signs survive in the output: crystalline silicon has a negative p33
    silicon = next(f for r, f in ranked if r.name == "Si (crystal)")
    assert silicon.value < 0


def test_undefined_entries_rank_last_with_reasons(records):
    ranked = materials.rank(records, "om")
    tail = [f for _, f in ranked if not f.defined]
    assert tail  # the dataset has unknown/opaque cells
    first_undefined = len(ranked) - len(tail)
    assert all(f.defined for _, f in ranked[:first_undefined])
    assert all(f.reason for f in tail)


def test_fab_filter(records):
    ranked = materials.rank(records, "em", fab_filter="yes")
    assert all(r.fab == "yes" for r, _ in ranked)
    assert ranked[0][0].name == "AlN"


def test_empty_input_empty_output():
    assert materials.rank([], "om") == []


def test_total_order_tie_break_by_name():
    rows = [
        materials.MaterialRecord(
            name=n, h33=0.1, h33_flag="value", eps33_rf=4.0, eps33_ir=2.0,
            eps33_ir_flag="value", rho_gcc=4.0, p33=0.5, p33_flag="value", fab="yes",
        )
        for n in ("beta", "alpha")
    ]
    ranked = materials.rank(rows, "em")
    assert [r.name for r, _ in ranked] == ["alpha", "beta"]


# --- full-table consistency -----------------------------------------------------------

# Printed reference figures, transcribed from the source tabulation.  Two OM
# cells (marked) are arithmetically inconsistent with their own raw columns
# in the source and are checked against the recomputed values instead; see
# tests/test_acceptance.py for the full account.
PRINTED_EM = {
    "Al2O3 (sapphire)": 0.0, "Al2O3 (alumina)": 0.0, "AlN": 2.47e-1,
    "BaB2O4 (BBO)": 3.16e-2, "BaTiO3": 3.15e-2, "In2O3+SnO2 (ITO)": 0.0,
    "KD2PO4 (DKDP)": 0.0, "KH2PO4 (KDP)": 0.0, "KTiOPO4 (KTP)": 2.25e-1,
    "KTa1-xNbxO3 (KTN)": 2.32e-1, "LiB3O5 (LBO)": 2.02e-1, "LiNbO3": 1.12e-1,
    "LiTaO3": 1.03e-1, "PbZr1-xTixO3 (PZT)": 1.49e-1, "Si (crystal)": 0.0,
    "Si (amorphous)": 0.0, "3C-SiC": 0.0, "4H-SiC": -1.08e-2, "6H-SiC": -2.04e-2,
    "Si3N4 (amorphous)": 0.0, "SiO2 (amorphous)": 0.0, "alpha-SiO2 (quartz)": 0.0,
    "ZnO": 1.09e-1,
}
PRINTED_OM = {
    "Al2O3 (sapphire)": -3.06e-1, "Al2O3 (alumina)": -3.31e-1, "AlN": -2.18e-1,
    "BaTiO3": 1.53, "LiB3O5 (LBO)": 4.77e-1, "LiNbO3": 2.54e-1,
    "LiTaO3": -7.26e-2, "Si (crystal)": -7.69e-1, "3C-SiC": -4.05e-1,
    "Si3N4 (amorphous)": 5.35e-1, "alpha-SiO2 (quartz)": 1.45e-1,
    "beta-Ta2O5": -7.41e-2, "ZnO": -2.98e-1,
}


def test_recomputed_em_column_matches_tabulation(records):
    for name, printed in PRINTED_EM.items():
        got = materials.em_fom(by_name(records, name))
        assert got.defined, name
        if printed == 0.0:
            assert got.value == 0.0, name
        else:
            # resolution limit of the 2-3 significant-figure raw inputs
            assert got.value == pytest.approx(printed, rel=2e-2), name


def test_recomputed_om_column_matches_tabulation(records):
    for name, printed in PRINTED_OM.items():
        got = materials.om_fom(by_name(records, name))
        assert got.defined, name
        assert got.value == pytest.approx(printed, rel=2e-2), name


# a density of -inf is already rejected as non-positive
@pytest.mark.parametrize("column, value", [
    (column, value) for column in ("h33", "eps33_rf", "eps33_ir", "rho_gcc", "p33")
    for value in (math.nan, math.inf, -math.inf) if (column, value) != ("rho_gcc", -math.inf)])
def test_non_finite_record_value_rejected_by_name(column, value):
    fields = dict(name="X", h33=0.1, h33_flag="value", eps33_rf=4.0, eps33_ir=2.0,
                  eps33_ir_flag="value", rho_gcc=4.0, p33=0.5, p33_flag="value", fab="yes")
    fields[column] = value
    with pytest.raises(MaterialDataError, match=f"X: {column} must be finite, got {value}"):
        materials.MaterialRecord(**fields)


@pytest.mark.parametrize("value", [-9.5, 0.0])
def test_non_positive_rf_permittivity_rejected_by_name(value):
    # a negative one used to end in "math domain error" from em_fom's square root
    fields = dict(name="X", h33=0.1, h33_flag="value", eps33_rf=value, eps33_ir=2.0,
                  eps33_ir_flag="value", rho_gcc=4.0, p33=0.5, p33_flag="value", fab="yes")
    with pytest.raises(MaterialDataError, match=f"^X: eps33_rf must be positive, got {value}$"):
        materials.MaterialRecord(**fields)


HEADER = "name,h33,h33_flag,eps33_rf,eps33_ir,eps33_ir_flag,rho_gcc,p33,p33_flag,fab,notes\n"


def _record(**changes):
    fields = dict(name="X", h33=0.1, h33_flag="value", eps33_rf=4.0, eps33_ir=2.0,
                  eps33_ir_flag="value", rho_gcc=4.0, p33=0.5, p33_flag="value", fab="yes")
    return materials.MaterialRecord(**{**fields, **changes})


@pytest.mark.parametrize("value", [0.0, -3.2])
def test_non_positive_density_rejected_by_name(value):
    with pytest.raises(MaterialDataError, match="^X: density must be positive$"):
        _record(rho_gcc=value)


def test_unknown_permittivities_make_the_figures_undefined_with_reason():
    assert materials.em_fom(_record(eps33_rf=None)) == materials.FomValue(None, "eps33_rf unknown")
    om = materials.om_fom(_record(eps33_ir=None, eps33_ir_flag="unknown"))
    assert om == materials.FomValue(None, "eps33_ir unknown")


def test_unknown_ranking_rejected_by_name():
    with pytest.raises(MaterialDataError, match="^ranking must be 'em' or 'om', got 'xx'$"):
        materials.rank([_record()], "xx")


@pytest.mark.parametrize("text, message", [
    ("", "empty materials file"),
    (HEADER + " ,0.1,value,1,1,value,1,0.1,value,yes,\n", "row 2: empty material name"),
])
def test_empty_file_and_empty_name_rejected(text, message):
    with pytest.raises(MaterialDataError) as info:
        materials.parse_materials_csv(text)
    assert str(info.value) == message


def test_non_finite_csv_cell_names_row_and_column():
    text = (
        "name,h33,h33_flag,eps33_rf,eps33_ir,eps33_ir_flag,rho_gcc,p33,p33_flag,fab,notes\n"
        "X,nan,value,4.0,2.0,value,4.0,0.5,value,yes,\n"
    )
    with pytest.raises(MaterialDataError, match="row 2: X: h33 must be finite, got nan"):
        materials.parse_materials_csv(text)
