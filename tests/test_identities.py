import pytest

from qdg import boxtilde as bt
from qdg import identities
from qdg.boxtilde import generator, s_element
from qdg.identities import (
    ALL_TABLES,
    CheckResult,
    M,
    check_expansion_tables,
    check_general_qdg,
    check_presentation_maps,
    check_qdg_error_terms,
    check_s_commutation,
    check_table_column,
)
from qdg.qcoeff import DEFAULT_RING, qint

R = DEFAULT_RING
Q = R.gen("q")
ONE = R.one()


def test_s_commutation_all_pass():
    results = check_s_commutation()
    assert len(results) == 8
    assert all(r.ok for r in results)
    names = {r.name for r in results}
    assert "s_commutation.i0.right" in names
    assert "s_commutation.i2.left" in names


def test_s_commutation_detects_wrong_exponent():
    diff = identities._s_commutation_diff(0, "right", 3)
    assert diff  # q^3 instead of q^4 leaves a nonzero witness


def test_expansion_tables_all_pass():
    results = check_expansion_tables()
    assert len(results) == sum(len(t.columns) for t in ALL_TABLES) == 29
    assert all(r.ok for r in results)


def test_specific_fixture_coefficients():
    a2 = identities._column_product("a2")
    assert a2.terms[M("x0", "x1")] == ONE + Q ** 2
    ab = identities._column_product("ab")
    assert ab.terms[M(c="c1")] == ONE - Q ** -2
    aba2 = identities._column_product("aba2")
    assert aba2.terms[M("x0.x0.x0", "x3")] == Q ** -4


def test_perturbed_fixture_fails():
    table = next(t for t in ALL_TABLES if t.name == "a2")
    assert not check_table_column(table, "a2", perturb=True).ok


def test_qdg_error_terms():
    results = check_qdg_error_terms()
    assert [r.status for r in results] == ["pass", "pass"]
    # dropping the central factor must leave a witness
    assert identities._qdg_diff(0, drop_central=True)
    assert identities._qdg_diff(1, drop_central=True)


def test_general_qdg_configs():
    results = check_general_qdg()
    assert all(r.ok for r in results)
    names = [r.name for r in results]
    assert "general_qdg.natural.side_condition" in names
    assert len(names) == 7


def test_general_qdg_custom_alpha():
    results = check_general_qdg(alphas=(R.gen("a"), R.gen("a", -1), 1, 1), label="custom")
    assert all(r.ok for r in results)
    with pytest.raises(bt.NotInvertibleError):
        check_general_qdg(alphas=(Q + 1, 1, 1, 1))


def test_presentation_maps():
    results = check_presentation_maps()
    assert all(r.ok for r in results)
    assert len(results) == 20


def test_every_fixture_row_is_consumed_exactly_once():
    checked = [r.name for r in check_expansion_tables()]
    assert len(checked) == len(set(checked))
    covered = {name.split(".", 1)[1] for name in checked}
    for table in ALL_TABLES:
        for row in table.rows:
            assert row.column in covered


def test_fixture_rows_have_provenance():
    for table in ALL_TABLES:
        assert table.source


def test_checks_are_idempotent():
    first = [(r.name, r.status) for r in check_s_commutation()]
    second = [(r.name, r.status) for r in check_s_commutation()]
    assert first == second


def test_negative_controls_all_detect():
    controls = identities.negative_controls()
    assert len(controls) >= 40
    for name, thunk in controls:
        result = thunk()
        assert result.ok, "control %s did not detect its perturbation" % name
        assert result.name == name


def test_engine_checks_pass():
    for name, thunk in identities.engine_checks(words=150, samples=20):
        result = thunk()
        assert result.ok, "%s failed: %s" % (name, result.witness)


def test_check_result_contract():
    ok = CheckResult.from_difference("x", bt.zero())
    assert ok.ok and ok.witness is None
    bad = CheckResult.from_difference("x", generator(0))
    assert not bad.ok and bad.witness is not None


def test_s_elements_against_serre_shape():
    # the even combination mirrors the two-letter q-Serre combination
    s0 = s_element(0)
    three = qint(3)
    assert s0.terms[M("x0.x0.x0.x2")] == ONE
    assert s0.terms[M("x0.x0.x2.x0")] == -three
    assert s0.terms[M("x0.x2.x0.x0")] == three
    assert s0.terms[M("x2.x0.x0.x0")] == -ONE
