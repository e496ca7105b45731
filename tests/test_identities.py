import fnmatch

import pytest

from qdg import boxtilde as bt
from qdg import identities
from qdg.boxtilde import generator, s_element
from qdg.expr import ParseError
from qdg.identities import ALL_TABLES, CoeffTable, M, verdict
from qdg.qcoeff import DEFAULT_RING, qint

R = DEFAULT_RING
Q = R.gen("q")
ONE = R.one()


def run_matching(glob):
    """Runs the registered checks whose names match the glob, as `--check` does."""
    return {name: thunk() for name, thunk in identities.checks() if fnmatch.fnmatchcase(name, glob)}


def test_s_commutation_all_pass():
    results = run_matching("s_commutation.*")
    assert len(results) == 8
    assert all(r.ok for r in results.values())
    assert "s_commutation.i0.right" in results
    assert "s_commutation.i2.left" in results


def test_s_commutation_detects_wrong_exponent():
    diff = identities._s_commutation_diff(0, "right", 3)
    assert diff  # q^3 instead of q^4 leaves a nonzero witness


def test_expansion_tables_all_pass():
    results = run_matching("tables.*")
    assert len(results) == sum(len(t.columns) for t in ALL_TABLES) == 29
    assert all(r.ok for r in results.values())


def test_specific_fixture_coefficients():
    a2 = identities._column_product("a2")
    assert a2.terms[M("x0", "x1")] == ONE + Q ** 2
    ab = identities._column_product("ab")
    assert ab.terms[M(c="c1")] == ONE - Q ** -2
    aba2 = identities._column_product("aba2")
    assert aba2.terms[M("x0.x0.x0", "x3")] == Q ** -4


def test_perturbed_fixture_fails():
    table = next(t for t in ALL_TABLES if t.name == "a2")
    assert not identities._table_diff(table, "a2")
    assert identities._table_diff(table, "a2", perturb=True)


def test_monomial_specs_are_read_by_the_parser():
    assert M("x0.x2", "x1.x3", "c0^2.c3^-1.c0") == ((0, 2), (1, 3), (3, 0, 0, -1))
    assert M() == bt.IDENTITY_MONO
    # a word letter, a coefficient symbol or a fifth central generator in
    # the central slot
    for c in ("x1", "q0", "c4"):
        with pytest.raises(ParseError):
            M(c=c)
    with pytest.raises(ParseError):
        M("x1")


def test_fixture_grid_rows_must_match_the_columns():
    grid = [(M("x0.x0"), [ONE, 0]), (M(c="c0"), [ONE])]
    with pytest.raises(ValueError, match="row width mismatch in table bad"):
        CoeffTable("bad", "a grid row with one entry too few", ("a2", "ab"), grid)
    CoeffTable("good", "every grid row as wide as the columns", ("a2", "ab"), grid[:1])


def test_qdg_error_terms():
    results = run_matching("qdg_error_terms.*")
    assert [r.status for r in results.values()] == ["pass", "pass"]
    # dropping the central factor must leave a witness
    assert identities._qdg_diff(0, drop_central=True)
    assert identities._qdg_diff(1, drop_central=True)


def test_general_qdg_configs():
    results = run_matching("general_qdg.*")
    assert all(r.ok for r in results.values())
    assert "general_qdg.natural.side_condition" in results
    assert len(results) == 7


def test_general_qdg_custom_alpha():
    checks = identities._general_qdg_checks("custom", (R.gen("a"), R.gen("a", -1), 1, 1), False)
    assert [name for name, _ in checks] == ["general_qdg.custom.first", "general_qdg.custom.second"]
    assert all(thunk().ok for _, thunk in checks)
    with pytest.raises(bt.NotInvertibleError):
        for _, thunk in identities._general_qdg_checks("custom", (Q + 1, 1, 1, 1), False):
            thunk()


def test_presentation_maps():
    results = run_matching("presentation_maps.*")
    assert all(r.ok for r in results.values())
    assert len(results) == 20


def test_every_fixture_row_is_consumed_exactly_once():
    checked = [name for name, _ in identities.checks() if name.startswith("tables.")]
    assert len(checked) == len(set(checked))
    columns = [column for table in ALL_TABLES for column in table.columns]
    assert sorted(checked) == sorted("tables." + column for column in columns)
    for table in ALL_TABLES:
        for _, entries in table.grid:
            assert any(entries)


def test_fixture_rows_have_provenance():
    for table in ALL_TABLES:
        assert table.source


def test_checks_are_idempotent():
    first = {name: r.status for name, r in run_matching("s_commutation.*").items()}
    second = {name: r.status for name, r in run_matching("s_commutation.*").items()}
    assert first == second


def test_negative_controls_all_detect():
    controls = identities.negative_controls()
    assert len(controls) >= 40
    for name, thunk in controls:
        result = thunk()
        assert result.ok, "control %s did not detect its perturbation" % name


def test_engine_checks_pass():
    for name, thunk in identities.engine_checks(words=150, samples=20):
        result = thunk()
        assert result.ok, "%s failed: %s" % (name, result.witness)


def test_check_result_contract():
    ok = identities._diff_check("x", bt.zero)[1]()
    assert ok.ok and ok.witness is None
    bad = identities._diff_check("x", generator, 0)[1]()
    assert not bad.ok and bad.witness == generator(0)
    assert verdict(True, "unused") == verdict(True)
    assert verdict(False, "why").witness == "why"


def test_s_elements_against_serre_shape():
    # the even combination mirrors the two-letter q-Serre combination
    s0 = s_element(0)
    three = qint(3)
    assert s0.terms[M("x0.x0.x0.x2")] == ONE
    assert s0.terms[M("x0.x0.x2.x0")] == -three
    assert s0.terms[M("x0.x2.x0.x0")] == three
    assert s0.terms[M("x2.x0.x0.x0")] == -ONE
