import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qdg
from qdg import boxtilde as bt
from qdg import freealg
from qdg.cli import build_checks, main


@pytest.fixture(autouse=True)
def restore_limits():
    saved = (bt.LIMITS.word_cap, bt.LIMITS.term_budget)
    yield
    bt.LIMITS.word_cap, bt.LIMITS.term_budget = saved


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nf_reduction_rule_byte_exact(capsys):
    code, out, _ = run(capsys, ["nf", "x1*x0"])
    assert code == 0
    assert out == "q^2 * [x0 | x1 | -] + (1 - q^2) * [- | - | c0]\n"


def test_nf_other_examples(capsys):
    code, out, _ = run(capsys, ["nf", "x0*x1"])
    assert code == 0
    assert out == "[x0 | x1 | -]\n"
    code, out, _ = run(capsys, ["nf", "x3*x0"])
    assert code == 0
    assert out == "q^-2 * [x0 | x3 | -] + (1 - q^-2) * [- | - | c3]\n"


def test_nf_parse_error_exit_code(capsys):
    code, _, err = run(capsys, ["nf", "x1*"])
    assert code == 2
    assert "parse error" in err


def test_nf_budget_exit_code(capsys, monkeypatch):
    # a power of one letter stays normal, so only the concatenation path runs
    code, out, err = run(capsys, ["nf", "x0^70"])
    assert code == 3
    assert out == "" and "budget" in err
    monkeypatch.setenv("QDG_WORD_CAP", "2")
    code, _, err = run(capsys, ["nf", "x1*x0*x2*x3"])
    assert code == 3
    assert "budget" in err


def test_nf_large_central_powers(capsys):
    code, out, _ = run(capsys, ["nf", "c0^1000000*c0"])
    assert code == 0
    assert out == "[- | - | c0^1000001]\n"
    for text in ("c0^-9223372036854775808", "c0^9223372036854775807*c0"):
        code, out, err = run(capsys, ["nf", text])
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "overflow" in err


def test_nf_coefficient_too_large_to_print(capsys):
    # 2^20000 has 6021 decimal digits, past the interpreter's default limit
    code, out, err = run(capsys, ["nf", "2^20000"])
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "overflow" in err and "20001 bits" in err


def test_nf_exponent_too_large_to_print(capsys):
    # eleven 4299-digit exponents sum to one of 4300 digits, past the
    # interpreter's default limit on int-to-str conversion
    n = "9" * 4299
    for text, symbol in (("*".join(["q^" + n] * 11), "q"), ("(a^%s)^11" % n, "a"), ("(x0*b^%s)^11" % n, "b")):
        code, out, err = run(capsys, ["nf", text])
        expected = "overflow: an exponent of %s of 14285 bits is too large to print in decimal\n" % symbol
        assert (code, out, err) == (3, "", expected)
    # exponents within the limit print
    assert run(capsys, ["nf", "q^99999999999999999999*x0"]) == (0, "q^99999999999999999999 * [x0 | - | -]\n", "")
    code, out, _ = run(capsys, ["nf", "q^%s*q^%s" % (n, n)])
    assert (code, out) == (0, "q^%d * [- | - | -]\n" % (2 * int(n)))


def test_nf_oversized_power_is_refused_before_it_is_built(capsys, monkeypatch):
    def no_power(base, n, one):
        raise AssertionError("the power was built")

    # the refusal sits in `BoxElem.__pow__`, ahead of the power loop
    with monkeypatch.context() as m:
        m.setattr(bt, "power", no_power)
        code, out, err = run(capsys, ["nf", "2^200000000"])
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "overflow" in err and "200000001 bits" in err
    # a bit count past the interpreter's print limit is named as a power of 2
    code, out, err = run(capsys, ["nf", "(1048576*x0)^" + "9" * 4299])
    assert (code, out) == (3, "")
    assert err == "overflow: a power with a coefficient of at least 2^14285 bits is past the bound of 1048576 bits\n"
    # a unit coefficient never grows, and a central power has coefficient 1
    for text, printed in (
        ("1^1000000000", "[- | - | -]\n"),
        ("(-1)^1000000001", "-[- | - | -]\n"),
        ("c0^1000000*c0", "[- | - | c0^1000001]\n"),
    ):
        code, out, _ = run(capsys, ["nf", text])
        assert (code, out) == (0, printed)
    # a power short of the bound is built, and may cancel before printing
    for text, printed in (("2^20000 - 2^20000", "0\n"), ("2^15000*0 + x0", "[x0 | - | -]\n")):
        code, out, _ = run(capsys, ["nf", text])
        assert (code, out) == (0, printed)


def test_nf_oversized_power_names_a_long_bit_count_by_its_size(capsys):
    # a bit count of 2^64 or more is given as a power of 2, not in decimal
    code, out, err = run(capsys, ["nf", "2^" + "9" * 4299])
    assert (code, out) == (3, "")
    assert len(err.encode()) < 200 and "overflow" in err and "at least 2^" in err
    assert err.count("\n") == 1


def test_nf_integer_literal_too_long(capsys):
    for text in ("7" * 5000, "x0^" + "7" * 5000, "3*qint(-%s)" % ("9" * 5000)):
        code, out, err = run(capsys, ["nf", text])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "5000 digits" in err


def test_nf_reads_only_ascii_digits_and_ascii_whitespace(capsys):
    # an Arabic-Indic and a fullwidth 3 are no INT, a no-break space
    # separates no tokens
    for text, offset in (("\u0663*x0", 0), ("\uff13*x0", 0), ("x0 +\xa0x1", 4)):
        expected = "parse error: unexpected character %r (at offset %d)\n" % (text[offset], offset)
        assert run(capsys, ["nf", text]) == (2, "", expected)
    assert run(capsys, ["nf", " 3 *\tx0\n"]) == (0, "3 * [x0 | - | -]\n", "")


def test_nf_deep_input_is_refused_or_evaluated_without_recursing(capsys):
    code, out, err = run(capsys, ["nf", "(" * 300 + "x0" + ")" * 300])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "nested deeper than 100" in err and "offset 100" in err
    # a long product is a left-nested chain, folded without recursion
    code, out, err = run(capsys, ["nf", "*".join(["1"] * 1200)])
    assert (code, out, err) == (0, "[- | - | -]\n", "")
    code, out, _ = run(capsys, ["nf", "(" * 100 + "x0" + ")" * 100])
    assert (code, out) == (0, "[x0 | - | -]\n")


def test_nf_bracket_central_powers_share_the_bound(capsys):
    for text in (
        "c0^99999999999999999999",
        "[- | - | c0^99999999999999999999]",
        "[- | - | c0^-9223372036854775808]",
        "[- | - | c1^9223372036854775807.c1]",
    ):
        code, out, err = run(capsys, ["nf", text])
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "overflow" in err
    code, out, _ = run(capsys, ["nf", "[- | - | c0^9223372036854775807]"])
    assert (code, out) == (0, "[- | - | c0^9223372036854775807]\n")


def test_term_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("QDG_TERM_BUDGET", "3")
    code, _, err = run(capsys, ["nf", "x1*x3*x0*x2*x0*x2"])
    assert code == 3



@pytest.mark.parametrize(
    "text, message",
    [
        ("x0+x1+x2", "sum reached 3 terms (limit 2)"),
        ("x0 - x1 - c0", "sum reached 3 terms (limit 2)"),
        ("(1+a+b)^2", "sum reached 3 terms (limit 2)"),
        ("(1+a)*(1+b)", "multiply reached 4 terms (limit 2)"),
        ("(x0+x1)*(1+a)", "multiply reached 4 terms (limit 2)"),
    ],
)
def test_nf_sums_and_scalar_products_count_against_the_term_budget(capsys, monkeypatch, text, message):
    monkeypatch.setenv("QDG_TERM_BUDGET", "2")
    assert run(capsys, ["nf", text]) == (3, "", "budget exceeded: term budget: %s\n" % message)

def test_nf_qint_counts_against_the_term_budget(capsys, monkeypatch):
    # [n]_q has |n| terms, so the budget refuses a large n before it is built
    monkeypatch.setenv("QDG_TERM_BUDGET", "10")
    code, out, err = run(capsys, ["nf", "qint(11)"])
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "qint reached 11 terms (limit 10)" in err
    code, out, _ = run(capsys, ["nf", "qint(10)"])
    assert (code, out) == (0, "(q^9 + q^7 + q^5 + q^3 + q + q^-1 + q^-3 + q^-5 + q^-7 + q^-9) * [- | - | -]\n")
    code, out, err = run(capsys, ["nf", "qint(-1000000000)"])
    assert (code, out) == (3, "")
    assert "qint reached 1000000000 terms (limit 10)" in err


# Tokens of the surface syntax, joined by spaces so that no two digits merge
# into a larger exponent: the time of a power of a many-term coefficient is
# not bounded by any budget, so this test checks exit codes, not time.
_NF_TOKENS = (
    "0", "1", "2", "3", "9" * 5000, "q", "a", "b", "x0", "x1", "x2", "x3", "c0", "c1", "c3",
    "qint", "x", "-", "+", "*", "^", "(", ")", "[", "]", "|", ".",
)


@given(st.lists(st.sampled_from(_NF_TOKENS), max_size=20).map(" ".join))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_nf_exits_0_2_or_3_on_any_token_string(capsys, monkeypatch, text):
    monkeypatch.setenv("QDG_WORD_CAP", "4")
    monkeypatch.setenv("QDG_TERM_BUDGET", "12")
    code, out, err = run(capsys, ["nf", "--", text])
    assert code in (0, 2, 3), text
    assert (out != "") == (code == 0) and (err != "") == (code != 0), text


def test_verify_filter_and_exit_codes(capsys):
    code, out, _ = run(capsys, ["verify", "--check", "s_commutation.*"])
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("s_commutation")]
    assert len(lines) == 8
    for glob in ("nosuch", ""):
        code, _, err = run(capsys, ["verify", "--check", glob])
        assert code == 2
        assert "no check matches" in err


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, ["verify", "--check", "qdg_error_terms.*", "--json"])
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"version", "config", "checks", "summary"}
    assert set(report["config"]) == {"ring", "term_budget", "word_cap", "seed"}
    assert report["summary"] == {"pass": 2, "fail": 0}
    for entry in report["checks"]:
        assert set(entry) <= {"name", "status", "witness", "ms"}
        assert entry["status"] == "pass"
        # each check is timed on its own, not as part of a batch
        assert entry["ms"] > 0
    assert report["config"]["ring"] == ["q", "a", "b"]


def test_verify_json_deterministic_apart_from_timing(capsys):
    def normalized():
        code, out, _ = run(capsys, ["verify", "--check", "tables.*", "--json"])
        assert code == 0
        report = json.loads(out)
        for entry in report["checks"]:
            entry.pop("ms")
        return json.dumps(report, sort_keys=True)

    assert normalized() == normalized()


def test_engine_limits_do_not_outlive_the_call_that_set_them(capsys, monkeypatch):
    monkeypatch.setenv("QDG_WORD_CAP", "3")
    monkeypatch.setenv("QDG_TERM_BUDGET", "5")
    code, _, err = run(capsys, ["nf", "x0*x0*x0*x0"])
    assert code == 3 and "(cap 3)" in err
    # an unset and an empty variable both restore the default
    monkeypatch.delenv("QDG_WORD_CAP")
    monkeypatch.setenv("QDG_TERM_BUDGET", "")
    assert run(capsys, ["nf", "x0*x0*x0*x0"]) == (0, "[x0.x0.x0.x0 | - | -]\n", "")
    code, out, _ = run(capsys, ["verify", "--check", "tables.*", "--json"])
    assert code == 0
    assert json.loads(out)["config"]["word_cap"] == bt.EngineLimits.word_cap == 64
    assert json.loads(out)["config"]["term_budget"] == bt.EngineLimits.term_budget == 1_000_000


def test_verify_reports_budget_errors(capsys, monkeypatch):
    monkeypatch.setenv("QDG_TERM_BUDGET", "10")
    code, out, _ = run(capsys, ["verify", "--check", "tables.*", "--json"])
    assert code == 3
    report = json.loads(out)
    errors = [e for e in report["checks"] if e["status"] == "error"]
    # the witness names the operation and the size it reached
    witness = re.compile(r"term budget: (reduce_word|multiply) reached (\d+) terms \(limit 10\)")
    matches = [witness.fullmatch(e["witness"]) for e in errors]
    assert errors and all(m and int(m.group(2)) > 10 for m in matches)
    assert set(report["summary"]) == {"pass", "fail"}
    assert report["summary"]["fail"] == len(errors)
    assert report["summary"]["pass"] + len(errors) == len(report["checks"])


def test_a_budget_error_outside_a_check_exits_3(capsys, monkeypatch):
    # `main` maps a budget error from any command to exit 3, so one raised
    # while the registry is built is one line, not a traceback
    def over_budget(seed):
        raise bt.TermBudgetError("term budget: sum reached 4 terms (limit 3)")

    monkeypatch.setattr("qdg.cli.build_checks", over_budget)
    code, out, err = run(capsys, ["verify", "--all"])
    assert (code, out, err) == (3, "", "budget exceeded: term budget: sum reached 4 terms (limit 3)\n")


def test_malformed_env_limits(capsys, monkeypatch):
    for var, value in (("QDG_WORD_CAP", "abc"), ("QDG_TERM_BUDGET", "0"), ("QDG_WORD_CAP", "-5")):
        with monkeypatch.context() as m:
            m.setenv(var, value)
            code, out, err = run(capsys, ["nf", "x0"])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and var in err


def test_dims_table(capsys):
    code, out, _ = run(capsys, ["dims", "--max", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split() == ["0", "1", "0", "1", "ok"]
    assert lines[3].split() == ["2", "4", "0", "4", "ok"]
    assert lines[5].split() == ["4", "16", "2", "14", "ok"]
    assert lines[6].split() == ["5", "32", "8", "24", "ok"]


def test_dims_json_and_cap(capsys):
    code, out, _ = run(capsys, ["dims", "--max", "4", "--json"])
    assert code == 0
    report = json.loads(out)
    assert [row["dim"] for row in report["rows"]] == [1, 2, 4, 8, 14]
    assert all(row["specialization_agrees"] for row in report["rows"])
    code, _, err = run(capsys, ["dims", "--max", "99"])
    assert code == 2
    assert "cap" in err
    code, out, err = run(capsys, ["dims", "--max", "-1"])
    assert code == 2
    assert out == "" and "-1" in err


@pytest.mark.parametrize(
    "var, value, message",
    [
        ("QDG_WORD_CAP", "4", "budget exceeded: reduction budget: serre_rules reached 5 letters (cap 4)"),
        ("QDG_TERM_BUDGET", "3", "budget exceeded: term budget: serre_rules reached 4 terms (limit 3)"),
    ],
)
def test_dims_budget_errors_exit_3(capsys, monkeypatch, var, value, message):
    monkeypatch.setenv(var, value)
    code, out, err = run(capsys, ["dims", "--max", "6"])
    assert (code, out, err) == (3, "", message + "\n")
    monkeypatch.setenv(var, "100")
    assert run(capsys, ["dims", "--max", "6"])[0] == 0


def test_dims_rule_budget_exits_3(capsys, monkeypatch):
    # the q-Serre combinations fit in 10 terms; a remainder of the rewriting
    # step does not
    monkeypatch.setenv("QDG_TERM_BUDGET", "10")
    code, out, err = run(capsys, ["dims", "--max", "9"])
    assert (code, out) == (3, "")
    assert err.startswith("budget exceeded: term budget: serre_rules reached ")
    assert err.endswith(" terms (limit 10)\n")


@pytest.mark.parametrize(
    "budget, reached",
    [(4, 6), (5, 6), (6, 8), (8, 10), (10, 13), (13, 15), (16, 18), (20, 30), (30, 35)],
)
def test_dims_term_budget_messages_are_pinned(capsys, monkeypatch, budget, reached):
    # the size of the first remainder past each budget: it depends on the
    # order of the reduction steps, not on how a row is stored
    monkeypatch.setenv("QDG_TERM_BUDGET", str(budget))
    code, out, err = run(capsys, ["dims", "--max", "10"])
    assert (code, out) == (3, "")
    assert err == "budget exceeded: term budget: serre_rules reached %d terms (limit %d)\n" % (reached, budget)


def test_dims_mismatch_fails(capsys, monkeypatch):
    # negative control: a cross-check against a lead set one word off the
    # rewriting system's (one word too many, "x" * n, which no rule rewrites)
    walk = freealg.span_leads_mod_p
    points = []
    draw = freealg.random_residue_point

    def spy(rng):
        points.append(draw(rng))
        return points[-1]

    def one_word_off(point):
        for n, leads in enumerate(walk(point)):
            yield leads | {"x" * n}

    monkeypatch.setattr(freealg, "random_residue_point", spy)
    # agreeing degrees walk one point, advanced once a degree
    assert run(capsys, ["dims", "--max", "11"])[0] == 0
    assert len(points) == 1
    del points[:]
    monkeypatch.setattr(freealg, "span_leads_mod_p", one_word_off)
    code, out, _ = run(capsys, ["dims", "--max", "5"])
    assert code == 1
    rows = out.splitlines()[1:]
    assert len(rows) == 6 and all(line.endswith("MISMATCH") for line in rows)
    # the retries are bounded over the whole command, not per degree
    assert 1 < len(points) <= freealg._POINTS


def _one_irreducible(leads, n):
    return (leads - {min(leads)}) | {freealg.irreducible_words(freealg.serre_rules(n), n)[0]}


@pytest.mark.parametrize(
    "alter",
    [
        _one_irreducible,
        lambda leads, n: (leads - {min(leads)}) | {min(leads) + "x"},
        lambda leads, n: (leads - {min(leads)}) | {"z" + min(leads)[1:]},
        lambda leads, n: leads - {min(leads)},
    ],
    ids=["one-irreducible", "one-too-long", "one-not-over-x-and-y", "one-missing"],
)
def test_dims_agrees_only_on_the_reducible_words(capsys, monkeypatch, alter):
    # negative controls of the agreement rule: from degree 4 on, where there
    # are leads to alter, each walk's leads are one word off those the rules
    # rewrite; all but the last keep their number
    walk = freealg.span_leads_mod_p

    def altered(point):
        for n, leads in enumerate(walk(point)):
            yield alter(set(leads), n) if n >= 4 else leads

    monkeypatch.setattr(freealg, "span_leads_mod_p", altered)
    code, out, _ = run(capsys, ["dims", "--max", "5"])
    assert code == 1
    assert [line.split()[-1] for line in out.splitlines()[1:]] == ["ok"] * 4 + ["MISMATCH"] * 2


def test_dims_builds_no_list_of_all_words(capsys, monkeypatch):
    # rank and dim come from the irreducible words; only the walk lists the
    # words w of each w * S_g
    callers = []
    words_of_length = freealg.words_of_length

    def spy(n):
        callers.append(sys._getframe(1).f_code.co_name)
        return words_of_length(n)

    monkeypatch.setattr(freealg, "words_of_length", spy)
    assert run(capsys, ["dims", "--max", "8"])[0] == 0
    assert callers and set(callers) == {"span_leads_mod_p"}


def _pbw_series(n_max):
    """Coefficients of prod_{d odd} (1 - t^d)^-2 prod_{d even} (1 - t^d)^-1
    up to t^n_max: two root vectors in each odd degree, one in each even."""
    coeffs = [1] + [0] * n_max
    for d in range(1, n_max + 1):
        for _ in range(2 if d % 2 else 1):
            # multiply by 1 / (1 - t^d)
            for k in range(d, n_max + 1):
                coeffs[k] += coeffs[k - d]
    return coeffs


def test_dims_match_the_pbw_count_through_degree_11(capsys):
    assert _pbw_series(11) == [1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232, 344]
    code, out, _ = run(capsys, ["dims", "--max", "11", "--json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["dim"] for row in rows] == _pbw_series(11)
    assert all(row["specialization_agrees"] for row in rows)
    assert all(row["rank"] + row["dim"] == 2 ** row["n"] for row in rows)


def test_registry_names_are_stable():
    names = set(build_checks())
    expected_subset = {
        "s_commutation.i0.right",
        "tables.a2",
        "tables.a3b",
        "qdg_error_terms.first",
        "general_qdg.natural.side_condition",
        "presentation_maps.tet.serre.i3",
        "engine.confluence",
        "engine.oracle_equivalence",
        "gradings.phi_leading.n5",
        "gradings.spread.n8",
        "negative.tables.a2",
        "negative.engine.relation_sign",
    }
    assert expected_subset <= names


def test_every_check_group_has_negative_controls():
    registry = build_checks()
    groups = ("s_commutation", "tables", "qdg_error_terms", "general_qdg", "presentation_maps", "engine", "gradings")
    for group in groups:
        assert any(n.startswith(group + ".") for n in registry)
        assert any(n.startswith("negative.%s." % group) for n in registry), group


def test_verify_report_matches_the_golden_registry(capsys):
    # recorded from `qdg verify --all --json` with every `ms` removed: a
    # check dropped, renamed or changing status shows up here
    golden = json.loads((Path(__file__).parent / "golden_verify.json").read_text())
    code, out, _ = run(capsys, ["verify", "--all", "--json"])
    assert code == 0
    report = json.loads(out)
    for entry in report["checks"]:
        del entry["ms"]
    assert report == golden


def _fresh_modules(code):
    """The `qdg` modules, and `dataclasses` and `inspect` if loaded, after
    `code` runs in a fresh `python -W error` interpreter; the last line of
    its standard output, after what a command printed."""
    probe = code + (
        "\nimport sys\n"
        "print(sorted(m for m in sys.modules if m in ('dataclasses', 'inspect') or m.split('.')[0] == 'qdg'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(qdg.__file__).parents[1]))
    argv = [sys.executable, "-W", "error", "-c", probe]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True, timeout=60)
    return out.stdout.splitlines()[-1]


def test_import_loads_every_module_and_no_dataclasses():
    # `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`, a
    # quarter of the start-up of every command; no `qdg` module imports it
    names = sorted("qdg." + m.name for m in pkgutil.iter_modules(qdg.__path__))
    assert "qdg.limits" in names and len(names) == 8
    assert _fresh_modules("import " + ", ".join(names)) == repr(["qdg"] + names)


@pytest.mark.parametrize(
    "code, modules",
    [
        ("import qdg", []),
        ("import qdg.cli", ["cli", "limits", "qcoeff"]),
        ("from qdg.cli import main; main(['dims', '--max', '5'])", ["cli", "freealg", "limits", "qcoeff"]),
        ("from qdg.cli import main; main(['nf', 'x1*x0'])", ["boxtilde", "cli", "expr", "limits", "qcoeff"]),
        (
            "from qdg.cli import main; main(['verify', '--check', 'tables.*'])",
            ["boxtilde", "cli", "expr", "gradings", "identities", "limits", "qcoeff"],
        ),
    ],
)
def test_each_command_loads_only_its_modules(code, modules):
    # a command compiles the modules it runs, in a fresh process with no
    # bytecode cache the larger part of its start-up: `dims` never loads
    # the kernel or the checks, `nf` never the free algebra or the checks
    assert _fresh_modules(code) == repr(["qdg"] + ["qdg." + m for m in modules])


# the names `qdg` re-exports, by defining module
EXPORTS = {
    "qcoeff": ["DEFAULT_RING", "LaurentPoly", "LaurentRing", "NotInvertibleError", "qint"],
    "boxtilde": [
        "BoxElem", "NormalMono", "central_gen", "generator", "module_action_oracle", "multiply",
        "oracle_as_box", "reduce_word", "rho", "s_element", "scale_auto", "specialize_central",
    ],
    "freealg": ["dim_uplus", "rank_over_fraction_field", "relation_span", "serre_elements"],
    "gradings": ["bidegree_components", "phi_n", "pi", "sharp_lift"],
    "identities": ["CheckResult"],
    "expr": ["ParseError", "eval_text", "evaluate", "parse", "render"],
}


def test_package_names_resolve_to_their_defining_modules():
    from qdg import limits

    for module, names in EXPORTS.items():
        defining = importlib.import_module("qdg." + module)
        for name in names:
            assert getattr(qdg, name) is getattr(defining, name), name
            assert name in dir(qdg)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qdg.no_such_name
    # a submodule is still imported by `from qdg import ...`, and `boxtilde`
    # binds the budgets of `limits` under their old names
    assert _fresh_modules("from qdg import freealg") == repr(["qdg", "qdg.freealg", "qdg.limits", "qdg.qcoeff"])
    for name in ("LIMITS", "EngineLimits", "ReductionBudgetError", "TermBudgetError"):
        assert getattr(bt, name) is getattr(limits, name)


def _cli_to(stdout, argv, unbuffered):
    env = dict(os.environ, PYTHONPATH=str(Path(qdg.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = [sys.executable, "-W", "error", "-m", "qdg.cli"] + argv
    return subprocess.run(command, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)


UNWRITABLE_RUNS = [
    ["nf", "x1*x0"],
    ["nf", "(x0+x1)^12"],
    ["verify", "--check", "tables.*", "--json"],
    ["dims", "--max", "5"],
]


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", UNWRITABLE_RUNS)
def test_a_closed_pipe_is_an_output_error(argv, unbuffered):
    # the reader is gone before anything is written; the command says so in
    # one line and exits 2, not 1 (a failed check) with a traceback, and the
    # interpreter adds no second error as it flushes at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _cli_to(write_end, argv, unbuffered)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, "output error: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", UNWRITABLE_RUNS)
def test_a_full_device_is_an_output_error(argv, unbuffered):
    with open("/dev/full", "w") as full:
        done = _cli_to(full, argv, unbuffered)
    assert (done.returncode, done.stderr) == (2, "output error: [Errno 28] No space left on device\n")
