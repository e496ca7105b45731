"""Fast tests of the benchmark's own code: the input stream, the percentile
rule, the tracer, the speed meter, and each output check with a negative
control.

    python3 -m pytest -q perfbench/tests
"""

import os
import sys
import signal
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import checks  # noqa: E402
import nfstream  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from qdg import boxtilde as bt  # noqa: E402
from qdg import expr, identities  # noqa: E402
from qdg.qcoeff import DEFAULT_RING as RING  # noqa: E402

PBW_TO_11 = [1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232, 344]


# -- the nf stream -------------------------------------------------------------


def test_one_seed_gives_one_stream():
    first = nfstream.stream(7, 200)
    assert first == nfstream.stream(7, 200)
    assert [t for t, _ in first] != [t for t, _ in nfstream.stream(8, 200)]
    assert len({t for t, _ in first}) == 200


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_generated_text_parses(seed):
    for text, structure in nfstream.stream(seed, 300):
        expr.parse(text, "box")
        assert 1 <= len(structure) <= 4
        assert all(1 <= len(f.terms) <= 3 for f in structure)
        length = sum(max(len(t.word) for t in f.terms) * (2 if f.squared else 1) for f in structure)
        assert length <= nfstream.WORD_CAP


# -- percentiles -----------------------------------------------------------------


def test_tail_percentile_has_ten_samples_beyond_it():
    assert checks.tail_percentile(1000) == 99.0
    assert checks.tail_percentile(999) == 90.0
    assert checks.tail_percentile(10000) == 99.9
    assert checks.tail_percentile(20) == 50.0
    with pytest.raises(ValueError):
        checks.tail_percentile(19)
    values = list(range(1, 1001))
    p99 = checks.percentile(values, 99.0)
    assert p99 == 990
    assert sum(1 for v in values if v > p99) == 10


# -- the PBW count ---------------------------------------------------------------


def test_pbw_series_gives_the_known_dimensions():
    assert checks.pbw_dims(11) == PBW_TO_11


# -- the nf oracle route ----------------------------------------------------------


def test_oracle_route_matches_nf():
    memo = {}
    for text, structure in nfstream.stream(4, 40):
        value = expr.eval_text(text, "box")
        assert nfstream.expected_value(structure, memo) == value
        assert not checks.check_nf(expr.render(value), nfstream.expected_value(structure, memo))


def test_oracle_route_control_with_swapped_letters():
    caught = 0
    for text, structure in nfstream.stream(5, 40):
        first = structure[0]
        term = first.terms[0]
        if len(term.word) < 2 or term.word[0] == term.word[1]:
            continue
        swapped = term._replace(word=(term.word[1], term.word[0]) + term.word[2:])
        perturbed = (first._replace(terms=(swapped,) + first.terms[1:]),) + structure[1:]
        value = expr.eval_text(text, "box")
        if nfstream.expected_value(perturbed, {}) != value:
            caught += 1
    assert caught >= 5


# -- output checks and their negative controls ---------------------------------


def test_check_nf_catches_a_perturbed_normal_form():
    value = expr.eval_text("(x1*x0 + 2*q*x3)*(x2 + a*x1*c0^-1)", "box")
    assert not checks.check_nf(expr.render(value), value)
    assert checks.check_nf(expr.render(value + bt.generator(0)), value)


def test_check_nf_catches_a_perturbed_rendering():
    value = expr.eval_text("(x1*x0 + 2*q*x3)^2", "box")
    printed = expr.render(value)
    assert "2" in printed
    assert checks.check_nf(printed.replace("2", "3", 1), value)
    assert checks.check_nf(printed + " +", value)
    assert checks.check_nf(printed + " + x0", value)


def test_parse_back_reads_zero():
    value = expr.eval_text("(x0 - x0)*x1", "box")
    assert expr.render(value) == "0"
    assert not checks.check_nf("0", value)


def _verify_report(names):
    return {
        "checks": [{"name": n, "status": "pass", "ms": 1.0} for n in names],
        "summary": {"pass": len(names), "fail": 0},
    }


REGISTRY = ["engine.confluence", "tables.A2", "negative.tables.A2"]


def test_check_verify_accepts_a_clean_report():
    assert not checks.check_verify(0, _verify_report(REGISTRY), REGISTRY)


@pytest.mark.parametrize("perturb", ["exit", "status", "negative", "missing", "summary"])
def test_check_verify_catches_a_perturbed_report(perturb):
    code, report = 0, _verify_report(REGISTRY)
    if perturb == "exit":
        code = 1
    elif perturb == "status":
        report["checks"][0]["status"] = "fail"
    elif perturb == "negative":
        report["checks"][2]["status"] = "fail"
    elif perturb == "missing":
        report["checks"].pop()
    else:
        report["summary"]["pass"] -= 1
    assert checks.check_verify(code, report, REGISTRY)


def _dims_report(n_max):
    rows = [
        {"n": n, "words": 2 ** n, "rank": 2 ** n - d, "dim": d, "specialization_agrees": True}
        for n, d in enumerate(PBW_TO_11[: n_max + 1])
    ]
    return {"rows": rows}


def test_check_dims_accepts_the_pbw_table():
    assert not checks.check_dims(0, _dims_report(11), 11)


@pytest.mark.parametrize("perturb", ["exit", "dim", "rank", "specialization", "degrees"])
def test_check_dims_catches_a_perturbed_table(perturb):
    code, report = 0, _dims_report(11)
    row = report["rows"][9]
    if perturb == "exit":
        code = 1
    elif perturb == "dim":
        row["dim"] += 1
        row["rank"] -= 1
    elif perturb == "rank":
        row["rank"] += 1
    elif perturb == "specialization":
        row["specialization_agrees"] = False
    else:
        report["rows"].pop()
    assert checks.check_dims(code, report, 11)


# -- the tracer ------------------------------------------------------------------


def test_tracer_sees_every_binding_and_restores_them():
    original = bt.reduce_word
    t = tracer.Tracer()
    t.time(bt.reduce_word, "reduce_word")
    t.time(RING.one().__class__.__mul__, "mul")
    try:
        assert identities.reduce_word is not original
        bt.reduce_word((1, 0))
        identities.reduce_word((3, 2))
    finally:
        t.remove()
    assert bt.reduce_word is original and identities.reduce_word is original
    stat = t.stats["reduce_word"]
    assert stat.calls == 2
    assert t.stats["mul"].calls > 0
    assert 0.0 <= stat.self_time < stat.total


# -- the speed meter -------------------------------------------------------------


def test_scale_is_reference_over_mean_slice():
    meter = speed.Meter()
    meter.slices = [speed.REF_SLICE_S, 3 * speed.REF_SLICE_S, 2 * speed.REF_SLICE_S]
    assert meter.scale() == pytest.approx(0.5)
    assert meter.scale(1) == pytest.approx(0.4)
    assert meter.scale(0, 1) == pytest.approx(1.0)


def test_tick_runs_a_slice_only_when_one_is_due():
    meter = speed.Meter()
    meter.tick()
    meter.tick()
    assert meter.mark() == 1
    assert meter.spent == pytest.approx(meter.slices[0])


def test_meter_timer_samples_and_stops():
    meter = speed.Meter()
    before = signal.getsignal(signal.SIGALRM)
    with meter.timer():
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert meter.mark() >= 5
    assert all(s > 0 for s in meter.slices)
