import copy
import hashlib
import json
import random
from functools import reduce
from heapq import heappop, heappush
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdg import freealg
from qdg.freealg import (
    DEGREE_CAP,
    _dgcd,
    _dmul,
    _dquo_exact,
    add_serre_rules,
    dim_uplus,
    irreducible_words,
    rank_by_specialization,
    rank_over_fraction_field,
    relation_span,
    serre_elements,
    serre_rules,
    words_of_length,
)
from qdg.boxtilde import LIMITS, ReductionBudgetError, TermBudgetError
from qdg.qcoeff import DEFAULT_RING, LaurentPoly, put, qint

R = DEFAULT_RING
THREE = qint(3)


def _times(row, c):
    """The row with each coefficient times c."""
    return {w: v * c for w, v in row.items()}


def test_serre_elements_as_printed():
    s_x, s_y = serre_elements()
    assert s_x["xxxy"] == R.one()
    assert s_x["xxyx"] == -THREE
    assert s_x["xyxx"] == THREE
    assert s_x["yxxx"] == -R.one()
    assert len(s_x) == 4 and len(s_y) == 4
    assert s_y["yyxy"] == -THREE
    assert s_y["yxyy"] == THREE
    assert s_y["xyyy"] == -R.one()
    # swapping x <-> y carries one onto the other
    swapped = {w.translate(str.maketrans("xy", "yx")): c for w, c in s_x.items()}
    assert swapped == s_y


def test_relation_span_sizes():
    assert relation_span(3) == []
    assert relation_span(0) == []
    span4 = relation_span(4)
    assert len(span4) == 2
    assert span4[0] == serre_elements()[0]
    assert span4[1] == serre_elements()[1]
    assert len(relation_span(5)) == 8


def test_rank_examples():
    assert rank_over_fraction_field([], 4) == 0
    span4 = relation_span(4)
    assert rank_over_fraction_field(span4, 4) == 2
    s_x, _ = serre_elements()
    scaled = _times(s_x, R.qpow(5))
    assert rank_over_fraction_field([s_x, scaled], 4) == 1
    with pytest.raises(ValueError):
        rank_over_fraction_field([{"x": R.one()}], 4)


def test_exact_rank_rejects_a_and_b_entries():
    # a row is cleared by its componentwise lowest monomial, so a unit
    # multiple ranks alike whatever the signs of its a, b and q powers
    a, b = R.gen("a"), R.gen("b")
    s_x, s_y = serre_elements()
    assert rank_over_fraction_field([_times(s_x, a)], 4) == 1
    assert rank_over_fraction_field([_times(s_x, a ** -1)], 4) == 1
    assert rank_over_fraction_field([s_x, _times(s_y, b ** 2)], 4) == 2
    assert rank_over_fraction_field([_times(s_x, a ** -1), _times(s_y, b ** -2)], 4) == 2
    assert rank_over_fraction_field([_times(s_x, a), _times(s_x, a * R.qpow(2))], 4) == 1
    rows = [_times(row, a * b) for row in relation_span(5)]
    assert rank_over_fraction_field(rows, 5) == rank_over_fraction_field(relation_span(5), 5)
    # the exact rank works over Q(q) alone: a row whose entries carry
    # different a or b powers keeps one once cleared, and is refused
    for row in (
        {"xxxy": a, "yyyy": R.one()},
        {"xxxy": R.one(), "yyyy": b ** -1},
        {**s_x, "xyxy": a * b},
    ):
        with pytest.raises(ValueError, match="coefficients in q alone"):
            rank_over_fraction_field([s_y, row], 4)


def _unit_scaled(rows, rng):
    """Each row times a random unit q^i a^j b^k, with negative exponents."""
    return [
        _times(row, R.qpow(rng.randint(-3, 3)) * R.gen("a", rng.randint(-2, 2)) * R.gen("b", rng.randint(-2, 2)))
        for row in rows
    ]


def test_exact_rank_does_not_depend_on_row_order():
    rng = random.Random(41)
    for n in range(10):
        span = relation_span(n)
        rank = rank_over_fraction_field(span, n)
        shuffled = list(span)
        rng.shuffle(shuffled)
        assert rank_over_fraction_field(shuffled, n) == rank
    # rows times random units +-q^i, with negative exponents to clear
    for n in range(4, 7):
        rows = [_times(row, R.qpow(rng.randint(-3, 3)) * rng.choice((1, -1))) for row in relation_span(n)]
        rank = rank_over_fraction_field(relation_span(n), n)
        rng.shuffle(rows)
        assert rank_over_fraction_field(rows, n) == rank


KNOWN_RANKS = [0, 0, 0, 0, 2, 8, 24, 64, 156]  # 2^n - dim U_n^+


def test_the_dims_path_does_no_laurent_arithmetic(monkeypatch):
    # rows share the q-Serre coefficients and turn into dense lists in one
    # pass, so neither route to a rank adds or multiplies a LaurentPoly
    def refuse(*args):
        raise AssertionError("Laurent arithmetic on the dims path")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(LaurentPoly, name, refuse)
    rules = []
    walk = freealg.span_leads_mod_p(freealg.random_residue_point(random.Random(0)))
    for n, rank in enumerate(KNOWN_RANKS):
        span = relation_span(n)
        assert rank_over_fraction_field(span, n) == rank
        assert rank_by_specialization(span, n, rng=random.Random(n)) == rank
        add_serre_rules(rules, n)
        assert next(walk) == _reducible(rules, n)


def test_relation_span_checks_the_budgets_once(monkeypatch):
    monkeypatch.setattr(LIMITS, "word_cap", 5)
    assert len(relation_span(5)) == 8
    with pytest.raises(ReductionBudgetError, match="relation_span reached 6 letters"):
        relation_span(6)
    monkeypatch.setattr(LIMITS, "term_budget", 3)
    assert relation_span(3) == []
    with pytest.raises(TermBudgetError, match="relation_span reached 4 terms"):
        relation_span(4)


def test_dense_rows_shift_q_and_refuse_what_is_not_over_z_q():
    a, b, q = R.gen("a"), R.gen("b"), R.gen("q")
    s_x, _ = serre_elements()
    # [3] = q^-2 + 1 + q^2, so the row shifts by q^2; each entry is
    # (k, list) for q^k times the list, with nonzero ends
    assert freealg._dense_rows([s_x], 4) == [
        {"xxxy": (2, [1]), "xxyx": (0, [-1, 0, -1, 0, -1]), "xyxx": (0, [1, 0, 1, 0, 1]), "yxxx": (2, [-1])}
    ]
    unit = a ** -1 * b ** 2 * q ** 3
    assert freealg._dense_rows([_times(s_x, unit), {}], 4) == freealg._dense_rows([s_x], 4)
    for row in ({"xy": a, "yx": R.one()}, {"xy": q + a}):
        with pytest.raises(ValueError, match="coefficients in q alone"):
            freealg._dense_rows([row], 2)
    with pytest.raises(ValueError, match="not homogeneous of degree 2"):
        freealg._dense_rows([{"xy": R.one(), "x": R.one()}], 2)


def test_rank_specialization_cross_check():
    exact = {n: rank_over_fraction_field(relation_span(n), n) for n in range(11)}
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for n, rank in exact.items():
            assert rank_by_specialization(relation_span(n), n, rng=rng) == rank
        # entries with negative exponents and a, b symbols
        for n in range(4, 8):
            rows = _unit_scaled(relation_span(n), rng)
            assert rank_by_specialization(rows, n, rng=rng) == exact[n]
        a, b = R.gen("a"), R.gen("b")
        s_x, s_y = serre_elements()
        assert rank_by_specialization([_times(s_x, a), _times(s_y, b ** -2)], 4, rng=rng) == 2
        assert rank_by_specialization([_times(s_x, a ** -1), _times(s_x, a * R.qpow(-2))], 4, rng=rng) == 1


def test_rank_mod_p_points_and_rejections():
    rng = random.Random(5)
    for _ in range(50):
        point = freealg.random_residue_point(rng)
        assert len(point) == 3
        assert all(0 < v < freealg._PRIME for v in point)
        assert point[0] ** 2 % freealg._PRIME != 1
    assert rank_by_specialization([], 4) == 0
    with pytest.raises(ValueError):
        rank_by_specialization([{"x": R.one()}], 4)
    with pytest.raises(ValueError):
        rank_by_specialization([{"x": R.one(), "xy": R.one()}], 2)


def test_dim_uplus_small_degrees():
    for n in range(4):
        assert dim_uplus(n) == 2 ** n
    assert dim_uplus(4) == 14
    assert dim_uplus(5) == 24


def test_dim_monotone_bound():
    dims = [dim_uplus(n) for n in range(7)]
    for n in range(1, 7):
        assert dims[n] <= 2 * dims[n - 1]


def test_degree_cap():
    with pytest.raises(ValueError):
        dim_uplus(DEGREE_CAP + 1)


def test_word_order_is_lexicographic():
    assert words_of_length(2) == ["xx", "xy", "yx", "yy"]


def test_dense_gcd_and_division():
    f = [-1, 0, 1]  # q^2 - 1
    g1 = _dmul(f, [-7, 2, 0, 1])
    g2 = _dmul(f, [-3, 0, 0, 0, 1])
    g = _dgcd(g1, g2)
    assert g == [-1, 0, 1] or g == [1, 0, -1]
    assert _dquo_exact(g1, f) == [-7, 2, 0, 1]
    with pytest.raises(ArithmeticError):
        _dquo_exact([1, 1, 1], [1, 1])


def _laurent_sub(f, g):
    """The reference for `_sub_product`: f - g on Laurent entries, the step
    that `_rewrite` took with g = (k, _dmul(a, e)) before the product was
    fused into the subtraction; None stands for 0."""
    if f is None:
        return g[0], [-c for c in g[1]]
    (kf, ef), (kg, eg) = f, g
    low = min(kf, kg)
    out = [0] * (kf - low) + ef
    off = kg - low
    if len(out) < off + len(eg):
        out += [0] * (off + len(eg) - len(out))
    for i, c in enumerate(eg):
        out[off + i] -= c
    if not freealg._dtrim(out):
        return None
    k = 0
    while out[k] == 0:
        k += 1
    return low + k, out[k:]


_nonzero = st.integers(-4, 4).filter(bool)
# lists with nonzero ends, one to six long
_lists = st.one_of(
    st.builds(lambda c: [c], _nonzero),
    st.builds(lambda lo, mid, hi: [lo, *mid, hi], _nonzero, st.lists(st.integers(-4, 4), max_size=4), _nonzero),
)


@st.composite
def _sub_cases(draw):
    """(f, k, a, e): f is None, any entry, or x^k * a * e with up to two
    coefficients changed, so that it cancels in whole or at either end."""
    k, a, e = draw(st.integers(-6, 6)), draw(_lists), draw(_lists)
    kind = draw(st.sampled_from(("none", "any", "near")))
    if kind == "none":
        return None, k, a, e
    if kind == "any":
        return (draw(st.integers(-6, 6)), draw(_lists)), k, a, e
    near = _dmul(a, e)
    for i, c in draw(st.dictionaries(st.integers(0, len(near) - 1), st.integers(-2, 2), max_size=2)).items():
        near[i] += c
    if not freealg._dtrim(near):
        return None, k, a, e
    low = next(i for i, c in enumerate(near) if c)
    return (k + low, near[low:]), k, a, e


@given(_sub_cases())
@settings(max_examples=300, deadline=None)
@example((None, -3, [2], [1, 0, -1]))  # f absent
@example(((2, [1, 3, 2]), 2, [1, 1], [1, 2]))  # total cancellation
@example(((-1, [5, 3, 2]), -1, [1, 1], [1, 2]))  # cancellation at the high end
@example(((0, [1, 3, 7]), 0, [1, 1], [1, 2]))  # cancellation at the low end
@example(((1, [1, 0, 1]), -4, [3], [2, 0, 1]))  # product below f
@example(((-2, [4]), 3, [1, -1], [1, 0, 0, 1]))  # product above f, a gap between
def test_the_fused_step_equals_the_two_step_form(case):
    f, k, a, e = case
    snapshot = copy.deepcopy(case)
    assert freealg._sub_product(f, k, a, e) == _laurent_sub(f, (k, _dmul(a, e)))
    # f, a and e are left as they were
    assert case == snapshot


def test_dense_rank_agrees_with_specialization():
    # random q-only rows: the exact elimination against the rank mod p
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(3, 5)
        rows = []
        for _ in range(rng.randint(1, 6)):
            terms = {}
            for w in rng.sample(words_of_length(n), rng.randint(1, 4)):
                terms[w] = R.qpow(rng.randint(-3, 3)) * rng.choice((1, -1, 2))
            rows.append(terms)
        dense = freealg._dense_rows(rows, n)
        assert freealg._rank_dense(dense) == rank_by_specialization(rows, n, rng=rng)


def test_a_unit_pivot_lead_neither_cross_multiplies_nor_strips(monkeypatch):
    # Every step of the exact rank is a `_rewrite`: the log holds "unit" for
    # a step by a pivot whose lead is q^k, "cross" for a cross-multiplied
    # step, "strip" for the full strip within such a step, and "store" for
    # the strip of a new pivot.
    assert not hasattr(freealg, "_dsub_scaled") and not hasattr(freealg, "_dsub_into")
    log, stored, ranks, step = [], [], [], [None]
    nonzero_after_cross = [0]
    real_strip, real_rewrite, real_rank = freealg._strip_row_dense, freealg._rewrite, freealg._rank_dense

    def rewrite(f, w, i, lead, rule, op):
        assert op == "rank_over_fraction_field"
        unit = rule[lead][1] == [1]
        step[0] = "unit" if unit else "cross"
        log.append(step[0])
        out = real_rewrite(f, w, i, lead, rule, op)
        if not unit and out:
            nonzero_after_cross[0] += 1
        step[0] = None
        return out

    def strip(row):
        assert step[0] != "unit", "a step by a q^k lead was stripped"
        out = real_strip(row)
        if step[0] == "cross":
            log.append("strip")
        else:
            log.append("store")
            stored.append(out)
        return out

    def rank(rows):
        ranks.append(real_rank(rows))
        return ranks[-1]

    for name, spy in (("_strip_row_dense", strip), ("_rewrite", rewrite), ("_rank_dense", rank)):
        monkeypatch.setattr(freealg, name, spy)
    assert rank_over_fraction_field(relation_span(10), 10) == 2 ** 10 - 232
    # 2122 of the 2257 reductions at degree 10 are by a q^k lead
    assert (log.count("unit"), log.count("cross")) == (2122, 135)
    # full strips: one per stored pivot and one per cross-multiplied step
    # that leaves a nonzero row, so none at a unit step
    assert log.count("store") == sum(ranks)
    assert log.count("strip") == nonzero_after_cross[0]
    # stored pivots stay fully stripped: as small as with a strip after every step
    assert max(abs(c).bit_length() for p in stored for _, e in p.values() for c in e) <= 4
    assert max(k + len(e) for p in stored for k, e in p.values()) <= 17


def _random_zq(rng, terms):
    """A Laurent polynomial in q with `terms` nonzero terms."""
    out = R.zero()
    for k in rng.sample(range(-3, 5), terms):
        out = out + R.qpow(k) * rng.choice((-3, -2, -1, 1, 2, 3))
    return out


def test_strip_is_canonical():
    # a row strips to the same row as its multiples by a unit +-q^j, by an
    # integer and by 1 + q^2, and the stripped row is in normal form
    rng = random.Random(18)
    words = words_of_length(3)
    for trial in range(200):
        terms = {w: _random_zq(rng, rng.randint(1, 4)) for w in rng.sample(words, rng.randint(1, 5))}
        (row,) = freealg._dense_rows([terms], 3)
        stripped = freealg._strip_row_dense(row)
        j, sign, m = rng.randint(-3, 3), rng.choice((1, -1)), rng.choice((-6, -2, 3, 10))
        for multiple in (
            {w: (k + j, [sign * c for c in e]) for w, (k, e) in row.items()},
            {w: (k, [m * c for c in e]) for w, (k, e) in row.items()},
            {w: (k, _dmul([1, 0, 1], e)) for w, (k, e) in row.items()},
        ):
            assert freealg._strip_row_dense(multiple) == stripped, trial
        entries = [e for _, e in stripped.values()]
        assert min(k for k, _ in stripped.values()) == 0
        assert all(e[0] and e[-1] for e in entries)
        assert freealg._dcontent([c for e in entries for c in e]) == 1
        assert reduce(_dgcd, entries) == [1]
        assert stripped[min(stripped)][1][-1] > 0


def test_exact_rank_over_mixed_pivot_leads():
    # leads q^k, 2 q^k, -q^k and 1 + q, other entries with several terms,
    # and rows that are Z[q]-combinations of earlier rows
    rng = random.Random(12)
    q = R.gen("q")
    leads = (R.qpow(2), R.qpow(1) * 2, -R.qpow(-1), R.one() + q)
    n = 3
    words = words_of_length(n)
    for trial in range(60):
        rows = []
        for _ in range(rng.randint(3, 7)):
            chosen = sorted(rng.sample(words[:5], 3))
            terms = {chosen[0]: rng.choice(leads)}
            for w in chosen[1:] + rng.sample(words[5:], 2):
                terms[w] = _random_zq(rng, rng.randint(2, 3))
            rows.append(terms)
        for _ in range(rng.randint(1, 3)):
            r1, r2 = rng.sample(rows, 2)
            row = _times(r1, _random_zq(rng, 2))
            for w, c in _times(r2, rng.choice(leads)).items():
                put(row, w, c)
            rows.append(row)
        rank = rank_over_fraction_field(rows, n)
        assert rank == rank_by_specialization(rows, n, rng=rng), trial
        for _ in range(3):
            rng.shuffle(rows)
            assert rank_over_fraction_field(rows, n) == rank, trial



# ---------------------------------------------------------------------------
# The rewriting system


def _reducible(rules, n):
    return set(words_of_length(n)).difference(irreducible_words(rules, n))


def _q_list(entry):
    """A rule entry (k, list), for t^k * sum list[i] t^i with t = q^2, as
    the dense list of its coefficients in q: [0] * 2k, then the list with a
    zero between its entries."""
    k, e = entry
    out = [0] * (2 * k)
    for c in e:
        out += [c, 0]
    return out[:-1]


def _rule_in_q(row):
    """A rule row as word -> dense q-list."""
    return {w: _q_list(entry) for w, entry in row.items()}


def _rule_elem(row):
    """A rule row as a span row."""
    return {w: LaurentPoly(R, {(i, 0, 0): c for i, c in enumerate(e) if c}) for w, e in _rule_in_q(row).items()}


GOLDEN_LEADS = [
    "xxxy", "xyyy", "xxyyxy", "xxyxxyy", "xxyxxyxy", "xxyxyyxy", "xyxyyxyy",
    "xxyxyxxyy", "xxyxyxyyxy", "xxyxyyxxyy",
]


def test_rules_through_degree_10_match_the_golden_file():
    # recorded from serre_rules(10), when the rules were held in q: each
    # rule's lead and dense q-lists, the q-entry (k, list) written as
    # [0] * k + list
    golden = json.loads((Path(__file__).parent / "golden_rules.json").read_text())
    rules = serre_rules(10)
    assert [lead for lead, _ in rules] == GOLDEN_LEADS
    assert [{"lead": lead, "row": _rule_in_q(row)} for lead, row in rules] == golden
    # the degree-4 rules are S_x and -S_y, whose lead xyyy has entry -1
    s_x, s_y = serre_elements()
    dense = freealg._dense_rows([s_x, {w: -c for w, c in s_y.items()}], 4)
    assert [_rule_in_q(row) for _, row in rules[:2]] == [{w: [0] * k + e for w, (k, e) in row.items()} for row in dense]


# recorded from serre_rules(13) with the rules held in q
LEADS_11_TO_13 = [
    "xxyxyxxyxyy", "xxyxyxyxxyy", "xxyxyxxyxyxy", "xxyxyxyxyyxy", "xxyxyxyyxxyy",
    "xyxyxyyxyxyy", "xxyxyxyxxyxyy", "xxyxyxyxyxxyy",
]


# sha256 of json.dumps(serre_rules(13), sort_keys=True), recorded when
# every rewrite pushed its whole image onto the heap of `_reduce`
RULES_13_SHA256 = "3190963f7d14d7cfce1dbfff67d303c53c3e9c9a8103d339f165d0ac98acfaa0"


def test_rules_and_dims_past_the_golden_file():
    rules = serre_rules(13)
    assert [lead for lead, _ in rules] == GOLDEN_LEADS + LEADS_11_TO_13
    assert hashlib.sha256(json.dumps(rules, sort_keys=True).encode()).hexdigest() == RULES_13_SHA256
    assert (dim_uplus(12), dim_uplus(13)) == (504, 728)


def _reduce_reference(f, rules):
    """`_reduce` pushing every word of a rewrite's image onto the heap, the
    lead's (w itself) included, whether or not it is in the row already:
    the reference for the rewrites and the remainder."""
    f = dict(f)
    heap = sorted(f)
    last = None
    while heap:
        w = heappop(heap)
        if w == last or w not in f:
            continue
        last = w
        for lead, rule in rules:
            i = w.find(lead)
            if i >= 0:
                f = freealg._rewrite(f, w, i, lead, rule, "serre_rules")
                for x in rule:
                    heappush(heap, w[:i] + x + w[i + len(lead):])
                break
    return f


def test_reduction_pushes_only_new_words_and_rewrites_as_the_reference(monkeypatch):
    # every reduction made while the rules through degree 11 are built: one
    # per overlap, and one per rule as a degree's rules reduce each other
    calls = []
    real_reduce = freealg._reduce

    def record(f, rules):
        calls.append((copy.deepcopy(f), list(rules)))
        return real_reduce(f, rules)

    monkeypatch.setattr(freealg, "_reduce", record)
    serre_rules(11)
    monkeypatch.undo()
    steps, pushes = [], []
    real_rewrite = freealg._rewrite

    def rewrite(f, w, i, lead, rule, op):
        before = set(f)
        f = real_rewrite(f, w, i, lead, rule, op)
        steps.append((w, lead, set(f) - before))
        return f

    def push(heap, x):
        pushes.append(x)
        heappush(heap, x)

    monkeypatch.setattr(freealg, "_rewrite", rewrite)
    monkeypatch.setattr(freealg, "heappush", push)
    assert len(calls) == 26
    rewrites = 0
    for f, rules in calls:
        del steps[:]
        expected = _reduce_reference(f, rules)
        rewritten = [(w, lead) for w, lead, _ in steps]
        del steps[:]
        assert freealg._reduce(f, rules) == expected
        assert [(w, lead) for w, lead, _ in steps] == rewritten
        # each rewrite pushes exactly the words it brings into the row
        assert sorted(pushes) == sorted(x for _, _, new in steps for x in new)
        del pushes[:]
        rewrites += len(rewritten)
    assert rewrites == 1626


def test_rules_are_held_in_q_squared(monkeypatch):
    # the row of S_x in t = q^2; `_dense_rows` gives its entries in q
    s_x, s_y = serre_elements()
    rows = freealg._dense_rows([s_x], 4)
    assert freealg._in_q_squared(rows[0]) == {
        "xxxy": (1, [1]), "xxyx": (0, [-1, -1, -1]), "xyxx": (0, [1, 1, 1]), "yxxx": (1, [-1])
    }
    # negative control: an odd power of q, as the shift or inside a list, is
    # refused rather than dropped
    for entry in ((1, [1]), (-1, [1, 0, 1]), (0, [1, 2, 1]), (2, [1, 0, 0, 3])):
        with pytest.raises(ValueError, match="odd power of q"):
            freealg._in_q_squared({**rows[0], "xyxx": entry})
    # and so is a q-Serre combination with one, before any rule is built
    odd_s_x = {**s_x, "xxyx": s_x["xxyx"] + R.gen("q")}
    monkeypatch.setattr(freealg, "serre_elements", lambda: (odd_s_x, s_y))
    with pytest.raises(ValueError, match="odd power of q"):
        serre_rules(4)


def test_rules_are_reduced_primitive_and_lie_in_the_ideal():
    rules = serre_rules(11)
    for lead, row in rules:
        # the lead is the smallest word and its entry is q^k
        assert lead == min(row)
        assert row[lead][1] == [1]
        # no word but the lead has a lead of degree <= its own as a factor
        leads = [l for l, _ in rules if len(l) <= len(lead)]
        assert all(not any(l in w for l in leads) for w in row if w != lead)
        # every list has nonzero ends; no common q-power or integer content
        assert all(e[0] and e[-1] for _, e in row.values())
        assert min(k for k, _ in row.values()) == 0
        assert freealg._dcontent([c for _, e in row.values() for c in e]) == 1
    # each rule of degree <= 9 is in the span of the q-Serre relations
    for n in range(4, 10):
        span = relation_span(n)
        rank = rank_over_fraction_field(span, n)
        extra = [_rule_elem(row) for lead, row in rules if len(lead) == n]
        assert rank_over_fraction_field(span + extra, n) == rank
        # the same ranks mod p, which shares no code with `_rewrite`
        rng = random.Random(n)
        assert rank_by_specialization(span, n, rng=rng) == rank
        assert rank_by_specialization(span + extra, n, rng=rng) == rank


def test_irreducible_words_count_the_exact_rank():
    rules = serre_rules(9)
    for n in range(10):
        span = relation_span(n)
        dim = len(irreducible_words(rules, n))
        assert dim == 2 ** n - rank_over_fraction_field(span, n)
        assert dim == 2 ** n - rank_by_specialization(span, n, rng=random.Random(n))
    assert [dim_uplus(n) for n in range(10)] == [1, 2, 4, 8, 14, 24, 40, 64, 100, 154]


def _lyndon_factors(word):
    """Duval's factorization: the word as a non-increasing product of
    Lyndon words, with x < y."""
    factors, i = [], 0
    while i < len(word):
        j, k = i + 1, i
        while j < len(word) and word[k] <= word[j]:
            k = i if word[k] < word[j] else k + 1
            j += 1
        while i <= k:
            factors.append(word[i:i + j - k])
            i += j - k
    return factors


def test_lyndon_factorization():
    assert _lyndon_factors("") == []
    assert _lyndon_factors("yx") == ["y", "x"]
    assert _lyndon_factors("xyxxy") == ["xy", "xxy"]
    assert _lyndon_factors("yxyxxy") == ["y", "xy", "xxy"]
    assert _lyndon_factors("xxyxyyxy") == ["xxyxyyxy"]
    for w in words_of_length(8):
        factors = _lyndon_factors(w)
        assert "".join(factors) == w
        assert factors == sorted(factors, reverse=True)
        # a Lyndon word is smaller than each of its proper rotations
        assert all(f < f[i:] + f[:i] for f in factors for i in range(1, len(f)))


def test_irreducible_words_are_products_of_good_lyndon_words():
    # the three families x(xy)^k, (xy)^k y and x(xy)^(k-1) y: two Lyndon
    # words in each odd degree, one in each even degree, as in the PBW count
    n_max = 11
    good = set()
    for k in range(n_max // 2 + 1):
        good.update(("x" + "xy" * k, "xy" * k + "y"))
        if k:
            good.add("x" + "xy" * (k - 1) + "y")
    rules = serre_rules(n_max)
    for n in range(n_max + 1):
        expected = [w for w in words_of_length(n) if all(f in good for f in _lyndon_factors(w))]
        assert irreducible_words(rules, n) == expected, n


def test_perturbed_serre_coefficient_moves_a_lead_and_is_caught(monkeypatch):
    # negative control: S_x with -[3] - 1 in place of -[3] on xxyx
    true_rules = serre_rules(9)
    s_x, s_y = serre_elements()
    bad_s_x = {**s_x, "xxyx": s_x["xxyx"] - 1}
    monkeypatch.setattr(freealg, "serre_elements", lambda: (bad_s_x, s_y))
    bad_rules = serre_rules(9)
    point = freealg.random_residue_point(random.Random(3))
    bad_walk = _walk(point, 9)
    monkeypatch.undo()
    degree_6 = lambda rules: [lead for lead, _ in rules if len(lead) == 6]
    assert degree_6(true_rules) == ["xxyyxy"]
    assert degree_6(bad_rules) == ["xxyxyy"]
    assert len(irreducible_words(bad_rules, 9)) == 152 != len(irreducible_words(true_rules, 9)) == 154
    # through degree 8 the counts agree, so only the lead sets tell them apart
    for n in range(9):
        assert len(irreducible_words(bad_rules, n)) == len(irreducible_words(true_rules, n))
    # the walk of the true ideal has the true leads, not the perturbed
    # ones, and the walk of the perturbed ideal has the perturbed leads
    for n, leads in enumerate(_walk(point, 9)):
        assert leads == _reducible(true_rules, n), n
        assert (leads == _reducible(bad_rules, n)) == (n < 6), n
        assert bad_walk[n] == _reducible(bad_rules, n), n


def _walk(point, n_max):
    """The leads of span_leads_mod_p at the point, degrees 0 to n_max."""
    walk = freealg.span_leads_mod_p(point)
    return [next(walk) for _ in range(n_max + 1)]


def test_the_walk_has_the_leads_of_the_whole_span():
    # the degree-(n-1) pivots with a letter appended, plus the rows w * S_g,
    # have the leads of an echelon form of all of relation_span(n)
    for seed in (1, 2):
        point = freealg.random_residue_point(random.Random(seed))
        for n, leads in enumerate(_walk(point, 10)):
            pivots = {}
            for row in freealg._residue_rows(relation_span(n), n, point):
                freealg._echelon_add(pivots, row)
            assert leads == pivots.keys(), (seed, n)
            assert len(leads) == 2 ** n - dim_uplus(n)


def test_the_walk_yields_words_of_length_n_over_x_and_y():
    for seed in (1, 2):
        walk = freealg.span_leads_mod_p(freealg.random_residue_point(random.Random(seed)))
        views, copies = [], []
        for n in range(12):
            leads = next(walk)
            assert all(len(w) == n and not w.strip("xy") for w in leads), (seed, n)
            views.append(leads)
            copies.append(set(leads))
        # a yielded view keeps its degree's words as the walk moves on
        assert views == copies


def test_the_walk_shares_no_code_with_the_rules(monkeypatch):
    rules = serre_rules(10)

    def refuse(*args):
        raise AssertionError("the walk called the rules")

    monkeypatch.setattr(freealg, "_rewrite", refuse)
    monkeypatch.setattr(freealg, "add_serre_rules", refuse)
    point = freealg.random_residue_point(random.Random(7))
    assert _walk(point, 10) == [_reducible(rules, n) for n in range(11)]


def test_the_walk_without_s_y_misses_leads_at_every_degree(monkeypatch):
    # negative control: the ideal of S_x alone lacks the words with a
    # factor xyyy, which the rules rewrite from degree 4 on
    rules = serre_rules(10)
    s_x, _ = serre_elements()
    monkeypatch.setattr(freealg, "serre_elements", lambda: (s_x,))
    point = freealg.random_residue_point(random.Random(7))
    for n, leads in enumerate(_walk(point, 10)):
        assert (leads == _reducible(rules, n)) == (n < 4), n


def test_a_zero_coefficient_counts_as_an_absent_word():
    # a row is a plain dict, so nothing drops a zero coefficient on the way
    # in; every rank function reads one as a word the row does not have
    s_x, s_y = serre_elements()
    zero = R.zero()
    assert rank_over_fraction_field([{**s_x, "xyxy": zero}], 4) == 1
    assert rank_by_specialization([{**s_x, "xyxy": zero}], 4) == 1
    for n in range(4, 8):
        # no row of the span has the word y^n, and x^n is the all-zero row
        span = relation_span(n)
        padded = [{**row, "y" * n: zero} for row in span] + [{"x" * n: zero}]
        assert freealg._dense_rows(padded, n) == freealg._dense_rows(span, n)
        assert rank_over_fraction_field(padded, n) == rank_over_fraction_field(span, n)
        for seed in (1, 2):
            assert rank_by_specialization(padded, n, rng=random.Random(seed)) == rank_by_specialization(
                span, n, rng=random.Random(seed)
            )
        point = freealg.random_residue_point(random.Random(n))
        assert freealg._residue_rows(padded, n, point) == freealg._residue_rows(span, n, point)
    # a zero coefficient on a word of another length is still refused
    for rank in (rank_over_fraction_field, rank_by_specialization):
        with pytest.raises(ValueError, match="not homogeneous of degree 4"):
            rank([s_y, {**s_x, "xy": zero}], 4)


def test_the_rank_functions_leave_their_rows_alone():
    # span rows share their LaurentPolys with the q-Serre combinations, and
    # the caller's dicts are the rows themselves: no rank may write to either
    rng = random.Random(19)
    rows = relation_span(7) + _unit_scaled(relation_span(7), rng)
    snapshot = copy.deepcopy(rows)
    assert rank_over_fraction_field(rows, 7) == 2 ** 7 - 64
    assert rank_by_specialization(rows, 7, rng=rng) == 2 ** 7 - 64
    assert rows == snapshot


def test_serre_rules_check_the_budgets(monkeypatch):
    monkeypatch.setattr(LIMITS, "word_cap", 6)
    rules = serre_rules(6)
    assert [lead for lead, _ in rules] == GOLDEN_LEADS[:3]
    with pytest.raises(ReductionBudgetError, match="serre_rules reached 7 letters \\(cap 6\\)"):
        add_serre_rules(rules, 7)
    monkeypatch.undo()
    monkeypatch.setattr(LIMITS, "term_budget", 3)
    assert add_serre_rules([], 3) == []
    with pytest.raises(TermBudgetError, match="serre_rules reached 4 terms \\(limit 3\\)"):
        serre_rules(4)
    # a remainder is counted at each reduction step
    monkeypatch.setattr(LIMITS, "term_budget", 4)
    with pytest.raises(TermBudgetError, match="serre_rules reached [5-9] terms \\(limit 4\\)"):
        serre_rules(6)


def test_exact_rank_checks_the_term_budget(monkeypatch):
    # each reduced row is counted, under the name of the exact rank
    span = relation_span(7)
    monkeypatch.setattr(LIMITS, "term_budget", 8)
    assert rank_over_fraction_field(span, 7) == 2 ** 7 - 64
    monkeypatch.setattr(LIMITS, "term_budget", 6)
    with pytest.raises(TermBudgetError, match="rank_over_fraction_field reached 8 terms \\(limit 6\\)"):
        rank_over_fraction_field(span, 7)
