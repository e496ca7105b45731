import random

import pytest

from qdg import freealg
from qdg.freealg import (
    DEGREE_CAP,
    FreeElem,
    _dgcd,
    _dmul,
    _dquo_exact,
    dim_uplus,
    rank_by_specialization,
    rank_over_fraction_field,
    relation_span,
    serre_elements,
    word_elem,
    words_of_length,
)
from qdg.boxtilde import LIMITS, ReductionBudgetError, TermBudgetError
from qdg.qcoeff import DEFAULT_RING, LaurentPoly, qint

R = DEFAULT_RING
THREE = qint(3)


def test_serre_elements_as_printed():
    s_x, s_y = serre_elements()
    assert s_x.terms["xxxy"] == R.one()
    assert s_x.terms["xxyx"] == -THREE
    assert s_x.terms["xyxx"] == THREE
    assert s_x.terms["yxxx"] == -R.one()
    assert len(s_x.terms) == 4 and len(s_y.terms) == 4
    assert s_y.terms["yyxy"] == -THREE
    assert s_y.terms["yxyy"] == THREE
    assert s_y.terms["xyyy"] == -R.one()
    # swapping x <-> y carries one onto the other
    swapped = FreeElem({w.translate(str.maketrans("xy", "yx")): c for w, c in s_x.terms.items()})
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
    scaled = s_x * R.qpow(5)
    assert rank_over_fraction_field([s_x, scaled], 4) == 1
    with pytest.raises(ValueError):
        rank_over_fraction_field([word_elem("x")], 4)


def test_exact_rank_rejects_a_and_b_entries():
    # a row is cleared by its componentwise lowest monomial, so a unit
    # multiple ranks alike whatever the signs of its a, b and q powers
    a, b = R.gen("a"), R.gen("b")
    s_x, s_y = serre_elements()
    assert rank_over_fraction_field([s_x * a], 4) == 1
    assert rank_over_fraction_field([s_x * a ** -1], 4) == 1
    assert rank_over_fraction_field([s_x, s_y * (b ** 2)], 4) == 2
    assert rank_over_fraction_field([s_x * a ** -1, s_y * (b ** -2)], 4) == 2
    assert rank_over_fraction_field([s_x * a, s_x * (a * R.qpow(2))], 4) == 1
    rows = [row * (a * b) for row in relation_span(5)]
    assert rank_over_fraction_field(rows, 5) == rank_over_fraction_field(relation_span(5), 5)
    # the exact rank works over Q(q) alone: a row whose entries carry
    # different a or b powers keeps one once cleared, and is refused
    for row in (
        word_elem("xxxy") * a + word_elem("yyyy"),
        word_elem("xxxy") + word_elem("yyyy") * (b ** -1),
        s_x + word_elem("xyxy") * (a * b),
    ):
        with pytest.raises(ValueError, match="coefficients in q alone"):
            rank_over_fraction_field([s_y, row], 4)


def _unit_scaled(rows, rng):
    """Each row times a random unit q^i a^j b^k, with negative exponents."""
    return [
        row * (R.qpow(rng.randint(-3, 3)) * R.gen("a", rng.randint(-2, 2)) * R.gen("b", rng.randint(-2, 2)))
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
        rows = [row * (R.qpow(rng.randint(-3, 3)) * rng.choice((1, -1))) for row in relation_span(n)]
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
    for n, rank in enumerate(KNOWN_RANKS):
        span = relation_span(n)
        assert rank_over_fraction_field(span, n) == rank
        assert rank_by_specialization(span, n, rng=random.Random(n)) == rank


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
    # [3] = q^-2 + 1 + q^2, so the row shifts by q^2
    assert freealg._dense_rows([s_x], 4) == [
        {"xxxy": [0, 0, 1], "xxyx": [-1, 0, -1, 0, -1], "xyxx": [1, 0, 1, 0, 1], "yxxx": [0, 0, -1]}
    ]
    unit = a ** -1 * b ** 2 * q ** 3
    assert freealg._dense_rows([s_x * unit, FreeElem({})], 4) == freealg._dense_rows([s_x], 4)
    for row in (word_elem("xy") * a + word_elem("yx"), FreeElem({"xy": q + a})):
        with pytest.raises(ValueError, match="coefficients in q alone"):
            freealg._dense_rows([row], 2)
    with pytest.raises(ValueError, match="not homogeneous of degree 2"):
        freealg._dense_rows([word_elem("xy") + word_elem("x")], 2)


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
        assert rank_by_specialization([s_x * a, s_y * (b ** -2)], 4, rng=rng) == 2
        assert rank_by_specialization([s_x * a ** -1, s_x * (a * R.qpow(-2))], 4, rng=rng) == 1


def test_rank_mod_p_points_and_rejections():
    rng = random.Random(5)
    for _ in range(50):
        point = freealg.random_residue_point(rng)
        assert len(point) == 3
        assert all(0 < v < freealg._PRIME for v in point)
        assert point[0] ** 2 % freealg._PRIME != 1
    assert rank_by_specialization([], 4) == 0
    with pytest.raises(ValueError):
        rank_by_specialization([word_elem("x")], 4)
    with pytest.raises(ValueError):
        rank_by_specialization([word_elem("x") + word_elem("xy")], 2)


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


def test_tuple_words_multiply_raise_and_print():
    q = R.gen("q")
    weyl = FreeElem({(0, 1): q, (1, 0): -(q ** -1), (): q ** -1 - q})
    assert str(weyl) == "q*0*1 - q^-1*1*0 + (q^-1 - q)"


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
            rows.append(FreeElem(terms))
        dense = freealg._dense_rows(rows, n)
        assert freealg._rank_dense(dense) == rank_by_specialization(rows, n, rng=rng)


def test_a_unit_pivot_lead_neither_cross_multiplies_nor_strips(monkeypatch):
    # The log holds "sub" for each entry of a cross-multiplied step, "strip"
    # for the full strip after such a step, "store" for the strip of a new
    # pivot, and "unit" for a reduction by a pivot whose lead is q^k.
    log, stored, ranks, depth = [], [], [], [0]
    real_strip, real_sub = freealg._strip_row_dense, freealg._dsub_scaled
    real_shift, real_rank = freealg._shift_q_out, freealg._rank_dense

    def strip(row):
        depth[0] += 1
        out = real_strip(row)
        depth[0] -= 1
        if log[-1:] == ["sub"]:
            log.append("strip")
        else:
            log.append("store")
            stored.append(out)
        return out

    def sub(pc, row_e, rc, piv_e):
        assert not (pc[-1] == 1 and not any(pc[:-1])), "a q^k lead was cross-multiplied"
        log.append("sub")
        return real_sub(pc, row_e, rc, piv_e)

    def shift(row):
        if not depth[0]:
            log.append("unit")
        return real_shift(row)

    def rank(rows):
        ranks.append(real_rank(rows))
        return ranks[-1]

    for name, spy in (("_strip_row_dense", strip), ("_dsub_scaled", sub), ("_shift_q_out", shift), ("_rank_dense", rank)):
        monkeypatch.setattr(freealg, name, spy)
    assert rank_over_fraction_field(relation_span(10), 10) == 2 ** 10 - 232
    # full strips: one per stored pivot and one per cross-multiplied step, so
    # none at a unit step
    non_unit_steps = sum(1 for a, b in zip(log, log[1:]) if a == "sub" and b != "sub")
    assert log.count("strip") + log.count("store") == sum(ranks) + non_unit_steps
    # 1297 of the 1378 reductions at degree 10 are by a q^k lead
    assert (log.count("unit"), non_unit_steps) == (1297, 81)
    # stored pivots stay fully stripped: as small as with a strip after every step
    assert max(abs(c).bit_length() for p in stored for e in p.values() for c in e) <= 4
    assert max(len(e) for p in stored for e in p.values()) <= 17


def _random_zq(rng, terms):
    """A Laurent polynomial in q with `terms` nonzero terms."""
    out = R.zero()
    for k in rng.sample(range(-3, 5), terms):
        out = out + R.qpow(k) * rng.choice((-3, -2, -1, 1, 2, 3))
    return out


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
            rows.append(FreeElem(terms))
        for _ in range(rng.randint(1, 3)):
            r1, r2 = rng.sample(rows, 2)
            rows.append(r1 * _random_zq(rng, 2) + r2 * rng.choice(leads))
        rank = rank_over_fraction_field(rows, n)
        assert rank == rank_by_specialization(rows, n, rng=rng), trial
        for _ in range(3):
            rng.shuffle(rows)
            assert rank_over_fraction_field(rows, n) == rank, trial


def _spy_on_blocks(monkeypatch, compute=True):
    """Record the x-counts of the rows each `_rank_dense` call eliminates."""
    calls = []
    real = freealg._rank_dense

    def spy(rows):
        calls.append({w.count("x") for row in rows for w in row})
        return real(rows) if compute else 0

    monkeypatch.setattr(freealg, "_rank_dense", spy)
    return calls


def _unsplit_rank(rows, n):
    return freealg._rank_dense(freealg._dense_rows(rows, n))


def test_blocked_rank_equals_the_unsplit_elimination():
    for n in range(4, 11):
        span = relation_span(n)
        assert rank_over_fraction_field(span, n) == _unsplit_rank(span, n)


def test_only_the_x_heavy_side_of_each_mirror_pair_is_eliminated(monkeypatch):
    # degree 11 has blocks with 1..10 x's; the mirrors of 6..10 are not
    # eliminated, and no block is eliminated twice
    calls = _spy_on_blocks(monkeypatch)
    span = relation_span(11)
    assert rank_over_fraction_field(span, 11) == 2 ** 11 - 344  # dim of U_q^+ in degree 11
    assert all(len(c) == 1 for c in calls)
    assert sorted(map(min, calls)) == [6, 7, 8, 9, 10]
    # the same on the shuffled span with every row times a unit +-q^k
    rng = random.Random(7)
    rows = [row * (R.qpow(rng.randint(-3, 3)) * rng.choice((1, -1))) for row in span]
    rng.shuffle(rows)
    calls = _spy_on_blocks(monkeypatch, compute=False)
    rank_over_fraction_field(rows, 11)
    assert sorted(map(min, calls)) == [6, 7, 8, 9, 10]
    # at even degree the middle block is its own mirror and is eliminated
    calls = _spy_on_blocks(monkeypatch, compute=False)
    rank_over_fraction_field(relation_span(8), 8)
    assert sorted(map(min, calls)) == [4, 5, 6, 7]


def test_mirror_shortcut_falls_back_when_the_mirror_does_not_match(monkeypatch):
    n = 8
    span = relation_span(n)
    y_heavy = [i for i, row in enumerate(span) if 2 * min(w.count("x") for w in row.terms) < n]
    victim = y_heavy[5]
    block = min(w.count("x") for w in span[victim].terms)
    dropped = span[:victim] + span[victim + 1:]
    w = min(span[victim].terms)
    altered = list(span)
    altered[victim] = span[victim] + word_elem(w) * R.qpow(1)
    doubled = span + [span[victim]]  # same rows as a set, not as a multiset
    for rows in (dropped, altered, doubled):
        calls = _spy_on_blocks(monkeypatch)
        rank = rank_over_fraction_field(rows, n)
        assert {block} in calls
        monkeypatch.undo()
        assert rank == _unsplit_rank(rows, n)


def test_rows_that_mix_x_counts_take_the_single_block_path(monkeypatch):
    n = 6
    span = relation_span(n)
    mixed = span[:3] + [span[3] + span[-1]] + span[4:]
    calls = _spy_on_blocks(monkeypatch)
    rank = rank_over_fraction_field(mixed, n)
    assert len(calls) == 1 and len(calls[0]) > 2
    monkeypatch.undo()
    assert rank == _unsplit_rank(mixed, n)
