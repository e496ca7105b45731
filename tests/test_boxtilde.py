import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdg import boxtilde as bt
from qdg.boxtilde import (
    BoxElem,
    NormalMono,
    PAIRING,
    CORRECTION,
    ZERO_CENTRAL,
    central_gen,
    generator,
    module_action_oracle,
    multiply,
    oracle_as_box,
    reduce_word,
    rho,
    s_element,
    scale_auto,
    specialize_central,
)
from qdg.gradings import pi, zdegrees
from qdg.qcoeff import DEFAULT_RING, LaurentPoly, NotInvertibleError

R = DEFAULT_RING
Q = R.gen("q")
ONE = R.one()


def mono(even=(), odd=(), central=ZERO_CENTRAL):
    return NormalMono(tuple(even), tuple(odd), tuple(central))


def test_reduction_tables_match_the_stated_values():
    assert PAIRING == {(0, 1): 2, (0, 3): -2, (2, 1): -2, (2, 3): 2}
    assert CORRECTION == {(0, 1): 0, (0, 3): 3, (2, 1): 1, (2, 3): 2}


def test_reduce_word_base_cases():
    e = reduce_word((1, 0))
    assert e.terms == {
        mono((0,), (1,)): Q ** 2,
        mono(central=(1, 0, 0, 0)): ONE - Q ** 2,
    }
    assert reduce_word((0, 1)).terms == {mono((0,), (1,)): ONE}
    e = reduce_word((1, 0, 0))
    assert e.terms == {
        mono((0, 0), (1,)): Q ** 4,
        mono((0,), central=(1, 0, 0, 0)): ONE - Q ** 4,
    }


def test_all_four_reduction_rules():
    assert reduce_word((1, 0)) == Q ** 2 * (generator(0) * generator(1)) + (
        ONE - Q ** 2
    ) * central_gen(0)
    assert reduce_word((1, 2)) == Q ** -2 * (generator(2) * generator(1)) + (
        ONE - Q ** -2
    ) * central_gen(1)
    assert reduce_word((3, 2)) == Q ** 2 * (generator(2) * generator(3)) + (
        ONE - Q ** 2
    ) * central_gen(2)
    assert reduce_word((3, 0)) == Q ** -2 * (generator(0) * generator(3)) + (
        ONE - Q ** -2
    ) * central_gen(3)


def test_multiply_matches_reduction():
    assert generator(3) * generator(2) == reduce_word((3, 2))
    rng = random.Random(3)
    for _ in range(20):
        e = bt.random_element(rng)
        assert bt.one() * e == e
        assert e * bt.one() == e
    # the leading term of x1 * (x0 x2) carries total pairing exponent 0
    product = generator(1) * reduce_word((0, 2))
    assert product.terms[mono((0, 2), (1,))] == ONE


def test_defining_relations_vanish():
    qdiff = Q - Q ** -1
    for i in range(4):
        j = (i + 1) % 4
        diff = Q * reduce_word((i, j)) - Q ** -1 * reduce_word((j, i)) - qdiff * central_gen(i)
        assert not diff


def test_even_and_odd_words_are_free():
    assert reduce_word((0, 2, 0)).terms == {mono((0, 2, 0)): ONE}
    assert reduce_word((3, 1, 1)).terms == {mono(odd=(3, 1, 1)): ONE}


def test_s_element_parity():
    for i in (0, 2):
        e = s_element(i)
        assert len(e.terms) == 4
        assert all(m.odd == () and m.central == ZERO_CENTRAL for m in e.terms)
    for i in (1, 3):
        e = s_element(i)
        assert len(e.terms) == 4
        assert all(m.even == () and m.central == ZERO_CENTRAL for m in e.terms)


def test_rho_on_generators_and_centrals():
    assert rho(generator(0)) == generator(1)
    assert rho(central_gen(3)) == central_gen(0)
    # an algebra map: the image of the x1 x0 normal form is x2 x1 exactly
    assert rho(reduce_word((1, 0))) == reduce_word((2, 1))
    assert rho(reduce_word((1, 0))) == generator(2) * generator(1)


def test_rho_shifts_s_elements_and_has_order_four():
    for i in range(4):
        assert rho(s_element(i)) == s_element((i + 1) % 4)
    rng = random.Random(5)
    for _ in range(15):
        e = bt.random_element(rng)
        assert rho(rho(rho(rho(e)))) == e


def test_rho_is_an_algebra_map():
    rng = random.Random(6)
    for _ in range(15):
        e1, e2 = bt.random_element(rng), bt.random_element(rng)
        assert rho(e1 * e2) == rho(e1) * rho(e2)


def test_scale_auto_examples():
    identity = scale_auto(1, 1, 1, 1)
    rng = random.Random(9)
    e = bt.random_element(rng)
    assert identity(e) == e
    # a * a^-1 = 1 keeps c0 fixed
    a = R.gen("a")
    b = R.gen("b")
    g = scale_auto(a, a ** -1, b, b ** -1)
    assert g(central_gen(0)) == central_gen(0)
    assert g(generator(0)) == R.gen("a") * generator(0)
    with pytest.raises(NotInvertibleError):
        scale_auto(2, 1, 1, 1)


def test_scale_auto_inverse_law_for_scalars():
    alphas = (R.gen("a"), R.qpow(3), R.gen("b", -1), R.gen("a") * R.gen("b"))
    forward = scale_auto(*alphas)
    backward = scale_auto(*(x ** -1 for x in alphas))
    rng = random.Random(10)
    for _ in range(25):
        e = bt.random_element(rng)
        assert backward(forward(e)) == e


def test_scale_auto_is_algebra_map_with_central_factors():
    g = scale_auto(central_gen(0, -1), 1, R.gen("b"), central_gen(2))
    # negative signs too, so odd powers of c_i flip the sign
    h = scale_auto(central_gen(0, 2) * -R.gen("a"), R.qpow(-1) * R.gen("b", 2), central_gen(3, -1), -1)
    rng = random.Random(12)
    for _ in range(15):
        e1, e2 = bt.random_element(rng), bt.random_element(rng)
        assert g(e1 * e2) == g(e1) * g(e2)
        assert h(e1 * e2) == h(e1) * h(e2)


def test_scale_auto_maps_generators_as_documented():
    alphas = (
        bt.one() * R.gen("a", -1) * R.qpow(2),
        central_gen(1, -1) * -R.gen("b"),
        -bt.one(),
        central_gen(3, 2) * R.gen("a") * R.gen("b", -3),
    )
    g = scale_auto(*alphas)
    for i in range(4):
        assert g(generator(i)) == alphas[i] * generator(i)
        pair = alphas[i] * alphas[(i + 1) % 4]
        assert g(central_gen(i)) == pair * central_gen(i)
        # negative powers of c_i take the inverse factor, sign included
        assert g(central_gen(i, -3)) == (pair ** -1) ** 3 * central_gen(i, -3)
    with pytest.raises(NotInvertibleError):
        scale_auto(1, 1, Q + 1, 1)


def _scale_per_letter(*alphas):
    """`scale_auto` as it was when each letter's factor was added on its
    own, every partial sum checked against the 64-bit central bound: the
    reference for the per-term factor."""
    alphas = tuple(bt.one() * a for a in alphas)
    letters = [bt._monomial_parts(a) for a in alphas]
    pairs = [bt._monomial_parts(alphas[i] * alphas[(i + 1) % 4]) for i in range(4)]

    def apply(e):
        out = {}
        for (even, odd, cent, ab), qd in e.state.items():
            sign, exps, central = 1, (0, 0, 0), ZERO_CENTRAL
            for l in even + odd:
                s, x, z = letters[l]
                sign *= s
                exps = tuple(u + v for u, v in zip(exps, x))
                central = bt.add_central(central, z)
            for i, n in enumerate(cent):
                if n:
                    s, x, z = pairs[i]
                    if n & 1:
                        sign *= s
                    exps = tuple(u + n * v for u, v in zip(exps, x))
                    central = bt.add_central(central, bt.scale_central(z, n))
            key = (even, odd, bt.add_central(cent, central), tuple(u + v for u, v in zip(ab, exps[1:])))
            bt._add_into(out, key, qd, exps[0], sign)
        return BoxElem._of(out)

    return apply


_SCALINGS = (
    # the forward, backward and mixed maps of engine.scale_inverse
    (R.gen("a"), R.gen("b", -1) * Q ** 2, R.gen("q", -1), R.gen("a", -1) * R.gen("b")),
    (R.gen("a", -1), R.gen("b") * Q ** -2, Q, R.gen("a") * R.gen("b", -1)),
    (1, central_gen(0, -1), R.gen("b"), central_gen(2) * R.gen("a", -1)),
    # signs
    (-1, -R.gen("a"), 1, -Q),
    (-R.gen("a"), -1, -R.gen("b", 2), -bt.one()),
    # central units
    (central_gen(0, 2) * -R.gen("a"), Q ** -1 * R.gen("b", 2), central_gen(3, -1), -1),
    (central_gen(1), central_gen(1, -1) * central_gen(2, 3), -central_gen(3) * Q, central_gen(0, -2)),
    (1, 1, 1, 1),
)


def test_scale_auto_matches_the_per_letter_factor():
    rng = random.Random(31)
    elements = [bt.random_element(rng, max_terms=4, max_word=6, central_range=3) for _ in range(30)]
    elements += [elements[i] * elements[i + 1] for i in range(0, 20, 2)]
    elements += [bt.zero(), bt.one(), central_gen(2, -5) * generator(3)]
    for alphas in _SCALINGS:
        g, reference = scale_auto(*alphas), _scale_per_letter(*alphas)
        for e in elements:
            image = g(e)
            assert image == reference(e)
            assert image.state == reference(e).state


def test_scale_auto_central_overflow():
    big = central_gen(0, 2 ** 62)
    x0x0 = generator(0) * generator(0)
    for g in (scale_auto(big, 1, 1, 1), _scale_per_letter(big, 1, 1, 1)):
        # two letters of factor c0^(2^62) reach c0^(2^63)
        with pytest.raises(bt.CentralOverflowError):
            g(x0x0)
        # the pair factor of c3 is c0^(2^62), and c0^(2^62) c3^2 maps to c0^(3 * 2^62)
        with pytest.raises(bt.CentralOverflowError):
            g(big * central_gen(3, 2))
        assert g(generator(0)) == big * generator(0)
    # and c0^(-2^63) is outside the range too
    with pytest.raises(bt.CentralOverflowError):
        scale_auto(central_gen(0, -(2 ** 62)), 1, 1, 1)(x0x0)


def test_scale_auto_checks_the_central_bound_on_the_result_only():
    """The per-letter factor also raised when a partial sum left the
    64-bit range and later letters or the term's own central part brought
    it back; the factor is now checked once, on the result."""
    half = 2 ** 62
    x0x0x1x1 = reduce_word((0, 0, 1, 1))
    cases = (
        # x0 x0 x1 x1: the even letters reach c0^(2^63), the odd ones cancel it
        ((central_gen(0, half), central_gen(0, -half), 1, 1), x0x0x1x1, ZERO_CENTRAL),
        # x0 x0 c0^-1: the letters reach c0^(2^63), the pair factor takes 2^62 off
        ((central_gen(0, half), 1, 1, 1), reduce_word((0, 0), (-1, 0, 0, 0)), (half - 1, 0, 0, 0)),
        # c0^(2^62) with pair factor c0^-2: the scaled pair factor is c0^(-2^63)
        ((central_gen(0, -2), 1, 1, 1), central_gen(0, half), (-half, 0, 0, 0)),
    )
    for alphas, e, central in cases:
        with pytest.raises(bt.CentralOverflowError):
            _scale_per_letter(*alphas)(e)
        image = scale_auto(*alphas)(e)
        assert [cent for _, _, cent, _ in image.state] == [central]
    assert scale_auto(*cases[0][0])(x0x0x1x1) == x0x0x1x1


def test_specialize_central():
    e = reduce_word((1, 0))  # q^2 x0 x1 + (1 - q^2) c0
    folded = specialize_central(e, (1, 1, 1, 1))
    assert folded.terms == {
        mono((0,), (1,)): Q ** 2,
        mono(): ONE - Q ** 2,
    }
    unchanged = specialize_central(e, tuple(central_gen(i) for i in range(4)))
    assert unchanged == e
    assert specialize_central(s_element(0), (1, 1, 1, 1)) == s_element(0)
    with pytest.raises(NotInvertibleError):
        specialize_central(e, (Q + 1, 1, 1, 1))


def test_negative_powers_invert_unit_monomials():
    u = central_gen(0, 2) * central_gen(3, -1) * (-Q ** 3 * R.gen("a") * R.gen("b", -2))
    for n in range(1, 6):
        inverse = u ** -n
        assert inverse * u ** n == bt.one()
        # the sign survives only at odd n
        assert inverse == (-1) ** n * central_gen(0, -2 * n) * central_gen(3, n) * (
            Q ** (-3 * n) * R.gen("a", -n) * R.gen("b", 2 * n)
        )
    assert bt.one() ** -1 == bt.one()
    assert central_gen(2) ** -3 == central_gen(2, -3)


def test_negative_powers_refuse_what_is_not_a_unit():
    not_units = (
        generator(1),  # a word
        central_gen(0) * generator(0),
        2 * Q * central_gen(1),  # a coefficient that is not a unit
        bt.one() * (1 + Q),  # sums
        central_gen(1) - central_gen(2),
        bt.zero(),
    )
    for e in not_units:
        with pytest.raises(NotInvertibleError):
            e ** -1
    with pytest.raises(bt.CentralOverflowError):
        central_gen(0, 2 ** 62) ** -2


def test_central_values_may_be_ints_polys_or_box_elements():
    rng = random.Random(14)
    e = bt.random_element(rng) * bt.random_element(rng)
    spellings = (
        (-1, Q ** 2, R.gen("a", -1) * R.gen("b"), 1),
        (-ONE, Q ** 2, R.gen("a", -1) * R.gen("b"), ONE),
        tuple(bt.one() * v for v in (-1, Q ** 2, R.gen("a", -1) * R.gen("b"), 1)),
    )
    images = {scale_auto(*alphas)(e).render() for alphas in spellings}
    assert len(images) == 1
    # specialize_central takes any monomial where no inverse is needed
    values = (2, -Q ** 2, R.gen("b", 3) * 3, central_gen(2))
    spellings = (values, tuple(bt.one() * v for v in values))
    positive = reduce_word((1, 0, 3, 2, 1, 0))
    assert specialize_central(positive, spellings[0]) == specialize_central(positive, spellings[1])
    with pytest.raises(NotInvertibleError):
        specialize_central(central_gen(0, -1), values)


def test_oracle_single_letters():
    t = module_action_oracle((0,))
    assert t == {("x", "", ZERO_CENTRAL): ONE}
    t = module_action_oracle((1,))
    assert t == {("", "x", ZERO_CENTRAL): ONE}
    t = module_action_oracle((("c", 0, 1),))
    assert t == {("", "", (1, 0, 0, 0)): ONE}
    t = module_action_oracle((("c", 2, -1),))
    assert t == {("", "", (0, 0, -1, 0)): ONE}


def test_oracle_matches_engine_on_words():
    rng = random.Random(13)
    for _ in range(200):
        w = bt.random_word(rng, max_len=8)
        assert oracle_as_box(module_action_oracle(w)) == reduce_word(w)


def test_oracle_with_central_tokens():
    tokens = (1, ("c", 0, 1), 0, ("c", 3, -1))
    direct = reduce_word((1, 0), central=(1, 0, 0, -1))
    assert oracle_as_box(module_action_oracle(tokens)) == direct


@given(st.lists(st.integers(0, 3), max_size=8))
@settings(max_examples=120, deadline=None)
def test_confluence_of_strategies(word):
    left = reduce_word(word, strategy="leftmost")
    right = reduce_word(word, strategy="rightmost")
    assert left == right


@given(st.lists(st.integers(0, 3), max_size=4), st.lists(st.integers(0, 3), max_size=4))
@settings(max_examples=60, deadline=None)
def test_reduction_respects_concatenation(w1, w2):
    assert reduce_word(tuple(w1) + tuple(w2)) == reduce_word(w1) * reduce_word(w2)


def test_associativity_on_random_elements():
    rng = random.Random(17)
    for _ in range(15):
        e1, e2, e3 = (bt.random_element(rng) for _ in range(3))
        assert (e1 * e2) * e3 == e1 * (e2 * e3)


def test_word_cap_and_budget_errors():
    saved = (bt.LIMITS.word_cap, bt.LIMITS.term_budget)
    lhs, rhs = reduce_word((1, 1, 3)), reduce_word((0, 2, 0, 2))
    try:
        # a rewrite never lengthens a word, so the cap is checked on the way in
        bt.LIMITS.word_cap = 3
        with pytest.raises(bt.ReductionBudgetError, match=r"^reduction budget: reduce_word reached 4 letters \(cap 3\)$"):
            reduce_word((1, 1, 0, 0))
        with pytest.raises(bt.ReductionBudgetError, match=r"^reduction budget: multiply reached 7 letters \(cap 3\)$"):
            multiply(lhs, rhs)
        bt.LIMITS.word_cap = 64
        # each input is one normal term, so only the rewriting grows past the budget
        bt.LIMITS.term_budget = 4
        with pytest.raises(bt.TermBudgetError, match=r"^term budget: reduce_word reached \d+ terms \(limit 4\)$"):
            reduce_word((1, 1, 3, 0, 2, 0, 2, 0))
        with pytest.raises(bt.TermBudgetError, match=r"^term budget: multiply reached \d+ terms \(limit 4\)$"):
            multiply(lhs, rhs)
    finally:
        bt.LIMITS.word_cap, bt.LIMITS.term_budget = saved


_WORDS = st.lists(st.integers(0, 3), max_size=6).map(tuple)
_CENTRALS = st.tuples(*[st.integers(-2, 2)] * 4).filter(any)
# multi-term coefficients in q, a and b
_COEFFICIENTS = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-2, 2), st.integers(-2, 2)),
    st.integers(-3, 3).filter(bool),
    min_size=1,
    max_size=4,
).map(lambda terms: LaurentPoly(R, terms))


def _via_oracle(word, central, coeff):
    """coeff * x_word * c^central, computed by the module action alone."""
    tokens = list(word) + [
        ("c", i, 1 if n > 0 else -1) for i, n in enumerate(central) for _ in range(abs(n))
    ]
    return oracle_as_box(module_action_oracle(tokens)) * coeff


@given(_WORDS, _CENTRALS, _COEFFICIENTS)
@settings(max_examples=80, deadline=None)
def test_reduce_word_agrees_with_the_oracle(word, central, coeff):
    expected = _via_oracle(word, central, coeff)
    for strategy in ("leftmost", "rightmost"):
        assert reduce_word(word, central, coeff, strategy=strategy) == expected


@given(_WORDS, _CENTRALS, _COEFFICIENTS, _WORDS, _CENTRALS, _COEFFICIENTS)
@settings(max_examples=60, deadline=None)
def test_multiply_agrees_with_the_oracle(w1, c1, k1, w2, c2, k2):
    lhs, rhs = _via_oracle(w1, c1, k1), _via_oracle(w2, c2, k2)
    central = tuple(a + b for a, b in zip(c1, c2))
    expected = _via_oracle(w1 + w2, central, k1 * k2)
    assert multiply(lhs, rhs) == expected
    # the product of two words is also their concatenation, in both fold orders
    for strategy in ("leftmost", "rightmost"):
        assert reduce_word(w1 + w2, central, k1 * k2, strategy=strategy) == expected


@given(_WORDS, _CENTRALS, _COEFFICIENTS, _WORDS, _CENTRALS, _COEFFICIENTS)
@settings(max_examples=40, deadline=None)
def test_rho_agrees_with_the_oracle(w1, c1, k1, w2, c2, k2):
    # a sum of two terms, so words of both shapes are shifted at once
    e = _via_oracle(w1, c1, k1) + _via_oracle(w2, c2, k2)
    expected = _via_oracle(
        tuple((l + 1) % 4 for l in w1), (c1[3],) + c1[:3], k1
    ) + _via_oracle(tuple((l + 1) % 4 for l in w2), (c2[3],) + c2[:3], k2)
    assert rho(e) == expected


def test_unknown_strategies_are_rejected():
    with pytest.raises(ValueError, match="unknown strategy"):
        reduce_word((1, 0), strategy="middle")


def test_multiply_checks_the_budget_within_a_crossing_and_a_group():
    saved = bt.LIMITS.term_budget
    budget_error = r"^term budget: multiply reached (\d+) terms \(limit 5\)$"
    # the eight odd words of length 3, each with an empty even word
    odd3 = (generator(1) + generator(3)) ** 3
    try:
        bt.LIMITS.term_budget = 5
        # x0 crosses each odd word, giving at most four terms each and 16
        # distinct ones in all
        with pytest.raises(bt.TermBudgetError, match=budget_error) as info:
            multiply(odd3, generator(0))
        assert int(info.value.args[0].split()[4]) <= 5 + 4
        # the right-hand side is one group, and its 64 products are distinct
        with pytest.raises(bt.TermBudgetError, match=budget_error) as info:
            multiply(odd3, odd3 * 5)
        assert int(info.value.args[0].split()[4]) <= 5 + len(odd3.terms)
    finally:
        bt.LIMITS.term_budget = saved


def test_scalar_factors_scale_the_other_factor():
    scalar = BoxElem(R, {bt.IDENTITY_MONO: 2 * Q * R.gen("a", -1) + R.gen("b")})
    coeff = scalar.terms[bt.IDENTITY_MONO]
    e = reduce_word((1, 0, 3), (0, 0, 0, 1))
    expected = reduce_word((1, 0, 3), (0, 0, 0, 1), coeff)
    assert multiply(scalar, e) == expected
    assert multiply(e, scalar) == expected
    assert multiply(scalar, scalar) == BoxElem(R, {bt.IDENTITY_MONO: coeff * coeff})
    saved = bt.LIMITS.word_cap
    try:
        # the word cap still applies to a product with a scalar
        bt.LIMITS.word_cap = 2
        with pytest.raises(bt.ReductionBudgetError, match=r"^reduction budget: multiply reached 3 letters \(cap 2\)$"):
            multiply(scalar, BoxElem(R, {mono((0,), (1, 3)): ONE}))
    finally:
        bt.LIMITS.word_cap = saved


def test_rho_trips_the_term_budget_under_its_own_name():
    saved = bt.LIMITS.term_budget
    # one normal monomial whose shift is an odd word before an even word
    e = BoxElem(R, {mono((0, 2, 0, 2), (1, 3, 1)): ONE})
    try:
        bt.LIMITS.term_budget = 4
        with pytest.raises(bt.TermBudgetError, match=r"^term budget: rho reached \d+ terms \(limit 4\)$"):
            rho(e)
    finally:
        bt.LIMITS.term_budget = saved


def test_powers_by_squaring():
    e = generator(1) + R.gen("a") * generator(0) + central_gen(2)
    power = bt.one()
    for n in range(7):
        assert e ** n == power
        power = power * e
    # a central power never grows a word, so only squaring keeps it quick
    assert central_gen(0) ** 1_000_000 == central_gen(0, 1_000_000)
    with pytest.raises(bt.CentralOverflowError):
        central_gen(0) ** (2 ** 63)


def test_central_overflow_is_checked():
    big = central_gen(0, 2 ** 62)
    with pytest.raises(OverflowError):
        big * big


def test_invalid_letters_rejected():
    with pytest.raises(ValueError):
        reduce_word((4,))


def test_only_normal_monomials_are_accepted():
    for bad in (
        mono((1,)),  # an odd letter in the even slot
        mono((1,), (0,)),  # both slots swapped
        mono((7,)),
        mono((), (7,)),
        mono(central=(0, 0)),
        mono(central=(0, 0, 0, 0.5)),
    ):
        with pytest.raises(ValueError):
            BoxElem(R, {bad: ONE})
    with pytest.raises(bt.CentralOverflowError):
        BoxElem(R, {mono(central=(2 ** 63, 0, 0, 0)): ONE})
    for central in ((0, 0), (1, 0, 0, 0, 0), (0, 0, 0, "1")):
        with pytest.raises(ValueError):
            reduce_word((0, 1), central)
    with pytest.raises(bt.CentralOverflowError):
        reduce_word((0, 1), (0, -(2 ** 63), 0, 0))
    assert BoxElem(R, {mono((0, 2), (3, 1), (1, -2, 0, 5)): ONE}) == reduce_word((0, 2, 3, 1), (1, -2, 0, 5))


def test_monomials_normal_by_construction_are_not_validated(monkeypatch):
    """The oracle's reading and a `reduce_word` with the default central
    part build normal monomials, so neither calls the validation."""
    calls = []
    real = bt._checked_central

    def spy(central):
        calls.append(central)
        return real(central)

    monkeypatch.setattr(bt, "_checked_central", spy)
    rng = random.Random(5)
    for _ in range(20):
        w = bt.random_word(rng, max_len=6)
        oracle = oracle_as_box(module_action_oracle(w + (("c", 1, -1),)))
        assert oracle == reduce_word(w, (0, -1, 0, 0))
        assert oracle_as_box(module_action_oracle(w)) == reduce_word(w)
    # only the explicit central part of each reduce_word above is validated
    assert calls == [(0, -1, 0, 0)] * 20


def test_render_is_deterministic():
    e = reduce_word((1, 0)) + central_gen(2, -1)
    assert e.render() == (
        "q^2 * [x0 | x1 | -] + [- | - | c2^-1] + (1 - q^2) * [- | - | c0]"
    )
    assert bt.zero().render() == "0"


_ALPHAS = (
    R.gen("a", -1) * Q ** 2,
    central_gen(1, -1) * -R.gen("b"),
    -1,
    central_gen(3, 2) * R.gen("a") * R.gen("b", -3),
)
_CENTRAL_VALUES = (Q ** 2, -1, central_gen(2), central_gen(0) * R.gen("b"))


_SHORT_WORDS = st.lists(st.integers(0, 3), max_size=4).map(tuple)


@given(_SHORT_WORDS, _CENTRALS, _COEFFICIENTS, _SHORT_WORDS, _CENTRALS, _COEFFICIENTS, _COEFFICIENTS)
@settings(max_examples=40, deadline=None)
def test_operations_leave_their_inputs_unchanged(w1, c1, k1, w2, c2, k2, k3):
    # state maps share their inner q-dicts, so an operation that changed one
    # in place would change other elements too
    e2 = _via_oracle(w2, c2, k2)
    e1 = _via_oracle(w1, c1, k1) + e2 * Q  # shares monomials with e2
    s = BoxElem(R, {bt.IDENTITY_MONO: k3})
    g, h = scale_auto(*_ALPHAS), lambda e: specialize_central(e, _CENTRAL_VALUES)
    values = [e1, e2, s]
    snapshots = [copy.deepcopy(e.state) for e in values]

    def keep(e):
        values.append(e)
        snapshots.append(copy.deepcopy(e.state))

    for x, y in ((e1, e2), (e2, e1), (e1, s)):
        keep(x + y)
        keep(x - y)
        keep(-x)
        keep(x * y)
        keep(y * x)
        keep(x * k3)
        keep(k3 * y)
        keep(rho(x))
        keep(g(x))
        keep(h(x))
        for n in zdegrees(x):
            keep(pi(n, x))
    # a second round on the results, which may share q-dicts with the inputs
    for x in values[3:]:
        x + e1
        e2 - x
        -x
        x * k3
        rho(x)
        g(x)
        h(x)
    for e, before in zip(values, snapshots):
        assert e.state == before



def _product_by_monomial_pairs(lhs, rhs):
    """lhs * rhs as the sum, over pairs of monomials, of the normal form of
    the concatenated words."""
    out = bt.zero()
    for (e1, o1, c1, ab1), qd1 in lhs.state.items():
        for (e2, o2, c2, ab2), qd2 in rhs.state.items():
            central = tuple(x + y for x, y in zip(c1, c2))
            for k1, v1 in qd1.items():
                for k2, v2 in qd2.items():
                    coeff = R.monomial(v1 * v2, (k1 + k2, ab1[0] + ab2[0], ab1[1] + ab2[1]))
                    out = out + reduce_word(tuple(e1 + o1 + e2 + o2), central, coeff)
    return out


def test_products_share_no_q_dict_that_a_later_operation_changes():
    # right factors made of one-monomial groups with coefficient a^i b^j:
    # the sign-split factors, sums of letters with the empty-even group
    # first or last, and their products, which hold the left factor's
    # q-dicts when the last group crosses no letter
    a, b = R.gen("a"), R.gen("b")
    lift_a = a * generator(0) + a ** -1 * generator(1)
    lift_b = b * generator(2) + b ** -1 * generator(3)
    rng = random.Random(31)
    values = [bt.random_element(rng) for _ in range(4)]
    values += [lift_a, lift_b, generator(1) + generator(0), generator(0) + generator(3) * b, generator(3)]
    snapshots = [copy.deepcopy(e.state) for e in values]

    def keep(e):
        values.append(e)
        snapshots.append(copy.deepcopy(e.state))
        return e

    factors = list(values)
    for x in factors:
        for y in factors:
            p = keep(x * y)
            assert p == _product_by_monomial_pairs(x, y)
    # a product used again as a left factor, and in sums and products
    lift = keep(lift_a * lift_b)
    for y in factors:
        p = keep(lift * y)
        assert p == _product_by_monomial_pairs(lift, y)
        keep(p * lift_a)
        keep(p + lift)
        keep(lift - p)
        keep(y * p)
        keep(p * Q)
        keep(rho(p))
    for e, before in zip(values, snapshots):
        assert e.state == before


def _global_names(code):
    """The global names read by a code object and the code nested in it."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _global_names(const)
    return names


_ORACLE_CODE = ("module_action_oracle", "_oracle_token", "_oracle_apply_letter", "_oracle_add")


def test_the_oracle_shares_no_code_with_the_kernel(monkeypatch):
    # besides one another, the oracle's functions and its accumulator read
    # only the budget checks, the coefficient type and their own tables
    allowed = set(_ORACLE_CODE) | {
        "_check_word_cap", "_check_term_budget", "LaurentPoly", "DEFAULT_RING",
        "ZERO_CENTRAL", "_ORACLE_PAIRING", "_ORACLE_LAMBDA",
    }
    for name in _ORACLE_CODE:
        module_names = {n for n in _global_names(getattr(bt, name).__code__) if hasattr(bt, n)}
        assert module_names <= allowed, (name, module_names - allowed)

    expected = oracle_as_box(module_action_oracle([1, 0, 3, ("c", 2, -1), 2, 1, 0]))

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called the kernel")

    for name in ("_cross", "_fold", "_crossing", "_add_into", "_add_drop"):
        monkeypatch.setattr(bt, name, refuse)
    assert oracle_as_box(module_action_oracle([1, 0, 3, ("c", 2, -1), 2, 1, 0])) == expected
    monkeypatch.undo()
    assert expected == reduce_word((1, 0, 3, 2, 1, 0), (0, 0, -1, 0))


def test_the_oracle_catches_a_flipped_pairing_sign(monkeypatch):
    # the first words of engine.oracle_equivalence at the default seed
    rng = random.Random(20260810 + 1)
    words = [bt.random_word(rng, max_len=10) for _ in range(20)]
    monkeypatch.setitem(bt._ORACLE_PAIRING, ("x", "x"), -2)
    caught = 0
    for w in words:
        # the flipped pairing is read when x1 acts after x0, i.e. stands left of it
        crosses = any(l == 1 and 0 in w[i + 1 :] for i, l in enumerate(w))
        assert (oracle_as_box(module_action_oracle(w)) != reduce_word(w)) == crosses
        caught += crosses
    assert caught >= 10
    monkeypatch.undo()
    assert all(oracle_as_box(module_action_oracle(w)) == reduce_word(w) for w in words)


def test_the_oracle_refuses_tokens_outside_its_alphabet():
    refused = (
        (4,), (7, 0), ("x",), (("c", 5, 1),),
        (("c", 1, 1.0),), (("c", 1.0, 1),), ([1],), (("c", 0),), (2.0,),
    )
    for tokens in refused:
        with pytest.raises(ValueError, match="not an oracle token"):
            module_action_oracle(tokens)
    with pytest.raises(ValueError):
        reduce_word((4,))
    assert module_action_oracle((("c", 3, 5), 2)) == {("y", "", (0, 0, 0, 5)): ONE}


def test_sums_and_scalar_products_check_the_term_budget():
    saved = bt.LIMITS.term_budget
    pair = generator(0) + generator(1)
    scalar = BoxElem(R, {bt.IDENTITY_MONO: 1 + R.gen("a") + R.gen("b")})
    try:
        bt.LIMITS.term_budget = 2
        with pytest.raises(bt.TermBudgetError, match=r"^term budget: sum reached 3 terms \(limit 2\)$"):
            pair + generator(2)
        with pytest.raises(bt.TermBudgetError, match=r"^term budget: sum reached 3 terms \(limit 2\)$"):
            pair - central_gen(1)
        # each entry of the scalar is a shifted copy of the other factor
        with pytest.raises(bt.TermBudgetError, match=r"^term budget: multiply reached 4 terms \(limit 2\)$"):
            pair * scalar
        with pytest.raises(bt.TermBudgetError, match=r"^term budget: multiply reached 4 terms \(limit 2\)$"):
            scalar * pair
        with pytest.raises(bt.TermBudgetError, match=r"^term budget: multiply reached 3 terms \(limit 2\)$"):
            scalar * 1
        with pytest.raises(bt.TermBudgetError, match=r"^term budget: multiply reached 4 terms \(limit 2\)$"):
            pair * (1 + R.gen("a"))
        bt.LIMITS.term_budget = 6
        assert pair * scalar == scalar * pair
    finally:
        bt.LIMITS.term_budget = saved

@given(_WORDS, _CENTRALS, _COEFFICIENTS, _WORDS, _CENTRALS, _COEFFICIENTS)
@settings(max_examples=60, deadline=None)
def test_terms_round_trip_to_the_same_element(w1, c1, k1, w2, c2, k2):
    e1 = _via_oracle(w1, c1, k1)
    e2 = _via_oracle(w2, c2, k2)
    for e in (e1, e2, e1 + e2, e1 * e2, rho(e1)):
        assert BoxElem(R, e.terms) == e
        assert BoxElem(R, e.terms).terms == e.terms
    for x, y in ((e1, e2), (e1, e1 * 1), (e1 + e2, e2 + e1), (e1, e1 * R.gen("a"))):
        assert (x == y) == (x.terms == y.terms)


def test_terms_round_trip_on_random_elements():
    rng = random.Random(23)
    for _ in range(50):
        e = bt.random_element(rng, max_terms=4, max_word=6)
        assert BoxElem(R, e.terms) == e
        other = bt.random_element(rng, max_terms=4, max_word=6)
        assert (e == other) == (e.terms == other.terms)


def test_constructor_drops_zero_coefficients_and_terms_is_a_view():
    e = BoxElem(R, {mono((0,)): R.zero(), mono((), (1,)): ONE, mono((2,)): 0})
    assert e == generator(1)
    assert e.terms == {mono((), (1,)): ONE}
    assert BoxElem(R, {mono((0,)): R.zero()}) == bt.zero()
    assert not BoxElem(R, {mono((0,)): R.zero()})
    # built on each access, so changing the returned map changes nothing
    view = e.terms
    view[mono((0,))] = ONE
    assert e.terms == {mono((), (1,)): ONE}
    assert "terms" not in BoxElem.__slots__
