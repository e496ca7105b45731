import contextlib
import copy
import random
from operator import add

import pytest
from hypothesis import example, given, settings
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
from qdg.qcoeff import DEFAULT_RING, CoefficientTooLargeError, LaurentPoly, NotInvertibleError, power

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


def _specialize_by_powers(e, values):
    """`specialize_central` as it was when each central vector's factor was
    the product of the values' `BoxElem` powers, memoised per vector: the
    reference for the substitution."""
    vals = tuple(bt.one() * v for v in values)
    for v in vals:
        bt._monomial_parts(v)
    out, factors = {}, {}
    for (even, odd, cent, ab), qd in e.state.items():
        if cent not in factors:
            factor = bt.one()
            for i, n in enumerate(cent):
                if n:
                    factor = factor * vals[i] ** n
            factors[cent] = bt._monomial_parts(factor)
        v, exps, central = factors[cent]
        bt._add_into(out, (even, odd, central, tuple(map(add, ab, exps[1:]))), qd, exps[0], v)
    return BoxElem._of(out)


_SPECIALIZATIONS = (
    # units, with c3 -> c2 and signs
    (-1, Q * R.gen("a"), central_gen(0) * R.gen("b", -1), central_gen(2)),
    (central_gen(1, -1) * -Q, 1, -R.gen("a", 2), central_gen(2) * central_gen(3, -2)),
    (1, 1, 1, 1),
    tuple(central_gen(i) for i in range(4)),
    # non-units, taken at positive powers only
    (2, -Q ** 2, R.gen("b", 3) * 3, central_gen(2)),
    (-2 * central_gen(1), 5 * Q, -1, central_gen(2) * -3),
)


def test_specialize_central_matches_the_powers_of_the_values():
    rng = random.Random(33)
    elements = [bt.random_element(rng, max_terms=4, max_word=5, central_range=3) for _ in range(30)]
    elements += [elements[i] * elements[i + 1] for i in range(0, 16, 2)]
    # every central exponent at least 0, for the values that are no units
    lift = central_gen(0, 6) * central_gen(1, 6) * central_gen(2, 6) * central_gen(3, 6)
    positive = [e * lift for e in elements] + [bt.zero(), bt.one(), central_gen(3, 4) * generator(2)]
    for values in _SPECIALIZATIONS:
        units = all(abs(bt._monomial_parts(bt.one() * v)[0]) == 1 for v in values)
        for e in positive + (elements if units else []):
            image = specialize_central(e, values)
            assert image.state == _specialize_by_powers(e, values).state


def test_specialize_central_refusals():
    values = (2 * Q, 1, 1, 1)
    for e in (central_gen(0, -1), central_gen(0, -2) * generator(1)):
        for specialize in (specialize_central, _specialize_by_powers):
            with pytest.raises(NotInvertibleError):
                specialize(e, values)
    # 3^n has at least n + 1 bits
    n = bt._POWER_BIT_BOUND
    e = central_gen(0, n) * generator(0)
    messages = set()
    for specialize in (specialize_central, _specialize_by_powers):
        with pytest.raises(CoefficientTooLargeError) as info:
            specialize(e, (3, 1, 1, 1))
        messages.add(str(info.value))
    assert messages == {"a power with a coefficient of at least %d bits is past the bound of %d bits" % (n + 1, n)}
    assert specialize_central(central_gen(0, n - 1), (3, 1, 1, 1)) == bt.one() * 3 ** (n - 1)
    # the powers checked the central bound on each partial product, the
    # substitution checks it on the image only
    e = central_gen(0, 2 ** 62) * central_gen(1, 2 ** 62)
    values = (central_gen(2, 2), central_gen(2, -2), 1, 1)
    with pytest.raises(bt.CentralOverflowError):
        _specialize_by_powers(e, values)
    assert specialize_central(e, values) == bt.one()


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
    assert t == {("x", "", ZERO_CENTRAL): {0: 1}}
    t = module_action_oracle((1,))
    assert t == {("", "x", ZERO_CENTRAL): {0: 1}}
    t = module_action_oracle((("c", 0, 1),))
    assert t == {("", "", (1, 0, 0, 0)): {0: 1}}
    t = module_action_oracle((("c", 2, -1),))
    assert t == {("", "", (0, 0, -1, 0)): {0: 1}}


def test_reduce_word_without_a_coefficient_is_times_one():
    rng = random.Random(29)
    for _ in range(100):
        w = bt.random_word(rng, max_len=8)
        central = rng.choice((ZERO_CENTRAL, (1, 0, -2, 0)))
        for strategy in ("leftmost", "rightmost"):
            plain = reduce_word(w, central, strategy=strategy)
            assert plain == reduce_word(w, central, coeff=R.one(), strategy=strategy)


def _reference_random_element(rng, max_terms=3, max_word=4, central_range=2):
    """The sampler as built on LaurentPoly coefficients and `reduce_word`,
    kept as the reference for `random_element`'s draws."""
    out = bt.zero()
    for _ in range(rng.randint(1, max_terms)):
        word = bt.random_word(rng, max_len=max_word)
        central = tuple(rng.randint(-central_range, central_range) for _ in range(4))
        exps = [rng.randint(-3, 3), 0, 0]
        if rng.random() < 0.3:
            exps[rng.randint(1, 2)] = rng.choice((-1, 1))
        coeff = R.monomial(rng.choice((1, -1, 2)), tuple(exps))
        out = out + reduce_word(word, central, coeff)
    return out


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"max_terms": 4, "max_word": 6, "central_range": 3}, {"max_terms": 1, "max_word": 0, "central_range": 0}],
)
def test_random_element_draws_as_the_reference_does(kwargs):
    for seed in range(150):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            e = bt.random_element(rng, **kwargs)
            assert e.state == _reference_random_element(ref, **kwargs).state
        # the two draw the same numbers, so the streams stay in step
        assert rng.random() == ref.random()


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
    # the bound holds where a central exponent enters, as in reduce_word
    for power in (2 ** 63, -(2 ** 63), 2 ** 70):
        with pytest.raises(bt.CentralOverflowError):
            central_gen(0, power)
        with pytest.raises(bt.CentralOverflowError):
            reduce_word((), (power, 0, 0, 0))
        with pytest.raises(OverflowError):
            module_action_oracle([("c", 0, power)])
    edge = 2 ** 63 - 1
    assert central_gen(3, -edge) == reduce_word((), (0, 0, 0, -edge))
    assert oracle_as_box(module_action_oracle([("c", 3, -edge)])) == central_gen(3, -edge)


_EDGE = 2 ** 63 - 1
_AT_EDGE = (_EDGE, 0, 0, 0)


@pytest.mark.parametrize(
    "compute",
    [
        # appended: x0 crosses x1 and raises c0
        lambda: reduce_word((1, 0), _AT_EDGE),
        lambda: multiply(reduce_word((1,), _AT_EDGE), generator(0)),
        # prepended: x1 crosses x0 and raises c0
        lambda: reduce_word((1, 0), _AT_EDGE, strategy="rightmost"),
        # rho sends c0 to c1 and x0 | x1 to x1 x2, whose crossing raises c1
        lambda: rho(reduce_word((0, 1), _AT_EDGE)),
    ],
    ids=["append", "multiply", "prepend", "rho"],
)
def test_a_crossing_keeps_the_central_bound(compute):
    with pytest.raises(bt.CentralOverflowError, match="^central exponent outside the checked 64-bit range$"):
        compute()


def test_a_crossing_just_inside_the_central_bound_is_exact():
    below = (_EDGE - 1, 0, 0, 0)
    expected = Q ** 2 * BoxElem(R, {mono((0,), (1,), below): ONE}) + BoxElem(R, {mono(central=_AT_EDGE): 1 - Q ** 2})
    for strategy in ("leftmost", "rightmost"):
        assert reduce_word((1, 0), below, strategy=strategy) == expected
    assert multiply(reduce_word((1,), below), generator(0)) == expected


def test_invalid_letters_rejected():
    # a letter is an int in 0..3: a float or a digit string is not read as one
    for letters in ((4,), (1.7, 2), (1, "2"), (2.0,), (-1,)):
        with pytest.raises(ValueError, match="must be ints"):
            reduce_word(letters)
    assert reduce_word([0, 1]) == reduce_word(b"\x00\x01") == generator(0) * generator(1)


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


# -- the printer against a reference ----------------------------------------
# A copy of an earlier route from a state map to its text: each monomial's
# coefficient gathered into a map (q, a, b exponents) -> int, then every
# term printed on its own.


def _reference_by_mono(state):
    monos = {}
    for (even, odd, cent, ab), qd in state.items():
        coeff = monos.setdefault((even, odd, cent), {})
        for k, v in qd.items():
            coeff[(k,) + ab] = v
    return monos


def _reference_mono_text(even, odd, central):
    central_text = "-"
    if any(central):
        central_text = ".".join("c%d" % i if e == 1 else "c%d^%d" % (i, e) for i, e in enumerate(central) if e)
    return "[%s | %s | %s]" % (
        "x" + ".x".join(map(str, even)) if even else "-",
        "x" + ".x".join(map(str, odd)) if odd else "-",
        central_text,
    )


def _reference_monomial_text(coeff_abs, exps):
    k, i, j = exps
    factors = []
    try:
        if coeff_abs != 1 or not (k or i or j):
            factors.append(str(coeff_abs))
        if k:
            factors.append("q" if k == 1 else "q^%d" % k)
        if i:
            factors.append("a" if i == 1 else "a^%d" % i)
        if j:
            factors.append("b" if j == 1 else "b^%d" % j)
    except ValueError:
        numbers = ((coeff_abs, "a coefficient"), (k, "an exponent of q"), (i, "an exponent of a"), (j, "an exponent of b"))
        bits, what = max((abs(v).bit_length(), what) for v, what in numbers)
        raise CoefficientTooLargeError("%s of %d bits is too large to print in decimal" % (what, bits)) from None
    return "*".join(factors)


def _reference_signed_text(positive, negative):
    if not positive:
        return "-" + " - ".join(negative) if negative else "0"
    text = " + ".join(positive)
    return text + " - " + " - ".join(negative) if negative else text


def _reference_render(state):
    monos = _reference_by_mono(state)
    order = sorted(monos, key=lambda m: (-(len(m[0]) + len(m[1])), -len(m[0]), m[0], m[1], m[2]))
    out = []
    for m in order:
        terms = monos[m]
        positive, negative = [], []
        for e, c in sorted(terms.items(), reverse=True):
            if c > 0:
                positive.append(_reference_monomial_text(c, e))
            else:
                negative.append(_reference_monomial_text(-c, e))
        if positive:
            out.append(" + ")
            text = _reference_signed_text(positive, negative)
        else:
            out.append(" - ")
            text = " + ".join(negative) or "0"
        if len(terms) > 1:
            text = "(" + text + ")"
        body = _reference_mono_text(*m)
        if body:
            text = body if text == "1" else text + " * " + body
        out.append(text)
    if not out:
        return "0"
    return "".join(out[1:]) if out[0] == " + " else "-" + "".join(out[1:])


def _printed(render):
    """The text `render()` returns, or the message of the
    CoefficientTooLargeError it raises."""
    try:
        return render()
    except CoefficientTooLargeError as exc:
        return "error: %s" % exc


# numbers past the interpreter's default limit of 4300 digits on
# int-to-str conversion, of different widths, so an error names one.  The
# drawn state maps hold their codes, which hypothesis can print, and
# `_widened` puts the numbers in
_HUGE = {1000: 10 ** 4300, 1001: -(10 ** 4300), 1002: 3 ** 9500, 1003: -(7 ** 6000), 1004: 2 ** 20000}


def _widened(state):
    def wide(v):
        return _HUGE.get(v, v)

    return {
        (even, odd, central, (wide(ab[0]), wide(ab[1]))): {wide(k): wide(c) for k, c in qd.items()}
        for (even, odd, central, ab), qd in state.items()
    }


@st.composite
def _state_maps(draw, numbers):
    """A state map of up to five monomials, each with one to three a/b
    pairs whose q-dicts hold one to four terms."""
    monos = draw(st.lists(
        st.tuples(
            st.lists(st.sampled_from((0, 2)), max_size=3).map(bytes),
            st.lists(st.sampled_from((1, 3)), max_size=3).map(bytes),
            st.one_of(st.just(ZERO_CENTRAL), st.tuples(*[st.integers(-2, 2)] * 4)),
        ),
        max_size=5,
        unique=True,
    ))
    state = {}
    for even, odd, central in monos:
        for ab in draw(st.lists(st.tuples(numbers, numbers), min_size=1, max_size=3, unique=True)):
            state[even, odd, central, ab] = draw(st.dictionaries(numbers, numbers.filter(bool), min_size=1, max_size=4))
    return state


_SMALL = st.integers(-2, 2)


@given(st.one_of(
    _state_maps(_SMALL),
    # all-negative coefficients, and 1 and -1 at q^0
    _state_maps(st.sampled_from((-3, -1, 0))),
    _state_maps(st.sampled_from((-1, 0, 1))),
    # now and then a number too wide to print
    _state_maps(st.one_of(_SMALL, _SMALL, _SMALL, st.sampled_from(sorted(_HUGE)))),
))
@settings(max_examples=300, deadline=None)
def test_render_matches_the_reference_route(state):
    state = _widened(state)
    assert _printed(BoxElem._of(state).render) == _printed(lambda: _reference_render(state))


def test_a_number_too_wide_to_print_is_named():
    # the first term that cannot print names the widest of its four
    # numbers, which need not be the first one that fails
    for c, k, ab, what, widest in (
        (10 ** 5000, 10 ** 4400, (0, 10 ** 4301), "a coefficient", 10 ** 5000),
        (10 ** 4301, 10 ** 5000, (0, 1), "an exponent of q", 10 ** 5000),
        (5, -(10 ** 4400), (1, 0), "an exponent of q", 10 ** 4400),
        (1, 1, (3 ** 9500, 2), "an exponent of a", 3 ** 9500),
        (-2, 0, (1, -(10 ** 4305)), "an exponent of b", 10 ** 4305),
    ):
        state = {(b"", b"\x01", ZERO_CENTRAL, (0, 0)): {0: 1, -1: 3}, (b"", b"\x01", ZERO_CENTRAL, ab): {k: c}}
        message = "%s of %d bits is too large to print in decimal" % (what, widest.bit_length())
        with pytest.raises(CoefficientTooLargeError, match="^%s$" % message):
            BoxElem._of(state).render()
        assert _printed(lambda: _reference_render(state)) == "error: " + message


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
        # one-term right factors; the second shares the q-dicts of x
        keep(BoxElem._of(bt._times_monomial(x.state, b"\x00\x02", b"\x01", (0, 1, 0, 0), (1, -1), 2, -3)))
        keep(BoxElem._of(bt._times_monomial(x.state, b"", b"\x03", ZERO_CENTRAL, (0, 1))))
        keep(BoxElem._of(bt._times_atom(x.state, (b"\x02", b"", ZERO_CENTRAL, (0, 0), 0, 1))))
        keep(BoxElem._of(bt._times_atom(x.state, (b"", b"", (1, 0, 0, 0), (0, 0), -1, 2))))
    # a second round on the results, which may share q-dicts with the inputs
    for x in values[3:]:
        x + e1
        e2 - x
        -x
        x * k3
        rho(x)
        g(x)
        h(x)
        bt._times_monomial(x.state, b"\x02", b"\x03", ZERO_CENTRAL, (0, 0), 1, 1)
        bt._times_atom(x.state, (b"", b"\x01", (0, 0, 2, 0), (1, 0), 0, -1))
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


@contextlib.contextmanager
def _limits(word_cap, term_budget):
    saved = (bt.LIMITS.word_cap, bt.LIMITS.term_budget)
    bt.LIMITS.word_cap, bt.LIMITS.term_budget = word_cap, term_budget
    try:
        yield
    finally:
        bt.LIMITS.word_cap, bt.LIMITS.term_budget = saved


def _outcome(compute):
    """What `compute()` returns, or the type and text of the budget error
    it raises."""
    try:
        return compute()
    except (bt.ReductionBudgetError, bt.TermBudgetError) as exc:
        return type(exc), str(exc)


# random elements, with scalars and zero among them
_ELEMENTS = st.one_of(
    st.integers(0, 2 ** 32).map(lambda seed: bt.random_element(random.Random(seed), max_terms=4, max_word=5)),
    _COEFFICIENTS.map(lambda coeff: BoxElem(R, {bt.IDENTITY_MONO: coeff})),
    st.just(bt.zero()),
)
# one-term factors c q^k a^i b^j (even | odd | central), as the arguments
# (even, odd, central, a/b exponents, k, c) of `_times_atom`
_ONE_TERM_ATOMS = st.tuples(
    st.lists(st.sampled_from((0, 2)), max_size=3).map(bytes),
    st.lists(st.sampled_from((1, 3)), max_size=3).map(bytes),
    st.one_of(st.just(ZERO_CENTRAL), _CENTRALS),
    st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
    st.integers(-3, 3),
    st.sampled_from((1, -1, 2, -2, 3)),
)


def _one_term(atom):
    even, odd, central, ab, k, c = atom
    return BoxElem._of({(even, odd, central, ab): {k: c}})


@given(_ELEMENTS, _ONE_TERM_ATOMS)
@settings(max_examples=150, deadline=None)
def test_products_by_one_term_factors_match_the_monomial_pairs(e, atom):
    product = multiply(e, _one_term(atom))
    assert product == _product_by_monomial_pairs(e, _one_term(atom))
    assert bt._times_atom(e.state, atom) == product.state


@given(_ELEMENTS, _ONE_TERM_ATOMS, st.integers(3, 6), st.integers(2, 8))
@settings(max_examples=300, deadline=None)
def test_times_atom_is_multiply_at_low_limits(e, atom, word_cap, term_budget):
    with _limits(word_cap, term_budget):
        expected = _outcome(lambda: multiply(e, _one_term(atom)).state)
        assert _outcome(lambda: bt._times_atom(e.state, atom)) == expected


def _reference_multiply(lhs, rhs):
    """`multiply` as it was with a branch of its own for a right factor of
    one term, before the first group of one term took that job: a first
    group went to `_times_monomial` only when it was one monomial with a
    nonempty even word, coefficient a^i b^j and no central part."""
    if not lhs.state or not rhs.state:
        return bt.zero()
    bt._check_word_cap("multiply", bt._longest(lhs.state) + bt._longest(rhs.state))
    if len(rhs.state) == 1:
        (((even, odd, central, ab), qd),) = rhs.state.items()
        if len(qd) == 1:
            ((k, c),) = qd.items()
            return BoxElem._of(bt._times_monomial(lhs.state, even, odd, central, ab, k, c))
    groups = {}
    for (even, odd, central, ab2), qd2 in rhs.state.items():
        groups.setdefault(even, []).append((odd, central, ab2, qd2))
    out = {}
    last = len(groups) - 1
    for g, (even_word, monos) in enumerate(groups.items()):
        odd_word, central, ab2, qd2 = monos[0]
        plain = len(monos) == 1 and qd2 == {0: 1} and central == ZERO_CENTRAL
        if plain and even_word and not out:
            out = bt._times_monomial(lhs.state, even_word, odd_word, central, ab2)
            continue
        if plain and not even_word and g == last:
            for (even, odd, cent, ab), qd in lhs.state.items():
                key = (even, odd + odd_word, cent, tuple(map(add, ab, ab2)))
                if key in out:
                    bt._add_into(out, key, qd, 0, 1)
                else:
                    out[key] = qd
            bt._check_term_budget("multiply", len(out))
            continue
        product = bt._fold(lhs.state, even_word, "multiply")
        for odd_word, central, ab2, qd2 in monos:
            for (even, odd, cent, ab), qd in product.items():
                if central != ZERO_CENTRAL:
                    cent = bt.add_central(cent, central)
                key = (even, odd + odd_word, cent, tuple(map(add, ab, ab2)))
                for k2, v2 in qd2.items():
                    bt._add_into(out, key, qd, k2, v2)
            bt._check_term_budget("multiply", len(out))
    return BoxElem._of(out)


def _first_group_of_one_term(atom, rest, alone):
    """The right factor whose first term is `atom` and whose other terms are
    those of `rest`; with `alone`, no other term shares the even word of
    `atom`, so the first group is that one term."""
    state = {atom[:4]: {atom[4]: atom[5]}}
    for key, qd in rest.state.items():
        if not (alone and key[0] == atom[0]):
            state.setdefault(key, qd)
    return BoxElem._of(state)


@given(
    _ELEMENTS,
    _ONE_TERM_ATOMS,
    st.one_of(st.none(), _ELEMENTS),
    st.booleans(),
    st.integers(3, 8),
    st.integers(2, 12),
)
@example(generator(1), (b"\x00", b"", (1, 0, 0, 0), (1, 0), 2, -3), generator(0) + generator(2), True, 8, 12)
@example(generator(1), (b"", b"\x03", ZERO_CENTRAL, (0, 0), 0, 1), generator(0) + generator(2), True, 8, 12)
# a first group 1 that shared the q-dicts of `e` would have the later
# group x0 add into the one under the key x0
@example(generator(0) + bt.one(), (b"", b"", ZERO_CENTRAL, (0, 0), 0, 1), generator(0), True, 8, 12)
@settings(max_examples=400, deadline=None)
def test_multiply_is_the_former_multiply(e, atom, rest, alone, word_cap, term_budget):
    rhs = _one_term(atom) if rest is None else _first_group_of_one_term(atom, rest, alone)
    snapshot = copy.deepcopy(e.state), copy.deepcopy(rhs.state)
    with _limits(word_cap, term_budget):
        expected = _outcome(lambda: list(_reference_multiply(e, rhs).state.items()))
        assert _outcome(lambda: list(multiply(e, rhs).state.items())) == expected
    assert (e.state, rhs.state) == snapshot


def test_box_operators_take_ints_and_laurent_polys_on_either_side():
    x0 = generator(0)
    assert x0 + 1 == 1 + x0 == x0 + bt.one()
    assert x0 - Q == -(Q - x0) == x0 - Q * bt.one()
    assert 2 - x0 == 2 * bt.one() - x0
    assert x0 * 3 == 3 * x0 == x0 + x0 + x0
    assert (x0 + 0).state == x0.state and (0 - x0) == -x0
    for other in ("x", 2.5, None, [1]):
        for apply in (
            lambda: x0 + other,
            lambda: other + x0,
            lambda: x0 - other,
            lambda: other - x0,
            lambda: x0 * other,
            lambda: other * x0,
        ):
            with pytest.raises(TypeError):
                apply()


def test_the_kernel_keeps_one_power_loop_and_one_serre_polynomial():
    from qdg import identities

    assert not hasattr(bt, "_check_power_word_cap") and not hasattr(identities, "_serre_comb")


@given(
    st.integers(0, 2 ** 32).map(lambda seed: bt.random_element(random.Random(seed), max_terms=3, max_word=3)),
    st.integers(0, 40),
    st.integers(3, 8),
)
@settings(max_examples=150, deadline=None)
def test_the_power_word_cap_gate_matches_the_power_loop(e, n, word_cap):
    with _limits(word_cap, 1_000_000):
        assert _outcome(lambda: e ** n) == _outcome(lambda: power(e, n, bt.one()))


def test_powers_past_the_word_cap_are_refused_before_the_work(monkeypatch):
    # the gate runs `power` on word lengths, so only a power of an element
    # is refused here
    def refuse(base, n, one):
        if isinstance(base, BoxElem):
            raise AssertionError("the power was built")
        return power(base, n, one)

    monkeypatch.setattr(bt, "power", refuse)
    pair = generator(0) + generator(1)
    with pytest.raises(bt.ReductionBudgetError, match=r"^reduction budget: multiply reached 65 letters \(cap 64\)$"):
        pair ** 65
    with pytest.raises(bt.ReductionBudgetError, match=r"^reduction budget: multiply reached 127 letters \(cap 64\)$"):
        pair ** 99999999999999999999
    with pytest.raises(bt.ReductionBudgetError, match=r"^reduction budget: multiply reached 128 letters \(cap 64\)$"):
        generator(0) ** 99999
    # zero and scalars have no word to grow
    with pytest.raises(AssertionError, match="the power was built"):
        bt.zero() ** 99999
    with pytest.raises(AssertionError, match="the power was built"):
        (bt.one() * Q) ** 99999


def _reference_add_into(acc, key, qd, shift, factor):
    """acc[key] += factor * q^shift * qd, one helper call per term, as the
    crossing added its terms before it did so inline; a new key gets a new
    dict."""
    target = acc.get(key)
    if target is None:
        if shift or factor != 1:
            acc[key] = {k + shift: v * factor for k, v in qd.items()}
        else:
            acc[key] = qd.copy()
        return
    for k, v in qd.items():
        k += shift
        v = target.get(k, 0) + v * factor
        if v:
            target[k] = v
        else:
            del target[k]
    if not target:
        del acc[key]


def _reference_add_drop(acc, key, qd, lo, hi):
    """acc[key] += (q^lo - q^hi) * qd, one helper call per drop."""
    target = acc.get(key)
    if target is None:
        target = acc[key] = {}
    get = target.get
    for k, v in qd.items():
        e = k + lo
        w = get(e, 0) + v
        if w:
            target[e] = w
        else:
            del target[e]
        e = k + hi
        w = get(e, 0) - v
        if w:
            target[e] = w
        else:
            del target[e]
    if not target:
        del acc[key]


def _reference_cross(state, letter, op, tail=b"", shift=(0, 0)):
    """`bt._cross` with one helper call per term, the reference for the
    crossing that adds each term inline."""
    unit = bytes((letter,))
    out = {}
    for (even, odd, cent, ab), qd in state.items():
        total, drops = bt._crossing(letter, odd)
        ab = (ab[0] + shift[0], ab[1] + shift[1])
        _reference_add_into(out, (even + unit, odd + tail, cent, ab), qd, total, 1)
        for word, index, lo, hi in drops:
            bumped = cent[:index] + (cent[index] + 1,) + cent[index + 1 :]
            _reference_add_drop(out, (even, word + tail, bumped, ab), qd, lo, hi)
        bt._check_term_budget(op, len(out))
    return out


# state maps over short words, few central parts and even q exponents, so
# the terms of different states often land on one key and may cancel
_STATES = st.dictionaries(
    st.tuples(
        st.lists(st.sampled_from((0, 2)), max_size=3).map(bytes),
        st.lists(st.sampled_from((1, 3)), max_size=3).map(bytes),
        st.tuples(st.integers(0, 1), st.integers(0, 1), st.just(0), st.integers(0, 1)),
        st.sampled_from(((0, 0), (1, 0))),
    ),
    st.dictionaries(st.sampled_from((-2, 0, 2, 4)), st.sampled_from((-1, 1, 2)), min_size=1, max_size=3),
    min_size=1,
    max_size=8,
)
# two states whose terms cancel under one key: x0 appended to
# (x0 | x1 | -) drops (1 - q^2) (x0 | - | c0), and the moved term of
# (- | - | c0), whose q-dict is q^2 - 1, takes it back to zero
_CANCELLING = {(b"\x00", b"\x01", ZERO_CENTRAL, (0, 0)): {0: 1}, (b"", b"", (1, 0, 0, 0), (0, 0)): {0: -1, 2: 1}}


@given(
    _STATES,
    st.sampled_from((0, 2)),
    st.lists(st.sampled_from((1, 3)), max_size=2).map(bytes),
    st.sampled_from(((0, 0), (1, 0), (0, -1))),
    st.integers(1, 12),
)
@example(_CANCELLING, 0, b"", (0, 0), 12)
@example(dict(reversed(_CANCELLING.items())), 0, b"", (0, 0), 12)
@settings(max_examples=300, deadline=None)
def test_cross_adds_its_terms_as_the_helper_per_term_loop(state, letter, tail, shift, term_budget):
    # an even letter is appended, with an odd tail
    before = copy.deepcopy(state)
    with _limits(64, term_budget):
        expected = _outcome(lambda: _reference_cross(state, letter, "multiply", tail, shift))
        got = _outcome(lambda: bt._cross(state, letter, "multiply", tail, shift))
    assert got == expected
    assert state == before
    if isinstance(got, dict):
        # every q-dict of the result is new
        assert {id(qd) for qd in got.values()}.isdisjoint(map(id, state.values()))


# right factors whose last group is one monomial with an empty even word
# and coefficient a^i b^j, which `multiply` joins to the left factor's
# q-dicts without copying them; the groups before it have even words
_LAST_GROUP_FACTORS = st.tuples(
    st.dictionaries(
        st.tuples(
            st.lists(st.sampled_from((0, 2)), min_size=1, max_size=2).map(bytes),
            st.lists(st.sampled_from((1, 3)), max_size=1).map(bytes),
            st.sampled_from((ZERO_CENTRAL, (1, 0, 0, 0))),
            st.sampled_from(((0, 0), (0, 1))),
        ),
        st.dictionaries(st.sampled_from((0, 2)), st.sampled_from((-1, 1)), min_size=1, max_size=2),
        min_size=1,
        max_size=3,
    ),
    st.lists(st.sampled_from((1, 3)), max_size=1).map(bytes),
    st.sampled_from(((0, 0), (1, 0), (0, -1))),
).map(lambda t: {**t[0], (b"", t[1], ZERO_CENTRAL, t[2]): {0: 1}})


@given(_STATES, _LAST_GROUP_FACTORS)
@example(
    {(b"", b"\x01", ZERO_CENTRAL, (0, 0)): {0: 1}, (b"", b"", (1, 0, 0, 0), (0, 0)): {0: -1, 2: 1}},
    {(b"\x00", b"", ZERO_CENTRAL, (0, 0)): {0: 1}, (b"", b"", ZERO_CENTRAL, (0, 0)): {0: 1}},
)
@settings(max_examples=200, deadline=None)
def test_the_last_group_merge_changes_no_q_dict_of_its_factors(lhs_state, rhs_state):
    # in the example, the drop (1 - q^2) (- | - | c0) of the first group
    # cancels the left factor's own (- | - | c0) in the last group
    lhs, rhs = BoxElem._of(lhs_state), BoxElem._of(rhs_state)
    before = (copy.deepcopy(lhs_state), copy.deepcopy(rhs_state))
    product = multiply(lhs, rhs)
    assert (lhs_state, rhs_state) == before
    assert product == _product_by_monomial_pairs(lhs, rhs)


# (operation, term budget, terms reached): each budget error is raised by
# `_cross` after the state that took the map past the budget, so these
# counts are those of the helper-per-term crossing
_LHS, _RHS = reduce_word((1, 1, 3)), reduce_word((0, 2, 0, 2))
_ODD3 = (generator(1) + generator(3)) ** 3
_SHIFTED = BoxElem(R, {mono((0, 2, 0, 2), (1, 3, 1)): ONE})
_CROSSING_BUDGETS = [
    ("multiply", lambda: multiply(_LHS, _RHS), ((3, 5), (4, 5), (5, 8), (7, 8))),
    ("multiply", lambda: multiply(_ODD3, generator(0)), ((3, 5), (4, 5), (5, 7), (7, 10))),
    (
        "reduce_word",
        lambda: reduce_word((1, 1, 3, 0, 2, 0, 2, 0), strategy="rightmost"),
        ((3, 6), (4, 6), (5, 6), (7, 11)),
    ),
    ("reduce_word", lambda: reduce_word((1, 1, 3, 0, 2, 0, 2, 0)), ((3, 5), (4, 5), (5, 8), (7, 8))),
    ("rho", lambda: rho(_SHIFTED), ((3, 5), (4, 5), (5, 9), (7, 9))),
]


@pytest.mark.parametrize("op, compute, counts", _CROSSING_BUDGETS)
def test_budget_errors_inside_a_crossing_name_the_terms_reached(op, compute, counts):
    for term_budget, reached in counts:
        with _limits(64, term_budget):
            with pytest.raises(bt.TermBudgetError) as info:
                compute()
        assert str(info.value) == "term budget: %s reached %d terms (limit %d)" % (op, reached, term_budget)
        assert info.traceback[-2].name == "_cross"


def _global_names(code):
    """The global names read by a code object and the code nested in it."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _global_names(const)
    return names


_ORACLE_CODE = ("module_action_oracle", "_oracle_token", "_oracle_apply_letter", "_oracle_add", "oracle_as_box")


def test_the_oracle_shares_no_code_with_the_kernel(monkeypatch):
    # besides one another, the oracle's functions, its accumulator and its
    # reading as an element read only the budget checks, the element type
    # and their own tables: no coefficient type
    allowed = set(_ORACLE_CODE) | {
        "_check_word_cap", "_check_term_budget", "BoxElem",
        "ZERO_CENTRAL", "_ORACLE_PAIRING", "_ORACLE_LAMBDA", "_TO_EVEN", "_TO_ODD",
    }
    for name in _ORACLE_CODE:
        module_names = {n for n in _global_names(getattr(bt, name).__code__) if hasattr(bt, n)}
        assert module_names <= allowed, (name, module_names - allowed)

    expected = oracle_as_box(module_action_oracle([1, 0, 3, ("c", 2, -1), 2, 1, 0]))

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called the kernel")

    for name in ("_cross", "_fold", "_crossing", "_add_into", "_enter", "_checked_central"):
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
    assert module_action_oracle((("c", 3, 5), 2)) == {("y", "", (0, 0, 0, 5)): {0: 1}}


def test_the_oracle_bounds_its_central_exponents():
    top = 2 ** 63 - 1
    out_of_range = "^central exponent outside the checked 64-bit range$"
    # central tokens that sum past the bound, either way, as the kernel's
    # product of the same central powers does
    for tokens in ([("c", 0, top), ("c", 0, 1)], [("c", 3, -top), ("c", 3, -1)], [("c", 2, 1), ("c", 2, top), 0]):
        with pytest.raises(OverflowError, match=out_of_range):
            module_action_oracle(tokens)
    with pytest.raises(bt.CentralOverflowError, match=out_of_range):
        central_gen(0, top) * central_gen(0)
    # a correction term that raises c0 (x1 acting after x0) or c1 (x1
    # after x2) past it, as the kernel's crossing does
    for tokens, central in (([1, 0, ("c", 0, top)], (top, 0, 0, 0)), ([2, 1, 2, ("c", 1, top)], (0, top, 0, 0))):
        with pytest.raises(OverflowError, match=out_of_range):
            module_action_oracle(tokens)
        with pytest.raises(bt.CentralOverflowError, match=out_of_range):
            reduce_word(tokens[:-1], central)
    # one short of it, the two agree
    assert oracle_as_box(module_action_oracle([1, 0, ("c", 0, top - 1)])) == reduce_word((1, 0), (top - 1, 0, 0, 0))
    assert oracle_as_box(module_action_oracle([("c", 0, top), ("c", 0, -1), ("c", 0, 1)])) == central_gen(0, top)
    assert oracle_as_box(module_action_oracle([("c", 3, -top), 1])) == generator(1) * central_gen(3, -top)


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
        # a scalar on the left is grouped like any left factor: x0 crosses
        # its entries one at a time, and the third passes the budget
        with pytest.raises(bt.TermBudgetError, match=r"^term budget: multiply reached 3 terms \(limit 2\)$"):
            scalar * pair
        with pytest.raises(bt.TermBudgetError, match=r"^term budget: multiply reached 3 terms \(limit 2\)$"):
            scalar * 1
        with pytest.raises(bt.TermBudgetError, match=r"^term budget: multiply reached 4 terms \(limit 2\)$"):
            pair * (1 + R.gen("a"))
        # a one-term factor keeps the other's size, which is still checked
        with pytest.raises(bt.TermBudgetError, match=r"^term budget: multiply reached 3 terms \(limit 2\)$"):
            scalar * (bt.one() * Q)
        with pytest.raises(bt.TermBudgetError, match=r"^term budget: multiply reached 3 terms \(limit 2\)$"):
            bt._times_atom(scalar.state, (b"", b"\x01", ZERO_CENTRAL, (0, 0), 0, 1))
        bt.LIMITS.term_budget = 6
        assert pair * scalar == scalar * pair
    finally:
        bt.LIMITS.term_budget = saved


def _scaled(state, scalar):
    """The kernel's former scalar path, kept as the reference for products
    with a scalar: the state map times the state map of a scalar, whose
    every key has empty words and no central part; the budget is checked,
    as a product, after each entry of the scalar."""
    out = {}
    for (_, _, _, ab2), qd2 in scalar.items():
        shifted = any(ab2)
        for (even, odd, cent, ab), qd in state.items():
            key = (even, odd, cent, tuple(map(add, ab, ab2)) if shifted else ab)
            for k, v in qd2.items():
                bt._add_into(out, key, qd, k, v)
        bt._check_term_budget("multiply", len(out))
    return out


# scalars of one to three entries, with a/b shifts, in the three forms a
# product takes them in: an int, a LaurentPoly or a BoxElem
_SCALARS = st.one_of(
    st.integers(-3, 3),
    st.dictionaries(
        st.tuples(st.integers(-2, 2), st.integers(-1, 1), st.integers(-1, 1)),
        st.integers(-3, 3).filter(bool),
        min_size=1,
        max_size=6,
    )
    .map(lambda terms: LaurentPoly(R, terms))
    .filter(lambda c: 1 <= len(bt._scalar_state(c)) <= 3)
    .flatmap(lambda c: st.sampled_from((c, BoxElem(R, {bt.IDENTITY_MONO: c})))),
)


def _scalar_of(s):
    return s.state if isinstance(s, BoxElem) else bt._scalar_state(R.coerce(s))


@given(_ELEMENTS, _SCALARS)
@settings(max_examples=200, deadline=None)
def test_scalar_products_match_the_former_scalar_path(e, s):
    expected = _scaled(e.state, _scalar_of(s))
    assert (e * s).state == expected
    assert (s * e).state == expected
    assert multiply(BoxElem._of(_scalar_of(s)), e).state == expected


@given(_ELEMENTS, _SCALARS, st.integers(2, 8))
@settings(max_examples=200, deadline=None)
def test_scalars_on_the_right_check_the_budget_as_the_former_scalar_path(e, s, term_budget):
    with _limits(64, term_budget):
        expected = _outcome(lambda: _scaled(e.state, _scalar_of(s)))
        assert _outcome(lambda: (e * s).state) == expected


def test_the_kernel_has_no_scalar_path():
    assert not hasattr(bt, "_scaled") and not hasattr(bt, "_is_scalar")


def test_power_makes_popcount_plus_bitlength_minus_two_products(monkeypatch):
    products = []
    counted = bt.multiply

    def recording(lhs, rhs):
        products.append((lhs, rhs))
        return counted(lhs, rhs)

    monkeypatch.setattr(bt, "multiply", recording)
    base = central_gen(1) * generator(1)
    for n in range(1, 40):
        products.clear()
        result = base ** n
        assert len(products) == bin(n).count("1") + n.bit_length() - 2, n
        assert all(bt.one() not in pair for pair in products), n
        assert result.state == {(b"", b"\x01" * n, (0, n, 0, 0), (0, 0)): {0: 1}}
    assert base ** 1 is base
    products.clear()
    assert base ** 0 == bt.one() and products == []
    # the coefficient ring's powers run the same loop
    assert power(Q, 5, ONE) == Q * Q * Q * Q * Q and power(Q, 0, ONE) == ONE


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


# the prepend fold the kernel ran for `strategy="rightmost"` before that
# became the mirror of an append fold: each letter joins from the left, an
# even one by concatenation and an odd one crossing the even word from
# left to right, with its correction drops added per state and the term
# budget checked after each state
_PREPEND_TABLE = {v: {u: (PAIRING[u, v], CORRECTION[u, v]) for u in (0, 2)} for v in (1, 3)}


def _reference_prepend_fold(state, letters, op):
    for letter in reversed(letters):
        unit = bytes((letter,))
        if not letter & 1:
            state = {(unit + e, o, c, ab): qd for (e, o, c, ab), qd in state.items()}
            continue
        table = _PREPEND_TABLE[letter]
        out = {}
        for (even, odd, cent, ab), qd in state.items():
            total, drops, previous = 0, [], None
            for i, crossed in enumerate(even):
                e, index = table[crossed]
                if crossed == previous:
                    drops[-1][3] += e
                else:
                    drops.append([even[:i] + even[i + 1 :], index, total, total + e])
                total += e
                previous = crossed
            _reference_add_into(out, (even, unit + odd, cent, ab), qd, total, 1)
            for word, index, lo, hi in drops:
                if cent[index] + 1 >= 2 ** 63:
                    raise bt.CentralOverflowError("central exponent outside the checked 64-bit range")
                bumped = cent[:index] + (cent[index] + 1,) + cent[index + 1 :]
                _reference_add_drop(out, (word, odd, bumped, ab), qd, lo, hi)
            bt._check_term_budget(op, len(out))
        state = out
    return state


def _items_or_error(compute):
    """The (key, q-dict) pairs of the state map `compute()` returns, in
    order, or the type and text of the error it raises."""
    try:
        return list(compute().items())
    except (bt.TermBudgetError, bt.CentralOverflowError) as exc:
        return type(exc), str(exc)


def test_mirror_maps_generators_and_centrals_by_sigma():
    for i in range(4):
        assert bt._mirror(generator(i).state) == generator(1 - i).state
        assert bt._mirror(central_gen(i).state) == central_gen((-i) % 4).state
    assert bt._mirror(central_gen(1, 5).state) == central_gen(3, 5).state
    assert bt._mirror(central_gen(0).state) == central_gen(0).state


@given(_STATES)
@settings(max_examples=200, deadline=None)
def test_mirror_is_an_involution(state):
    mirrored = bt._mirror(state)
    assert bt._mirror(mirrored) == state
    assert len(mirrored) == len(state)


@given(_ELEMENTS, _ELEMENTS)
@settings(max_examples=150, deadline=None)
def test_mirror_is_an_antiautomorphism(x, y):
    mx, my = BoxElem._of(bt._mirror(x.state)), BoxElem._of(bt._mirror(y.state))
    assert bt._mirror(multiply(x, y).state) == multiply(my, mx).state
    assert bt._mirror((x + y).state) == (mx + my).state


@given(
    st.lists(st.integers(0, 3), max_size=9).map(tuple),
    st.tuples(*[st.sampled_from((-1, 0, 1, 2 ** 63 - 2, 2 ** 63 - 1))] * 4),
    st.one_of(st.none(), _COEFFICIENTS),
    st.one_of(st.just(1_000_000), st.integers(1, 14)),
)
@example((1, 1, 3, 0, 2, 0, 2, 0), ZERO_CENTRAL, None, 5)
@example((3, 2), (0, 0, 2 ** 63 - 1, 0), None, 1_000_000)
@example((1, 2), (0, 2 ** 63 - 1, 0, 0), None, 1_000_000)
@settings(max_examples=300, deadline=None)
def test_rightmost_is_the_prepend_fold(word, central, coeff, term_budget):
    # the same terms in the same order, the same budget error and the same
    # central overflow as the prepend fold
    start = {}
    if coeff is None:
        start[b"", b"", central, (0, 0)] = {0: 1}
    else:
        bt._enter(start, b"", b"", central, coeff)
    with _limits(64, term_budget):
        expected = _items_or_error(lambda: _reference_prepend_fold(start, bytes(word), "reduce_word"))
        got = _items_or_error(lambda: reduce_word(word, central, coeff, strategy="rightmost").state)
    assert got == expected


def test_central_gen_takes_an_int_power_only():
    assert central_gen(1, 2) == central_gen(1) * central_gen(1)
    with pytest.raises(ValueError, match="integer exponents"):
        central_gen(1, 2.7)
    with pytest.raises(ValueError):
        central_gen(0, "2")
    with pytest.raises(bt.CentralOverflowError):
        central_gen(2, 2 ** 63)


def test_reduce_word_coerces_its_coefficient():
    assert reduce_word((1, 0), coeff=3) == 3 * reduce_word((1, 0))
    assert reduce_word((1, 0), coeff=-1) == -reduce_word((1, 0))
    assert reduce_word((2, 1), (0, 1, 0, 0), coeff=Q, strategy="rightmost") == Q * reduce_word((2, 1), (0, 1, 0, 0))
    assert not reduce_word((3, 2), coeff=0)
    for bad in (2.5, "3", generator(0)):
        with pytest.raises(TypeError):
            reduce_word((1, 0), coeff=bad)
    # the q-Serre combination of degree 4, with integer coefficients +-1
    three = R.qint(3)
    for i in range(4):
        j = (i + 2) % 4
        assert s_element(i) == (
            reduce_word((i, i, i, j)) - three * reduce_word((i, i, j, i))
            + three * reduce_word((i, j, i, i)) - reduce_word((j, i, i, i))
        )


def test_a_power_needs_an_integer_exponent():
    for e in (generator(0), bt.zero(), bt.one(), central_gen(1)):
        for n in (1.5, 2.0, "2"):
            with pytest.raises(TypeError, match="^exponent must be an integer$"):
                e ** n
    assert generator(0) ** 2 == reduce_word((0, 0))
