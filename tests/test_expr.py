import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdg import boxtilde as bt
from qdg.boxtilde import BoxElem, NormalMono, central_gen, generator, reduce_word, s_element
from qdg.expr import ParseError, eval_text, evaluate, parse, render
from qdg.qcoeff import DEFAULT_RING, CoefficientTooLargeError, LaurentPoly, NotInvertibleError

from corpus import CORPUS

R = DEFAULT_RING
Q = R.gen("q")


def test_grammar_examples():
    node = parse("q^2*x0*x1 + (1-q^2)*c0")
    assert evaluate(node) == reduce_word((1, 0))
    assert eval_text("x1*x0") == reduce_word((1, 0))
    assert eval_text("qint(3)") == bt.one() * R.qint(3)


def test_serre_via_surface_syntax():
    text = "x0^3*x2 - qint(3)*x0^2*x2*x0 + qint(3)*x0*x2*x0^2 - x2*x0^3"
    assert eval_text(text) == s_element(0)


def test_zero_and_unary_minus():
    assert render(eval_text("0")) == "0"
    assert eval_text("-q^2") == -(Q ** 2) * bt.one()
    assert eval_text("-q^2") == eval_text("0 - q^2")


def test_whitespace_is_insignificant():
    assert eval_text(" x1 * x0 ") == eval_text("x1*x0")


def test_juxtaposition_is_not_multiplication():
    with pytest.raises(ParseError):
        parse("x0 x1")


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse("q^2 + $")
    assert err.value.position == 6
    with pytest.raises(ParseError) as err:
        parse("q^")
    assert err.value.position == 2


def test_mode_validation():
    with pytest.raises(ParseError):
        parse("x*y", mode="box")
    for mode in ("free", "tensor"):
        with pytest.raises(ValueError, match="mode must be 'box'"):
            parse("x0", mode=mode)


_GRAMMAR_TOKENS = (
    "0", "1", "12", "9" * 5000, "q", "a", "b", "x0", "x1", "x2", "x3", "c0", "c3",
    "qint", "x", "y", "z", "-", "+", "*", "^", "(", ")", "[", "]", "|", ".", " ", "",
)


@given(
    st.one_of(
        st.text(max_size=40),
        st.lists(st.sampled_from(_GRAMMAR_TOKENS), max_size=30).map("".join),
    )
)
@settings(max_examples=400, deadline=None)
def test_parse_returns_a_tree_or_raises_a_parse_error(text):
    try:
        parse(text)
    except ParseError as err:
        assert 0 <= err.position <= len(text)


def test_negative_powers():
    assert eval_text("c0^-1") == central_gen(0, -1)
    assert eval_text("q^-2") == Q ** -2 * bt.one()
    with pytest.raises(NotInvertibleError):
        eval_text("x0^-1")
    with pytest.raises(NotInvertibleError):
        eval_text("(1 + q)^-1")


def test_bracket_monomials():
    e = eval_text("[x0.x2 | x1 | c0^2]")
    ((mono, coeff),) = e.terms.items()
    assert mono.even == (0, 2) and mono.odd == (1,) and mono.central == (2, 0, 0, 0)
    assert coeff == R.one()
    with pytest.raises(ParseError):
        parse("[x1 | - | -]")  # odd letter in the even slot


def test_nf_rendering_contract():
    assert render(eval_text("x1*x0")) == "q^2 * [x0 | x1 | -] + (1 - q^2) * [- | - | c0]"
    assert render(eval_text("x0*x1")) == "[x0 | x1 | -]"
    assert render(eval_text("x3*x0")) == "q^-2 * [x0 | x3 | -] + (1 - q^-2) * [- | - | c3]"


def test_corpus_round_trip():
    assert len(CORPUS) == 50
    for text in CORPUS:
        value = eval_text(text)
        printed = render(value)
        again = eval_text(printed)
        assert again == value, "round trip failed for %r" % text
        # a second pass is stable as well
        assert render(again) == printed


def test_corpus_consistency_pairs():
    # expansion expressions equal their product forms
    assert eval_text(CORPUS[16]) == eval_text(CORPUS[17])
    assert eval_text(CORPUS[18]) == eval_text(CORPUS[19])
    assert eval_text(CORPUS[20]) == eval_text(CORPUS[21])
    assert eval_text(CORPUS[22]) == eval_text(CORPUS[23])


def test_render_rejects_foreign_values():
    with pytest.raises(TypeError):
        render(42)


def test_sums_and_differences_accumulate_in_one_pass():
    x0, x1 = generator(0), generator(1)
    assert eval_text("x0 - x1 + 2*x1 - x1 - x0") == bt.zero()
    assert eval_text("x1*x0 - q^2*x0*x1 + 3*c0") == (
        reduce_word((1, 0)) - Q ** 2 * (x0 * x1) + 3 * central_gen(0)
    )
    assert eval_text("-x0 + x1 - (x0 - x1)") == -2 * x0 + 2 * x1
    # a chain inside a product and a product inside a chain
    assert eval_text("(x0 + x1)*(x0 - x1) + x1*x1") == x0 * x0 - x0 * x1 + x1 * x0


def test_scalar_factors_scale_the_other_factor():
    e = eval_text("2*q*a^-1*x1*x0*c3")
    assert e == (2 * Q * R.gen("a", -1)) * (reduce_word((1, 0)) * central_gen(3))
    assert eval_text("x1*x0*qint(2)") == R.qint(2) * reduce_word((1, 0))


def test_powers_short_of_the_bit_bound_are_built():
    assert eval_text("2^15000") == 2 ** 15000 * bt.one()
    assert eval_text("3^600000").terms[bt.IDENTITY_MONO].terms == {(0, 0, 0): 3 ** 600000}
    with pytest.raises(CoefficientTooLargeError, match="at least 1048577 bits"):
        eval_text("2^1048576")


# coefficients with up to four terms in q, a and b, of either sign
coeffs = st.dictionaries(
    keys=st.tuples(st.integers(-4, 4), st.integers(-2, 2), st.integers(-2, 2)),
    values=st.integers(-12, 12),
    max_size=4,
).map(lambda terms: LaurentPoly(R, terms))

monos = st.builds(
    NormalMono,
    st.lists(st.sampled_from((0, 2)), max_size=3).map(tuple),
    st.lists(st.sampled_from((1, 3)), max_size=3).map(tuple),
    st.tuples(*[st.integers(-3, 3)] * 4),
)


@given(st.dictionaries(monos, coeffs, max_size=5))
@settings(max_examples=200, deadline=None)
def test_box_render_parses_back(terms):
    e = BoxElem(R, terms)
    assert eval_text(render(e)) == e
