import contextlib
import io
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdg import boxtilde as bt
from qdg import cli
from qdg.boxtilde import BoxElem, NormalMono, central_gen, generator, reduce_word, s_element
from qdg.expr import Gen, Lit, Mono, ParseError, QIntNode, Sym, eval_text, evaluate, parse, render
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


def test_syntax_nodes_equal_only_nodes_of_their_class():
    assert parse("1") == Lit(1) and parse("qint(1)") == QIntNode(1)
    assert Lit(1) != QIntNode(1) and Lit(1) != 1
    assert parse("q") == Sym("q") and parse("x0") == Gen("x0") and Sym("q") != Gen("q")
    for node in (Lit(1), Sym("q"), parse("x0 + 1"), Mono((), (), (0, 0, 0, 0))):
        with pytest.raises(TypeError, match="unhashable"):
            hash(node)


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
    node = parse("[x0.x2 | x1 | c0^2]")
    assert node == Mono((0, 2), (1,), (2, 0, 0, 0))
    for other in (Mono((0,), (1,), (2, 0, 0, 0)), Mono((0, 2), (), (2, 0, 0, 0)), Mono((0, 2), (1,), (1, 0, 0, 0))):
        assert node != other
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
    assert render(eval_text("(-q)^-1")) == "-q^-1 * [- | - | -]"


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


# -- products of atoms -------------------------------------------------------


def _nf(text: str) -> tuple:
    """Exit code, standard output and standard error of `qdg nf -- text`,
    run with the engine limits in force passed through the environment,
    which is where the command reads them."""
    out, err = io.StringIO(), io.StringIO()
    limits = {"QDG_WORD_CAP": str(bt.LIMITS.word_cap), "QDG_TERM_BUDGET": str(bt.LIMITS.term_budget)}
    with mock.patch.dict(os.environ, limits), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["nf", "--", text])
    return code, out.getvalue(), err.getvalue()


def _nf_by_factors(factors: list) -> tuple:
    """What `qdg nf` prints for the product of `factors`, from each factor
    evaluated alone and the values multiplied left to right by
    `BoxElem.__mul__`."""
    try:
        product = eval_text(factors[0])
        for factor in factors[1:]:
            product = product * eval_text(factor)
        return 0, render(product) + "\n", ""
    except NotInvertibleError as exc:
        return 2, "", "error: %s\n" % exc
    except (bt.ReductionBudgetError, bt.TermBudgetError) as exc:
        return 3, "", "budget exceeded: %s\n" % exc
    except (bt.CentralOverflowError, CoefficientTooLargeError) as exc:
        return 3, "", "overflow: %s\n" % exc


ATOMS = ["x0", "x1", "x2", "x3", "q", "a", "b", "c0", "c1", "c2", "c3", "0", "1", "2", "q^-2", "a^3", "b^0",
         "c1^-1", "c3^2", "c0^4611686018427387904", "q^99999999999999"]
# factors that are not atoms, among them a bracket past the low word cap
# and sums past the low term budget, with and without words
OTHER_FACTORS = ["[x0.x2 | x1.x3 | -]", "qint(2)", "x1^2", "(-q)^-1", "(1 + a + b)", "(1 + a + b)^2",
                 "(x0 + x1 + x2)", "(x1 + x3 + x1*x3 + c0)", "(x0 - x1)^3"]
LOW_LIMITS = [(5, 6), (3, 2)]

atoms = st.one_of(
    st.sampled_from(ATOMS),
    st.builds(
        "%s^%d".__mod__,
        st.tuples(st.sampled_from(["q", "a", "b", "c0", "c1", "c2", "c3", "x0", "x1", "2"]), st.integers(-2, 3)),
    ),
)
small_sums = st.builds(
    lambda terms, signs, power: "(%s)%s" % (
        "".join(sign + "*".join(term) for sign, term in zip(signs, terms))[1:], power
    ),
    st.lists(st.lists(atoms, min_size=1, max_size=3), min_size=1, max_size=3),
    st.lists(st.sampled_from(["+", "-"]), min_size=3, max_size=3),
    st.sampled_from(["", "", "^0", "^2", "^3"]),
)


@contextlib.contextmanager
def _limits(limits):
    saved = (bt.LIMITS.word_cap, bt.LIMITS.term_budget)
    bt.LIMITS.word_cap, bt.LIMITS.term_budget = limits
    try:
        yield
    finally:
        bt.LIMITS.word_cap, bt.LIMITS.term_budget = saved


def _check_product(factors):
    assert _nf("*".join(factors)) == _nf_by_factors(factors), factors


@given(
    st.lists(st.one_of(atoms, atoms, small_sums, st.sampled_from(OTHER_FACTORS)), min_size=1, max_size=8),
    st.sampled_from([(64, 1_000_000)] + LOW_LIMITS),
)
@settings(max_examples=400, deadline=None)
def test_products_match_factor_by_factor_multiplication(factors, limits):
    with _limits(limits):
        _check_product(factors)


def test_every_atom_after_every_other_factor_at_low_limits():
    for limits in LOW_LIMITS:
        with _limits(limits):
            for first in OTHER_FACTORS:
                for atom in ATOMS:
                    _check_product([first, atom])



# `qdg nf` on products of sums at low term budgets, as recorded before
# `multiply` entered one-monomial groups in one pass; in some the right
# factor's group with an empty even word comes first, in others last
_PINNED_PRODUCTS = [
    "(x1+x0)*(x2+x1)", "(x0+x1)*(x1+x2)", "(x1+x0)*(x0+x3)", "(x0+x1)*(x3+x0)",
    "(x1*x3+x0)*(x2+x1+x0)", "(x0+x1+x3)*(x1+x2*x0)", "(a*x0+x1)*(b*x2+b^-1*x3)",
    "(x0*x1+x1)^2*(x0+x1)", "(x1+x0+x1*x3)*(x3+x0*x2)", "(x0*x3*x1+x2)*(x1+x2*x0)",
    "(x1*x3*x1+x0*x2)*(x3*x1+x2*x0*x2)", "(x3*x1+x2)*(x1*x3*x1+x0*x0)",
]
_PINNED_REACHED = {
    4: [5, 5, 5, 5, 6, 5, 5, 5, 6, 5, 5, 5],
    9: [None, None, None, None, 10, 10, None, 13, 11, 10, 10, None],
}


@pytest.mark.parametrize("budget", sorted(_PINNED_REACHED))
def test_multi_group_budget_messages_are_pinned(budget):
    with _limits((64, budget)):
        for text, reached in zip(_PINNED_PRODUCTS, _PINNED_REACHED[budget]):
            code, out, err = _nf(text)
            if reached is None:
                assert (code, err) == (0, ""), text
                assert out == _nf_by_factors(text[1:-1].split(")*("))[1]
            else:
                message = "budget exceeded: term budget: multiply reached %d terms (limit %d)\n" % (reached, budget)
                assert (code, out, err) == (3, "", message), text

def test_product_edge_inputs():
    # the power is evaluated, and trips the cap, before the zero factor is applied
    assert _nf("0*x0^99999") == (3, "", "budget exceeded: reduction budget: multiply reached 128 letters (cap 64)\n")
    assert _nf("x0*x0*x0*x0*x0*x0*0") == (0, "0\n", "")
    # the second factor overflows, so the third may not bring it back
    overflow = (3, "", "overflow: central exponent outside the checked 64-bit range\n")
    assert _nf("c0^4611686018427387904*c0^4611686018427387904") == overflow
    assert _nf("c0^4611686018427387904*c0^4611686018427387904*c0^-4611686018427387904") == overflow
    assert _nf("q^99999999999999") == (0, "q^99999999999999 * [- | - | -]\n", "")


def test_bracket_monomials_check_the_word_cap():
    refused = (3, "", "budget exceeded: reduction budget: monomial reached 4 letters (cap 3)\n")
    with _limits((3, 1_000_000)):
        assert _nf("[x0.x0.x0.x0 | - | -]") == refused
        assert _nf("[x0.x0.x0.x0 | - | -]*1") == refused
        assert _nf("[x0.x2 | x1 | -]") == (0, "[x0.x2 | x1 | -]\n", "")
        assert _nf("x0*x0*x0*x0") == (3, "", "budget exceeded: reduction budget: multiply reached 4 letters (cap 3)\n")


def test_a_chain_carries_the_length_its_factors_leave():
    # after a sum whose longest words cancel, the chain goes on from x1
    with _limits((2, 1_000_000)):
        assert _nf("(x0*x2 - x0*x2 + x1)*x0*x0") == (
            3, "", "budget exceeded: reduction budget: multiply reached 3 letters (cap 2)\n"
        )
    # after a `multiply`, from the product's longest words
    with _limits((3, 1_000_000)):
        for text in ("(x0 + x1)*(x2 + x3)*x0*x1", "x0*x1*(x2 + x3)*x0"):
            assert _nf(text) == (3, "", "budget exceeded: reduction budget: multiply reached 4 letters (cap 3)\n")
        assert _nf("(x0 + x1)*(x2 - x2 + 1)*x0*x1") == (
            0, "[x0.x0 | x1 | -] + q^2 * [x0 | x1.x1 | -] + (1 - q^2) * [- | x1 | c0]\n", ""
        )


_LETTERS = st.sampled_from(["x0", "x1", "x2", "x3"])
_WORDS = st.lists(_LETTERS, min_size=1, max_size=3).map("*".join)
# sums of words, and sums whose longest words cancel, so the words left
# are shorter than the ones the sum was built from
_WORD_SUMS = st.builds("(%s + %s)".__mod__, st.tuples(_WORDS, _WORDS))
_CANCELLING = st.builds(
    lambda w, v: "(%s - %s + %s)" % (w, w, v),
    _WORDS.filter(lambda w: "*" in w),
    st.one_of(_WORDS, st.sampled_from(["q", "c0", "2"])),
)


@given(
    st.lists(st.one_of(_CANCELLING, _WORD_SUMS, small_sums, st.sampled_from(OTHER_FACTORS)), min_size=1, max_size=2),
    st.lists(st.one_of(_LETTERS, _LETTERS, atoms, _CANCELLING, _WORD_SUMS), min_size=1, max_size=6),
    st.integers(1, 6),
)
@settings(max_examples=300, deadline=None)
def test_chains_after_products_and_cancelling_sums_stop_where_multiply_stops(head, tail, word_cap):
    # each atom of the chain checks the word cap from the length the chain
    # carries; multiplying factor by factor reads it from each product
    with _limits((word_cap, 1_000_000)):
        _check_product(head + tail)


def test_products_of_atoms_make_no_multiply(monkeypatch):
    calls = []
    multiply = bt.multiply

    def counting(lhs, rhs):
        calls.append(1)
        return multiply(lhs, rhs)

    # the reference multiplies by scalars, so it is built first
    expected = 3 * Q ** -1 * R.gen("a", 2) * reduce_word((0, 1, 2), (0, 0, 0, -1))
    monkeypatch.setattr(bt, "multiply", counting)
    assert eval_text("3*q^-1*a^2*x0*x1*x2*c3^-1") == expected
    assert calls == []
    eval_text("(x0+x1)*(x2+x3)")
    assert calls == [1]
