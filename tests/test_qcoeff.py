
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ast
import importlib
import inspect
import pkgutil

import qdg
from qdg import freealg, identities
from qdg.expr import ParseError, eval_text, parse
from qdg.qcoeff import DEFAULT_RING, LaurentPoly, LaurentRing, NotInvertibleError, qint

R = DEFAULT_RING
Q = R.gen("q")


def polys(max_terms=4):
    return st.dictionaries(
        keys=st.tuples(
            st.integers(-4, 4), st.integers(-2, 2), st.integers(-2, 2)
        ),
        values=st.integers(-9, 9),
        max_size=max_terms,
    ).map(lambda terms: LaurentPoly(R, terms))


def test_qint_examples():
    assert qint(3) == Q ** 2 + 1 + Q ** -2
    assert qint(0) == R.zero()
    assert qint(-2) == -(Q + Q ** -1)
    assert qint(1) == R.one()


def test_arithmetic_examples():
    assert (Q - Q ** -1) * (Q + Q ** -1) == Q ** 2 - Q ** -2
    p = 3 * Q ** 2 - 5
    assert p + (-p) == R.zero()
    # expand both products by hand: q^2 - 1 - (q^2 - 1) = 0
    assert (Q ** 2 - 1) - Q * (Q - Q ** -1) == R.zero()


def test_power_and_inversion():
    assert (Q ** 2) ** -3 == Q ** -6
    assert (-Q) ** -1 == -(Q ** -1)
    with pytest.raises(NotInvertibleError):
        (Q + 1) ** -1
    with pytest.raises(NotInvertibleError):
        (2 * Q) ** -1  # 2 is not a unit over the integers


def _functions_taking(parameter: str) -> set:
    """The qualified names of the package's functions and methods that have
    a parameter of this name."""
    found = set()
    for info in pkgutil.iter_modules(qdg.__path__):
        module = importlib.import_module("qdg." + info.name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            for f in [obj] + (list(vars(obj).values()) if inspect.isclass(obj) else []):
                f = getattr(f, "__func__", f)  # a classmethod's function
                if inspect.isfunction(f) and parameter in inspect.signature(f).parameters:
                    found.add(f.__qualname__)
    return found


def test_the_coefficient_ring_is_fixed():
    """No function or method of the package takes a ring, apart from the
    two element constructors that keep an ignored first argument."""
    assert _functions_taking("ring") == {"LaurentPoly.__init__", "BoxElem.__init__"}
    assert DEFAULT_RING.symbols == ("q", "a", "b")
    with pytest.raises(TypeError):
        LaurentRing(("q",))


def test_the_expression_language_is_fixed():
    """Only `parse` and `eval_text` take a mode, which must be "box"; the
    free algebra's letters are unknown names, and it has no element class
    whose words could multiply."""
    assert _functions_taking("mode") == {"parse", "eval_text"}
    for read in (parse, eval_text):
        with pytest.raises(ValueError, match="mode must be 'box'"):
            read("x0", mode="free")
    with pytest.raises(ParseError, match="unknown name 'x'") as err:
        parse("x*y")
    assert err.value.position == 0
    assert not hasattr(freealg, "FreeElem") and not hasattr(freealg, "word_elem")
    # formal relations are plain dicts too, built without the free algebra
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(identities))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
            imported.add(getattr(node, "module", None) or "")
    assert not any(name.rsplit(".", 1)[-1] == "freealg" for name in imported)


def test_rendering():
    assert str(qint(3)) == "q^2 + 1 + q^-2"
    assert str(R.one() - Q ** 2) == "1 - q^2"
    assert str(R.one() - Q ** -2) == "1 - q^-2"
    assert str(R.zero()) == "0"
    assert str(-qint(3)) == "-q^2 - 1 - q^-2"
    assert str(2 * Q ** 2 * R.gen("a", -1)) == "2*q^2*a^-1"
    # positive terms first, each sign by descending exponent vector
    a, b = R.gen("a"), R.gen("b")
    assert str(Q - 2 + 3 * Q ** -1 * a - Q ** 2 * b ** -1) == "q + 3*q^-1*a - q^2*b^-1 - 2"


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p1, p2, p3):
    assert (p1 + p2) + p3 == p1 + (p2 + p3)
    assert p1 + p2 == p2 + p1
    assert (p1 * p2) * p3 == p1 * (p2 * p3)
    assert p1 * p2 == p2 * p1
    assert p1 * (p2 + p3) == p1 * p2 + p1 * p3


@given(st.integers(-20, 20), st.integers(-20, 20))
@settings(max_examples=60, deadline=None)
def test_qint_addition_identity(m, n):
    # [m+n] = q^n [m] + q^-m [n]
    assert qint(m + n) == R.qpow(n) * qint(m) + R.qpow(-m) * qint(n)



def _product_by_pairs(p1, p2):
    """p1 * p2 as the sum over all pairs of terms."""
    out = R.zero()
    for e1, c1 in p1.terms.items():
        for e2, c2 in p2.terms.items():
            out = out + R.monomial(c1 * c2, tuple(x + y for x, y in zip(e1, e2)))
    return out


@given(
    st.integers(-9, 9).filter(bool),
    st.tuples(st.integers(-4, 4), st.integers(-2, 2), st.integers(-2, 2)),
    polys(),
)
@settings(max_examples=80, deadline=None)
def test_a_monomial_factor_multiplies_as_the_general_product(c, exps, p):
    m = R.monomial(c, exps)
    expected = _product_by_pairs(m, p)
    for product in (m * p, p * m):
        assert product == expected
        assert all(product.terms.values())


def test_monomial_products_with_negative_and_cancelling_coefficients():
    # coefficients that sum to zero, so the product vanishes at q = a = b = 1
    zero_sum = 1 - R.qpow(2) + 2 * R.gen("a") - 2 * R.gen("b", -1)
    for m in (-R.qpow(-3), R.monomial(-7, (1, -1, 2)), R.one(), R.monomial(5)):
        for p in (zero_sum, -zero_sum, R.zero(), R.monomial(-1, (2, 0, 0)), m):
            assert m * p == p * m == _product_by_pairs(m, p)
    assert (-R.qpow(2)) * zero_sum == R.qpow(4) - R.qpow(2) - 2 * R.monomial(1, (2, 1, 0)) + 2 * R.monomial(1, (2, 0, -1))
    assert not (R.monomial(-3, (1, 1, 1)) * R.zero())

def test_no_zero_coefficients_stored():
    p = Q - Q
    assert not p.terms
    assert (Q + (-1) * Q).terms == {}


def test_constructors_refuse_a_coefficient_or_an_exponent_that_is_not_an_int():
    for make in (
        lambda: R.monomial(2.5),
        lambda: R.from_int(0.5),
        lambda: R.gen("q", 1.5),
        lambda: R.monomial(1, (0.9, 0, 0)),
        lambda: R.monomial("2"),
        lambda: R.qpow(1.0),
    ):
        with pytest.raises(TypeError, match="must be integers"):
            make()
    assert R.monomial(3, (1, -2, 0)).terms == {(1, -2, 0): 3}
    assert R.from_int(0) == R.zero() and R.from_int(-2) == -2
    assert R.gen("b", -1) * R.gen("b") == 1
