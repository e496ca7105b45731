"""Exact arithmetic in Z[q^{+-1}, a^{+-1}, b^{+-1}], the one coefficient ring
of the package: q is the quantum parameter and a, b are the invertible
scalars of the injection A -> a x0 + a^-1 x1, B -> b x2 + b^-1 x3.

Elements are sparse: a finite map from exponent vectors (the exponents of
q, a and b) to nonzero arbitrary-precision integer coefficients.  All
operations are exact; there are no floats and no rational coefficients
anywhere in the ring itself.

The three jobs every sparse sum of the package shares live here, once:
`put` accumulates into a map and drops what cancels, `power` raises by
repeated squaring, and `render_sum` prints a sum of coefficient-times-body
pieces, each coefficient in the order `poly_text` prints it.
"""

from __future__ import annotations

from operator import add
from typing import Union


class NotInvertibleError(ArithmeticError):
    """Inversion was requested for something that is not a unit monomial."""


class CoefficientTooLargeError(OverflowError):
    """A coefficient has too many decimal digits to be printed, or a power
    would build one with too many bits."""


Exponents = tuple
IntLike = Union[int, "LaurentPoly"]


def put(acc: dict, key, value) -> None:
    """acc[key] += value, dropping the key when the sum vanishes."""
    old = acc.get(key)
    if old is not None:
        value = old + value
    if value:
        acc[key] = value
    elif old is not None:
        del acc[key]


def power(base, n: int, one):
    """base ** n for n >= 0 by repeated squaring, with `one` the unit;
    powers of one element commute, so the factor order does not matter."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


_SYMBOLS = ("q", "a", "b")
_INDEX = {s: i for i, s in enumerate(_SYMBOLS)}


class LaurentRing:
    """The constructors of Z[q^{+-1}, a^{+-1}, b^{+-1}].

    Exponent vectors have one entry per symbol, which keeps term keys
    compact and directly comparable.
    """

    __slots__ = ()

    symbols = _SYMBOLS
    width = len(_SYMBOLS)

    def __repr__(self) -> str:
        return "LaurentRing(%s)" % ", ".join(self.symbols)

    def zero(self) -> "LaurentPoly":
        return LaurentPoly(self, {})

    def one(self) -> "LaurentPoly":
        return self.from_int(1)

    def from_int(self, n: int) -> "LaurentPoly":
        if n == 0:
            return LaurentPoly(self, {})
        return LaurentPoly(self, {(0,) * self.width: int(n)})

    def monomial(self, coeff: int = 1, exps: Exponents = None) -> "LaurentPoly":
        if exps is None:
            exps = (0,) * self.width
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.width:
            raise ValueError("exponent vector has wrong width for this ring")
        if coeff == 0:
            return self.zero()
        return LaurentPoly(self, {exps: int(coeff)})

    def gen(self, name: str, power: int = 1) -> "LaurentPoly":
        i = _INDEX.get(name)
        if i is None:
            raise KeyError("unknown ring symbol %r" % name)
        exps = [0] * self.width
        exps[i] = power
        return self.monomial(1, tuple(exps))

    def qpow(self, k: int) -> "LaurentPoly":
        return self.gen("q", k)

    def qint(self, n: int) -> "LaurentPoly":
        """The q-integer [n]_q = (q^n - q^-n)/(q - q^-1).

        Expands to q^{n-1} + q^{n-3} + ... + q^{1-n} for n > 0, vanishes at
        n = 0, and satisfies [-n]_q = -[n]_q.
        """
        if n == 0:
            return self.zero()
        sign = 1
        if n < 0:
            sign, n = -1, -n
        return LaurentPoly(self, {(k, 0, 0): sign for k in range(n - 1, -n - 1, -2)})

    def coerce(self, value: IntLike) -> "LaurentPoly":
        if isinstance(value, LaurentPoly):
            return value
        if isinstance(value, int):
            return self.from_int(value)
        raise TypeError("cannot coerce %r into %r" % (value, self))


# The shared working ring for the rest of the package.
DEFAULT_RING = LaurentRing()


class LaurentPoly:
    """A sparse Laurent polynomial; immutable once constructed."""

    __slots__ = ("terms",)

    ring = DEFAULT_RING

    def __init__(self, ring: LaurentRing, terms: dict):
        """The polynomial with map exponents -> coefficient `terms`, zeros
        dropped.  `ring` is ignored: it stays only because perfbench passes it."""
        self.terms = {e: c for e, c in terms.items() if c}

    # -- predicates ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_unit(self) -> bool:
        """True when invertible in the ring: a single term with coefficient +-1."""
        if len(self.terms) != 1:
            return False
        (coeff,) = self.terms.values()
        return coeff in (1, -1)

    # -- ring operations -----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self == self.ring.from_int(other)
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    __hash__ = None

    def __add__(self, other: IntLike) -> "LaurentPoly":
        if not isinstance(other, (int, LaurentPoly)):
            return NotImplemented
        other = self.ring.coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            put(terms, e, c)
        return LaurentPoly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: IntLike) -> "LaurentPoly":
        if not isinstance(other, (int, LaurentPoly)):
            return NotImplemented
        return self + (-self.ring.coerce(other))

    def __rsub__(self, other: IntLike) -> "LaurentPoly":
        return self.ring.coerce(other) - self

    def __mul__(self, other: IntLike) -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return self.ring.zero()
            return LaurentPoly(self.ring, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        other = self.ring.coerce(other)
        # iterate the smaller factor outside; products here are tiny-by-large
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                put(out, tuple(map(add, ea, eb)), ca * cb)
        return LaurentPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            if not self.is_unit():
                raise NotInvertibleError("not invertible")
            ((exps, coeff),) = self.terms.items()
            c = 1 if coeff == 1 or n % 2 == 0 else -1
            return self.ring.monomial(c, tuple(e * n for e in exps))
        return power(self, n, self.ring.one())

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return poly_text(self.terms)

    def __repr__(self) -> str:
        return "<LaurentPoly %s>" % self


def _monomial_text(coeff_abs: int, exps: Exponents) -> str:
    """coeff_abs q^k a^i b^j, with a coefficient of 1 left out before a
    symbol."""
    k, i, j = exps
    factors = []
    if coeff_abs != 1 or not (k or i or j):
        try:
            factors.append(str(coeff_abs))
        except ValueError:
            # the interpreter's limit on int-to-str conversion
            raise CoefficientTooLargeError(
                "a coefficient of %d bits is too large to print in decimal"
                % coeff_abs.bit_length()
            ) from None
    if k:
        factors.append("q" if k == 1 else "q^%d" % k)
    if i:
        factors.append("a" if i == 1 else "a^%d" % i)
    if j:
        factors.append("b" if j == 1 else "b^%d" % j)
    return "*".join(factors)


def _split_terms(terms: dict) -> tuple:
    """The texts of the positive terms and of the negated negative terms
    of the polynomial with map exponents -> coefficient `terms`, each by
    descending exponents."""
    positive, negative = [], []
    # exponent vectors are distinct, so the items sort by them alone
    for e, c in sorted(terms.items(), reverse=True):
        if c > 0:
            positive.append(_monomial_text(c, e))
        else:
            negative.append(_monomial_text(-c, e))
    return positive, negative


def _signed_text(positive: list, negative: list) -> str:
    """The sum of the `positive` terms minus the `negative` ones; "0" for
    none."""
    if not positive:
        return "-" + " - ".join(negative) if negative else "0"
    text = " + ".join(positive)
    return text + " - " + " - ".join(negative) if negative else text


def poly_text(terms: dict) -> str:
    """The text of the polynomial with map exponents -> coefficient
    `terms`: positive terms first, each sign by descending exponents."""
    return _signed_text(*_split_terms(terms))


def render_sum(pieces, sep: str) -> str:
    """The text of a sum of (coefficient terms, body) pieces, in the order
    given.  A coefficient of 1 is left out before a body, one whose terms
    are all negative is negated after a minus sign, and one of several
    terms goes in parentheses; `sep` joins a coefficient to its body, and
    an empty body leaves the coefficient alone."""
    out = []
    for terms, body in pieces:
        positive, negative = _split_terms(terms)
        if positive:
            out.append(" + ")
            text = _signed_text(positive, negative)
        else:
            out.append(" - ")
            text = " + ".join(negative) or "0"
        if len(terms) > 1:
            text = "(" + text + ")"
        if body:
            text = body if text == "1" else text + sep + body
        out.append(text)
    if not out:
        return "0"
    return "".join(out[1:]) if out[0] == " + " else "-" + "".join(out[1:])


def qint(n: int) -> LaurentPoly:
    return DEFAULT_RING.qint(n)
