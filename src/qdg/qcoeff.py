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
pieces, each coefficient through `poly_text`.
"""

from __future__ import annotations

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
                put(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
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
    factors = []
    if coeff_abs != 1 or not any(exps):
        try:
            factors.append(str(coeff_abs))
        except ValueError:
            # the interpreter's limit on int-to-str conversion
            raise CoefficientTooLargeError(
                "a coefficient of %d bits is too large to print in decimal"
                % coeff_abs.bit_length()
            ) from None
    factors += [sym if e == 1 else "%s^%d" % (sym, e) for sym, e in zip(_SYMBOLS, exps) if e]
    return "*".join(factors)


def _signed_sum(pieces) -> str:
    """Joins (negative, text) pieces into a sum: the first piece carries
    only a minus sign, the others " + " or " - "; "0" for no pieces."""
    text = "".join((" - " if negative else " + ") + piece for negative, piece in pieces)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def poly_text(terms: dict) -> str:
    """The text of the polynomial with map exponents -> coefficient
    `terms`: positive terms first, each sign by descending exponents."""
    order = sorted(sorted(terms, reverse=True), key=lambda e: terms[e] < 0)
    return _signed_sum((terms[e] < 0, _monomial_text(abs(terms[e]), e)) for e in order)


def render_sum(pieces, sep: str) -> str:
    """The text of a sum of (coefficient terms, body) pieces, in the order
    given.  A coefficient of 1 is left out before a body, one whose terms
    are all negative is negated after a minus sign, and one of several
    terms goes in parentheses; `sep` joins a coefficient to its body, and
    an empty body leaves the coefficient alone."""

    def piece(terms: dict, body: str) -> tuple:
        negative = all(v < 0 for v in terms.values())
        if negative:
            terms = {e: -v for e, v in terms.items()}
        text = poly_text(terms)
        if len(terms) > 1:
            text = "(%s)" % text
        if body:
            text = body if text == "1" else text + sep + body
        return negative, text

    return _signed_sum(piece(terms, body) for terms, body in pieces)


def qint(n: int) -> LaurentPoly:
    return DEFAULT_RING.qint(n)
