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
pieces, each coefficient in the order `poly_text` prints it.  A coefficient
reaches `render_sum` in the shape a `boxtilde` state map stores it, as
(a/b exponents, {q exponent: int}) pairs, and `_split_terms`, the one term
formatter, prints the terms of `render_sum` and of `poly_text` alike.
"""

from __future__ import annotations

from operator import add
from typing import Union


class NotInvertibleError(ArithmeticError):
    """Inversion was requested for something that is not a unit monomial."""


class CoefficientTooLargeError(OverflowError):
    """A coefficient or an exponent of q, a or b has too many decimal digits
    to be printed, or a power would build a coefficient with too many
    bits."""


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
    """base ** n for n >= 0 by repeated squaring, in popcount(n) +
    bitlength(n) - 2 products for n >= 1: the first set bit takes its
    factor as it is (`base ** 1` is `base`), so nothing is multiplied by
    `one`, the unit, which is returned only for n = 0.  Powers of one
    element commute, so the factor order does not matter."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return one if result is None else result


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
        return self.monomial(n)

    def monomial(self, coeff: int = 1, exps: Exponents = None) -> "LaurentPoly":
        """coeff q^k a^i b^j for exps = (k, i, j); TypeError for a
        coefficient or an exponent that is not an int."""
        exps = (0,) * self.width if exps is None else tuple(exps)
        if not isinstance(coeff, int) or not all(isinstance(e, int) for e in exps):
            raise TypeError("a coefficient and its exponents must be integers, not %r and %r" % (coeff, exps))
        if len(exps) != self.width:
            raise ValueError("exponent vector has wrong width for this ring")
        if coeff == 0:
            return self.zero()
        return LaurentPoly(self, {tuple(map(int, exps)): int(coeff)})

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


def _too_large(c: int, k: int, ab: tuple) -> CoefficientTooLargeError:
    """The error for the term c q^k a^i b^j, (i, j) = `ab`, one of whose
    numbers is past the interpreter's limit on int-to-str conversion: it
    names the widest of the four."""
    numbers = ((c, "a coefficient"), (k, "an exponent of q"), (ab[0], "an exponent of a"), (ab[1], "an exponent of b"))
    bits, what = max((abs(v).bit_length(), what) for v, what in numbers)
    return CoefficientTooLargeError("%s of %d bits is too large to print in decimal" % (what, bits))


def _split_terms(coeff) -> tuple:
    """The texts of the positive terms and of the negated negative terms of
    a coefficient, each sign by descending exponents of q, a and b; a
    coefficient of 1 is left out before a symbol.  `coeff` is a sequence of
    (a/b exponents, q-dict) pairs with distinct a/b exponents, each q-dict a
    map q exponent -> nonzero int.

    This is the one term formatter of the package.  The terms go in runs
    that share their a/b exponents, one run per pair when there is one, and
    the a/b text of a run is built once."""
    if len(coeff) == 1:
        ((ab, qd),) = coeff
        runs = [(ab, sorted(qd.items(), reverse=True))]
    else:
        runs = []
        # distinct (q, a, b) exponents, so the terms sort by them alone
        for k, ab, c in sorted([(k, ab, c) for ab, qd in coeff for k, c in qd.items()], reverse=True):
            if runs and runs[-1][0] == ab:
                runs[-1][1].append((k, c))
            else:
                runs.append((ab, [(k, c)]))
    positive, negative = [], []
    for ab, run in runs:
        i, j = ab
        try:
            a_text = ("a" if i == 1 else "a^%d" % i) if i else ""
            b_text = ("b" if j == 1 else "b^%d" % j) if j else ""
        except ValueError:
            # the interpreter's limit on int-to-str conversion, met at the
            # run's first term, the first of the coefficient that meets it
            raise _too_large(run[0][1], run[0][0], ab) from None
        ab_text = a_text + "*" + b_text if a_text and b_text else a_text or b_text
        tail = "*" + ab_text if ab_text else ""
        for k, c in run:
            try:
                text = ("q" if k == 1 else "q^%d" % k) + tail if k else ab_text
                if c > 0:
                    positive.append(("%d*%s" % (c, text) if c != 1 else text) if text else "%d" % c)
                else:
                    negative.append(("%d*%s" % (-c, text) if c != -1 else text) if text else "%d" % -c)
            except ValueError:
                raise _too_large(c, k, ab) from None
    return positive, negative


def _signed_text(positive: list, negative: list) -> str:
    """The sum of the `positive` terms minus the `negative` ones; "0" for
    none."""
    if not positive:
        return "-" + " - ".join(negative) if negative else "0"
    text = " + ".join(positive)
    return text + " - " + " - ".join(negative) if negative else text


def coefficient_pairs(terms: dict) -> list:
    """The polynomial with map exponents (q, a, b) -> coefficient `terms`
    as the (a/b exponents, q-dict) pairs of a `render_sum` coefficient."""
    pairs: dict = {}
    for (k, i, j), c in terms.items():
        pairs.setdefault((i, j), {})[k] = c
    return list(pairs.items())


def poly_text(terms: dict) -> str:
    """The text of the polynomial with map exponents -> coefficient
    `terms`: positive terms first, each sign by descending exponents."""
    return _signed_text(*_split_terms(coefficient_pairs(terms)))


def render_sum(pieces, sep: str) -> str:
    """The text of a sum of (coefficient, body) pieces, in the order given.
    A coefficient is a sequence of (a/b exponents, q-dict) pairs with
    distinct a/b exponents, as the keys of one monomial of a `boxtilde`
    state map hold it (`coefficient_pairs` turns a polynomial into one),
    and its terms print as `poly_text` prints them.  A coefficient of 1 is
    left out before a body, one whose terms are all negative is negated
    after a minus sign, and one of several terms goes in parentheses; `sep`
    joins a coefficient to its body, and an empty body leaves the
    coefficient alone."""
    out = []
    for coeff, body in pieces:
        positive, negative = _split_terms(coeff)
        if positive:
            out.append(" + ")
            text = _signed_text(positive, negative)
        else:
            out.append(" - ")
            text = " + ".join(negative) or "0"
        if len(positive) + len(negative) > 1:
            text = "(" + text + ")"
        if body:
            text = body if text == "1" else text + sep + body
        out.append(text)
    if not out:
        return "0"
    return "".join(out[1:]) if out[0] == " + " else "-" + "".join(out[1:])


def qint(n: int) -> LaurentPoly:
    return DEFAULT_RING.qint(n)
