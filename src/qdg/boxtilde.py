"""Normal-form arithmetic for the four-generator box algebra with central
q-Weyl corrections.

Generators are x0, x1, x2, x3 (indices mod 4) together with central
invertible c0..c3.  An odd letter v in {x1, x3} moves past an even letter
u in {x0, x2} by the rewrite

    v u  =  q^e u v + (1 - q^e) c,

with the exponent e in {+2, -2} and the central correction c read off the
pairing/correction tables below.  Every element has a unique expansion
over basis monomials (even word | odd word | central monomial), where the
even word runs over {x0, x2} and the odd word over {x1, x3}; the two word
factors are free, so no ordering is applied inside them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from operator import add
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .qcoeff import DEFAULT_RING, LaurentPoly, LaurentRing, NotInvertibleError

EVEN_LETTERS = (0, 2)
ODD_LETTERS = (1, 3)

# pairing exponent <u, v> and central correction index, keyed by
# (even letter u, odd letter v)
PAIRING = {(0, 1): 2, (0, 3): -2, (2, 1): -2, (2, 3): 2}
CORRECTION = {(0, 1): 0, (0, 3): 3, (2, 1): 1, (2, 3): 2}

ZERO_CENTRAL = (0, 0, 0, 0)
_CENTRAL_BOUND = 2 ** 63


class ReductionBudgetError(RuntimeError):
    """Word length exceeded the configured cap."""


class TermBudgetError(RuntimeError):
    """An intermediate element exceeded the configured term budget."""


class CentralOverflowError(OverflowError):
    """A central exponent left the checked 64-bit range."""


@dataclass
class EngineLimits:
    word_cap: int = 64
    term_budget: int = 1_000_000


LIMITS = EngineLimits()


def add_central(c1: tuple, c2: tuple) -> tuple:
    out = tuple(map(add, c1, c2))
    if max(out) >= _CENTRAL_BOUND or min(out) <= -_CENTRAL_BOUND:
        raise CentralOverflowError("central exponent outside the checked 64-bit range")
    return out


def scale_central(c: tuple, k: int) -> tuple:
    out = tuple(v * k for v in c)
    if any(abs(v) >= _CENTRAL_BOUND for v in out):
        raise CentralOverflowError("central exponent outside the checked 64-bit range")
    return out


class NormalMono(NamedTuple):
    """One basis monomial: even word, odd word, central exponent vector."""

    even: tuple
    odd: tuple
    central: tuple

    def bidegree(self) -> tuple:
        return (len(self.even), len(self.odd))

    def render(self) -> str:
        even = ".".join("x%d" % i for i in self.even) or "-"
        odd = ".".join("x%d" % i for i in self.odd) or "-"
        central = (
            ".".join(
                "c%d" % i if e == 1 else "c%d^%d" % (i, e)
                for i, e in enumerate(self.central)
                if e
            )
            or "-"
        )
        return "%s | %s | %s" % (even, odd, central)


IDENTITY_MONO = NormalMono((), (), ZERO_CENTRAL)


def _put(acc: dict, key, value) -> int:
    """acc[key] += value, dropping the key when the sum vanishes; returns
    the change in the number of keys."""
    old = acc.get(key)
    if old is None:
        if value:
            acc[key] = value
            return 1
        return 0
    if old + value:
        acc[key] = old + value
        return 0
    del acc[key]
    return -1


# deterministic term order used by rendering: longer words first, then
# even-heavy monomials
def _mono_sort_key(m: NormalMono):
    return (-(len(m.even) + len(m.odd)), -len(m.even), m.even, m.odd, m.central)


class BoxElem:
    """An element in normal form: finite map NormalMono -> LaurentPoly."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: LaurentRing, terms: dict):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BoxElem)
            and self.ring is other.ring
            and self.terms == other.terms
        )

    __hash__ = None

    def __add__(self, other: "BoxElem") -> "BoxElem":
        if other.ring is not self.ring:
            raise ValueError("mixed coefficient rings")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            _put(terms, m, c)
        return BoxElem(self.ring, terms)

    def __neg__(self) -> "BoxElem":
        return BoxElem(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "BoxElem") -> "BoxElem":
        return self + (-other)

    def __mul__(self, other) -> "BoxElem":
        if isinstance(other, (int, LaurentPoly)):
            c0 = self.ring.coerce(other)
            return BoxElem(self.ring, {m: c * c0 for m, c in self.terms.items()})
        if isinstance(other, BoxElem):
            return multiply(self, other)
        return NotImplemented

    def __rmul__(self, other) -> "BoxElem":
        if isinstance(other, (int, LaurentPoly)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "BoxElem":
        if n < 0:
            raise ValueError("negative powers are not defined for algebra elements")
        # by repeated squaring; powers of one element commute
        result = one(self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def render(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for m in sorted(self.terms, key=_mono_sort_key):
            c = self.terms[m]
            body = "[%s]" % m.render()
            multi = len(c.terms) > 1
            allneg = all(v < 0 for v in c.terms.values())
            if multi and not allneg:
                coeff_text, sign = "(%s)" % c, " + "
            else:
                cc = -c if allneg else c
                sign = " - " if allneg else " + "
                coeff_text = "(%s)" % cc if multi else str(cc)
            if coeff_text == "1":
                joined = body
            else:
                joined = coeff_text + " * " + body
            if not pieces:
                pieces.append(("-" if sign == " - " else "") + joined)
            else:
                pieces.append(sign + joined)
        return "".join(pieces)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return "<BoxElem %s>" % self


def zero(ring: LaurentRing = DEFAULT_RING) -> BoxElem:
    return BoxElem(ring, {})


def one(ring: LaurentRing = DEFAULT_RING) -> BoxElem:
    return BoxElem(ring, {IDENTITY_MONO: ring.one()})


def generator(i: int, ring: LaurentRing = DEFAULT_RING) -> BoxElem:
    i = i % 4
    if i in EVEN_LETTERS:
        mono = NormalMono((i,), (), ZERO_CENTRAL)
    else:
        mono = NormalMono((), (i,), ZERO_CENTRAL)
    return BoxElem(ring, {mono: ring.one()})


def central_gen(i: int, power: int = 1, ring: LaurentRing = DEFAULT_RING) -> BoxElem:
    exps = [0, 0, 0, 0]
    exps[i % 4] = power
    return BoxElem(ring, {NormalMono((), (), tuple(exps)): ring.one()})


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------


def _check_word_cap(op: str, length: int) -> None:
    if length > LIMITS.word_cap:
        raise ReductionBudgetError(
            "reduction budget: %s reached %d letters (cap %d)" % (op, length, LIMITS.word_cap)
        )


def _check_term_budget(op: str, size: int) -> None:
    if size > LIMITS.term_budget:
        raise TermBudgetError(
            "term budget: %s reached %d terms (limit %d)" % (op, size, LIMITS.term_budget)
        )


# Words in the rewriting kernel are bytes of letters.  Translated by
# _PARITY, odd letters read 1 and even ones 0, so a redex is b"\x01\x00";
# translated by _EVEN, even letters read 1.
_PARITY = bytes([0, 1, 0, 1]) + bytes(252)
_EVEN = bytes([1, 0, 1, 0]) + bytes(252)
_REDEX = b"\x01\x00"
# redex v u -> (pairing exponent, the swapped pair u v, unit vector of the
# central correction)
_RULES = {
    bytes((v, u)): (
        PAIRING[(u, v)],
        bytes((u, v)),
        tuple(int(i == CORRECTION[(u, v)]) for i in range(4)),
    )
    for (u, v) in PAIRING
}


def _potential(word: bytes) -> int:
    """The sum of the positions of the even letters.  A swap lowers it by
    one and a drop by at least one, so it orders the rewriting."""
    return sum(compress(count(), word.translate(_EVEN)))


class _Work:
    """The flat worklist of the rewriting kernel and its normal-form
    accumulator.

    `levels` maps a potential to a flat map (word, central, exponent
    vector) -> int, and `out` maps (normal word, central, exponent vector)
    -> int.  `size` counts the entries of both, which is what the term
    budget bounds; `op` names the public operation in a budget message.
    """

    __slots__ = ("levels", "out", "size", "op")

    def __init__(self, op: str):
        self.levels: dict = {}
        self.out: dict = {}
        self.size = 0
        self.op = op

    def add(self, word: bytes, central: tuple, terms: Iterable, normal: bool = False) -> None:
        """Adds coeff * word * c^central for the (exps, int) terms of coeff;
        a word known to be normal goes straight to the accumulator."""
        level = self.out if normal else self.levels.setdefault(_potential(word), {})
        for exps, c in terms:
            self.size += _put(level, (word, central, exps), c)
        _check_term_budget(self.op, self.size)

    def reduce(self, ring: LaurentRing, strategy: str = "leftmost") -> BoxElem:
        """Rewrites every pending state into normal form, level by level
        from the highest potential down, and returns the sum.

        Both rewrite factors, q^e and 1 - q^e, are pure powers of q, so a
        rewrite only shifts exps[0] and the other ring symbols ride along.
        Every rewrite lowers the potential, so all contributions to a state
        have arrived before its level is rewritten, and each state is
        rewritten once.
        """
        levels, out = self.levels, self.out
        find = bytes.find if strategy == "leftmost" else bytes.rfind
        limit = LIMITS.term_budget
        size = self.size
        for f in range(max(levels, default=-1), -1, -1):
            level = levels.pop(f, None)
            while level:
                key, c = level.popitem()
                size -= 1
                w, cent, exps = key
                parity = w.translate(_PARITY)
                pos = find(parity, _REDEX)
                if pos < 0:
                    size += _put(out, key, c)
                    continue
                e, swapped, unit = _RULES[w[pos : pos + 2]]
                shifted = (exps[0] + e,) + exps[1:]
                dropped = w[:pos] + w[pos + 2 :]
                bumped = tuple(map(add, cent, unit))
                # the dropped even letter was at pos + 1, and the even
                # letters after it move two places down
                low = f - pos - 1 - 2 * (len(w) - pos - 2 - parity.count(1, pos + 2))
                for g, state, k in (
                    (f - 1, (w[:pos] + swapped + w[pos + 2 :], cent, shifted), c),
                    (low, (dropped, bumped, exps), c),
                    (low, (dropped, bumped, shifted), -c),
                ):
                    target = levels.get(g)
                    if target is None:
                        target = levels[g] = {}
                    # _put, inlined in the hot loop
                    old = target.get(state)
                    if old is None:
                        target[state] = k
                        size += 1
                    elif old + k:
                        target[state] = old + k
                    else:
                        del target[state]
                        size -= 1
                if size > limit:
                    _check_term_budget(self.op, size)
        return _to_elem(ring, out)


def _to_elem(ring: LaurentRing, flat: dict) -> BoxElem:
    """The element of a flat map (normal word, central, exps) -> int;
    empties `flat` as it fills the coefficients."""
    terms: dict = {}
    coeffs: dict = {}
    # equal tuples become one object, which keeps the element small
    shared: dict = {}
    share = shared.setdefault
    while flat:
        (w, cent, exps), c = flat.popitem()
        coeff = coeffs.get((w, cent))
        if coeff is None:
            split = w.translate(_PARITY).find(1)
            if split < 0:
                split = len(w)
            even, odd = tuple(w[:split]), tuple(w[split:])
            mono = NormalMono(share(even, even), share(odd, odd), share(cent, cent))
            # filled in place below: every entry of `flat` is nonzero
            coeff = coeffs[w, cent] = terms[mono] = LaurentPoly(ring, {})
        coeff.terms[share(exps, exps)] = c
    return BoxElem(ring, terms)


def reduce_word(
    letters: Iterable[int],
    central: tuple = ZERO_CENTRAL,
    coeff: Optional[LaurentPoly] = None,
    *,
    strategy: str = "leftmost",
    ring: LaurentRing = DEFAULT_RING,
) -> BoxElem:
    """Normal form of coeff * x_{letters} * c^{central}.

    Repeatedly rewrites an adjacent (odd, even) pair; each rewrite either
    keeps the length and removes one inversion or shortens the word by two,
    so the process terminates.
    """
    word = tuple(int(l) for l in letters)
    if any(l not in (0, 1, 2, 3) for l in word):
        raise ValueError("generator letters must be in {0, 1, 2, 3}")
    _check_word_cap("reduce_word", len(word))
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError("unknown strategy %r" % strategy)
    if coeff is None:
        coeff = ring.one()
    work = _Work("reduce_word")
    work.add(bytes(word), tuple(central), coeff.terms.items())
    return work.reduce(ring, strategy)


def multiply(lhs: BoxElem, rhs: BoxElem) -> BoxElem:
    """Bilinear extension of concatenate-then-reduce."""
    if lhs.ring is not rhs.ring:
        raise ValueError("mixed coefficient rings")
    work = _Work("multiply")
    for m1, c1 in lhs.terms.items():
        for m2, c2 in rhs.terms.items():
            cent = add_central(m1.central, m2.central)
            normal = not m1.odd or not m2.even
            if normal:
                word = m1.even + m2.even + m1.odd + m2.odd
            else:
                word = m1.even + m1.odd + m2.even + m2.odd
            _check_word_cap("multiply", len(word))
            work.add(
                bytes(word),
                cent,
                (
                    (tuple(map(add, e1, e2)), k1 * k2)
                    for e1, k1 in c1.terms.items()
                    for e2, k2 in c2.terms.items()
                ),
                normal,
            )
    return work.reduce(lhs.ring)


def word_product(letters: Sequence[int], ring: LaurentRing = DEFAULT_RING) -> BoxElem:
    """Normal form of a plain product of generators."""
    return reduce_word(letters, ring=ring)


def s_element(i: int, ring: LaurentRing = DEFAULT_RING) -> BoxElem:
    """The degree-4 q-Serre combination in x_i, x_{i+2}; one parity only."""
    i = i % 4
    j = (i + 2) % 4
    three = ring.qint(3)
    out = reduce_word((i, i, i, j), ring=ring)
    out = out + reduce_word((i, i, j, i), coeff=-three, ring=ring)
    out = out + reduce_word((i, j, i, i), coeff=three, ring=ring)
    out = out + reduce_word((j, i, i, i), coeff=-ring.one(), ring=ring)
    return out


# ---------------------------------------------------------------------------
# Automorphisms and central specialization
# ---------------------------------------------------------------------------


def rho(e: BoxElem) -> BoxElem:
    """Index-shift substitution x_i -> x_{i+1}, c_i -> c_{i+1}, renormalized."""
    work = _Work("rho")
    for m, c in e.terms.items():
        shifted = tuple((l + 1) % 4 for l in m.even + m.odd)
        _check_word_cap("rho", len(shifted))
        cent = (m.central[3], m.central[0], m.central[1], m.central[2])
        work.add(bytes(shifted), cent, c.terms.items())
    return work.reduce(e.ring)


class CentralElement(NamedTuple):
    """A central element coeff * c^{exponents}; invertible when the
    coefficient is a unit monomial."""

    coeff: LaurentPoly
    central: tuple

    def __mul__(self, other: "CentralElement") -> "CentralElement":
        return CentralElement(
            self.coeff * other.coeff, add_central(self.central, other.central)
        )

    def __pow__(self, n: int) -> "CentralElement":
        return CentralElement(self.coeff ** n, scale_central(self.central, n))

    def inverse(self) -> "CentralElement":
        return self ** -1

    def is_unit(self) -> bool:
        return self.coeff.is_unit()

    def is_identity(self) -> bool:
        return self.coeff.is_one() and self.central == ZERO_CENTRAL


def central_element(value, ring: LaurentRing = DEFAULT_RING) -> CentralElement:
    """Coerce an int, LaurentPoly, or CentralElement into a CentralElement."""
    if isinstance(value, CentralElement):
        return value
    if isinstance(value, int):
        return CentralElement(ring.from_int(value), ZERO_CENTRAL)
    if isinstance(value, LaurentPoly):
        return CentralElement(value, ZERO_CENTRAL)
    raise TypeError("cannot interpret %r as a central element" % (value,))


def central_unit(i: int, power: int = 1, ring: LaurentRing = DEFAULT_RING) -> CentralElement:
    exps = [0, 0, 0, 0]
    exps[i % 4] = power
    return CentralElement(ring.one(), tuple(exps))


def _unit_parts(a: CentralElement) -> tuple:
    """An invertible central monomial as (sign, coefficient exponents,
    central exponents)."""
    ((exps, sign),) = a.coeff.terms.items()
    return sign, exps, a.central


def scale_auto(*alphas, ring: LaurentRing = DEFAULT_RING) -> Callable[[BoxElem], BoxElem]:
    """The substitution x_i -> alpha_i x_i, c_i -> alpha_i alpha_{i+1} c_i.

    Each alpha must be an invertible central monomial; returns the induced
    algebra map.
    """
    if len(alphas) != 4:
        raise ValueError("scale_auto expects four scaling factors")
    alphas = tuple(central_element(a, ring) for a in alphas)
    for a in alphas:
        if not a.is_unit():
            raise NotInvertibleError("not invertible")
    # each factor once as integer vectors; a term's factor is then a sum
    letters = [_unit_parts(a) for a in alphas]
    pairs = [_unit_parts(alphas[i] * alphas[(i + 1) % 4]) for i in range(4)]

    def apply(e: BoxElem) -> BoxElem:
        if any(a.coeff.ring is not e.ring for a in alphas):
            raise ValueError("mixed coefficient rings")
        zero = (0,) * e.ring.width
        out: dict = {}
        for m, c in e.terms.items():
            sign, exps, central = 1, zero, ZERO_CENTRAL
            for l in m.even + m.odd:
                s, x, z = letters[l]
                sign *= s
                exps = tuple(map(add, exps, x))
                central = add_central(central, z)
            for i, n in enumerate(m.central):
                if n:
                    s, x, z = pairs[i]
                    if n & 1:
                        sign *= s
                    exps = tuple(u + n * v for u, v in zip(exps, x))
                    central = add_central(central, scale_central(z, n))
            if sign != 1 or exps != zero:
                c = LaurentPoly(
                    e.ring, {tuple(map(add, k, exps)): sign * v for k, v in c.terms.items()}
                )
            _put(out, NormalMono(m.even, m.odd, add_central(m.central, central)), c)
        return BoxElem(e.ring, out)

    return apply


def specialize_central(e: BoxElem, values: Sequence) -> BoxElem:
    """Substitute each c_i by an invertible central value, folding the result
    into the coefficients.

    The image is only a *representative* of the corresponding quotient
    element: equality in the quotient algebra is not decided here.
    """
    ring = e.ring
    vals = tuple(central_element(v, ring) for v in values)
    if len(vals) != 4:
        raise ValueError("need one value per central generator")
    for v in vals:
        if not v.coeff.is_monomial():
            raise NotInvertibleError("not invertible")
    out: dict = {}
    for m, c in e.terms.items():
        factor = CentralElement(ring.one(), ZERO_CENTRAL)
        for i, n in enumerate(m.central):
            if n:
                factor = factor * (vals[i] ** n)
        _put(out, NormalMono(m.even, m.odd, factor.central), c * factor.coeff)
    return BoxElem(ring, out)


# ---------------------------------------------------------------------------
# Independent oracle: the module action on (free algebra) x (free algebra)
# x (Laurent polynomials in four symbols).
# ---------------------------------------------------------------------------

# the same pairing/correction data in the two-letter alphabet of the oracle
_ORACLE_PAIRING = {("x", "x"): 2, ("x", "y"): -2, ("y", "x"): -2, ("y", "y"): 2}
_ORACLE_LAMBDA = {("x", "x"): 0, ("x", "y"): 3, ("y", "x"): 1, ("y", "y"): 2}


class TensorElem:
    """An element of the oracle module: map (word, word, lambda exponents)
    -> LaurentPoly."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: LaurentRing, terms: dict):
        self.ring = ring
        self.terms = {k: c for k, c in terms.items() if c}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorElem)
            and self.ring is other.ring
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self) -> str:
        return "<TensorElem %d terms>" % len(self.terms)


def _oracle_apply_letter(state: dict, token, ring: LaurentRing, one_minus: dict) -> dict:
    """One token acting on the oracle module; `one_minus` maps e to 1 - q^e."""
    out: dict = {}

    def put(key, value):
        s = out.get(key, ring.zero()) + value
        if s:
            out[key] = s
        else:
            out.pop(key, None)

    for (u, v, lam), c in state.items():
        if isinstance(token, tuple):  # ("c", index, exponent)
            _, idx, exp = token
            new_lam = list(lam)
            new_lam[idx] += exp
            put((u, v, tuple(new_lam)), c)
            continue
        if token == 0:
            put(("x" + u, v, lam), c)
        elif token == 2:
            put(("y" + u, v, lam), c)
        else:
            letter = "x" if token == 1 else "y"
            # main term: prepend to the second factor, q-power from the pairing
            exp_total = sum(_ORACLE_PAIRING[(ch, letter)] for ch in u)
            put((u, letter + v, lam), c * ring.qpow(exp_total))
            # correction terms: delete one letter of the first factor
            prefix = 0
            for i, ch in enumerate(u):
                e = _ORACLE_PAIRING[(ch, letter)]
                lam_idx = _ORACLE_LAMBDA[(ch, letter)]
                new_lam = list(lam)
                new_lam[lam_idx] += 1
                factor = ring.qpow(prefix) * one_minus[e]
                put((u[:i] + u[i + 1 :], v, tuple(new_lam)), c * factor)
                prefix += e
    return out


def module_action_oracle(tokens: Sequence, ring: LaurentRing = DEFAULT_RING) -> TensorElem:
    """Image of 1 (x) 1 (x) 1 under the left action of the given product.

    Tokens are generator indices 0..3 or ("c", i, +-1).  Left action means
    the rightmost token acts first.
    """
    _check_word_cap("module_action_oracle", sum(1 for t in tokens if not isinstance(t, tuple)))
    one_minus = {e: ring.one() - ring.qpow(e) for e in (2, -2)}
    state = {("", "", ZERO_CENTRAL): ring.one()}
    for token in reversed(list(tokens)):
        state = _oracle_apply_letter(state, token, ring, one_minus)
        _check_term_budget("module_action_oracle", len(state))
    return TensorElem(ring, state)


# ---------------------------------------------------------------------------
# Random sampling for the law checks
# ---------------------------------------------------------------------------


def random_word(rng, max_len: int = 10, min_len: int = 0) -> tuple:
    n = rng.randint(min_len, max_len)
    return tuple(rng.randrange(4) for _ in range(n))


def random_element(
    rng,
    ring: LaurentRing = DEFAULT_RING,
    max_terms: int = 3,
    max_word: int = 4,
    central_range: int = 2,
) -> BoxElem:
    """A small random element in normal form, with occasional a/b factors."""
    out = zero(ring)
    for _ in range(rng.randint(1, max_terms)):
        word = random_word(rng, max_len=max_word)
        central = tuple(rng.randint(-central_range, central_range) for _ in range(4))
        exps = [rng.randint(-3, 3), 0, 0]
        if ring.width > 1 and rng.random() < 0.3:
            exps[rng.randint(1, ring.width - 1)] = rng.choice((-1, 1))
        coeff = ring.monomial(rng.choice((1, -1, 2)), tuple(exps[: ring.width]))
        out = out + reduce_word(word, central, coeff, ring=ring)
    return out


_LETTER_TO_EVEN = {"x": 0, "y": 2}
_LETTER_TO_ODD = {"x": 1, "y": 3}


def oracle_as_box(t: TensorElem) -> BoxElem:
    """Read an oracle value as a normal-form element through the basis
    bijection (first word, second word, lambda) -> (even, odd, central)."""
    terms = {}
    for (u, v, lam), c in t.terms.items():
        mono = NormalMono(
            tuple(_LETTER_TO_EVEN[ch] for ch in u),
            tuple(_LETTER_TO_ODD[ch] for ch in v),
            lam,
        )
        terms[mono] = c
    return BoxElem(t.ring, terms)
