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

Products never search for a redex.  Applied along a whole word, the
rewrite has a closed form: an even letter u appended to E | o_1...o_k
gives q^{e_1+...+e_k} (E u | o_1...o_k) plus, for each i,
q^{e_{i+1}+...+e_k} (1 - q^{e_i}) c_{(u, o_i)} (E | the odd word without
o_i), with e_j the pairing exponent of (u, o_j).  Every term is normal, so
`reduce_word`, `multiply` and `rho` fold letters one at a time into a map
of normal states, and each letter is handled in one pass.

Coefficients lie in the package's one ring Z[q^+-1, a^+-1, b^+-1].  A
`BoxElem` stores only its state map, (even word, odd word, central, a/b
exponents) -> {q exponent: int}, with the words as bytes; every
operation reads and returns state maps, and `render` prints straight from
the state map.  `BoxElem.terms`, the map NormalMono -> LaurentPoly, is a
view built anew on each access, for the API only.  State maps share their
inner q-dicts, so no stored state map or inner dict is ever mutated: an
operation fills only an outer map it created, and `_add_into` changes in
place only the inner dicts it created itself.  A product map holds q-dicts
of its left factor only under the keys of its last right-hand group, and
only when that group has an empty even word, so it crosses no letter and
no later group writes to them.

A central unit is a one-term `BoxElem` with empty words and coefficient
+-q^k a^i b^j (`central_gen(i, p)` times a unit scalar), and `e ** -n`
inverts exactly those.  `scale_auto` and `specialize_central` take their
factors as ints, LaurentPolys or BoxElems.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add, mul
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .qcoeff import DEFAULT_RING, LaurentPoly, LaurentRing, NotInvertibleError, power, render_sum

EVEN_LETTERS = (0, 2)
ODD_LETTERS = (1, 3)

# pairing exponent <u, v> and central correction index, keyed by
# (even letter u, odd letter v)
PAIRING = {(0, 1): 2, (0, 3): -2, (2, 1): -2, (2, 3): 2}
CORRECTION = {(0, 1): 0, (0, 3): 3, (2, 1): 1, (2, 3): 2}

ZERO_CENTRAL = (0, 0, 0, 0)
# the q-dict of the coefficient 1
_ONE_Q = {0: 1}
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


IDENTITY_MONO = NormalMono((), (), ZERO_CENTRAL)


def _checked_central(central) -> tuple:
    """`central` as a tuple of four int exponents; ValueError for another
    shape, CentralOverflowError outside the checked 64-bit range."""
    central = tuple(central)
    if len(central) != 4 or not all(isinstance(v, int) for v in central):
        raise ValueError("a central part is four integer exponents, not %r" % (central,))
    return scale_central(central, 1)


def _mono_text(even: bytes, odd: bytes, central: tuple) -> str:
    """The bracket text of the normal monomial (even | odd | central)."""
    central_text = "-"
    if any(central):
        central_text = ".".join(
            "c%d" % i if e == 1 else "c%d^%d" % (i, e) for i, e in enumerate(central) if e
        )
    return "[%s | %s | %s]" % (
        "x" + ".x".join(map(str, even)) if even else "-",
        "x" + ".x".join(map(str, odd)) if odd else "-",
        central_text,
    )


# deterministic term order used by rendering: longer words first, then
# even-heavy monomials; words as bytes sort as their letter tuples do
def _mono_sort_key(mono: tuple):
    even, odd, central = mono
    return (-(len(even) + len(odd)), -len(even), even, odd, central)


def _by_mono(state: dict) -> dict:
    """The coefficient of each normal monomial (even, odd, central) of a
    state map, as a map exponents -> int."""
    monos: dict = {}
    for (even, odd, cent, ab), qd in state.items():
        coeff = monos.setdefault((even, odd, cent), {})
        for k, v in qd.items():
            coeff[(k,) + ab] = v
    return monos


class BoxElem:
    """An element in normal form, stored as its state map (see the module
    docstring)."""

    __slots__ = ("state",)

    def __init__(self, ring: LaurentRing, terms: dict):
        """The element sum c * m over `terms`, a map NormalMono -> coefficient;
        zero coefficients are dropped.  Each m must be normal, with even
        letters in {0, 2}, odd letters in {1, 3} and four int central
        exponents, or ValueError is raised; a central exponent outside the
        checked 64-bit range raises CentralOverflowError.  `ring` is
        ignored: it stays only because perfbench passes it."""
        state: dict = {}
        for m, c in terms.items():
            if any(l not in EVEN_LETTERS for l in m.even) or any(l not in ODD_LETTERS for l in m.odd):
                raise ValueError("not a normal monomial: %r" % (m,))
            _enter(state, bytes(m.even), bytes(m.odd), _checked_central(m.central), DEFAULT_RING.coerce(c))
        self.state = state

    @classmethod
    def _of(cls, state: dict) -> "BoxElem":
        """The element of a state map, which it keeps as it is."""
        e = cls.__new__(cls)
        e.state = state
        return e

    @property
    def terms(self) -> dict:
        """The map NormalMono -> LaurentPoly, built from the state map on
        each access."""
        return {
            NormalMono(tuple(even), tuple(odd), cent): LaurentPoly(DEFAULT_RING, coeff)
            for (even, odd, cent), coeff in _by_mono(self.state).items()
        }

    def __bool__(self) -> bool:
        return bool(self.state)

    def __eq__(self, other) -> bool:
        return isinstance(other, BoxElem) and self.state == other.state

    __hash__ = None

    def _plus(self, other: "BoxElem", sign: int) -> "BoxElem":
        state = dict(self.state)
        for key, qd in other.state.items():
            mine = state.pop(key, None)
            if mine is not None:
                # a copy, so the sum leaves both summands' q-dicts as they are
                _add_into(state, key, mine, 0, 1)
            _add_into(state, key, qd, 0, sign)
        _check_term_budget("sum", len(state))
        return BoxElem._of(state)

    def __add__(self, other: "BoxElem") -> "BoxElem":
        return self._plus(other, 1)

    def __sub__(self, other: "BoxElem") -> "BoxElem":
        return self._plus(other, -1)

    def __neg__(self) -> "BoxElem":
        return BoxElem._of({key: {k: -v for k, v in qd.items()} for key, qd in self.state.items()})

    def __mul__(self, other) -> "BoxElem":
        if isinstance(other, (int, LaurentPoly)):
            return BoxElem._of(_scaled(self.state, _scalar_state(DEFAULT_RING.coerce(other))))
        if isinstance(other, BoxElem):
            return multiply(self, other)
        return NotImplemented

    def __rmul__(self, other) -> "BoxElem":
        if isinstance(other, (int, LaurentPoly)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "BoxElem":
        """The n-th power; a negative power exists only for a unit monomial
        +-q^k a^i b^j c^v with empty words, and raises NotInvertibleError
        for anything else."""
        if n >= 0:
            return power(self, n, one())
        v, exps, cent = _monomial_parts(self)
        if v not in (1, -1):
            raise NotInvertibleError("not invertible")
        key = (b"", b"", scale_central(cent, n), tuple(x * n for x in exps[1:]))
        return BoxElem._of({key: {exps[0] * n: v if n & 1 else 1}})

    def render(self) -> str:
        monos = _by_mono(self.state)
        return render_sum(((monos[m], _mono_text(*m)) for m in sorted(monos, key=_mono_sort_key)), " * ")

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return "<BoxElem %s>" % self


def _basis(even: bytes, odd: bytes, central: tuple) -> BoxElem:
    """The basis monomial (even | odd | central) with coefficient 1."""
    return BoxElem._of({(even, odd, central, (0, 0)): {0: 1}})


def zero() -> BoxElem:
    return BoxElem._of({})


def one() -> BoxElem:
    return _basis(b"", b"", ZERO_CENTRAL)


def generator(i: int) -> BoxElem:
    unit = bytes((i % 4,))
    if i % 2 == 0:
        return _basis(unit, b"", ZERO_CENTRAL)
    return _basis(b"", unit, ZERO_CENTRAL)


def central_gen(i: int, power: int = 1) -> BoxElem:
    exps = [0, 0, 0, 0]
    exps[i % 4] = power
    return _basis(b"", b"", tuple(exps))


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


# The kernel works on state maps (even word, odd word, central, a/b
# exponents) -> {q exponent: int}, with words as bytes of letters.  Both
# rewrite factors are pure powers of q, so a crossing only shifts q
# exponents and the a/b exponents ride along.

# letter crossed -> (pairing exponent, central correction index), one table
# for an even letter u moving left over odd letters and one for an odd
# letter v moving right over even letters
_CROSS_ODD = {u: {v: (PAIRING[u, v], CORRECTION[u, v]) for v in ODD_LETTERS} for u in EVEN_LETTERS}
_CROSS_EVEN = {v: {u: (PAIRING[u, v], CORRECTION[u, v]) for u in EVEN_LETTERS} for v in ODD_LETTERS}


# the same (letter, word) pairs recur: over 99 % of the crossings in
# `qdg verify --all` and in a stream of `qdg nf` inputs find their closed
# form here, from fewer than 700 distinct pairs
@lru_cache(maxsize=1 << 10)
def _crossing(letter: int, word: bytes, append: bool) -> tuple:
    """The closed form of `letter` crossing `word`: appended on the right,
    an even letter moves left over an odd word; prepended on the left, an
    odd letter moves right over an even word.

    Returns (total shift, drops), where the letter ends past the word with
    factor q^{total}, and each drop (shorter word, correction index, lo,
    hi) stands for (q^lo - q^hi) c_index times the word with one letter
    removed.  The letter at the i-th crossing contributes q^s (1 - q^e),
    with s the exponents crossed before it; a run of r equal letters
    removes to the same word, and its terms telescope to q^s (1 - q^{re}).
    """
    table = (_CROSS_ODD if append else _CROSS_EVEN)[letter]
    total = 0
    drops: list = []
    previous = None
    for i in range(len(word) - 1, -1, -1) if append else range(len(word)):
        crossed = word[i]
        e, index = table[crossed]
        if crossed == previous:
            drops[-1][3] += e
        else:
            drops.append([word[:i] + word[i + 1 :], index, total, total + e])
        total += e
        previous = crossed
    return total, tuple(map(tuple, drops))


def _add_into(acc: dict, key, qd: dict, shift: int, factor: int) -> None:
    """acc[key] += factor * q^shift * qd, dropping entries and keys that
    vanish.  A new key gets a new dict, never `qd` itself, so every inner
    dict of `acc` that this changes in place was made here."""
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


def _add_drop(acc: dict, key, qd: dict, lo: int, hi: int) -> None:
    """acc[key] += (q^lo - q^hi) * qd, in one pass over qd, dropping
    entries and keys that vanish; as in `_add_into`, a new key gets a new
    dict."""
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


def _cross(state: dict, letter: int, append: bool, op: str, tail: bytes = b"", shift: tuple = (0, 0)) -> dict:
    """The state map times x_letter (append) or x_letter times it, for a
    letter that must cross the opposite word.  Appended, the letter may be
    followed by the odd word `tail` times a^i b^j, with (i, j) = `shift`,
    which join every term of the result without a crossing.

    The budget is checked after each state, whose terms number at most one
    more than the letters crossed."""
    unit = bytes((letter,))
    shifted = any(shift)
    out: dict = {}
    for (even, odd, cent, ab), qd in state.items():
        total, drops = _crossing(letter, odd if append else even, append)
        if shifted:
            ab = (ab[0] + shift[0], ab[1] + shift[1])
        if append:
            _add_into(out, (even + unit, odd + tail, cent, ab), qd, total, 1)
        else:
            _add_into(out, (even, unit + odd, cent, ab), qd, total, 1)
        for word, index, lo, hi in drops:
            bumped = cent[:index] + (cent[index] + 1,) + cent[index + 1 :]
            key = (even, word + tail, bumped, ab) if append else (word, odd, bumped, ab)
            _add_drop(out, key, qd, lo, hi)
        _check_term_budget(op, len(out))
    return out


def _fold(state: dict, letters: bytes, append: bool, op: str) -> dict:
    """The state map times x_letters (append) or x_letters times it
    (prepend), one letter at a time from the side it joins."""
    free = 1 if append else 0  # the parity that joins by concatenation
    for letter in letters if append else reversed(letters):
        if letter & 1 != free:
            state = _cross(state, letter, append, op)
        elif append:
            unit = bytes((letter,))
            state = {(e, o + unit, c, ab): qd for (e, o, c, ab), qd in state.items()}
        else:
            unit = bytes((letter,))
            state = {(unit + e, o, c, ab): qd for (e, o, c, ab), qd in state.items()}
    return state


def _enter(state: dict, even: bytes, odd: bytes, central: tuple, coeff: LaurentPoly) -> None:
    """Enters coeff times the normal monomial (even | odd | central), which
    is not in `state` yet."""
    for exps, v in coeff.terms.items():
        key = (even, odd, central, exps[1:])
        qd = state.get(key)
        if qd is None:
            state[key] = {exps[0]: v}
        else:
            qd[exps[0]] = v


def _scalar_state(coeff: LaurentPoly) -> dict:
    """The state map of the scalar `coeff`."""
    state: dict = {}
    _enter(state, b"", b"", ZERO_CENTRAL, coeff)
    return state


def _scaled(state: dict, scalar: dict) -> dict:
    """The state map times the state map of a scalar, whose every key has
    empty words and no central part; the budget is checked, as a product,
    after each entry of the scalar."""
    out: dict = {}
    for (_, _, _, ab2), qd2 in scalar.items():
        shifted = any(ab2)
        for (even, odd, cent, ab), qd in state.items():
            key = (even, odd, cent, tuple(map(add, ab, ab2)) if shifted else ab)
            for k, v in qd2.items():
                _add_into(out, key, qd, k, v)
        _check_term_budget("multiply", len(out))
    return out


def _is_scalar(state: dict) -> bool:
    return all(not even and not odd and cent == ZERO_CENTRAL for even, odd, cent, _ in state)


def reduce_word(
    letters: Iterable[int],
    central: tuple = ZERO_CENTRAL,
    coeff: Optional[LaurentPoly] = None,
    *,
    strategy: str = "leftmost",
) -> BoxElem:
    """Normal form of coeff * x_{letters} * c^{central}.

    The letters are folded into the normal form one at a time: from the
    left with `strategy="leftmost"`, each even letter crossing the odd word
    built so far, or from the right with `"rightmost"`, each odd letter
    crossing the even word.  The two orders cross different words, so
    comparing them checks one computation against another.  `central`
    must be four int exponents (ValueError otherwise).
    """
    word = tuple(int(l) for l in letters)
    if any(l not in (0, 1, 2, 3) for l in word):
        raise ValueError("generator letters must be in {0, 1, 2, 3}")
    _check_word_cap("reduce_word", len(word))
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError("unknown strategy %r" % strategy)
    if coeff is None:
        coeff = DEFAULT_RING.one()
    if central is not ZERO_CENTRAL:  # the default is normal as it stands
        central = _checked_central(central)
    start: dict = {}
    _enter(start, b"", b"", central, coeff)
    append = strategy == "leftmost"
    return BoxElem._of(_fold(start, bytes(word), append, "reduce_word"))


def _longest(state: dict) -> int:
    return max(len(even) + len(odd) for even, odd, _, _ in state)


def multiply(lhs: BoxElem, rhs: BoxElem) -> BoxElem:
    """Bilinear extension of concatenate-then-reduce: the even word of each
    right-hand monomial is folded into the state map of `lhs`, and its odd
    word is appended.  Monomials sharing an even word share the fold.

    A group that is one monomial with coefficient a^i b^j and no central
    part is entered without a second pass: as the first group, the last
    letter of its even word crosses straight into the product, and as the
    last group with an empty even word, the product takes the q-dicts of
    `lhs` under the new keys.  No later group writes to those, so the
    product holds q-dicts of `lhs` only when the last group crosses no
    letter, and `_add_into` still changes only dicts it made."""
    if not lhs.state or not rhs.state:
        return zero()
    _check_word_cap("multiply", _longest(lhs.state) + _longest(rhs.state))
    # a scalar factor only scales the coefficients of the other
    if _is_scalar(rhs.state):
        return BoxElem._of(_scaled(lhs.state, rhs.state))
    if _is_scalar(lhs.state):
        return BoxElem._of(_scaled(rhs.state, lhs.state))
    groups: dict = {}
    for (even, odd, central, ab2), qd2 in rhs.state.items():
        groups.setdefault(even, []).append((odd, central, ab2, qd2))
    out: dict = {}
    last = len(groups) - 1
    for g, (even_word, monos) in enumerate(groups.items()):
        odd_word, central, ab2, qd2 = monos[0]
        plain = len(monos) == 1 and qd2 == _ONE_Q and central == ZERO_CENTRAL
        if plain and even_word and not out:
            # the crossing checks the budget after each state, with the
            # sizes a fold into a map of its own would reach
            state = _fold(lhs.state, even_word[:-1], True, "multiply")
            out = _cross(state, even_word[-1], True, "multiply", odd_word, ab2)
            continue
        if plain and not even_word and g == last:
            shifted = any(ab2)
            for (even, odd, cent, ab), qd in lhs.state.items():
                if shifted:
                    ab = (ab[0] + ab2[0], ab[1] + ab2[1])
                key = (even, odd + odd_word, cent, ab)
                if key in out:
                    _add_into(out, key, qd, 0, 1)
                else:
                    out[key] = qd
            _check_term_budget("multiply", len(out))
            continue
        product = _fold(lhs.state, even_word, True, "multiply")
        for odd_word, central, ab2, qd2 in monos:
            # a/b sums once per distinct vector: most vectors recur
            sums = {} if any(ab2) else None
            for (even, odd, cent, ab), qd in product.items():
                if sums is not None:
                    ab_sum = sums.get(ab)
                    if ab_sum is None:
                        ab_sum = sums[ab] = tuple(map(add, ab, ab2))
                    ab = ab_sum
                if central != ZERO_CENTRAL:
                    cent = add_central(cent, central)
                key = (even, odd + odd_word, cent, ab)
                for k, v in qd2.items():
                    _add_into(out, key, qd, k, v)
            _check_term_budget("multiply", len(out))
    return BoxElem._of(out)


# `multiply` with a one-atom right factor, on state maps: the same checks
# in the same order, under the same name, and the same state map in the
# same order, without building the right factor


def _times_letter(state: dict, letter: int) -> dict:
    """The state map times x_letter."""
    if not state:
        return {}
    _check_word_cap("multiply", _longest(state) + 1)
    unit = bytes((letter,))
    if _is_scalar(state):
        # a scalar left factor only scales the letter, unchecked
        words = (unit, b"") if letter & 1 == 0 else (b"", unit)
        return {words + key[2:]: qd for key, qd in state.items()}
    state = _fold(state, unit, True, "multiply")
    _check_term_budget("multiply", len(state))
    return state


def _times_unit(state: dict, coeff: int, k: int, ab: tuple, central: tuple) -> dict:
    """The state map times coeff q^k a^i b^j c^central, with (i, j) = ab:
    the q exponents shift, the a/b and central exponents add, and the
    integers multiply, in one pass."""
    if not state or not coeff:
        return {}
    _check_word_cap("multiply", _longest(state))
    shift_ab = any(ab)
    shift_central = central != ZERO_CENTRAL
    # a central factor is added in per entry and then budget-checked, unless
    # the left factor is a scalar, which scales it instead
    checked = shift_central and not _is_scalar(state)
    same = k == 0 and coeff == 1
    out: dict = {}
    for (even, odd, cent, ab1), qd in state.items():
        if shift_central:
            cent = add_central(cent, central)
        if shift_ab:
            ab1 = (ab1[0] + ab[0], ab1[1] + ab[1])
        out[even, odd, cent, ab1] = qd if same else {e + k: v * coeff for e, v in qd.items()}
    if checked:
        _check_term_budget("multiply", len(out))
    return out


def s_element(i: int) -> BoxElem:
    """The degree-4 q-Serre combination in x_i, x_{i+2}; one parity only."""
    i = i % 4
    j = (i + 2) % 4
    three = DEFAULT_RING.qint(3)
    out = reduce_word((i, i, i, j))
    out = out + reduce_word((i, i, j, i), coeff=-three)
    out = out + reduce_word((i, j, i, i), coeff=three)
    out = out + reduce_word((j, i, i, i), coeff=-DEFAULT_RING.one())
    return out


# ---------------------------------------------------------------------------
# Automorphisms and central specialization
# ---------------------------------------------------------------------------


_SHIFT = bytes.maketrans(bytes((0, 1, 2, 3)), bytes((1, 2, 3, 0)))


def rho(e: BoxElem) -> BoxElem:
    """Index-shift substitution x_i -> x_{i+1}, c_i -> c_{i+1}, renormalized.

    The shift of a normal monomial is an odd word followed by an even one,
    so the shifted even words are folded into the shifted odd words, one
    fold per distinct word."""
    groups: dict = {}
    for (even, odd, cent, ab), qd in e.state.items():
        _check_word_cap("rho", len(even) + len(odd))
        key = (b"", even.translate(_SHIFT), (cent[3], cent[0], cent[1], cent[2]), ab)
        groups.setdefault(odd.translate(_SHIFT), {})[key] = qd
    out: dict = {}
    for even, start in groups.items():
        for key, qd in _fold(start, even, True, "rho").items():
            _add_into(out, key, qd, 0, 1)
        _check_term_budget("rho", len(out))
    return BoxElem._of(out)


def _monomial_parts(e: BoxElem) -> tuple:
    """A one-term element with empty words as (integer coefficient,
    exponents of q, a, b..., central exponents); NotInvertibleError for
    anything else."""
    if len(e.state) == 1:
        (((even, odd, cent, ab), qd),) = e.state.items()
        if not even and not odd and len(qd) == 1:
            ((k, v),) = qd.items()
            return v, (k,) + ab, cent
    raise NotInvertibleError("not invertible")


def scale_auto(*alphas) -> Callable[[BoxElem], BoxElem]:
    """The substitution x_i -> alpha_i x_i, c_i -> alpha_i alpha_{i+1} c_i.

    Each alpha, an int, LaurentPoly or BoxElem, must be a unit monomial
    +-q^k a^i b^j c^v; returns the induced algebra map.  The map raises
    CentralOverflowError for a term whose image has a central exponent
    outside the checked 64-bit range.
    """
    if len(alphas) != 4:
        raise ValueError("scale_auto expects four scaling factors")
    alphas = tuple(one() * a for a in alphas)
    letters = [_monomial_parts(a) for a in alphas]
    if any(sign not in (1, -1) for sign, _, _ in letters):
        raise NotInvertibleError("not invertible")
    pairs = [_monomial_parts(alphas[i] * alphas[(i + 1) % 4]) for i in range(4)]
    # A term's factor is the product of the four letter factors to the
    # powers of its letter counts and of the four pair factors to the
    # powers of its central exponents.  One column per exponent of the
    # factor holds its entry in each of those eight.
    factors = letters + pairs
    odd_sign = tuple(int(s < 0) for s, _, _ in factors)
    q_col, a_col, b_col = zip(*(x for _, x, _ in factors))
    central_cols = tuple(zip(*(z for _, _, z in factors)))
    scales_central = any(map(any, central_cols))

    def apply(e: BoxElem) -> BoxElem:
        out: dict = {}
        for (even, odd, cent, ab), qd in e.state.items():
            n0 = even.count(0)
            n1 = odd.count(1)
            powers = (n0, n1, len(even) - n0, len(odd) - n1) + cent
            sign = -1 if sum(map(mul, powers, odd_sign)) & 1 else 1
            ab = (ab[0] + sum(map(mul, powers, a_col)), ab[1] + sum(map(mul, powers, b_col)))
            if scales_central:
                # the bound is checked on the result only
                cent = add_central(cent, [sum(map(mul, powers, col)) for col in central_cols])
            _add_into(out, (even, odd, cent, ab), qd, sum(map(mul, powers, q_col)), sign)
        return BoxElem._of(out)

    return apply


def specialize_central(e: BoxElem, values: Sequence) -> BoxElem:
    """Substitute each c_i by a central monomial (an int, LaurentPoly or
    BoxElem that is one term with empty words), folding the result into
    the coefficients; a negative power of c_i needs a unit value.

    The image is only a *representative* of the corresponding quotient
    element: equality in the quotient algebra is not decided here.
    """
    vals = tuple(one() * v for v in values)
    if len(vals) != 4:
        raise ValueError("need one value per central generator")
    for v in vals:
        _monomial_parts(v)
    out: dict = {}
    # central vector -> (coefficient, coefficient exponents, central part)
    factors: dict = {}
    for (even, odd, cent, ab), qd in e.state.items():
        f = factors.get(cent)
        if f is None:
            factor = one()
            for i, n in enumerate(cent):
                if n:
                    factor = factor * vals[i] ** n
            f = factors[cent] = _monomial_parts(factor)
        v, exps, central = f
        _add_into(out, (even, odd, central, tuple(map(add, ab, exps[1:]))), qd, exps[0], v)
    return BoxElem._of(out)


# ---------------------------------------------------------------------------
# Independent oracle: the module action on (free algebra) x (free algebra)
# x (Laurent polynomials in four symbols).  It applies the rewrite one
# letter at a time, with no closed form, and shares no code with the
# kernel: its states (first word, second word, lambda) -> {q exponent: int}
# live in its own maps, filled by its own accumulator `_oracle_add`, and
# become LaurentPolys only in the map it returns.
# ---------------------------------------------------------------------------

# the same pairing/correction data in the two-letter alphabet of the oracle
_ORACLE_PAIRING = {("x", "x"): 2, ("x", "y"): -2, ("y", "x"): -2, ("y", "y"): 2}
_ORACLE_LAMBDA = {("x", "x"): 0, ("x", "y"): 3, ("y", "x"): 1, ("y", "y"): 2}


def _oracle_add(acc: dict, key, qd: dict, lo: int, hi: Optional[int] = None) -> None:
    """acc[key] += q^lo qd, or (q^lo - q^hi) qd when `hi` is given, on the
    oracle's own q-dicts {q exponent: int}, dropping what cancels."""
    target = acc.setdefault(key, {})
    get = target.get
    for k, v in qd.items():
        k += lo
        v += get(k, 0)
        if v:
            target[k] = v
        else:
            del target[k]
    if hi is not None:
        for k, v in qd.items():
            k += hi
            v = get(k, 0) - v
            if v:
                target[k] = v
            else:
                del target[k]
    if not target:
        del acc[key]


def _oracle_apply_letter(state: dict, token) -> dict:
    """One token acting on the oracle module, whose coefficients are
    q-dicts: no a or b enters.  Each q-dict belongs to one state, and the
    state before the token is dropped, so a key that only moves keeps its
    q-dict."""
    if isinstance(token, tuple):  # ("c", index, exponent)
        _, idx, exp = token
        out = {}
        for (u, v, lam), qd in state.items():
            new_lam = list(lam)
            new_lam[idx] += exp
            out[u, v, tuple(new_lam)] = qd
        return out
    if token in (0, 2):
        letter = "x" if token == 0 else "y"
        return {(letter + u, v, lam): qd for (u, v, lam), qd in state.items()}
    letter = "x" if token == 1 else "y"
    out = {}
    for (u, v, lam), qd in state.items():
        # main term: prepend to the second factor, q-power from the pairing
        exp_total = sum(_ORACLE_PAIRING[(ch, letter)] for ch in u)
        _oracle_add(out, (u, letter + v, lam), qd, exp_total)
        # correction terms: delete one letter of the first factor, with
        # factor q^prefix (1 - q^e)
        prefix = 0
        for i, ch in enumerate(u):
            e = _ORACLE_PAIRING[(ch, letter)]
            lam_idx = _ORACLE_LAMBDA[(ch, letter)]
            new_lam = list(lam)
            new_lam[lam_idx] += 1
            _oracle_add(out, (u[:i] + u[i + 1 :], v, tuple(new_lam)), qd, prefix, prefix + e)
            prefix += e
    return out


def _oracle_token(token):
    """`token` if it is a letter 0..3 or ("c", i, e) with i in 0..3 and an
    int e; ValueError otherwise."""
    if isinstance(token, tuple) and len(token) == 3 and token[0] == "c":
        _, index, exp = token
        if isinstance(index, int) and index in (0, 1, 2, 3) and isinstance(exp, int):
            return token
    elif isinstance(token, int) and token in (0, 1, 2, 3):
        return token
    raise ValueError("not an oracle token: %r" % (token,))


def module_action_oracle(tokens: Sequence) -> dict:
    """Image of 1 (x) 1 (x) 1 under the left action of the given product, as
    a map (word, word, lambda exponents) -> nonzero LaurentPoly.

    Tokens are generator indices 0..3 or ("c", i, e) with i in 0..3 and an
    int e; any other token raises ValueError.  Left action means the
    rightmost token acts first.
    """
    tokens = [_oracle_token(t) for t in tokens]
    _check_word_cap("module_action_oracle", sum(1 for t in tokens if not isinstance(t, tuple)))
    state = {("", "", ZERO_CENTRAL): {0: 1}}
    for token in reversed(tokens):
        state = _oracle_apply_letter(state, token)
        _check_term_budget("module_action_oracle", len(state))
    return {key: LaurentPoly(DEFAULT_RING, {(k, 0, 0): v for k, v in qd.items()}) for key, qd in state.items()}


# ---------------------------------------------------------------------------
# Random sampling for the law checks
# ---------------------------------------------------------------------------


def random_word(rng, max_len: int = 10, min_len: int = 0) -> tuple:
    n = rng.randint(min_len, max_len)
    return tuple(rng.randrange(4) for _ in range(n))


def random_element(rng, max_terms: int = 3, max_word: int = 4, central_range: int = 2) -> BoxElem:
    """A small random element in normal form, with occasional a/b factors."""
    out = zero()
    for _ in range(rng.randint(1, max_terms)):
        word = random_word(rng, max_len=max_word)
        central = tuple(rng.randint(-central_range, central_range) for _ in range(4))
        exps = [rng.randint(-3, 3), 0, 0]
        if rng.random() < 0.3:
            exps[rng.randint(1, 2)] = rng.choice((-1, 1))
        coeff = DEFAULT_RING.monomial(rng.choice((1, -1, 2)), tuple(exps))
        out = out + reduce_word(word, central, coeff)
    return out


_LETTER_TO_EVEN = {"x": 0, "y": 2}
_LETTER_TO_ODD = {"x": 1, "y": 3}


def oracle_as_box(t: dict) -> BoxElem:
    """Read an oracle value as a normal-form element through the basis
    bijection (first word, second word, lambda) -> (even, odd, central).
    The letter maps send x/y words to normal words, so no monomial is
    validated."""
    state: dict = {}
    for (u, v, lam), c in t.items():
        even = bytes(_LETTER_TO_EVEN[ch] for ch in u)
        odd = bytes(_LETTER_TO_ODD[ch] for ch in v)
        _enter(state, even, odd, lam, c)
    return BoxElem._of(state)
