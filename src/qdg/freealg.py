"""The free algebra on two generators x, y with its length grading.

Provides the degree-4 q-Serre combinations, the spanning sets of the
relation ideal in each degree, and an exact rank computation over Q(q)
for rows with coefficients in q alone.  Coefficients lie in the package's
one ring Z[q^+-1, a^+-1, b^+-1].  The graded dimensions of the
quotient by the q-Serre ideal fall out as 2^n minus the rank.

A span row joins words onto those of a q-Serre combination and shares its
coefficients; one pass, `_dense_rows`, turns rows into the dense q-lists
the elimination works on.  No Laurent arithmetic runs on the way.

The exact rank is the reference.  It eliminates each bidegree block of
the span on its own, and gives a y-heavy block the rank of its x <-> y
mirror once their rows are checked to match.  A row is reduced by a pivot
whose lead entry is q^k without cross-multiplying or stripping its content,
which is most reductions of the span; the rest cross-multiply and strip the
row in full, as does every stored pivot.  An independent cross-check
takes the rank of the whole span at random points mod the prime 2^61 - 1;
specializing is a ring map, so that rank is a lower bound on the exact one.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import product
from math import gcd
from typing import Optional, Sequence

from .boxtilde import _check_term_budget, _check_word_cap
from .qcoeff import DEFAULT_RING, LaurentPoly, NotInvertibleError, power, put, render_sum

DEGREE_CAP = 12  # matrices stay at <= 2^12 columns by default

Word = str  # a word over the alphabet "xy"; "" is the identity


def words_of_length(n: int) -> list:
    """All length-n words in lexicographic order with x < y."""
    return ["".join(w) for w in product("xy", repeat=n)]


class FreeElem:
    """A finite sum of words with LaurentPoly coefficients.  A word is a
    string over "xy", or a tuple of letters where other alphabets are
    needed; products concatenate words, so one element keeps one kind."""

    __slots__ = ("terms",)

    ring = DEFAULT_RING

    def __init__(self, terms: dict):
        self.terms = {w: c for w, c in terms.items() if c}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeElem) and self.terms == other.terms

    __hash__ = None

    def __add__(self, other: "FreeElem") -> "FreeElem":
        terms = dict(self.terms)
        for w, c in other.terms.items():
            put(terms, w, c)
        return FreeElem(terms)

    def __neg__(self) -> "FreeElem":
        return FreeElem({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "FreeElem") -> "FreeElem":
        return self + (-other)

    def __mul__(self, other) -> "FreeElem":
        if isinstance(other, (int, LaurentPoly)):
            c0 = DEFAULT_RING.coerce(other)
            return FreeElem({w: c * c0 for w, c in self.terms.items()})
        if not self.terms or not other.terms:
            return FreeElem({})
        _check_word_cap(
            "free product", max(map(len, self.terms)) + max(map(len, other.terms))
        )
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                put(out, w1 + w2, c1 * c2)
            _check_term_budget("free product", len(out))
        return FreeElem(out)

    def __rmul__(self, other) -> "FreeElem":
        if isinstance(other, (int, LaurentPoly)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "FreeElem":
        if n >= 0:
            empty = next(iter(self.terms), "")[:0]  # a string or a tuple
            return power(self, n, FreeElem({empty: DEFAULT_RING.one()}))
        # only a unit multiple of the empty word is invertible
        if len(self.terms) != 1:
            raise NotInvertibleError("not invertible")
        ((word, coeff),) = self.terms.items()
        if word or not coeff.is_unit():
            raise NotInvertibleError("not invertible")
        return FreeElem({word: coeff ** n})

    def __str__(self) -> str:
        keys = sorted(self.terms, key=lambda w: (-len(w), w))
        return render_sum(((self.terms[w].terms, "*".join(map(str, w))) for w in keys), "*")

    def __repr__(self) -> str:
        return "<FreeElem %s>" % self


def word_elem(word: Word) -> FreeElem:
    if any(ch not in "xy" for ch in word):
        raise ValueError("free words use the alphabet {x, y}")
    return FreeElem({word: DEFAULT_RING.one()})


def serre_elements() -> tuple:
    """The two degree-4 q-Serre combinations, one per generator."""
    one, three = DEFAULT_RING.one(), DEFAULT_RING.qint(3)
    s_x = FreeElem({"xxxy": one, "xxyx": -three, "xyxx": three, "yxxx": -one})
    s_y = FreeElem({"yyyx": one, "yyxy": -three, "yxyy": three, "xyyy": -one})
    return s_x, s_y


def relation_span(n: int) -> list:
    """Spanning set of the ideal's degree-n slice: w1 * S_g * w2, |w1|+|w2| = n-4.

    Each row joins w1 and w2 onto the words of S_g and shares its
    coefficients.  Deterministic order: left length ascending, then left
    word, generator (x before y), right word, all lexicographic.
    """
    if n <= 3:
        return []
    gens = serre_elements()
    _check_word_cap("relation_span", n)
    _check_term_budget("relation_span", max(len(g.terms) for g in gens))
    out = []
    for r in range(n - 3):
        for w1 in words_of_length(r):
            for g in gens:
                for w2 in words_of_length(n - 4 - r):
                    out.append(FreeElem({w1 + w + w2: c for w, c in g.terms.items()}))
    return out


# ---------------------------------------------------------------------------
# Exact rank over the fraction field Q(q).
#
# One pass turns each row into dense coefficient lists, shifted by the
# row's lowest q exponent; no monomial is multiplied.  The entries of a row
# must share one a/b exponent vector, as those of `relation_span` do (it is
# the zero vector there); a row that mixes two is rejected with ValueError,
# since it is no unit multiple of a row over Z[q].  Rows are then reduced
# fraction-free, in one of two ways.
#
# Every stored pivot is stripped of its full content (common q-power,
# integer gcd, and the common polynomial factor of its entries) and given a
# positive top coefficient in its lead entry, so a pivot is primitive, and a
# lead that is a unit of Z[q^+-1] is exactly +q^k.  Reducing by such a pivot
# is new = q^k * row - row_coeff * pivot: each of the row's lists shifts up
# by k, and only the common q-power is shifted out afterwards.  This adds no
# content, since the row is multiplied by a unit, so it needs no strip.  It
# is 1297 of the 1378 reductions at degree 10 and 5104 of 5384 at degree 11.
#
# Any other lead is cross-multiplied (Bareiss-style): the update
# new = pivot_coeff * row - row_coeff * pivot stays in Z[q] but multiplies
# the row by a non-unit, so the row is stripped of its full content
# afterwards.  All divisions are exact, so the result is exact.  Products are
# schoolbook loops over the short dense lists, and the content strip uses a
# primitive polynomial remainder sequence.  Without the polynomial-content
# strip after these steps and on the stored pivots, the entries accumulate
# enormous cyclotomic factors and elimination beyond degree 9 becomes
# infeasible.  Skipping the strip at unit steps does not grow rows: at
# degree 11 the largest entry a row reaches between reductions has 12 bits
# and 45 coefficients, as with a strip after every step.
#
# Rows are fed from the highest lead word down, so the pivots above a row's
# lead are mostly in place before the row is reduced.  The rank does not
# depend on the order; this one was measured, on the blocks eliminated, to
# take about 75 % less time than the span's own order at degree 11 (0.4 s
# against 1.9 s) and 70 % less at degree 12 (8 s against 26 s), and lowest
# lead first is slower still (5 s at degree 11).
#
# The matrix is block diagonal by bidegree: a row w1 * S_g * w2 keeps its
# number of x's in every word, so rows are grouped by x-count and each
# block is eliminated on its own (a set with a row that mixes x-counts stays
# one block).  Swapping x <-> y carries S_x onto S_y, so block (i, n - i) is
# the mirror of block (n - i, i).  The mirror is not assumed: a y-heavy
# block takes the rank of its x-heavy mirror only when the swapped rows of
# that mirror equal its own rows as a multiset, up to sign; otherwise it is
# eliminated too.  The x-heavy side is the one eliminated, because with
# x < y and rows fed from the highest lead down it runs faster than its
# mirror (0.4 s against 0.8 s at degree 11, 8 s against 13 s at degree 12,
# counting the self-mirror middle block on both sides; Python 3.11).
# ---------------------------------------------------------------------------


def _dtrim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def _dmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _dtrim(out)


def _dsub_into(a: list, b: list) -> list:
    """a - b on dense coefficient lists, built in a."""
    if len(a) < len(b):
        a += [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        a[i] -= c
    return _dtrim(a)


def _dsub_scaled(pc: list, row_e: list, rc: list, piv_e: list) -> list:
    """pc * row_e - rc * piv_e on dense coefficient lists."""
    a = _dmul(pc, row_e) if row_e else []
    return _dsub_into(a, _dmul(rc, piv_e) if piv_e else [])


def _dquo_exact(f: list, g: list) -> list:
    """Exact division; raises on a nonzero remainder."""
    if not g:
        raise ZeroDivisionError
    r = list(f)
    dg = len(g) - 1
    lc = g[-1]
    out = [0] * (len(f) - dg)
    for i in range(len(out) - 1, -1, -1):
        c, rem = divmod(r[i + dg], lc)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        if c:
            out[i] = c
            for j, y in enumerate(g):
                r[i + j] -= c * y
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return _dtrim(out)


def _dcontent(f: list) -> int:
    g = 0
    for c in f:
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


def _dprimitive(f: list) -> list:
    g = _dcontent(f)
    if g > 1:
        f = [c // g for c in f]
    if f and f[-1] < 0:
        f = [-c for c in f]
    return f


def _dgcd(f: list, g: list) -> list:
    """Primitive gcd of the polynomial parts (low-order q-powers removed)."""

    def shift_out(h):
        k = 0
        while k < len(h) and h[k] == 0:
            k += 1
        return h[k:]

    f = _dprimitive(shift_out(list(f)))
    g = _dprimitive(shift_out(list(g)))
    if not f:
        return g
    if not g:
        return f
    if len(f) < len(g):
        f, g = g, f
    while True:
        if len(g) == 1:
            return [1]
        # pseudo-remainder of f by g, taken primitive each round
        r = list(f)
        dg = len(g) - 1
        lc = g[-1]
        while len(r) > dg:
            c = r[-1]
            if c:
                r = [lc * x for x in r]
                off = len(r) - 1 - dg
                for j, y in enumerate(g):
                    r[off + j] -= c * y
            r.pop()
            _dtrim(r)
            if not r:
                return g
        f, g = g, _dprimitive(r)


def _shift_q_out(row: dict) -> dict:
    """The row divided by the highest power of q that divides every entry."""
    if not row:
        return row
    shift = 0  # each entry is trimmed, so its top coefficient stops the loop
    while not any(e[shift] for e in row.values()):
        shift += 1
    if shift:
        row = {w: e[shift:] for w, e in row.items()}
    return row


def _strip_row_dense(row: dict) -> dict:
    if not row:
        return row
    row = _shift_q_out(row)
    g_int = 0
    for e in row.values():
        g_int = gcd(g_int, _dcontent(e))
        if g_int == 1:
            break
    if g_int > 1:
        row = {w: [c // g_int for c in e] for w, e in row.items()}
    g = None
    for e in sorted(row.values(), key=len):
        g = e if g is None else _dgcd(g, e)
        if len(g) == 1:
            g = None
            break
    if g is not None and len(g) > 1:
        row = {w: _dquo_exact(e, g) for w, e in row.items()}
    if row[min(row)][-1] < 0:
        row = {w: [-c for c in e] for w, e in row.items()}
    return row


def _rank_dense(rows: list) -> int:
    pivots: dict = {}
    for row in sorted(rows, key=min, reverse=True):
        row = dict(row)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = _strip_row_dense(row)
                break
            pc = pivot[lead]
            rc = row[lead]
            new: dict = {}
            if pc[-1] == 1 and not any(pc[:-1]):
                # the lead is q^k: q^k * row - rc * pivot adds no content,
                # and its lead entry q^k * rc - rc * q^k is not computed
                k = len(pc) - 1
                words = set(row) | set(pivot)
                words.remove(lead)
                for w in words:
                    e = row.get(w)
                    acc = [0] * k + e if e else []
                    piv_e = pivot.get(w)
                    if piv_e:
                        acc = _dsub_into(acc, _dmul(rc, piv_e))
                    if acc:
                        new[w] = acc
                row = _shift_q_out(new)
            else:
                for w in set(row) | set(pivot):
                    acc = _dsub_scaled(pc, row.get(w, []), rc, pivot.get(w, []))
                    if acc:
                        new[w] = acc
                row = _strip_row_dense(new)
    return len(pivots)


def _dense_rows(rows: Sequence[FreeElem], n: int) -> list:
    """Each nonzero row as word -> dense coefficient list in q, shifted by
    the row's lowest q exponent.  Raises ValueError on a word whose length
    is not n, and on a row whose entries carry more than one a/b exponent
    vector: that row is not a unit multiple of a row over Z[q]."""
    dense = []
    for row in rows:
        entries = {}
        ab = set()
        for w, poly in row.terms.items():
            if len(w) != n:
                raise ValueError("row is not homogeneous of degree %d" % n)
            entries[w] = {exps[0]: c for exps, c in poly.terms.items()}
            ab.update(exps[1:] for exps in poly.terms)
        if len(ab) > 1:
            raise ValueError("the exact rank takes rows with coefficients in q alone")
        if not entries:
            continue
        low = min(min(e) for e in entries.values())
        drow = {}
        for w, e in entries.items():
            lst = [0] * (max(e) - low + 1)
            for k, c in e.items():
                lst[k - low] = c
            drow[w] = lst
        dense.append(drow)
    return dense


_SWAP = str.maketrans("xy", "yx")


def _row_key(row: dict, swap: bool = False) -> tuple:
    """A dense row as sorted (word, coefficients) pairs, its words swapped
    x <-> y if asked, and its sign fixed by the first word's top coefficient."""
    items = sorted((w.translate(_SWAP) if swap else w, tuple(e)) for w, e in row.items())
    if items[0][1][-1] < 0:
        items = [(w, tuple(-c for c in e)) for w, e in items]
    return tuple(items)


def rank_over_fraction_field(rows: Sequence[FreeElem], n: int) -> int:
    """Rank of the degree-n coefficient matrix over Q(q); raises ValueError
    on a row that is not a unit multiple of a row over Z[q]."""
    dense = _dense_rows(rows, n)
    blocks: dict = {}
    for row in dense:
        counts = {w.count("x") for w in row}
        if len(counts) > 1:
            return _rank_dense(dense)
        blocks.setdefault(counts.pop(), []).append(row)
    ranks: dict = {}
    for i in sorted(blocks, reverse=True):
        mirror = blocks.get(n - i)
        if (
            i < n - i
            and mirror is not None
            and Counter(map(_row_key, blocks[i]))
            == Counter(_row_key(row, swap=True) for row in mirror)
        ):
            ranks[i] = ranks[n - i]
        else:
            ranks[i] = _rank_dense(blocks[i])
    return sum(ranks.values())


# ---------------------------------------------------------------------------
# Rank at random points mod a prime.
#
# Each of q, a and b is sent to a random nonzero residue mod _PRIME (with
# q^2 != 1), each entry is evaluated there, and the rows are eliminated over
# F_p with every pivot scaled to a leading 1.  This route shares no code with
# the exact elimination.
# ---------------------------------------------------------------------------

_PRIME = (1 << 61) - 1
_POINTS = 3  # random points per rank


def random_residue_point(rng: random.Random) -> tuple:
    """A random nonzero residue mod _PRIME for each of q, a and b, with
    q^2 != 1."""
    values = []
    for sym in DEFAULT_RING.symbols:
        while True:
            v = rng.randrange(1, _PRIME)
            if sym != "q" or v * v % _PRIME != 1:
                values.append(v)
                break
    return tuple(values)


def _residue_rows(rows: Sequence[FreeElem], n: int, point: tuple) -> list:
    """Each row as word -> nonzero residue at the point."""
    monomials: dict = {}
    out = []
    for row in rows:
        if any(len(w) != n for w in row.terms):
            raise ValueError("row is not homogeneous of degree %d" % n)
        residues = {}
        for w, poly in row.terms.items():
            total = 0
            for exps, coeff in poly.terms.items():
                m = monomials.get(exps)
                if m is None:
                    m = 1
                    for v, e in zip(point, exps):
                        if e:
                            m = m * pow(v, e, _PRIME) % _PRIME
                    monomials[exps] = m
                total += coeff * m
            total %= _PRIME
            if total:
                residues[w] = total
        if residues:
            out.append(residues)
    return out


def _rank_mod_p(rows: list) -> int:
    pivots: dict = {}
    for row in rows:
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], -1, _PRIME)
                pivots[lead] = {w: v * inv % _PRIME for w, v in row.items()}
                break
            c = row[lead]
            for w, v in pivot.items():
                acc = (row.get(w, 0) - c * v) % _PRIME
                if acc:
                    row[w] = acc
                else:
                    del row[w]
    return len(pivots)


def rank_by_specialization(
    rows: Sequence[FreeElem], n: int, rng: Optional[random.Random] = None
) -> int:
    """Max rank over _POINTS random points mod 2^61 - 1, an independent
    cross-check of the exact rank.

    Evaluation at a point is a ring map Z[q^+-1, a^+-1, b^+-1] -> F_p, so
    the result is a lower bound for the rank over the fraction field.  It
    falls short only if every point is a root of each nonzero maximal
    minor, which a random point mod a 61-bit prime is with negligible
    probability.
    """
    if not rows:
        return 0
    rng = rng or random.Random(0x51DE)
    best = 0
    for _ in range(_POINTS):
        point = random_residue_point(rng)
        best = max(best, _rank_mod_p(_residue_rows(rows, n, point)))
    return best


def dim_uplus(n: int) -> int:
    """Graded dimension in degree n of the quotient by the q-Serre ideal."""
    if n < 0:
        raise ValueError("degree must be a natural number")
    if n > DEGREE_CAP:
        raise ValueError("degree %d exceeds the cap %d" % (n, DEGREE_CAP))
    return 2 ** n - rank_over_fraction_field(relation_span(n), n)
