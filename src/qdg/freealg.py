"""The free algebra on two generators x, y with its length grading.

Provides the degree-4 q-Serre combinations, a rewriting system for the
ideal they generate, built one degree at a time, and the lead words of
that ideal at a random point mod a prime, grown one degree at a time:
`qdg dims` runs these two.  The spanning sets of the ideal in each
degree, an exact rank over Q(q) for rows with coefficients in q alone
and a rank at random points mod the prime serve the tests and
perfbench's traced `dims` round; no command calls them.  A q-Serre
combination and a row of a span are plain dicts word -> `LaurentPoly`
over the package's one ring Z[q^+-1, a^+-1, b^+-1], and a zero
coefficient counts as an absent word.  The exact rank holds the
coefficients as Laurent entries in q, the rules as Laurent entries in
t = q^2, and the mod-p routes read the `LaurentPoly`s, a and b included.
The graded dimensions of the quotient by the q-Serre ideal are the
numbers of words that no rule rewrites; the lead words of the ideal at a
random point mod p, from `span_leads_mod_p`, cross-check them and share
no code with the rules.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from itertools import count, product
from math import gcd
from typing import Optional, Sequence

from .limits import _check_term_budget, _check_word_cap
from .qcoeff import DEFAULT_RING

DEGREE_CAP = 13  # `dims --max 13`: about 0.95 s CPU, 0.56 s the walk, 0.28 s the rules

Word = str  # a word over the alphabet "xy"; "" is the identity


def words_of_length(n: int) -> list:
    """All length-n words in lexicographic order with x < y."""
    return ["".join(w) for w in product("xy", repeat=n)]


def serre_elements() -> tuple:
    """The two degree-4 q-Serre combinations, one per generator."""
    one, three = DEFAULT_RING.one(), DEFAULT_RING.qint(3)
    s_x = {"xxxy": one, "xxyx": -three, "xyxx": three, "yxxx": -one}
    s_y = {"yyyx": one, "yyxy": -three, "yxyy": three, "xyyy": -one}
    return s_x, s_y


def relation_span(n: int) -> list:
    """Spanning set of the ideal's degree-n slice: w1 * S_g * w2, |w1|+|w2| = n-4.

    Each row joins w1 and w2 onto the words of S_g and shares its
    coefficients.  Deterministic order: left length ascending, then left
    word, generator (x before y), right word, all lexicographic.  The word
    cap applies to n and the term budget to a q-Serre combination, under
    the name `relation_span`; neither applies below degree 4.
    """
    if n <= 3:
        return []
    gens = serre_elements()
    _check_word_cap("relation_span", n)
    _check_term_budget("relation_span", max(map(len, gens)))
    out = []
    for r in range(n - 3):
        for w1 in words_of_length(r):
            for g in gens:
                for w2 in words_of_length(n - 4 - r):
                    out.append({w1 + w + w2: c for w, c in g.items()})
    return out


# ---------------------------------------------------------------------------
# Fraction-free reduction over Z[x], x = q or x = t = q^2: one step,
# `_rewrite`, serves the rules (in t) and the exact rank (in q).
#
# A row maps words of one length to coefficients in Z[x^+-1], and its lead is
# its lexicographically smallest word.  Rows, rules and pivots hold one form:
# each coefficient is a Laurent entry (k, list) for x^k * sum list[i] x^i,
# with both ends of the list nonzero.  `_dense_rows` builds span rows in that
# form, in q, with no Laurent arithmetic; a row whose entries carry more than
# one a/b exponent vector is rejected, since it is no unit multiple of a row
# over Z[q].  The only coefficient of the q-Serre combinations is
# [3] = q^2 + 1 + q^-2, so the rules start from their two rows in t through
# `_in_q_squared`, which refuses an odd power of q rather than drop it, and
# stay in Z[t^+-1]: ring operations, exact division, primitive gcds and the
# shift to lowest power 0 keep it closed.  That halves every list the rules
# touch.  Every pivot (a rule, or a pivot of the exact rank) is stripped by
# `_strip_row_dense`, so a lead entry that is a unit of Z[x^+-1] is (k, [1]).
#
# A step rewrites the word w = u * lead * v of a row f by a pivot.  For a
# lead entry x^k it is f - x^-k * f[w] * u * pivot * v: it touches only the
# entries the pivot brings in, never all of f, and leaves f unscaled, so it
# adds no content and needs no strip; `_sub_product` subtracts each product
# f[w] * entry straight into a copy of f's entry.  Any other lead entry p is
# cross-multiplied (Bareiss-style), p * f - f[w] * u * pivot * v up to a
# power of x, which stays over Z[x] but multiplies f by a non-unit; so f is
# then stripped of its full content: common x-power, integer gcd, and the
# common polynomial factor of its entries, found by a primitive remainder
# sequence.  Without that strip the entries pile up cyclotomic factors and
# elimination past degree 9 is infeasible.  All divisions are exact.  At
# degree 10 the exact rank takes 2122 unit steps and 135 cross-multiplied
# ones.
#
# The exact rank rewrites each row at its lead by the pivot there until the
# lead has none, and the stripped row becomes that pivot.  Rows are fed from
# the highest lead word down, so the pivots above a row's lead are mostly in
# place before it is reduced.  The rank does not depend on the order, but on
# the q-Serre span its own row order took about four times as long at degree
# 11, and lowest lead first longer still.
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
    """Primitive gcd of two lists, each empty (zero) or with nonzero ends."""
    f = _dprimitive(f)
    g = _dprimitive(g)
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


def _strip_row_dense(row: dict) -> dict:
    """A nonzero row divided by its full content, with lowest power 0 and
    signed so that the top coefficient of its lead entry is positive."""
    low = min(k for k, _ in row.values())
    g_int = 0
    for _, e in row.values():
        g_int = gcd(g_int, _dcontent(e))
        if g_int == 1:
            break
    g = []
    for e in sorted((e for _, e in row.values()), key=len):
        g = _dgcd(g, e)
        if len(g) == 1:
            break
    content = [g_int * c for c in g]
    if row[min(row)][1][-1] < 0:
        content = [-c for c in content]
    if content != [1]:
        row = {w: (k - low, _dquo_exact(e, content)) for w, (k, e) in row.items()}
    elif low:
        row = {w: (k - low, e) for w, (k, e) in row.items()}
    return row


def _rank_dense(rows: list) -> int:
    pivots: dict = {}
    for row in sorted(rows, key=min, reverse=True):
        f = dict(row)
        while f:
            lead = min(f)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = _strip_row_dense(f)
                break
            f = _rewrite(f, lead, 0, lead, pivot, "rank_over_fraction_field")
    return len(pivots)


def _dense_rows(rows: Sequence[dict], n: int) -> list:
    """Each nonzero row as word -> Laurent entry, shifted by the row's
    lowest q exponent, with zero coefficients left out.  Raises ValueError
    on a word whose length is not n, and on a row whose entries carry more
    than one a/b exponent vector: that row is not a unit multiple of a row
    over Z[q]."""
    dense = []
    for row in rows:
        entries = {}
        ab = set()
        for w, poly in row.items():
            if len(w) != n:
                raise ValueError("row is not homogeneous of degree %d" % n)
            if not poly:
                continue
            entries[w] = {exps[0]: c for exps, c in poly.terms.items()}
            ab.update(exps[1:] for exps in poly.terms)
        if len(ab) > 1:
            raise ValueError("the exact rank takes rows with coefficients in q alone")
        if not entries:
            continue
        low = min(min(e) for e in entries.values())
        drow = {}
        for w, e in entries.items():
            k = min(e)
            lst = [0] * (max(e) - k + 1)
            for j, c in e.items():
                lst[j - k] = c
            drow[w] = (k - low, lst)
        dense.append(drow)
    return dense


def rank_over_fraction_field(rows: Sequence[dict], n: int) -> int:
    """Rank of the degree-n coefficient matrix over Q(q); raises ValueError
    on a row that is not a unit multiple of a row over Z[q].  The exact
    reference for arbitrary row sets; `dims` counts words of the rewriting
    system below instead.  The term budget applies to each reduced row."""
    return _rank_dense(_dense_rows(rows, n))


def _in_q_squared(row: dict) -> dict:
    """A row of Laurent entries in q as entries in t = q^2; raises
    ValueError on an entry with an odd power of q."""
    out = {}
    for w, (k, e) in row.items():
        if k % 2 or any(e[1::2]):
            raise ValueError("entry of %s has an odd power of q" % w)
        out[w] = (k // 2, e[::2])
    return out


def _sub_product(f: Optional[tuple], k: int, a: list, e: list) -> Optional[tuple]:
    """f - x^k * a * e on Laurent entries in one variable x (t = q^2 in the
    rules, q in the exact rank), written into a padded copy of f's list;
    a and e have nonzero ends, and None stands for 0."""
    if f is None:
        out = [0] * (len(a) + len(e) - 1)
        low = k
    else:
        kf, ef = f
        low = min(kf, k)
        out = [0] * (max(kf + len(ef), k + len(a) + len(e) - 1) - low)
        out[kf - low:kf - low + len(ef)] = ef
    # e, the pivot's entry, is mostly the shorter list (one to three long
    # in the rules), so it is the outer loop
    for j, c in enumerate(e, k - low):
        if c:
            for i, b in enumerate(a, j):
                out[i] -= b * c
    if not _dtrim(out):
        return None
    i = 0
    while out[i] == 0:
        i += 1
    return low + i, out[i:]


def _rewrite(f: dict, w: Word, i: int, lead: Word, rule: dict, op: str) -> dict:
    """One reduction step: the word w of the row f, with `lead` at offset
    i, rewritten by `rule`.  Takes f over, and applies the term budget to
    the result under the name `op`."""
    u, v = w[:i], w[i + len(lead):]
    ka, a = f.pop(w)
    kc, c = rule[lead]
    if c != [1]:
        f = {x: (k, _dmul(c, e)) for x, (k, e) in f.items()}
    for x, (k, e) in rule.items():
        if x != lead:
            x = u + x + v
            acc = _sub_product(f.get(x), ka - kc + k, a, e)
            if acc is None:
                del f[x]
            else:
                f[x] = acc
    if c != [1] and f:
        f = _strip_row_dense(f)
    _check_term_budget(op, len(f))
    return f


def _reduce(f: dict, rules: list) -> dict:
    """The row f with every word that has a lead as a factor rewritten, up
    to a nonzero factor in Z[t]; f itself is left as it is."""
    f = dict(f)
    # words only grow, so each is settled once popped, and a word of f not
    # yet popped is on the heap: a rewrite pushes only the words it brings
    # into f.  One that cancels and comes back is pushed again; `last`
    # skips the second copy
    heap = sorted(f)
    last = None
    while heap:
        w = heappop(heap)
        if w == last or w not in f:
            continue
        last = w
        for lead, rule in rules:
            i = w.find(lead)
            if i >= 0:
                u, v = w[:i], w[i + len(lead):]
                # the lead gives w itself, which is in f
                new = [x for y in rule if (x := u + y + v) not in f]
                f = _rewrite(f, w, i, lead, rule, "serre_rules")
                for x in new:
                    heappush(heap, x)
                break
    return f


def add_serre_rules(rules: list, d: int) -> list:
    """Appends to `rules`, which holds the rules of degrees below d, those
    of degree d, and returns the new ones; a rule is (lead, row of Laurent
    entries in t = q^2).

    This is Bergman's diamond lemma truncated by degree.  On words of one
    length the lead order is compatible with concatenation, so rewriting
    u * lead * v brings in only larger words and reduction ends.  The rules
    of degree 4 are S_x (lead xxxy) and S_y (lead xyyy).  Each overlap word
    l1 * c = a * l2 of length d, with l1 = a * b, l2 = b * c and b nonempty,
    gives rule1 * c with that word rewritten by rule2, which lies in the
    ideal; it is reduced by every rule so far, smallest reducible word
    first, and a nonzero remainder is stripped and becomes a rule.  The
    rules of degree d are then reduced by each other, so they are the
    reduced basis of the ideal through d, unique up to the normalisation of
    `_strip_row_dense`, and the length-d words with no lead as a factor are
    a basis of the quotient's degree-d slice.  Lead entries other than t^k
    occur only while a degree is built (first at xxyxyxyyxy, 1 + t + t^2
    up to a power of t); through degree 13 every finished rule has a lead
    entry t^k.  Through degree 11 this takes about 0.033 s and through
    degree 13 about 0.28 s, against 0.036 and 0.31 s when a rewrite pushes
    its whole image onto the heap of `_reduce` (73,072 pushes through
    degree 13 against 12,811, for the same 11,108 rewrites; CPU medians,
    Python 3.11, 2-CPU machine).

    The word cap applies to d and the term budget to each remainder, under
    the name `serre_rules`."""
    if d <= 3:
        return []
    _check_word_cap("serre_rules", d)
    new = []
    if d == 4:
        for row in _dense_rows(serre_elements(), 4):
            _check_term_budget("serre_rules", len(row))
            row = _strip_row_dense(_in_q_squared(row))
            new.append((min(row), row))
    # each overlap word l1 * c = a * l2 of length d: rule1 * c with that
    # word rewritten by rule2
    overlaps = [
        (l1, r1, l2, r2, len(l1) + len(l2) - d)
        for l1, r1 in rules
        for l2, r2 in rules
        if 0 < len(l1) + len(l2) - d < min(len(l1), len(l2))
    ]
    for l1, r1, l2, r2, k in overlaps:
        if l1[-k:] == l2[:k]:
            f = {w + l2[k:]: e for w, e in r1.items()}
            f = _rewrite(f, l1 + l2[k:], len(l1) - k, l2, r2, "serre_rules")
            f = _reduce(f, rules + new)
            if f:
                f = _strip_row_dense(f)
                new.append((min(f), f))
    # the rules of degree d reduced by each other, last first
    for i in range(len(new) - 2, -1, -1):
        lead, row = new[i]
        row = _reduce(row, new[i + 1:])
        new[i] = (lead, _strip_row_dense(row))
    new.sort()
    rules.extend(new)
    return new


def serre_rules(n: int) -> list:
    """The rules of every degree up to n, lowest degree first."""
    rules: list = []
    for d in range(n + 1):
        add_serre_rules(rules, d)
    return rules


def irreducible_words(rules: list, n: int) -> list:
    """The length-n words with no lead as a factor, in lexicographic order.
    A word qualifies when its prefix one letter shorter does and no lead is
    a suffix of it."""
    leads = tuple(lead for lead, _ in rules)
    words = [""]
    for _ in range(n):
        words = [w + ch for w in words for ch in "xy" if not (w + ch).endswith(leads)]
    return words


# ---------------------------------------------------------------------------
# Rank at random points mod a prime.
#
# Each of q, a and b is sent to a random nonzero residue mod _PRIME (with
# q^2 != 1), each entry is evaluated there, and the rows are eliminated over
# F_p with every pivot scaled to a leading 1, by one step, `_echelon_add`.
# It serves the rank of arbitrary rows and the degree-by-degree walk that
# `dims` takes, and shares no code with `_rewrite`, the reduction step of
# both the rules and the exact rank.
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


def _residue_rows(rows: Sequence[dict], n: int, point: tuple) -> list:
    """Each row as word -> nonzero residue at the point."""
    monomials: dict = {}
    out = []
    for row in rows:
        if any(len(w) != n for w in row):
            raise ValueError("row is not homogeneous of degree %d" % n)
        residues = {}
        for w, poly in row.items():
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


def _echelon_add(pivots: dict, row: dict) -> None:
    """Reduces the residue row, which it takes over, by the pivots (lead
    word -> row with a leading 1) until its lead has no pivot, and makes
    the rest, if nonzero, the pivot at that lead."""
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            inv = pow(row[lead], -1, _PRIME)
            pivots[lead] = {w: v * inv % _PRIME for w, v in row.items()}
            return
        c = row[lead]
        for w, v in pivot.items():
            acc = (row.get(w, 0) - c * v) % _PRIME
            if acc:
                row[w] = acc
            else:
                del row[w]


def span_leads_mod_p(point: tuple):
    """Yields, for n = 0, 1, 2, ..., the leading words of the degree-n
    slice of the q-Serre ideal at the point, as the `keys()` view of the
    degree-n pivots.  Each degree builds a new map and never changes one
    it has yielded, so a view keeps its degree's words after the next step.

    That slice is the degree-(n-1) slice times x, plus the same slice times
    y, plus w * S_g for the words w of length n - 4.  Appending a letter
    keeps the order of words of one length, so the degree-(n-1) pivots,
    each copied with x and with y appended, are an echelon form with
    distinct leads, and only the rows w * S_g are reduced into it.

    A word leads exactly when adding its column raises the rank of the
    columns of smaller words, and a rank at a random point is the one over
    Q(q) off the roots of a nonzero minor: so are the leads.
    """
    gens = _residue_rows(serre_elements(), 4, point)
    pivots: dict = {}
    for n in count():
        if n:
            pivots = {
                lead + ch: {w + ch: v for w, v in pivot.items()} for lead, pivot in pivots.items() for ch in "xy"
            }
        if n >= 4:
            for w in words_of_length(n - 4):
                for g in gens:
                    _echelon_add(pivots, {w + x: v for x, v in g.items()})
        yield pivots.keys()


def rank_by_specialization(
    rows: Sequence[dict], n: int, rng: Optional[random.Random] = None
) -> int:
    """Max rank over _POINTS random points mod 2^61 - 1, drawn from rng (by
    default a fixed seed) one point at a time.  It shares no code with
    `_rewrite`, so it checks the exact rank, which reduces by that step.

    Evaluation at a point is a ring map Z[q^+-1, a^+-1, b^+-1] -> F_p, so
    the result is a lower bound for the rank over the fraction field.  It
    falls short only if every point is a root of each nonzero maximal
    minor, which a random point mod a 61-bit prime is with negligible
    probability.
    """
    if not rows:
        return 0
    rng = rng or random.Random(0x51DE)
    rank = 0
    for _ in range(_POINTS):
        pivots: dict = {}
        for row in _residue_rows(rows, n, random_residue_point(rng)):
            _echelon_add(pivots, row)
        rank = max(rank, len(pivots))
    return rank


def dim_uplus(n: int) -> int:
    """Graded dimension in degree n of the quotient by the q-Serre ideal:
    the number of length-n words irreducible by the rewriting system."""
    if n < 0:
        raise ValueError("degree must be a natural number")
    if n > DEGREE_CAP:
        raise ValueError("degree %d exceeds the cap %d" % (n, DEGREE_CAP))
    return len(irreducible_words(serre_rules(n), n))
