"""The seeded expression stream of the `nf` workload, and its expected
values by a route that shares no code with the normal-form engine.

An expression is a product of 1-4 factors; a factor is a sum of 1-3 terms,
and some factors are squared.  A term is a signed integer times
q^i a^j b^k times a word of 1-4 generators x0..x3, with an occasional
central c_i^(+-1).  The summed word length over the factors (a squared
factor counts twice, each factor by its longest term) is capped, so every
product in the expansion stays short enough for the module-action oracle.
"""

from __future__ import annotations

import itertools
import random
from typing import List, NamedTuple, Optional, Tuple

from qdg import boxtilde as bt
from qdg.qcoeff import DEFAULT_RING as RING

WORD_CAP = 8
COEFFS = (1, 1, 1, 2, 3, 5, -1, -1, -2, -3)
EXPONENTS = (0, 0, 0, 1, -1, 2, -2)
SQUARE_RATE = 0.2
CENTRAL_RATE = 0.2
SHAPE_SEED = 20260810


class Term(NamedTuple):
    coeff: int
    exps: Tuple[int, int, int]  # powers of q, a, b
    word: Tuple[int, ...]
    central: Optional[Tuple[int, int]]  # (index, +-1)


class Factor(NamedTuple):
    terms: Tuple[Term, ...]
    squared: bool


def _shape(rng: random.Random) -> Tuple[Tuple[bool, Tuple[int, ...]], ...]:
    """Per factor: squared or not, and the word length of each term."""
    while True:
        shape = []
        length = 0
        for _ in range(rng.randint(1, 4)):
            lengths = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
            squared = rng.random() < SQUARE_RATE
            grow = max(lengths) * (2 if squared else 1)
            if length + grow <= WORD_CAP:
                length += grow
                shape.append((squared, lengths))
        if shape:
            return tuple(shape)


def _term(rng: random.Random, length: int) -> Term:
    coeff = rng.choice(COEFFS)
    exps = tuple(rng.choice(EXPONENTS) for _ in range(3))
    word = tuple(rng.randrange(4) for _ in range(length))
    central = None
    if rng.random() < CENTRAL_RATE:
        central = (rng.randrange(4), rng.choice((1, -1)))
    return Term(coeff, exps, word, central)


def _term_text(t: Term) -> str:
    parts = [str(abs(t.coeff))] if abs(t.coeff) != 1 else []
    for sym, e in zip("qab", t.exps):
        if e:
            parts.append(sym if e == 1 else "%s^%d" % (sym, e))
    parts += ["x%d" % l for l in t.word]
    if t.central:
        i, e = t.central
        parts.append("c%d" % i if e == 1 else "c%d^-1" % i)
    return "*".join(parts)


def to_text(expression: Tuple[Factor, ...]) -> str:
    """Surface syntax accepted by `qdg nf`."""
    out = []
    for factor in expression:
        body = ""
        for k, t in enumerate(factor.terms):
            if k == 0:
                body = ("-" if t.coeff < 0 else "") + _term_text(t)
            else:
                body += (" - " if t.coeff < 0 else " + ") + _term_text(t)
        out.append("(%s)^2" % body if factor.squared else "(%s)" % body)
    return "*".join(out)


def stream(seed: int, count: int) -> List[Tuple[str, Tuple[Factor, ...]]]:
    """`count` distinct (text, structure) pairs; one seed gives one stream.

    The sequence of shapes (factor count, squares, word lengths) is the same
    for every seed, and the seed draws letters, coefficients and centrals.
    The cost of an expression depends mostly on its shape, so fixing the
    shapes keeps the heavy tail of the stream, and with it the run time and
    the p99, from changing with the seed.
    """
    shapes = random.Random(SHAPE_SEED)
    content = random.Random(seed)
    seen = set()
    out = []
    while len(out) < count:
        expression = tuple(
            Factor(tuple(_term(content, n) for n in lengths), squared)
            for squared, lengths in _shape(shapes)
        )
        text = to_text(expression)
        if text not in seen:
            seen.add(text)
            out.append((text, expression))
    return out


def expand(expression: Tuple[Factor, ...]) -> dict:
    """Distribute the product: token tuple -> (coefficient, q/a/b exponents)
    summed as a Laurent polynomial.  Tokens are generator indices and
    ("c", i, e) central letters, in product order."""
    sequence = []
    for factor in expression:
        sequence += [factor.terms] * (2 if factor.squared else 1)
    out: dict = {}
    for combo in itertools.product(*sequence):
        coeff = 1
        exps = [0, 0, 0]
        tokens: list = []
        for t in combo:
            coeff *= t.coeff
            exps = [x + y for x, y in zip(exps, t.exps)]
            tokens += t.word
            if t.central:
                tokens.append(("c",) + t.central)
        key = tuple(tokens)
        out[key] = out.get(key, RING.zero()) + RING.monomial(coeff, tuple(exps))
    return out


def expected_value(expression: Tuple[Factor, ...], memo: dict) -> bt.BoxElem:
    """The expression's value through the module-action oracle: each expanded
    token list acts on 1 (x) 1 (x) 1, and the images are summed.  `memo`
    maps token tuples to oracle images and may be shared across calls."""
    terms: dict = {}
    for tokens, scalar in expand(expression).items():
        if not scalar:
            continue
        image = memo.get(tokens)
        if image is None:
            image = memo[tokens] = bt.oracle_as_box(bt.module_action_oracle(tokens))
        for mono, c in image.terms.items():
            terms[mono] = terms.get(mono, RING.zero()) + c * scalar
    return bt.BoxElem(RING, terms)
