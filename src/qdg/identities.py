"""Fixture-driven identity suite for the box algebra.

Every coefficient table is stored as data, with a one-line provenance note
per table, and compared against the rewriting engine; a transcription error
in a fixture therefore shows up as a disagreement instead of being silently
shared with the engine.  Every check group has a registered negative
control: a deliberately perturbed twin that must fail.
"""

from __future__ import annotations

import operator
import random
from functools import reduce
from typing import Callable, List, Optional, Sequence, Tuple

from . import boxtilde as bt
from .boxtilde import (
    BoxElem,
    NormalMono,
    ZERO_CENTRAL,
    central_gen,
    generator,
    reduce_word,
    rho,
    s_element,
    scale_auto,
)
from .expr import Mono, parse
from .qcoeff import DEFAULT_RING, LaurentPoly, put

RING = DEFAULT_RING
_ONE = RING.one()
_THREE = RING.qint(3)


def _qp(k: int) -> LaurentPoly:
    return RING.qpow(k)


class CheckResult:
    """Outcome of one check, named by its registry key; witness is the
    nonzero difference (or a short description) when the check fails."""

    def __init__(self, status: str, witness: object = None):
        self.status = status
        self.witness = witness

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.status, self.witness) == (other.status, other.witness)

    __hash__ = None

    def __repr__(self) -> str:
        return "CheckResult(status=%r, witness=%r)" % (self.status, self.witness)

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def verdict(ok: bool, witness=None) -> CheckResult:
    """A pass, or a fail carrying the witness."""
    return CheckResult("pass") if ok else CheckResult("fail", witness)


Check = Tuple[str, Callable[[], CheckResult]]


def _diff_check(name: str, diff: Callable[..., BoxElem], *args) -> Check:
    """A check that passes when diff(*args) is zero."""

    def run() -> CheckResult:
        d = diff(*args)
        return verdict(not d, d)

    return name, run


def _bool_check(name: str, holds: Callable[..., bool], witness: str, *args) -> Check:
    return name, lambda: verdict(holds(*args), witness)


def _control(name: str, diff: Callable[..., object], *args) -> Check:
    """A negative control: passes when diff(*args), a perturbed twin of a
    check, is nonzero."""
    return name, lambda: verdict(bool(diff(*args)), "perturbation was not detected")


# ---------------------------------------------------------------------------
# Fixture tables
# ---------------------------------------------------------------------------


class CoeffTable:
    """Expansions of the products named by `columns`: each grid row is a
    basis monomial and its coefficient in every column, 0 where absent."""

    def __init__(self, name: str, source: str, columns: Tuple[str, ...], grid: List[Tuple[NormalMono, list]]):
        for _, entries in grid:
            if len(entries) != len(columns):
                raise ValueError("row width mismatch in table %s" % name)
        self.name = name
        self.source = source
        self.columns = columns
        self.grid = grid


def M(even: str = "", odd: str = "", c: str = "") -> NormalMono:
    """Build a basis monomial from dotted specs, e.g. M("x0.x2", "x1", "c0^2"),
    read as the bracket text "[x0.x2 | x1 | c0^2]"; ParseError for a bad
    slot."""
    node = parse("[%s | %s | %s]" % (even or "-", odd or "-", c or "-"))
    if not isinstance(node, Mono):
        raise ValueError("not a monomial spec: %r" % ((even, odd, c),))
    return NormalMono(node.even, node.odd, node.central)


def _build_tables() -> List[CoeffTable]:
    one = _ONE
    three = _THREE
    q2, qm2 = _qp(2), _qp(-2)
    q4, qm4 = _qp(4), _qp(-4)
    q6, qm6 = _qp(6), _qp(-6)
    two_plus_q2 = RING.from_int(2) + q2
    qdiff_sq = (_qp(1) - _qp(-1)) ** 2

    tables = [
        CoeffTable(
            "a2",
            "normal-basis expansion of (x0+x1)^2",
            ("a2",),
            [
                (M("x0.x0"), [one]),
                (M("x0", "x1"), [one + q2]),
                (M(odd="x1.x1"), [one]),
                (M(c="c0"), [one - q2]),
            ],
        ),
        CoeffTable(
            "ab",
            "normal-basis expansion of (x0+x1)(x2+x3)",
            ("ab",),
            [
                (M("x0.x2"), [one]),
                (M("x0", "x3"), [one]),
                (M("x2", "x1"), [qm2]),
                (M(odd="x1.x3"), [one]),
                (M(c="c1"), [one - qm2]),
            ],
        ),
        CoeffTable(
            "ba",
            "normal-basis expansion of (x2+x3)(x0+x1)",
            ("ba",),
            [
                (M("x2.x0"), [one]),
                (M("x0", "x3"), [qm2]),
                (M("x2", "x1"), [one]),
                (M(odd="x3.x1"), [one]),
                (M(c="c3"), [one - qm2]),
            ],
        ),
        CoeffTable(
            "x1x0x2",
            "normal-basis expansion of x1*x0*x2",
            ("x1x0x2",),
            [
                (M("x0.x2", "x1"), [one]),
                (M("x0", c="c1"), [q2 - one]),
                (M("x2", c="c0"), [one - q2]),
            ],
        ),
        CoeffTable(
            "x1x1x0",
            "normal-basis expansion of x1^2*x0",
            ("x1x1x0",),
            [
                (M("x0", "x1.x1"), [q4]),
                (M(odd="x1", c="c0"), [one - q4]),
            ],
        ),
        CoeffTable(
            "x1x1x2",
            "normal-basis expansion of x1^2*x2",
            ("x1x1x2",),
            [
                (M("x2", "x1.x1"), [qm4]),
                (M(odd="x1", c="c1"), [one - qm4]),
            ],
        ),
        CoeffTable(
            "x1x2x0",
            "normal-basis expansion of x1*x2*x0",
            ("x1x2x0",),
            [
                (M("x2.x0", "x1"), [one]),
                (M("x2", c="c0"), [qm2 - one]),
                (M("x0", c="c1"), [one - qm2]),
            ],
        ),
        CoeffTable(
            "x1x3x0",
            "normal-basis expansion of x1*x3*x0",
            ("x1x3x0",),
            [
                (M("x0", "x1.x3"), [one]),
                (M(odd="x1", c="c3"), [one - qm2]),
                (M(odd="x3", c="c0"), [qm2 - one]),
            ],
        ),
        CoeffTable(
            "x1x0x0",
            "normal-basis expansion of x1*x0^2",
            ("x1x0x0",),
            [
                (M("x0.x0", "x1"), [q4]),
                (M("x0", c="c0"), [one - q4]),
            ],
        ),
        CoeffTable(
            "x3x0x0",
            "normal-basis expansion of x3*x0^2",
            ("x3x0x0",),
            [
                (M("x0.x0", "x3"), [qm4]),
                (M("x0", c="c3"), [one - qm4]),
            ],
        ),
        CoeffTable(
            "x3x1x0",
            "normal-basis expansion of x3*x1*x0",
            ("x3x1x0",),
            [
                (M("x0", "x3.x1"), [one]),
                (M(odd="x1", c="c3"), [q2 - one]),
                (M(odd="x3", c="c0"), [one - q2]),
            ],
        ),
        CoeffTable(
            "x1x1x0x2",
            "normal-basis expansion of x1^2*x0*x2",
            ("x1x1x0x2",),
            [
                (M("x0.x2", "x1.x1"), [one]),
                (M("x0", "x1", "c1"), [q4 - one]),
                (M("x2", "x1", "c0"), [qm2 - q2]),
                (M(c="c0.c1"), [(one - q2) * (q2 - qm2)]),
            ],
        ),
        CoeffTable(
            "x1x1x2x0",
            "normal-basis expansion of x1^2*x2*x0",
            ("x1x1x2x0",),
            [
                (M("x2.x0", "x1.x1"), [one]),
                (M("x0", "x1", "c1"), [q2 - qm2]),
                (M("x2", "x1", "c0"), [qm4 - one]),
                (M(c="c0.c1"), [(qm2 - one) * (q2 - qm2)]),
            ],
        ),
        CoeffTable(
            "x1x3x0x0",
            "normal-basis expansion of x1*x3*x0^2",
            ("x1x3x0x0",),
            [
                (M("x0.x0", "x1.x3"), [one]),
                (M("x0", "x1", "c3"), [q2 - qm2]),
                (M("x0", "x3", "c0"), [qm4 - one]),
                (M(c="c0.c3"), [(qm2 - one) * (q2 - qm2)]),
            ],
        ),
        CoeffTable(
            "x3x1x0x0",
            "normal-basis expansion of x3*x1*x0^2",
            ("x3x1x0x0",),
            [
                (M("x0.x0", "x3.x1"), [one]),
                (M("x0", "x1", "c3"), [q4 - one]),
                (M("x0", "x3", "c0"), [qm2 - q2]),
                (M(c="c0.c3"), [(one - q2) * (q2 - qm2)]),
            ],
        ),
        CoeffTable(
            "expand",
            "normal-basis expansions of A^3B, A^2BA, ABA^2, BA^3 for A=x0+x1, B=x2+x3",
            ("a3b", "a2ba", "aba2", "ba3"),
            [
                (M("x0.x0.x0.x2"), [one, 0, 0, 0]),
                (M("x0.x0.x2.x0"), [0, one, 0, 0]),
                (M("x0.x2.x0.x0"), [0, 0, one, 0]),
                (M("x2.x0.x0.x0"), [0, 0, 0, one]),
                (M(odd="x1.x1.x1.x3"), [one, 0, 0, 0]),
                (M(odd="x1.x1.x3.x1"), [0, one, 0, 0]),
                (M(odd="x1.x3.x1.x1"), [0, 0, one, 0]),
                (M(odd="x3.x1.x1.x1"), [0, 0, 0, one]),
                (M("x0.x0.x0", "x3"), [one, qm2, qm4, qm6]),
                (M("x2", "x1.x1.x1"), [qm6, qm4, qm2, one]),
                (M("x0", "x1.x1.x3"), [q2 * three, q2, 0, 0]),
                (M("x0", "x1.x3.x1"), [0, q2 + one, q2 + one, 0]),
                (M("x0", "x3.x1.x1"), [0, 0, one, three]),
                (M("x0.x0.x2", "x1"), [three, one, 0, 0]),
                (M("x0.x2.x0", "x1"), [0, q2 + one, q2 + one, 0]),
                (M("x2.x0.x0", "x1"), [0, 0, q2, q2 * three]),
                (M("x0.x0", "x1.x3"), [q2 * three, q2 + one, one, 0]),
                (M("x0.x0", "x3.x1"), [0, one, qm2 + one, qm2 * three]),
                (M("x0.x2", "x1.x1"), [qm2 * three, qm2 + one, one, 0]),
                (M("x2.x0", "x1.x1"), [0, one, q2 + one, q2 * three]),
                (
                    M("x0.x0", c="c1"),
                    [(q2 - one) * three, q2 - qm2, one - qm2, 0],
                ),
                (
                    M("x0.x0", c="c3"),
                    [0, one - qm2, one - qm4, qm2 * (one - qm2) * three],
                ),
                (
                    M("x0.x2", c="c0"),
                    [(one - q2) * two_plus_q2, qm2 - q2, one - q2, 0],
                ),
                (
                    M("x2.x0", c="c0"),
                    [0, one - q2, qm2 - q2, (one - q2) * two_plus_q2],
                ),
                (
                    M("x0", "x1", "c1"),
                    [(q2 - qm2) * three, 2 * (q2 - qm2), q2 - qm2, 0],
                ),
                (
                    M("x0", "x1", "c3"),
                    [0, q2 - qm2, 2 * (q2 - qm2), (q2 - qm2) * three],
                ),
                (
                    M("x0", "x3", "c0"),
                    [
                        (one - q2) * two_plus_q2,
                        (qm2 - one) * (q2 + 2),
                        (qm2 - one) * three,
                        (qm2 - one) * (q2 + 2),
                    ],
                ),
                (
                    M("x2", "x1", "c0"),
                    [
                        (qm2 - one) * two_plus_q2,
                        (qm2 - one) * three,
                        (qm2 - one) * (q2 + 2),
                        (one - q2) * two_plus_q2,
                    ],
                ),
                (
                    M(odd="x1.x1", c="c1"),
                    [qm2 * (one - qm2) * three, one - qm4, one - qm2, 0],
                ),
                (
                    M(odd="x1.x1", c="c3"),
                    [0, one - qm2, q2 - qm2, (q2 - one) * three],
                ),
                (
                    M(odd="x1.x3", c="c0"),
                    [(one - q2) * two_plus_q2, qm2 - q2, one - q2, 0],
                ),
                (
                    M(odd="x3.x1", c="c0"),
                    [0, one - q2, qm2 - q2, (one - q2) * two_plus_q2],
                ),
                (
                    M(c="c0.c1"),
                    [
                        -(qdiff_sq * two_plus_q2),
                        (qm2 - one) * (q2 - qm2),
                        -qdiff_sq,
                        0,
                    ],
                ),
                (
                    M(c="c0.c3"),
                    [
                        0,
                        -qdiff_sq,
                        (qm2 - one) * (q2 - qm2),
                        -(qdiff_sq * two_plus_q2),
                    ],
                ),
            ],
        ),
        CoeffTable(
            "s0_with_x1",
            "normal-basis expansions feeding x1*S0 = q^4*S0*x1",
            ("x1x0x0x0x2", "x1x0x0x2x0", "x1x0x2x0x0", "x1x2x0x0x0", "s0x1"),
            [
                (M("x0.x0.x0.x2", "x1"), [q4, 0, 0, 0, one]),
                (M("x0.x0.x2.x0", "x1"), [0, q4, 0, 0, -three]),
                (M("x0.x2.x0.x0", "x1"), [0, 0, q4, 0, three]),
                (M("x2.x0.x0.x0", "x1"), [0, 0, 0, q4, -one]),
                (M("x0.x0.x2", c="c0"), [one - q6, q2 - q4, 0, 0, 0]),
                (M("x0.x2.x0", c="c0"), [0, one - q4, one - q4, 0, 0]),
                (M("x2.x0.x0", c="c0"), [0, 0, one - q2, qm2 - q4, 0]),
                (
                    M("x0.x0.x0", c="c1"),
                    [q6 - q4, q4 - q2, q2 - one, one - qm2, 0],
                ),
            ],
        ),
        CoeffTable(
            "s0_with_x3",
            "normal-basis expansions feeding x3*S0 = q^-4*S0*x3",
            ("x3x0x0x0x2", "x3x0x0x2x0", "x3x0x2x0x0", "x3x2x0x0x0", "s0x3"),
            [
                (M("x0.x0.x0.x2", "x3"), [qm4, 0, 0, 0, one]),
                (M("x0.x0.x2.x0", "x3"), [0, qm4, 0, 0, -three]),
                (M("x0.x2.x0.x0", "x3"), [0, 0, qm4, 0, three]),
                (M("x2.x0.x0.x0", "x3"), [0, 0, 0, qm4, -one]),
                (M("x0.x0.x2", c="c3"), [one - qm6, qm2 - qm4, 0, 0, 0]),
                (M("x0.x2.x0", c="c3"), [0, one - qm4, one - qm4, 0, 0]),
                (M("x2.x0.x0", c="c3"), [0, 0, one - qm2, q2 - qm4, 0]),
                (
                    M("x0.x0.x0", c="c2"),
                    [qm6 - qm4, qm4 - qm2, qm2 - one, one - q2, 0],
                ),
            ],
        ),
    ]
    return tables


ALL_TABLES: List[CoeffTable] = _build_tables()


# column label -> its factors, with A = x0 + x1 and B = x2 + x3
_AB_PRODUCTS = {
    "a2": "AA",
    "ab": "AB",
    "ba": "BA",
    "a3b": "AAAB",
    "a2ba": "AABA",
    "aba2": "ABAA",
    "ba3": "BAAA",
}


def _column_product(label: str) -> BoxElem:
    if label in _AB_PRODUCTS:
        factor = {"A": generator(0) + generator(1), "B": generator(2) + generator(3)}
        return reduce(operator.mul, (factor[ch] for ch in _AB_PRODUCTS[label]))
    if label == "s0x1":
        return s_element(0) * generator(1)
    if label == "s0x3":
        return s_element(0) * generator(3)
    # otherwise a plain generator word like "x1x0x2"
    letters = tuple(int(ch) for ch in label[1::2])
    if "x%s" % "x".join(str(l) for l in letters) != label:
        raise ValueError("unknown product label %r" % label)
    return reduce_word(letters)


def _fixture_elem(table: CoeffTable, column: str, perturb: bool = False) -> BoxElem:
    """Column `column` of the table as an element; perturbing multiplies its
    first nonzero entry by q."""
    i = table.columns.index(column)
    terms = {}
    for mono, entries in table.grid:
        coeff = entries[i]
        if not coeff:
            continue
        if perturb and not terms:
            coeff = coeff * _qp(1)
        terms[mono] = coeff
    return BoxElem(RING, terms)


def _table_diff(table: CoeffTable, column: str, perturb: bool = False) -> BoxElem:
    return _column_product(column) - _fixture_elem(table, column, perturb=perturb)


def _table_checks() -> List[Check]:
    return [
        _diff_check("tables.%s" % column, _table_diff, table, column)
        for table in ALL_TABLES
        for column in table.columns
    ]


# ---------------------------------------------------------------------------
# Commutation of the degree-4 combinations past the neighbouring generators
# ---------------------------------------------------------------------------


def _s_commutation_diff(i: int, side: str, exponent: int) -> BoxElem:
    s = s_element(i)
    if side == "right":
        x = generator((i + 1) % 4)
    else:
        x = generator((i - 1) % 4)
    return x * s - _qp(exponent) * (s * x)


def _s_commutation_checks() -> List[Check]:
    return [
        _diff_check("s_commutation.i%d.%s" % (i, side), _s_commutation_diff, i, side, exponent)
        for i in range(4)
        for side, exponent in (("right", 4), ("left", -4))
    ]


# ---------------------------------------------------------------------------
# The q-Dolan/Grady combination with its exact error terms
# ---------------------------------------------------------------------------

_SIDES = ("first", "second")


def _serre_comb(p: BoxElem, r: BoxElem) -> BoxElem:
    p2 = p * p
    return p2 * p * r - _THREE * (p2 * r * p) + _THREE * (p * r * p2) - r * p * p2


def _qdg_diff(
    k: int,
    alphas: Optional[Sequence] = None,
    drop_central: bool = False,
    wrong_serre: bool = False,
) -> BoxElem:
    """Side k (0 or 1) of the scaled q-Dolan/Grady identity; zero when it holds.

    With A = a0 x0 + a1 x1 and B = a2 x2 + a3 x3, for alphas that are ints,
    LaurentPolys or BoxElems (every alpha 1 when alphas is None), side 0 is
    the combination in (A, B) with error terms in S0, S1 and side 1 the one
    in (B, A) with S2, S3.  drop_central and wrong_serre are the
    perturbations of the negative controls.
    """
    i, j = 2 * k, (2 * k + 2) % 4
    c = [bt.one() * a for a in alphas] if alphas else [bt.one()] * 4
    p = c[i] * generator(i) + c[i + 1] * generator(i + 1)
    r = c[j] * generator(j) + c[j + 1] * generator(j + 1)
    comm = p * r - r * p
    if not drop_central:
        comm = bt.central_gen(i) * comm
    serre_coeff = c[i] ** 3 * c[j]
    if wrong_serre:
        serre_coeff = serre_coeff * _qp(1)
    factor = (_qp(2) - _qp(-2)) ** 2
    return (
        _serre_comb(p, r)
        + factor * (c[i] * c[i + 1] * comm)
        - serre_coeff * s_element(i)
        - c[i + 1] ** 3 * c[j + 1] * s_element(i + 1)
    )


def _qdg_error_terms_checks() -> List[Check]:
    return [_diff_check("qdg_error_terms.%s" % side, _qdg_diff, k) for k, side in enumerate(_SIDES)]


GENERAL_QDG_CONFIGS = (
    ("trivial", (1, 1, 1, 1), False),
    ("scalars", (RING.gen("a"), RING.gen("a", -1), RING.gen("b"), RING.gen("b", -1)), False),
    ("natural", (1, central_gen(0, -1), 1, central_gen(2, -1)), True),
)


def _general_qdg_checks(label: str, values: Sequence, side_condition: bool) -> List[Check]:
    """The two sides for the given alphas and, when asked, the side
    condition that makes the commutator coefficient collapse to 1."""

    def alphas():
        alpha = tuple(bt.one() * a for a in values)
        for a in alpha:
            a ** -1  # the identity is stated for units: NotInvertibleError otherwise
        return alpha

    def side_condition_holds():
        a = alphas()
        return all(a[i] * a[i + 1] * central_gen(i) == bt.one() for i in (0, 2))

    prefix = "general_qdg.%s." % label
    out = [_diff_check(prefix + side, lambda k: _qdg_diff(k, alphas()), k) for k, side in enumerate(_SIDES)]
    if side_condition:
        out.append(_bool_check(prefix + "side_condition", side_condition_holds, "commutator coefficient is not 1"))
    return out


def _registered_general_qdg_checks() -> List[Check]:
    return [c for config in GENERAL_QDG_CONFIGS for c in _general_qdg_checks(*config)]


# ---------------------------------------------------------------------------
# Syntactic presentation maps
# ---------------------------------------------------------------------------
#
# Relations of the quotient algebra (all c_i = 1) as formal noncommutative
# polynomials: free-algebra elements over tuples of letters, with no
# rewriting.
# Scaling and relabelling substitutions send each letter to a scalar
# multiple of a single letter, so images are computed term by term.


def _relation_diff(i: int, central: int = 0, sign: int = -1) -> BoxElem:
    """q x_i x_{i+1} - q^-1 x_{i+1} x_i - (q - q^-1) c_i, which the engine
    reduces to zero; a central offset or sign=+1 perturbs it."""
    i, j = i % 4, (i + 1) % 4
    return (
        reduce_word((i, j), coeff=_qp(1))
        + reduce_word((j, i), coeff=sign * _qp(-1))
        - (_qp(1) - _qp(-1)) * bt.central_gen(i + central)
    )


def _formal_weyl(a, b) -> dict:
    """q ab - q^-1 ba - (q - q^-1) in the distinct letters a, b, as a dict
    from tuple words to coefficients."""
    return {(a, b): _qp(1), (b, a): -_qp(-1), (): _qp(-1) - _qp(1)}


def _formal_serre(a, b) -> dict:
    """aaab - [3] aaba + [3] abaa - baaa in the distinct letters a, b."""
    return {(a, a, a, b): _ONE, (a, a, b, a): -_THREE, (a, b, a, a): _THREE, (b, a, a, a): -_ONE}


# kind -> (builder, index step from the first letter to the second)
_RELATIONS = {"weyl": (_formal_weyl, 1), "serre": (_formal_serre, 2)}


def _relation(kind: str, i: int, letter=lambda l: l % 4) -> dict:
    build, step = _RELATIONS[kind]
    return build(letter(i), letter(i + step))


def _formal_substitute(relation: dict, image) -> dict:
    """image: letter -> (new letter, scalar factor)."""
    terms: dict = {}
    for word, coeff in relation.items():
        new_word = []
        for l in word:
            nl, factor = image(l)
            new_word.append(nl)
            coeff = coeff * factor
        put(terms, tuple(new_word), coeff)
    return terms


def _pair(l: int) -> tuple:
    return ((l - 1) % 4, l % 4)


def _pair_image(l: int):
    return _pair(l), _ONE


def _scales_as_stated(kind: str, i: int) -> bool:
    """Scaling x_i by a^{+-1} (by parity) multiplies the relation by a
    monomial: 1 for Weyl, where the a-factors cancel pairwise, and a^{+-4}
    for Serre."""
    a = RING.gen("a")
    relation = _relation(kind, i)
    image = _formal_substitute(relation, lambda l: (l, a if l % 2 == 0 else a ** -1))
    scale = RING.gen("a", 0 if kind == "weyl" else (4 if i % 2 == 0 else -4))
    return image == {w: c * scale for w, c in relation.items()}


def _relabels_to_schema(kind: str, i: int) -> bool:
    """Relabelling x_l -> x_{(l-1, l)} carries the relation onto the
    pair-indexed schema instance with consecutive indices."""
    return _formal_substitute(_relation(kind, i), _pair_image) == _relation(kind, i, _pair)


def _presentation_maps_checks() -> List[Check]:
    out = []
    for i in range(4):
        # the shifted defining relation reduces to zero in the engine,
        # which is exactly what makes the index shift an algebra map
        out.append(_diff_check("presentation_maps.rho.i%d" % i, _relation_diff, i + 1))
        for kind in _RELATIONS:
            out.append(
                _bool_check(
                    "presentation_maps.scaling.%s.i%d" % (kind, i),
                    _scales_as_stated,
                    "not the stated multiple",
                    kind,
                    i,
                )
            )
            out.append(
                _bool_check(
                    "presentation_maps.tet.%s.i%d" % (kind, i),
                    _relabels_to_schema,
                    "image is not a schema instance",
                    kind,
                    i,
                )
            )
    return out


# ---------------------------------------------------------------------------
# Negative controls: perturbed twins that must be caught
# ---------------------------------------------------------------------------


def negative_controls() -> List[Check]:
    """Named controls; each passes exactly when its perturbation is detected."""
    controls = [
        _control("negative.s_commutation.i%d.%s" % (i, side), _s_commutation_diff, i, side, exponent)
        for i in range(4)
        for side, exponent in (("right", 3), ("left", -3))
    ]
    controls += [
        _control("negative.tables.%s" % column, _table_diff, table, column, True)
        for table in ALL_TABLES
        for column in table.columns
    ]
    controls += [
        _control("negative.qdg_error_terms.%s" % side, lambda k: _qdg_diff(k, drop_central=True), k)
        for k, side in enumerate(_SIDES)
    ]
    controls += [
        _control("negative.general_qdg.%s" % label, lambda alphas: _qdg_diff(0, alphas, wrong_serre=True), alphas)
        for label, alphas, _ in GENERAL_QDG_CONFIGS
    ]
    controls += [
        # wrong central relabelling: c_i -> c_{i+3} instead of c_{i+1}
        _control("negative.presentation_maps.rho", lambda: any(_relation_diff(i + 1, central=2) for i in range(4))),
        _control(
            "negative.presentation_maps.scaling",
            lambda: _formal_substitute(_relation("weyl", 0), lambda l: (l, RING.gen("a"))) != _relation("weyl", 0),
        ),
        _control(
            "negative.presentation_maps.tet",
            lambda: _formal_substitute(_relation("weyl", 0), _pair_image) != _formal_weyl((3, 0), (0, 2)),
        ),
        _control("negative.engine.relation_sign", _relation_diff, 0, 0, 1),
    ]
    return controls


# ---------------------------------------------------------------------------
# Engine law checks (deterministic, seeded)
# ---------------------------------------------------------------------------


def engine_checks(seed: int = 20260810, samples: int = 100, words: int = 1000) -> List[Check]:
    out = [_diff_check("engine.defining_relation.i%d" % i, _relation_diff, i) for i in range(4)]

    def free_words():
        rng = random.Random(seed ^ 0xF1EE)
        for _ in range(50):
            n = rng.randint(0, 8)
            even = tuple(rng.choice((0, 2)) for _ in range(n))
            odd = tuple(rng.choice((1, 3)) for _ in range(n))
            for word, mono in ((even, NormalMono(even, (), ZERO_CENTRAL)), (odd, NormalMono((), odd, ZERO_CENTRAL))):
                got = reduce_word(word)
                if got.terms != {mono: _ONE}:
                    return CheckResult("fail", got)
        return CheckResult("pass")

    out.append(("engine.free_words", free_words))

    def confluence():
        rng = random.Random(seed)
        for _ in range(words):
            w = bt.random_word(rng, max_len=10)
            left = reduce_word(w, strategy="leftmost")
            right = reduce_word(w, strategy="rightmost")
            if left != right:
                return CheckResult("fail", left - right)
        return CheckResult("pass")

    out.append(("engine.confluence", confluence))

    def oracle():
        rng = random.Random(seed + 1)
        for _ in range(words):
            w = bt.random_word(rng, max_len=10)
            direct = reduce_word(w)
            via_module = bt.oracle_as_box(bt.module_action_oracle(w))
            if direct != via_module:
                return CheckResult("fail", direct - via_module)
        return CheckResult("pass")

    out.append(("engine.oracle_equivalence", oracle))

    def associativity():
        rng = random.Random(seed + 2)
        for _ in range(25):
            e1 = bt.random_element(rng)
            e2 = bt.random_element(rng)
            e3 = bt.random_element(rng)
            diff = (e1 * e2) * e3 - e1 * (e2 * e3)
            if diff:
                return CheckResult("fail", diff)
        return CheckResult("pass")

    out.append(("engine.associativity", associativity))

    def rho_laws():
        rng = random.Random(seed + 3)
        for i in range(4):
            if rho(s_element(i)) != s_element((i + 1) % 4):
                return CheckResult("fail", "shift on the degree-4 combinations")
        for _ in range(samples // 4):
            e = bt.random_element(rng)
            image = rho(rho(rho(rho(e))))
            if image != e:
                return CheckResult("fail", image - e)
            e2 = bt.random_element(rng)
            if rho(e * e2) != rho(e) * rho(e2):
                return CheckResult("fail", "not an algebra map")
        return CheckResult("pass")

    out.append(("engine.rho_laws", rho_laws))

    def scale_laws():
        rng = random.Random(seed + 4)
        # the inverse law needs scalar factors: units of the coefficient
        # ring, trivial central part
        scalars = (
            RING.gen("a"),
            RING.gen("b", -1) * RING.qpow(2),
            RING.gen("q", -1),
            RING.gen("a", -1) * RING.gen("b"),
        )
        forward = scale_auto(*scalars)
        backward = scale_auto(*(a ** -1 for a in scalars))
        # central-monomial factors still give an algebra map
        mixed = scale_auto(1, central_gen(0, -1), RING.gen("b"), central_gen(2) * RING.gen("a", -1))
        for _ in range(samples):
            e = bt.random_element(rng)
            if backward(forward(e)) != e:
                return CheckResult("fail", backward(forward(e)) - e)
            e2 = bt.random_element(rng)
            product = e * e2
            if forward(product) != forward(e) * forward(e2):
                return CheckResult("fail", "not an algebra map")
            if mixed(product) != mixed(e) * mixed(e2):
                return CheckResult("fail", "not an algebra map")
        return CheckResult("pass")

    out.append(("engine.scale_inverse", scale_laws))
    return out


def checks(seed: int = 20260810) -> List[Check]:
    """Every identity check, engine law and negative control, as (name, thunk) pairs."""
    return (
        _s_commutation_checks()
        + _table_checks()
        + _qdg_error_terms_checks()
        + _registered_general_qdg_checks()
        + _presentation_maps_checks()
        + engine_checks(seed)
        + negative_controls()
    )
