"""Bidegree and integer-grading machinery.

A basis monomial has bidegree (even-word length, odd-word length) and
integer degree r - s.  The sign-split expansion of a two-letter word (each
letter expanding into a raised and a lowered part) lands in degrees between
-n and n with the parity of n, and its top-degree projection is a single
plus-word monomial.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Sequence, Tuple

from . import boxtilde as bt
from .boxtilde import BoxElem, NormalMono, generator, reduce_word
from .identities import Check, CheckResult, verdict
from .qcoeff import DEFAULT_RING as RING


def bidegree_components(e: BoxElem) -> Dict[Tuple[int, int], BoxElem]:
    """Partition by (even length, odd length); the parts sum back to e."""
    buckets: Dict[Tuple[int, int], dict] = {}
    for key, qd in e.state.items():
        buckets.setdefault((len(key[0]), len(key[1])), {})[key] = qd
    return {bd: BoxElem._of(state) for bd, state in sorted(buckets.items())}


def pi(n: int, e: BoxElem) -> BoxElem:
    """Projection onto integer degree n (even length minus odd length)."""
    state = {key: qd for key, qd in e.state.items() if len(key[0]) - len(key[1]) == n}
    return BoxElem._of(state)


def zdegrees(e: BoxElem) -> set:
    return {len(even) - len(odd) for even, odd, _, _ in e.state}


def check_product_grading(odd_word: Sequence[int], even_word: Sequence[int]) -> CheckResult:
    """Product of an odd word by an even word only loses matched pairs:
    every component bidegree is (r - l, s - l) with 0 <= l <= min(r, s)."""
    odd_word = tuple(odd_word)
    even_word = tuple(even_word)
    if any(l not in (1, 3) for l in odd_word) or any(l not in (0, 2) for l in even_word):
        raise ValueError("expected an odd word and an even word")
    r, s = len(even_word), len(odd_word)
    product = reduce_word(odd_word + even_word)
    allowed = {(r - l, s - l) for l in range(min(r, s) + 1)}
    bad = {(len(even), len(odd)) for even, odd, _, _ in product.state} - allowed
    return verdict(not bad, "components outside the ladder: %s" % sorted(bad))


# ---------------------------------------------------------------------------
# Sign-split expansion of {A, B} words
# ---------------------------------------------------------------------------


def _split_factors() -> Dict[str, BoxElem]:
    a = RING.gen("a")
    b = RING.gen("b")
    return {
        "A": a * generator(0) + (a ** -1) * generator(1),
        "B": b * generator(2) + (b ** -1) * generator(3),
    }


def sharp_lift(word: str) -> BoxElem:
    """Normal form of the full 2^n-summand expansion of an {A, B} word."""
    if any(ch not in "AB" for ch in word):
        raise ValueError("expected a word over {A, B}")
    factors = _split_factors()
    out = bt.one()
    for ch in word:
        out = out * factors[ch]
    return out


def plus_word(word: str) -> BoxElem:
    """The predicted leading monomial: a^#A b^#B times the raised word."""
    na = word.count("A")
    nb = word.count("B")
    coeff = RING.gen("a") ** na * RING.gen("b") ** nb
    even = tuple(0 if ch == "A" else 2 for ch in word)
    return BoxElem(RING, {NormalMono(even, (), bt.ZERO_CENTRAL): coeff})


def phi_n(word: str) -> BoxElem:
    """Top-degree projection of the sign-split expansion."""
    return pi(len(word), sharp_lift(word))


def ab_lifts(n: int) -> Iterator[Tuple[str, BoxElem]]:
    """Every {A, B} word of length n with its sharp lift, in the order of
    `all_ab_words`.  A depth-first walk: the lift of each prefix is
    computed once and extended by one factor, and only the lifts along the
    current path are held."""
    factors = _split_factors()

    def walk(word: str, lift: BoxElem):
        if len(word) == n:
            yield word, lift
            return
        for ch in "AB":
            yield from walk(word + ch, lift * factors[ch])

    return walk("", bt.one())


def all_ab_words(n: int) -> List[str]:
    out = [""]
    for _ in range(n):
        out = [w + ch for w in out for ch in "AB"]
    return out


# ---------------------------------------------------------------------------
# Check suites
# ---------------------------------------------------------------------------


def check_phi_leading(n: int) -> CheckResult:
    for word, lift in ab_lifts(n):
        diff = pi(n, lift) - plus_word(word)
        if diff:
            return CheckResult("fail", diff)
    return CheckResult("pass")


def check_spread(n: int) -> CheckResult:
    """Degrees of the sign-split expansion stay in [-n, n] with parity n."""
    for word, lift in ab_lifts(n):
        degrees = zdegrees(lift)
        del lift  # not held while the walk computes the next lift
        bad = {d for d in degrees if abs(d) > n or (d - n) % 2}
        if bad:
            return CheckResult("fail", "degrees %s for word %s" % (sorted(bad), word))
    return CheckResult("pass")


def check_projection_laws(seed: int) -> CheckResult:
    """Projections partition, are idempotent, and are mutually orthogonal."""
    rng = random.Random(seed)
    for _ in range(10):
        e = bt.random_element(rng, max_terms=4, max_word=5)
        degrees = zdegrees(e)
        total = bt.zero()
        for n in sorted(degrees):
            total = total + pi(n, e)
        if total != e:
            return CheckResult("fail", total - e)
        for n in sorted(degrees):
            if pi(n, pi(n, e)) != pi(n, e):
                return CheckResult("fail", "projection is not idempotent")
            m = n + 1
            if pi(m, pi(n, e)):
                return CheckResult("fail", "projections are not orthogonal")
    return CheckResult("pass")


def check_product_grading_sample(seed: int, count: int = 200) -> CheckResult:
    rng = random.Random(seed)
    for _ in range(count):
        odd = tuple(rng.choice((1, 3)) for _ in range(rng.randint(0, 5)))
        even = tuple(rng.choice((0, 2)) for _ in range(rng.randint(0, 5)))
        result = check_product_grading(odd, even)
        if not result.ok:
            return result
    return CheckResult("pass")


def check_grading_multiplicative(seed: int) -> CheckResult:
    """Products of degree-homogeneous elements land in the summed degree."""
    rng = random.Random(seed)
    for _ in range(25):
        e1 = bt.random_element(rng, max_terms=3, max_word=4)
        e2 = bt.random_element(rng, max_terms=3, max_word=4)
        for r in sorted(zdegrees(e1)):
            for s in sorted(zdegrees(e2)):
                product = pi(r, e1) * pi(s, e2)
                stray = {d for d in zdegrees(product) if d != r + s}
                if stray:
                    return CheckResult("fail", "degrees %s from %d * %d" % (sorted(stray), r, s))
    return CheckResult("pass")


def gradings_checks(seed: int = 20260810) -> List[Check]:
    checks: List[Check] = []
    for n in range(1, 6):
        checks.append(("gradings.phi_leading.n%d" % n, lambda n=n: check_phi_leading(n)))
    for n in range(1, 9):
        checks.append(("gradings.spread.n%d" % n, lambda n=n: check_spread(n)))
    checks.append(("gradings.projection_laws", lambda: check_projection_laws(seed)))
    checks.append(
        ("gradings.product_containment", lambda: check_product_grading_sample(seed + 7))
    )
    checks.append(("gradings.multiplicative", lambda: check_grading_multiplicative(seed + 11)))

    def phi_control():
        word = "AB"
        wrong = BoxElem(
            RING,
            {
                NormalMono(
                    (), tuple(1 if ch == "A" else 3 for ch in word), bt.ZERO_CENTRAL
                ): RING.gen("a") ** -1 * RING.gen("b") ** -1
            },
        )
        return verdict(phi_n(word) != wrong, "minus-word was accepted")

    checks.append(("negative.gradings.phi", phi_control))

    def spread_control():
        # the all-plus expansion of a length-2 word reaches degree 2, so a
        # narrowed window must be violated
        degrees = zdegrees(sharp_lift("AB"))
        return verdict(any(abs(d) > 1 for d in degrees), "narrowed spread window was not violated")

    checks.append(("negative.gradings.spread", spread_control))
    return checks
