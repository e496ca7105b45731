import random

import pytest

from qdg import boxtilde as bt
from qdg import gradings
from qdg.boxtilde import NormalMono, ZERO_CENTRAL, generator, reduce_word
from qdg.gradings import (
    ab_lifts,
    all_ab_words,
    bidegree_components,
    check_grading_multiplicative,
    check_phi_leading,
    check_product_grading,
    check_product_grading_sample,
    check_projection_laws,
    check_spread,
    phi_n,
    pi,
    plus_word,
    sharp_lift,
    zdegrees,
)
from qdg.qcoeff import DEFAULT_RING

R = DEFAULT_RING
A_SYM = R.gen("a")
B_SYM = R.gen("b")


def test_bidegree_components_examples():
    comp = bidegree_components(generator(0))
    assert set(comp) == {(1, 0)}
    assert comp[(1, 0)] == generator(0)
    comp = bidegree_components(bt.one())
    assert set(comp) == {(0, 0)}
    comp = bidegree_components(reduce_word((1, 0)))
    assert set(comp) == {(1, 1), (0, 0)}


def test_components_sum_back():
    rng = random.Random(23)
    for _ in range(10):
        e = bt.random_element(rng, max_terms=4, max_word=5)
        total = bt.zero()
        for part in bidegree_components(e).values():
            total = total + part
        assert total == e


def test_pi_examples():
    e = generator(0) + generator(1)
    assert pi(1, e) == generator(0)
    assert pi(-1, e) == generator(1)
    assert pi(0, bt.one()) == bt.one()
    assert not pi(2, reduce_word((0, 2, 1, 3)))


def test_product_grading_examples():
    assert check_product_grading((), (0, 2, 0)).ok
    assert check_product_grading((1,), (0,)).ok
    product = reduce_word((1, 0))
    assert set(bidegree_components(product)) == {(1, 1), (0, 0)}
    with pytest.raises(ValueError):
        check_product_grading((0,), (1,))


def test_product_grading_fails_off_the_ladder(monkeypatch):
    # x1 x0 has components (1, 1) and (0, 0); an extra x0 sits at (1, 0)
    monkeypatch.setattr(gradings, "reduce_word", lambda word: reduce_word(word) + generator(0))
    result = check_product_grading((1,), (0,))
    assert result.status == "fail"
    assert result.witness == "components outside the ladder: [(1, 0)]"


def test_sharp_lift_single_letters():
    lift = sharp_lift("A")
    assert lift == A_SYM * generator(0) + A_SYM ** -1 * generator(1)
    lift = sharp_lift("B")
    assert lift == B_SYM * generator(2) + B_SYM ** -1 * generator(3)
    with pytest.raises(ValueError):
        sharp_lift("AC")


def test_sharp_lift_ab_has_five_normal_terms():
    # four summands, one of which reduces into two basis terms
    lift = sharp_lift("AB")
    assert len(lift.terms) == 5
    assert lift.terms[NormalMono((0, 2), (), ZERO_CENTRAL)] == A_SYM * B_SYM



def test_sharp_lifts_fold_no_letter_into_a_map_of_its_own(monkeypatch):
    # each factor a x0 + a^-1 x1 (or b x2 + b^-1 x3) is two one-monomial
    # groups: the even letter crosses straight into the product, and the
    # odd letter is entered without a fold
    calls = []
    fold = bt._fold

    def recording(state, letters, append, op):
        calls.append(letters)
        return fold(state, letters, append, op)

    monkeypatch.setattr(bt, "_fold", recording)
    lift = sharp_lift("AB")
    assert set(calls) == {b""}
    assert len(lift.terms) == 5
    calls.clear()
    sharp_lift("ABBAB")
    assert calls and set(calls) == {b""}

def test_phi_examples():
    assert phi_n("A") == A_SYM * generator(0)
    assert phi_n("AB") == plus_word("AB")
    assert plus_word("AB").terms[NormalMono((0, 2), (), ZERO_CENTRAL)] == A_SYM * B_SYM
    # projecting a shorter word to a higher degree gives zero
    assert not pi(3, sharp_lift("AB"))


def test_phi_leading_all_words_small():
    for n in range(1, 5):
        assert check_phi_leading(n).ok


def test_spread_bound_and_parity():
    for n in range(1, 7):
        assert check_spread(n).ok
    degrees = zdegrees(sharp_lift("ABA"))
    assert degrees <= {-3, -1, 1, 3}
    assert all(abs(d) <= 3 and d % 2 == 1 for d in degrees)


def test_projection_laws_and_samples():
    assert check_projection_laws(99).ok
    assert check_product_grading_sample(99, count=50).ok
    assert check_grading_multiplicative(99).ok


def test_all_ab_words():
    assert all_ab_words(0) == [""]
    assert sorted(all_ab_words(2)) == ["AA", "AB", "BA", "BB"]


def test_ab_lifts_walk_every_word_in_order():
    for n in range(5):
        walked = list(ab_lifts(n))
        assert [word for word, _ in walked] == all_ab_words(n)
        for word, lift in walked:
            assert lift == sharp_lift(word)
