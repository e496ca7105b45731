"""Renderings recorded from the earlier rewriting kernel, which found and
rewrote one redex at a time: every normal form computed now must print
byte for byte the same.  The relation-span section was recorded from the
printer that `FreeElem` had before it shared `render_sum` with `BoxElem`,
and `str` of a row must still print it."""

import json
from pathlib import Path

import pytest

from qdg.expr import eval_text, render
from qdg.freealg import relation_span
from qdg.gradings import all_ab_words, sharp_lift
from qdg.qcoeff import DEFAULT_RING

from corpus import CORPUS

GOLDEN = json.loads((Path(__file__).parent / "golden_renders.json").read_text())
FREE = GOLDEN["free"]


def test_golden_covers_the_corpus_and_every_short_word():
    assert len(GOLDEN["corpus"]) == len(CORPUS) == 50
    assert list(GOLDEN["lifts"]) == [w for n in range(5) for w in all_ab_words(n)]


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_corpus_renderings_are_unchanged(index):
    assert render(eval_text(CORPUS[index])) == GOLDEN["corpus"][index]


@pytest.mark.parametrize("word", list(GOLDEN["lifts"]))
def test_sharp_lift_renderings_are_unchanged(word):
    assert render(sharp_lift(word)) == GOLDEN["lifts"][word]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_free_relation_span_renderings_are_unchanged(n):
    # each row, and the row times a^-1 minus the row: multi-term
    # coefficients of both signs, in q and a together
    rows = relation_span(n)
    a_inv = DEFAULT_RING.gen("a", -1)
    assert [str(row) for row in rows] == FREE["span"][str(n)]
    assert [str(row * a_inv - row) for row in rows] == FREE["scaled"][str(n)]
