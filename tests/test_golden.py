"""Renderings recorded from the earlier rewriting kernel, which found and
rewrote one redex at a time: every normal form computed now must print
byte for byte the same."""

import json
from pathlib import Path

import pytest

from qdg.expr import eval_text, render
from qdg.gradings import all_ab_words, sharp_lift

from corpus import CORPUS

GOLDEN = json.loads((Path(__file__).parent / "golden_renders.json").read_text())


def test_golden_covers_the_corpus_and_every_short_word():
    assert len(GOLDEN["corpus"]) == len(CORPUS) == 50
    assert list(GOLDEN["lifts"]) == [w for n in range(5) for w in all_ab_words(n)]


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_corpus_renderings_are_unchanged(index):
    assert render(eval_text(CORPUS[index])) == GOLDEN["corpus"][index]


@pytest.mark.parametrize("word", list(GOLDEN["lifts"]))
def test_sharp_lift_renderings_are_unchanged(word):
    assert render(sharp_lift(word)) == GOLDEN["lifts"][word]
