"""Renderings recorded from the earlier rewriting kernel, which found and
rewrote one redex at a time: every normal form computed now must print
byte for byte the same.  The relation-span section was recorded from the
printer of the free algebra's former element class; a span row, now a
plain dict, printed through `render_sum` with its words longest first and
then in lexicographic order, letters joined by "*", must still print it.

`golden_parse.json` holds the syntax trees (as `repr`) and the parse
errors (message and offset) recorded from the parser before its
tokenizer became one scan; the parser must still give exactly these."""

import json
from pathlib import Path

import pytest

from qdg.expr import ParseError, eval_text, parse, render
from qdg.freealg import relation_span
from qdg.gradings import all_ab_words, sharp_lift
from qdg.qcoeff import DEFAULT_RING, coefficient_pairs, render_sum

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


def _row_text(row: dict) -> str:
    words = sorted(row, key=lambda w: (-len(w), w))
    return render_sum(((coefficient_pairs(row[w].terms), "*".join(w)) for w in words), "*")


@pytest.mark.parametrize("n", [4, 5, 6])
def test_free_relation_span_renderings_are_unchanged(n):
    # each row, and the row times a^-1 minus the row: multi-term
    # coefficients of both signs, in q and a together
    rows = relation_span(n)
    a_inv = DEFAULT_RING.gen("a", -1)
    assert [_row_text(row) for row in rows] == FREE["span"][str(n)]
    assert [_row_text({w: c * a_inv - c for w, c in row.items()}) for row in rows] == FREE["scaled"][str(n)]


PARSE = json.loads((Path(__file__).parent / "golden_parse.json").read_text())


def test_parse_golden_covers_the_corpus():
    assert [text for text, _ in PARSE["trees"][: len(CORPUS)]] == CORPUS


@pytest.mark.parametrize("index", range(len(PARSE["trees"])))
def test_parse_trees_are_unchanged(index):
    text, tree = PARSE["trees"][index]
    assert repr(parse(text)) == tree


@pytest.mark.parametrize("index", range(len(PARSE["errors"])))
def test_parse_errors_are_unchanged(index):
    text, message, position = PARSE["errors"][index]
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (str(err.value), err.value.position) == (message, position)
