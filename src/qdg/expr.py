"""Surface syntax for algebra expressions.

Grammar (ASCII whitespace insignificant, juxtaposition is never
multiplication, INT is ASCII decimal digits):

    expr    := ['-'] term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := atom ['^' ['-'] INT]
    atom    := INT | 'q' | 'a' | 'b' | generator | 'qint' '(' ['-'] INT ')'
             | '(' expr ')' | monomial
    monomial:= '[' wordslot '|' wordslot '|' centralslot ']'

Generators are x0..x3 and c0..c3, and an expression evaluates to a
normal form in the box algebra.  The bracketed monomial atom mirrors the
canonical normal-form rendering (`x0.x2 | x1 | c0^2`, with '-' for an
empty slot) so that printed output parses back.  Negative powers are
allowed only on invertible atoms (q, a, b, the c_i and their monomials).

A product is evaluated left to right into one running state map.  An
atom (a letter x_i, an int, a bracket monomial, or a power of q, a, b or
c_i) is one term c q^k a^i b^j (even | odd | central), and
`boxtilde._times_atom` applies it with `multiply`'s word-cap check and
`multiply`'s routine for a one-term right factor,
`boxtilde._times_monomial`, without building the factor; any other
factor (a parenthesised sum, `qint`, a power of a non-unit) is evaluated
and multiplied in by `multiply`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple, Union

from . import boxtilde as bt
from .boxtilde import ZERO_CENTRAL, BoxElem
from .qcoeff import DEFAULT_RING as RING


class ParseError(ValueError):
    """Syntax error, carrying the byte offset of the offender."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (at offset %d)" % (message, position))
        self.position = position


# -- AST --------------------------------------------------------------------


@dataclass(slots=True)
class Lit:
    value: int


@dataclass(slots=True)
class Sym:
    name: str


@dataclass(slots=True)
class Gen:
    name: str


@dataclass(slots=True)
class QIntNode:
    n: int


@dataclass(slots=True)
class Neg:
    arg: "Expr"


@dataclass(slots=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(slots=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(slots=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(slots=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(slots=True)
class Mono:
    even: tuple
    odd: tuple
    central: tuple


Expr = Union[Lit, Sym, Gen, QIntNode, Neg, Add, Sub, Mul, Pow, Mono]


# -- tokenizer ---------------------------------------------------------------

# an integer, a name, an operator (the one unnamed group) or, last, any
# other character that is not whitespace; ASCII only, so INT is the digits
# 0-9 and only ASCII whitespace separates tokens
_TOKEN_RE = re.compile(
    r"(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|([-+*^()\[\]|.])|(?P<bad>\S)", re.ASCII
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    """(kind, text, offset) of each token, in one scan, and a last
    ("end", "", len(text)).  The kind of an operator is the operator."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        value = m[0]
        kind = m.lastgroup or value
        if kind == "bad":
            raise ParseError("unexpected character %r" % value, m.start())
        tokens.append((kind, value, m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


_WORD_LETTERS = {"x0": 0, "x1": 1, "x2": 2, "x3": 3}
_CENTRAL_LETTERS = {"c0": 0, "c1": 1, "c2": 2, "c3": 3}
# the node class of each name an atom may be, `qint` aside
_NAMES = dict.fromkeys(RING.symbols, Sym) | dict.fromkeys([*_WORD_LETTERS, *_CENTRAL_LETTERS], Gen)


def _int_literal(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:
        # the interpreter's limit on str-to-int conversion
        raise ParseError("integer literal of %d digits is too long" % len(text), pos) from None


# each level of parentheses costs the recursive descent four frames, so
# nesting is refused well before the interpreter's recursion limit
MAX_NESTING = 100


class _Parser:
    """Recursive descent over the token list, read at index `i`."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def expect(self, kind: str) -> None:
        token = self.tokens[self.i]
        if token[0] != kind:
            raise ParseError("expected %r" % kind, token[2])
        self.i += 1

    def parse(self) -> Expr:
        node = self.expr()
        kind, value, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError("trailing input %r" % value, pos)
        return node

    def expr(self) -> Expr:
        tokens = self.tokens
        if tokens[self.i][0] == "-":
            self.i += 1
            node: Expr = Neg(self.term())
        else:
            node = self.term()
        while True:
            kind = tokens[self.i][0]
            if kind == "+":
                self.i += 1
                node = Add(node, self.term())
            elif kind == "-":
                self.i += 1
                node = Sub(node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while self.tokens[self.i][0] == "*":
            self.i += 1
            node = Mul(node, self.factor())
        return node

    def signed_int(self) -> int:
        sign = 1
        if self.tokens[self.i][0] == "-":
            self.i += 1
            sign = -1
        kind, value, pos = self.tokens[self.i]
        if kind != "int":
            raise ParseError("expected an integer", pos)
        self.i += 1
        return sign * _int_literal(value, pos)

    def factor(self) -> Expr:
        node = self.atom()
        if self.tokens[self.i][0] == "^":
            self.i += 1
            node = Pow(node, self.signed_int())
        return node

    def atom(self) -> Expr:
        kind, value, pos = self.tokens[self.i]
        self.i += 1
        if kind == "name":
            node = _NAMES.get(value)
            if node is not None:
                return node(value)
            if value == "qint":
                self.expect("(")
                n = self.signed_int()
                self.expect(")")
                return QIntNode(n)
            raise ParseError("unknown name %r" % value, pos)
        if kind == "int":
            return Lit(_int_literal(value, pos))
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError("parentheses nested deeper than %d" % MAX_NESTING, pos)
            self.depth += 1
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return node
        if kind == "[":
            return self.monomial()
        raise ParseError("unexpected token %r" % (value or "end of input"), pos)

    def monomial(self) -> Mono:
        even = self.word_slot((0, 2))
        self.expect("|")
        odd = self.word_slot((1, 3))
        self.expect("|")
        central = self.central_slot()
        self.expect("]")
        return Mono(even, odd, central)

    def word_slot(self, allowed: tuple) -> tuple:
        tokens = self.tokens
        if tokens[self.i][0] == "-":
            self.i += 1
            return ()
        letters = []
        while True:
            _, value, pos = tokens[self.i]
            self.i += 1
            i = _WORD_LETTERS.get(value)
            if i is None:
                raise ParseError("expected a word letter", pos)
            if i not in allowed:
                raise ParseError("letter %r is in the wrong slot" % value, pos)
            letters.append(i)
            if tokens[self.i][0] != ".":
                return tuple(letters)
            self.i += 1

    def central_slot(self) -> tuple:
        tokens = self.tokens
        exps = [0, 0, 0, 0]
        if tokens[self.i][0] == "-":
            self.i += 1
            return tuple(exps)
        while True:
            _, value, pos = tokens[self.i]
            self.i += 1
            i = _CENTRAL_LETTERS.get(value)
            if i is None:
                raise ParseError("expected a central generator", pos)
            power = 1
            if tokens[self.i][0] == "^":
                self.i += 1
                power = self.signed_int()
            exps[i] += power
            if tokens[self.i][0] != ".":
                return tuple(exps)
            self.i += 1


def parse(text: str, mode: str = "box") -> Expr:
    """The syntax tree of `text`.  `mode` accepts only "box", the one
    expression language; it stays only because perfbench passes it."""
    if mode != "box":
        raise ValueError("mode must be 'box', not %r" % (mode,))
    return _Parser(text).parse()


# -- evaluation ---------------------------------------------------------------


def _accumulate(acc: dict, e: BoxElem, sign: int) -> None:
    """acc += sign * e, on state maps; then the term budget is checked under
    the name `sum`, as a `BoxElem` sum checks it."""
    for key, qd in e.state.items():
        bt._add_into(acc, key, qd, 0, sign)
    bt._check_term_budget("sum", len(acc))


# each name an atom may be, as the arguments (even, odd, central, a/b
# exponents, q exponent, integer) of `boxtilde._times_monomial`
_NAME_ATOMS = {
    "q": (b"", b"", ZERO_CENTRAL, (0, 0), 1, 1), "a": (b"", b"", ZERO_CENTRAL, (1, 0), 0, 1),
    "b": (b"", b"", ZERO_CENTRAL, (0, 1), 0, 1),
    "x0": (b"\x00", b"", ZERO_CENTRAL, (0, 0), 0, 1), "x1": (b"", b"\x01", ZERO_CENTRAL, (0, 0), 0, 1),
    "x2": (b"\x02", b"", ZERO_CENTRAL, (0, 0), 0, 1), "x3": (b"", b"\x03", ZERO_CENTRAL, (0, 0), 0, 1),
    "c0": (b"", b"", (1, 0, 0, 0), (0, 0), 0, 1), "c1": (b"", b"", (0, 1, 0, 0), (0, 0), 0, 1),
    "c2": (b"", b"", (0, 0, 1, 0), (0, 0), 0, 1), "c3": (b"", b"", (0, 0, 0, 1), (0, 0), 0, 1),
}


def _atom(n: Expr):
    """A one-term factor (a letter x_i, an int, a bracket monomial, or a
    power of q, a, b or c_i) in the shape of `_NAME_ATOMS`; None for any
    other node.  A central power past the checked 64-bit range raises
    CentralOverflowError here, and a bracket monomial then checks the word
    cap, under the name `monomial`."""
    if isinstance(n, Lit):
        return (b"", b"", ZERO_CENTRAL, (0, 0), 0, n.value)
    if isinstance(n, (Sym, Gen)):
        return _NAME_ATOMS[n.name]
    if isinstance(n, Mono):
        # the bound a central power is checked against, c0^n alike
        central = bt.scale_central(tuple(n.central), 1)
        bt._check_word_cap("monomial", len(n.even) + len(n.odd))
        return (bytes(n.even), bytes(n.odd), central, (0, 0), 0, 1)
    if isinstance(n, Pow) and isinstance(n.base, (Sym, Gen)) and n.base.name[0] != "x":
        even, odd, central, (i, j), k, c = _NAME_ATOMS[n.base.name]
        p = n.exponent
        return (even, odd, bt.scale_central(central, p), (i * p, j * p), k * p, c)
    return None


def evaluate(node: Expr) -> BoxElem:
    """Exact evaluation to a normal form."""

    def walk(n):
        atom = _atom(n)
        if atom is not None:
            even, odd, central, ab, k, c = atom
            return BoxElem._of({(even, odd, central, ab): {k: c}} if c else {})
        if isinstance(n, QIntNode):
            # [n]_q has |n| terms, so a huge n is refused before it is built
            bt._check_term_budget("qint", abs(n.n))
            return BoxElem._of(bt._scalar_state(RING.qint(n.n)))
        if isinstance(n, Neg):
            return -walk(n.arg)
        if isinstance(n, (Add, Sub)):
            # a chain a +- b +- c nests to the left; sum it into one dict
            # instead of copying the partial sum at every step
            rights = []
            while isinstance(n, (Add, Sub)):
                rights.append(n)
                n = n.left
            acc: dict = {}
            _accumulate(acc, walk(n), 1)
            for link in reversed(rights):
                _accumulate(acc, walk(link.right), -1 if isinstance(link, Sub) else 1)
            return BoxElem._of(acc)
        if isinstance(n, Mul):
            # a chain a * b * c nests to the left as well; multiply it out
            # in the same order, into one running state map: an atom is
            # applied to it by `_times_atom`, any other factor by `multiply`
            rights = []
            while isinstance(n, Mul):
                rights.append(n.right)
                n = n.left
            state = walk(n).state
            for right in reversed(rights):
                atom = _atom(right)
                if atom is None:
                    state = bt.multiply(BoxElem._of(state), walk(right)).state
                else:
                    state = bt._times_atom(state, atom)
            return BoxElem._of(state)
        if isinstance(n, Pow):
            return walk(n.base) ** n.exponent
        raise TypeError("unknown AST node %r" % (n,))

    return walk(node)


def eval_text(text: str, mode: str = "box") -> BoxElem:
    return evaluate(parse(text, mode))


def render(e: BoxElem) -> str:
    """Canonical text for an element; parses back to an equal element."""
    if isinstance(e, BoxElem):
        return e.render()
    raise TypeError("cannot render %r" % (e,))
