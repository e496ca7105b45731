"""Surface syntax for algebra expressions.

Grammar (whitespace insignificant, juxtaposition is never multiplication):

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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple, Union

from . import boxtilde as bt
from .boxtilde import BoxElem
from .qcoeff import DEFAULT_RING as RING, CoefficientTooLargeError


class ParseError(ValueError):
    """Syntax error, carrying the byte offset of the offender."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (at offset %d)" % (message, position))
        self.position = position


# -- AST --------------------------------------------------------------------


@dataclass
class Lit:
    value: int


@dataclass
class Sym:
    name: str


@dataclass
class Gen:
    name: str


@dataclass
class QIntNode:
    n: int


@dataclass
class Neg:
    arg: "Expr"


@dataclass
class Add:
    left: "Expr"
    right: "Expr"


@dataclass
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass
class Pow:
    base: "Expr"
    exponent: int


@dataclass
class Mono:
    even: tuple
    odd: tuple
    central: tuple


Expr = Union[Lit, Sym, Gen, QIntNode, Neg, Add, Sub, Mul, Pow, Mono]


# -- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()\[\]|.]))"
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ParseError("unexpected character %r" % text[bad], bad)
        if m.group("int") is not None:
            tokens.append(("int", m.group("int"), m.start("int")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


_GENERATORS = {"x0", "x1", "x2", "x3", "c0", "c1", "c2", "c3"}


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
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> Tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError("expected %r" % op, pos)
        self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input %r" % value, pos)
        return node

    def expr(self) -> Expr:
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value == "-":
            self.advance()
            negate = True
        node: Expr = self.term()
        if negate:
            node = Neg(node)
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if value == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                node = Mul(node, self.factor())
            else:
                return node

    def signed_int(self) -> int:
        sign = 1
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            sign = -1
            kind, value, pos = self.peek()
        if kind != "int":
            raise ParseError("expected an integer", pos)
        self.advance()
        return sign * _int_literal(value, pos)

    def factor(self) -> Expr:
        node = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            node = Pow(node, self.signed_int())
        return node

    def atom(self) -> Expr:
        kind, value, pos = self.advance()
        if kind == "int":
            return Lit(_int_literal(value, pos))
        if kind == "name":
            if value == "qint":
                self.expect_op("(")
                n = self.signed_int()
                self.expect_op(")")
                return QIntNode(n)
            if value in RING.symbols:
                return Sym(value)
            if value in _GENERATORS:
                return Gen(value)
            raise ParseError("unknown name %r" % value, pos)
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError("parentheses nested deeper than %d" % MAX_NESTING, pos)
            self.depth += 1
            node = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return node
        if kind == "op" and value == "[":
            return self.monomial()
        raise ParseError("unexpected token %r" % (value or "end of input"), pos)

    def monomial(self) -> Mono:
        even = self.word_slot((0, 2))
        self.expect_op("|")
        odd = self.word_slot((1, 3))
        self.expect_op("|")
        central = self.central_slot()
        self.expect_op("]")
        return Mono(even, odd, central)

    def word_slot(self, allowed: tuple) -> tuple:
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return ()
        letters = []
        while True:
            kind, value, pos = self.advance()
            if kind != "name" or value not in _GENERATORS or value[0] != "x":
                raise ParseError("expected a word letter", pos)
            i = int(value[1])
            if i not in allowed:
                raise ParseError("letter %r is in the wrong slot" % value, pos)
            letters.append(i)
            kind, value, _ = self.peek()
            if kind == "op" and value == ".":
                self.advance()
                continue
            return tuple(letters)

    def central_slot(self) -> tuple:
        kind, value, pos = self.peek()
        exps = [0, 0, 0, 0]
        if kind == "op" and value == "-":
            self.advance()
            return tuple(exps)
        while True:
            kind, value, pos = self.advance()
            if kind != "name" or value not in _GENERATORS or value[0] != "c":
                raise ParseError("expected a central generator", pos)
            i = int(value[1])
            power = 1
            kind, value, _ = self.peek()
            if kind == "op" and value == "^":
                self.advance()
                power = self.signed_int()
            exps[i] += power
            kind, value, _ = self.peek()
            if kind == "op" and value == ".":
                self.advance()
                continue
            return tuple(exps)


def parse(text: str, mode: str = "box") -> Expr:
    """The syntax tree of `text`.  `mode` accepts only "box", the one
    expression language; it stays only because perfbench passes it."""
    if mode != "box":
        raise ValueError("mode must be 'box', not %r" % (mode,))
    return _Parser(text).parse()


# -- evaluation ---------------------------------------------------------------


# a power of a one-term element whose coefficient would have more bits
# than this is refused before it is built, since past it the build itself
# is the cost: 3^(2^20), about 1.7 million bits, takes 0.14 s on one core
# under CPython 3.11, and the cost grows faster than the bit count.  The
# bound is 73 times the bits of the interpreter's default print limit, so
# a value short of it may still cancel before it is printed
_POWER_BIT_BOUND = 1 << 20


def _refuse_oversized_power(e: BoxElem, n: int) -> None:
    """Raises CoefficientTooLargeError when the n-th power of a one-term
    element is sure to carry a coefficient past `_POWER_BIT_BOUND` bits,
    before it is built.

    The term of the power with the longest word has coefficient c^n, and
    |c|^n >= 2^(n (b - 1)) for a b-bit c, a number of at least n (b - 1) + 1
    bits.
    """
    if len(e.state) != 1:
        return
    (qd,) = e.state.values()
    if len(qd) != 1:
        return
    (c,) = qd.values()
    bits = n * (abs(c).bit_length() - 1)
    if bits >= _POWER_BIT_BOUND:
        raise CoefficientTooLargeError(
            "a power with a coefficient of at least %d bits is past the bound of %d bits"
            % (bits + 1, _POWER_BIT_BOUND)
        )


def _accumulate(acc: dict, e: BoxElem, sign: int) -> None:
    """acc += sign * e, on state maps."""
    for key, qd in e.state.items():
        bt._add_into(acc, key, qd, 0, sign)


def evaluate(node: Expr) -> BoxElem:
    """Exact evaluation to a normal form."""

    def scalar(c):
        return BoxElem._of(bt._scalar_state(c))

    def walk(n):
        if isinstance(n, Lit):
            return scalar(RING.from_int(n.value))
        if isinstance(n, Sym):
            return scalar(RING.gen(n.name))
        if isinstance(n, QIntNode):
            # [n]_q has |n| terms, so a huge n is refused before it is built
            bt._check_term_budget("qint", abs(n.n))
            return scalar(RING.qint(n.n))
        if isinstance(n, Gen):
            if n.name[0] == "x":
                return bt.generator(int(n.name[1]))
            return bt.central_gen(int(n.name[1]))
        if isinstance(n, Mono):
            # the bound a central power is checked against, c0^n alike
            central = bt.scale_central(tuple(n.central), 1)
            return bt._basis(bytes(n.even), bytes(n.odd), central)
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
            # in the same order without recursing down the chain
            rights = []
            while isinstance(n, Mul):
                rights.append(n.right)
                n = n.left
            product = walk(n)
            for right in reversed(rights):
                product = product * walk(right)
            return product
        if isinstance(n, Pow):
            base = walk(n.base)
            _refuse_oversized_power(base, n.exponent)
            return base ** n.exponent
        raise TypeError("unknown AST node %r" % (n,))

    return walk(node)


def eval_text(text: str, mode: str = "box") -> BoxElem:
    return evaluate(parse(text, mode))


def render(e: BoxElem) -> str:
    """Canonical text for an element; parses back to an equal element."""
    if isinstance(e, BoxElem):
        return e.render()
    raise TypeError("cannot render %r" % (e,))
