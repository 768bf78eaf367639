"""Boundary-data expressions: parsing, evaluation, symbolic d/ds.

Grammar (standard precedence, ^ binds tightest and is right-associative):

    expr   := term  (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | 's' | 'pi' | 'l' | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := sin | cos | exp | sinh | cosh

Errors carry the byte offset of the offending token.  Every AST node can
differentiate itself with respect to s (the side-length symbol l is a
constant), which is what feeds the Phi transforms of expression-specified
Dirichlet data.  Numbers, pi and l evaluate as numpy floats, so 1/0 is inf.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ExpressionError
from .traces import BoundaryTrace

# numpy ufuncs so traces evaluate on arrays of quadrature nodes directly
_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sinh": np.sinh,
    "cosh": np.cosh,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


class Token(NamedTuple):
    kind: str
    text: str
    offset: int


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            stripped = len(text) - len(text[pos:].lstrip())
            if text[pos:].strip() == "":
                break
            raise ExpressionError(f"unexpected character {text[stripped]!r}", stripped)
        kind = match.lastgroup
        out.append(Token(kind, match.group(kind), match.start(kind)))
        pos = match.end()
    out.append(Token("end", "", len(text)))
    return out


# -- AST -------------------------------------------------------------------
class Node:
    def __call__(self, s: float, side_length: float) -> float:
        raise NotImplementedError

    def diff(self) -> "Node":
        raise NotImplementedError

    def pretty(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Node):
    value: float

    def __call__(self, s, side_length):
        return np.float64(self.value)

    def diff(self):
        return Num(0.0)

    def pretty(self):
        return repr(self.value)


@dataclass(frozen=True)
class Sym(Node):
    name: str  # 's', 'pi' or 'l'

    def __call__(self, s, side_length):
        if self.name == "s":
            return s
        return np.float64(np.pi if self.name == "pi" else side_length)

    def diff(self):
        return Num(1.0 if self.name == "s" else 0.0)

    def pretty(self):
        return self.name


@dataclass(frozen=True)
class BinOp(Node):
    op: str
    left: Node
    right: Node
    offset: int = 0  # of the operator in the text, named when d/ds of a '^' fails

    def __call__(self, s, side_length):
        a = self.left(s, side_length)
        b = self.right(s, side_length)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            return a / b
        # numpy, not Python, float semantics: an overflow gives inf
        return np.power(a, b)

    def diff(self):
        a, b, da, db = self.left, self.right, self.left.diff(), self.right.diff()
        if self.op in "+-":
            return BinOp(self.op, da, db)
        if self.op == "*":
            return BinOp("+", BinOp("*", da, b), BinOp("*", a, db))
        if self.op == "/":
            num = BinOp("-", BinOp("*", da, b), BinOp("*", a, db))
            return BinOp("/", num, BinOp("^", b, Num(2.0)))
        if not _free_of_s(b):
            raise ExpressionError("d/ds of a power needs a constant exponent", self.offset)
        # d/ds a^c = c a^(c-1) a'
        return BinOp("*", BinOp("*", b, BinOp("^", a, BinOp("-", b, Num(1.0)))), da)

    def pretty(self):
        return f"({self.left.pretty()} {self.op} {self.right.pretty()})"


@dataclass(frozen=True)
class Neg(Node):
    arg: Node

    def __call__(self, s, side_length):
        return -self.arg(s, side_length)

    def diff(self):
        return Neg(self.arg.diff())

    def pretty(self):
        return f"(-{self.arg.pretty()})"


@dataclass(frozen=True)
class Call(Node):
    func: str
    arg: Node

    def __call__(self, s, side_length):
        return _FUNCS[self.func](self.arg(s, side_length))

    def diff(self):
        inner = self.arg.diff()
        if self.func == "sin":
            outer: Node = Call("cos", self.arg)
        elif self.func == "cos":
            outer = Neg(Call("sin", self.arg))
        elif self.func == "exp":
            outer = Call("exp", self.arg)
        elif self.func == "sinh":
            outer = Call("cosh", self.arg)
        else:  # cosh
            outer = Call("sinh", self.arg)
        return BinOp("*", outer, inner)

    def pretty(self):
        return f"{self.func}({self.arg.pretty()})"


def _free_of_s(node: Node) -> bool:
    if isinstance(node, Sym):
        return node.name != "s"
    return all(_free_of_s(child) for child in vars(node).values() if isinstance(child, Node))


# -- parser ----------------------------------------------------------------
class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.current
        self.pos += 1
        return tok

    def expect_op(self, text: str):
        tok = self.current
        if tok.kind != "op" or tok.text != text:
            raise ExpressionError(f"expected {text!r}", tok.offset)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.current
        if tok.kind != "end":
            raise ExpressionError(f"unexpected token {tok.text!r}", tok.offset)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.current.kind == "op" and self.current.text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.current.kind == "op" and self.current.text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Node:
        if self.current.kind == "op" and self.current.text == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        if self.current.kind == "op" and self.current.text == "^":
            offset = self.advance().offset
            node = BinOp("^", node, self.factor(), offset)
        return node

    def atom(self) -> Node:
        tok = self.current
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "name":
            self.advance()
            if tok.text in ("s", "pi", "l"):
                return Sym(tok.text)
            if tok.text in _FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            raise ExpressionError(f"unknown identifier {tok.text!r}", tok.offset)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(
            f"expected a value, got {tok.text!r}" if tok.text else "unexpected end of input",
            tok.offset,
        )


def parse_expression(text: str) -> Node:
    """Parse ``text`` into an AST; raises ExpressionError with byte offset."""
    return _Parser(_tokenize(text)).parse()


def expression_trace(text: str, side: int, side_length: float) -> BoundaryTrace:
    """A BoundaryTrace evaluating the expression with its symbolic d/ds.

    Both return float arrays shaped like ``s`` (a float for scalar ``s``),
    constant expressions included.  Evaluation follows numpy semantics for
    scalar ``s`` too, so a division by zero or an overflow yields inf or
    NaN, silently, not an exception or a warning; callers check their
    results for finiteness.
    """
    ast = parse_expression(text)
    dast = ast.diff()

    def on_grid(node):
        def evaluate(s):
            s = np.asarray(s, dtype=float)
            with np.errstate(all="ignore"):
                out = np.array(np.broadcast_to(node(s, side_length), s.shape), dtype=float)
            return out if out.ndim else float(out)

        return evaluate

    return BoundaryTrace(side=side, value=on_grid(ast), derivative=on_grid(dast))
