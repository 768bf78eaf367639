"""Boundary-data expressions: parsing, and evaluation with d/ds by a tree walk.

Literals, ``s``, ``pi``, the side length ``l`` and ``sin cos exp sinh cosh``
of a parenthesised argument, joined by ``+ -`` (loosest), ``* /`` and ``^``
(tightest, right-associative); a unary minus binds between ``* /`` and
``^``, so ``-s^2`` is -(s^2).  ``parse_expression`` tokenizes the text in
one ``re.findall`` pass and reads the tokens by precedence climbing (Pratt,
"Top down operator precedence", 1973) into a tree of ``Node`` records; its
errors carry the byte offset of the offending token.
A call of a ``Node`` evaluates its tree by one recursive walk; ``Node.d``
carries d/ds, for the Phi transforms of Dirichlet data, up the same walk
(forward-mode differentiation), so no derivative tree is built.  Each tree
is read about once per run, so nothing is compiled or folded.  Numbers, pi
and l are numpy floats: 1/0 is inf.
"""
from __future__ import annotations

import operator
import re
from typing import NamedTuple

import numpy as np

from .errors import ExpressionError
from .traces import BoundaryTrace

#: each function: its numpy ufunc, so that arrays of nodes evaluate at once,
#: and its derivative as (sign, function)
_FUNCS = {"sin": (np.sin, 1, "cos"), "cos": (np.cos, -1, "sin"), "exp": (np.exp, 1, "exp"),
          "sinh": (np.sinh, 1, "cosh"), "cosh": (np.cosh, 1, "sinh")}
#: each binary operator: its binding power (a unary minus binds at 3) and its
#: operation; '^' is right-associative and, as np.power, overflows to inf
_BINARY = {"+": (1, operator.add), "-": (1, operator.sub), "*": (2, operator.mul),
           "/": (2, operator.truediv), "^": (4, np.power)}
#: the deepest nesting a parse accepts, each operator, function call and pair
#: of parentheses one level.  d/ds is taken in the value's walk, no deeper,
#: so a tree at this depth stays well inside Python's recursion limit of 1000.
MAX_DEPTH = 100
#: one token after its leading whitespace: (whitespace, token, a character
#: no token starts with); no token and no such character is the end.  Digits
#: and whitespace are ASCII only, so all text before the first bad character
#: is ASCII and each character offset is a byte offset.
_TOKEN_RE = re.compile(
    r"(\s*)(?:(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|[A-Za-z_][A-Za-z_0-9]*"
    r"|[-+*/^()])|(.)|\Z)",
    re.DOTALL | re.ASCII,
)


class Node(NamedTuple):
    """One expression node: ``op`` 'num' (its ``value``; pi is one), 's', 'l',
    'neg', a function or a binary operator (at ``offset`` in the text) on ``args``.
    A call evaluates the tree at ``s`` as numpy floats, so 0/0 is NaN at a
    Python float too, as in ``expression_trace``."""

    op: str
    args: tuple = ()
    value: float = 0.0
    offset: int = 0

    def __call__(self, s, side_length):
        with np.errstate(all="ignore"):
            return self._walk(np.asarray(s, dtype=float)[()], np.float64(side_length))

    def _walk(self, s, side_length):
        op, args, value, _ = self
        if not args:
            return s if op == "s" else side_length if op == "l" else np.float64(value)
        a = args[0]._walk(s, side_length)
        if op == "neg":
            return -a
        if op in _FUNCS:
            return _FUNCS[op][0](a)
        return _BINARY[op][1](a, args[1]._walk(s, side_length))

    def d(self, s, side_length):
        """(value, d/ds) of the tree at ``s`` from one forward-mode walk; d/ds
        of a power whose exponent reads s is an ExpressionError."""
        with np.errstate(all="ignore"):
            return self._dual(np.asarray(s, dtype=float)[()], np.float64(side_length))

    def _dual(self, s, side_length):
        op, args, _, offset = self
        if not args:
            return self._walk(s, side_length), np.float64(1.0 if op == "s" else 0.0)
        a, da = args[0]._dual(s, side_length)
        if op == "neg":
            return -a, -da
        if op in _FUNCS:
            func, sign, name = _FUNCS[op]
            outer = _FUNCS[name][0](a)
            return func(a), (-outer if sign < 0 else outer) * da
        b, db = args[1]._dual(s, side_length)
        value = _BINARY[op][1](a, b)
        if op == "^":
            if not _free_of_s(args[1]):
                raise ExpressionError("d/ds of a power needs a constant exponent", offset)
            return value, (b * np.power(a, b - 1.0)) * da  # d/ds a^c = c a^(c-1) a'
        if op in ("+", "-"):
            return value, _BINARY[op][1](da, db)
        if op == "*":
            return value, da * b + a * db
        return value, (da * b - a * db) / np.power(b, 2.0)


def _free_of_s(node: Node) -> bool:
    return node.op != "s" and all(_free_of_s(arg) for arg in node.args)


def parse_expression(text: str) -> Node:
    """Parse ``text`` into a tree; raises ExpressionError with byte offset."""
    texts, offsets, at = [], [], 0
    for space, token, bad in _TOKEN_RE.findall(text):
        at += len(space)
        if bad:
            raise ExpressionError(f"unexpected character {bad!r}", at)
        texts.append(token)
        offsets.append(at)
        at += len(token)
    # each token's binding power as a binary operator; 0 ends an operand's chain
    powers = [_BINARY[tok][0] if tok in _BINARY else 0 for tok in texts]
    pos = 0

    def expect(op: str):
        nonlocal pos
        if texts[pos] != op:
            raise ExpressionError(f"expected {op!r}", offsets[pos])
        pos += 1

    def nested(depth: int, at: int) -> int:
        if depth > MAX_DEPTH:
            raise ExpressionError(f"expression nested deeper than {MAX_DEPTH} levels", offsets[at])
        return depth

    # operand and binary return (node, depth) of text starting ``level`` deep
    def operand(level: int) -> tuple:
        nonlocal pos
        at, tok = pos, texts[pos]
        nested(level, at)
        pos += 1
        if tok == "-":
            node, depth = binary(3, level + 1)
            return Node("neg", (node,), 0.0, 0), nested(depth + 1, at)
        if tok in ("s", "l"):
            return Node(tok, (), 0.0, 0), 1
        call = tok in _FUNCS
        if call or tok == "(":
            if call:
                expect("(")
            node, depth = binary(1, level + 1)
            expect(")")
            return (Node(tok, (node,), 0.0, 0) if call else node), nested(depth + 1, at)
        if not tok or tok in _BINARY or tok == ")":
            got = f"expected a value, got {tok!r}" if tok else "unexpected end of input"
            raise ExpressionError(got, offsets[at])
        if tok != "pi" and (tok[0] == "_" or tok[0].isalpha()):
            raise ExpressionError(f"unknown identifier {tok!r}", offsets[at])
        return Node("num", (), np.pi if tok == "pi" else float(tok), 0), 1

    def binary(min_power: int, level: int) -> tuple:
        """An operand and the operators after it binding at least ``min_power``."""
        nonlocal pos
        node, depth = operand(level)
        while powers[pos] >= min_power:
            at, op = pos, texts[pos]
            pos += 1
            right, right_depth = binary(powers[at] + (op != "^"), level + 1)
            node = Node(op, (node, right), 0.0, offsets[at])
            depth = nested(1 + max(depth, right_depth), at)
        return node, depth

    node = binary(1, 1)[0]
    if texts[pos]:
        raise ExpressionError(f"unexpected token {texts[pos]!r}", offsets[pos])
    return node


def expression_trace(text: str, side: int, side_length: float) -> BoundaryTrace:
    """A BoundaryTrace evaluating the expression and its d/ds as float arrays
    shaped like ``s`` (a float for scalar ``s``), with numpy semantics: a
    division by zero or an overflow yields inf or NaN silently, and callers
    check their results.  The derivative is computed only when called, so a
    d/ds that fails (a power whose exponent reads s) is an ExpressionError
    only where a transform reads it."""
    ast = parse_expression(text)

    def on_grid(s, derivative=False):
        s = np.asarray(s, dtype=float)
        out = ast.d(s, side_length)[1] if derivative else ast(s, side_length)
        out = np.array(np.broadcast_to(out, s.shape), dtype=float)
        return out if out.ndim else float(out)

    return BoundaryTrace(side=side, value=on_grid, derivative=lambda s: on_grid(s, True))
