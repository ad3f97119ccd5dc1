"""Link-weight formulas as arithmetic parse trees, plus their genetic operators.

The tree language: binary +, -, *, / over the leaves bw, dl, util, threshold
and real constants. Division is protected (quotient 1.0 when the denominator
is near zero) so evaluation is total. Trees are immutable; every random
operation takes the caller's seeded generator.
"""

from __future__ import annotations

import math
import re
from random import Random
from typing import NamedTuple

OPS = ("+", "-", "*", "/")
VAR_NAMES = ("bw", "dl", "util", "threshold")

DIV_EPS = 1e-9
# Values are clamped per node so that deep multiply chains cannot overflow
# to inf/nan; weights saturate long before this bound matters.
VALUE_CAP = 1e12

DEFAULT_MAX_DEPTH = 15
DEFAULT_CONST_MIN = 0.0
DEFAULT_CONST_MAX = 100.0


# Trees and contexts are named tuples, not frozen dataclasses: hashing,
# comparing and building them runs in C, and a tree's hash and equality are
# those of the tuple of its fields, as a frozen dataclass's were.
class Const(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str  # one of VAR_NAMES


class BinOp(NamedTuple):
    op: str  # one of OPS
    left: "Expr"
    right: "Expr"


# A PEP 604 union, not typing.Union: typing caches its unions, and through
# the classes' methods the cache would keep every import of this module alive.
Expr = Const | Var | BinOp


class EvalContext(NamedTuple):
    """Per-link inputs to a weight formula."""

    bw: float
    dl: float
    util: float
    threshold: float


class ExprError(ValueError):
    pass


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


def eval_expr(expr: Expr, ctx: EvalContext) -> float:
    """Recursive arithmetic evaluation; always finite."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return getattr(ctx, expr.name)
    left = eval_expr(expr.left, ctx)
    right = eval_expr(expr.right, ctx)
    if expr.op == "+":
        v = left + right
    elif expr.op == "-":
        v = left - right
    elif expr.op == "*":
        v = left * right
    elif expr.op == "/":
        v = 1.0 if abs(right) < DIV_EPS else left / right
    else:
        raise ExprError(f"unknown operator {expr.op!r}")
    if v > VALUE_CAP:
        return VALUE_CAP
    if v < -VALUE_CAP:
        return -VALUE_CAP
    return v


def to_weight(v: float) -> int:
    """Positive integer link weight: max(1, floor(|v|)).

    A tiny epsilon absorbs float rounding so that values that are integers
    up to representation error (e.g. 3.9999999999999987) floor as intended.
    """
    if not math.isfinite(v):
        raise ExprError(f"weight value must be finite, got {v}")
    return max(1, math.floor(abs(v) + DIV_EPS))


def depth(expr: Expr) -> int:
    if isinstance(expr, BinOp):
        return 1 + max(depth(expr.left), depth(expr.right))
    return 1


def size(expr: Expr) -> int:
    if isinstance(expr, BinOp):
        return 1 + size(expr.left) + size(expr.right)
    return 1


def _nodes_preorder(expr: Expr, level: int, out: list[tuple[Expr, int]]) -> None:
    out.append((expr, level))
    if isinstance(expr, BinOp):
        _nodes_preorder(expr.left, level + 1, out)
        _nodes_preorder(expr.right, level + 1, out)


def nodes_with_levels(expr: Expr) -> list[tuple[Expr, int]]:
    """Preorder (subtree, level-from-root) pairs; the root is level 1."""
    out: list[tuple[Expr, int]] = []
    _nodes_preorder(expr, 1, out)
    return out


def replace_subtree(expr: Expr, index: int, replacement: Expr) -> Expr:
    """The tree with the preorder node at `index` swapped out.

    Only the nodes on the path from the root to `index` are rebuilt; every
    other subtree is shared with `expr`.
    """
    if not (0 <= index < size(expr)):
        raise ExprError(f"node index {index} out of range")

    def rec(node: Expr, i: int) -> Expr:
        if i == 0:
            return replacement
        # a node in range below the root: `node` is a BinOp whose left
        # subtree holds preorder slots 1..size(left)
        left_size = size(node.left)
        if i <= left_size:
            return BinOp(node.op, rec(node.left, i - 1), node.right)
        return BinOp(node.op, node.left, rec(node.right, i - 1 - left_size))

    return rec(expr, index)


def grow_random(
    max_depth: int,
    rng: Random,
    const_min: float = DEFAULT_CONST_MIN,
    const_max: float = DEFAULT_CONST_MAX,
) -> Expr:
    """Random grammar-valid tree of depth <= max_depth (grow method).

    At the depth limit only leaves are drawn; otherwise leaf/internal is an
    even coin, with operator and leaf kinds uniform within their group.
    """
    if max_depth < 1:
        raise ExprError(f"max_depth must be >= 1, got {max_depth}")
    if max_depth == 1 or rng.random() < 0.5:
        kind = rng.randrange(5)
        if kind == 0:
            return Const(rng.uniform(const_min, const_max))
        return Var(VAR_NAMES[kind - 1])
    op = OPS[rng.randrange(4)]
    left = grow_random(max_depth - 1, rng, const_min, const_max)
    right = grow_random(max_depth - 1, rng, const_min, const_max)
    return BinOp(op, left, right)


def crossover(
    a: Expr, b: Expr, rng: Random, max_depth: int = DEFAULT_MAX_DEPTH
) -> tuple[Expr, Expr]:
    """One-point crossover: swap one uniformly chosen subtree of each parent.

    A child whose depth would exceed max_depth is replaced by a copy of its
    parent (retry-free repair).
    """
    nodes_a = nodes_with_levels(a)
    nodes_b = nodes_with_levels(b)
    ia = rng.randrange(len(nodes_a))
    ib = rng.randrange(len(nodes_b))
    child_a = replace_subtree(a, ia, nodes_b[ib][0])
    child_b = replace_subtree(b, ib, nodes_a[ia][0])
    if depth(child_a) > max_depth:
        child_a = a
    if depth(child_b) > max_depth:
        child_b = b
    return child_a, child_b


def mutate(
    expr: Expr,
    rng: Random,
    max_depth: int = DEFAULT_MAX_DEPTH,
    const_min: float = DEFAULT_CONST_MIN,
    const_max: float = DEFAULT_CONST_MAX,
) -> Expr:
    """One-point mutation: regrow one uniformly chosen subtree.

    The replacement is grown with a depth budget that keeps the whole tree
    within max_depth.
    """
    nodes = nodes_with_levels(expr)
    i = rng.randrange(len(nodes))
    level = nodes[i][1]
    budget = max(1, max_depth - level + 1)
    replacement = grow_random(budget, rng, const_min, const_max)
    return replace_subtree(expr, i, replacement)


def format_expr(expr: Expr) -> str:
    """Fully parenthesized infix text; inverse of parse_expr."""
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    return f"({format_expr(expr.left)} {expr.op} {format_expr(expr.right)})"


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<op>[+*/-])|"
    r"(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<name>[a-zA-Z_]+))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


def parse_expr(text: str) -> Expr:
    """Parse the fully parenthesized infix format produced by format_expr."""
    tokens = _tokenize(text)
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else (None, "", len(text))

    def parse_node() -> Expr:
        nonlocal idx
        kind, value, pos = peek()
        if kind is None:
            raise ParseError("unexpected end of input", pos)
        if kind == "num":
            idx += 1
            return Const(float(value))
        if kind == "name":
            idx += 1
            if value not in VAR_NAMES:
                raise ParseError(f"unknown identifier {value!r}", pos)
            return Var(value)
        if kind == "lpar":
            idx += 1
            left = parse_node()
            okind, ovalue, opos = peek()
            if okind != "op":
                raise ParseError("expected operator", opos)
            idx += 1
            right = parse_node()
            ckind, _, cpos = peek()
            if ckind != "rpar":
                raise ParseError("expected ')'", cpos)
            idx += 1
            return BinOp(ovalue, left, right)
        raise ParseError(f"unexpected token {value!r}", pos)

    expr = parse_node()
    kind, value, pos = peek()
    if kind is not None:
        raise ParseError(f"trailing input {value!r}", pos)
    return expr
