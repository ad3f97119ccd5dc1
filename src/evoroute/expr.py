"""Link-weight formulas as arithmetic parse trees, plus their genetic operators.

The tree language: binary +, -, *, / over the leaves bw, dl, util, threshold
and real constants. Division is protected (quotient 1.0 when the denominator
is near zero) so evaluation is total. Trees are immutable; every random
operation takes the caller's seeded generator.
"""

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
# random constant leaves are drawn uniformly from [CONST_MIN, CONST_MAX]
CONST_MIN = 0.0
CONST_MAX = 100.0


# Trees and contexts are named tuples, not frozen dataclasses: hashing,
# comparing and building them runs in C, and a tree's hash and equality are
# those of the tuple of its fields, as a frozen dataclass's were. Every node
# knows its size (node count) and height (a leaf has height 1), so the
# genetic operators descend one path instead of walking the tree.
class Const(NamedTuple):
    value: float
    size = 1
    height = 1


class Var(NamedTuple):
    name: str  # one of VAR_NAMES
    size = 1
    height = 1


class _BinOpFields(NamedTuple):
    op: str  # one of OPS
    left: "Expr"
    right: "Expr"
    size: int
    height: int


class BinOp(_BinOpFields):
    """An operator node. Every way to build one computes ``size`` and
    ``height`` from the children, so equality and hashing stay by value: the
    constructor, ``_make`` and ``_replace`` (which calls ``_make``), and
    copying and pickling (which call the constructor with ``__getnewargs__``).
    """

    __slots__ = ()

    def __new__(cls, op: str, left: "Expr", right: "Expr") -> "BinOp":
        hl, hr = left.height, right.height
        return tuple.__new__(
            cls, (op, left, right, 1 + left.size + right.size, 1 + (hl if hl > hr else hr))
        )

    @classmethod
    def _make(cls, iterable) -> "BinOp":
        # the counts an iterable may carry are recomputed, not trusted
        op, left, right, *_ = iterable
        return cls(op, left, right)

    def __getnewargs__(self) -> tuple:
        return self[:3]


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
    """Recursive arithmetic evaluation; always finite.

    A leaf child is read in place rather than through a call."""
    kind = type(expr)
    if kind is Const:
        return expr.value
    if kind is Var:
        return getattr(ctx, expr.name)
    left, right = expr.left, expr.right
    kind = type(left)
    left = left.value if kind is Const else getattr(ctx, left.name) if kind is Var else eval_expr(left, ctx)
    kind = type(right)
    right = right.value if kind is Const else getattr(ctx, right.name) if kind is Var else eval_expr(right, ctx)
    op = expr.op
    if op == "+":
        v = left + right
    elif op == "-":
        v = left - right
    elif op == "*":
        v = left * right
    elif op == "/":
        v = 1.0 if abs(right) < DIV_EPS else left / right
    else:
        raise ExprError(f"unknown operator {op!r}")
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


def size(expr: Expr) -> int:
    return expr.size


def subtree(expr: Expr, index: int) -> tuple[Expr, int]:
    """The preorder node at `index` and its level (the root is level 1).

    In preorder a node is followed by its left subtree's `size` nodes, then
    its right subtree's, so one path down the child sizes finds it."""
    if not (0 <= index < expr.size):
        raise ExprError(f"node index {index} out of range")
    level = 1
    while index:
        left = expr.left
        if index <= left.size:
            expr, index = left, index - 1
        else:
            expr, index = expr.right, index - 1 - left.size
        level += 1
    return expr, level


def replace_subtree(expr: Expr, index: int, replacement: Expr) -> Expr:
    """The tree with the preorder node at `index` swapped for `replacement`.
    Only the nodes on the path to it are rebuilt; every other subtree is shared."""
    if not (0 <= index < expr.size):
        raise ExprError(f"node index {index} out of range")
    if index == 0:
        return replacement
    left = expr.left
    if index <= left.size:
        return BinOp(expr.op, replace_subtree(left, index - 1, replacement), expr.right)
    return BinOp(expr.op, left, replace_subtree(expr.right, index - 1 - left.size, replacement))


def below(rng: Random, n: int) -> int:
    """A uniform int in [0, n), n >= 1: one ``rng.getrandbits(n.bit_length())``
    word per try, retried while it is n or more. This is the draw that
    ``randrange(n)`` and ``choice`` make on CPython 3.10-3.13, taken without
    their wrappers, so it leaves the stream as they would."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def grow_random(max_depth: int, rng: Random) -> Expr:
    """Random grammar-valid tree of depth <= max_depth (grow method).

    At the depth limit only leaves are drawn; otherwise leaf/internal is an
    even coin, with operator and leaf kinds uniform within their group.
    """
    if max_depth < 1:
        raise ExprError(f"max_depth must be >= 1, got {max_depth}")
    if max_depth == 1 or rng.random() < 0.5:
        kind = below(rng, 5)
        if kind == 0:  # rng.uniform's own expression
            return Const(CONST_MIN + (CONST_MAX - CONST_MIN) * rng.random())
        return Var(VAR_NAMES[kind - 1])
    op = OPS[below(rng, 4)]
    left = grow_random(max_depth - 1, rng)
    right = grow_random(max_depth - 1, rng)
    return BinOp(op, left, right)


def crossover(
    a: Expr, b: Expr, rng: Random, max_depth: int = DEFAULT_MAX_DEPTH
) -> tuple[Expr, Expr]:
    """One-point crossover: swap one uniformly chosen subtree of each parent.

    A child whose depth would exceed max_depth is replaced by a copy of its
    parent (retry-free repair).
    """
    ia = below(rng, a.size)
    ib = below(rng, b.size)
    donor_a, _ = subtree(a, ia)
    donor_b, _ = subtree(b, ib)
    child_a = replace_subtree(a, ia, donor_b)
    child_b = replace_subtree(b, ib, donor_a)
    return (
        a if child_a.height > max_depth else child_a,
        b if child_b.height > max_depth else child_b,
    )


def mutate(expr: Expr, rng: Random, max_depth: int = DEFAULT_MAX_DEPTH) -> Expr:
    """One-point mutation: regrow one uniformly chosen subtree.

    The replacement is grown with a depth budget that keeps the whole tree
    within max_depth.
    """
    i = below(rng, expr.size)
    _, level = subtree(expr, i)
    return replace_subtree(expr, i, grow_random(max(1, max_depth - level + 1), rng))


def format_expr(expr: Expr) -> str:
    """Fully parenthesized infix text; inverse of parse_expr."""
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    return f"({format_expr(expr.left)} {expr.op} {format_expr(expr.right)})"


_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<op>[{re.escape(''.join(OPS))}])|"
    r"(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<name>[a-zA-Z_]+)|(?P<bad>\S))"
)


def parse_expr(text: str, max_depth: int = DEFAULT_MAX_DEPTH) -> Expr:
    """Parse the fully parenthesized infix format produced by format_expr.

    The one depth rule for formula text: a tree is read only if its height is
    at most ``max_depth``, and the first '(' that would open a node with
    children beyond the bound is refused at its offset, which also keeps the
    recursion shallow. A character outside the token set is reported before
    any other fault. Constants must be finite; since every operator's result
    is clamped to VALUE_CAP, a parsed tree then evaluates finite on finite
    inputs.
    """
    tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)) for m in _TOKEN_RE.finditer(text)]
    for kind, value, pos in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", pos)
    end = (None, "", len(text))
    rest = iter(tokens)

    def parse_node(level: int) -> Expr:
        kind, value, pos = next(rest, end)
        if kind is None:
            raise ParseError("unexpected end of input", pos)
        if kind == "num":
            number = float(value)
            if not math.isfinite(number):  # an overflowing literal such as 1e400
                raise ParseError(f"constant {value!r} is not finite", pos)
            return Const(number)
        if kind == "name":
            if value not in VAR_NAMES:
                raise ParseError(f"unknown identifier {value!r}", pos)
            return Var(value)
        if kind == "lpar":
            # an operator node at the bound would put its children beyond it
            if level >= max_depth:
                raise ParseError(f"formula deeper than the depth bound {max_depth}", pos)
            left = parse_node(level + 1)
            kind, op, pos = next(rest, end)
            if kind != "op":
                raise ParseError("expected operator", pos)
            right = parse_node(level + 1)
            kind, _, pos = next(rest, end)
            if kind != "rpar":
                raise ParseError("expected ')'", pos)
            return BinOp(op, left, right)
        raise ParseError(f"unexpected token {value!r}", pos)

    expr = parse_node(1)
    kind, value, pos = next(rest, end)
    if kind is not None:
        raise ParseError(f"trailing input {value!r}", pos)
    return expr
