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


Walk = list[tuple[Expr, int, int, int]]
_walks: dict[int, tuple[Expr, Walk]] = {}  # tree id -> (tree, walk), for recent trees


def preorder(expr: Expr) -> Walk:
    """One walk over the tree: its nodes in preorder, each as (subtree,
    level, size, height). The root is level 1 and a leaf has height 1.

    Selection draws the same parents again and again, so recent walks are
    kept and shared (do not change the list). An entry holds its tree, so
    no other tree can take its id."""
    if id(expr) in _walks:
        return _walks[id(expr)][1]
    walk: Walk = [(expr, 1, 1, 1)]

    def visit(i: int, node: BinOp, level: int) -> int:
        # appends the children of the BinOp at walk[i] (a leaf needs no call)
        below = level + 1
        left, right = node.left, node.right
        walk.append((left, below, 1, 1))
        hl = visit(len(walk) - 1, left, below) if type(left) is BinOp else 1
        walk.append((right, below, 1, 1))
        hr = visit(len(walk) - 1, right, below) if type(right) is BinOp else 1
        height = 1 + (hl if hl > hr else hr)
        walk[i] = (node, level, len(walk) - i, height)
        return height

    if type(expr) is BinOp:
        visit(0, expr, 1)
    if len(_walks) >= 32:
        _walks.clear()
    _walks[id(expr)] = (expr, walk)
    return walk


def depth(expr: Expr) -> int:
    return preorder(expr)[0][3]


def size(expr: Expr) -> int:
    if isinstance(expr, BinOp):
        return 1 + size(expr.left) + size(expr.right)
    return 1


def replace_subtree(
    expr: Expr, index: int, replacement: Expr, height: int = 1, max_depth: float = math.inf
) -> Expr | None:
    """The tree with the preorder node at `index` swapped for `replacement`
    (of the given height), or None when it would be deeper than max_depth.

    That depth is known before anything is built: a subtree at level l of
    height h reaches depth l + h - 1, and only the replacement and the
    off-path sibling of each node on the path can be deepest. Only the nodes
    on the path are rebuilt; every other subtree is shared."""
    walk = preorder(expr)
    if not (0 <= index < len(walk)):
        raise ExprError(f"node index {index} out of range")
    deepest = walk[index][1] + height
    path: list[tuple[BinOp, bool]] = []  # (ancestor, whether the path goes left)
    i = 0
    while i != index:
        left = i + 1
        right = left + walk[left][2]
        went_left = index < right
        path.append((walk[i][0], went_left))
        _, level, _, sibling_height = walk[right if went_left else left]
        deepest = max(deepest, level + sibling_height)
        i = left if went_left else right
    if deepest - 1 > max_depth:
        return None
    for node, went_left in reversed(path):
        children = (replacement, node.right) if went_left else (node.left, replacement)
        replacement = BinOp(node.op, *children)
    return replacement


def grow_random(max_depth: int, rng: Random) -> Expr:
    """Random grammar-valid tree of depth <= max_depth (grow method).

    At the depth limit only leaves are drawn; otherwise leaf/internal is an
    even coin, with operator and leaf kinds uniform within their group.
    """
    if max_depth < 1:
        raise ExprError(f"max_depth must be >= 1, got {max_depth}")
    if max_depth == 1 or rng.random() < 0.5:
        kind = rng.randrange(5)
        if kind == 0:
            return Const(rng.uniform(CONST_MIN, CONST_MAX))
        return Var(VAR_NAMES[kind - 1])
    op = OPS[rng.randrange(4)]
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
    walk_a = preorder(a)
    walk_b = preorder(b)
    ia = rng.randrange(len(walk_a))
    ib = rng.randrange(len(walk_b))
    donor_a, _, _, height_a = walk_a[ia]
    donor_b, _, _, height_b = walk_b[ib]
    child_a = replace_subtree(a, ia, donor_b, height_b, max_depth)
    child_b = replace_subtree(b, ib, donor_a, height_a, max_depth)
    return a if child_a is None else child_a, b if child_b is None else child_b


def mutate(expr: Expr, rng: Random, max_depth: int = DEFAULT_MAX_DEPTH) -> Expr:
    """One-point mutation: regrow one uniformly chosen subtree.

    The replacement is grown with a depth budget that keeps the whole tree
    within max_depth.
    """
    walk = preorder(expr)
    i = rng.randrange(len(walk))
    budget = max(1, max_depth - walk[i][1] + 1)
    return replace_subtree(expr, i, grow_random(budget, rng))


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
    """Parse the fully parenthesized infix format produced by format_expr.

    Constants must be finite; since every operator's result is clamped to
    VALUE_CAP, a parsed tree then evaluates finite on finite inputs.
    """
    tokens = _tokenize(text)
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else (None, "", len(text))

    def parse_node(open_parens: int = 0) -> Expr:
        nonlocal idx
        kind, value, pos = peek()
        if kind is None:
            raise ParseError("unexpected end of input", pos)
        if kind == "num":
            idx += 1
            number = float(value)
            if not math.isfinite(number):  # an overflowing literal such as 1e400
                raise ParseError(f"constant {value!r} is not finite", pos)
            return Const(number)
        if kind == "name":
            idx += 1
            if value not in VAR_NAMES:
                raise ParseError(f"unknown identifier {value!r}", pos)
            return Var(value)
        if kind == "lpar":
            # no tree within the depth bound nests this deep, and refusing
            # here keeps the recursion shallow
            if open_parens == DEFAULT_MAX_DEPTH:
                raise ParseError(f"parentheses nested beyond the depth bound {DEFAULT_MAX_DEPTH}", pos)
            idx += 1
            left = parse_node(open_parens + 1)
            okind, ovalue, opos = peek()
            if okind != "op":
                raise ParseError("expected operator", opos)
            idx += 1
            right = parse_node(open_parens + 1)
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
