import copy
import gc
import importlib
import math
import pickle
import random
import sys
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import tree_of_height

from evoroute.expr import (
    CONST_MAX,
    CONST_MIN,
    OPS,
    VAR_NAMES,
    BinOp,
    Const,
    EvalContext,
    ExprError,
    ParseError,
    Var,
    below,
    crossover,
    eval_expr,
    format_expr,
    grow_random,
    mutate,
    parse_expr,
    replace_subtree,
    size,
    subtree,
    to_weight,
)

CTX = EvalContext(bw=100.0, dl=25.0, util=0.6, threshold=0.8)


class TestEval:
    def test_example_formula_at_sixty_percent(self, example_expr):
        assert eval_expr(example_expr, CTX) == pytest.approx(4.0, abs=1e-9)

    def test_example_formula_at_thirty_percent(self, example_expr):
        ctx = EvalContext(100.0, 25.0, 0.3, 0.8)
        assert eval_expr(example_expr, ctx) == pytest.approx(1.44 / 0.81, abs=1e-9)

    def test_protected_division(self):
        expr = BinOp("/", Var("util"), Const(0.0))
        assert eval_expr(expr, CTX) == 1.0

    def test_leaves(self):
        assert eval_expr(Var("bw"), CTX) == 100.0
        assert eval_expr(Var("dl"), CTX) == 25.0
        assert eval_expr(Var("util"), CTX) == 0.6
        assert eval_expr(Var("threshold"), CTX) == 0.8

    def test_always_finite_on_random_trees(self):
        import math

        rng = random.Random(7)
        for _ in range(500):
            expr = grow_random(15, rng)
            v = eval_expr(expr, CTX)
            assert math.isfinite(v)


class TestToWeight:
    @pytest.mark.parametrize(
        "value,expected", [(4.0, 4), (1.777, 1), (-2.6, 2), (0.3, 1), (0.0, 1)]
    )
    def test_examples(self, value, expected):
        assert to_weight(value) == expected

    def test_always_positive(self):
        rng = random.Random(1)
        for _ in range(1000):
            assert to_weight(rng.uniform(-1e6, 1e6)) >= 1


class TestGrow:
    def test_depth_one_is_leaf(self):
        rng = random.Random(3)
        for _ in range(50):
            assert grow_random(1, rng).height == 1

    def test_deterministic_under_seed(self):
        a = grow_random(15, random.Random(99))
        b = grow_random(15, random.Random(99))
        assert a == b

    def test_depth_bound_over_many_samples(self):
        rng = random.Random(5)
        assert all(grow_random(15, rng).height <= 15 for _ in range(10_000))

    def test_const_range(self):
        rng = random.Random(11)
        for _ in range(300):
            expr = grow_random(4, rng)
            stack = [expr]
            while stack:
                node = stack.pop()
                if isinstance(node, Const):
                    assert 0.0 <= node.value <= 100.0
                elif isinstance(node, BinOp):
                    stack.extend((node.left, node.right))


class TestBelow:
    """``below`` and the constant draw are the draws the GP made through
    ``randrange``, ``choice`` and ``uniform``, word for word."""

    SIZES = [*range(1, 301), 4097, 65536, 10**6]

    def test_is_randrange_choice_and_uniform(self):
        for seed in range(200):
            rng, ref = random.Random(seed), random.Random(seed)
            for n in self.SIZES:
                seq = range(n)
                assert below(rng, n) == ref.randrange(n)
                assert seq[below(rng, n)] == ref.choice(seq)
                assert CONST_MIN + (CONST_MAX - CONST_MIN) * rng.random() == ref.uniform(0.0, 100.0)
            assert rng.getstate() == ref.getstate()

    def test_grow_draws_as_the_reference(self):
        for seed in range(300):
            rng, ref = random.Random(seed), random.Random(seed)
            for max_depth in (1, 2, 5, 15):
                assert grow_random(max_depth, rng) == reference_grow(max_depth, ref)
            assert rng.getstate() == ref.getstate()


class TestCrossover:
    def test_single_leaves_swap(self):
        a, b = Var("util"), Const(7.0)
        c1, c2 = crossover(a, b, random.Random(0))
        assert (c1, c2) == (b, a)

    def test_deterministic(self):
        rng = random.Random(4)
        a = grow_random(8, rng)
        b = grow_random(8, rng)
        r1 = crossover(a, b, random.Random(123))
        r2 = crossover(a, b, random.Random(123))
        assert r1 == r2

    def test_depth_repair_copies_parent(self):
        rng = random.Random(2)
        repaired = 0
        for seed in range(300):
            a = grow_random(15, rng)
            b = grow_random(15, rng)
            c1, c2 = crossover(a, b, random.Random(seed))
            assert c1.height <= 15 and c2.height <= 15
            if c1 == a and a.height > 1:
                repaired += 1
        assert repaired > 0  # the repair path is exercised


def reference_size(expr):
    if isinstance(expr, BinOp):
        return 1 + reference_size(expr.left) + reference_size(expr.right)
    return 1


def reference_depth(expr):
    if isinstance(expr, BinOp):
        return 1 + max(reference_depth(expr.left), reference_depth(expr.right))
    return 1


def reference_replace_subtree(expr, index, replacement):
    """Full-rebuild reference: every BinOp of the tree is built anew."""

    def rec(node, counter):
        i = counter[0]
        counter[0] += 1
        if i == index:
            counter[0] += reference_size(node) - 1  # skip the replaced subtree's slots
            return replacement
        if isinstance(node, BinOp):
            left = rec(node.left, counter)
            right = rec(node.right, counter)
            return BinOp(node.op, left, right)
        return node

    if not (0 <= index < reference_size(expr)):
        raise ExprError(f"node index {index} out of range")
    return rec(expr, [0])


_LEAVES = st.one_of(
    st.floats(min_value=0.0, max_value=1e6).map(Const), st.sampled_from(VAR_NAMES).map(Var)
)
# BinOp's constructor takes (op, left, right) and computes the counts; given
# the class itself, st.builds would also ask for size and height.
TREES = st.recursive(
    _LEAVES,
    lambda kids: st.builds(lambda op, left, right: BinOp(op, left, right), st.sampled_from(OPS), kids, kids),
    max_leaves=24,
)


def reference_nodes_with_levels(expr, level=1):
    """Recursive preorder (subtree, level) pairs; the root is level 1."""
    out = [(expr, level)]
    if isinstance(expr, BinOp):
        out += reference_nodes_with_levels(expr.left, level + 1)
        out += reference_nodes_with_levels(expr.right, level + 1)
    return out


def reference_crossover(a, b, rng, max_depth=15):
    """Crossover that builds both children, then measures their depth."""
    nodes_a = reference_nodes_with_levels(a)
    nodes_b = reference_nodes_with_levels(b)
    ia = rng.randrange(len(nodes_a))
    ib = rng.randrange(len(nodes_b))
    child_a = reference_replace_subtree(a, ia, nodes_b[ib][0])
    child_b = reference_replace_subtree(b, ib, nodes_a[ia][0])
    if reference_depth(child_a) > max_depth:
        child_a = a
    if reference_depth(child_b) > max_depth:
        child_b = b
    return child_a, child_b


def reference_grow(max_depth, rng):
    """The grow method drawn through randrange and uniform."""
    if max_depth == 1 or rng.random() < 0.5:
        kind = rng.randrange(5)
        return Const(rng.uniform(0.0, 100.0)) if kind == 0 else Var(VAR_NAMES[kind - 1])
    op = OPS[rng.randrange(4)]
    left = reference_grow(max_depth - 1, rng)
    return BinOp(op, left, reference_grow(max_depth - 1, rng))


def reference_mutate(expr, rng, max_depth=15):
    nodes = reference_nodes_with_levels(expr)
    i = rng.randrange(len(nodes))
    replacement = reference_grow(max(1, max_depth - nodes[i][1] + 1), rng)
    return reference_replace_subtree(expr, i, replacement)


# random trees of any shape, and the grow method's trees up to the depth bound
GP_TREES = st.one_of(TREES, st.tuples(st.integers(1, 15), st.integers(0, 10**9)).map(
    lambda args: grow_random(args[0], random.Random(args[1]))
))


def assert_counts(expr):
    """Every node's size and height fields equal the recursive measures."""
    for node, _ in reference_nodes_with_levels(expr):
        assert (node.size, node.height) == (reference_size(node), reference_depth(node))
    assert (size(expr), expr.height) == (reference_size(expr), reference_depth(expr))


class TestCounts:
    @settings(max_examples=200, deadline=None)
    @given(GP_TREES, GP_TREES, st.integers(0, 10**9), st.integers(1, 15))
    def test_every_tree_counts_its_size_and_height(self, a, b, seed, max_depth):
        assert_counts(a)
        assert_counts(b)
        rng = random.Random(seed)
        for child in crossover(a, b, rng, max_depth):
            assert_counts(child)
        assert_counts(mutate(a, rng, max_depth))
        assert_counts(parse_expr(format_expr(a)))

    @given(TREES)
    def test_subtree_is_the_preorder_node_and_level(self, expr):
        for index, (node, level) in enumerate(reference_nodes_with_levels(expr)):
            got, got_level = subtree(expr, index)
            assert got is node and got_level == level
        for index in (-1, size(expr)):
            with pytest.raises(ExprError, match="out of range"):
                subtree(expr, index)


class TestBuildBinOp:
    """Every way to build an operator node computes its counts."""

    TREE = BinOp("+", Const(1.5), BinOp("*", Var("util"), Var("bw")))

    @pytest.mark.parametrize("build", [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))])
    def test_copies_and_pickles_equal_the_tree(self, build):
        got = build(self.TREE)
        assert got == self.TREE and type(got) is BinOp
        assert_counts(got)

    def test_replace_recomputes_the_counts(self):
        got = self.TREE._replace(left=self.TREE)
        assert (got.size, got.height) == (9, 4)
        assert_counts(got)
        assert_counts(self.TREE._replace(right=Var("dl")))

    def test_make_recomputes_the_counts(self):
        assert BinOp._make(["-", Var("dl"), self.TREE]) == BinOp("-", Var("dl"), self.TREE)
        assert BinOp._make(["-", Var("dl"), Var("bw"), 99, 99]) == BinOp("-", Var("dl"), Var("bw"))


class TestOperatorsMatchReference:
    """The operators pick and rebuild along one path of each parent and read
    each child's height; the reference walks every node and measures."""

    @settings(max_examples=300, deadline=None)
    @given(GP_TREES, GP_TREES, st.booleans(), st.integers(0, 10**9), st.integers(1, 15))
    def test_crossover(self, a, b, self_cross, seed, max_depth):
        if self_cross:  # tournaments often pick one parent twice
            b = a
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert crossover(a, b, rng, max_depth) == reference_crossover(a, b, ref_rng, max_depth)
        assert rng.getstate() == ref_rng.getstate()

    @settings(max_examples=300, deadline=None)
    @given(GP_TREES, st.integers(0, 10**9), st.integers(1, 15))
    def test_mutate(self, expr, seed, max_depth):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert mutate(expr, rng, max_depth) == reference_mutate(expr, ref_rng, max_depth)
        assert rng.getstate() == ref_rng.getstate()

    def test_depth_repair_cases_match(self):
        # deep parents and small bounds: many children are repaired, and the
        # repair must pick the same ones
        rng = random.Random(9)
        repaired = 0
        for seed in range(400):
            a, b = grow_random(15, rng), grow_random(15, rng)
            max_depth = 1 + seed % 15
            got = crossover(a, b, random.Random(seed), max_depth)
            assert got == reference_crossover(a, b, random.Random(seed), max_depth)
            repaired += (got[0] is a) + (got[1] is b)
        assert repaired > 100


class TestReplaceSubtree:
    @settings(max_examples=200, deadline=None)
    @given(TREES, TREES)
    def test_matches_full_rebuild_and_shares_untouched_subtrees(self, expr, replacement):
        before = [node for node, _ in reference_nodes_with_levels(expr)]
        for index, old in enumerate(before):
            got = replace_subtree(expr, index, replacement)
            assert got == reference_replace_subtree(expr, index, replacement)
            after = [node for node, _ in reference_nodes_with_levels(got)]
            shift = size(replacement) - size(old)
            assert after[index] is replacement
            for j, node in enumerate(before):
                ancestor = j < index < j + size(node)
                replaced = index <= j < index + size(old)
                if not (ancestor or replaced):
                    assert after[j if j < index else j + shift] is node

    @given(TREES)
    def test_out_of_range_index_raises(self, expr):
        for index in (-1, size(expr), size(expr) + 3):
            with pytest.raises(ExprError, match="out of range"):
                replace_subtree(expr, index, Var("bw"))

    def test_hash_and_equality_are_the_fields_tuple(self):
        tree = BinOp("+", Const(1.5), Var("util"))
        assert hash(tree) == hash(("+", (1.5,), ("util",), 3, 2))
        assert tree == BinOp("+", Const(1.5), Var("util"))
        assert tree != BinOp("-", Const(1.5), Var("util"))
        assert Const(0.0) == Const(-0.0) and hash(Const(0.0)) == hash(Const(-0.0))


class TestMutate:
    def test_leaf_input_regrown(self):
        out = mutate(Var("util"), random.Random(8))
        assert out.height >= 1  # whole tree replaced by a fresh grow

    def test_depth_bound(self):
        rng = random.Random(6)
        for seed in range(300):
            expr = grow_random(15, rng)
            assert mutate(expr, random.Random(seed)).height <= 15

    def test_deterministic(self):
        expr = grow_random(10, random.Random(12))
        assert mutate(expr, random.Random(5)) == mutate(expr, random.Random(5))


class TestTextFormat:
    def test_parse_single_leaf(self):
        assert parse_expr("util") == Var("util")

    def test_round_trip_example(self, example_expr):
        assert parse_expr(format_expr(example_expr)) == example_expr

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_round_trip_random_trees(self, seed):
        expr = grow_random(8, random.Random(seed))
        back = parse_expr(format_expr(expr))
        assert back == expr
        assert hash(back) == hash(expr)

    def test_unbalanced_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("(1 +")
        assert exc.value.position == 4

    def test_overflowing_constant_error_position(self):
        with pytest.raises(ParseError, match="not finite") as exc:
            parse_expr("(util * 1e400)")
        assert exc.value.position == 8

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse_expr("frob")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("util util")

    def test_missing_operator(self):
        with pytest.raises(ParseError):
            parse_expr("(util 1)")

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("", "unexpected end of input", 0),
            ("(util +", "unexpected end of input", 7),
            ("(util * 1e400)", "constant '1e400' is not finite", 8),
            ("(frob + 1)", "unknown identifier 'frob'", 1),
            ("(util 1)", "expected operator", 6),
            ("(util + 1", "expected ')'", 9),
            (")", "unexpected token ')'", 0),
            ("(util - bw))", "trailing input ')'", 11),
            ("  .5", "unexpected character '.'", 2),
            # a bad character is reported before a fault earlier in the text
            ("(util 1) é", "unexpected character 'é'", 9),
        ],
    )
    def test_each_fault_is_named_at_its_offset(self, text, message, position):
        with pytest.raises(ParseError) as exc:
            parse_expr(text)
        assert str(exc.value) == f"{message} at offset {position}"
        assert exc.value.position == position

    def test_default_bound_is_the_gp_depth_bound(self):
        assert parse_expr(format_expr(tree_of_height(15, 0))).height == 15
        with pytest.raises(ParseError, match="depth bound 15 "):
            parse_expr(format_expr(tree_of_height(16, 0)))


@settings(max_examples=300, deadline=None)
@given(st.builds(tree_of_height, st.integers(1, 17), st.integers(0, 10**9)), st.integers(1, 15))
def test_parse_reads_exactly_the_trees_within_the_depth_bound(expr, bound):
    """A tree's text is read back iff its height is at most the bound. Any
    other is refused at the first '(' that opens a node whose children lie
    beyond the bound: the one with ``bound - 1`` parentheses open before it."""
    text = format_expr(expr)
    if expr.height <= bound:
        assert parse_expr(text, bound) == expr
        return
    with pytest.raises(ParseError) as exc:
        parse_expr(text, bound)
    pos = exc.value.position
    assert str(exc.value) == f"formula deeper than the depth bound {bound} at offset {pos}"
    assert text[pos] == "("
    assert text[:pos].count("(") - text[:pos].count(")") == bound - 1


# Parser input over its token alphabet: free-form token strings, which are
# mostly refused, and well-formed formulas whose numbers may have a decimal
# part and a signed exponent of up to three digits (so some overflow).
_PARSER_TOKENS = [*"0123456789", ".", "e", *OPS, "(", ")", " ", *VAR_NAMES]
_NUMBER_TEXTS = st.from_regex(r"[0-9]{1,3}(\.[0-9]{1,3})?(e[+-]?[0-9]{1,3})?", fullmatch=True)
_FORMULA_TEXTS = st.recursive(
    st.one_of(_NUMBER_TEXTS, st.sampled_from(VAR_NAMES)),
    lambda sub: st.builds(
        lambda left, op, right, gap: f"({left}{gap}{op}{gap}{right})",
        sub, st.sampled_from(OPS), sub, st.sampled_from(["", " ", "  "]),
    ),
    max_leaves=8,
)
_PARSER_TEXTS = st.one_of(
    st.lists(st.sampled_from(_PARSER_TOKENS), max_size=30).map("".join), _FORMULA_TEXTS
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_CONTEXTS = st.lists(st.builds(EvalContext, _FINITE, _FINITE, _FINITE, _FINITE), min_size=1, max_size=4)


@settings(max_examples=400, deadline=None)
@given(_PARSER_TEXTS, _CONTEXTS)
@example("1e400", [CTX])
@example("((1e400 - 1e400) + bw)", [CTX])
@example("(1e308 * 1e308)", [CTX])
def test_parsed_text_round_trips_and_evaluates_finite(text, contexts):
    try:
        expr = parse_expr(text)
    except ParseError:
        return
    assert parse_expr(format_expr(expr)) == expr
    for ctx in contexts:
        assert math.isfinite(eval_expr(expr, ctx))


def test_dropped_import_is_freed():
    """A fresh import of the module, once dropped, leaves nothing alive: no
    process-wide cache holds its classes (and through their methods, the
    module's globals)."""
    ours = [k for k in sys.modules if k == "evoroute" or k.startswith("evoroute.")]
    saved = {k: sys.modules.pop(k) for k in ours}
    try:
        fresh = importlib.import_module("evoroute.expr")
        fresh_const = weakref.ref(fresh.Const)
        assert fresh.Const is not Const
        del fresh
    finally:
        for k in [k for k in sys.modules if k == "evoroute" or k.startswith("evoroute.")]:
            del sys.modules[k]
        sys.modules.update(saved)
    gc.collect()
    assert fresh_const() is None
