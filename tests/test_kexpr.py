"""Expression language: evaluation semantics, grammar round-trips, width."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import exprs_st, random_expr
from unicwd import (
    DuplicateVertexError,
    Intro,
    Join,
    KExprSyntaxError,
    Relabel,
    SplittedGraph,
    U3Spec,
    Union,
    build_template,
    evaluate,
    is_isomorphic,
    is_split_labeled,
    parse,
    stats,
    to_text,
    width,
)
from unicwd.graph import Graph
from unicwd.kexpr import fold_expr, vertex_names

FIG_EXPR = (
    "(r 3 1 (r 2 1 (j 1 3 (u"
    " (r 2 1 (j 1 2 (u (v a 1) (v b 2))))"
    " (v f 3)"
    " (j 1 2 (u (v c 1) (v d 1) (v e 2)))"
    "))))"
)


class TestEvaluate:
    def test_worked_three_label_example(self):
        lg = evaluate(parse(FIG_EXPR))
        assert lg.graph.n == 6
        assert lg.graph.m == 7
        assert set(lg.labels.values()) == {1}
        assert is_isomorphic(lg.graph, build_template(U3Spec(1)))

    def test_single_intro(self):
        lg = evaluate(parse("(v x 1)"))
        assert lg.graph.vertices == ("x",) and lg.labels == {"x": 1}

    def test_join_with_empty_class_is_noop(self):
        e = Join(1, 2, Intro("a", 1))
        assert evaluate(e).graph.m == 0

    def test_duplicate_vertex_reported(self):
        e = Union(Intro("a", 1), Intro("a", 2))
        with pytest.raises(DuplicateVertexError, match="'a'"):
            evaluate(e)

    def test_join_requires_distinct_labels(self):
        with pytest.raises(ValueError, match="must differ"):
            Join(1, 1, Intro("a", 1))

    def test_union_order_independent(self):
        a = Join(1, 2, Union(Intro("a", 1), Intro("b", 2)))
        b = Intro("c", 1)
        assert evaluate(Union(a, b)) == evaluate(Union(b, a))

    def test_join_idempotent(self):
        inner = Union(Intro("a", 1), Intro("b", 2), Intro("c", 2))
        once = evaluate(Join(1, 2, inner))
        twice = evaluate(Join(1, 2, Join(1, 2, inner)))
        assert once == twice

    @given(exprs_st)
    def test_join_wrapping_monotone(self, e):
        base = evaluate(e).graph.edges
        wrapped = evaluate(Join(1, 2, e)).graph.edges
        assert base <= wrapped

    @given(exprs_st)
    def test_width_bounds_final_label_count(self, e):
        assert width(e) >= len(set(evaluate(e).labels.values()))


class TestWidthAndStats:
    def test_fig_expr_width(self):
        assert width(parse(FIG_EXPR)) == 3

    def test_intro_width(self):
        assert width(Intro("x", 1)) == 1

    def test_stats(self):
        st_ = stats(parse("(j 1 2 (u (v a 1) (v b 2)))"))
        assert st_.distinct_labels == 2
        assert st_.node_count == 4
        assert st_.depth == 3


class TestGrammar:
    def test_parse_example(self):
        e = parse("(j 1 2 (u (v a 1) (v b 2)))")
        assert e == Join(1, 2, Union(Intro("a", 1), Intro("b", 2)))

    def test_print_normalized(self):
        e = Join(1, 2, Union(Intro("a", 1), Intro("b", 2)))
        assert to_text(e) == "(j 1 2 (u (v a 1) (v b 2)))"

    def test_join_equal_labels_rejected(self):
        with pytest.raises(KExprSyntaxError, match="join labels must differ"):
            parse("(j 1 1 (v a 1))")

    def test_error_position(self):
        try:
            parse("(v a 1) trailing")
        except KExprSyntaxError as exc:
            assert exc.line == 1 and exc.col == 9
        else:
            pytest.fail("expected a syntax error")

    def test_unclosed(self):
        with pytest.raises(KExprSyntaxError, match="unexpected end"):
            parse("(u (v a 1) (v b 2)")

    def test_union_arity(self):
        with pytest.raises(KExprSyntaxError, match="at least two"):
            parse("(u (v a 1))")

    def test_zero_label(self):
        with pytest.raises(KExprSyntaxError, match="positive integer"):
            parse("(v a 0)")

    def test_comments_and_whitespace(self):
        e = parse("# header\n ( v a 1 ) # trailing\n")
        assert e == Intro("a", 1)

    @given(exprs_st)
    def test_roundtrip_property(self, e):
        assert parse(to_text(e)) == e

    def test_roundtrip_seeded_corpus(self):
        rng = random.Random(99)
        for _ in range(500):
            e = random_expr(rng)
            assert parse(to_text(e)) == e

    def test_unwritable_name_rejected(self):
        with pytest.raises(ValueError, match="'x\\(1'"):
            to_text(Intro("x(1", 1))
        with pytest.raises(ValueError, match="'vertex'"):
            to_text(Union(Intro("a", 1), Intro("vertex", 2)))

    def test_keyword_name_rejected_on_parse(self):
        with pytest.raises(KExprSyntaxError, match="2:5: 'vertex'"):
            parse("(u (v a 1)\n (v vertex 2))")

    @given(
        st.lists(
            st.one_of(
                st.text(alphabet="av1_.-", min_size=1, max_size=4),
                st.just("vertex"),
                st.text(alphabet="av1_.-()# \t\n\x0b\u2028", max_size=4),
            ),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        exprs_st,
    )
    def test_write_read_identity_with_any_names(self, names, shape):
        # the generated shape's Intros take the drawn names, cycling
        it = iter(names * 100)
        e = fold_expr(
            shape,
            intro=lambda node: Intro(next(it), node.label),
            union=lambda _, cs: Union(tuple(cs)),
            join=lambda node, c: Join(node.i, node.j, c),
            relabel=lambda node, c: Relabel(node.old, node.new, c),
        )
        try:
            text = to_text(e)
        except ValueError:
            assert any(
                not v or v == "vertex" or any(c.isspace() or c in "()#" for c in v)
                for v in vertex_names(e)
            )
            return
        assert parse(text) == e

    def test_deep_expression_no_recursion_limit(self):
        # parse, print, evaluate, == and hash are all iterative
        e = Intro("x0", 1)
        for i in range(1, 3000):
            e = Relabel(1, 1, e)
        text = to_text(e)
        assert to_text(parse(text)) == text
        assert parse(text) == e
        assert hash(parse(text)) == hash(e)
        assert Relabel(1, 2, e) != Relabel(1, 2, Relabel(1, 1, e))
        assert evaluate(e).graph.n == 1
        assert width(e) == 1


class TestSplitLabeled:
    def test_star_split_expression(self):
        e = Join(1, 2, Union(Intro("u", 1), Intro("a", 2), Intro("b", 2), Intro("c", 2)))
        star = Graph(["u", "a", "b", "c"], [("u", "a"), ("u", "b"), ("u", "c")])
        s = SplittedGraph(star, {"u"}, {"a", "b", "c"})
        assert is_split_labeled(e, s)

    def test_swapped_labels_rejected(self):
        e = Join(1, 2, Union(Intro("u", 2), Intro("a", 1), Intro("b", 1), Intro("c", 1)))
        star = Graph(["u", "a", "b", "c"], [("u", "a"), ("u", "b"), ("u", "c")])
        s = SplittedGraph(star, {"u"}, {"a", "b", "c"})
        assert not is_split_labeled(e, s)

    def test_wrong_graph_rejected(self):
        e = Union(Intro("u", 1), Intro("a", 2))
        s = SplittedGraph(Graph(["u", "a"], [("u", "a")]), {"u"}, {"a"})
        assert not is_split_labeled(e, s)
