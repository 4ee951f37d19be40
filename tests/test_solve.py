"""DP solvers and brute-force oracles."""

import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings

from helpers import (
    G,
    all_graphs_upto_iso,
    complete_graph,
    criterion_8_corpus,
    cycle_graph,
    exprs_st,
    find_induced_p4,
    map_labels,
    matching_graph,
    path_graph,
    random_expr,
    random_graph,
    ref_solve_mds,
    ref_solve_mis,
    ref_solve_vc,
    star_graph,
    wide_random_expr,
)
from unicwd import (
    Graph,
    Intro,
    Join,
    Relabel,
    SizeGuardError,
    SplittedGraph,
    U3Spec,
    Union,
    brute_mds,
    brute_mis,
    build_template,
    compose,
    decompose,
    decompositions_equivalent,
    degree_sequence,
    enumerate_decompositions,
    evaluate,
    is_independent,
    labels_of,
    oracle_cwd_leq,
    oracle_unigraph,
    parse,
    random_unigraph,
    solve_mds,
    solve_mis,
    solve_vc,
    synthesize,
    width,
)
from unicwd.kexpr import iter_nodes, vertex_names

C5 = cycle_graph("a", "b", "c", "d", "e")


def enum_mis(g: Graph) -> int:
    """Literal subset enumeration, the baseline for brute_mis."""
    best = 0
    vs = list(g.vertices)
    for r in range(len(vs), 0, -1):
        if r <= best:
            break
        for sub in combinations(vs, r):
            if is_independent(g, sub):
                best = max(best, r)
                break
    return best


def is_dominating(g: Graph, w) -> bool:
    return all(v in w or g.neighbors(v) & w for v in g.vertices)


def path_expr(n: int, labels=(1, 2, 3)):
    """The path p0 - p1 - ... on three labels: ``b`` marks the last vertex,
    ``c`` the new one and ``a`` every earlier vertex."""
    a, b, c = labels
    e = Intro("p0", b)
    for i in range(1, n):
        e = Relabel(c, b, Relabel(b, a, Join(b, c, Union(e, Intro(f"p{i}", c)))))
    return e


class TestSolvers:
    def test_single_vertex(self):
        assert solve_mis(Intro("a", 1)) == (1, frozenset({"a"}))
        assert solve_mds(Intro("a", 1)) == (1, frozenset({"a"}))

    def test_k2_vertex_cover(self):
        e = parse("(j 1 2 (u (v a 1) (v b 2)))")
        size, _ = solve_vc(e)
        assert size == 1

    def test_edgeless_cover(self):
        e = Union(Intro("a", 1), Intro("b", 1), Intro("c", 1))
        assert solve_vc(e)[0] == 0
        assert solve_mds(e)[0] == 3  # isolated vertices must all be selected

    def test_star_dominating_set(self):
        e = Join(1, 2, Union(Intro("u", 1), *(Intro(f"l{i}", 2) for i in range(5))))
        size, witness = solve_mds(e)
        assert size == 1 and witness == frozenset({"u"})

    def test_wheel_mis(self):
        g = compose(SplittedGraph(G(["z"]), frozenset({"z"}), frozenset()), C5)
        expr, _ = synthesize(g)
        size, witness = solve_mis(expr)
        assert size == 2 == brute_mis(g)
        assert is_independent(g, witness)

    def test_u3_values(self):
        g = build_template(U3Spec(1))
        expr, _ = synthesize(g)
        assert solve_mis(expr)[0] == 3
        assert solve_vc(expr)[0] == 3
        g2 = build_template(U3Spec(2))
        expr2, _ = synthesize(g2)
        assert solve_mds(expr2)[0] == brute_mds(g2)

    def test_agreement_with_brute_force(self):
        for seed in range(120):
            g, _ = random_unigraph(seed + 900, 4 + seed % 14)
            expr, _ = synthesize(g)
            mis, mis_wit = solve_mis(expr)
            assert mis == brute_mis(g)
            assert is_independent(g, mis_wit) and len(mis_wit) == mis
            vc, vc_wit = solve_vc(expr)
            assert vc == g.n - mis
            assert all(u in vc_wit or v in vc_wit for u, v in g.edges)
            mds, mds_wit = solve_mds(expr)
            assert mds == brute_mds(g)
            covered = set(mds_wit)
            for v in mds_wit:
                covered |= g.neighbors(v)
            assert covered == set(g.vertices)

    def test_deep_path_expression(self):
        # 40,000 nodes deep: the solvers neither recurse nor copy witnesses
        n = 8000
        e = path_expr(n)
        g = evaluate(e).graph
        assert width(e) == 3 and g.m == n - 1
        mis, mis_wit = solve_mis(e)
        assert mis == len(mis_wit) == (n + 1) // 2 and is_independent(g, mis_wit)
        mds, mds_wit = solve_mds(e)
        assert mds == len(mds_wit) == (n + 2) // 3 and is_dominating(g, mds_wit)

    def test_labels_are_compacted(self):
        # a .kx file may use any positive labels; only their number matters
        f = {1: 7, 2: 10**9, 3: 42}
        rng = random.Random(11)
        samples = [path_expr(40)] + [random_expr(rng, 30, max_label=3) for _ in range(30)]
        for e in samples:
            big = map_labels(e, f)
            assert width(big) == width(e)
            for solve in (solve_mis, solve_mds):
                assert solve(big)[0] == solve(e)[0]

    @given(exprs_st.filter(lambda e: width(e) >= 2))
    @settings(max_examples=200)
    def test_random_expressions_match_brute_force(self, e):
        g = evaluate(e).graph
        mis, mis_wit = solve_mis(e)
        assert mis == brute_mis(g) == len(mis_wit) and is_independent(g, mis_wit)
        mds, mds_wit = solve_mds(e)
        assert mds == brute_mds(g) == len(mds_wit) and is_dominating(g, mds_wit)


def assert_matches_reference(e, g=None):
    """The dominating-set output equals the reference's, value and witness;
    the independent-set and vertex-cover values equal the reference's, and
    the independent-set witness is independent and of the right size."""
    g = evaluate(e).graph if g is None else g
    mds = solve_mds(e)
    assert mds == ref_solve_mds(e)
    mis, mis_wit = solve_mis(e)
    assert mis == ref_solve_mis(e)[0] == len(mis_wit) and is_independent(g, mis_wit)
    assert solve_vc(e)[0] == ref_solve_vc(e)[0]
    return mis, mds[0]


# labels a .kx file may use: every expression below is mapped onto a few of them
LABEL_POOL = (1, 2, 3, 5, 7, 42, 99, 10**9)


class TestLiveLabels:
    """The live-label traversal against the reference solvers, which carry
    every state to the root."""

    def test_random_expressions_match_reference(self):
        rng = random.Random(20261019)
        widths, labels_used, arities, self_relabels = set(), set(), set(), 0
        for t in range(3000):
            if t % 3:
                e = random_expr(rng, rng.randint(1, 40), max_label=rng.randint(1, 8))
            else:
                k = rng.randint(1, 8)
                e = wide_random_expr(rng, k, rng.randint(max(2, k), 14 if k > 5 else 24))
            labels = sorted(labels_of(e))
            e = map_labels(e, dict(zip(labels, rng.sample(LABEL_POOL, len(labels)))))
            widths.add(len(labels))
            labels_used |= labels_of(e)
            for node in iter_nodes(e):
                if isinstance(node, Union):
                    arities.add(len(node.children))
                elif isinstance(node, Relabel) and node.old == node.new:
                    self_relabels += 1
            assert_matches_reference(e)
        assert widths == set(range(1, 9))
        assert {7, 42, 10**9} <= labels_used and {2, 3, 4} <= arities and self_relabels

    def test_synthesized_corpus_matches_reference(self):
        for e, g in criterion_8_corpus():
            assert_matches_reference(e, g)

    @pytest.mark.parametrize(
        "text",
        [
            # a relabel onto a label that no ancestor joins: a, b, c finish there
            "(j 1 3 (u (v d 3) (r 1 2 (j 1 2 (u (v a 1) (v b 2) (v c 1))))))",
            # a relabel whose target is joined later: label 1 is live below it
            "(j 2 3 (u (v d 3) (r 1 2 (u (v a 1) (v b 2)))))",
            # joins on labels absent from their subtrees
            "(j 1 2 (j 3 4 (u (v a 1) (v b 2) (v c 1))))",
            "(j 5 6 (j 1 2 (u (v a 1) (v b 2) (v c 3))))",
            # label 2 finishes in the first union branch, live in the second
            "(j 2 3 (u (r 2 4 (u (v p 2) (v q 1))) (j 1 2 (u (v r 1) (v s 2))) (v t 3)))",
            "(j 1 3 (u (r 1 2 (u (v a 1) (v b 2))) (j 1 2 (u (v c 1) (v d 2))) (v e 3)))",
        ],
    )
    def test_live_rule_edge_cases(self, text):
        e = parse(text)
        g = evaluate(e).graph
        assert assert_matches_reference(e, g) == (brute_mis(g), brute_mds(g))

    def test_no_join_takes_every_vertex(self):
        e = parse("(u (r 1 2 (u (v a 1) (v b 2))) (v c 3) (r 2 2 (v d 2)) (r 3 1 (v e 3)))")
        g = evaluate(e).graph
        assert solve_mis(e) == solve_mds(e) == (5, frozenset("abcde"))
        assert assert_matches_reference(e, g) == (brute_mis(g), brute_mds(g))

    def test_width_8_dominating_set(self):
        # the values are ref_solve_mds's, pinned: it takes about 7 s on these
        # six expressions (a full product of up to 4^8 states per union),
        # where the live-label traversal takes about 0.01 s
        rng = random.Random(8)
        exprs = [wide_random_expr(rng, 8, 60, f"w{c}_") for c in range(6)]
        assert all(width(e) == 8 and len(vertex_names(e)) == 60 for e in exprs)
        t0 = time.perf_counter()
        values = [solve_mds(e)[0] for e in exprs]
        elapsed = time.perf_counter() - t0
        assert values == [51, 32, 40, 37, 34, 43]
        assert elapsed < 1.0, f"solve_mds took {elapsed:.2f} s on six width-8 expressions"


class TestBruteForce:
    def test_c5(self):
        assert brute_mis(C5) == 2
        assert brute_mds(C5) == 2

    def test_k5(self):
        k5 = complete_graph(*"abcde")
        assert brute_mis(k5) == 1
        assert brute_mds(k5) == 1

    def test_matching(self):
        g = matching_graph(("a", "b"), ("c", "d"), ("e", "f"))
        assert brute_mis(g) == 3
        assert brute_mds(g) == 3

    def test_guard(self):
        g = Graph([f"v{i}" for i in range(23)])
        with pytest.raises(SizeGuardError):
            brute_mis(g)
        with pytest.raises(SizeGuardError):
            brute_mds(g)

    def test_branching_matches_enumeration(self):
        rng = random.Random(5)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            assert brute_mis(g) == enum_mis(g)


class TestCwdOracle:
    def test_anchors(self):
        assert oracle_cwd_leq(C5, 2) is False
        assert oracle_cwd_leq(C5, 3) is True
        assert oracle_cwd_leq(complete_graph(*"abcde"), 2) is True
        p4 = path_graph("a", "b", "c", "d")
        assert oracle_cwd_leq(p4, 2) is False
        assert oracle_cwd_leq(p4, 3) is True
        u31 = build_template(U3Spec(1))
        assert oracle_cwd_leq(u31, 2) is False
        assert oracle_cwd_leq(u31, 3) is True

    def test_monotone_in_k(self):
        rng = random.Random(3)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 5), rng.random())
            results = [oracle_cwd_leq(g, k) for k in range(1, 6)]
            for lo, hi in zip(results, results[1:]):
                assert not (lo is True and hi is False)

    def test_cograph_iff_width_two(self):
        for n in range(1, 7):
            for g in all_graphs_upto_iso(n):
                assert oracle_cwd_leq(g, 2) == (find_induced_p4(g) is None)

    def test_budget_indeterminate_not_false(self):
        g = build_template(U3Spec(1))
        assert oracle_cwd_leq(g, 3, budget=5) is None

    def test_size_guard(self):
        g = Graph([f"v{i}" for i in range(9)])
        with pytest.raises(SizeGuardError):
            oracle_cwd_leq(g, 2)


class TestUnigraphOracle:
    def test_fixture_sequence_rejected(self):
        assert oracle_unigraph((3, 2, 2, 2, 1)) is False

    def test_k2(self):
        assert oracle_unigraph((1, 1)) is True

    def test_u3_sequence(self):
        assert oracle_unigraph(degree_sequence(build_template(U3Spec(1)))) is True

    def test_not_graphic_is_false(self):
        assert oracle_unigraph((3, 1)) is False

    def test_complement_symmetry(self):
        from unicwd import complement

        for n in range(1, 8):
            for g in all_graphs_upto_iso(n):
                a = oracle_unigraph(degree_sequence(g))
                b = oracle_unigraph(degree_sequence(complement(g)))
                assert a == b

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            oracle_unigraph((1,) * 12)


class TestEnumerateDecompositions:
    def test_c5_single(self):
        decs = enumerate_decompositions(C5)
        assert len(decs) == 1
        assert decs[0].k == 0 and decs[0].tail == C5

    def test_universal_over_c5(self):
        g = compose(SplittedGraph(G(["z"]), frozenset({"z"}), frozenset()), C5)
        decs = enumerate_decompositions(g)
        assert len(decs) == 1
        assert decompositions_equivalent(decs[0], decompose(g))

    def test_unique_and_matches_decompose(self):
        rng = random.Random(17)
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 8), rng.random())
            decs = enumerate_decompositions(g)
            assert len(decs) == 1
            assert decompositions_equivalent(decs[0], decompose(g))

    def test_size_guard(self):
        g = Graph([f"v{i}" for i in range(11)])
        with pytest.raises(SizeGuardError):
            enumerate_decompositions(g)
