"""DP solvers and brute-force oracles."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from helpers import (
    G,
    all_graphs_upto_iso,
    complete_graph,
    cycle_graph,
    exprs_st,
    find_induced_p4,
    matching_graph,
    path_graph,
    random_expr,
    random_graph,
    star_graph,
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
from unicwd.kexpr import fold_expr

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


def map_labels(e, f: dict):
    return fold_expr(
        e,
        lambda x: Intro(x.name, f[x.label]),
        lambda _, kids: Union(tuple(kids)),
        lambda x, kid: Join(f[x.i], f[x.j], kid),
        lambda x, kid: Relabel(f[x.old], f[x.new], kid),
    )


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
