"""Composition, top-split search, decomposition and its round-trip."""

import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings

from helpers import (
    G,
    all_graphs_upto_iso,
    complete_graph,
    compose_fold,
    compose_splitted,
    cycle_graph,
    disjoint_union,
    graphs_st,
    path_graph,
    random_graph,
)
from unicwd import (
    CanonicalDecomposition,
    SplittedGraph,
    compose,
    decompose,
    find_top_split,
    induced,
    is_split_partition,
    random_unigraph,
    recompose,
    splitted_decomposable,
)

C5 = cycle_graph("p", "q", "r", "s", "t")


def k1_clique(name):
    return SplittedGraph(G([name]), {name}, set())


def k1_indep(name):
    return SplittedGraph(G([name]), set(), {name})


class TestCompose:
    def test_dominating_vertex(self):
        g = compose(k1_clique("z"), C5)
        assert g.n == 6 and g.m == 10
        assert g.neighbors("z") == frozenset(C5.vertices)

    def test_isolated_vertex(self):
        g = compose(k1_indep("z"), complete_graph("a", "b"))
        assert g == disjoint_union(G(["z"]), complete_graph("a", "b"))

    def test_edge_count_formula(self):
        s = SplittedGraph(path_graph("a", "b", "c", "d"), {"b", "c"}, {"a", "d"})
        h = cycle_graph("x", "y", "z")
        g = compose(s, h)
        assert g.m == s.graph.m + h.m + len(s.clique_part) * h.n

    def test_collision(self):
        with pytest.raises(ValueError, match="collision"):
            compose(k1_clique("p"), C5)

    def test_compose_with_empty(self):
        assert compose(k1_clique("z"), G([])) == G(["z"])


class TestComposeSplitted:
    def test_two_k1_clique_sides_give_k2(self):
        s = compose_splitted(k1_clique("a"), k1_clique("b"))
        assert s.graph == complete_graph("a", "b")
        assert s.clique_part == {"a", "b"}

    def test_two_independent_sides(self):
        s = compose_splitted(k1_indep("x"), k1_indep("y"))
        assert s.graph.m == 0 and s.independent_part == {"x", "y"}

    def test_associative(self):
        a, b, c = k1_clique("a"), k1_indep("b"), k1_clique("c")
        left = compose_splitted(compose_splitted(a, b), c)
        right = compose_splitted(a, compose_splitted(b, c))
        assert left == right


class TestFindTopSplit:
    def test_c5_indecomposable(self):
        assert find_top_split(C5) is None

    def test_dominating_vertex_found(self):
        g = compose(k1_clique("z"), C5)
        ts = find_top_split(g)
        assert ts is not None
        assert ts.a == {"z"} and ts.b == frozenset() and ts.rest == frozenset(C5.vertices)

    def test_p4_indecomposable(self):
        assert find_top_split(path_graph("a", "b", "c", "d")) is None

    def test_lexicographic_tie_break(self):
        # K3: every single vertex is a minimal top split; the smallest name wins
        ts = find_top_split(complete_graph("b", "a", "c"))
        assert ts.a == {"a"}

    @given(graphs_st(max_n=7, min_n=2))
    @settings(max_examples=150)
    def test_agrees_with_exhaustive_existence(self, g):
        """The degree-pool generator finds a top split iff one exists."""
        from unicwd.solve import _all_top_splits

        exhaustive = list(_all_top_splits(g))
        found = find_top_split(g)
        assert (found is not None) == bool(exhaustive)
        if found is not None:
            min_size = min(len(a | b) for a, b, _ in exhaustive)
            assert len(found.a | found.b) == min_size


    @given(graphs_st(max_n=7))
    @settings(max_examples=200)
    def test_degree_sum_gate_is_exact(self, g):
        """The gate passes for (i, j) iff a top split with |A| = i, |B| = j exists."""
        from unicwd.decomp import _degree_sums, _split_sizes
        from unicwd.solve import _all_top_splits

        exhaustive = {(len(a), len(b)) for a, b, _ in _all_top_splits(g)}
        top, bottom = _degree_sums([g.degree(v) for v in g.vertices])
        gate = {(i, s - i) for s in range(1, g.n) for i in _split_sizes(top, bottom, s)}
        assert gate == exhaustive


class TestDecompose:
    def test_c5_is_pure_tail(self):
        d = decompose(C5)
        assert d.k == 0 and d.tail == C5

    def test_universal_vertex_over_c5(self):
        g = compose(k1_clique("z"), C5)
        d = decompose(g)
        assert d.k == 1
        assert d.components[0].clique_part == {"z"}
        assert d.tail == C5

    def test_u3_is_indecomposable_tail(self):
        from unicwd import U3Spec, build_template

        g = build_template(U3Spec(1))
        d = decompose(g)
        assert d.k == 0 and d.tail == g

    def test_single_vertex_graph(self):
        d = decompose(G(["a"]))
        assert d.k == 0 and d.tail == G(["a"])

    def test_complete_graph_peels_to_k1_tail(self):
        d = decompose(complete_graph("a", "b", "c"))
        assert d.k == 2
        assert all(len(c.clique_part) == 1 for c in d.components)
        assert d.tail is not None and d.tail.n == 1

    def test_split_core_becomes_last_component(self):
        p4 = path_graph("a", "b", "c", "d")
        d = decompose(p4)
        assert d.k == 1 and d.tail is None
        assert d.components[0].clique_part == {"b", "c"}

    def test_emitted_components_are_valid_and_indecomposable(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 9), rng.random())
            d = decompose(g)
            for comp in d.components:
                assert is_split_partition(comp.graph, comp.clique_part, comp.independent_part)
                assert not splitted_decomposable(comp)
            if d.tail is not None and d.tail.n >= 2:
                assert find_top_split(d.tail) is None


class TestRecompose:
    def test_empty_components(self):
        d = CanonicalDecomposition((), C5)
        assert recompose(d) == C5

    def test_two_dominators_over_k2(self):
        d = CanonicalDecomposition(
            (k1_clique("a"), k1_clique("b")), complete_graph("x", "y")
        )
        g = recompose(d)
        assert g.n == 4 and g.m == 6  # two universal vertices over an edge: K4

    @given(graphs_st())
    def test_roundtrip_random(self, g):
        assert recompose(decompose(g)) == g

    def test_roundtrip_exhaustive_n5(self):
        for n in range(1, 6):
            for g in all_graphs_upto_iso(n):
                assert recompose(decompose(g)) == g

    def test_roundtrip_random_unigraphs(self):
        for seed in range(30):
            g, _ = random_unigraph(seed, 25)
            assert recompose(decompose(g)) == g

    def test_equals_the_compose_fold(self):
        rng = random.Random(3)
        ds = [random_unigraph(seed, 4 + seed % 60)[1].decomposition for seed in range(40)]
        ds += [decompose(random_graph(rng, rng.randint(1, 12), rng.random())) for _ in range(60)]
        for _ in range(60):  # arbitrary chains of split pieces, not canonical ones
            comps = []
            for lvl in range(rng.randint(0, 5)):
                a = [f"L{lvl}a{i}" for i in range(rng.randint(0, 3))]
                b = [f"L{lvl}b{i}" for i in range(rng.randint(0 if a else 1, 3))]
                cross = [(x, y) for x in a for y in b if rng.random() < 0.5]
                comps.append(SplittedGraph(G(a + b, cross + list(combinations(a, 2))), a, b))
            tail = random_graph(rng, rng.randint(1, 5), 0.5) if rng.random() < 0.7 else None
            ds.append(CanonicalDecomposition(tuple(comps), tail))
        ds.append(CanonicalDecomposition((), None))
        for d in ds:
            assert recompose(d) == compose_fold(d)

    @pytest.mark.parametrize(
        "d, name",
        [
            (CanonicalDecomposition((k1_clique("p"), k1_indep("x")), C5), "p"),
            (CanonicalDecomposition((k1_clique("b"), k1_clique("a"), k1_indep("a")), None), "a"),
        ],
    )
    def test_collision(self, d, name):
        for build in (recompose, compose_fold):
            with pytest.raises(ValueError, match=f"vertex name collision: '{name}'"):
                build(d)

    def test_deep_threshold_chain(self):
        n = 1000
        names = [f"v{i:04d}" for i in range(n)]
        comps = tuple(k1_clique(v) if i % 2 == 0 else k1_indep(v) for i, v in enumerate(names))
        start = time.perf_counter()
        g = recompose(CanonicalDecomposition(comps, None))
        elapsed = time.perf_counter() - start
        # the (i + 1) // 2 clique vertices outside level i reach it, and a
        # clique vertex reaches the n - 1 - i vertices inside it
        assert [g.degree(v) for v in names] == [
            (i + 1) // 2 + (n - 1 - i if i % 2 == 0 else 0) for i in range(n)
        ]
        assert elapsed < 1.0  # the level-by-level fold took several seconds


class TestSplittedDecomposable:
    def test_k1_indecomposable(self):
        assert not splitted_decomposable(k1_clique("a"))

    def test_k2_clique_decomposable(self):
        s = SplittedGraph(complete_graph("a", "b"), {"a", "b"}, set())
        assert splitted_decomposable(s)

    def test_p4_indecomposable(self):
        s = SplittedGraph(path_graph("a", "b", "c", "d"), {"b", "c"}, {"a", "d"})
        assert not splitted_decomposable(s)

    def test_agrees_with_subset_bruteforce(self):
        from unicwd import split_bipartition

        rng = random.Random(11)
        checked = 0
        while checked < 60:
            g = random_graph(rng, rng.randint(1, 7), rng.random())
            bip = split_bipartition(g)
            if bip is None:
                continue
            s = SplittedGraph(g, *bip)
            # brute force: some proper nonempty rest with the parts respected
            vs = list(g.vertices)
            brute = False
            for mask in range(1, (1 << len(vs)) - 1):
                rest = {vs[i] for i in range(len(vs)) if mask >> i & 1}
                outer_a = s.clique_part - rest
                outer_b = s.independent_part - rest
                if all(rest <= g.neighbors(v) for v in outer_a) and not any(
                    g.neighbors(v) & rest for v in outer_b
                ):
                    brute = True
                    break
            assert splitted_decomposable(s) == brute
            checked += 1
