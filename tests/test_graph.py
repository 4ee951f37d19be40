"""Graph core: transforms, split machinery, isomorphism, file format."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    G,
    complete_graph,
    cycle_graph,
    disjoint_union,
    exprs_st,
    find_induced_p4,
    graphs_st,
    matching_graph,
    path_graph,
    splitted_complement,
    splitted_inverse,
    star_graph,
)
from unicwd import (
    Graph,
    GraphFormatError,
    SplittedGraph,
    U3Spec,
    build_template,
    complement,
    degree_sequence,
    evaluate,
    induced,
    is_clique,
    is_independent,
    is_isomorphic,
    is_split_partition,
    parse,
    read_edge_list,
    split_bipartition,
    splitted_isomorphic,
    to_edge_list,
    to_text,
)
from unicwd.kexpr import vertex_names

C5 = cycle_graph("a", "b", "c", "d", "e")
P4 = path_graph("a", "b", "c", "d")


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(["a"], [("a", "a")])

    def test_rejects_undeclared_endpoint(self):
        with pytest.raises(ValueError, match="not a declared vertex"):
            Graph(["a"], [("a", "b")])

    def test_deduplicates_edges(self):
        g = Graph(["a", "b"], [("a", "b"), ("b", "a")])
        assert g.m == 1

    def test_vertices_sorted(self):
        assert Graph(["c", "a", "b"]).vertices == ("a", "b", "c")


@st.composite
def built_graphs_st(draw):
    """A graph on names v1..v4 built by ``__init__``, ``induced``,
    ``complement`` or ``evaluate``; small, so that the routes meet."""
    g = draw(graphs_st(max_n=4))
    how = draw(st.sampled_from(["init", "induced", "complement", "evaluate"]))
    if how == "induced":
        return induced(g, draw(st.sets(st.sampled_from(g.vertices))) if g.n else ())
    if how == "complement":
        return complement(g)
    if how == "evaluate":
        e = draw(exprs_st.filter(lambda e: len(vertex_names(e)) <= 4))
        return evaluate(parse(to_text(e).replace("(v x", "(v v"))).graph
    return g


class TestRepresentation:
    """Equality, hash and ``m`` agree with the (vertex set, edge set) view,
    however the graph was built."""

    @given(built_graphs_st(), built_graphs_st())
    def test_equality_is_vertex_and_edge_equality(self, g1, g2):
        rebuilt = (
            Graph(g1.vertices, g1.edges), complement(complement(g1)), induced(g1, g1.vertices)
        )
        for a, b in ((g1, g2), *((g1, r) for r in rebuilt)):
            same = (a.vertex_set, a.edges) == (b.vertex_set, b.edges)
            assert (a == b) == same
            if same:
                assert hash(a) == hash(b)
        for g in (g1, g2, *rebuilt):
            assert g.m == len(g.edges)
            assert all(u < v and g.has_edge(v, u) for u, v in g.edges)

    def test_edges_are_built_on_demand_and_never_stored(self, monkeypatch):
        g = complement(C5)
        reads = []
        build = Graph.edges

        def counted(h):
            reads.append(h.n)
            return build.fget(h)

        monkeypatch.setattr(Graph, "edges", property(counted))
        # comparing and counting need only adjacency
        assert g.m == 5 and is_isomorphic(g, C5) and reads == []
        assert g.edges == g.edges and len(reads) == 2
        assert g.edges is not g.edges  # no edge set is stored


class TestComplement:
    def test_c5_self_complementary(self):
        assert is_isomorphic(complement(C5), C5)

    def test_k3_to_isolated(self):
        assert complement(complete_graph("x", "y", "z")).m == 0

    def test_p4_self_complementary(self):
        assert is_isomorphic(complement(P4), P4)

    @given(graphs_st())
    def test_involution(self, g):
        assert complement(complement(g)) == g

    @given(graphs_st(min_n=1))
    def test_degree_sequence_relation(self, g):
        ds = degree_sequence(g)
        dc = degree_sequence(complement(g))
        n = g.n
        assert all(dc[i] == (n - 1) - ds[n - 1 - i] for i in range(n))


class TestSplittedTransforms:
    def test_splitted_complement_single_vertex(self):
        s = SplittedGraph(G(["a"]), {"a"}, set())
        sc = splitted_complement(s)
        assert sc.clique_part == frozenset() and sc.independent_part == {"a"}

    def test_splitted_complement_k2(self):
        s = SplittedGraph(complete_graph("a", "b"), {"a", "b"}, set())
        sc = splitted_complement(s)
        assert sc.graph.m == 0 and sc.independent_part == {"a", "b"}

    def test_splitted_complement_of_p4(self):
        s = SplittedGraph(P4, {"b", "c"}, {"a", "d"})
        sc = splitted_complement(s)
        assert sc.clique_part == {"a", "d"}
        assert sc.graph.edges == frozenset({("a", "c"), ("a", "d"), ("b", "d")})

    def test_inverse_of_star_is_complete(self):
        s = SplittedGraph(star_graph("u", "l1", "l2", "l3"), {"u"}, {"l1", "l2", "l3"})
        inv = splitted_inverse(s)
        assert inv.clique_part == {"l1", "l2", "l3"}
        assert inv.graph.m == 6  # K4

    def test_inverse_single_vertex(self):
        s = SplittedGraph(G(["a"]), {"a"}, set())
        assert splitted_inverse(s).independent_part == {"a"}

    def test_inverse_involution_on_p4(self):
        s = SplittedGraph(P4, {"b", "c"}, {"a", "d"})
        assert splitted_inverse(splitted_inverse(s)) == s

    def test_invalid_bipartition_rejected(self):
        with pytest.raises(ValueError, match="bipartition"):
            SplittedGraph(P4, {"a", "b", "c", "d"}, set())


class TestBasicOps:
    def test_disjoint_union_counts(self):
        g = disjoint_union(complete_graph("a", "b"), complete_graph("c", "d"))
        assert g.n == 4 and g.m == 2

    def test_disjoint_union_matching_degrees(self):
        g = matching_graph(("a1", "b1"), ("a2", "b2"), ("a3", "b3"))
        assert degree_sequence(g) == (1,) * 6

    def test_disjoint_union_u2_shape(self):
        g = disjoint_union(complete_graph("a", "b"), star_graph("c", "l1", "l2"))
        assert degree_sequence(g) == (2, 1, 1, 1, 1)

    def test_disjoint_union_collision(self):
        with pytest.raises(ValueError, match="collision.*'a'"):
            disjoint_union(G(["a"]), G(["a"]))

    def test_induced_identity_and_empty(self):
        assert induced(C5, C5.vertices) == C5
        assert induced(C5, []).n == 0

    def test_induced_c5_minus_vertex_is_p4(self):
        assert is_isomorphic(induced(C5, ["a", "b", "c", "d"]), P4)

    def test_induced_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            induced(C5, ["a", "zz"])

    @given(graphs_st())
    def test_induced_monotone(self, g):
        vs = g.vertices[: g.n // 2]
        assert induced(g, vs).edges <= g.edges

    def test_degree_sequence_examples(self):
        # triangle plus a pendant path: same sequence as the hub family member minus one pair vertex
        f = induced(build_template(U3Spec(1)), ["h", "w1", "w2", "w3", "b1"])
        assert degree_sequence(f) == (3, 2, 2, 2, 1)
        assert degree_sequence(G(["x"])) == (0,)
        assert degree_sequence(build_template(U3Spec(1))) == (4, 2, 2, 2, 2, 2)


class TestCliqueAndIndependent:
    # fixed before the neighbour-set rewrite: pairs are taken by position, a
    # repeated vertex is never adjacent to itself, an unknown one to nothing
    def test_zero_and_one_vertex(self):
        for vs in ([], ["a"], ["zz"]):
            assert is_clique(P4, vs)
            assert is_independent(P4, vs)

    def test_duplicates(self):
        k3 = complete_graph("a", "b", "c")
        assert not is_clique(k3, ["a", "a"])
        assert not is_clique(k3, ["a", "b", "a"])
        assert not is_clique(k3, ["zz", "zz"])
        assert is_independent(P4, ["a", "a"])
        assert is_independent(P4, ["a", "c", "a"])
        assert not is_independent(P4, ["a", "b", "a"])

    def test_unknown_names(self):
        k3 = complete_graph("a", "b", "c")
        assert not is_clique(k3, ["a", "zz"])
        assert not is_clique(k3, ["zz", "a", "b"])
        assert is_independent(P4, ["a", "zz"])
        assert is_independent(P4, ["zz", "yy"])
        assert not is_independent(P4, ["zz", "b", "c"])

    def test_plain_cases_and_iterables(self):
        assert is_clique(P4, ("b", "c")) and not is_clique(P4, {"a", "b", "c"})
        assert is_independent(P4, iter(["a", "c"])) and not is_independent(P4, ["c", "d"])
        assert is_clique(complete_graph("a", "b", "c"), iter(["c", "a", "b"]))


class TestSplitPartition:
    def test_p4_centers_and_leaves(self):
        assert is_split_partition(P4, {"b", "c"}, {"a", "d"})

    def test_c5_has_no_split_partition(self):
        from itertools import chain, combinations

        vs = C5.vertices
        for r in range(len(vs) + 1):
            for a in combinations(vs, r):
                b = set(vs) - set(a)
                assert not is_split_partition(C5, set(a), b)

    def test_single_vertex(self):
        assert is_split_partition(G(["v"]), {"v"}, set())

    @given(graphs_st(max_n=8, min_n=1))
    def test_split_bipartition_agrees_with_exhaustive(self, g):
        from itertools import combinations

        exhaustive = None
        for r in range(g.n + 1):
            for a in combinations(g.vertices, r):
                b = set(g.vertices) - set(a)
                if is_split_partition(g, set(a), b):
                    exhaustive = (set(a), b)
                    break
            if exhaustive:
                break
        found = split_bipartition(g)
        assert (found is not None) == (exhaustive is not None)
        if found is not None:
            assert is_split_partition(g, *found)


class TestIsomorphism:
    def test_c5_vs_complement(self):
        assert is_isomorphic(C5, complement(C5))

    def test_k3_vs_p3(self):
        assert not is_isomorphic(complete_graph("a", "b", "c"), path_graph("x", "y", "z"))

    def test_part_respecting(self):
        s1 = SplittedGraph(G(["a"]), {"a"}, set())
        s2 = SplittedGraph(G(["b"]), set(), {"b"})
        assert not splitted_isomorphic(s1, s2)
        assert splitted_isomorphic(s1, SplittedGraph(G(["z"]), {"z"}, set()))

    @given(graphs_st(max_n=6))
    def test_reflexive_and_relabeling_invariant(self, g):
        assert is_isomorphic(g, g)
        renamed = Graph(
            [f"w_{v}" for v in g.vertices],
            [(f"w_{u}", f"w_{v}") for u, v in g.edges],
        )
        assert is_isomorphic(g, renamed)
        assert is_isomorphic(renamed, g)  # symmetric

    def test_transitive_spot_check(self):
        g1 = cycle_graph("a", "b", "c", "d", "e")
        g2 = cycle_graph("1", "3", "5", "2", "4")
        g3 = complement(g2)
        assert is_isomorphic(g1, g2) and is_isomorphic(g2, g3)
        assert is_isomorphic(g1, g3)

    def test_same_degrees_not_isomorphic(self):
        g1 = disjoint_union(cycle_graph("a", "b", "c"), cycle_graph("d", "e", "f"))
        g2 = cycle_graph("p", "q", "r", "s", "t", "u")
        assert degree_sequence(g1) == degree_sequence(g2)
        assert not is_isomorphic(g1, g2)


class TestInducedP4:
    def test_c5_has_p4(self):
        quad = find_induced_p4(C5)
        assert quad is not None
        a, b, c, d = quad
        assert C5.has_edge(a, b) and C5.has_edge(b, c) and C5.has_edge(c, d)
        assert not C5.has_edge(a, c) and not C5.has_edge(b, d) and not C5.has_edge(a, d)

    def test_cograph_has_none(self):
        assert find_induced_p4(complete_graph("a", "b", "c", "d")) is None
        assert find_induced_p4(matching_graph(("a", "b"), ("c", "d"))) is None


class TestEdgeListFormat:
    def test_roundtrip(self):
        g = disjoint_union(C5, G(["iso"]))
        assert read_edge_list(to_edge_list(g)) == g

    def test_comments_and_vertex_lines(self):
        text = "# a comment\n3 1\nvertex c\na b\n"
        g = read_edge_list(text)
        assert g.n == 3 and g.m == 1 and g.has_vertex("c")

    def test_bad_header(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            read_edge_list("x y z\n")

    def test_count_mismatch(self):
        with pytest.raises(GraphFormatError, match="declares 2 edges"):
            read_edge_list("2 2\na b\n")

    def test_duplicate_edge(self):
        with pytest.raises(GraphFormatError, match="duplicate edge"):
            read_edge_list("2 2\na b\nb a\n")

    @given(graphs_st())
    def test_roundtrip_property(self, g):
        assert read_edge_list(to_edge_list(g)) == g


# names the formats can and cannot hold: whitespace of every kind, the
# .kx brackets, the comment sign and the declaration keyword
names_st = st.one_of(
    st.text(alphabet="av1_.-", min_size=1, max_size=4),
    st.just("vertex"),
    st.text(alphabet="av1_.-()# \t\n\x0b\x1c\u2028", max_size=4),
)


@st.composite
def named_graphs_st(draw):
    names = draw(st.lists(names_st, max_size=5, unique=True))
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]]
    return Graph(names, draw(st.sets(st.sampled_from(pairs))) if pairs else ())


class TestVertexNames:
    def test_keyword_name_rejected_on_write(self):
        with pytest.raises(ValueError, match="'vertex'"):
            to_edge_list(Graph(["vertex", "x"], [("vertex", "x")]))

    def test_comment_sign_rejected_on_write(self):
        with pytest.raises(ValueError, match="'#b'"):
            to_edge_list(Graph(["#b", "a"], [("#b", "a")]))

    def test_bad_names_rejected_on_read_with_line(self):
        with pytest.raises(GraphFormatError, match="line 3: .*'a#b'"):
            read_edge_list("3 1\nvertex c\na#b d\n")
        with pytest.raises(GraphFormatError, match="line 2: 'vertex'"):
            read_edge_list("1 0\nvertex vertex\n")
        with pytest.raises(GraphFormatError, match="line 2: .*'a\\(b'"):
            read_edge_list("2 1\na(b c\n")

    @given(named_graphs_st())
    def test_write_read_identity(self, g):
        try:
            text = to_edge_list(g)
        except ValueError:
            assert any(
                not v or v == "vertex" or any(c.isspace() or c in "()#" for c in v)
                for v in g.vertices
            )
            return
        assert read_edge_list(text) == g
