"""Expression synthesis: families, gluing, the full pipeline."""

import pytest

from helpers import (
    G,
    complete_graph,
    cycle_graph,
    matching_graph,
    path_graph,
    star_graph,
)
from unicwd import (
    C5Spec,
    ComponentMatch,
    DuplicateVertexError,
    Graph,
    Intro,
    K1Spec,
    MK2Spec,
    NotCographError,
    NotUnigraphError,
    S2Spec,
    S3Spec,
    S4Spec,
    SplittedGraph,
    SynthesisError,
    U2Spec,
    U3Spec,
    Union,
    VARIANTS,
    apply_variant,
    build_template,
    complement,
    compose,
    compose_splitted,
    disjoint_union,
    evaluate,
    glue_split,
    glue_tail,
    is_split_labeled,
    match_nonsplit_component,
    match_split_component,
    random_unigraph,
    rename,
    rename_splitted,
    synth_cograph,
    synth_nonsplit,
    synth_split,
    synthesize,
    width,
)
from unicwd.synth import NONSPLIT_WIDTH_BOUNDS, SPLIT_WIDTH_BOUNDS


def check_all_ones(expr, graph):
    lg = evaluate(expr)
    assert lg.graph == graph
    assert set(lg.labels.values()) <= {1}


class TestCograph:
    def test_matching(self):
        g = matching_graph(("a1", "b1"), ("a2", "b2"), ("a3", "b3"))
        e = synth_cograph(g)
        check_all_ones(e, g)
        assert width(e) <= 2

    def test_u2_shape(self):
        g = disjoint_union(
            matching_graph(("a1", "b1"), ("a2", "b2")), star_graph("c", "l1", "l2", "l3")
        )
        e = synth_cograph(g)
        check_all_ones(e, g)
        assert width(e) <= 2

    def test_single_vertex(self):
        e = synth_cograph(G(["x"]))
        check_all_ones(e, G(["x"]))
        assert width(e) == 1

    def test_complement_of_matching(self):
        g = complement(matching_graph(("a1", "b1"), ("a2", "b2"), ("a3", "b3")))
        e = synth_cograph(g)
        check_all_ones(e, g)
        assert width(e) <= 2

    def test_p4_rejected_with_witness(self):
        with pytest.raises(NotCographError) as exc:
            synth_cograph(path_graph("a", "b", "c", "d"))
        assert exc.value.witness is not None


class TestNonsplit:
    def _match(self, g):
        m = match_nonsplit_component(g)
        assert m is not None
        return m

    def test_c5(self):
        g = cycle_graph("a", "b", "c", "d", "e")
        e = synth_nonsplit(self._match(g))
        check_all_ones(e, g)
        assert width(e) == 3

    def test_u3_values(self):
        for m_param in (1, 2, 3):
            g = build_template(U3Spec(m_param))
            e = synth_nonsplit(self._match(g))
            check_all_ones(e, g)
            assert width(e) == 3

    def test_u3_complement(self):
        g = complement(build_template(U3Spec(1)))
        e = synth_nonsplit(self._match(g))
        check_all_ones(e, g)
        assert width(e) == 3

    def test_renamed_c5_complement(self):
        g = rename(complement(build_template(C5Spec())), {f"x{i}": f"n{i}" for i in range(1, 6)})
        e = synth_nonsplit(self._match(g))
        check_all_ones(e, g)

    @pytest.mark.parametrize(
        "spec", [MK2Spec(2), MK2Spec(4), U2Spec(1, 2), U2Spec(3, 3), U3Spec(2)], ids=str
    )
    @pytest.mark.parametrize("variant", ("identity", "complement"))
    def test_family_grid(self, spec, variant):
        g = apply_variant(build_template(spec), variant)
        g = rename(g, {v: f"n_{v}" for v in g.vertices})
        m = self._match(g)
        e = synth_nonsplit(m)
        check_all_ones(e, g)
        assert width(e) <= NONSPLIT_WIDTH_BOUNDS[m.spec.family]


SPLIT_GRID = [
    S2Spec(((1, 2),)),
    S2Spec(((3, 2),)),
    S2Spec(((2, 1), (1, 3))),
    S2Spec(((5, 1), (3, 2), (1, 1))),
    S3Spec(p=1, q1=2, q2=1),
    S3Spec(p=1, q1=3, q2=2),
    S3Spec(p=3, q1=2, q2=1),
    S4Spec(p=1, q=1),
    S4Spec(p=1, q=3),
    S4Spec(p=3, q=1),
]


class TestSplitFamilies:
    @pytest.mark.parametrize("spec", SPLIT_GRID, ids=str)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_construction_grid(self, spec, variant):
        comp = apply_variant(build_template(spec), variant)
        comp = rename_splitted(comp, {v: f"n_{v}" for v in comp.graph.vertices})
        m = match_split_component(comp)
        assert m is not None
        expr = synth_split(m, check_steps=True)
        assert is_split_labeled(expr, comp)
        assert width(expr) <= SPLIT_WIDTH_BOUNDS[m.spec.family][m.variant]

    def test_k1_sides(self):
        for side, label in (("clique", 1), ("independent", 2)):
            m = ComponentMatch(K1Spec(side), "identity", {"a": "z"})
            assert evaluate(synth_split(m)).labels == {"z": label}

    def test_widths_match_declared_bounds_exactly(self):
        # each family/variant pair attains its declared bound on this grid
        # (the S2 parameters are asymmetric: with equal-size stars the
        # complement coincides with the inverse and matching would
        # deterministically report the earlier variant)
        observed = {}
        for spec in (S2Spec(((3, 2), (1, 1))), S3Spec(1, 2, 1), S4Spec(1, 1)):
            for variant in VARIANTS:
                comp = apply_variant(build_template(spec), variant)
                m = match_split_component(comp)
                observed[(spec.family, variant)] = width(synth_split(m))
        assert observed == {
            ("S2", "identity"): 3,
            ("S2", "inverse"): 3,
            ("S2", "complement"): 4,
            ("S2", "inverse_complement"): 4,
            ("S3", "identity"): 3,
            ("S3", "inverse"): 3,
            ("S3", "complement"): 4,
            ("S3", "inverse_complement"): 4,
            ("S4", "identity"): 4,
            ("S4", "inverse"): 4,
            ("S4", "complement"): 5,
            ("S4", "inverse_complement"): 5,
        }


def k1_clique(name):
    return SplittedGraph(G([name]), frozenset({name}), frozenset())


class TestGluing:
    def test_two_k1_cliques_give_k2(self):
        a = synth_split(ComponentMatch(K1Spec("clique"), "identity", {"a": "a"}))
        b = synth_split(ComponentMatch(K1Spec("clique"), "identity", {"a": "b"}))
        glued = glue_split(a, b)
        k2 = SplittedGraph(complete_graph("a", "b"), frozenset("ab"), frozenset())
        assert is_split_labeled(glued, k2)

    def test_k1_over_p4(self):
        outer = synth_split(ComponentMatch(K1Spec("clique"), "identity", {"a": "z"}))
        p4 = SplittedGraph(path_graph("a", "b", "c", "d"), {"b", "c"}, {"a", "d"})
        inner = synth_split(match_split_component(p4))
        glued = glue_split(outer, inner)
        target = compose_splitted(k1_clique("z"), p4)
        assert is_split_labeled(glued, target)
        assert target.graph.degree("z") == 4

    def test_width_bookkeeping(self):
        s3 = build_template(S3Spec(1, 2, 1))
        renamed = rename_splitted(s3, {v: f"y_{v}" for v in s3.graph.vertices})
        a = synth_split(match_split_component(s3))
        b = synth_split(match_split_component(renamed))
        glued = glue_split(a, b)
        assert is_split_labeled(glued, compose_splitted(s3, renamed))
        assert width(glued) <= max(4, width(a), width(b))

    def test_glue_collision(self):
        # gluing checks nothing; the one evaluation at the end catches it
        a = synth_split(ComponentMatch(K1Spec("clique"), "identity", {"a": "a"}))
        with pytest.raises(DuplicateVertexError, match="'a'"):
            evaluate(glue_split(a, a))

    def test_tail_glue_dominating(self):
        s = synth_split(ComponentMatch(K1Spec("clique"), "identity", {"a": "z"}))
        c5 = cycle_graph("p", "q", "r", "s", "t")
        tail = synth_nonsplit(match_nonsplit_component(c5))
        e = glue_tail(s, tail)
        check_all_ones(e, compose(k1_clique("z"), c5))
        assert width(e) <= 3

    def test_tail_glue_isolated(self):
        s = synth_split(ComponentMatch(K1Spec("independent"), "identity", {"a": "z"}))
        k2 = complete_graph("x", "y")
        tail = synth_cograph(k2)
        e = glue_tail(s, tail)
        check_all_ones(e, disjoint_union(G(["z"]), k2))


class TestSynthesize:
    def test_u3(self):
        g = build_template(U3Spec(1))
        expr, report = synthesize(g)
        check_all_ones(expr, g)
        assert report.total_width <= 3

    def test_not_unigraph_raises(self):
        g = cycle_graph(*"abcdef")
        with pytest.raises(NotUnigraphError, match="tail"):
            synthesize(g)

    def test_complement_s4_component_reports_width_5(self):
        comp = apply_variant(build_template(S4Spec(1, 1)), "complement")
        expr, report = synthesize(comp.graph)
        check_all_ones(expr, comp.graph)
        widths = {(c.family, c.variant): c.width for c in report.components}
        assert widths[("S4", "complement")] == 5
        assert report.total_width == 5

    def test_random_samples(self):
        for seed in range(150):
            g, _ = random_unigraph(seed + 300, 3 + (seed % 38))
            expr, report = synthesize(g, check_steps=(g.n <= 15))
            assert report.total_width <= 5
            check_all_ones(expr, g)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty graph"):
            synthesize(Graph([]))

    def test_verifies_once(self, monkeypatch):
        import unicwd.kexpr
        import unicwd.synth

        for seed in range(1000):
            g, witness = random_unigraph(seed, 40)
            if len(witness.decomposition.components) >= 3 and witness.tail_match is not None:
                break
        else:
            pytest.fail("no sample with three split components and a tail")
        calls = []

        def counting(e, _original=unicwd.kexpr.evaluate):
            calls.append(e)
            return _original(e)

        monkeypatch.setattr(unicwd.kexpr, "evaluate", counting)
        monkeypatch.setattr(unicwd.synth, "evaluate", counting)
        expr, _ = synthesize(g, check_steps=False)
        assert len(calls) == 1 and calls[0] is expr

    def test_broken_piece_is_named(self, monkeypatch):
        import unicwd.synth

        g = compose(k1_clique("z"), cycle_graph(*"abcde"))
        monkeypatch.setattr(
            unicwd.synth, "_c5_expr", lambda order: Union(tuple(Intro(v, 1) for v in order))
        )
        with pytest.raises(SynthesisError, match=r"component 2 \(C5/identity\)") as exc:
            synthesize(g)
        assert exc.value.component == 2

    def test_report_shape(self):
        g = compose(
            SplittedGraph(G(["z"]), frozenset({"z"}), frozenset()),
            build_template(U3Spec(1)),
        )
        _, report = synthesize(g)
        assert report.component_families == ("K1", "U3")
        assert report.per_component_widths == (1, 3)
        assert report.components[-1].tail


def _check_at_scale(g: Graph) -> None:
    # a dense unigraph with a deep expression: verification inside
    # synthesize, structural == on the parsed text, both DP solvers
    from unicwd import is_independent, parse, solve_mds, solve_mis, to_text

    expr, report = synthesize(g)
    assert report.total_width <= 5
    assert parse(to_text(expr)) == expr
    mis, mis_wit = solve_mis(expr)
    assert len(mis_wit) == mis and is_independent(g, mis_wit)
    mds, mds_wit = solve_mds(expr)
    assert len(mds_wit) == mds
    dominated = set(mds_wit).union(*(g.neighbors(v) for v in mds_wit))
    assert dominated == g.vertex_set


class TestScale:
    def test_n960_synthesize_round_trip_and_solvers(self):
        g, _ = random_unigraph(11, 1000)
        assert (g.n, g.m) == (960, 383555)
        _check_at_scale(g)

    def test_n2000_synthesize_round_trip_and_solvers(self):
        g, _ = random_unigraph(13, 2000)
        assert (g.n, g.m) == (2000, 880038)
        _check_at_scale(g)

    def test_synthesize_never_builds_the_edge_set(self, monkeypatch):
        # recognition and verification work on neighbour sets only
        reads = []
        lazy = Graph.edges

        def counted(g):
            reads.append(g.n)
            return lazy.fget(g)

        # dense samples whose nonsplit cores match as a complement (U3) and
        # as an identity (MK2)
        samples = [random_unigraph(1, 300), random_unigraph(13, 300)]
        assert [r.tail_match.variant for _, r in samples] == ["complement", "identity"]
        monkeypatch.setattr(Graph, "edges", property(counted))
        for g, _ in samples:
            assert g.m > 100 * g.n
            expr, _ = synthesize(g)
            assert reads == []
        assert evaluate(expr).graph.edges == g.edges and len(reads) == 2


class TestTightnessProbes:
    """The three-label constructions are optimal for the small anchors."""

    def test_exact_width_three(self):
        from unicwd import oracle_cwd_leq

        for g in (
            cycle_graph("a", "b", "c", "d", "e"),
            build_template(U3Spec(1)),
            complement(build_template(U3Spec(1))),
        ):
            assert oracle_cwd_leq(g, 2) is False
            assert oracle_cwd_leq(g, 3) is True

    def test_p4_lower_bound_witness_for_larger_members(self):
        from unicwd import find_induced_p4

        for m in range(1, 7):
            g = build_template(U3Spec(m))
            assert find_induced_p4(g) is not None
            assert find_induced_p4(complement(g)) is not None
