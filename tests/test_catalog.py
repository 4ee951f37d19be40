"""Catalog templates, variants, matching, recognition, generation."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    G,
    all_graphs_upto_iso,
    apply_variant,
    complete_graph,
    cycle_graph,
    matching_graph,
    path_graph,
    rename,
    rename_splitted,
)
from unicwd import (
    C5Spec,
    K1Spec,
    MK2Spec,
    S2Spec,
    S3Spec,
    S4Spec,
    SplittedGraph,
    U2Spec,
    U3Spec,
    VARIANTS,
    build_template,
    complement,
    degree_sequence,
    havel_hakimi,
    is_isomorphic,
    is_split_partition,
    is_unigraph,
    match_nonsplit_component,
    match_split_component,
    oracle_unigraph,
    random_unigraph,
)


class TestSpecs:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError, match="q1 >= 2"):
            S3Spec(p=1, q1=1, q2=1)
        with pytest.raises(ValueError, match="q_i >= 2"):
            S2Spec(((3, 1),))
        with pytest.raises(ValueError, match="strictly decreasing"):
            S2Spec(((2, 1), (2, 1)))
        with pytest.raises(ValueError, match="m >= 2"):
            MK2Spec(1)
        with pytest.raises(ValueError, match="s >= 2"):
            U2Spec(m=1, s=1)
        with pytest.raises(ValueError, match="m >= 1"):
            U3Spec(0)


class TestTemplates:
    def test_u2_shape(self):
        g = build_template(U2Spec(m=1, s=2))
        assert g.n == 5
        assert degree_sequence(g) == (2, 1, 1, 1, 1)

    def test_s2_single_pair_is_p4(self):
        s = build_template(S2Spec(((1, 2),)))
        assert is_isomorphic(s.graph, path_graph("a", "b", "c", "d"))
        assert len(s.clique_part) == 2

    def test_u3_shape(self):
        g = build_template(U3Spec(1))
        assert degree_sequence(g) == (4, 2, 2, 2, 2, 2)

    def test_u3_hub_degree(self):
        for m in range(1, 11):
            g = build_template(U3Spec(m))
            degs = degree_sequence(g)
            assert degs[0] == 2 * m + 2
            assert all(d == 2 for d in degs[1:])

    def test_s3_structure(self):
        s = build_template(S3Spec(p=1, q1=2, q2=1))
        assert s.n == 8
        v_neighbors = s.graph.neighbors("v")
        assert len(v_neighbors) == 2
        assert all(len(s.graph.neighbors(c) & s.independent_part) == 1 + 1 for c in v_neighbors)

    def test_s4_structure(self):
        s = build_template(S4Spec(p=1, q=1))
        assert s.n == 9
        assert s.graph.neighbors("u") == s.graph.vertex_set - {"u", "v"}


class TestApplyVariant:
    def test_inverse_of_smallest_s2_swaps_parts(self):
        # the 4-vertex computation: cross edges kept, clique emptied,
        # independent side filled; the result is again a path
        s = build_template(S2Spec(((1, 2),)))
        inv = apply_variant(s, "inverse")
        assert inv.clique_part == s.independent_part
        assert is_isomorphic(inv.graph, path_graph("a", "b", "c", "d"))
        assert inv.graph.has_edge("c1l1", "c2l1")
        assert not inv.graph.has_edge("c1", "c2")

    def test_c5_complement_isomorphic(self):
        g = build_template(C5Spec())
        assert is_isomorphic(apply_variant(g, "complement"), g)

    def test_mk2_complement_m2_is_c4(self):
        g = apply_variant(build_template(MK2Spec(2)), "complement")
        assert is_isomorphic(g, cycle_graph("1", "2", "3", "4"))

    def test_inverse_on_plain_graph_rejected(self):
        with pytest.raises(ValueError, match="splitted"):
            apply_variant(build_template(C5Spec()), "inverse")

    def test_variants_are_involutions(self):
        s = build_template(S3Spec(p=2, q1=2, q2=1))
        for variant in ("inverse", "complement", "inverse_complement"):
            assert apply_variant(apply_variant(s, variant), variant) == s


SPLIT_SPECS = [
    S2Spec(((1, 2),)),
    S2Spec(((2, 3),)),
    S2Spec(((3, 1), (1, 2))),
    S2Spec(((4, 2), (2, 1), (1, 2))),
    S3Spec(p=1, q1=2, q2=1),
    S3Spec(p=2, q1=2, q2=2),
    S3Spec(p=1, q1=4, q2=2),
    S4Spec(p=1, q=1),
    S4Spec(p=2, q=2),
    S4Spec(p=1, q=4),
]


class TestMatchSplit:
    def test_p4_matches_smallest_s2(self):
        p4 = path_graph("a", "b", "c", "d")
        s = SplittedGraph(p4, {"b", "c"}, {"a", "d"})
        m = match_split_component(s)
        assert m is not None
        assert m.spec == S2Spec(((1, 2),)) and m.variant == "identity"

    def test_inverse_s2_matches_by_inverse_variant(self):
        base = build_template(S2Spec(((2, 2),)))
        comp = apply_variant(base, "inverse")
        m = match_split_component(comp)
        assert m is not None
        assert m.spec == S2Spec(((2, 2),)) and m.variant == "inverse"

    def test_k1_both_sides(self):
        for side, parts in (("clique", ({"x"}, set())), ("independent", (set(), {"x"}))):
            s = SplittedGraph(G(["x"]), *parts)
            m = match_split_component(s)
            assert m is not None and m.spec == K1Spec(side) and m.variant == "identity"

    def test_non_catalog_component_rejected(self):
        # a clique vertex with two private leaves plus a leafless clique vertex
        g = G(["c1", "c2", "l1", "l2"], [("c1", "c2"), ("c1", "l1"), ("c1", "l2")])
        s = SplittedGraph(g, {"c1", "c2"}, {"l1", "l2"})
        assert match_split_component(s) is None

    @pytest.mark.parametrize("spec", SPLIT_SPECS, ids=str)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_roundtrip_all_variants(self, spec, variant):
        comp = apply_variant(build_template(spec), variant)
        # rename so template and component names differ
        comp = rename_splitted(comp, {v: f"in_{v}" for v in comp.graph.vertices})
        m = match_split_component(comp)
        assert m is not None
        rebuilt = rename_splitted(apply_variant(build_template(m.spec), m.variant), m.correspondence)
        assert rebuilt == comp
        if variant == "identity":
            # self-symmetric pieces may match an earlier variant, but the
            # identity orientation always recovers the exact parameters
            assert m.spec == spec and m.variant == "identity"


NONSPLIT_SPECS = [
    C5Spec(),
    MK2Spec(2),
    MK2Spec(5),
    U2Spec(m=1, s=2),
    U2Spec(m=3, s=4),
    U3Spec(1),
    U3Spec(3),
]


class TestPieceBuilders:
    """The one-pass piece builders equal the template put through the
    reference transforms of the test helpers."""

    @pytest.mark.parametrize("spec", [K1Spec("clique"), K1Spec("independent"), *SPLIT_SPECS], ids=str)
    def test_split_piece(self, spec):
        from unicwd.catalog import _split_piece

        t = build_template(spec)
        for variant in VARIANTS:
            piece, corr = _split_piece(spec, variant, "g7_")
            assert list(corr.items()) == [(v, f"g7_{v}") for v in t.graph.vertices]
            assert piece == rename_splitted(apply_variant(t, variant), corr)

    @pytest.mark.parametrize("spec", NONSPLIT_SPECS, ids=str)
    def test_nonsplit_piece(self, spec):
        from unicwd.catalog import _nonsplit_piece

        t = build_template(spec)
        for variant in ("identity", "complement"):
            g, corr = _nonsplit_piece(spec, variant, "t_")
            assert list(corr.items()) == [(v, f"t_{v}") for v in t.vertices]
            assert g == rename(apply_variant(t, variant), corr)

    def test_spec_size_counts_the_template(self):
        from unicwd.catalog import _spec_size

        for spec in [K1Spec("clique"), K1Spec("independent"), *SPLIT_SPECS, *NONSPLIT_SPECS]:
            assert _spec_size(spec) == build_template(spec).n


def _one_edge_off(g, rng):
    """``g``, ``g`` less one edge and ``g`` plus one non-edge."""
    pairs = [(u, v) for i, u in enumerate(g.vertices) for v in g.vertices[i + 1 :]]
    out = [g]
    if g.edges:
        out.append(G(g.vertices, g.edges - {rng.choice(sorted(g.edges))}))
    missing = [e for e in pairs if e not in g.edges]
    if missing:
        out.append(G(g.vertices, g.edges | {rng.choice(missing)}))
    return out


def _perturbed(names, rng, trial):
    """The identity correspondence onto g_-prefixed names, with ``trial`` random swaps."""
    image = [f"g_{v}" for v in names]
    for _ in range(trial % 3):
        i, j = rng.randrange(len(image)), rng.randrange(len(image))
        image[i], image[j] = image[j], image[i]
    if trial == 7:
        image[0] = "g_stranger"
    return dict(zip(names, image))


class TestEdgeLevelConfirmation:
    """The edge-level confirmation agrees with building and comparing the graphs."""

    @pytest.mark.parametrize(
        "spec",
        [K1Spec("clique"), K1Spec("independent"), S2Spec(((2, 1), (1, 2))), S3Spec(1, 2, 1), S4Spec(1, 1), S4Spec(2, 2)],
        ids=repr,
    )
    def test_split(self, spec):
        from unicwd.catalog import _confirms_split

        rng = random.Random(5)
        t = build_template(spec)
        names = list(t.graph.vertices)
        for shown in VARIANTS:
            base = rename_splitted(apply_variant(t, shown), {v: f"g_{v}" for v in names})
            for h in _one_edge_off(base.graph, rng):
                if not is_split_partition(h, base.clique_part, base.independent_part):
                    continue
                s = SplittedGraph(h, base.clique_part, base.independent_part)
                for variant in VARIANTS:
                    for trial in range(12):
                        corr = _perturbed(names, rng, trial)
                        expected = rename_splitted(apply_variant(t, variant), corr) == s
                        assert _confirms_split(s, spec, variant, corr) == expected

    @pytest.mark.parametrize(
        "spec", [C5Spec(), MK2Spec(3), U2Spec(1, 2), U2Spec(2, 3), U3Spec(1), U3Spec(2)], ids=repr
    )
    def test_nonsplit(self, spec):
        from unicwd.catalog import _confirms_nonsplit

        rng = random.Random(6)
        t = build_template(spec)
        names = list(t.vertices)
        for shown in ("identity", "complement"):
            base = rename(apply_variant(t, shown), {v: f"g_{v}" for v in names})
            for g in _one_edge_off(base, rng):
                for variant in ("identity", "complement"):
                    for trial in range(12):
                        corr = _perturbed(names, rng, trial)
                        expected = rename(apply_variant(t, variant), corr) == g
                        assert _confirms_nonsplit(g, spec, variant, corr) == expected


class TestMatchNonsplit:
    def test_c5(self):
        m = match_nonsplit_component(cycle_graph("a", "b", "c", "d", "e"))
        assert m is not None and m.spec == C5Spec() and m.variant == "identity"

    def test_perfect_matching(self):
        m = match_nonsplit_component(matching_graph(("a", "b"), ("c", "d"), ("e", "f")))
        assert m is not None and m.spec == MK2Spec(3) and m.variant == "identity"

    def test_u3(self):
        m = match_nonsplit_component(build_template(U3Spec(1)))
        assert m is not None and m.spec == U3Spec(1) and m.variant == "identity"

    def test_c4_is_complement_of_2k2(self):
        m = match_nonsplit_component(cycle_graph("a", "b", "c", "d"))
        assert m is not None and m.spec == MK2Spec(2) and m.variant == "complement"

    def test_c6_rejected(self):
        assert match_nonsplit_component(cycle_graph(*"abcdef")) is None

    @pytest.mark.parametrize("spec", NONSPLIT_SPECS, ids=str)
    @pytest.mark.parametrize("variant", ("identity", "complement"))
    def test_roundtrip_all_variants(self, spec, variant):
        comp = apply_variant(build_template(spec), variant)
        comp = rename(comp, {v: f"in_{v}" for v in comp.vertices})
        m = match_nonsplit_component(comp)
        assert m is not None
        rebuilt = rename(apply_variant(build_template(m.spec), m.variant), m.correspondence)
        assert rebuilt == comp


class TestIsUnigraph:
    def test_u3_accepted(self):
        assert is_unigraph(build_template(U3Spec(1))) is not None

    def test_same_degree_sequence_rejected(self):
        g = G(
            ["v1", "v2", "v3", "v4", "v5"],
            [("v1", "v2"), ("v1", "v3"), ("v1", "v4"), ("v2", "v3"), ("v4", "v5")],
        )
        assert degree_sequence(g) == (3, 2, 2, 2, 1)
        assert is_unigraph(g) is None

    def test_k1_accepted(self):
        rec = is_unigraph(G(["a"]))
        assert rec is not None
        assert rec.decomposition.k == 0 and rec.tail_match is not None

    def test_threshold_chain(self):
        rec = is_unigraph(complete_graph("a", "b", "c", "d"))
        assert rec is not None
        assert all(m.spec.family == "K1" for m in rec.component_matches)

    def test_agrees_with_oracle_exhaustive_n5(self):
        for n in range(1, 6):
            for g in all_graphs_upto_iso(n):
                assert (is_unigraph(g) is not None) == oracle_unigraph(degree_sequence(g))


class TestHavelHakimi:
    def test_realizes_target_sequence(self):
        g = havel_hakimi((3, 2, 2, 2, 1))
        assert g is not None and degree_sequence(g) == (3, 2, 2, 2, 1)

    def test_k2(self):
        assert havel_hakimi((1, 1)) == complete_graph("v1", "v2")

    def test_not_graphic(self):
        assert havel_hakimi((3, 1)) is None
        assert havel_hakimi((1,)) is None

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=7))
    @settings(max_examples=150)
    def test_realization_matches_or_none(self, degs):
        g = havel_hakimi(degs)
        if g is not None:
            assert degree_sequence(g) == tuple(sorted(degs, reverse=True))


def _generator_record(g, rec) -> str:
    """Everything ``random_unigraph`` returns, as text: the graph's sorted
    adjacency, each component's parts, the tail's vertices and each match.

    A vertex's line lists its neighbours or, marked '-', its non-neighbours,
    whichever are fewer: the same graph, at a fraction of the sorting on the
    dense outputs."""
    lines = []
    for v in g.vertices:
        nb = g.neighbors(v)
        if 2 * len(nb) > g.n:
            lines.append(f"{v} - {' '.join(sorted(g.vertex_set - nb - {v}))}")
        else:
            lines.append(f"{v} {' '.join(sorted(nb))}")
    for comp in rec.decomposition.components:
        lines.append(repr((sorted(comp.clique_part), sorted(comp.independent_part))))
    tail = rec.decomposition.tail
    lines.append(repr(None if tail is None else tail.vertices))
    for m in (*rec.component_matches, rec.tail_match):
        if m is None:
            lines.append("None")
        else:
            corr = sorted(m.correspondence.items())
            lines.append(repr((m.spec.family, m.variant, m.spec.params(), corr)))
    return "\n".join(lines)


def _generator_digest() -> str:
    h = hashlib.sha256()
    for seed in range(300):
        for budget in (1, 3, 12, 40, 120, 280):
            h.update(_generator_record(*random_unigraph(seed, budget)).encode())
    return h.hexdigest()


# _generator_digest() of the generator that built each piece as a template
# graph, transformed it per variant, renamed it and folded compose level by
# level; the one-pass builders must reproduce it exactly
GENERATOR_DIGEST = "2fcce1a0cc1a2fba44f7ba735da347bb98a392fc3adf31536740fc4d293cf05e"


class TestRandomUnigraph:
    def test_outputs_are_pinned(self):
        assert _generator_digest() == GENERATOR_DIGEST

    def test_builds_no_template(self, monkeypatch):
        import unicwd.catalog as catalog

        def refuse(spec):
            raise AssertionError("random_unigraph built a template graph")

        monkeypatch.setattr(catalog, "build_template", refuse)
        for seed in range(20):
            random_unigraph(seed, 60)

    def test_seed_determinism(self):
        g1, _ = random_unigraph(42, 30)
        g2, _ = random_unigraph(42, 30)
        assert g1 == g2

    def test_respects_budget_and_recognized(self):
        for seed in range(50):
            budget = 1 + seed % 40
            g, rec = random_unigraph(seed, budget)
            assert 1 <= g.n <= budget
            assert is_unigraph(g) is not None

    def test_ground_truth_recomposes(self):
        from unicwd import recompose

        for seed in range(30):
            g, rec = random_unigraph(seed, 25)
            assert recompose(rec.decomposition) == g

    def test_ground_truth_is_the_canonical_decomposition(self):
        from unicwd import decompose, decompositions_equivalent

        for seed in range(60):
            g, rec = random_unigraph(seed + 600, 2 + seed % 28)
            assert decompositions_equivalent(rec.decomposition, decompose(g))

    def test_small_samples_pass_oracle(self):
        for seed in range(40):
            g, _ = random_unigraph(seed, 8)
            if g.n <= 8:
                assert oracle_unigraph(degree_sequence(g))
