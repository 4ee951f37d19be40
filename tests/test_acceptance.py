"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is exact (zero); the random corpora are fully seeded.
"""

import random
import time

from helpers import (
    all_graphs_upto_iso,
    apply_variant,
    criterion_8_corpus,
    random_expr,
    random_graph,
    rename_splitted,
)
from unicwd import (
    C5Spec,
    Graph,
    MK2Spec,
    S2Spec,
    S3Spec,
    S4Spec,
    U2Spec,
    U3Spec,
    VARIANTS,
    brute_mds,
    brute_mis,
    build_template,
    complement,
    decompose,
    decompositions_equivalent,
    degree_sequence,
    enumerate_decompositions,
    evaluate,
    havel_hakimi,
    is_independent,
    is_isomorphic,
    is_split_labeled,
    is_unigraph,
    match_split_component,
    oracle_cwd_leq,
    oracle_unigraph,
    parse,
    random_unigraph,
    recompose,
    solve_mds,
    solve_mis,
    solve_vc,
    synth_split,
    synthesize,
    to_text,
    width,
)
from unicwd.synth import SPLIT_WIDTH_BOUNDS


def _report(idx: int, message: str) -> None:
    print(f"ACCEPTANCE {idx}: PASS - {message}")


def test_criterion_1_width_bound_and_exact_reconstruction():
    """1,000 seeded random unigraphs, n up to 200: synthesize succeeds,
    width <= 5, and the evaluation equals the input graph exactly."""
    t0 = time.time()
    max_n = 0
    max_width = 0
    for seed in range(1000):
        budget = 5 + (seed * 195) // 999
        g, _ = random_unigraph(seed, budget)
        assert g.n <= 200
        max_n = max(max_n, g.n)
        expr, report = synthesize(g)
        assert report.total_width <= 5
        result = evaluate(expr)
        assert result.graph == g  # exact edge-set equality, the `check` contract
        assert set(result.labels.values()) <= {1}
        max_width = max(max_width, report.total_width)
    elapsed = time.time() - t0
    assert 190 <= max_n <= 200
    _report(
        1,
        f"1000 unigraphs (max n {max_n}) synthesized and verified, "
        f"max width {max_width}, {elapsed:.1f}s",
    )


def test_criterion_2_nonsplit_width_table():
    """Synthesized widths for the nonsplit families and their complements
    match the declared table: C5 <= 3, matchings <= 2, U2 <= 2, U3 <= 3."""
    checked = 0

    def synth_width(g):
        expr, report = synthesize(g)
        assert evaluate(expr).graph == g
        return report.total_width

    for g in (build_template(C5Spec()), complement(build_template(C5Spec()))):
        assert synth_width(g) <= 3
        checked += 1
    for m in range(2, 11):
        g = build_template(MK2Spec(m))
        assert synth_width(g) <= 2
        assert synth_width(complement(g)) <= 2
        checked += 2
    for m in range(1, 7):
        for s in range(2, 7):
            g = build_template(U2Spec(m=m, s=s))
            assert synth_width(g) <= 2
            assert synth_width(complement(g)) <= 2
            checked += 2
    for m in range(1, 7):
        g = build_template(U3Spec(m))
        assert synth_width(g) <= 3
        assert synth_width(complement(g)) <= 3
        checked += 2
    _report(2, f"{checked} nonsplit family graphs within table widths")


def _split_grid():
    s2 = [
        S2Spec(((1, 2),)),
        S2Spec(((1, 6),)),
        S2Spec(((5, 3),)),
        S2Spec(((2, 2), (1, 2))),
        S2Spec(((4, 1), (2, 2), (1, 3))),
        S2Spec(((6, 1), (5, 1), (4, 1), (1, 2))),
    ]
    s3 = [
        S3Spec(p=1, q1=2, q2=1),
        S3Spec(p=1, q1=5, q2=3),
        S3Spec(p=2, q1=3, q2=2),
        S3Spec(p=4, q1=2, q2=2),
        S3Spec(p=6, q1=2, q2=1),
    ]
    s4 = [
        S4Spec(p=1, q=1),
        S4Spec(p=1, q=6),
        S4Spec(p=2, q=3),
        S4Spec(p=4, q=2),
        S4Spec(p=6, q=1),
    ]
    return s2 + s3 + s4


def test_criterion_3_split_width_table():
    """All four variants of S2/S3/S4 over a parameter grid (component size
    <= 30): split-labeled at every gluing step, widths within 3/3/4/4,
    3/3/4/4, 4/4/5/5."""
    checked = 0
    for spec in _split_grid():
        for variant in VARIANTS:
            comp = apply_variant(build_template(spec), variant)
            assert comp.n <= 30
            comp = rename_splitted(comp, {v: f"in_{v}" for v in comp.graph.vertices})
            m = match_split_component(comp)
            assert m is not None, (spec, variant)
            expr = synth_split(m)
            assert is_split_labeled(expr, comp)
            assert width(expr) <= SPLIT_WIDTH_BOUNDS[m.spec.family][m.variant]
            checked += 1
    _report(3, f"{checked} split family/variant constructions within table widths")


def test_criterion_4_recognition_agrees_with_oracle():
    """Exhaustive n <= 7 (1,252 isomorphism classes): the decomposition
    recognizer and the realization-enumeration oracle agree everywhere."""
    t0 = time.time()
    total = 0
    unigraphs = 0
    for n in range(1, 8):
        classes = all_graphs_upto_iso(n)
        if n == 7:
            assert len(classes) == 1044
        for g in classes:
            total += 1
            recognized = is_unigraph(g) is not None
            assert recognized == oracle_unigraph(degree_sequence(g))
            unigraphs += recognized
    assert total == 1252
    _report(
        4,
        f"recognition agrees with the oracle on all {total} classes "
        f"({unigraphs} unigraphs), {time.time() - t0:.1f}s",
    )


def test_criterion_5_fixtures():
    """The (3,2,2,2,1) realization is rejected; the worked 3-expression
    evaluates to the 6-vertex hub graph and is accepted."""
    hh = havel_hakimi((3, 2, 2, 2, 1))
    assert hh is not None
    assert is_unigraph(hh) is None

    fig_expr = parse(
        "(r 3 1 (r 2 1 (j 1 3 (u"
        " (r 2 1 (j 1 2 (u (v a 1) (v b 2))))"
        " (v f 3)"
        " (j 1 2 (u (v c 1) (v d 1) (v e 2)))"
        "))))"
    )
    lg = evaluate(fig_expr)
    assert lg.graph.n == 6 and lg.graph.m == 7
    assert width(fig_expr) == 3
    assert is_isomorphic(lg.graph, build_template(U3Spec(1)))
    assert is_unigraph(lg.graph) is not None
    _report(5, "degree-sequence twin rejected; worked 3-expression accepted")


def test_criterion_6_oracle_anchors():
    """Exact clique-width values: C5 = 3, K5 = 2, P4 = 3, hub graph = 3."""

    def exact_cwd(g):
        for k in range(1, g.n + 1):
            r = oracle_cwd_leq(g, k)
            assert r is not None
            if r:
                return k
        raise AssertionError

    c5 = build_template(C5Spec())
    k5 = Graph("abcde", [(a, b) for i, a in enumerate("abcde") for b in "abcde"[i + 1 :]])
    p4 = Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    u31 = build_template(U3Spec(1))
    values = (exact_cwd(c5), exact_cwd(k5), exact_cwd(p4), exact_cwd(u31))
    assert values == (3, 2, 3, 3)
    _report(6, f"cwd anchors (C5, K5, P4, hub) = {values}")


def test_criterion_7_decomposition_uniqueness():
    """Exhaustive n <= 6 plus 500 random graphs with n <= 8: exactly one
    maximal decomposition, equivalent to decompose's output."""
    t0 = time.time()
    count = 0
    for n in range(1, 7):
        for g in all_graphs_upto_iso(n):
            decs = enumerate_decompositions(g)
            assert len(decs) == 1
            assert decompositions_equivalent(decs[0], decompose(g))
            count += 1
    rng = random.Random(20260810)
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 8), rng.choice((0.15, 0.3, 0.5, 0.7, 0.85)))
        decs = enumerate_decompositions(g)
        assert len(decs) == 1
        assert decompositions_equivalent(decs[0], decompose(g))
        count += 1
    _report(7, f"unique decomposition on {count} graphs, {time.time() - t0:.1f}s")


def test_criterion_8_solver_correctness():
    """200 random unigraphs with n <= 18: the expression-tree solvers match
    subset brute force exactly."""
    t0 = time.time()
    done = 0
    for expr, g in criterion_8_corpus():
        mis, mis_wit = solve_mis(expr)
        assert mis == brute_mis(g)
        assert is_independent(g, mis_wit) and len(mis_wit) == mis
        vc, _ = solve_vc(expr)
        assert vc == g.n - mis
        mds, mds_wit = solve_mds(expr)
        assert mds == brute_mds(g)
        covered = set(mds_wit)
        for v in mds_wit:
            covered |= g.neighbors(v)
        assert covered == set(g.vertices)
        done += 1
    _report(8, f"mis/vc/ds agree with brute force on {done} graphs, {time.time() - t0:.1f}s")


def test_criterion_9_round_trips():
    """parse/print identity on 10,000 generated expressions; decompose and
    recompose are inverse on every corpus graph."""
    rng = random.Random(424242)
    for _ in range(10000):
        e = random_expr(rng)
        assert parse(to_text(e)) == e

    corpus = 0
    for n in range(1, 7):
        for g in all_graphs_upto_iso(n):
            assert recompose(decompose(g)) == g
            corpus += 1
    grng = random.Random(77)
    for _ in range(200):
        g = random_graph(grng, grng.randint(0, 8), grng.random())
        assert recompose(decompose(g)) == g
        corpus += 1
    for seed in range(100):
        g, _ = random_unigraph(seed, 5 + seed)
        assert recompose(decompose(g)) == g
        corpus += 1
    _report(9, f"10000 expression round-trips; {corpus} graph round-trips")
