"""Tests of the benchmark's own code: generators, checks and span arithmetic.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import random

import pytest

import unicwd
from unicwd import Graph, is_unigraph, oracle_unigraph, synthesize, to_text, width
from unicwd.kexpr import vertex_names

import checks
import corpus
import run
import spans

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _graph(text: str) -> Graph:
    g = checks.read_edge_list_text(text)
    return Graph(g.vertices, g.edges)


# ---------------------------------------------------------------------------
# generators


def test_recipes_are_deterministic_per_seed():
    assert corpus.lib_large_recipes(3, items=2) == corpus.lib_large_recipes(3, items=2)
    assert corpus.cli_recipes(3, rounds=1) == corpus.cli_recipes(3, rounds=1)
    assert corpus.dp_recipes(3, rounds=1) == corpus.dp_recipes(3, rounds=1)
    assert corpus.cli_recipes(3, rounds=1) != corpus.cli_recipes(4, rounds=1)


def test_inputs_are_deterministic_per_recipe():
    for recipe in corpus.dp_recipes(5, rounds=1):
        assert to_text(corpus.dp_expr(recipe)) == to_text(corpus.dp_expr(recipe))
    for kind, s, budget, *k in corpus.cli_recipes(5, rounds=1):
        if kind == "neg":
            assert corpus.negative(s, budget, *k) == corpus.negative(s, budget, *k)


def test_lib_large_inputs_are_in_their_band():
    for s, budget in corpus.lib_large_recipes(7, items=3):
        g, _ = unicwd.random_unigraph(s, budget)
        min_n = 0.9 * corpus.LIB_BUDGET
        assert budget == corpus.LIB_BUDGET and g.n >= min_n
        assert g.m >= int(corpus.LIB_MIN_DENSITY * min_n * (min_n - 1) / 2)


@pytest.mark.parametrize("k", [6, 7, 8])
def test_bare_cycle_negatives_are_not_unigraphs_by_the_oracle(k):
    vertices, edges = corpus.compose_over_cycle([], k)
    g = Graph(vertices, edges)
    assert (g.n, g.m) == (k, k)
    assert oracle_unigraph(unicwd.degree_sequence(g)) is False


def test_full_size_negatives_are_rejected_and_positives_accepted():
    negatives = 0
    for kind, s, budget, *k in corpus.cli_recipes(11, rounds=2):
        if kind == "neg":
            neg = corpus.negative(s, budget, *k)
            g = _graph(neg.text)
            assert (g.n, g.m) == (neg.n, neg.m)
            assert corpus.CLI_NEG_BAND[0] <= g.m <= corpus.CLI_NEG_BAND[1]
            assert is_unigraph(g) is None
            negatives += 1
        else:
            g, _ = unicwd.random_unigraph(s, budget)
            assert corpus.CLI_MIN_N <= g.n <= corpus.CLI_MAX_N
            assert is_unigraph(g) is not None
    assert negatives == 2
    for s, budget in corpus.lib_large_recipes(11, items=2):
        assert is_unigraph(unicwd.random_unigraph(s, budget)[0]) is not None
    for recipe in corpus.dp_recipes(11, rounds=1):
        if recipe[0] == "synth":
            assert is_unigraph(unicwd.random_unigraph(recipe[1], recipe[2])[0]) is not None


@pytest.mark.parametrize("w", [3, 4, 5])
def test_random_expressions_have_unique_names_and_their_width(w):
    rng = random.Random(w)
    for leaves in (w, 18, 120):
        e = corpus.random_expr(rng, w, leaves, "p")
        names = vertex_names(e)
        assert len(names) == len(set(names)) == leaves
        assert width(e) == w


# ---------------------------------------------------------------------------
# checks


def _small_synthesized():
    g, _ = unicwd.random_unigraph(2, 30)
    e, _ = synthesize(g)
    return g, e


def test_checks_accept_correct_outputs():
    g, e = _small_synthesized()
    ref = checks.RefGraph(g.vertices, g.edges)
    checks.check_expr(to_text(e), e, ref)
    value, witness = unicwd.solve_mis(e)
    checks.check_independent(ref, value, witness)
    checks.check_cover(ref, *unicwd.solve_vc(e), value)
    checks.check_dominating(ref, *unicwd.solve_mds(e))


def test_checks_reject_wrong_outputs():
    g, e = _small_synthesized()
    u, v = sorted(g.edges)[0]
    missing = checks.RefGraph(g.vertices, [x for x in g.edges if x != (u, v)])
    with pytest.raises(checks.CheckFailed):
        checks.check_expr(to_text(e), e, missing)
    ref = checks.RefGraph(g.vertices, g.edges)
    with pytest.raises(checks.CheckFailed):
        checks.check_independent(ref, 2, [u, v])
    with pytest.raises(checks.CheckFailed):
        checks.check_dominating(ref, 0, [])
    with pytest.raises(checks.CheckFailed):
        checks.check_cover(ref, 0, [], 0)


def test_brute_check_on_small_inputs():
    e = corpus.random_expr(random.Random(1), 4, 12, "s")
    ref, _, _ = checks.reference_eval(e)
    mis, mds = unicwd.solve_mis(e)[0], unicwd.solve_mds(e)[0]
    checks.check_brute(ref, mis, mds)
    with pytest.raises(checks.CheckFailed):
        checks.check_brute(ref, mis + 1, mds)


def test_reference_evaluator_matches_the_package():
    e = corpus.random_expr(random.Random(2), 5, 40, "x")
    ref, labels, used = checks.reference_eval(e)
    lg = unicwd.evaluate(e)
    assert ref.vertices == lg.graph.vertex_set and ref.edges == set(lg.graph.edges)
    assert labels == dict(lg.labels) and len(used) == width(e)


# ---------------------------------------------------------------------------
# spans


def test_self_times_on_a_hand_built_tree():
    # 0 [0, 10] root; 1 [1, 4] and 2 [5, 9] under 0; 3 [2, 3] under 1
    parent = [-1, 0, 0, 1]
    start = [0.0, 1.0, 5.0, 2.0]
    end = [10.0, 4.0, 9.0, 3.0]
    assert spans.self_times(parent, start, end) == [3.0, 2.0, 4.0, 1.0]
    # span 1 charges its self time to span 0; span 3 still counts on its own
    assert spans.self_times(parent, start, end, [1]) == [5.0, 0.0, 4.0, 1.0]
    # a chain of charged spans passes self time up to the first uncharged one
    assert spans.self_times(parent, start, end, [1, 3]) == [6.0, 0.0, 4.0, 0.0]


def test_tracer_sees_calls_between_layers_and_restores_them():
    g, _ = unicwd.random_unigraph(4, 25)
    originals = (unicwd.synthesize, unicwd.graph.Graph.__init__, unicwd.catalog.decompose)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.item_id = 7
        root = tracer.open(spans.ITEM_SPAN)
        unicwd.synthesize(g)
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert (unicwd.synthesize, unicwd.graph.Graph.__init__, unicwd.catalog.decompose) == originals
    names = [tracer.names[i] for i in tracer.name_id]
    synth = names.index("synth.synthesize")
    decomp = names.index("decomp.decompose")
    assert tracer.parent[synth] == root and tracer.parent[decomp] == synth
    assert set(tracer.item) == {7}
    metrics = spans.layer_metrics(tracer, 0.0)
    assert set(metrics) == {name for name, _ in spans.PER_LAYER}
    assert metrics["graph.Graph.calls"] > 0 and metrics["graph.Graph.edges_built"] >= g.m
    assert metrics["kexpr.evaluate.calls_per_item"] >= 1
    assert 0.0 < metrics["trace.coverage_frac"] <= 1.0
    assert metrics["solve.self_s"] == 0.0 and metrics["graph.read_edge_list.calls"] == 0


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(spans.PER_LAYER)
