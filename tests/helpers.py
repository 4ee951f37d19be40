"""Shared builders, reference graph transforms and strategies for the test suite."""

from __future__ import annotations

import random
from itertools import combinations

from hypothesis import strategies as st

from unicwd import (
    VARIANTS,
    Graph,
    Intro,
    Join,
    Relabel,
    SplittedGraph,
    Union,
    complement,
    compose,
    degree_sequence,
    find_isomorphism,
)


def G(vertices, edges=()):
    return Graph(vertices, edges)


def path_graph(*names):
    return Graph(names, list(zip(names, names[1:])))


def cycle_graph(*names):
    edges = list(zip(names, names[1:])) + [(names[-1], names[0])]
    return Graph(names, edges)


def complete_graph(*names):
    return Graph(names, combinations(names, 2))


def star_graph(center, *leaves):
    return Graph((center, *leaves), [(center, leaf) for leaf in leaves])


def matching_graph(*pairs):
    names = [x for pair in pairs for x in pair]
    return Graph(names, list(pairs))


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    names = [f"v{i}" for i in range(1, n + 1)]
    edges = [(a, b) for a, b in combinations(names, 2) if rng.random() < p]
    return Graph(names, edges)


# ---------------------------------------------------------------------------
# graph transforms: the reference that the package's one-pass builders
# (catalog._split_piece, catalog._nonsplit_piece, decomp.recompose) are
# checked against


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Union of vertex and edge sets; vertex name sets must be disjoint."""
    clash = g1.vertex_set & g2.vertex_set
    if clash:
        raise ValueError(f"vertex name collision: {sorted(clash)[0]!r}")
    return Graph(g1.vertices + g2.vertices, list(g1.edges) + list(g2.edges))


def rename(g: Graph, mapping) -> Graph:
    """Relabel vertices through ``mapping`` (must be injective on V(g))."""
    new_names = {v: mapping[v] for v in g.vertices}
    if len(set(new_names.values())) != len(new_names):
        raise ValueError("rename mapping is not injective")
    return Graph(new_names.values(), [(new_names[u], new_names[v]) for u, v in g.edges])


def rename_splitted(s: SplittedGraph, mapping) -> SplittedGraph:
    return SplittedGraph(
        rename(s.graph, mapping),
        frozenset(mapping[v] for v in s.clique_part),
        frozenset(mapping[v] for v in s.independent_part),
    )


def splitted_complement(s: SplittedGraph) -> SplittedGraph:
    """Complement the graph and swap the two parts."""
    return SplittedGraph(complement(s.graph), s.independent_part, s.clique_part)


def splitted_inverse(s: SplittedGraph) -> SplittedGraph:
    """Empty the clique side, fill the independent side, swap the parts.

    Edges between the two parts are unchanged; the old independent part
    becomes the new clique part. This is an involution.
    """
    a, b = s.clique_part, s.independent_part
    edges = [e for e in s.graph.edges if not (e[0] in a and e[1] in a)]
    edges.extend(combinations(sorted(b), 2))
    return SplittedGraph(Graph(s.graph.vertices, edges), b, a)


def apply_variant(t, variant: str):
    """Apply a catalog variant; inverse variants require a splitted graph."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if isinstance(t, SplittedGraph):
        if variant == "identity":
            return t
        if variant == "complement":
            return splitted_complement(t)
        if variant == "inverse":
            return splitted_inverse(t)
        return splitted_complement(splitted_inverse(t))
    if variant == "identity":
        return t
    if variant == "complement":
        return complement(t)
    raise ValueError(f"variant {variant!r} applies only to splitted graphs")


def compose_splitted(s1: SplittedGraph, s2: SplittedGraph) -> SplittedGraph:
    """Composition of two splitted graphs, again a splitted graph."""
    return SplittedGraph(
        compose(s1, s2.graph),
        s1.clique_part | s2.clique_part,
        s1.independent_part | s2.independent_part,
    )


def compose_fold(d) -> Graph:
    """The graph of a decomposition as the fold of ``compose`` from the tail outwards."""
    acc = d.tail if d.tail is not None else Graph([])
    for comp in reversed(d.components):
        acc = compose(comp, acc)
    return acc


def find_induced_p4(g: Graph):
    """Some induced path a-b-c-d on four vertices, or None if P4-free."""
    for e in sorted(g.edges):
        for b, c in (e, (e[1], e[0])):
            nb, nc = g.neighbors(b), g.neighbors(c)
            for a in sorted(nb - nc - {c}):
                for d in sorted(nc - nb - {b}):
                    if a != d and not g.has_edge(a, d):
                        return (a, b, c, d)
    return None


# ---------------------------------------------------------------------------
# every graph up to isomorphism, per vertex count (cached for the session)

_LEVELS: dict[int, list[Graph]] = {1: [Graph(["v1"])]}


def all_graphs_upto_iso(n: int) -> list[Graph]:
    """Representatives of every isomorphism class on exactly n vertices."""
    top = max(_LEVELS)
    for size in range(top + 1, n + 1):
        new_v = f"v{size}"
        buckets: dict[tuple, list[Graph]] = {}
        reps: list[Graph] = []
        for base in _LEVELS[size - 1]:
            prev = list(base.vertices)
            for mask in range(1 << (size - 1)):
                edges = list(base.edges) + [
                    (prev[i], new_v) for i in range(size - 1) if mask >> i & 1
                ]
                g = Graph(prev + [new_v], edges)
                nbr_degs = tuple(
                    sorted(
                        tuple(sorted(g.degree(u) for u in g.neighbors(v)))
                        for v in g.vertices
                    )
                )
                key = (degree_sequence(g), nbr_degs)
                bucket = buckets.setdefault(key, [])
                if not any(find_isomorphism(g, h) for h in bucket):
                    bucket.append(g)
                    reps.append(g)
        _LEVELS[size] = reps
    return _LEVELS[n]


# ---------------------------------------------------------------------------
# expression generators


def random_expr(rng: random.Random, max_nodes: int = 25, max_label: int = 5):
    """A random well-formed expression with globally unique vertex names."""
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"x{counter[0]}"

    def gen(budget: int):
        if budget <= 1:
            return Intro(fresh(), rng.randint(1, max_label)), 1
        kind = rng.choice(("intro", "union", "join", "relabel"))
        if kind == "intro":
            return Intro(fresh(), rng.randint(1, max_label)), 1
        if kind == "union":
            arity = rng.randint(2, min(4, max(2, budget - 1)))
            children = []
            used = 1
            for i in range(arity):
                child, c = gen(max(1, (budget - used) // (arity - i)))
                children.append(child)
                used += c
            return Union(tuple(children)), used
        child, used = gen(budget - 1)
        i = rng.randint(1, max_label)
        if kind == "join":
            j = rng.randint(1, max_label - 1)
            if j >= i:
                j += 1
            return Join(i, j, child), used + 1
        return Relabel(i, rng.randint(1, max_label), child), used + 1

    expr, _ = gen(rng.randint(1, max_nodes))
    return expr


def _uniquify(expr, counter=None):
    if counter is None:
        counter = [0]
    if isinstance(expr, Intro):
        counter[0] += 1
        return Intro(f"x{counter[0]}", expr.label)
    if isinstance(expr, Union):
        return Union(tuple(_uniquify(c, counter) for c in expr.children))
    if isinstance(expr, Join):
        return Join(expr.i, expr.j, _uniquify(expr.child, counter))
    return Relabel(expr.old, expr.new, _uniquify(expr.child, counter))


_labels = st.integers(min_value=1, max_value=5)
_label_pairs = st.tuples(_labels, _labels).filter(lambda t: t[0] != t[1])

_expr_base = st.builds(lambda lab: Intro("x", lab), _labels)
exprs_st = st.recursive(
    _expr_base,
    lambda inner: st.one_of(
        st.builds(lambda cs: Union(tuple(cs)), st.lists(inner, min_size=2, max_size=4)),
        st.builds(lambda ij, c: Join(ij[0], ij[1], c), _label_pairs, inner),
        st.builds(Relabel, _labels, _labels, inner),
    ),
    max_leaves=12,
).map(_uniquify)


@st.composite
def graphs_st(draw, max_n: int = 7, min_n: int = 0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    names = [f"v{i}" for i in range(1, n + 1)]
    pairs = list(combinations(names, 2))
    if pairs:
        chosen = draw(st.sets(st.sampled_from(pairs)))
    else:
        chosen = set()
    return Graph(names, chosen)
