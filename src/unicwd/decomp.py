"""Composition of splitted graphs and the canonical decomposition.

A top split of a graph G is a partition (A, B, R) with A a clique complete
to R, B an independent set with no edges to R, and R nonempty. Peeling
inclusion-minimal top splits repeatedly factors every graph into a chain of
indecomposable splitted components over an indecomposable core.

The top-split search reads the sizes off the degree sequence (Tyshkevich,
"Decomposition of graphical sequences and unigraphs", Discrete Math. 220,
2000). For disjoint A, B with |A| = i, |B| = j and rest R of size m,

    sum_A deg - sum_B deg = 2e(A) + e(A, R) - 2e(B) - e(B, R) <= i(i-1) + i*m,

with equality exactly when (A, B, R) is a top split. The left side is
largest for the i top-degree and j bottom-degree vertices, so a split of
sizes (i, j) exists iff the top-i degree sum minus the bottom-j degree sum
equals i(n-j-1) -- one comparison of prefix sums per size pair -- and then
every choice of tied vertices is one. The candidate for (i, j) is the i
top-degree and j bottom-degree vertices, ties broken by name; for rest size
1 the candidates are the vertices r whose degree i passes for (i, n-1-i),
with A = N(r). Each candidate is still certified edge by edge before it is
accepted.

``decompose`` peels on the input graph itself: it keeps the live vertex set
and the live degrees (a rest vertex loses exactly |A| at each peel) and
builds a graph only for each emitted component and for the final core.
The exhaustive oracle certifies the decomposition at small n.

``recompose`` inverts ``decompose`` and builds each vertex's final
neighbour set once, instead of folding ``compose`` level by level, which
copies every inner neighbour set at each level (O(k*m) over k levels).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .graph import (
    Graph,
    SplittedGraph,
    induced,
    is_clique,
    is_independent,
    split_bipartition,
)

__all__ = [
    "CanonicalDecomposition",
    "TopSplit",
    "compose",
    "decompose",
    "find_top_split",
    "recompose",
    "splitted_decomposable",
]


@dataclass(frozen=True)
class TopSplit:
    a: frozenset[str]
    b: frozenset[str]
    rest: frozenset[str]


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Ordered splitted components, outermost first, plus an optional core.

    The tail, when present, is an indecomposable graph that is either
    nonsplit or the single vertex K1 (the one split graph whose bipartition
    is ambiguous; recording it as a plain graph keeps the decomposition
    unique).
    """

    components: tuple[SplittedGraph, ...]
    tail: Graph | None

    @property
    def k(self) -> int:
        return len(self.components)


def compose(s: SplittedGraph, h: Graph) -> Graph:
    """Join every clique-part vertex of ``s`` to every vertex of ``h``."""
    clash = s.graph.vertex_set & h.vertex_set
    if clash:
        raise ValueError(f"vertex name collision: {sorted(clash)[0]!r}")
    g, a, inner = s.graph, s.clique_part, h.vertex_set
    adj = {v: g.neighbors(v) | inner if v in a else g.neighbors(v) for v in g.vertices}
    adj.update((v, h.neighbors(v) | a) for v in h.vertices)
    return Graph._from_adjacency(adj)


def _degree_sums(degrees: list[int]) -> tuple[list[int], list[int]]:
    """Prefix sums of the degrees taken largest first and smallest first."""
    return [0, *accumulate(sorted(degrees, reverse=True))], [0, *accumulate(sorted(degrees))]


def _split_sizes(top: list[int], bottom: list[int], s: int) -> list[int]:
    """The sizes i = |A| of the top splits with |A| + |B| = s.

    A split of sizes (i, s - i) exists iff the top-i degree sum minus the
    bottom-(s - i) degree sum is i(n - s + i - 1); see the module docstring.
    """
    n = len(top) - 1
    return [i for i in range(s + 1) if top[i] - bottom[s - i] == i * (n - s + i - 1)]


def _valid_top_split(g: Graph, live: frozenset[str], a: set[str], b: set[str]) -> bool:
    rest = live - a - b
    if not rest or not (a or b):
        return False
    for v in a:
        if not rest <= g.neighbors(v):
            return False
    for v in b:
        if not rest.isdisjoint(g.neighbors(v)):
            return False
    return is_clique(g, a) and is_independent(g, b)


def _top_split(g: Graph, live: frozenset[str], deg: dict[str, int]) -> TopSplit | None:
    """``find_top_split`` on the subgraph of ``g`` induced by ``live``.

    ``deg`` holds the degrees within ``live``.
    """
    n = len(live)
    if n < 2:
        return None
    vs = [v for v in g.vertices if v in live]  # name-sorted
    # stable sorts keep equal degrees name-sorted: A and B take the
    # name-sorted picks from the boundary degree pools
    desc = sorted(vs, key=lambda v: -deg[v])
    asc = sorted(vs, key=lambda v: deg[v])
    top, bottom = _degree_sums([deg[v] for v in vs])
    for s in range(1, n):
        sizes = _split_sizes(top, bottom, s)
        candidates: list[tuple[frozenset[str], frozenset[str]]] = []
        if s == n - 1:  # rest size 1: A is the neighbourhood of the rest vertex
            for r in vs:
                if deg[r] in sizes:
                    a = g.neighbors(r) & live
                    b = live - a - {r}
                    if _valid_top_split(g, live, a, b):
                        candidates.append((a, b))
        else:
            for i in sizes:
                a, b = set(desc[:i]), set(asc[: s - i])
                if _valid_top_split(g, live, a, b):
                    candidates.append((frozenset(a), frozenset(b)))
        if candidates:
            a, b = min(candidates, key=lambda ab: tuple(sorted(ab[0] | ab[1])))
            return TopSplit(a, b, live - a - b)
    return None


def find_top_split(g: Graph) -> TopSplit | None:
    """Inclusion-minimal valid top split, or None when ``g`` is indecomposable.

    Ties at the minimal size are broken by the lexicographically smallest
    sorted vertex-name tuple of A u B.
    """
    return _top_split(g, g.vertex_set, {v: g.degree(v) for v in g.vertices})


def decompose(g: Graph) -> CanonicalDecomposition:
    """Peel inclusion-minimal top splits until the core is indecomposable.

    A split core with at least two vertices becomes the last splitted
    component (its bipartition is unique); a single-vertex core and any
    nonsplit core become the tail. Round-trips exactly through
    ``recompose``.
    """
    components: list[SplittedGraph] = []
    live = g.vertex_set
    deg = {v: g.degree(v) for v in g.vertices}
    while len(live) >= 2:
        ts = _top_split(g, live, deg)
        if ts is None:
            break
        components.append(SplittedGraph(induced(g, ts.a | ts.b), ts.a, ts.b))
        live = ts.rest
        for r in live:
            deg[r] -= len(ts.a)
    core = g if len(live) == g.n else induced(g, live)
    tail: Graph | None = None
    if core.n == 0:
        tail = None
    elif core.n == 1:
        tail = core
    else:
        bip = split_bipartition(core)
        if bip is None:
            tail = core
        else:
            components.append(SplittedGraph(core, bip[0], bip[1]))
    return CanonicalDecomposition(tuple(components), tail)


def recompose(d: CanonicalDecomposition) -> Graph:
    """The composition of the components, outermost first, over the tail.

    Equal to the fold of ``compose`` from the tail outwards, but each final
    neighbour set is built once: a vertex keeps its piece's neighbours, a
    clique-part vertex also gains every vertex inside its component, and
    every vertex gains the clique parts of all outer components. Raises
    ValueError on a vertex name that two pieces share.
    """
    seen = set(d.tail.vertices) if d.tail is not None else set()
    inside: list[frozenset[str]] = []  # per component, the vertices inside it
    for comp in reversed(d.components):
        clash = comp.graph.vertex_set & seen
        if clash:
            raise ValueError(f"vertex name collision: {sorted(clash)[0]!r}")
        inside.append(frozenset(seen) if comp.clique_part else frozenset())
        seen |= comp.graph.vertex_set
    inside.reverse()
    adj: dict[str, frozenset[str]] = {}
    outer: frozenset[str] = frozenset()  # the clique parts of the outer components
    for comp, inner in zip(d.components, inside):
        g, a = comp.graph, comp.clique_part
        for v in g.vertices:
            adj[v] = g.neighbors(v).union(outer, inner) if v in a else g.neighbors(v) | outer
        if a:
            outer = outer | a
    if d.tail is not None:
        adj.update((v, d.tail.neighbors(v) | outer) for v in d.tail.vertices)
    return Graph._from_adjacency(adj)


def splitted_decomposable(s: SplittedGraph) -> bool:
    """Whether (S, A, B) is a composition of two nonempty splitted graphs.

    The outer part of any such factorization consists of the top-degree
    clique vertices and the bottom-degree independent vertices, and tied
    vertices are interchangeable (the argument of the module docstring), so
    checking one canonical pick per size pair is exact.
    """
    g = s.graph
    a_sorted = sorted(s.clique_part, key=lambda v: (-g.degree(v), v))
    b_sorted = sorted(s.independent_part, key=lambda v: (g.degree(v), v))
    la, lb = len(a_sorted), len(b_sorted)
    for alpha in range(0, la + 1):
        for beta in range(0, lb + 1):
            if (alpha, beta) == (0, 0) or (alpha, beta) == (la, lb):
                continue
            outer_a = a_sorted[:alpha]
            outer_b = set(b_sorted[:beta])
            rest = (set(a_sorted[alpha:]) | set(b_sorted[beta:]))
            ok = all(rest <= g.neighbors(v) for v in outer_a) and not any(
                g.neighbors(v) & rest for v in outer_b
            )
            if ok:
                return True
    return False
