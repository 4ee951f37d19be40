"""The indecomposable-component catalog behind unigraph recognition.

Split families: K1 (either side), S2 (stars with pairwise-adjacent
centers), S3 (S2 plus an extra independent vertex attached to the small
star centers), S4 (S3 plus an extra clique vertex adjacent to everything
but the extra independent vertex). Nonsplit families: C5, mK2, U2 (a
matching plus a star), U3 (a hub gluing a C4 and m triangles). Every split
component of a canonical decomposition must hit one of the split families
under one of four variants (identity, inverse, complement, inverse of the
complement); a nonsplit core must hit a nonsplit family under identity or
complement. A graph is a unigraph exactly when all pieces match.

Matching a split component builds no graph: each variant is read off the
component's own adjacency (the parts swap for inverse and complement, the
edges between the parts complement for complement and inverse of the
complement). The complement variant of a nonsplit core is inferred on the
complemented core. Every inference is confirmed by comparing the renamed
template's edges with the piece's, without building the template graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Union as TUnion

from .decomp import CanonicalDecomposition, decompose, recompose
from .graph import (
    Graph,
    SplittedGraph,
    _edge,
    complement,
    rename,
    rename_splitted,
    splitted_complement,
    splitted_inverse,
)

__all__ = [
    "C5Spec",
    "ComponentMatch",
    "FamilySpec",
    "K1Spec",
    "MK2Spec",
    "RecognizedDecomposition",
    "S2Spec",
    "S3Spec",
    "S4Spec",
    "U2Spec",
    "U3Spec",
    "VARIANTS",
    "apply_variant",
    "build_template",
    "havel_hakimi",
    "is_unigraph",
    "match_nonsplit_component",
    "match_split_component",
    "random_unigraph",
]

VARIANTS = ("identity", "inverse", "complement", "inverse_complement")
_NONSPLIT_VARIANTS = ("identity", "complement")
# what a variant does to a splitted graph: swap the two parts, and/or
# complement the edges between them (inverse fills the old independent part)
_SWAPS_PARTS = ("inverse", "complement")
_FLIPS_CROSS = ("complement", "inverse_complement")


@dataclass(frozen=True)
class K1Spec:
    """A single vertex; ``side`` records which part of the triple it sits in."""

    side: str  # "clique" | "independent"
    family = "K1"

    def __post_init__(self) -> None:
        if self.side not in ("clique", "independent"):
            raise ValueError("K1 side must be 'clique' or 'independent'")

    def params(self) -> dict:
        return {"side": self.side}


@dataclass(frozen=True)
class S2Spec:
    """Stars K_{1,p_i}, q_i copies each, with all centers made adjacent."""

    pairs: tuple[tuple[int, int], ...]
    family = "S2"

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple((int(p), int(q)) for p, q in self.pairs))
        if not self.pairs:
            raise ValueError("S2 requires t >= 1 star sizes")
        for p, q in self.pairs:
            if p < 1:
                raise ValueError("S2 requires every p_i >= 1")
            if q < 1:
                raise ValueError("S2 requires every q_i >= 1")
        sizes = [p for p, _ in self.pairs]
        if sizes != sorted(sizes, reverse=True) or len(set(sizes)) != len(sizes):
            raise ValueError("S2 star sizes must be strictly decreasing")
        if sum(q for _, q in self.pairs) < 2:
            raise ValueError("S2 requires sum of q_i >= 2")

    def star_sizes(self) -> list[int]:
        return [p for p, q in self.pairs for _ in range(q)]

    def params(self) -> dict:
        return {"pairs": [list(pq) for pq in self.pairs]}


@dataclass(frozen=True)
class S3Spec:
    """S2(p, q1; p+1, q2) plus an independent vertex v adjacent to the p-star centers."""

    p: int
    q1: int
    q2: int
    family = "S3"

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("S3 requires p >= 1")
        if self.q1 < 2:
            raise ValueError("S3 requires q1 >= 2")
        if self.q2 < 1:
            raise ValueError("S3 requires q2 >= 1")

    def params(self) -> dict:
        return {"p": self.p, "q1": self.q1, "q2": self.q2}


@dataclass(frozen=True)
class S4Spec:
    """S3(p, 2; q) plus a clique vertex u adjacent to everything except v."""

    p: int
    q: int
    family = "S4"

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("S4 requires p >= 1")
        if self.q < 1:
            raise ValueError("S4 requires q >= 1")

    def params(self) -> dict:
        return {"p": self.p, "q": self.q}


@dataclass(frozen=True)
class C5Spec:
    family = "C5"

    def params(self) -> dict:
        return {}


@dataclass(frozen=True)
class MK2Spec:
    """Disjoint union of m >= 2 edges."""

    m: int
    family = "MK2"

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("MK2 requires m >= 2")

    def params(self) -> dict:
        return {"m": self.m}


@dataclass(frozen=True)
class U2Spec:
    """Disjoint union of m >= 1 edges and a star K_{1,s} with s >= 2."""

    m: int
    s: int
    family = "U2"

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("U2 requires m >= 1")
        if self.s < 2:
            raise ValueError("U2 requires s >= 2")

    def params(self) -> dict:
        return {"m": self.m, "s": self.s}


@dataclass(frozen=True)
class U3Spec:
    """C4 and m >= 1 triangles glued at a single shared hub vertex."""

    m: int
    family = "U3"

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("U3 requires m >= 1")

    def params(self) -> dict:
        return {"m": self.m}


FamilySpec = TUnion[K1Spec, S2Spec, S3Spec, S4Spec, C5Spec, MK2Spec, U2Spec, U3Spec]


@dataclass(frozen=True)
class ComponentMatch:
    """A catalog identification of one component.

    ``correspondence`` maps template vertex names to input vertex names;
    applying the variant to the built template and renaming through it
    reproduces the component exactly.
    """

    spec: FamilySpec
    variant: str
    correspondence: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "correspondence", dict(self.correspondence))


@dataclass(frozen=True)
class RecognizedDecomposition:
    decomposition: CanonicalDecomposition
    component_matches: tuple[ComponentMatch, ...]
    tail_match: ComponentMatch | None


# ---------------------------------------------------------------------------
# templates


_Parts = tuple[list[str], list[str], list[tuple[str, str]]]


def _s2_parts(sizes: list[int]) -> _Parts:
    centers = [f"c{i}" for i in range(1, len(sizes) + 1)]
    cross = [(c, f"{c}l{j}") for c, p in zip(centers, sizes) for j in range(1, p + 1)]
    return centers, [leaf for _, leaf in cross], cross


def _s3_parts(p: int, q1: int, q2: int) -> _Parts:
    # star order matches S2: the larger (p+1)-stars come first
    centers, leaves, cross = _s2_parts([p + 1] * q2 + [p] * q1)
    cross += [("v", c) for c in centers[q2:]]
    return centers, leaves + ["v"], cross


def _s4_parts(p: int, q: int) -> _Parts:
    centers, leaves, cross = _s3_parts(p, 2, q)
    cross += [("u", b) for b in leaves if b != "v"]
    return centers + ["u"], leaves, cross


def _split_template(spec: FamilySpec) -> _Parts:
    """Clique part, independent part and cross edges of a split family's template."""
    if isinstance(spec, K1Spec):
        return (["a"], [], []) if spec.side == "clique" else ([], ["a"], [])
    if isinstance(spec, S2Spec):
        return _s2_parts(spec.star_sizes())
    if isinstance(spec, S3Spec):
        return _s3_parts(spec.p, spec.q1, spec.q2)
    return _s4_parts(spec.p, spec.q)


def _mk2_edges(m: int) -> list[tuple[str, str]]:
    return [(f"a{i}", f"b{i}") for i in range(1, m + 1)]


def _nonsplit_template(spec: FamilySpec) -> tuple[list[str], list[tuple[str, str]]]:
    """Vertex names and edges of a nonsplit family's template."""
    if isinstance(spec, C5Spec):
        names = [f"x{i}" for i in range(1, 6)]
        return names, [(names[i], names[(i + 1) % 5]) for i in range(5)]
    if isinstance(spec, MK2Spec):
        edges = _mk2_edges(spec.m)
        return [x for e in edges for x in e], edges
    if isinstance(spec, U2Spec):
        edges = _mk2_edges(spec.m)
        star_leaves = [f"s{j}" for j in range(1, spec.s + 1)]
        names = [x for e in edges for x in e] + ["c", *star_leaves]
        return names, edges + [("c", leaf) for leaf in star_leaves]
    if isinstance(spec, U3Spec):
        names = ["h", "w1", "w2", "w3"]
        edges = [("h", "w1"), ("w1", "w2"), ("w2", "w3"), ("h", "w3")]
        for a, b in _mk2_edges(spec.m):
            names += [a, b]
            edges += [(a, b), ("h", a), ("h", b)]
        return names, edges
    raise TypeError(f"unknown family spec {spec!r}")


def build_template(spec: FamilySpec) -> TUnion[Graph, SplittedGraph]:
    """The catalog graph for ``spec`` with fresh deterministic vertex names.

    Split families return a SplittedGraph (centers / clique side in the
    clique part); nonsplit families return a plain Graph.
    """
    if isinstance(spec, (K1Spec, S2Spec, S3Spec, S4Spec)):
        clique, indep, cross = _split_template(spec)
        g = Graph(clique + indep, cross + list(combinations(clique, 2)))
        return SplittedGraph(g, frozenset(clique), frozenset(indep))
    return Graph(*_nonsplit_template(spec))


def apply_variant(t: TUnion[Graph, SplittedGraph], variant: str):
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


# ---------------------------------------------------------------------------
# split-component matching


@dataclass(frozen=True)
class _SplitView:
    """A splitted component as one variant sees it, read off its own adjacency.

    The parts are the variant's; with ``flip`` the cross neighbours of a
    vertex are its non-neighbours in the other part.
    """

    graph: Graph
    clique_part: frozenset[str]
    independent_part: frozenset[str]
    flip: bool

    def cross(self, x: str) -> frozenset[str]:
        other = self.independent_part if x in self.clique_part else self.clique_part
        nb = self.graph.neighbors(x)
        return other - nb if self.flip else other & nb

    def without(self, x: str) -> "_SplitView":
        return _SplitView(self.graph, self.clique_part - {x}, self.independent_part - {x}, self.flip)


def _split_view(s: SplittedGraph, variant: str) -> _SplitView:
    a, b = s.clique_part, s.independent_part
    if variant in _SWAPS_PARTS:
        a, b = b, a
    return _SplitView(s.graph, a, b, variant in _FLIPS_CROSS)


def _infer_k1(w: _SplitView) -> tuple[K1Spec, dict[str, str]] | None:
    if len(w.clique_part) + len(w.independent_part) != 1:
        return None
    if w.clique_part:
        return K1Spec("clique"), {"a": next(iter(w.clique_part))}
    return K1Spec("independent"), {"a": next(iter(w.independent_part))}


def _star_structure(w: _SplitView) -> dict[str, list[str]] | None:
    """Leaves per center when every independent vertex has exactly one neighbor."""
    leaves_of: dict[str, list[str]] = {c: [] for c in w.clique_part}
    for b in sorted(w.independent_part):
        nb = w.cross(b)
        if len(nb) != 1:
            return None
        leaves_of[next(iter(nb))].append(b)
    return leaves_of


def _pairs_from_sizes(sizes: list[int]) -> tuple[tuple[int, int], ...]:
    pairs: list[tuple[int, int]] = []
    for p in sorted(set(sizes), reverse=True):
        pairs.append((p, sizes.count(p)))
    return tuple(pairs)


def _star_correspondence(
    centers_in_order: list[str], leaves_of: Mapping[str, list[str]]
) -> dict[str, str]:
    corr: dict[str, str] = {}
    for i, c in enumerate(centers_in_order, start=1):
        corr[f"c{i}"] = c
        for j, leaf in enumerate(sorted(leaves_of[c]), start=1):
            corr[f"c{i}l{j}"] = leaf
    return corr


def _infer_s2(w: _SplitView) -> tuple[S2Spec, dict[str, str]] | None:
    if len(w.clique_part) < 2:
        return None
    leaves_of = _star_structure(w)
    if leaves_of is None or any(not ls for ls in leaves_of.values()):
        return None
    centers = sorted(w.clique_part, key=lambda c: (-len(leaves_of[c]), c))
    sizes = [len(leaves_of[c]) for c in centers]
    try:
        spec = S2Spec(_pairs_from_sizes(sizes))
    except ValueError:
        return None
    return spec, _star_correspondence(centers, leaves_of)


def _infer_s3(w: _SplitView) -> tuple[S3Spec, dict[str, str]] | None:
    special = [b for b in w.independent_part if len(w.cross(b)) >= 2]
    if len(special) != 1:
        return None
    v = special[0]
    leaves_of = _star_structure(w.without(v))
    if leaves_of is None or any(not ls for ls in leaves_of.values()):
        return None
    attached = sorted(w.cross(v))
    others = sorted(w.clique_part - set(attached))
    if not attached or not others:
        return None
    p_sizes = {len(leaves_of[c]) for c in attached}
    big_sizes = {len(leaves_of[c]) for c in others}
    if len(p_sizes) != 1 or len(big_sizes) != 1:
        return None
    p = p_sizes.pop()
    if big_sizes.pop() != p + 1:
        return None
    try:
        spec = S3Spec(p=p, q1=len(attached), q2=len(others))
    except ValueError:
        return None
    corr = _star_correspondence(others + attached, leaves_of)
    corr["v"] = v
    return spec, corr


def _infer_s4(w: _SplitView) -> tuple[S4Spec, dict[str, str]] | None:
    nb = len(w.independent_part)
    hubs = [a for a in w.clique_part if len(w.cross(a)) == nb - 1]
    if len(hubs) != 1 or nb < 2:
        return None
    u = hubs[0]
    missed = w.independent_part - w.cross(u)
    if len(missed) != 1:
        return None
    inner = _infer_s3(w.without(u))
    if inner is None:
        return None
    s3spec, corr = inner
    if s3spec.q1 != 2 or corr["v"] != next(iter(missed)):
        return None
    try:
        spec = S4Spec(p=s3spec.p, q=s3spec.q2)
    except ValueError:
        return None
    corr = dict(corr)
    corr["u"] = u
    return spec, corr


def _confirms_split(s: SplittedGraph, spec: FamilySpec, variant: str, corr: Mapping[str, str]) -> bool:
    """``rename_splitted(apply_variant(build_template(spec), variant), corr) == s``,
    decided on the edges between the parts.

    Both sides are certified splitted graphs, so once ``corr`` maps the
    variant's clique part onto ``s.clique_part`` and its independent part
    onto ``s.independent_part`` (a bijection onto V(s)), they are equal
    exactly when their cross edges are.
    """
    clique, indep, cross = _split_template(spec)
    if variant in _SWAPS_PARTS:
        clique, indep = indep, clique
    a = {corr.get(t) for t in clique}
    b = {corr.get(t) for t in indep}
    if len(a) != len(clique) or len(b) != len(indep):
        return False
    if a != s.clique_part or b != s.independent_part:
        return False
    renamed = {_edge(corr[x], corr[y]) for x, y in cross}
    target = {_edge(x, y) for y in b for x in s.graph.neighbors(y)}
    if variant in _FLIPS_CROSS:
        return len(renamed) + len(target) == len(a) * len(b) and renamed.isdisjoint(target)
    return renamed == target


def match_split_component(s: SplittedGraph) -> ComponentMatch | None:
    """Identify an indecomposable splitted component in the catalog.

    Variants are tried in a fixed order (identity, inverse, complement,
    inverse of complement) and families in the order K1, S2, S3, S4, so
    self-symmetric pieces match deterministically. Each variant is read off
    the component's adjacency, and every inference is confirmed by
    comparing the renamed template's edges with the component's before it
    is returned.
    """
    for variant in VARIANTS:
        w = _split_view(s, variant)
        for infer in (_infer_k1, _infer_s2, _infer_s3, _infer_s4):
            hit = infer(w)
            if hit is None:
                continue
            spec, corr = hit
            if _confirms_split(s, spec, variant, corr):
                return ComponentMatch(spec, variant, corr)
    return None


# ---------------------------------------------------------------------------
# nonsplit matching


def _infer_c5(g: Graph) -> tuple[C5Spec, dict[str, str]] | None:
    if g.n != 5 or g.m != 5 or any(g.degree(v) != 2 for v in g.vertices):
        return None
    start = g.vertices[0]
    order = [start, min(g.neighbors(start))]
    while len(order) < 5:
        nxt = [w for w in g.neighbors(order[-1]) if w != order[-2]]
        if len(nxt) != 1:
            return None
        order.append(nxt[0])
    if len(set(order)) != 5:
        return None
    return C5Spec(), {f"x{i}": v for i, v in enumerate(order, start=1)}


def _sorted_matching_pairs(g: Graph, vs: list[str]) -> list[tuple[str, str]] | None:
    pairs = []
    seen: set[str] = set()
    vset = set(vs)
    for v in sorted(vs):
        if v in seen:
            continue
        partners = list(g.neighbors(v) & vset)
        if len(partners) != 1:
            return None
        seen |= {v, partners[0]}
        pairs.append((v, partners[0]))
    return pairs


def _infer_mk2(g: Graph) -> tuple[MK2Spec, dict[str, str]] | None:
    if g.n % 2 or any(g.degree(v) != 1 for v in g.vertices):
        return None
    try:
        spec = MK2Spec(g.n // 2)
    except ValueError:
        return None
    pairs = _sorted_matching_pairs(g, list(g.vertices))
    if pairs is None:
        return None
    corr: dict[str, str] = {}
    for i, (a, b) in enumerate(pairs, start=1):
        corr[f"a{i}"], corr[f"b{i}"] = a, b
    return spec, corr


def _infer_u2(g: Graph) -> tuple[U2Spec, dict[str, str]] | None:
    big = [v for v in g.vertices if g.degree(v) >= 2]
    if len(big) != 1:
        return None
    c = big[0]
    if any(g.degree(v) != 1 for v in g.vertices if v != c):
        return None
    leaves = sorted(g.neighbors(c))
    others = [v for v in g.vertices if v != c and v not in g.neighbors(c)]
    try:
        spec = U2Spec(m=len(others) // 2, s=len(leaves))
    except ValueError:
        return None
    if len(others) % 2:
        return None
    pairs = _sorted_matching_pairs(g, others)
    if pairs is None:
        return None
    corr = {"c": c}
    for j, leaf in enumerate(leaves, start=1):
        corr[f"s{j}"] = leaf
    for i, (a, b) in enumerate(pairs, start=1):
        corr[f"a{i}"], corr[f"b{i}"] = a, b
    return spec, corr


def _infer_u3(g: Graph) -> tuple[U3Spec, dict[str, str]] | None:
    if g.n < 6 or g.n % 2:
        return None
    m = (g.n - 4) // 2
    hubs = [v for v in g.vertices if g.degree(v) == 2 * m + 2]
    if len(hubs) != 1 or any(g.degree(v) != 2 for v in g.vertices if v != hubs[0]):
        return None
    h = hubs[0]
    non_neighbors = g.vertex_set - g.neighbors(h) - {h}
    if len(non_neighbors) != 1:
        return None
    w2 = next(iter(non_neighbors))
    w13 = sorted(g.neighbors(w2))
    if len(w13) != 2:
        return None
    pairs_vs = [v for v in g.vertices if v not in (h, w2, *w13)]
    pairs = _sorted_matching_pairs(g, pairs_vs)
    if pairs is None:
        return None
    corr = {"h": h, "w1": w13[0], "w2": w2, "w3": w13[1]}
    for i, (a, b) in enumerate(pairs, start=1):
        corr[f"a{i}"], corr[f"b{i}"] = a, b
    return U3Spec(m), corr


def _confirms_nonsplit(g: Graph, spec: FamilySpec, variant: str, corr: Mapping[str, str]) -> bool:
    """``rename(apply_variant(build_template(spec), variant), corr) == g``,
    decided on the template's edges: all of them in ``g`` with ``g.m`` of
    them for identity, and none of them in ``g`` with the complementary
    count for complement."""
    names, edges = _nonsplit_template(spec)
    image = {corr.get(t) for t in names}
    if len(image) != len(names) or image != g.vertex_set:
        return False
    renamed = {_edge(corr[x], corr[y]) for x, y in edges}
    if variant == "complement":
        return len(renamed) + g.m == g.n * (g.n - 1) // 2 and not any(
            g.has_edge(u, v) for u, v in renamed
        )
    return len(renamed) == g.m and all(g.has_edge(u, v) for u, v in renamed)


def match_nonsplit_component(g: Graph) -> ComponentMatch | None:
    """Identify an indecomposable nonsplit core in the catalog.

    Every inference is confirmed by comparing the renamed template's edges
    with the core's before it is returned.
    """
    for variant in _NONSPLIT_VARIANTS:
        w = g if variant == "identity" else complement(g)
        for infer in (_infer_c5, _infer_mk2, _infer_u2, _infer_u3):
            hit = infer(w)
            if hit is None:
                continue
            spec, corr = hit
            if _confirms_nonsplit(g, spec, variant, corr):
                return ComponentMatch(spec, variant, corr)
    return None


# ---------------------------------------------------------------------------
# recognition


def _recognize(
    g: Graph,
) -> tuple[CanonicalDecomposition, tuple[ComponentMatch, ...] | None, ComponentMatch | None, str | None]:
    """Decompose and match every piece; on failure, report which piece."""
    d = decompose(g)
    matches: list[ComponentMatch] = []
    for idx, comp in enumerate(d.components, start=1):
        m = match_split_component(comp)
        if m is None:
            return d, None, None, f"split component {idx} matches no catalog family"
        matches.append(m)
    tail_match: ComponentMatch | None = None
    if d.tail is not None:
        if d.tail.n == 1:
            # the one-vertex graph is trivially degree-determined
            tail_match = ComponentMatch(K1Spec("clique"), "identity", {"a": d.tail.vertices[0]})
        else:
            tail_match = match_nonsplit_component(d.tail)
            if tail_match is None:
                return d, tuple(matches), None, "tail matches no catalog family"
    return d, tuple(matches), tail_match, None


def is_unigraph(g: Graph) -> RecognizedDecomposition | None:
    """The recognized decomposition when ``g`` is a unigraph, else None."""
    d, matches, tail_match, failure = _recognize(g)
    if failure is not None:
        return None
    assert matches is not None
    return RecognizedDecomposition(d, matches, tail_match)


# ---------------------------------------------------------------------------
# generation


def havel_hakimi(seq: tuple[int, ...] | list[int]) -> Graph | None:
    """A deterministic realization of a degree sequence, or None if not graphic.

    Highest-degree-first greedy; vertices are named v1..vn in the order of
    the non-increasing sequence.
    """
    degs = sorted((int(d) for d in seq), reverse=True)
    if any(d < 0 for d in degs) or sum(degs) % 2:
        return None
    n = len(degs)
    names = [f"v{i}" for i in range(1, n + 1)]
    residual = dict(zip(names, degs))
    edges: list[tuple[str, str]] = []
    for _ in range(n):
        v = max(names, key=lambda x: (residual[x], x))
        d = residual[v]
        if d == 0:
            break
        partners = sorted(
            (w for w in names if w != v and residual[w] > 0),
            key=lambda x: (-residual[x], x),
        )
        if len(partners) < d:
            return None
        residual[v] = 0
        for w in partners[:d]:
            residual[w] -= 1
            edges.append((v, w))
    if any(residual[w] for w in names):
        return None
    return Graph(names, edges)


_MIN_SIZE = {"K1": 1, "S2": 4, "S3": 8, "S4": 9}


def _sample_split_spec(rng: random.Random, budget: int) -> FamilySpec:
    families = [f for f, lo in _MIN_SIZE.items() if lo <= budget]
    weights = {"K1": 4, "S2": 5, "S3": 2, "S4": 2}
    family = rng.choices(families, weights=[weights[f] for f in families])[0]
    if family == "K1":
        return K1Spec(rng.choice(("clique", "independent")))
    if family == "S2":
        greedy = rng.random() < 0.3  # sometimes spend the whole budget on one piece
        l = rng.randint(2, max(2, budget // 2)) if greedy else rng.randint(2, min(6, budget // 2))
        leaf_budget = budget - l
        sizes = []
        for i in range(l):
            hi = leaf_budget - (l - 1 - i)
            sizes.append(rng.randint(1, max(1, hi if i == l - 1 else min(hi, 1 + leaf_budget // l))))
            leaf_budget -= sizes[-1]
        return S2Spec(_pairs_from_sizes(sizes))
    if family == "S3":
        p = rng.randint(1, max(1, (budget - 5) // 3))
        q1 = rng.randint(2, max(2, (budget - 1 - (p + 2)) // (p + 1)))
        q2 = rng.randint(1, max(1, (budget - 1 - q1 * (p + 1)) // (p + 2)))
        return S3Spec(p=p, q1=q1, q2=q2)
    p = rng.randint(1, max(1, (budget - 6) // 3))
    q = rng.randint(1, max(1, (budget - 2 - 2 * (p + 1)) // (p + 2)))
    return S4Spec(p=p, q=q)


def _spec_size(spec: FamilySpec) -> int:
    t = build_template(spec)
    return t.n if isinstance(t, Graph) else t.graph.n


def _sample_tail_spec(rng: random.Random, budget: int) -> FamilySpec | None:
    options: list[FamilySpec] = []
    if budget >= 5:
        options.append(C5Spec())
    if budget >= 4:
        options.append(MK2Spec(rng.randint(2, budget // 2)))
    if budget >= 5:
        options.append(U2Spec(m=rng.randint(1, max(1, (budget - 3) // 2)), s=rng.randint(2, max(2, budget - 3))))
    if budget >= 6:
        options.append(U3Spec(rng.randint(1, (budget - 4) // 2)))
    if not options:
        return None
    spec = rng.choice(options)
    if isinstance(spec, U2Spec) and 2 * spec.m + spec.s + 1 > budget:
        spec = U2Spec(m=1, s=min(max(2, budget - 3), spec.s))
    return spec


def random_unigraph(seed: int, size_budget: int) -> tuple[Graph, RecognizedDecomposition]:
    """Sample a unigraph by composing random catalog pieces.

    Deterministic per seed. The returned recognized decomposition is the
    ground truth used to build the graph.
    """
    if size_budget < 1:
        raise ValueError("size budget must be >= 1")
    rng = random.Random(seed)
    remaining = size_budget

    tail_spec: FamilySpec | None = None
    tail_variant = "identity"
    if remaining >= 4 and rng.random() < 0.55:
        tail_spec = _sample_tail_spec(rng, remaining)
        if tail_spec is not None:
            tail_variant = rng.choice(_NONSPLIT_VARIANTS)
            remaining -= _spec_size(tail_spec)

    comp_specs: list[tuple[FamilySpec, str]] = []
    while remaining >= 1 and (rng.random() < 0.75 or (not comp_specs and tail_spec is None)):
        spec = _sample_split_spec(rng, remaining)
        variant = rng.choice(VARIANTS) if not isinstance(spec, K1Spec) else "identity"
        comp_specs.append((spec, variant))
        remaining -= _spec_size(spec)

    # a terminal K1 component with no tail is recorded as the K1 tail,
    # matching what decompose produces for that graph
    tail_graph: Graph | None = None
    tail_match: ComponentMatch | None = None
    if tail_spec is None and comp_specs and isinstance(comp_specs[-1][0], K1Spec):
        comp_specs.pop()
        tail_graph = Graph(["t_a"])
        tail_match = ComponentMatch(K1Spec("clique"), "identity", {"a": "t_a"})
    elif tail_spec is not None:
        template = build_template(tail_spec)
        corr = {t: f"t_{t}" for t in template.vertices}
        tail_graph = rename(apply_variant(template, tail_variant), corr)
        tail_match = ComponentMatch(tail_spec, tail_variant, corr)

    components: list[SplittedGraph] = []
    matches: list[ComponentMatch] = []
    for idx, (spec, variant) in enumerate(comp_specs):
        template = build_template(spec)
        corr = {t: f"g{idx}_{t}" for t in template.graph.vertices}
        comp = rename_splitted(apply_variant(template, variant), corr)
        components.append(comp)
        matches.append(ComponentMatch(spec, variant, corr))

    decomposition = CanonicalDecomposition(tuple(components), tail_graph)
    graph = recompose(decomposition)
    return graph, RecognizedDecomposition(decomposition, tuple(matches), tail_match)
