"""Simple immutable graphs over named vertices.

Everything in this package is built on top of this module: a graph is a
sorted tuple of opaque string vertex names plus one frozen neighbour set per
vertex. The neighbour map is the only stored form; the undirected edge set is
built from it afresh each time something reads ``edges``. Vertex identity is
preserved by every transform, which lets the synthesis layer verify its
output by exact equality with its input instead of isomorphism. All values
are immutable after construction and safe to share.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = [
    "Edge",
    "Graph",
    "GraphFormatError",
    "SplittedGraph",
    "complement",
    "degree_sequence",
    "find_isomorphism",
    "induced",
    "is_clique",
    "is_independent",
    "is_isomorphic",
    "is_split_partition",
    "read_edge_list",
    "split_bipartition",
    "splitted_isomorphic",
    "to_edge_list",
]

Edge = tuple[str, str]


def _edge(u: str, v: str) -> Edge:
    return (u, v) if u <= v else (v, u)


class Graph:
    """A finite simple undirected graph.

    Vertices are opaque string names; the file formats take only the names
    that ``_name_error`` accepts (no whitespace, brackets or '#', and not
    ``vertex``), and their writers raise on any other. The neighbour map is
    authoritative: equality compares it, ``m`` is derived from it on first
    use and cached, and ``edges`` (sorted pairs) is a new frozenset built
    from it on every read and never stored, so a long-lived graph holds no
    edge tuples for the garbage collector to walk; read it once per use.
    No self-loops, no duplicate edges; connectivity is not required
    (several catalog graphs are disconnected).
    """

    __slots__ = ("_vertices", "_vset", "_adj", "_m", "_hash")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]] = ()) -> None:
        vs = tuple(sorted(set(vertices)))
        vset = frozenset(vs)
        adj: dict[str, set[str]] = {v: set() for v in vs}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u!r}")
            if u not in vset:
                raise ValueError(f"edge endpoint {u!r} is not a declared vertex")
            if v not in vset:
                raise ValueError(f"edge endpoint {v!r} is not a declared vertex")
            adj[u].add(v)  # the sets drop repeats
            adj[v].add(u)
        self._vertices = vs
        self._vset = vset
        self._adj = {v: frozenset(ns) for v, ns in adj.items()}
        self._m: int | None = None
        self._hash: int | None = None

    @classmethod
    def _from_adjacency(cls, adj: dict[str, frozenset[str]]) -> "Graph":
        """A graph from a symmetric, loop-free neighbour map over its own keys.

        Unchecked: the callers derive the map from other graphs'
        adjacency (``induced``, ``complement``, ``decomp.compose``,
        ``decomp.recompose``) or from an expression (``kexpr.evaluate``).
        """
        g = cls.__new__(cls)
        g._vertices = tuple(sorted(adj))
        g._vset = frozenset(adj)
        g._adj = adj
        g._m = None
        g._hash = None
        return g

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def vertex_set(self) -> frozenset[str]:
        return self._vset

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset((u, v) for u, ns in self._adj.items() for v in ns if u < v)

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        if self._m is None:
            self._m = sum(map(len, self._adj.values())) // 2
        return self._m

    def has_vertex(self, v: str) -> bool:
        return v in self._vset

    def has_edge(self, u: str, v: str) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: str) -> frozenset[str]:
        return self._adj[v]

    def degree(self, v: str) -> int:
        return len(self._adj[v])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._adj.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def complement(g: Graph) -> Graph:
    """Same vertex set; an edge is present iff it is absent in ``g``."""
    vset, adj = g.vertex_set, g._adj
    return Graph._from_adjacency({u: vset - adj[u] - {u} for u in vset})


def induced(g: Graph, vs: Iterable[str]) -> Graph:
    """Subgraph induced by ``vs`` (must all be vertices of ``g``)."""
    keep = set(vs)
    unknown = keep - g.vertex_set
    if unknown:
        raise ValueError(f"unknown vertex {sorted(unknown)[0]!r}")
    adj = g._adj
    return Graph._from_adjacency({u: adj[u] & keep for u in keep})


def degree_sequence(g: Graph) -> tuple[int, ...]:
    """Degree multiset, non-increasing."""
    return tuple(sorted((g.degree(v) for v in g.vertices), reverse=True))


def is_clique(g: Graph, vs: Iterable[str]) -> bool:
    """Every two listed vertices are adjacent (a repeated or unknown one never is)."""
    vl = list(vs)
    if len(vl) < 2:
        return True
    vset = set(vl)
    if len(vset) != len(vl):
        return False
    adj = g._adj
    return all(v in adj and len(vset & adj[v]) == len(vl) - 1 for v in vset)


def is_independent(g: Graph, vs: Iterable[str]) -> bool:
    """No two listed vertices are adjacent (unknown ones have no neighbours)."""
    vset = set(vs)
    adj = g._adj
    return all(vset.isdisjoint(adj[v]) for v in vset if v in adj)


def is_split_partition(g: Graph, a: Iterable[str], b: Iterable[str]) -> bool:
    """True iff (a, b) partitions V(g) with a a clique and b independent."""
    aset, bset = set(a), set(b)
    if aset & bset or (aset | bset) != g.vertex_set:
        return False
    return is_clique(g, aset) and is_independent(g, bset)


@dataclass(frozen=True)
class SplittedGraph:
    """A split graph together with a certified (clique, independent) bipartition.

    Invariants are checked at construction: the two parts partition the
    vertex set, the clique part is pairwise adjacent and the independent
    part pairwise non-adjacent.
    """

    graph: Graph
    clique_part: frozenset[str]
    independent_part: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "clique_part", frozenset(self.clique_part))
        object.__setattr__(self, "independent_part", frozenset(self.independent_part))
        if not is_split_partition(self.graph, self.clique_part, self.independent_part):
            raise ValueError("not a valid split bipartition")

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.graph.vertices

    @property
    def n(self) -> int:
        return self.graph.n

    def __repr__(self) -> str:
        return (
            f"SplittedGraph(n={self.n}, |A|={len(self.clique_part)}, "
            f"|B|={len(self.independent_part)})"
        )


# ---------------------------------------------------------------------------
# isomorphism (small graphs: color refinement + backtracking)


def _refine(
    g1: Graph, g2: Graph, c1: dict[str, int], c2: dict[str, int]
) -> tuple[dict[str, int], dict[str, int]] | None:
    """Jointly refine vertex colors by neighbor-color multisets.

    Returns stabilized colorings, or None when the color class sizes of the
    two graphs diverge (no isomorphism can exist).
    """
    while True:
        sig1 = {
            v: (c1[v], tuple(sorted(Counter(c1[u] for u in g1.neighbors(v)).items())))
            for v in g1.vertices
        }
        sig2 = {
            v: (c2[v], tuple(sorted(Counter(c2[u] for u in g2.neighbors(v)).items())))
            for v in g2.vertices
        }
        palette = {s: i for i, s in enumerate(sorted(set(sig1.values()) | set(sig2.values())))}
        n1 = {v: palette[sig1[v]] for v in g1.vertices}
        n2 = {v: palette[sig2[v]] for v in g2.vertices}
        if Counter(n1.values()) != Counter(n2.values()):
            return None
        # refinement only ever splits classes, so an unchanged class count
        # means the partition is stable
        if len(set(n1.values())) == len(set(c1.values())):
            return n1, n2
        c1, c2 = n1, n2


def find_isomorphism(
    g1: Graph,
    g2: Graph,
    colors1: Mapping[str, int] | None = None,
    colors2: Mapping[str, int] | None = None,
) -> dict[str, str] | None:
    """An edge- and color-preserving bijection g1 -> g2, or None.

    Backtracking with color-refinement pruning; intended for small graphs
    and the highly structured catalog templates.
    """
    if g1.n != g2.n or g1.m != g2.m:
        return None
    c1 = {v: (colors1[v] if colors1 else 0) for v in g1.vertices}
    c2 = {v: (colors2[v] if colors2 else 0) for v in g2.vertices}
    if Counter(c1.values()) != Counter(c2.values()):
        return None
    refined = _refine(g1, g2, c1, c2)
    if refined is None:
        return None
    c1, c2 = refined

    cells2: dict[int, list[str]] = {}
    for v in g2.vertices:
        cells2.setdefault(c2[v], []).append(v)
    order = sorted(g1.vertices, key=lambda v: (len(cells2.get(c1[v], ())), c1[v], v))

    mapping: dict[str, str] = {}
    used: set[str] = set()

    def extend(idx: int) -> bool:
        if idx == len(order):
            return True
        v = order[idx]
        for w in cells2.get(c1[v], ()):
            if w in used:
                continue
            ok = True
            for u, x in mapping.items():
                if g1.has_edge(v, u) != g2.has_edge(w, x):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used.add(w)
                if extend(idx + 1):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    return dict(mapping) if extend(0) else None


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """True iff an edge-preserving bijection between the graphs exists."""
    return find_isomorphism(g1, g2) is not None


def splitted_isomorphic(s1: SplittedGraph, s2: SplittedGraph) -> bool:
    """Isomorphism that maps clique part to clique part and independent to independent."""
    colors1 = {v: (1 if v in s1.clique_part else 2) for v in s1.vertices}
    colors2 = {v: (1 if v in s2.clique_part else 2) for v in s2.vertices}
    return find_isomorphism(s1.graph, s2.graph, colors1, colors2) is not None


# ---------------------------------------------------------------------------
# split bipartitions


def split_bipartition(g: Graph) -> tuple[frozenset[str], frozenset[str]] | None:
    """Some valid (clique, independent) bipartition of ``g``, or None.

    Greedy: scan in non-increasing degree order and grow a maximal clique
    prefix; the leftover must be independent. Cross-checked exhaustively
    against all bipartitions for small n in the test suite.
    """
    order = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
    a: set[str] = set()
    for v in order:
        if a <= g.neighbors(v):
            a.add(v)
    aset = frozenset(a)
    bset = frozenset(g.vertex_set - aset)
    if is_independent(g, bset):
        return aset, bset
    return None


# ---------------------------------------------------------------------------
# edge-list text format


_NAME_BREAKERS = re.compile(r"[\s()#]")


def _name_error(name: str) -> str | None:
    """Why ``name`` cannot be a vertex name in the edge-list and .kx files, or None.

    A name is non-empty, has no whitespace, '(', ')' or '#', and is not the
    edge-list keyword ``vertex``.
    """
    if not name:
        return "empty vertex name"
    if name == "vertex":
        return "'vertex' cannot be a vertex name"
    if _NAME_BREAKERS.search(name):
        return f"vertex name {name!r} contains whitespace, '(', ')' or '#'"
    return None


class GraphFormatError(ValueError):
    """Malformed edge-list text; carries a 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def read_edge_list(text: str) -> Graph:
    """Parse the edge-list format.

    Line 1 is ``n m``; then ``m`` lines ``u v`` (one per undirected edge)
    and optional ``vertex <name>`` lines declaring isolated vertices.
    Lines beginning with ``#`` are comments, blank lines are ignored.
    Vertex names must pass the shared name check (``_name_error``).
    """
    header: tuple[int, int] | None = None
    names: set[str] = set()
    edges: list[tuple[str, str]] = []
    seen: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 2:
                raise GraphFormatError(lineno, "expected header 'n m'")
            try:
                header = (int(tokens[0]), int(tokens[1]))
            except ValueError:
                raise GraphFormatError(lineno, "header counts must be integers") from None
            if header[0] < 0 or header[1] < 0:
                raise GraphFormatError(lineno, "header counts must be non-negative")
            continue
        if tokens[0] == "vertex":
            if len(tokens) != 2:
                raise GraphFormatError(lineno, "expected 'vertex <name>'")
            tokens = tokens[1:]
        elif len(tokens) != 2:
            raise GraphFormatError(lineno, "expected edge 'u v'")
        for name in tokens:
            if name not in names:
                problem = _name_error(name)
                if problem:
                    raise GraphFormatError(lineno, problem)
                names.add(name)
        if len(tokens) == 1:
            continue
        u, v = tokens
        if u == v:
            raise GraphFormatError(lineno, f"self-loop at vertex {u!r}")
        key = _edge(u, v)
        if key in seen:
            raise GraphFormatError(lineno, f"duplicate edge {u} {v}")
        seen.add(key)
        edges.append((u, v))
    if header is None:
        raise GraphFormatError(1, "missing header 'n m'")
    n, m = header
    if len(edges) != m:
        raise GraphFormatError(1, f"header declares {m} edges, found {len(edges)}")
    if len(names) != n:
        raise GraphFormatError(1, f"header declares {n} vertices, found {len(names)}")
    return Graph(names, edges)


def to_edge_list(g: Graph) -> str:
    """Deterministic edge-list text: sorted vertices, sorted edge pairs.

    Raises ValueError for a vertex name the format cannot hold.
    """
    lines = [f"{g.n} {g.m}"]
    for v in g.vertices:
        problem = _name_error(v)
        if problem:
            raise ValueError(problem)
        if g.degree(v) == 0:
            lines.append(f"vertex {v}")
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
