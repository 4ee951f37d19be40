"""Output checks, run outside the timed region.

The reference evaluator and the edge-list reader here are independent of
the package, so a defect that the package's evaluator and synthesizer
share cannot hide. ``check_*`` functions raise ``CheckFailed``.
"""

from __future__ import annotations

from unicwd import Graph, Intro, Join, Relabel, Union, brute_mds, brute_mis, parse, to_text

BRUTE_MAX_N = 18
MAX_WIDTH = 5


class CheckFailed(Exception):
    """An operation returned a wrong result."""


class RefGraph:
    """Vertex set, edge set (sorted pairs) and adjacency of a known graph."""

    def __init__(self, vertices, edges) -> None:
        self.vertices = frozenset(vertices)
        self.edges = {(u, v) if u <= v else (v, u) for u, v in edges}
        self.adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            self.adj[u].add(v)
            self.adj[v].add(u)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)


def count_nodes(e) -> int:
    count, stack = 0, [e]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, Union):
            stack.extend(node.children)
        elif isinstance(node, (Join, Relabel)):
            stack.append(node.child)
    return count


def reference_eval(e) -> tuple[RefGraph, dict[str, int], set[int]]:
    """(graph, final label per vertex, every label used) of an expression."""
    edges: set[tuple[str, str]] = set()
    names: set[str] = set()
    used: set[int] = set()
    values: list[dict[int, set[str]]] = []
    work = [(e, False)]
    while work:
        node, ready = work.pop()
        if not ready:
            work.append((node, True))
            if isinstance(node, Union):
                work.extend((c, False) for c in node.children)
            elif isinstance(node, (Join, Relabel)):
                work.append((node.child, False))
            continue
        if isinstance(node, Intro):
            if node.name in names:
                raise CheckFailed(f"vertex {node.name} introduced twice")
            names.add(node.name)
            used.add(node.label)
            values.append({node.label: {node.name}})
        elif isinstance(node, Union):
            merged: dict[int, set[str]] = {}
            for _ in node.children:
                for lab, vs in values.pop().items():
                    merged.setdefault(lab, set()).update(vs)
            values.append(merged)
        elif isinstance(node, Join):
            used.update((node.i, node.j))
            cls = values[-1]
            for u in cls.get(node.i, ()):
                for v in cls.get(node.j, ()):
                    edges.add((u, v) if u <= v else (v, u))
        else:
            used.update((node.old, node.new))
            cls = values[-1]
            if node.old != node.new and node.old in cls:
                cls.setdefault(node.new, set()).update(cls.pop(node.old))
    labels = {v: lab for lab, vs in values[0].items() for v in vs}
    return RefGraph(labels, edges), labels, used


def read_edge_list_text(text: str) -> RefGraph:
    """The graph in an edge-list file (header ``n m``, ``u v`` and ``vertex x`` lines)."""
    vertices: set[str] = set()
    edges: list[tuple[str, str]] = []
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    n, m = (int(x) for x in lines[0])
    for tokens in lines[1:]:
        if tokens[0] == "vertex":
            vertices.add(tokens[1])
        else:
            vertices.update(tokens)
            edges.append((tokens[0], tokens[1]))
    g = RefGraph(vertices, edges)
    if (g.n, g.m) != (n, m):
        raise CheckFailed(f"edge list header says n={n} m={m}, body has n={g.n} m={g.m}")
    return g


def check_expr(text: str, expr, g: RefGraph) -> None:
    """Evaluation equals ``g`` edge for edge, width <= 5, every final label
    is 1, and the text round-trips through parse and print."""
    got, labels, used = reference_eval(expr)
    if got.vertices != g.vertices:
        raise CheckFailed("expression vertices differ from the input's")
    if got.edges != g.edges:
        raise CheckFailed(f"expression edges differ from the input's ({len(got.edges ^ g.edges)} differ)")
    if len(used) > MAX_WIDTH:
        raise CheckFailed(f"width {len(used)} exceeds {MAX_WIDTH}")
    if any(lab != 1 for lab in labels.values()):
        raise CheckFailed("a final label is not 1")
    if to_text(parse(text)) != text:
        raise CheckFailed("to_text(parse(t)) != t")


def check_independent(g: RefGraph, value: int, witness) -> None:
    w = set(witness)
    if len(w) != value or not w <= g.vertices:
        raise CheckFailed(f"independent set witness has {len(w)} vertices, value {value}")
    if any(g.adj[v] & w for v in w):
        raise CheckFailed("independent set witness has an edge")


def check_cover(g: RefGraph, value: int, witness, mis_value: int) -> None:
    w = set(witness)
    if len(w) != value or not w <= g.vertices:
        raise CheckFailed(f"vertex cover witness has {len(w)} vertices, value {value}")
    if value != g.n - mis_value:
        raise CheckFailed(f"vc {value} != n - mis = {g.n - mis_value}")
    if any(u not in w and v not in w for u, v in g.edges):
        raise CheckFailed("vertex cover witness misses an edge")


def check_dominating(g: RefGraph, value: int, witness) -> None:
    w = set(witness)
    if len(w) != value or not w <= g.vertices:
        raise CheckFailed(f"dominating set witness has {len(w)} vertices, value {value}")
    if any(v not in w and not g.adj[v] & w for v in g.vertices):
        raise CheckFailed("dominating set witness leaves a vertex undominated")


def check_brute(g: RefGraph, mis_value: int, mds_value: int) -> None:
    """On at most 18 vertices, the DP optima equal the brute-force ones."""
    if g.n > BRUTE_MAX_N:
        return
    h = Graph(g.vertices, g.edges)
    if brute_mis(h) != mis_value:
        raise CheckFailed(f"mis {mis_value} != brute force {brute_mis(h)}")
    if brute_mds(h) != mds_value:
        raise CheckFailed(f"mds {mds_value} != brute force {brute_mds(h)}")
