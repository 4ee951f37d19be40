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
    KExpr,
    Relabel,
    SplittedGraph,
    Union,
    complement,
    compose,
    degree_sequence,
    find_isomorphism,
    random_unigraph,
    synthesize,
)
from unicwd.kexpr import fold_expr, labels_of, vertex_names


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
# DP solvers: the reference that the package's live-label traversal
# (solve._fold_states) is checked against. Labels are compacted in sorted
# order and every state is carried to the root, where the dominating-set
# states with an ``und`` bit are rejected.


def _union(_: Union, parts: list[dict]) -> dict:
    """Product of the children's states: keys OR together, costs add."""
    acc = parts[0]
    for part in parts[1:]:
        merged: dict = {}
        get = merged.get
        for s1, (c1, w1) in acc.items():
            for s2, (c2, w2) in part.items():
                key, cost = s1 | s2, c1 + c2
                cur = get(key)
                if cur is None or cost < cur[0]:
                    merged[key] = (cost, w2 if w1 is None else w1 if w2 is None else (w1, w2))
        acc = merged
    return acc


def _remap(state: dict, f) -> dict:
    """Move every state to ``f(key)``; a key mapped to None is dropped."""
    out: dict = {}
    for key, val in state.items():
        new = f(key)
        if new is not None:
            cur = out.get(new)
            if cur is None or val[0] < cur[0]:
                out[new] = val
    return out


def _fold_states(e: KExpr, intro, join, relabel) -> tuple[dict, int]:
    """The root's states and the width k, folding ``e`` with callbacks on
    label indices 0..k-1: ``intro(label, name)`` gives a leaf's states, and
    ``join(i, j)`` and ``relabel(old, new)`` give a key map for ``_remap``."""
    index = {lab: i for i, lab in enumerate(sorted(labels_of(e)))}
    states = fold_expr(
        e,
        lambda node: intro(index[node.label], node.name),
        _union,
        lambda node, state: _remap(state, join(index[node.i], index[node.j])),
        lambda node, state: (
            state if node.old == node.new
            else _remap(state, relabel(index[node.old], index[node.new]))
        ),
    )
    return states, len(index)


def _best(states: dict, forbidden: int = 0):
    """The first minimum-cost (cost, witness) over the states with no
    ``forbidden`` bit."""
    best = None
    for key, val in states.items():
        if not key & forbidden and (best is None or val[0] < best[0]):
            best = val
    return best


def _flatten(w) -> frozenset[str]:
    names: list[str] = []
    stack = [w]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.extend(x)
        elif x is not None:
            names.append(x)
    return frozenset(names)


def ref_solve_mis(e: KExpr) -> tuple[int, frozenset[str]]:
    """Maximum independent set of the evaluation of ``e``.

    A state is the bitmask of the (compacted) labels the chosen vertices
    occupy: bit l is set when label l holds a chosen vertex. A union ORs
    the masks, a join kills every state holding both joined labels, and a
    relabel moves bit ``old`` onto bit ``new``. The cost of a state is the
    number of vertices left out. Among maximum sets, the one found first in
    the fold's postorder is returned, deterministic per expression.
    """

    def intro(lab: int, name: str) -> dict:
        return {0: (1, None), 1 << lab: (0, name)}

    def join(i: int, j: int):
        both = (1 << i) | (1 << j)
        return lambda key: None if key & both == both else key

    def relabel(old: int, new: int):
        bo, bn = 1 << old, 1 << new
        return lambda key: (key ^ bo) | bn if key & bo else key

    states, _ = _fold_states(e, intro, join, relabel)
    witness = _flatten(_best(states)[1])
    return len(witness), witness


def ref_solve_vc(e: KExpr) -> tuple[int, frozenset[str]]:
    """Minimum vertex cover: the complement of a maximum independent set."""
    size, witness = ref_solve_mis(e)
    names = frozenset(vertex_names(e))
    return len(names) - size, names - witness


def ref_solve_mds(e: KExpr) -> tuple[int, frozenset[str]]:
    """Minimum dominating set via two bits per (compacted) label.

    Bit 2l (``sel``) is set when label l holds a selected vertex, bit 2l+1
    (``und``) when it holds a vertex not yet dominated; a label with neither
    bit carries no information. A union ORs the states; ``Join(i, j)``
    clears ``und(j)`` when ``sel(i)`` is set, and the mirror; a relabel
    moves both bits of ``old`` onto ``new`` with an OR. The final states
    are those with no ``und`` bit. Among minimum sets, the one found first
    in the fold's postorder is returned, deterministic per expression.
    There are up to 4^k states, so ``unicwd solve --problem ds`` refuses
    expressions wider than 8 labels.
    """

    def intro(lab: int, name: str) -> dict:
        return {1 << 2 * lab: (1, name), 2 << 2 * lab: (0, None)}

    def join(i: int, j: int):
        si, ui, sj, uj = 1 << 2 * i, 2 << 2 * i, 1 << 2 * j, 2 << 2 * j

        def f(key: int) -> int:
            if key & si:
                key &= ~uj
            if key & sj:
                key &= ~ui
            return key

        return f

    def relabel(old: int, new: int):
        shift_old, shift_new = 2 * old, 2 * new
        mask = 3 << shift_old
        return lambda key: (key ^ (key & mask)) | ((key & mask) >> shift_old << shift_new)

    states, k = _fold_states(e, intro, join, relabel)
    cost, witness = _best(states, sum(2 << 2 * lab for lab in range(k)))
    return cost, _flatten(witness)


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
    """A random well-formed expression with globally unique vertex names;
    with ``max_label`` 1 a drawn join becomes ``Relabel(1, 1)``."""
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
        if kind == "join" and max_label > 1:
            j = rng.randint(1, max_label - 1)
            if j >= i:
                j += 1
            return Join(i, j, child), used + 1
        return Relabel(i, rng.randint(1, max_label), child), used + 1

    expr, _ = gen(rng.randint(1, max_nodes))
    return expr


def wide_random_expr(rng: random.Random, width: int, leaves: int, prefix: str = "x") -> KExpr:
    """A random expression of exactly ``width`` labels, as the benchmark's
    ``dp-solve`` workload builds them: ``leaves`` vertices, the first
    ``width`` of them labeled 1..width and the rest at random; random pairs
    of subtrees are united, and each union is wrapped in a join of two
    distinct labels (probability 1/2) or a relabel between two (1/5). These
    are heavy inputs for the solvers, unlike most ``random_expr`` outputs."""
    labels = list(range(1, width + 1))
    forest: list[KExpr] = [
        Intro(f"{prefix}{i}", labels[i] if i < width else rng.choice(labels)) for i in range(leaves)
    ]
    while len(forest) > 1:
        node: KExpr = Union(forest.pop(rng.randrange(len(forest))), forest.pop(rng.randrange(len(forest))))
        r = rng.random()
        if r < 0.7 and width > 1:
            i, j = rng.sample(labels, 2)
            node = Join(i, j, node) if r < 0.5 else Relabel(i, j, node)
        forest.append(node)
    return forest[0]


def map_labels(e: KExpr, f) -> KExpr:
    """``e`` with every label l replaced by ``f[l]``."""
    return fold_expr(
        e,
        lambda x: Intro(x.name, f[x.label]),
        lambda _, kids: Union(tuple(kids)),
        lambda x, kid: Join(f[x.i], f[x.j], kid),
        lambda x, kid: Relabel(f[x.old], f[x.new], kid),
    )


def criterion_8_corpus() -> list[tuple[KExpr, Graph]]:
    """Acceptance criterion 8's inputs: the synthesized expressions of 200
    random unigraphs with n <= 18, each with its graph."""
    out = []
    seed = 0
    while len(out) < 200:
        seed += 1
        g, _ = random_unigraph(seed + 40000, 4 + seed % 15)
        if g.n <= 18:
            out.append((synthesize(g)[0], g))
    return out


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
