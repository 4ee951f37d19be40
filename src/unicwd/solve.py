"""Dynamic programming on expression trees, plus brute-force oracles.

The solvers exploit that same-label vertices are interchangeable for all
future operations: maximum independent set tracks which labels the chosen
set occupies, minimum dominating set tracks a (has-selected,
has-undominated) flag pair per label, each coded as bits of one integer.
Both are exponential only in the number of labels and linear in the size
of the expression. One traversal compacts the labels to 0..k-1 in order
of first appearance and carries down, per node occurrence, the labels
that some ancestor join still touches (``live``): a ``Join(i, j)`` child
gets ``live`` plus i and j, a ``Relabel(old, new)`` child gets ``live``
without ``old``, plus ``old`` when ``new`` is live, and union children
inherit ``live``. A vertex whose label is not live gains no edge up to the
root, so at each leaf and join independent set forgets the labels outside
``live`` (merging states) and dominating set drops every state that
leaves such a vertex undominated. A tie keeps the optimum found first in
the traversal's postorder. The dominating-set output, value and witness,
is the one the DP gives when it carries every state to the root; the
independent-set witness can differ from that one only among sets of the
same size, since merged states keep the first of equal costs. At width 8,
on 30 random 60-leaf expressions (Python 3.11, one core of a 2-core x86
machine), ``solve_mds`` takes a median 1.3 ms (0.6-13 ms), against 0.9 s
(0.2-4.4 s) when every state was carried to the root.

The oracles certify the rest of the package at desk scale: exact
clique-width decision by reachability over label-partition states,
unigraph decision by enumerating all realizations of a degree sequence,
and exhaustive enumeration of canonical decompositions.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import combinations

from .decomp import CanonicalDecomposition, splitted_decomposable
from .graph import (
    Graph,
    SplittedGraph,
    induced,
    is_clique,
    is_independent,
    is_isomorphic,
    splitted_isomorphic,
)
from .kexpr import Intro, Join, KExpr, Union, vertex_names

__all__ = [
    "SizeGuardError",
    "brute_mds",
    "brute_mis",
    "decompositions_equivalent",
    "enumerate_decompositions",
    "oracle_cwd_leq",
    "oracle_unigraph",
    "solve_mds",
    "solve_mis",
    "solve_vc",
]

_ENV_MAX_N = "UNICWD_MAX_ORACLE_N"


class SizeGuardError(RuntimeError):
    def __init__(self, what: str, n: int, limit: int, hint: str = f"set {_ENV_MAX_N} to raise it") -> None:
        super().__init__(f"{what}: size {n} exceeds the guard {limit} ({hint})")


def _guard(what: str, n: int, max_n: int | None, default: int) -> None:
    if max_n is None:
        env = os.environ.get(_ENV_MAX_N)
        max_n = int(env) if env else default
    if n > max_n:
        raise SizeGuardError(what, n, max_n)


# ---------------------------------------------------------------------------
# the DP solvers
#
# A state is a small int over the compacted labels. Every state maps to
# (cost, witness) with the cost minimized. The witness is a cons cell: None,
# a vertex name, or a pair of two child witnesses, so a union links two
# witnesses in O(1) and only the winner is flattened, at the root. An entry
# is replaced only on a strict improvement, so a tie keeps the one found
# first.


def _union(parts: list[dict]) -> dict:
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


def _fold_states(e: KExpr, intro, join, relabel) -> dict:
    """The root's states, folding ``e`` with callbacks on label indices:
    ``intro(label, name, dead)`` gives a leaf's states, and
    ``join(i, j, dead)`` and ``relabel(old, new)`` give a key map for
    ``_remap``. ``dead`` is the bitmask of the labels met so far that are not
    live at the node. A relabel's output needs no ``dead``: a label its
    child holds live is dead above it only when it is ``old``, whose bits
    the relabel moves away."""
    index: dict[int, int] = {}
    at = index.setdefault
    # (node, live, None) to descend into; (node, live, args) once its
    # children are done, args being a union's children or a join's or
    # relabel's label indices
    work: list[tuple] = [(e, 0, None)]
    values: list[dict] = []
    while work:
        node, live, args = work.pop()
        if args is not None:
            if isinstance(node, Union):
                k = len(args)
                parts = values[-k:]
                del values[-k:]
                values.append(_union(parts))
            elif isinstance(node, Join):
                dead = ((1 << len(index)) - 1) & ~live
                values.append(_remap(values.pop(), join(*args, dead)))
            else:
                values.append(_remap(values.pop(), relabel(*args)))
        elif isinstance(node, Intro):
            lab = at(node.label, len(index))
            values.append(intro(lab, node.name, ((1 << len(index)) - 1) & ~live))
        elif isinstance(node, Union):
            work.append((node, live, node.children))
            work.extend((child, live, None) for child in reversed(node.children))
        elif isinstance(node, Join):
            i, j = at(node.i, len(index)), at(node.j, len(index))
            work.append((node, live, (i, j)))
            work.append((node.child, live | 1 << i | 1 << j, None))
        else:
            old, new = at(node.old, len(index)), at(node.new, len(index))
            if old != new:
                work.append((node, live, (old, new)))
                live = live & ~(1 << old) | (live >> new & 1) << old
            work.append((node.child, live, None))
    return values[0]


def _best(states: dict):
    """The first minimum-cost (cost, witness)."""
    best = None
    for val in states.values():
        if best is None or val[0] < best[0]:
            best = val
    return best


def _unds(labels: int) -> int:
    """The ``und`` bits (2l+1) of the labels l in the bitmask ``labels``."""
    out = 0
    while labels:
        low = labels & -labels
        out |= low * low << 1
        labels ^= low
    return out


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


def solve_mis(e: KExpr) -> tuple[int, frozenset[str]]:
    """Maximum independent set of the evaluation of ``e``.

    A state is the bitmask of the (compacted) labels the chosen vertices
    occupy: bit l is set when label l holds a chosen vertex. A union ORs
    the masks, a join kills every state holding both joined labels, and a
    relabel moves bit ``old`` onto bit ``new``. A leaf and a join clear the
    bits of the labels no ancestor join touches, which merges states: such
    a vertex can no longer conflict. The cost of a state is the number of
    vertices left out. Among maximum sets, the one found first in the
    traversal's postorder is kept, deterministic per expression.
    """

    def intro(lab: int, name: str, dead: int) -> dict:
        if dead >> lab & 1:
            return {0: (0, name)}
        return {0: (1, None), 1 << lab: (0, name)}

    def join(i: int, j: int, dead: int):
        both, keep = (1 << i) | (1 << j), ~dead
        return lambda key: None if key & both == both else key & keep

    def relabel(old: int, new: int):
        bo, bn = 1 << old, 1 << new
        return lambda key: (key ^ bo) | bn if key & bo else key

    witness = _flatten(_best(_fold_states(e, intro, join, relabel))[1])
    return len(witness), witness


def solve_vc(e: KExpr) -> tuple[int, frozenset[str]]:
    """Minimum vertex cover: the complement of a maximum independent set."""
    size, witness = solve_mis(e)
    names = frozenset(vertex_names(e))
    return len(names) - size, names - witness


def solve_mds(e: KExpr) -> tuple[int, frozenset[str]]:
    """Minimum dominating set via two bits per (compacted) label.

    Bit 2l (``sel``) is set when label l holds a selected vertex, bit 2l+1
    (``und``) when it holds a vertex not yet dominated; a label with neither
    bit carries no information. A union ORs the states; ``Join(i, j)``
    clears ``und(j)`` when ``sel(i)`` is set, and the mirror; a relabel
    moves both bits of ``old`` onto ``new`` with an OR. A leaf and a join
    drop every state with an ``und`` bit on a label that no ancestor join
    touches: that vertex can never be dominated. So the root's states have
    no ``und`` bit, and the states dropped are exactly those the root would
    reject. Among minimum sets, the one found first in the traversal's
    postorder is returned, deterministic per expression. There are up to
    4^k states, so ``unicwd solve --problem ds`` refuses expressions wider
    than 8 labels.
    """

    def intro(lab: int, name: str, dead: int) -> dict:
        if dead >> lab & 1:
            return {1 << 2 * lab: (1, name)}
        return {1 << 2 * lab: (1, name), 2 << 2 * lab: (0, None)}

    def join(i: int, j: int, dead: int):
        si, ui, sj, uj = 1 << 2 * i, 2 << 2 * i, 1 << 2 * j, 2 << 2 * j
        unds = _unds(dead)

        def f(key: int) -> int | None:
            if key & si:
                key &= ~uj
            if key & sj:
                key &= ~ui
            return None if key & unds else key

        return f

    def relabel(old: int, new: int):
        shift_old, shift_new = 2 * old, 2 * new
        mask = 3 << shift_old
        return lambda key: (key ^ (key & mask)) | ((key & mask) >> shift_old << shift_new)

    cost, witness = _best(_fold_states(e, intro, join, relabel))
    return cost, _flatten(witness)


# ---------------------------------------------------------------------------
# brute-force counterparts


def _bitmask_adjacency(g: Graph) -> tuple[list[str], list[int]]:
    names = list(g.vertices)
    index = {v: i for i, v in enumerate(names)}
    adj = [0] * len(names)
    for i, u in enumerate(names):
        for v in g.neighbors(u):
            adj[i] |= 1 << index[v]
    return names, adj


def brute_mis(g: Graph, max_n: int = 22) -> int:
    """Exact maximum independent set size by recursive branching.

    Branches on a maximum-degree vertex (in / out); equivalent to full
    subset enumeration and cross-checked against it for small n in the
    tests.
    """
    if g.n > max_n:
        raise SizeGuardError("brute_mis", g.n, max_n)
    _, adj = _bitmask_adjacency(g)

    def rec(cand: int) -> int:
        if cand == 0:
            return 0
        best_v, best_deg = -1, -1
        m = cand
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            d = bin(adj[v] & cand).count("1")
            if d > best_deg:
                best_v, best_deg = v, d
        if best_deg == 0:
            return bin(cand).count("1")  # all remaining are isolated
        v = best_v
        with_v = 1 + rec(cand & ~adj[v] & ~(1 << v))
        without_v = rec(cand & ~(1 << v))
        return max(with_v, without_v)

    return rec((1 << g.n) - 1)


def brute_mds(g: Graph, max_n: int = 22) -> int:
    """Exact minimum dominating set size by subset enumeration, smallest first."""
    if g.n > max_n:
        raise SizeGuardError("brute_mds", g.n, max_n)
    if g.n == 0:
        return 0
    _, adj = _bitmask_adjacency(g)
    closed = [adj[i] | (1 << i) for i in range(g.n)]
    full = (1 << g.n) - 1
    for size in range(0, g.n + 1):
        for combo in combinations(range(g.n), size):
            covered = 0
            for i in combo:
                covered |= closed[i]
            if covered == full:
                return size
    raise AssertionError("unreachable: the full vertex set dominates")


# ---------------------------------------------------------------------------
# clique-width decision oracle


def _partitions_of_groups(groups: list, k: int):
    """All ways to collect the groups into at most k blocks."""
    blocks: list[list] = []

    def rec(i: int):
        if i == len(groups):
            yield [list(b) for b in blocks]
            return
        item = groups[i]
        for b in blocks:
            b.append(item)
            yield from rec(i + 1)
            b.pop()
        if len(blocks) < k:
            blocks.append([item])
            yield from rec(i + 1)
            blocks.pop()

    yield from rec(0)


class _BudgetExceeded(Exception):
    pass


def oracle_cwd_leq(
    g: Graph, k: int, max_n: int | None = None, budget: int = 2_000_000
) -> bool | None:
    """Decide whether some k-expression builds ``g`` exactly.

    Reachability over states (built vertex set, partition into label
    groups), with all buildable edges materialized eagerly; two vertices
    may share a group only when their neighborhoods outside the built set
    agree. Returns None (indeterminate, never False) when the step budget
    runs out.
    """
    _guard("oracle_cwd_leq", g.n, max_n, default=6)
    n = g.n
    if n == 0 or k >= n:
        return True
    if k <= 0:
        return False
    vertices = list(g.vertices)
    work = 0

    def tick(amount: int = 1) -> None:
        nonlocal work
        work += amount
        if work > budget:
            raise _BudgetExceeded

    def outside_ok(block: frozenset[str], inside: frozenset[str]) -> bool:
        it = iter(block)
        ref = g.neighbors(next(it)) - inside
        return all(g.neighbors(v) - inside == ref for v in it)

    def try_union(p1, p2, s1: frozenset[str], s2: frozenset[str]):
        inside = s1 | s2
        groups = [(grp, 1) for grp in sorted(p1, key=sorted)] + [
            (grp, 2) for grp in sorted(p2, key=sorted)
        ]
        seen: set[frozenset[frozenset[str]]] = set()
        for blocks in _partitions_of_groups(groups, k):
            tick()
            parts = []
            ok = True
            for blk in blocks:
                side1 = frozenset().union(*(grp for grp, side in blk if side == 1))
                side2 = frozenset().union(*(grp for grp, side in blk if side == 2))
                # vertices merged across the union can never gain edges
                if any(g.has_edge(u, w) for u in side1 for w in side2):
                    ok = False
                    break
                merged = side1 | side2
                if not outside_ok(merged, inside):
                    ok = False
                    break
                parts.append((merged, side1, side2))
            if not ok:
                continue
            for (x, x1, x2), (y, y1, y2) in combinations(parts, 2):
                cross = [(u, w) for u in x1 for w in y2] + [(u, w) for u in x2 for w in y1]
                if not cross:
                    continue
                edge_flags = [g.has_edge(u, w) for u, w in cross]
                if all(edge_flags):
                    # the join must not add absent non-edges on either side
                    same = [(u, w) for u in x1 for w in y1] + [(u, w) for u in x2 for w in y2]
                    if all(g.has_edge(u, w) for u, w in same):
                        continue
                    ok = False
                    break
                if any(edge_flags):
                    ok = False
                    break
            if not ok:
                continue
            state = frozenset(p for p, _, _ in parts)
            if state not in seen:
                seen.add(state)
                yield state

    states: dict[frozenset[str], set[frozenset[frozenset[str]]]] = {}
    for v in vertices:
        states[frozenset({v})] = {frozenset({frozenset({v})})}

    try:
        for size in range(2, n + 1):
            for combo in combinations(vertices, size):
                s = frozenset(combo)
                found: set[frozenset[frozenset[str]]] = set()
                anchor = min(s)
                members = sorted(s)
                for r in range(1, size):
                    for sub in combinations([v for v in members if v != anchor], r - 1):
                        s1 = frozenset((anchor, *sub))
                        s2 = s - s1
                        for p1 in states.get(s1, ()):
                            for p2 in states.get(s2, ()):
                                for state in try_union(p1, p2, s1, s2):
                                    found.add(state)
                                    if len(s) == n:
                                        return True
                if found:
                    states[s] = found
        return False
    except _BudgetExceeded:
        return None


# ---------------------------------------------------------------------------
# unigraph decision oracle


def _realizations(degrees: tuple[int, ...]):
    """Every labeled graph with the given degree sequence, each exactly once.

    Vertices are indices 0..n-1 with targets in the given order; the
    lowest-index unfinished vertex chooses all of its remaining partners,
    which are always later unfinished vertices.
    """
    n = len(degrees)
    residual = list(degrees)
    edges: list[tuple[int, int]] = []

    def rec():
        u = -1
        for i in range(n):
            if residual[i] > 0:
                u = i
                break
        if u == -1:
            yield list(edges)
            return
        need = residual[u]
        candidates = [w for w in range(u + 1, n) if residual[w] > 0]
        if len(candidates) < need:
            return
        residual[u] = 0
        for combo in combinations(candidates, need):
            for w in combo:
                residual[w] -= 1
                edges.append((u, w))
            yield from rec()
            for w in combo:
                residual[w] += 1
            del edges[-need:]
        residual[u] = need

    yield from rec()


@lru_cache(maxsize=4096)
def _oracle_unigraph_cached(seq: tuple[int, ...]) -> bool:
    n = len(seq)
    if n == 0:
        return True
    if sum(seq) % 2 or seq[0] >= n or seq[-1] < 0:
        return False
    names = [f"v{i}" for i in range(n)]
    first: Graph | None = None
    for edges in _realizations(seq):
        h = Graph(names, [(names[a], names[b]) for a, b in edges])
        if first is None:
            first = h
        elif not is_isomorphic(first, h):
            return False
    return first is not None


def oracle_unigraph(seq, max_n: int | None = None) -> bool:
    """True iff every realization of the degree sequence is isomorphic.

    False when the sequence is not graphic (no realization at all).
    """
    degrees = tuple(sorted((int(d) for d in seq), reverse=True))
    _guard("oracle_unigraph", len(degrees), max_n, default=8)
    return _oracle_unigraph_cached(degrees)


# ---------------------------------------------------------------------------
# exhaustive decomposition enumeration


def _all_top_splits(g: Graph):
    vs = list(g.vertices)
    n = len(vs)
    for rmask in range(1, (1 << n) - 1):
        rest = {vs[i] for i in range(n) if rmask & (1 << i)}
        a, b = [], []
        ok = True
        for v in vs:
            if v in rest:
                continue
            nb = g.neighbors(v)
            if rest <= nb:
                a.append(v)
            elif not (nb & rest):
                b.append(v)
            else:
                ok = False
                break
        if ok and is_clique(g, a) and is_independent(g, b):
            yield frozenset(a), frozenset(b), frozenset(rest)


def _all_split_bipartitions(g: Graph):
    vs = list(g.vertices)
    n = len(vs)
    for amask in range(1 << n):
        a = {vs[i] for i in range(n) if amask & (1 << i)}
        b = g.vertex_set - a
        if is_clique(g, a) and is_independent(g, b):
            yield frozenset(a), frozenset(b)


def decompositions_equivalent(d1: CanonicalDecomposition, d2: CanonicalDecomposition) -> bool:
    """Equality up to part-respecting isomorphism of each component.

    Component vertex sets are not unique (peeling two interchangeable
    dominating vertices in either order gives the same graph), so the
    uniqueness statement is about the sequence of component shapes.
    """
    if len(d1.components) != len(d2.components):
        return False
    if (d1.tail is None) != (d2.tail is None):
        return False
    if d1.tail is not None and not is_isomorphic(d1.tail, d2.tail):
        return False
    return all(splitted_isomorphic(c1, c2) for c1, c2 in zip(d1.components, d2.components))


def enumerate_decompositions(g: Graph, max_n: int | None = None) -> list[CanonicalDecomposition]:
    """All maximal decompositions into indecomposable pieces, deduplicated.

    Explores every top split whose component is indecomposable as a
    splitted graph, at every level. The decompositions of each remaining
    vertex set are found once and deduplicated there, so interchangeable
    splits peeled in either order share their work. The decomposition is
    unique up to component isomorphism, so a single result is expected.
    """
    _guard("enumerate_decompositions", g.n, max_n, default=10)
    memo: dict[frozenset[str], list[CanonicalDecomposition]] = {}

    def rec(h: Graph) -> list[CanonicalDecomposition]:
        if h.vertex_set in memo:
            return memo[h.vertex_set]
        found = memo[h.vertex_set] = []

        def emit(candidate: CanonicalDecomposition) -> None:
            if not any(decompositions_equivalent(candidate, r) for r in found):
                found.append(candidate)

        if h.n <= 1:
            emit(CanonicalDecomposition((), h if h.n else None))
            return found
        splits = list(_all_top_splits(h))
        if not splits:
            bips = list(_all_split_bipartitions(h))
            for a, b in bips:
                emit(CanonicalDecomposition((SplittedGraph(h, a, b),), None))
            if not bips:
                emit(CanonicalDecomposition((), h))
            return found
        for a, b, rest in splits:
            comp = SplittedGraph(induced(h, a | b), a, b)
            if splitted_decomposable(comp):
                continue
            for d in rec(induced(h, rest)):
                emit(CanonicalDecomposition((comp, *d.components), d.tail))
        return found

    return rec(g)
