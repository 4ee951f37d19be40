"""Dynamic programming on expression trees, plus brute-force oracles.

The solvers exploit that same-label vertices are interchangeable for all
future operations: maximum independent set tracks which labels the chosen
set occupies, minimum dominating set tracks a (has-selected,
has-undominated) flag pair per label. Both are exponential only in the
number of labels.

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
from .kexpr import Intro, Join, KExpr, Relabel, Union, fold_expr, vertex_names

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
    def __init__(self, what: str, n: int, limit: int) -> None:
        super().__init__(f"{what}: size {n} exceeds the guard {limit} (set {_ENV_MAX_N} to raise it)")


def _guard(what: str, n: int, max_n: int | None, default: int) -> None:
    if max_n is None:
        env = os.environ.get(_ENV_MAX_N)
        max_n = int(env) if env else default
    if n > max_n:
        raise SizeGuardError(what, n, max_n)


# ---------------------------------------------------------------------------
# independent set / vertex cover DP


def solve_mis(e: KExpr) -> tuple[int, frozenset[str]]:
    """Maximum independent set of the evaluation of ``e``.

    States are keyed by the set of labels the chosen vertices currently
    occupy; a join kills every state occupying both joined labels.
    """
    State = dict  # frozenset[int] -> (size, witness)

    def better(a: tuple[int, frozenset[str]], b: tuple[int, frozenset[str]]) -> tuple[int, frozenset[str]]:
        if a[0] != b[0]:
            return a if a[0] > b[0] else b
        return a if tuple(sorted(a[1])) <= tuple(sorted(b[1])) else b

    def on_intro(node: Intro) -> State:
        return {
            frozenset(): (0, frozenset()),
            frozenset({node.label}): (1, frozenset({node.name})),
        }

    def on_union(_: Union, parts: list[State]) -> State:
        acc = parts[0]
        for part in parts[1:]:
            merged: State = {}
            for s1, (n1, w1) in acc.items():
                for s2, (n2, w2) in part.items():
                    key = s1 | s2
                    cand = (n1 + n2, w1 | w2)
                    merged[key] = cand if key not in merged else better(merged[key], cand)
            acc = merged
        return acc

    def on_join(node: Join, state: State) -> State:
        bad = {node.i, node.j}
        return {k: v for k, v in state.items() if not bad <= k}

    def on_relabel(node: Relabel, state: State) -> State:
        out: State = {}
        for k, v in state.items():
            key = (k - {node.old}) | {node.new} if node.old in k else k
            out[key] = v if key not in out else better(out[key], v)
        return out

    states = fold_expr(e, on_intro, on_union, on_join, on_relabel)
    best = (0, frozenset())
    for v in states.values():
        best = better(best, v)
    return best


def solve_vc(e: KExpr) -> tuple[int, frozenset[str]]:
    """Minimum vertex cover: the complement of a maximum independent set."""
    size, witness = solve_mis(e)
    names = frozenset(vertex_names(e))
    return len(names) - size, names - witness


# ---------------------------------------------------------------------------
# dominating set DP


def solve_mds(e: KExpr) -> tuple[int, frozenset[str]]:
    """Minimum dominating set via per-label (selected, undominated) flags.

    A label with neither flag set carries no information and is dropped
    from the signature, which keeps the state space small.
    """
    Sig = frozenset  # of (label, selected, has_undominated)

    def norm(flags: dict[int, tuple[bool, bool]]) -> frozenset:
        return frozenset(
            (lab, sel, und) for lab, (sel, und) in flags.items() if sel or und
        )

    def to_flags(sig: frozenset) -> dict[int, tuple[bool, bool]]:
        return {lab: (sel, und) for lab, sel, und in sig}

    def better(a, b):
        if a[0] != b[0]:
            return a if a[0] < b[0] else b
        return a if tuple(sorted(a[1])) <= tuple(sorted(b[1])) else b

    def on_intro(node: Intro):
        return {
            norm({node.label: (True, False)}): (1, frozenset({node.name})),
            norm({node.label: (False, True)}): (0, frozenset()),
        }

    def on_union(_: Union, parts):
        acc = parts[0]
        for part in parts[1:]:
            merged = {}
            for s1, (c1, w1) in acc.items():
                f1 = to_flags(s1)
                for s2, (c2, w2) in part.items():
                    flags = dict(f1)
                    for lab, (sel, und) in to_flags(s2).items():
                        old = flags.get(lab, (False, False))
                        flags[lab] = (old[0] or sel, old[1] or und)
                    key = norm(flags)
                    cand = (c1 + c2, w1 | w2)
                    merged[key] = cand if key not in merged else better(merged[key], cand)
            acc = merged
        return acc

    def on_join(node: Join, state):
        out = {}
        for sig, val in state.items():
            flags = to_flags(sig)
            sel_i = flags.get(node.i, (False, False))[0]
            sel_j = flags.get(node.j, (False, False))[0]
            if sel_i and node.j in flags:
                flags[node.j] = (flags[node.j][0], False)
            if sel_j and node.i in flags:
                flags[node.i] = (flags[node.i][0], False)
            key = norm(flags)
            out[key] = val if key not in out else better(out[key], val)
        return out

    def on_relabel(node: Relabel, state):
        out = {}
        for sig, val in state.items():
            flags = to_flags(sig)
            if node.old in flags and node.old != node.new:
                sel, und = flags.pop(node.old)
                old = flags.get(node.new, (False, False))
                flags[node.new] = (old[0] or sel, old[1] or und)
            key = norm(flags)
            out[key] = val if key not in out else better(out[key], val)
        return out

    states = fold_expr(e, on_intro, on_union, on_join, on_relabel)
    best = None
    for sig, val in states.items():
        if any(und for _, _, und in sig):
            continue
        best = val if best is None else better(best, val)
    if best is None:
        raise ValueError("no dominating set found (empty expression?)")
    return best


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
    splitted graph, at every level. The decomposition is unique up to
    component isomorphism, so a single result is expected.
    """
    _guard("enumerate_decompositions", g.n, max_n, default=10)
    results: list[CanonicalDecomposition] = []

    def emit(candidate: CanonicalDecomposition) -> None:
        if not any(decompositions_equivalent(candidate, r) for r in results):
            results.append(candidate)

    def rec(h: Graph, acc: tuple[SplittedGraph, ...]) -> None:
        if h.n == 0:
            emit(CanonicalDecomposition(acc, None))
            return
        if h.n == 1:
            emit(CanonicalDecomposition(acc, h))
            return
        splits = list(_all_top_splits(h))
        if not splits:
            bips = list(_all_split_bipartitions(h))
            if bips:
                for a, b in bips:
                    emit(CanonicalDecomposition(acc + (SplittedGraph(h, a, b),), None))
            else:
                emit(CanonicalDecomposition(acc, h))
            return
        for a, b, rest in splits:
            comp = SplittedGraph(induced(h, a | b), a, b)
            if splitted_decomposable(comp):
                continue
            rec(induced(h, rest), acc + (comp,))

    rec(g, ())
    return results
