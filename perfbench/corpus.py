"""Seeded inputs for the three workloads.

Everything here is a pure function of the workload seed. The package is
used only to generate unigraphs (``random_unigraph``) and to build the
expressions that ``dp-solve`` solves; every verdict the benchmark checks
against is known without the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from unicwd import Intro, Join, KExpr, Relabel, Union, random_unigraph, synthesize

# lib-large: dense unigraphs of one size band; a graph is kept when
# n >= 0.9 * budget and at least LIB_MIN_DENSITY of its vertex pairs are edges.
LIB_BUDGET = 280
LIB_MIN_DENSITY = 0.85
LIB_ITEMS = 28

# cli-mixed: each round holds one positive per (budget, least n, edge band)
# and one negative; budgets are the cheapest to search for each band. The
# second band is narrow because it holds the median latency.
CLI_MIN_N, CLI_MAX_N = 40, 150
CLI_BANDS = ((110, 88, 250, 400), (50, 40, 560, 640), (50, 40, 850, 950), (60, 48, 1150, 1250))
CLI_NEG_BUDGET, CLI_NEG_BAND = 90, (400, 1000)
CLI_ROUNDS = 4

# dp-solve: per round, random expressions per width (leaves, count), one
# small one (at most 18 vertices, brute-force checked, width cycling 3..5)
# and one synthesized one; width 4 holds the middle latency ranks.
DP_RANDOM = {3: (200, 1), 4: (150, 3), 5: (70, 2)}
DP_SMALL_LEAVES = 16
DP_SYNTH_BUDGETS = (60, 100)
DP_ROUNDS = 8


@dataclass(frozen=True)
class Negative:
    """A composition over a cycle core C_k (k >= 6): never a unigraph."""

    text: str
    n: int
    m: int


def workload_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def find_unigraph(rng: random.Random, budget: int, min_n: int, min_m: int, max_m: int, tries: int = 500) -> int:
    """The first seed drawn from ``rng`` whose ``random_unigraph`` output at
    ``budget`` has at least ``min_n`` vertices and ``min_m``..``max_m`` edges."""
    for _ in range(tries):
        s = rng.getrandbits(31)
        g, _ = random_unigraph(s, budget)
        if g.n >= min_n and min_m <= g.m <= max_m:
            return s
    raise RuntimeError(f"no unigraph with n >= {min_n} and {min_m} <= m <= {max_m} at budget {budget}")


def edge_list_text(vertices, edges) -> str:
    """Edge-list file text, written without the package's writer."""
    touched = {u for e in edges for u in e}
    lines = [f"{len(vertices)} {len(edges)}"]
    lines += [f"vertex {v}" for v in sorted(vertices) if v not in touched]
    lines += [f"{u} {v}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


def compose_over_cycle(components, k: int) -> tuple[list[str], list[tuple[str, str]]]:
    """Vertices and edges of the split components, outermost first, composed
    over the cycle C_k: each clique-part vertex is joined to every vertex of
    the components inside it and of the core."""
    core = [f"c{i}" for i in range(k)]
    vertices = list(core)
    edges = [tuple(sorted((core[i], core[(i + 1) % k]))) for i in range(k)]
    for comp in reversed(components):
        inner = list(vertices)
        edges += list(comp.graph.edges)
        edges += [tuple(sorted((a, v))) for a in comp.clique_part for v in inner]
        vertices += list(comp.graph.vertices)
    return vertices, edges


def negative(seed: int, budget: int, k: int) -> Negative:
    """The split components of ``random_unigraph(seed, budget)`` over C_k.

    C_k and C_3 + C_(k-3) share a degree sequence, so C_k (k >= 6) is not a
    unigraph, and by Tyshkevich's composition theorem (Discrete Math. 220,
    2000) neither is any composition that has it as a piece.
    """
    _, rec = random_unigraph(seed, budget)
    vertices, edges = compose_over_cycle(rec.decomposition.components, k)
    return Negative(edge_list_text(vertices, edges), len(vertices), len(edges))


def find_negative(rng: random.Random, budget: int, band: tuple[int, int], tries: int = 500) -> tuple[int, int]:
    """(seed, k) of the first negative with at least one split component,
    CLI_MIN_N..CLI_MAX_N vertices and an edge count within ``band``."""
    for _ in range(tries):
        s, k = rng.getrandbits(31), rng.randint(6, 12)
        _, rec = random_unigraph(s, budget)
        n = m = k
        for comp in reversed(rec.decomposition.components):
            m += comp.graph.m + len(comp.clique_part) * n
            n += comp.n
        if n > k and CLI_MIN_N <= n <= CLI_MAX_N and band[0] <= m <= band[1]:
            return s, k
    raise RuntimeError(f"no negative with {band[0]} <= m <= {band[1]} at budget {budget}")


# Recipes are the seeded choices, found once per run; set-up turns them
# into inputs, and is what the benchmark times and repeats.


def lib_large_recipes(seed: int, items: int = LIB_ITEMS) -> list[tuple[int, int]]:
    """(random_unigraph seed, budget) per input."""
    rng = workload_rng("lib-large", seed)
    min_n = (9 * LIB_BUDGET + 9) // 10
    min_m = int(LIB_MIN_DENSITY * min_n * (min_n - 1) / 2)
    return [(find_unigraph(rng, LIB_BUDGET, min_n, min_m, LIB_BUDGET**2), LIB_BUDGET) for _ in range(items)]


def cli_recipes(seed: int, rounds: int = CLI_ROUNDS) -> list[tuple]:
    """("pos", seed, budget) and ("neg", seed, budget, k) per input."""
    rng = workload_rng("cli-mixed", seed)
    out: list[tuple] = []
    for _ in range(rounds):
        for budget, min_n, lo, hi in CLI_BANDS:
            out.append(("pos", find_unigraph(rng, budget, min_n, lo, hi), budget))
        neg_seed, k = find_negative(rng, CLI_NEG_BUDGET, CLI_NEG_BAND)
        out.append(("neg", neg_seed, CLI_NEG_BUDGET, k))
    return out


def random_expr(rng: random.Random, width: int, leaves: int, prefix: str) -> KExpr:
    """A random well-formed expression of exactly ``width`` labels.

    ``leaves`` vertices named ``<prefix><i>`` (unique), the first ``width``
    of them carrying labels 1..width; random pairs of subtrees are united,
    and each union is wrapped in a random join (1/2) or relabel (1/5).
    """
    if leaves < max(2, width):
        raise ValueError("need at least max(2, width) leaves")
    labels = list(range(1, width + 1))
    forest: list[KExpr] = [
        Intro(f"{prefix}{i}", labels[i] if i < width else rng.choice(labels)) for i in range(leaves)
    ]
    while len(forest) > 1:
        a = forest.pop(rng.randrange(len(forest)))
        b = forest.pop(rng.randrange(len(forest)))
        node: KExpr = Union(a, b)
        r = rng.random()
        if r < 0.5:
            i, j = rng.sample(labels, 2)
            node = Join(i, j, node)
        elif r < 0.7:
            i, j = rng.sample(labels, 2)
            node = Relabel(i, j, node)
        forest.append(node)
    return forest[0]


def dp_recipes(seed: int, rounds: int = DP_ROUNDS) -> list[tuple]:
    """("random", rng seed, width, leaves, name prefix) and
    ("synth", random_unigraph seed, budget) per input; the small random
    expressions (at most 18 vertices) are brute-force checked."""
    rng = workload_rng("dp-solve", seed)
    out: list[tuple] = []
    for r in range(rounds):
        for width, (leaves, count) in DP_RANDOM.items():
            for c in range(count):
                out.append(("random", rng.getrandbits(31), width, leaves, f"r{r}w{width}c{c}_"))
        out.append(("random", rng.getrandbits(31), 3 + r % 3, DP_SMALL_LEAVES, f"r{r}s_"))
        budget = DP_SYNTH_BUDGETS[r % len(DP_SYNTH_BUDGETS)]
        out.append(("synth", find_unigraph(rng, budget, (9 * budget + 9) // 10, 0, budget * budget), budget))
    return out


def dp_expr(recipe: tuple) -> KExpr:
    """The expression of a dp-solve recipe; "synth" ones are synthesized here."""
    if recipe[0] == "random":
        _, s, width, leaves, prefix = recipe
        return random_expr(random.Random(s), width, leaves, prefix)
    _, s, budget = recipe
    return synthesize(random_unigraph(s, budget)[0])[0]
