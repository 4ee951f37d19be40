"""Constructive synthesis of bounded-width expressions for unigraphs.

Each catalog family has an explicit construction read off its matched
correspondence: matchings, U2 shapes and their complements need two labels;
C5 and the hub family U3 need three; the split families are built star by
star, keeping the clique part labeled 1 and the independent part labeled 2
throughout, within 3/3/4/4 labels for S2, the same for S3, and 4/4/5/5 for
S4 across the four variants. Every gluing step, composition included, is
one combinator (``_glue``) that borrows two fresh labels for the joins and
folds them back, so the whole pipeline never exceeds five labels.

Synthesis reuses the input graph's vertex names (via the matched
correspondences), so verification is exact edge-set equality. It happens
once, at the boundary: ``synthesize`` evaluates the finished expression.
Only when that fails does it check each piece against the component that
recognition returned for it, to name the broken one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .catalog import (
    C5Spec,
    ComponentMatch,
    K1Spec,
    MK2Spec,
    NotUnigraphError,
    S2Spec,
    S3Spec,
    S4Spec,
    U2Spec,
    U3Spec,
    _recognize,
)
from .graph import Graph, SplittedGraph
from .kexpr import Intro, Join, KExpr, Relabel, Union, evaluate, is_split_labeled, width

__all__ = [
    "NotUnigraphError",
    "SPLIT_WIDTH_BOUNDS",
    "NONSPLIT_WIDTH_BOUNDS",
    "SynthesisError",
    "SynthesisReport",
    "ComponentReport",
    "glue_split",
    "glue_tail",
    "synth_nonsplit",
    "synth_split",
    "synthesize",
]


class SynthesisError(RuntimeError):
    """A synthesized expression failed verification: a defect, not bad input.

    ``component`` is the 1-based gluing-order index of the broken piece (the
    tail counts last), or None when no single piece is to blame.
    """

    def __init__(
        self, reason: str, component: int | None = None, match: ComponentMatch | None = None
    ) -> None:
        where = "synthesized expression"
        if match is not None:
            index = "" if component is None else f" {component}"
            where = f"component{index} ({match.spec.family}/{match.variant})"
        super().__init__(f"{where}: {reason}")
        self.component = component


@dataclass(frozen=True)
class ComponentReport:
    family: str
    variant: str
    width: int
    tail: bool = False


@dataclass(frozen=True)
class SynthesisReport:
    total_width: int
    components: tuple[ComponentReport, ...]

    @property
    def per_component_widths(self) -> tuple[int, ...]:
        return tuple(c.width for c in self.components)

    @property
    def component_families(self) -> tuple[str, ...]:
        return tuple(c.family for c in self.components)


# width ceilings per family and variant
SPLIT_WIDTH_BOUNDS = {
    "K1": {"identity": 1, "inverse": 1, "complement": 1, "inverse_complement": 1},
    "S2": {"identity": 3, "inverse": 3, "complement": 4, "inverse_complement": 4},
    "S3": {"identity": 3, "inverse": 3, "complement": 4, "inverse_complement": 4},
    "S4": {"identity": 4, "inverse": 4, "complement": 5, "inverse_complement": 5},
}
NONSPLIT_WIDTH_BOUNDS = {
    "C5": 3,
    "MK2": 2,
    "U2": 2,
    "U3": 3,
    "K1": 1,
}


# ---------------------------------------------------------------------------
# the gluing combinator


def _glue(outer: KExpr, inner: KExpr, joins, free: int = 3) -> KExpr:
    """Disjoint union of two pieces plus the edges ``joins`` between them.

    ``joins`` holds (outer label, inner label) pairs. The inner labels that
    take part in a join move to the fresh labels ``free`` and ``free + 1``
    (an Intro takes its new label directly), the joins run in sorted order
    and the moved labels fold back, so both pieces keep their labeling.
    """
    moved = {lab: free + k for k, lab in enumerate(sorted({b for _, b in joins}))}
    if isinstance(inner, Intro):
        inner = Intro(inner.name, moved.get(inner.label, inner.label))
    else:
        for old, new in moved.items():
            if old != new:
                inner = Relabel(old, new, inner)
    expr: KExpr = Union(outer, inner)
    for a, b in sorted((a, moved[b]) for a, b in joins):
        expr = Join(a, b, expr)
    for old, new in moved.items():
        if old != new:
            expr = Relabel(new, old, expr)
    return expr


def _join_all(parts: list[KExpr]) -> KExpr:
    """All-1 join of all-1 pieces, within max(2, their widths) labels."""
    acc = parts[0]
    for part in parts[1:]:
        acc = _glue(acc, part, {(1, 1)}, free=2)
    return acc


def _clique_expr(names: list[str]) -> KExpr:
    """All-1 width-<=2 expression of a complete graph on ``names``."""
    return _join_all([Intro(v, 1) for v in names])


# ---------------------------------------------------------------------------
# split families


def _star_split_expr(center: str, leaves: list[str], variant: str) -> KExpr:
    """Split-labeled expression for one star under a variant.

    identity: the star itself (center is the clique part). inverse: the
    complete graph on leaves+center, with the leaves forming the clique
    part. complement: the isolated center next to a clique of leaves.
    inverse of complement: no edges at all, center on the clique side.
    """
    if variant == "identity":
        return Join(1, 2, Union(Intro(center, 1), *(Intro(l, 2) for l in leaves)))
    if variant == "inverse":
        return Join(1, 2, Union(Intro(center, 2), _clique_expr(leaves)))
    if variant == "complement":
        return Union(Intro(center, 2), _clique_expr(leaves))
    return Union(Intro(center, 1), *(Intro(l, 2) for l in leaves))


# Per variant: the joins from the stars glued so far to the next star block
# (as in composition, outer label first), the label v ends on and the labels
# it joins, and the labels u joins, 3 standing for v (u ends on the other
# side from v).
_VARIANT_JOINS = {
    "identity": ({(1, 1)}, 2, (1,), (1, 2)),
    "inverse": ({(1, 1)}, 1, (1, 2), (1,)),
    "complement": ({(1, 1), (1, 2), (2, 1)}, 1, (1,), (3,)),
    "inverse_complement": ({(1, 1), (1, 2), (2, 1)}, 2, (), (1, 3)),
}


def _s2_expr(stars: list[tuple[str, list[str]]], variant: str) -> KExpr:
    """Star-by-star induction over a non-increasing star list."""
    stars = sorted(stars, key=lambda s: (-len(s[1]), s[0]))
    joins = _VARIANT_JOINS[variant][0]
    acc = _star_split_expr(stars[0][0], stars[0][1], variant)
    for center, leaves in stars[1:]:
        acc = _glue(acc, _star_split_expr(center, leaves, variant), joins)
    return acc


def _s3_expr(small, big, v: str, variant: str) -> KExpr:
    """The small stars with v attached, then the big stars glued on.

    ``small`` holds the q1 stars of size p (the ones v is attached to in
    the identity orientation), ``big`` the q2 stars of size p+1.
    """
    joins, v_label, v_joins, _ = _VARIANT_JOINS[variant]
    left = _glue(_s2_expr(small, variant), Intro(v, v_label), {(a, v_label) for a in v_joins})
    return _glue(left, _s2_expr(big, variant), joins)


def _s4_expr(small, big, v: str, u: str, variant: str) -> KExpr:
    """The S3 construction with v kept on label 3, then u on label 4.

    v's label 3 joins the big stars wherever v's own class does. For the
    complement variants the big stars borrow labels 4 and 5, which is where
    the family's width of five comes from.
    """
    joins, v_label, v_joins, u_joins = _VARIANT_JOINS[variant]
    left = _glue(_s2_expr(small, variant), Intro(v, 3), {(a, 3) for a in v_joins})
    joins = joins | {(3, b) for a, b in joins if a == v_label}
    block = _glue(left, _s2_expr(big, variant), joins, free=4)
    u_label = 3 - v_label
    with_u = _glue(block, Intro(u, u_label), {(a, u_label) for a in u_joins}, free=4)
    return Relabel(3, v_label, with_u)


def _stars(sizes: list[int], corr, offset: int = 0) -> list[tuple[str, list[str]]]:
    return [
        (corr[f"c{i}"], [corr[f"c{i}l{j}"] for j in range(1, p + 1)])
        for i, p in enumerate(sizes, start=offset + 1)
    ]


def synth_split(match: ComponentMatch) -> KExpr:
    """Split-labeled expression for a matched split component."""
    spec, variant, corr = match.spec, match.variant, match.correspondence
    if isinstance(spec, K1Spec):
        # inverse and complement swap the two sides, their composition does not
        independent = (spec.side == "clique") == (variant in ("inverse", "complement"))
        expr: KExpr = Intro(corr["a"], 2 if independent else 1)
    elif isinstance(spec, S2Spec):
        expr = _s2_expr(_stars(spec.star_sizes(), corr), variant)
    elif isinstance(spec, S3Spec):
        big = _stars([spec.p + 1] * spec.q2, corr)
        small = _stars([spec.p] * spec.q1, corr, offset=spec.q2)
        expr = _s3_expr(small, big, corr["v"], variant)
    elif isinstance(spec, S4Spec):
        big = _stars([spec.p + 1] * spec.q, corr)
        small = _stars([spec.p] * 2, corr, offset=spec.q)
        expr = _s4_expr(small, big, corr["v"], corr["u"], variant)
    else:
        raise ValueError(f"{spec.family} is not a split catalog family")
    return expr


# ---------------------------------------------------------------------------
# nonsplit families


def _c5_expr(order: list[str]) -> KExpr:
    x1, x2, x3, x4, x5 = order
    p1 = Join(1, 2, Union(Intro(x1, 2), Intro(x2, 1)))
    p2 = Join(2, 3, Union(Intro(x3, 3), Intro(x4, 2)))
    path = Relabel(3, 1, Join(1, 3, Union(p1, p2)))
    return Relabel(3, 1, Relabel(2, 1, Join(2, 3, Union(path, Intro(x5, 3)))))


def _u3_expr(corr, m: int) -> KExpr:
    pair_exprs = [_clique_expr([corr[f"a{i}"], corr[f"b{i}"]]) for i in range(1, m + 1)]
    mk2: KExpr = pair_exprs[0] if m == 1 else Union(tuple(pair_exprs))
    star = Join(
        1, 2, Union(Intro(corr["w2"], 1), Intro(corr["w1"], 2), Intro(corr["w3"], 2))
    )
    return Relabel(
        3, 1, Relabel(2, 1, Join(2, 3, Union(Relabel(1, 2, mk2), Intro(corr["h"], 3), star)))
    )


def _co_matching(corr, m: int) -> KExpr:
    """All-1 expression of the complement of the matching a_i b_i."""
    return _join_all(
        [Union(Intro(corr[f"a{i}"], 1), Intro(corr[f"b{i}"], 1)) for i in range(1, m + 1)]
    )


def _u3_complement_expr(corr, m: int) -> KExpr:
    k2k1 = Union(
        Relabel(2, 1, Join(1, 2, Union(Intro(corr["w1"], 1), Intro(corr["w3"], 2)))),
        Intro(corr["w2"], 2),
    )
    inner = Relabel(1, 2, Join(2, 3, Union(Intro(corr["h"], 3), k2k1)))
    return Relabel(3, 1, Relabel(2, 1, Join(1, 2, Union(_co_matching(corr, m), inner))))


def _matching_tail_expr(spec: MK2Spec | U2Spec, variant: str, corr) -> KExpr:
    """MK2 and U2 (a matching, plus a star for U2) or their complements.

    A complement is the join of the parts' complements: the co-matching,
    and an isolated center next to a clique of leaves.
    """
    leaves = [corr[f"s{j}"] for j in range(1, spec.s + 1)] if isinstance(spec, U2Spec) else []
    if variant == "complement":
        parts = [_co_matching(corr, spec.m)]
        if leaves:
            parts.append(Union(Intro(corr["c"], 1), _clique_expr(leaves)))
        return _join_all(parts)
    parts = [_clique_expr([corr[f"a{i}"], corr[f"b{i}"]]) for i in range(1, spec.m + 1)]
    if leaves:
        parts.append(Relabel(2, 1, _star_split_expr(corr["c"], leaves, "identity")))
    return Union(tuple(parts))


def synth_nonsplit(match: ComponentMatch) -> KExpr:
    """Expression for a matched nonsplit core, all labels 1 at the end."""
    spec, variant, corr = match.spec, match.variant, match.correspondence
    if isinstance(spec, K1Spec):
        return Intro(corr["a"], 1)
    if isinstance(spec, C5Spec):
        # the complement of the cycle x1..x5 is the cycle x1 x3 x5 x2 x4
        order = (1, 2, 3, 4, 5) if variant == "identity" else (1, 3, 5, 2, 4)
        return _c5_expr([corr[f"x{i}"] for i in order])
    if isinstance(spec, (MK2Spec, U2Spec)):
        return _matching_tail_expr(spec, variant, corr)
    if isinstance(spec, U3Spec):
        build = _u3_expr if variant == "identity" else _u3_complement_expr
        return build(corr, spec.m)
    raise ValueError(f"{spec.family} is not a nonsplit catalog family")


# ---------------------------------------------------------------------------
# gluing


def glue_split(outer: KExpr, inner: KExpr) -> KExpr:
    """Compose two split-labeled expressions into one.

    The outer clique (label 1) is joined to all of the inner piece, whose
    labels borrow 3/4 meanwhile. Width <= max(4, both widths).
    """
    return _glue(outer, inner, {(1, 1), (1, 2)})


def glue_tail(s: KExpr, tail: KExpr) -> KExpr:
    """Compose a split-labeled expression over an all-1 core expression."""
    return Relabel(2, 1, _glue(s, tail, {(1, 1)}))


# ---------------------------------------------------------------------------
# the pipeline


def _check_piece(
    index: int, expr: KExpr, match: ComponentMatch, component: SplittedGraph | Graph
) -> None:
    """Raise SynthesisError unless ``expr`` evaluates to its recognized
    ``component`` (split-labeled for a split component, all labels 1 for the
    tail) within the family's width bound."""
    family, variant = match.spec.family, match.variant
    if isinstance(component, SplittedGraph):
        exact, bound = is_split_labeled(expr, component), SPLIT_WIDTH_BOUNDS[family][variant]
    else:
        result = evaluate(expr)
        exact = result.graph == component and all(lab == 1 for lab in result.labels.values())
        bound = NONSPLIT_WIDTH_BOUNDS[family]
    if not exact:
        raise SynthesisError("expression does not evaluate to the labeled component", index, match)
    if width(expr) > bound:
        raise SynthesisError(f"expression exceeds width {bound}", index, match)


def synthesize(g: Graph) -> tuple[KExpr, SynthesisReport]:
    """Build a width-<=5 expression that evaluates exactly to ``g``.

    Recognizes the graph, synthesizes every component, glues innermost
    outward and verifies the result by exact edge-set equality before
    returning. Raises NotUnigraphError when recognition fails and
    SynthesisError when verification fails, naming the first piece that
    does not evaluate to its recognized component within its width bound.
    """
    if g.n == 0:
        raise ValueError("cannot synthesize an expression for the empty graph")
    rec = _recognize(g)
    split = [synth_split(m) for m in rec.component_matches]
    pieces = list(zip(split, rec.component_matches, rec.decomposition.components))
    acc = reduce(glue_split, split) if split else None
    if rec.tail_match is None:
        expr = Relabel(2, 1, acc)
    else:
        tail = synth_nonsplit(rec.tail_match)
        pieces.append((tail, rec.tail_match, rec.decomposition.tail))
        expr = tail if acc is None else glue_tail(acc, tail)

    result = evaluate(expr)
    total = width(expr)
    if result.graph != g or any(lab != 1 for lab in result.labels.values()) or total > 5:
        for index, piece in enumerate(pieces, start=1):
            _check_piece(index, *piece)
        raise SynthesisError(f"glued expression of width {total} is not the input all labeled 1")
    reports = (
        ComponentReport(m.spec.family, m.variant, width(p), isinstance(component, Graph))
        for p, m, component in pieces
    )
    return expr, SynthesisReport(total_width=total, components=tuple(reports))
