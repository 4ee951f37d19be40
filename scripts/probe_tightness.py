#!/usr/bin/env python3
"""Probe how tight the synthesized widths are on small instances.

For every catalog graph small enough for the exact clique-width oracle,
compare the width of the synthesized expression with the true clique-width.
The three-label constructions are known to be optimal for their graphs; the
interesting question is how much slack the four- and five-label split
constructions leave on tiny parameters.

Usage: python scripts/probe_tightness.py [--max-n 8] [--budget 4000000]
"""

from __future__ import annotations

import argparse

from unicwd import (
    C5Spec,
    MK2Spec,
    S2Spec,
    S3Spec,
    S4Spec,
    U2Spec,
    U3Spec,
    VARIANTS,
    build_template,
    complement,
    oracle_cwd_leq,
    synthesize,
)
from unicwd.catalog import _split_piece


def exact_cwd(g, max_n: int, budget: int):
    if g.n > max_n:
        return None
    for k in range(1, g.n + 1):
        r = oracle_cwd_leq(g, k, max_n=max_n, budget=budget)
        if r is None:
            return None
        if r:
            return k
    return None


def rows(max_n: int):
    yield "C5", build_template(C5Spec())
    yield "compl C5", complement(build_template(C5Spec()))
    for m in (2, 3):
        yield f"{m}K2", build_template(MK2Spec(m))
        yield f"compl {m}K2", complement(build_template(MK2Spec(m)))
    yield "U2(1,2)", build_template(U2Spec(1, 2))
    yield "compl U2(1,2)", complement(build_template(U2Spec(1, 2)))
    yield "U3(1)", build_template(U3Spec(1))
    yield "compl U3(1)", complement(build_template(U3Spec(1)))
    for spec in (S2Spec(((1, 2),)), S2Spec(((2, 1), (1, 1))), S3Spec(1, 2, 1)):
        for variant in VARIANTS:
            comp, _ = _split_piece(spec, variant, "")
            if comp.n <= max_n:
                yield f"{spec.family}{spec.params()} {variant}", comp.graph
    comp, _ = _split_piece(S4Spec(1, 1), "complement", "")
    if comp.n <= max_n:
        yield "S4(1,1) complement", comp.graph


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=8, help="oracle size cap (default 8)")
    ap.add_argument("--budget", type=int, default=4_000_000)
    args = ap.parse_args()

    print(f"{'graph':<34} {'n':>3} {'synth':>6} {'exact':>6} {'gap':>4}")
    for name, g in rows(args.max_n):
        _, report = synthesize(g)
        exact = exact_cwd(g, args.max_n, args.budget)
        exact_s = "?" if exact is None else str(exact)
        gap = "?" if exact is None else str(report.total_width - exact)
        print(f"{name:<34} {g.n:>3} {report.total_width:>6} {exact_s:>6} {gap:>4}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
