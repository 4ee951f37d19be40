"""Command-line interface.

Commands: recognize, decompose, synthesize, eval, check, solve, gen,
oracle {cwd,unigraph,decomps}. Graphs travel as edge-list files,
expressions as .kx files; '-' means stdin. Exit codes: 0 success (and
"yes" verdicts), 1 negative verdict, 2 malformed input or usage error,
3 size-guard violation, 4 internal error (a synthesized expression failed
its verification, or any other unexpected exception). Errors are one line
on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import ComponentMatch, havel_hakimi, is_unigraph, random_unigraph
from .decomp import CanonicalDecomposition, decompose
from .graph import Graph, GraphFormatError, degree_sequence, read_edge_list, to_edge_list
from .kexpr import KExprSyntaxError, evaluate, parse, to_text, width
from .solve import (
    SizeGuardError,
    enumerate_decompositions,
    oracle_cwd_leq,
    oracle_unigraph,
    solve_mds,
    solve_mis,
    solve_vc,
)
from .synth import NotUnigraphError, SynthesisError, SynthesisReport, synthesize

__all__ = ["main"]

EXIT_OK = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_graph(path: str) -> Graph:
    return read_edge_list(_read_text(path))


def _load_expr(path: str):
    return parse(_read_text(path))


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _vertex_set(vs) -> str:
    return "{" + ",".join(sorted(vs)) + "}"


def _params_text(match: ComponentMatch) -> str:
    params = match.spec.params()
    if not params:
        return "none"
    return ",".join(f"{k}={params[k]}" for k in sorted(params))


def _match_json(match: ComponentMatch, index: int, tail: bool) -> dict:
    return {
        "index": index,
        "tail": tail,
        "family": match.spec.family,
        "variant": match.variant,
        "params": match.spec.params(),
    }


def _decomposition_lines(d: CanonicalDecomposition) -> list[str]:
    lines = [
        f"split k={i} A={_vertex_set(c.clique_part)} B={_vertex_set(c.independent_part)}"
        for i, c in enumerate(d.components, start=1)
    ]
    lines.append(f"tail {_vertex_set(d.tail.vertices)}" if d.tail is not None else "tail none")
    return lines


def _decomposition_json(d: CanonicalDecomposition) -> dict:
    return {
        "components": [
            {"k": i, "A": sorted(c.clique_part), "B": sorted(c.independent_part)}
            for i, c in enumerate(d.components, start=1)
        ],
        "tail": sorted(d.tail.vertices) if d.tail is not None else None,
    }


def _cmd_recognize(args) -> int:
    g = _load_graph(args.graph)
    rec = is_unigraph(g)
    if rec is None:
        if args.json:
            _emit_json({"verdict": "not-unigraph", "components": None})
        else:
            print("verdict: not-unigraph")
        return EXIT_NO
    entries = [(m, False) for m in rec.component_matches]
    if rec.tail_match is not None:
        entries.append((rec.tail_match, True))
    if args.json:
        components = [_match_json(m, i, tail) for i, (m, tail) in enumerate(entries, start=1)]
        _emit_json({"verdict": "unigraph", "components": components})
    else:
        for i, (m, tail) in enumerate(entries, start=1):
            suffix = " (tail)" if tail else ""
            print(
                f"component {i}{suffix}: family={m.spec.family} "
                f"variant={m.variant} params={_params_text(m)}"
            )
        print("verdict: unigraph")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    g = _load_graph(args.graph)
    d = decompose(g)
    if args.json:
        _emit_json(_decomposition_json(d))
    else:
        print("\n".join(_decomposition_lines(d)))
    return EXIT_OK


def _report_json(report: SynthesisReport) -> dict:
    return {
        "total_width": report.total_width,
        "components": [
            {"family": c.family, "variant": c.variant, "width": c.width, "tail": c.tail}
            for c in report.components
        ],
    }


def _report_lines(report: SynthesisReport) -> list[str]:
    lines = [f"total_width: {report.total_width}"]
    for i, c in enumerate(report.components, start=1):
        suffix = " (tail)" if c.tail else ""
        lines.append(f"component {i}{suffix}: family={c.family} variant={c.variant} width={c.width}")
    return lines


def _cmd_synthesize(args) -> int:
    g = _load_graph(args.graph)
    expr, report = synthesize(g)
    text = to_text(expr) + "\n"
    if args.output:
        _write_text(args.output, text)
        stream = sys.stdout
    else:
        sys.stdout.write(text)
        stream = sys.stderr
    if args.json:
        stream.write(json.dumps(_report_json(report), sort_keys=True) + "\n")
    else:
        stream.write("\n".join(_report_lines(report)) + "\n")
    return EXIT_OK


def _cmd_eval(args) -> int:
    expr = _load_expr(args.expr)
    result = evaluate(expr)
    w = width(expr)
    if args.json:
        _emit_json(
            {
                "vertices": sorted(result.graph.vertices),
                "edges": sorted([list(e) for e in result.graph.edges]),
                "labels": dict(sorted(result.labels.items())),
                "width": w,
            }
        )
    else:
        sys.stdout.write(to_edge_list(result.graph))
        sys.stdout.write(f"# width {w}\n")
    return EXIT_OK


def _cmd_check(args) -> int:
    g = _load_graph(args.graph)
    expr = _load_expr(args.expr)
    result = evaluate(expr)
    equal = result.graph == g
    if args.json:
        _emit_json({"equal": equal})
    else:
        print("equal" if equal else "not-equal")
    return EXIT_OK if equal else EXIT_NO


# each problem's solver and the largest width it accepts: the DP keeps up to
# 2^k label states for mis and vc, but up to 4^k for ds
_SOLVERS = {"mis": (solve_mis, 12), "vc": (solve_vc, 12), "ds": (solve_mds, 8)}


def _cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    if args.expr:
        expr = _load_expr(args.expr)
        if evaluate(expr).graph != g:
            raise ValueError("expression does not evaluate to the given graph")
    else:
        expr, _ = synthesize(g)
    solver, max_width = _SOLVERS[args.problem]
    if width(expr) > max_width:
        raise SizeGuardError(
            f"solve --problem {args.problem}", width(expr), max_width, hint="size is the expression's width"
        )
    value, witness = solver(expr)
    if args.json:
        _emit_json({"problem": args.problem, "value": value, "witness": sorted(witness)})
    else:
        print(f"problem={args.problem} value={value} witness={_vertex_set(witness)}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    g, _ = random_unigraph(args.seed, args.budget)
    _write_text(args.output, to_edge_list(g))
    return EXIT_OK


def _cmd_oracle_cwd(args) -> int:
    g = _load_graph(args.graph)
    results: dict[int, bool | None] = {}
    for k in range(1, args.max_k + 1):
        results[k] = oracle_cwd_leq(g, k, max_n=args.max_n, budget=args.budget)
        if results[k] is True:
            break
    exact = None
    for k in range(1, args.max_k + 1):
        if results.get(k) is True:
            if all(results.get(kk) is False for kk in range(1, k)):
                exact = k
            break
    lo = 1 + max((k for k, r in results.items() if r is False), default=0)
    trues = [k for k, r in results.items() if r is True]
    hi = min(trues) if trues else None
    if args.json:
        _emit_json({"exact": exact, "lo": lo, "hi": hi, "max_k": args.max_k})
    elif exact is not None:
        print(f"cwd(g) = {exact}")
    elif hi is not None:
        print(f"cwd(g) in [{lo}, {hi}]")
    else:
        print(f"cwd(g) in [{lo}, >{args.max_k}]")
    return EXIT_OK


def _cmd_oracle_unigraph(args) -> int:
    g = _load_graph(args.graph)
    seq = degree_sequence(g)
    verdict = oracle_unigraph(seq, max_n=args.max_n)
    graphic = havel_hakimi(seq) is not None
    if args.json:
        _emit_json({"unigraph": verdict, "graphic": graphic})
    else:
        print(f"unigraph: {'true' if verdict else 'false'}")
        if not graphic:
            print("# no realization")
    return EXIT_OK


def _cmd_oracle_decomps(args) -> int:
    g = _load_graph(args.graph)
    decs = enumerate_decompositions(g, max_n=args.max_n)
    if args.json:
        _emit_json(
            {
                "count": len(decs),
                "decompositions": [_decomposition_json(d) for d in decs],
            }
        )
    else:
        for i, d in enumerate(decs, start=1):
            print(f"decomposition {i}:")
            for line in _decomposition_lines(d):
                print(f"  {line}")
        print(f"count: {len(decs)}")
    return EXIT_OK


def _int_at_least(lo: int):
    """An argparse type: an integer no smaller than ``lo``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unicwd",
        description="Unigraph recognition, bounded clique-width expression synthesis, "
        "and solvers over expression trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("recognize", help="unigraph verdict with a component report")
    p.add_argument("graph")
    add_json(p)
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("decompose", help="canonical decomposition report")
    p.add_argument("graph")
    add_json(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("synthesize", help="emit a width-<=5 expression for a unigraph")
    p.add_argument("graph")
    p.add_argument("-o", "--output", help="write the expression here instead of stdout")
    add_json(p)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("eval", help="evaluate an expression to an edge list")
    p.add_argument("expr")
    add_json(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check", help="exact edge-set equality of a graph and an expression")
    p.add_argument("graph")
    p.add_argument("expr")
    add_json(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="solve mis/vc/ds on an expression tree")
    p.add_argument("graph")
    p.add_argument("--problem", choices=("mis", "vc", "ds"), required=True)
    p.add_argument("--expr", help="use this expression instead of synthesizing")
    add_json(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("gen", help="generate a seeded random unigraph")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=int, default=30, help="vertex budget (default 30)")
    p.add_argument("-o", "--output", help="write the edge list here instead of stdout")
    p.set_defaults(func=_cmd_gen)

    oracle = sub.add_parser("oracle", help="brute-force oracles")
    osub = oracle.add_subparsers(dest="oracle_command", required=True)

    p = osub.add_parser("cwd", help="exact clique-width decision up to --max-k")
    p.add_argument("graph")
    p.add_argument("--max-k", type=_int_at_least(1), required=True)
    p.add_argument("--budget", type=_int_at_least(0), default=2_000_000)
    p.add_argument("--max-n", type=int, default=None)
    add_json(p)
    p.set_defaults(func=_cmd_oracle_cwd)

    p = osub.add_parser("unigraph", help="degree-sequence realization oracle")
    p.add_argument("graph")
    p.add_argument("--max-n", type=int, default=None)
    add_json(p)
    p.set_defaults(func=_cmd_oracle_unigraph)

    p = osub.add_parser("decomps", help="enumerate all maximal decompositions")
    p.add_argument("graph")
    p.add_argument("--max-n", type=int, default=None)
    add_json(p)
    p.set_defaults(func=_cmd_oracle_decomps)

    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (GraphFormatError, KExprSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except NotUnigraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO
    except SynthesisError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # the command-line boundary: one line, no traceback
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
