"""The three workloads and the closed-loop timed phase that runs them.

A workload turns its seeded corpus into inputs during set-up. Each input
is a short chain of operations (library calls or CLI commands) run one
input at a time; the timed phase cycles over the inputs until at least
``seconds`` of operation time have passed and every input has run once.
Outputs are checked outside the timed region: fully the first time an
input runs, and afterwards by comparing with that verified output.
"""

from __future__ import annotations

import gc
import io
import json
import os
import random
import shutil
import statistics
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import unicwd
import unicwd.cli

import checks
import corpus
from checks import CheckFailed, RefGraph
from spans import ITEM_SPAN, Tracer, layer_metrics

SETUP_REPEATS = 3
# The machine's speed is taken from a fixed pure-Python task (the reference
# probe) run before every untraced input; timings are scaled to a machine on
# which it takes REFERENCE_NOMINAL_S.
REFERENCE_NOMINAL_S = 0.017


@dataclass
class Input:
    key: int
    n: int
    m: int
    steps: list  # [(op, fn(outputs) -> output)]
    ref: object = None  # whatever verify() needs


@dataclass
class Stats:
    attempted: int = 0
    failed: int = 0
    failures: dict = field(default_factory=dict)  # "op:ExceptionType" -> count
    latencies: dict = field(default_factory=dict)  # input key -> [latency of each finished run]
    timed_s: float = 0.0

    def fail(self, op: str, exc: BaseException) -> None:
        self.failed += 1
        key = f"{op}:{type(exc).__name__}"
        self.failures[key] = self.failures.get(key, 0) + 1


def run_steps(inp: Input, stats: Stats):
    """Run one input's operations in order; None once one raises."""
    out: dict = {}
    for op, fn in inp.steps:
        stats.attempted += 1
        try:
            out[op] = fn(out)
        except Exception as exc:  # any failure is counted, never fatal
            stats.fail(op, exc)
            return None
    return out


class Workload:
    def __init__(self, scratch_root: str) -> None:
        self.scratch_root = scratch_root  # where temporary files may go

    def recipes(self, seed: int) -> list:
        """The seeded choice of inputs, made once per run."""
        raise NotImplementedError

    def setup(self, recipes: list) -> list[Input]:
        """Build the inputs from the recipes: the timed, repeated set-up."""
        raise NotImplementedError

    def signature(self, inp: Input, out: dict):
        """A comparable summary: equal to a verified one means verified."""
        raise NotImplementedError

    def verify(self, inp: Input, out: dict) -> int:
        """Check every output (raising, with ``.op`` set on CheckFailed);
        returns the node count of the input's expression."""
        raise NotImplementedError

    def cleanup(self) -> None:
        pass


def _failed_check(op: str, exc: Exception) -> Exception:
    exc.op = op
    return exc


# ---------------------------------------------------------------------------
# lib-large


class LibLarge(Workload):
    """synthesize -> to_text -> solve_mis -> solve_mds on dense unigraphs."""

    def recipes(self, seed):
        return corpus.lib_large_recipes(seed)

    def setup(self, recipes):
        inputs = []
        for key, (s, budget) in enumerate(recipes):
            g, _ = unicwd.random_unigraph(s, budget)
            steps = [
                ("synthesize", lambda o, g=g: unicwd.synthesize(g)[0]),
                ("to_text", lambda o: unicwd.to_text(o["synthesize"])),
                ("solve_mis", lambda o: unicwd.solve_mis(o["synthesize"])),
                ("solve_mds", lambda o: unicwd.solve_mds(o["synthesize"])),
            ]
            inputs.append(Input(key, g.n, g.m, steps, g))
        return inputs

    def signature(self, inp, out):
        return out["to_text"], out["solve_mis"], out["solve_mds"]

    def verify(self, inp, out):
        g = RefGraph(inp.ref.vertices, inp.ref.edges)
        op = "synthesize"
        try:
            checks.check_expr(out["to_text"], out["synthesize"], g)
            op = "solve_mis"
            checks.check_independent(g, *out["solve_mis"])
            op = "solve_mds"
            checks.check_dominating(g, *out["solve_mds"])
        except Exception as exc:
            raise _failed_check(op, exc)
        return checks.count_nodes(out["synthesize"])


# ---------------------------------------------------------------------------
# cli-mixed


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = unicwd.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class CliMixed(Workload):
    """In-process CLI commands on edge-list and .kx files in a temp dir."""

    tmp: str | None = None

    def recipes(self, seed):
        return corpus.cli_recipes(seed)

    def setup(self, recipes):
        self.cleanup()
        os.makedirs(self.scratch_root, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=self.scratch_root)
        inputs = []
        for key, (kind, s, budget, *k) in enumerate(recipes):
            gpath = os.path.join(self.tmp, f"g{key}.txt")
            xpath = os.path.join(self.tmp, f"g{key}.kx")
            if kind == "neg":
                item = corpus.negative(s, budget, *k)
                with open(gpath, "w", encoding="utf-8") as fh:
                    fh.write(item.text)
                commands = [
                    ("recognize", ["recognize", gpath, "--json"]),
                    ("synthesize", ["synthesize", gpath, "-o", xpath]),
                ]
                n, m, ref = item.n, item.m, None
            else:
                commands = [
                    ("gen", ["gen", "--seed", str(s), "--budget", str(budget), "-o", gpath]),
                    ("recognize", ["recognize", gpath, "--json"]),
                    ("synthesize", ["synthesize", gpath, "-o", xpath]),
                    ("check", ["check", gpath, xpath]),
                    ("solve_mis", ["solve", gpath, "--problem", "mis", "--expr", xpath, "--json"]),
                    ("solve_ds", ["solve", gpath, "--problem", "ds", "--expr", xpath, "--json"]),
                ]
                ref, _ = unicwd.random_unigraph(s, budget)
                n, m = ref.n, ref.m
            steps = [(op, lambda o, argv=argv: _cli(argv)) for op, argv in commands]
            inputs.append(Input(key, n, m, steps, (ref, gpath, xpath)))
        return inputs

    def signature(self, inp, out):
        _, gpath, xpath = inp.ref
        files = (_read(gpath), _read(xpath)) if "gen" in out else ()
        return tuple(out.values()), files

    def verify(self, inp, out):
        ref, gpath, xpath = inp.ref
        op = "recognize"
        try:
            if ref is None:  # a negative: both commands answer "no" with exit 1
                code, text, _ = out["recognize"]
                if code != 1 or json.loads(text)["verdict"] != "not-unigraph":
                    raise CheckFailed(f"recognize on a negative: exit {code}, {text.strip()}")
                op = "synthesize"
                if out["synthesize"][0] != 1:
                    raise CheckFailed(f"synthesize on a negative: exit {out['synthesize'][0]}")
                return 0
            for op, (code, _, err) in out.items():
                if code != 0:
                    raise CheckFailed(f"exit {code}: {err.strip()}")
            op = "gen"
            g = RefGraph(ref.vertices, ref.edges)
            written = checks.read_edge_list_text(_read(gpath))
            if (written.vertices, written.edges) != (g.vertices, g.edges):
                raise CheckFailed("generated file differs from the seeded unigraph")
            op = "recognize"
            if json.loads(out["recognize"][1])["verdict"] != "unigraph":
                raise CheckFailed("recognize: not a unigraph")
            op = "synthesize"
            text = _read(xpath).rstrip("\n")
            expr = unicwd.parse(text)
            checks.check_expr(text, expr, g)
            op = "check"
            if out["check"][1].strip() != "equal":
                raise CheckFailed(f"check printed {out['check'][1].strip()!r}")
            op = "solve_mis"
            mis = json.loads(out["solve_mis"][1])
            checks.check_independent(g, mis["value"], mis["witness"])
            op = "solve_ds"
            mds = json.loads(out["solve_ds"][1])
            checks.check_dominating(g, mds["value"], mds["witness"])
        except Exception as exc:
            raise _failed_check(op, exc)
        return checks.count_nodes(expr)

    def cleanup(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None


# ---------------------------------------------------------------------------
# dp-solve


class DpSolve(Workload):
    """solve_mis, solve_vc and solve_mds on expressions built in set-up."""

    def recipes(self, seed):
        return corpus.dp_recipes(seed)

    def setup(self, recipes):
        inputs = []
        for key, recipe in enumerate(recipes):
            e = corpus.dp_expr(recipe)
            g, _, _ = checks.reference_eval(e)
            steps = [
                ("solve_mis", lambda o, e=e: unicwd.solve_mis(e)),
                ("solve_vc", lambda o, e=e: unicwd.solve_vc(e)),
                ("solve_mds", lambda o, e=e: unicwd.solve_mds(e)),
            ]
            inputs.append(Input(key, g.n, g.m, steps, (g, checks.count_nodes(e))))
        return inputs

    def signature(self, inp, out):
        return out["solve_mis"], out["solve_vc"], out["solve_mds"]

    def verify(self, inp, out):
        g, nodes = inp.ref
        op = "solve_mis"
        try:
            mis = out["solve_mis"]
            checks.check_independent(g, *mis)
            op = "solve_vc"
            checks.check_cover(g, *out["solve_vc"], mis[0])
            op = "solve_mds"
            checks.check_dominating(g, *out["solve_mds"])
            op = "brute"
            checks.check_brute(g, mis[0], out["solve_mds"][0])
        except Exception as exc:
            raise _failed_check(op, exc)
        return nodes


WORKLOADS = {"lib-large": LibLarge, "cli-mixed": CliMixed, "dp-solve": DpSolve}


# ---------------------------------------------------------------------------
# the timed phase


@dataclass
class Result:
    untraced: Stats
    traced: Stats | None
    inputs: list
    nodes_by_key: dict  # expression node count of each verified input
    passes: int
    probes: list  # reference probe times, one per untraced run
    search_s: float = 0.0
    setup_s: list = field(default_factory=list)


def timed_phase(wl: Workload, inputs: list[Input], seconds: float, tracer: Tracer | None) -> Result:
    """Closed loop over the inputs; with a tracer, each input runs untraced
    and then traced, and both runs count toward ``seconds``."""
    untraced = Stats()
    traced = Stats() if tracer is not None else None
    probes: list[float] = []
    reference_probe = ReferenceProbe()
    verified: dict[int, object] = {}
    nodes_by_key: dict[int, int] = {}
    # one untimed run first, so that first-call costs (imports, argparse
    # set-up, allocator growth) fall outside the timed phase
    run_steps(inputs[0], Stats())
    spent = 0.0
    done = 0
    while done < len(inputs) or spent < seconds:
        inp = inputs[done % len(inputs)]
        runs = [(untraced, False)] + ([(traced, True)] if tracer is not None else [])
        for stats, with_trace in runs:
            if not with_trace:
                probes.append(reference_probe())
            gc.collect()
            if with_trace:
                tracer.item_id = done
                tracer.install()
                span = tracer.open(ITEM_SPAN)
            t0 = time.perf_counter()
            out = run_steps(inp, stats)
            dt = time.perf_counter() - t0
            if with_trace:
                tracer.close(span)
                tracer.uninstall()
            spent += dt
            stats.timed_s += dt
            if out is None:
                continue
            try:
                sig = wl.signature(inp, out)
                if verified.get(inp.key) != sig:
                    nodes_by_key[inp.key] = wl.verify(inp, out)
                    verified[inp.key] = sig
            except Exception as exc:  # a wrong output is a failed operation
                stats.fail(getattr(exc, "op", "check"), exc)
                continue
            stats.latencies.setdefault(inp.key, []).append(dt)
        done += 1
    return Result(untraced, traced, inputs, nodes_by_key, done // len(inputs), probes)


def run_workload(name: str, seed: int, seconds: float, trace_path: str | None, scratch_root: str) -> tuple[Result, dict | None]:
    """Choose the inputs, set up SETUP_REPEATS times (keeping the last
    inputs), then run the timed phase."""
    wl = WORKLOADS[name](scratch_root)
    try:
        t0 = time.perf_counter()
        recipes = wl.recipes(seed)
        search_s = time.perf_counter() - t0
        setup_s = []
        inputs: list[Input] = []
        for _ in range(SETUP_REPEATS):
            inputs = []
            gc.collect()
            t0 = time.perf_counter()
            inputs = wl.setup(recipes)
            setup_s.append(time.perf_counter() - t0)
        # the inputs live for the whole run: keep the collector from
        # rescanning them at every collection in the timed phase
        gc.collect()
        gc.freeze()
        tracer = Tracer() if trace_path is not None else None
        result = timed_phase(wl, inputs, seconds, tracer)
        result.search_s, result.setup_s = search_s, setup_s
        layer = None
        if tracer is not None:
            overhead = result.traced.timed_s / result.untraced.timed_s - 1.0
            layer = layer_metrics(tracer, overhead)
            tracer.dump(trace_path, {"workload": name, "seed": seed, "failures": result.traced.failures})
        return result, layer
    finally:
        wl.cleanup()


class ReferenceProbe:
    """A fixed task timed before every untraced input, to follow the
    machine's speed: an integer recurrence (interpreter speed) and a sum over
    2^18 int objects visited in shuffled memory order (memory latency). It
    allocates nothing while timed, so the workload's heap does not change
    its cost."""

    def __init__(self) -> None:
        self.values = list(range(1 << 20, (1 << 20) + (1 << 18)))
        random.Random(0).shuffle(self.values)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        x = 1
        for _ in range(50000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        sum(self.values)
        return time.perf_counter() - t0


def speed_factor(result: Result) -> float:
    """Mean reference probe time over the nominal one (> 1: a slow machine)."""
    return statistics.fmean(result.probes) / REFERENCE_NOMINAL_S


def end_to_end(result: Result, peak_rss_mb: float, scale: float = 1.0) -> dict[str, float]:
    """Each input's latency is the median of its finished untraced runs; the
    rates divide the inputs' total size by their total latency (one pass
    over the inputs), and ``item_p50_s`` is the median latency over inputs.
    Times are divided by ``scale`` and rates multiplied by it."""
    lat = {key: statistics.median(ts) for key, ts in result.untraced.latencies.items()}
    total = sum(lat.values())
    sizes = {inp.key: inp.n + inp.m for inp in result.inputs}
    nodes = result.nodes_by_key
    return {
        "setup_s": statistics.median(result.setup_s) / scale,
        "nm_per_s": sum(sizes[k] for k in lat) / total * scale if total else 0.0,
        "nodes_per_s": sum(nodes[k] for k in lat) / total * scale if total else 0.0,
        "item_p50_s": statistics.median(lat.values()) / scale if lat else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "expr_nodes": sum(nodes.values()),
    }
