"""Call spans around the package's public functions, for the traced run.

Every plain function named in the ``__all__`` of the layers ``graph``,
``decomp``, ``catalog``, ``synth``, ``kexpr`` and ``solve``, plus
``Graph.__init__`` and ``cli.main``, is replaced by a wrapper that records
one span per call: name, start, end, parent span and input id. The wrapper
is bound in every ``unicwd.*`` namespace that holds the original, so calls
between layers are seen as well as calls from the benchmark. Spans are kept
in memory as flat arrays and written as JSON when the run ends.

A span's self time is its duration minus the part covered by its child
spans. ``kexpr.fold_expr`` runs callbacks that belong to its caller (the
evaluator's and the solvers' per-node steps), so its self time is charged
to the calling span. The benchmark's own per-input span (``bench.item``) is
the root of each input's tree, so its self time is glue outside every layer.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("graph", "decomp", "catalog", "synth", "kexpr", "solve")
ITEM_SPAN = "bench.item"
_MATCHERS = ("catalog.match_split_component", "catalog.match_nonsplit_component")
_CHARGED_TO_CALLER = ("kexpr.fold_expr",)


class Tracer:
    """Span store plus the wrappers that fill it; install() / uninstall()."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.stack: list[int] = []
        self.item_id = -1
        # counters taken at the wrapped boundaries
        self.edges_built = 0
        self.matches_found = 0
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        idx = len(self.name_id)
        self.name_id.append(self._intern(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.item_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        stack, name_ids, parents, items = self.stack, self.name_id, self.parent, self.item
        starts, ends = self.start, self.end
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            items.append(tracer.item_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _wrap_counting(self, name: str, fn, count):
        inner = self._wrap(name, fn)

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_graph(self, args, _result) -> None:
        self.edges_built += len(args[0].edges)

    def _count_match(self, _args, result) -> None:
        if result is not None:
            self.matches_found += 1

    def install(self) -> None:
        """Bind a wrapper in place of every traced function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"unicwd.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and id(fn) not in wrappers:
                    name = f"{layer}.{attr}"
                    if name in _MATCHERS:
                        wrappers[id(fn)] = self._wrap_counting(name, fn, self._count_match)
                    else:
                        wrappers[id(fn)] = self._wrap(name, fn)
        cli = importlib.import_module("unicwd.cli")
        wrappers[id(cli.main)] = self._wrap("cli.main", cli.main)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "unicwd" or modname.startswith("unicwd.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        graph_cls = importlib.import_module("unicwd.graph").Graph
        init = graph_cls.__init__
        self._patches.append((graph_cls, "__init__", init))
        graph_cls.__init__ = self._wrap_counting("graph.Graph", init, self._count_graph)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: str, meta: dict) -> None:
        """Write every span as gzip-compressed JSON (column arrays)."""
        doc = {
            **meta,
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "item"],
            "name": list(self.name_id),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "item": list(self.item),
            "counters": {"edges_built": self.edges_built, "matches_found": self.matches_found},
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def self_times(parent, start, end, charged_to_caller=()) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans whose index is in ``charged_to_caller`` hand their self time to
    their parent (children are recorded after their parents, so a reverse
    scan passes it up through chains of such spans).
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    for i in sorted(charged_to_caller, reverse=True):
        if parent[i] >= 0:
            out[parent[i]] += out[i]
            out[i] = 0.0
    return out


# (function span, metrics) in report order; the layer totals and the
# derived ratios follow in PER_LAYER.
_FUNCTION_METRICS = (
    ("graph.read_edge_list", ("self_s", "calls")),
    ("graph.to_edge_list", ("self_s",)),
    ("graph.Graph", ("self_s", "calls")),
    ("graph.induced", ("self_s", "calls")),
    ("graph.complement", ("self_s", "calls")),
    ("graph.rename", ("self_s",)),
    ("graph.is_clique", ("self_s",)),
    ("graph.is_independent", ("self_s",)),
    ("graph.split_bipartition", ("self_s",)),
    ("decomp.decompose", ("self_s",)),
    ("decomp.find_top_split", ("self_s", "calls")),
    ("decomp.compose", ("self_s", "calls")),
    ("catalog.is_unigraph", ("self_s",)),
    ("catalog.match_split_component", ("self_s", "calls")),
    ("catalog.match_nonsplit_component", ("self_s", "calls")),
    ("catalog.build_template", ("self_s",)),
    ("synth.synthesize", ("self_s",)),
    ("synth.synth_split", ("self_s", "calls")),
    ("synth.synth_nonsplit", ("self_s",)),
    ("synth.synth_cograph", ("self_s", "calls")),
    ("synth.glue_split", ("self_s", "calls")),
    ("synth.glue_tail", ("self_s",)),
    ("kexpr.evaluate", ("self_s", "calls")),
    ("kexpr.width", ("self_s", "calls")),
    ("kexpr.to_text", ("self_s",)),
    ("kexpr.parse", ("self_s",)),
    ("solve.solve_mis", ("self_s",)),
    ("solve.solve_vc", ("self_s",)),
    ("solve.solve_mds", ("self_s",)),
    ("cli.main", ("self_s", "calls")),
)
_ALL_LAYERS = LAYERS + ("cli",)
_UNITS = {"self_s": "s", "calls": "count"}

PER_LAYER: tuple[tuple[str, str], ...] = (
    tuple((f"{fn}.{kind}", _UNITS[kind]) for fn, kinds in _FUNCTION_METRICS for kind in kinds)
    + tuple((f"{layer}.self_s", "s") for layer in _ALL_LAYERS)
    + (
        ("graph.Graph.edges_built", "count"),
        ("catalog.match_yield", "ratio"),
        ("kexpr.evaluate.calls_per_item", "calls/item"),
        ("bench.item.self_s", "s"),
        ("trace.timed_wall_s", "s"),
        ("trace.coverage_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
    )
)


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, float]:
    """Every PER_LAYER value from the recorded spans and counters.

    Self times and call counts are totals over the traced timed phase;
    ``trace.coverage_frac`` is the layers' self time over the traced wall
    time of the inputs, and ``catalog.match_yield`` is successful matches
    over ``apply_variant`` calls made under a match span.
    """
    names = [tracer.names[i] for i in tracer.name_id]
    charged = [i for i, name in enumerate(names) if name in _CHARGED_TO_CALLER]
    own = self_times(tracer.parent, tracer.start, tracer.end, charged)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    wall = 0.0
    items = 0
    applies = 0
    for i, name in enumerate(names):
        self_s[name] = self_s.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        if name == ITEM_SPAN:
            wall += tracer.end[i] - tracer.start[i]
            items += 1
        elif name == "catalog.apply_variant":
            p = tracer.parent[i]
            while p >= 0 and names[p] not in _MATCHERS:
                p = tracer.parent[p]
            applies += p >= 0
    out: dict[str, float] = {}
    for fn, kinds in _FUNCTION_METRICS:
        for kind in kinds:
            out[f"{fn}.{kind}"] = self_s.get(fn, 0.0) if kind == "self_s" else calls.get(fn, 0)
    layer_total = 0.0
    for layer in _ALL_LAYERS:
        total = sum(v for name, v in self_s.items() if name.startswith(layer + "."))
        out[f"{layer}.self_s"] = total
        layer_total += total
    out["graph.Graph.edges_built"] = tracer.edges_built
    out["catalog.match_yield"] = tracer.matches_found / applies if applies else 0.0
    out["kexpr.evaluate.calls_per_item"] = calls.get("kexpr.evaluate", 0) / items if items else 0.0
    out["bench.item.self_s"] = self_s.get(ITEM_SPAN, 0.0)
    out["trace.timed_wall_s"] = wall
    out["trace.coverage_frac"] = layer_total / wall if wall else 0.0
    out["trace.overhead_frac"] = overhead_frac
    return out
