"""The k-expression term language: AST, parser, printer, evaluator.

Four node kinds build a labeled graph: introduce a labeled vertex, disjoint
union (n-ary), join every label-i vertex to every label-j vertex, and
relabel. Labels are arbitrary positive integers; the width of an expression
is the number of distinct labels appearing anywhere in it.

All traversals (evaluation, width, printing, parsing, ``==``, ``hash`` and
``repr``) are iterative so that deeply chained expressions do not hit the
interpreter recursion limit. Equality is structural and a node caches its
hash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, TypeVar, Union as TUnion

from .graph import Graph, SplittedGraph, _name_error

__all__ = [
    "DuplicateVertexError",
    "ExprStats",
    "Intro",
    "Join",
    "KExpr",
    "KExprSyntaxError",
    "LabeledGraph",
    "Relabel",
    "Union",
    "evaluate",
    "fold_expr",
    "is_split_labeled",
    "iter_nodes",
    "labels_of",
    "parse",
    "stats",
    "to_text",
    "vertex_names",
    "width",
]


def _check_label(value: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"label must be a positive integer, got {value!r}")
    return value


_REPR_TEXT_CHARS = 60


class _Node:
    """Structural, iterative ``==``, cached ``hash`` and a bounded ``repr`` for
    the four node kinds."""

    _hash: int | None = None

    def _fields(self) -> tuple:
        raise NotImplementedError

    def _children(self) -> tuple["KExpr", ...]:
        return ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Node):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            x, y = pairs.pop()
            if x is y:
                continue
            if type(x) is not type(y) or x._fields() != y._fields():
                return False
            xs, ys = x._children(), y._children()
            if len(xs) != len(ys):
                return False
            pairs.extend(zip(xs, ys))
        return True

    def __repr__(self) -> str:
        # the kind, its own fields and a bounded prefix of the text: a
        # field-by-field repr would recurse once per level of the tree
        fields = [repr(f) for f in self._fields()]
        if self._children():
            text = ""
            for piece in _text_pieces(self, check_names=False):
                text += piece
                if len(text) > _REPR_TEXT_CHARS:
                    text = text[:_REPR_TEXT_CHARS] + "..."
                    break
            fields.append(repr(text))
        return f"{type(self).__name__}({', '.join(fields)})"

    def __getstate__(self) -> dict:
        # str hashes differ between processes, so the cache does not travel
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def __hash__(self) -> int:
        if self._hash is None:
            # postorder over the nodes whose hash is not cached yet
            work: list[tuple[_Node, bool]] = [(self, False)]
            while work:
                node, ready = work.pop()
                if node._hash is not None:
                    continue
                kids = node._children()
                if ready:
                    h = hash((type(node).__name__, node._fields(), tuple(c._hash for c in kids)))
                    object.__setattr__(node, "_hash", h)
                else:
                    work.append((node, True))
                    work.extend((c, False) for c in kids)
        return self._hash


@dataclass(frozen=True, eq=False, repr=False)
class Intro(_Node):
    """Introduce a new vertex with the given label."""

    name: str
    label: int

    def __post_init__(self) -> None:
        _check_label(self.label)

    def _fields(self) -> tuple:
        return (self.name, self.label)


@dataclass(frozen=True, eq=False, repr=False)
class Union(_Node):
    """Disjoint union of two or more subexpressions."""

    children: tuple["KExpr", ...]

    def __init__(self, *children: "KExpr") -> None:
        if len(children) == 1 and isinstance(children[0], tuple):
            children = children[0]
        if len(children) < 2:
            raise ValueError("union needs at least two subexpressions")
        object.__setattr__(self, "children", tuple(children))

    def _fields(self) -> tuple:
        return ()

    def _children(self) -> tuple["KExpr", ...]:
        return self.children


@dataclass(frozen=True, eq=False, repr=False)
class Join(_Node):
    """Add every absent edge between label-i and label-j vertices (i != j)."""

    i: int
    j: int
    child: "KExpr"

    def __post_init__(self) -> None:
        _check_label(self.i)
        _check_label(self.j)
        if self.i == self.j:
            raise ValueError("join labels must differ")

    def _fields(self) -> tuple:
        return (self.i, self.j)

    def _children(self) -> tuple["KExpr", ...]:
        return (self.child,)


@dataclass(frozen=True, eq=False, repr=False)
class Relabel(_Node):
    """Rewrite every occurrence of label ``old`` to ``new``."""

    old: int
    new: int
    child: "KExpr"

    def __post_init__(self) -> None:
        _check_label(self.old)
        _check_label(self.new)

    def _fields(self) -> tuple:
        return (self.old, self.new)

    def _children(self) -> tuple["KExpr", ...]:
        return (self.child,)


KExpr = TUnion[Intro, Union, Join, Relabel]


@dataclass(frozen=True)
class ExprStats:
    distinct_labels: int
    node_count: int
    depth: int


@dataclass(frozen=True)
class LabeledGraph:
    """Evaluation result: a graph plus one positive integer label per vertex."""

    graph: Graph
    labels: Mapping[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", dict(self.labels))

    def label_classes(self) -> dict[int, frozenset[str]]:
        classes: dict[int, set[str]] = {}
        for v, lab in self.labels.items():
            classes.setdefault(lab, set()).add(v)
        return {lab: frozenset(vs) for lab, vs in classes.items()}


class DuplicateVertexError(ValueError):
    def __init__(self, name: str) -> None:
        super().__init__(f"vertex name {name!r} is introduced more than once")
        self.name = name


T = TypeVar("T")


def iter_nodes(e: KExpr) -> Iterator[KExpr]:
    """All nodes of the expression tree, preorder, iteratively."""
    stack: list[KExpr] = [e]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Union):
            stack.extend(reversed(node.children))
        elif isinstance(node, (Join, Relabel)):
            stack.append(node.child)


def fold_expr(
    e: KExpr,
    intro: Callable[[Intro], T],
    union: Callable[[Union, list[T]], T],
    join: Callable[[Join, T], T],
    relabel: Callable[[Relabel, T], T],
) -> T:
    """Iterative postorder fold over the expression tree."""
    work: list[tuple[KExpr, bool]] = [(e, False)]
    values: list[T] = []
    while work:
        node, ready = work.pop()
        if not ready:
            work.append((node, True))
            if isinstance(node, Union):
                for child in reversed(node.children):
                    work.append((child, False))
            elif isinstance(node, (Join, Relabel)):
                work.append((node.child, False))
        else:
            if isinstance(node, Intro):
                values.append(intro(node))
            elif isinstance(node, Union):
                k = len(node.children)
                args = values[-k:]
                del values[-k:]
                values.append(union(node, args))
            elif isinstance(node, Join):
                values.append(join(node, values.pop()))
            else:
                values.append(relabel(node, values.pop()))
    return values[0]


def labels_of(e: KExpr) -> frozenset[int]:
    """Distinct label values appearing anywhere in the expression."""
    labels: set[int] = set()
    for node in iter_nodes(e):
        if isinstance(node, Intro):
            labels.add(node.label)
        elif isinstance(node, Join):
            labels.add(node.i)
            labels.add(node.j)
        elif isinstance(node, Relabel):
            labels.add(node.old)
            labels.add(node.new)
    return frozenset(labels)


def width(e: KExpr) -> int:
    return len(labels_of(e))


def vertex_names(e: KExpr) -> tuple[str, ...]:
    return tuple(node.name for node in iter_nodes(e) if isinstance(node, Intro))


def stats(e: KExpr) -> ExprStats:
    count = 0
    for _ in iter_nodes(e):
        count += 1
    depth = fold_expr(
        e,
        intro=lambda _: 1,
        union=lambda _, ds: 1 + max(ds),
        join=lambda _, d: 1 + d,
        relabel=lambda _, d: 1 + d,
    )
    return ExprStats(distinct_labels=width(e), node_count=count, depth=depth)


# ---------------------------------------------------------------------------
# evaluation

# label classes, and the neighbour set of every vertex introduced so far
_EvalState = tuple[dict[int, set[str]], dict[str, set[str]]]


def evaluate(e: KExpr) -> LabeledGraph:
    """Build the labeled graph denoted by the expression.

    Deterministic; raises DuplicateVertexError when two Intro nodes share a
    vertex name. A join adds the other class to each vertex's neighbour set
    in one set union, so no edge pair is ever materialized.
    """

    def on_intro(node: Intro) -> _EvalState:
        return ({node.label: {node.name}}, {node.name: set()})

    def on_union(_: Union, parts: list[_EvalState]) -> _EvalState:
        parts.sort(key=lambda p: len(p[1]), reverse=True)
        classes, adj = parts[0]
        for cls, part_adj in parts[1:]:
            overlap = adj.keys() & part_adj.keys()
            if overlap:
                raise DuplicateVertexError(sorted(overlap)[0])
            adj.update(part_adj)
            for lab, vs in cls.items():
                if lab in classes:
                    classes[lab] |= vs
                else:
                    classes[lab] = vs
        return classes, adj

    def on_join(node: Join, state: _EvalState) -> _EvalState:
        classes, adj = state
        li = classes.get(node.i)
        lj = classes.get(node.j)
        if li and lj:  # the classes are disjoint, so no self-loop arises
            for u in li:
                adj[u] |= lj
            for v in lj:
                adj[v] |= li
        return state

    def on_relabel(node: Relabel, state: _EvalState) -> _EvalState:
        classes, _ = state
        if node.old != node.new and node.old in classes:
            moved = classes.pop(node.old)
            if node.new in classes:
                classes[node.new] |= moved
            else:
                classes[node.new] = moved
        return state

    classes, adj = fold_expr(e, on_intro, on_union, on_join, on_relabel)
    labels = {v: lab for lab, vs in classes.items() for v in vs}
    return LabeledGraph(Graph._from_adjacency({v: frozenset(ns) for v, ns in adj.items()}), labels)


def is_split_labeled(e: KExpr, s: SplittedGraph) -> bool:
    """True iff the evaluation equals s.graph by vertex name with the clique
    part labeled 1 and the independent part labeled 2."""
    result = evaluate(e)
    if result.graph != s.graph:
        return False
    return all(
        result.labels[v] == (1 if v in s.clique_part else 2) for v in s.graph.vertices
    )


# ---------------------------------------------------------------------------
# textual grammar


class KExprSyntaxError(ValueError):
    """Parse error with a 1-based line/column position."""

    def __init__(self, line: int, col: int, message: str) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_Token = tuple[str, str, int, int]  # kind, text, line, col


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == "#":
            while i < length and text[i] != "\n":
                i += 1
        elif ch == "(":
            tokens.append(("(", "(", line, col))
            col += 1
            i += 1
        elif ch == ")":
            tokens.append((")", ")", line, col))
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < length and text[i] not in " \t\r\n()#":
                i += 1
                col += 1
            tokens.append(("atom", text[start:i], line, start_col))
    return tokens


def _posint(tok: _Token, what: str) -> int:
    _, text, line, col = tok
    if not text.isdigit() or int(text) < 1:
        raise KExprSyntaxError(line, col, f"expected positive integer {what}, got {text!r}")
    return int(text)


def parse(text: str) -> KExpr:
    """Parse the parenthesized prefix grammar.

    ``(v NAME LABEL)``, ``(u e1 e2 ...)``, ``(j I J e)``, ``(r OLD NEW e)``;
    whitespace-insensitive, ``#`` comments run to end of line.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise KExprSyntaxError(1, 1, "empty input, expected an expression")

    # frames: [op_token, item, item, ...]; items are tokens or finished nodes
    stack: list[list] = []
    result: KExpr | None = None
    pos = 0
    while pos < len(tokens):
        tok = tokens[pos]
        kind, text_, line, col = tok
        if result is not None:
            raise KExprSyntaxError(line, col, "unexpected input after expression")
        if kind == "(":
            pos += 1
            if pos >= len(tokens) or tokens[pos][0] != "atom":
                raise KExprSyntaxError(line, col, "expected operator after '('")
            op = tokens[pos]
            if op[1] not in ("v", "u", "j", "r"):
                raise KExprSyntaxError(
                    op[2], op[3], f"expected operator 'v', 'u', 'j' or 'r', got {op[1]!r}"
                )
            stack.append([op])
            pos += 1
        elif kind == ")":
            if not stack:
                raise KExprSyntaxError(line, col, "unmatched ')'")
            node = _reduce(stack.pop(), tok)
            if stack:
                stack[-1].append(node)
            else:
                result = node
            pos += 1
        else:
            if not stack:
                raise KExprSyntaxError(line, col, "expected '('")
            stack[-1].append(tok)
            pos += 1
    if result is None:
        last = tokens[-1]
        raise KExprSyntaxError(last[2], last[3], "unexpected end of input, expected ')'")
    return result


def _reduce(frame: list, closer: _Token) -> KExpr:
    op = frame[0]
    items = frame[1:]
    _, opname, line, col = op

    def is_node(x: object) -> bool:
        return isinstance(x, (Intro, Union, Join, Relabel))

    if opname == "v":
        if len(items) != 2 or is_node(items[0]) or is_node(items[1]):
            raise KExprSyntaxError(line, col, "expected (v NAME LABEL)")
        name_tok, label_tok = items
        problem = _name_error(name_tok[1])
        if problem:
            raise KExprSyntaxError(name_tok[2], name_tok[3], problem)
        return Intro(name_tok[1], _posint(label_tok, "label"))
    if opname == "u":
        if len(items) < 2 or not all(is_node(x) for x in items):
            raise KExprSyntaxError(line, col, "union needs at least two subexpressions")
        return Union(tuple(items))
    # j / r take two labels and one subexpression
    if len(items) != 3 or is_node(items[0]) or is_node(items[1]) or not is_node(items[2]):
        shape = "(j I J expr)" if opname == "j" else "(r OLD NEW expr)"
        raise KExprSyntaxError(line, col, f"expected {shape}")
    a = _posint(items[0], "label")
    b = _posint(items[1], "label")
    if opname == "j":
        if a == b:
            raise KExprSyntaxError(items[0][2], items[0][3], "join labels must differ")
        return Join(a, b, items[2])
    return Relabel(a, b, items[2])


def to_text(e: KExpr) -> str:
    """Normalized textual form; ``parse(to_text(e)) == e``.

    Raises ValueError for a vertex name the grammar cannot hold.
    """
    return "".join(_text_pieces(e, check_names=True))


def _text_pieces(e: KExpr, check_names: bool) -> Iterator[str]:
    """The pieces of ``to_text(e)`` in order, produced lazily and iteratively."""
    stack: list[TUnion[KExpr, str]] = [e]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            yield item
            continue
        if isinstance(item, Intro):
            problem = _name_error(item.name) if check_names else None
            if problem:
                raise ValueError(problem)
            yield f"(v {item.name} {item.label})"
        elif isinstance(item, Union):
            yield "(u"
            stack.append(")")
            for child in reversed(item.children):
                stack.append(child)
                stack.append(" ")
        elif isinstance(item, Join):
            yield f"(j {item.i} {item.j}"
            stack.append(")")
            stack.append(item.child)
            stack.append(" ")
        else:
            yield f"(r {item.old} {item.new}"
            stack.append(")")
            stack.append(item.child)
            stack.append(" ")
