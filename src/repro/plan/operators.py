"""Execution-plan nodes and plain (no-reuse) evaluation.

A compiled plan is a DAG of operator nodes evaluated one page at a
time. Tuples are dicts mapping variable names to values — spans
(:class:`~repro.text.span.Span`, absolute page offsets) or scalars.
Common subtrees are shared across rules (the compiler does CSE), so
evaluation memoizes node outputs per page.

There is one walker (:func:`plan_walker`); callers differ only in the
step they plug in where the plan meets an IE blackbox — plain
extraction (:func:`evaluate_plain`), the reuse engine's capture/reuse
logic at IE-unit tops, or the optimizer's profiling.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..extractors.base import Extraction, Extractor, RelSpan
from ..text.span import Span
from ..xlog.ast import Term, Var
from ..xlog.registry import EvalContext, PFunctionEntry

TupleRow = Dict[str, object]


class Node:
    """Base class of plan nodes. Nodes are immutable once built."""

    def __init__(self, children: Sequence["Node"]) -> None:
        self.children: Tuple[Node, ...] = tuple(children)
        self.out_vars: frozenset = frozenset()
        self._signature: Optional[str] = None

    def _sig_body(self) -> str:
        raise NotImplementedError

    @property
    def signature(self) -> str:
        """Canonical structural key (used for CSE and stable unit ids)."""
        if self._signature is None:
            inner = ",".join(c.signature for c in self.children)
            self._signature = f"{self._sig_body()}[{inner}]"
        return self._signature

    @property
    def short_id(self) -> str:
        return hashlib.sha1(self.signature.encode()).hexdigest()[:10]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._sig_body()})"


class ScanNode(Node):
    """``docs(d)`` — emits one tuple binding ``var`` to the whole page."""

    def __init__(self, var: str) -> None:
        super().__init__(())
        self.var = var
        self.out_vars = frozenset([var])

    def _sig_body(self) -> str:
        return f"scan:{self.var}"


class IENode(Node):
    """An IE predicate application: run ``extractor`` on the region
    bound to ``in_var`` and extend tuples with its outputs.

    ``out_args`` are the program-level variable names, positionally
    aligned with ``extractor.output_vars``.
    """

    def __init__(self, child: Node, extractor: Extractor, in_var: str,
                 out_args: Sequence[str]) -> None:
        super().__init__((child,))
        if len(out_args) != len(extractor.output_vars):
            raise ValueError(
                f"{extractor.name}: expected {len(extractor.output_vars)} "
                f"output arguments, got {len(out_args)}")
        self.extractor = extractor
        self.in_var = in_var
        self.out_args = tuple(out_args)
        self.out_vars = child.out_vars | frozenset(out_args)
        self._rename = dict(zip(extractor.output_vars, out_args))

    @property
    def child(self) -> Node:
        return self.children[0]

    def span_out_args(self) -> Tuple[str, ...]:
        """Output argument names carrying spans (vs scalars)."""
        scalars = set(getattr(self.extractor, "scalars", ()) or ())
        return tuple(self._rename[v] for v in self.extractor.output_vars
                     if v not in scalars)

    def extension_fields(self, extraction: Extraction,
                         region: Span) -> Dict[str, object]:
        """Convert one extraction into absolute-offset tuple fields."""
        fields: Dict[str, object] = {}
        for var, value in extraction.fields:
            name = self._rename[var]
            if isinstance(value, RelSpan):
                fields[name] = Span(region.did, region.start + value.start,
                                    region.start + value.end)
            else:
                fields[name] = value
        return fields

    def _sig_body(self) -> str:
        return (f"ie:{self.extractor.name}:{self.in_var}"
                f"->{','.join(self.out_args)}")


class SelectNode(Node):
    """A p-function selection σ."""

    def __init__(self, child: Node, entry: PFunctionEntry,
                 args: Sequence[Term]) -> None:
        super().__init__((child,))
        self.entry = entry
        self.args = tuple(args)
        self.out_vars = child.out_vars

    @property
    def child(self) -> Node:
        return self.children[0]

    def arg_vars(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.args if isinstance(a, Var))

    def passes(self, row: TupleRow, ctx: EvalContext) -> bool:
        values = [row[a.name] if isinstance(a, Var) else a for a in self.args]
        return bool(self.entry.func(ctx, *values))

    def _sig_body(self) -> str:
        inner = ",".join(
            a.name if isinstance(a, Var) else repr(a) for a in self.args)
        return f"select:{self.entry.name}({inner})"


class ProjectNode(Node):
    """A projection π, optionally renaming (for derived-atom use)."""

    def __init__(self, child: Node,
                 mappings: Sequence[Tuple[str, str]]) -> None:
        super().__init__((child,))
        self.mappings = tuple(mappings)  # (out_name, in_name)
        self.out_vars = frozenset(out for out, _ in self.mappings)
        missing = [src for _, src in self.mappings
                   if src not in child.out_vars]
        if missing:
            raise ValueError(f"projection sources {missing} not available "
                             f"from {sorted(child.out_vars)}")

    @property
    def child(self) -> Node:
        return self.children[0]

    def is_rename_free(self) -> bool:
        return all(out == src for out, src in self.mappings)

    def apply(self, row: TupleRow) -> TupleRow:
        return {out: row[src] for out, src in self.mappings}

    def _sig_body(self) -> str:
        inner = ",".join(f"{o}<-{s}" for o, s in self.mappings)
        return f"project:{inner}"


class UnionNode(Node):
    """Set union of same-schema subplans (multiple rules, one head)."""

    def __init__(self, children: Sequence[Node]) -> None:
        if len(children) < 2:
            raise ValueError("union needs at least two branches")
        super().__init__(children)
        schema = children[0].out_vars
        for child in children[1:]:
            if child.out_vars != schema:
                raise ValueError(
                    f"union branches disagree on schema: "
                    f"{sorted(schema)} vs {sorted(child.out_vars)}")
        self.out_vars = schema

    def _sig_body(self) -> str:
        return "union"


class JoinNode(Node):
    """Natural join of two subplans on their shared variables."""

    def __init__(self, left: Node, right: Node) -> None:
        super().__init__((left, right))
        self.on = tuple(sorted(left.out_vars & right.out_vars))
        self.out_vars = left.out_vars | right.out_vars

    @property
    def left(self) -> Node:
        return self.children[0]

    @property
    def right(self) -> Node:
        return self.children[1]

    def _sig_body(self) -> str:
        return f"join:{','.join(self.on)}"


def canonical_row_key(row: TupleRow) -> str:
    """Total, input-order-independent sort key for one tuple.

    The key is the ``repr`` of the row's (var, value) pairs sorted by
    variable name. Variable names are unique within a row, so values
    (spans, scalars, mixed types) are never compared against each
    other, and ``repr`` of spans/scalars is process-independent — two
    distinct rows can never collide, which is the documented tie-break:
    there are no ties.
    """
    return repr(tuple(sorted(row.items())))


def hash_join(left_rows: List[TupleRow], right_rows: List[TupleRow],
              on: Sequence[str]) -> List[TupleRow]:
    """Hash join on equality of the ``on`` variables.

    Output order is canonical (sorted by :func:`canonical_row_key`),
    so reordering either input reorders nothing downstream — the
    property the delta-vs-batch byte-stability comparisons rely on.
    Duplicate joined rows (legitimate multiplicities) are preserved.
    """
    if not on:
        out = [{**l, **r} for l in left_rows for r in right_rows]
        out.sort(key=canonical_row_key)
        return out
    buckets: Dict[Tuple, List[TupleRow]] = {}
    for row in left_rows:
        buckets.setdefault(tuple(row[v] for v in on), []).append(row)
    out = []
    for row in right_rows:
        for match in buckets.get(tuple(row[v] for v in on), ()):
            out.append({**match, **row})
    out.sort(key=canonical_row_key)
    return out


def dedupe_rows(rows: List[TupleRow]) -> List[TupleRow]:
    """Remove duplicate tuples; output in canonical sorted order.

    Sorting by :func:`canonical_row_key` (instead of the historical
    first-seen order) makes the result independent of input order —
    required for delta-applied and batch-recomputed plans to agree
    byte-for-byte, not just as sets.
    """
    by_key: Dict[Tuple, TupleRow] = {}
    for row in rows:
        key = tuple(sorted(row.items()))
        if key not in by_key:
            by_key[key] = row
    return [by_key[key] for key in sorted(by_key, key=repr)]


# -- evaluation ---------------------------------------------------------------

Evaluate = Callable[[Node], List[TupleRow]]
#: A walker hook: ``step(node, evaluate)`` returns the node's rows, or
#: None to leave the node to the relational dispatch.
Step = Callable[[Node, Evaluate], Optional[List[TupleRow]]]


def plan_walker(page_text: str, did: str,
                memo: Dict[int, List[TupleRow]], step: Step) -> Evaluate:
    """The one relational plan walker: σ/π/⋈/∪/scan over one page.

    Returns ``evaluate(node)``, memoizing node outputs in ``memo`` by
    ``id(node)`` (common subplans are shared; pass a fresh dict per
    page, or one seeded with precomputed node outputs). What happens
    where the plan meets an IE blackbox is the caller's ``step``: it
    sees every node first and either returns its rows (an IE node run
    plainly, an IE-unit top run with reuse or profiling) or None.
    """
    ctx = EvalContext(page_text, did)

    def evaluate(node: Node) -> List[TupleRow]:
        key = id(node)
        if key in memo:
            return memo[key]
        rows = step(node, evaluate)
        if rows is None:
            if isinstance(node, ScanNode):
                rows = [{node.var: Span(did, 0, len(page_text))}]
            elif isinstance(node, SelectNode):
                rows = [r for r in evaluate(node.child)
                        if node.passes(r, ctx)]
            elif isinstance(node, ProjectNode):
                rows = dedupe_rows([node.apply(r)
                                    for r in evaluate(node.child)])
            elif isinstance(node, JoinNode):
                rows = hash_join(evaluate(node.left), evaluate(node.right),
                                 node.on)
            elif isinstance(node, UnionNode):
                rows = dedupe_rows([row for child in node.children
                                    for row in evaluate(child)])
            elif isinstance(node, IENode):
                raise AssertionError(
                    f"IENode {node.extractor.name} left to the relational "
                    "dispatch — the walker's step must run every IE node "
                    "(unit identification is broken)")
            else:
                raise TypeError(f"unknown node type {type(node).__name__}")
        memo[key] = rows
        return rows

    return evaluate


def _extract(extractor: Extractor, text: str) -> Sequence[Extraction]:
    return extractor.extract(text)


def plain_ie_step(page_text: str,
                  extract: Callable[[Extractor, str],
                                    Sequence[Extraction]] = _extract) -> Step:
    """The from-scratch step: run each IE node's blackbox on every
    input region. ``extract`` makes the blackbox call (callers that
    account extraction time wrap it)."""

    def step(node: Node, evaluate: Evaluate) -> Optional[List[TupleRow]]:
        if not isinstance(node, IENode):
            return None
        rows: List[TupleRow] = []
        for row in evaluate(node.child):
            region = row[node.in_var]
            if not isinstance(region, Span):
                raise TypeError(
                    f"{node.extractor.name}: input {node.in_var!r} is not "
                    "a span")
            text = page_text[region.start:region.end]
            for extraction in extract(node.extractor, text):
                rows.append({**row, **node.extension_fields(extraction,
                                                            region)})
        return rows

    return step


def evaluate_plain(node: Node, page_text: str, did: str,
                   memo: Dict[int, List[TupleRow]]) -> List[TupleRow]:
    """Evaluate a plan node on one page with no reuse.

    ``memo`` caches node outputs by ``id(node)`` for DAG sharing; pass a
    fresh dict per page.
    """
    return plan_walker(page_text, did, memo, plain_ie_step(page_text))(node)
