"""Conditional rule schemata: validation, matching, and application.

Matching finds, in one search, the injective premorphisms from the left
graph into the host graph, infers the unique assignment that makes each
one label-preserving, and keeps those that pass the rule condition and
the dangling condition.  Applying a match rewrites a copy of the host, or
the host itself where a run owns it.

Each rule graph is compiled once, on first use, into one record
(`_Compiled`) that matching and rewriting only read; adding a node or an
edge drops it.  Its slots are the sorted nodes, then the sorted edges, and
a match is the tuple of host ids in slot order.  A schema's record
(`_Rule`) holds its search, which `matcher.generate` writes for it: the
search unifies, and tests the condition and the dangling condition as
soon as their items are bound; it starts at marked items where the left
graph has them, read from the host's marked index (`HostGraph.marked`),
and where a right label can raise it evaluates the right labels last.
The record adds, from its first application, its rewrite
(`matcher.generate_rewrite`): straight-line code that evaluates the right
labels, then rewrites, its mark classes fixed when the rule is compiled.

There is one match path.  `enumerate_matches` yields every applicable
match with its assignment, sorted by slot tuple so that a seeded run does
not depend on the plan; `apply` rewrites at one.  `infer_assignment`
reads the search of the rule that keeps its left graph as it is, which
is generated only when it is asked for.

Which loops the explorer reduces, and by which matches, is decided in
`gp2.confluence`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .graphs import HostGraph, IsoStore, Premorphism
from .labels import (
    Assignment,
    Condition,
    EdgePred,
    Eq,
    EvalError,
    LabelTypeError,
    Rel,
    RuleLabel,
    TypeCheck,
    VType,
    condition_nodes,
    degree_nodes,
    eval_condition,  # unused: bound only because perfbench/tracer.py asserts it
    eval_list,  # unused: bound only because perfbench/tracer.py asserts it
    infer_type,
    is_simple,
    operands,
    subterms,
    variables,
)
from .matcher import generate, generate_rewrite


@dataclass(frozen=True)
class RuleEdge:
    source: str
    target: str
    label: RuleLabel


class RuleGraph:
    """A graph labelled with expressions, used for rule sides."""

    def __init__(self) -> None:
        self.nodes: dict[str, RuleLabel] = {}
        self.edges: dict[str, RuleEdge] = {}
        self._compiled: Optional[_Compiled] = None  # built on first use

    def add_node(self, node_id: str, label: RuleLabel) -> None:
        self.nodes[node_id] = label
        self._compiled = None

    def add_edge(self, edge_id: str, source: str, target: str, label: RuleLabel) -> None:
        self.edges[edge_id] = RuleEdge(source, target, label)
        self._compiled = None


@dataclass
class ConditionalRuleSchema:
    name: str
    variables: dict[str, VType]
    left: RuleGraph
    interface: frozenset[str]
    right: RuleGraph
    condition: Optional[Condition] = None
    # built on first use
    _rule: Optional[_Rule] = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Violation:
    rule: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.location}: {self.message}"


def validate(schema: ConditionalRuleSchema) -> list[Violation]:
    """Check a schema against the well-formedness rules; empty list means ok."""
    out: list[Violation] = []

    def bad(location: str, message: str) -> None:
        out.append(Violation(schema.name, location, message))

    for nid in sorted(schema.interface):
        if nid not in schema.left.nodes:
            bad(f"interface node {nid}", "not present in left graph")
        if nid not in schema.right.nodes:
            bad(f"interface node {nid}", "not present in right graph")

    def items():
        """(side, location, label, unknown endpoints) of left nodes, left
        edges, right nodes and right edges, in that order."""
        for side, graph in (("left", schema.left), ("right", schema.right)):
            for nid, label in graph.nodes.items():
                yield side, f"{side} node {nid}", label, ()
            for eid, e in graph.edges.items():
                ends = [n for n in (e.source, e.target) if n not in graph.nodes]
                yield side, f"{side} edge {eid}", e.label, ends

    left_vars = {
        v for side, _, label, _ in items() if side == "left" for v in variables(label.expr)
    }
    for side, location, label, unknown in items():
        try:
            infer_type(label.expr, schema.variables)
        except LabelTypeError as exc:
            bad(location, str(exc))
        else:
            if side == "left" and not is_simple(label.expr):
                bad(location, f"left-hand expression {label.expr} is not simple")
            for node in sorted(degree_nodes(label.expr)):
                if node not in schema.left.nodes:
                    bad(location, f"degree operand {node!r} is not a left-graph node")
        extra = variables(label.expr) - left_vars  # empty on the left
        if extra:
            bad(location, f"variables {sorted(extra)} do not occur on the left")
        for endpoint in unknown:
            bad(location, f"unknown endpoint {endpoint!r}")

    if schema.condition is not None:
        extra = variables(schema.condition) - left_vars
        if extra:
            bad("condition", f"variables {sorted(extra)} do not occur on the left")
        for node in sorted(condition_nodes(schema.condition)):
            if node not in schema.left.nodes:
                bad("condition", f"node {node!r} is not a left-graph node")
        try:
            _check_condition_types(schema.condition, schema.variables)
        except LabelTypeError as exc:
            bad("condition", str(exc))

    return out


def _check_condition_types(c: Condition, decls: dict[str, VType]) -> None:
    for t in subterms(c):
        if isinstance(t, (TypeCheck, Eq, Rel, EdgePred)):
            for side in operands(t):
                if infer_type(side, decls) is not VType.INT and isinstance(t, Rel):
                    raise LabelTypeError(f"relational operands must be integers in {t}")


# -- the compiled records ---------------------------------------------


class _Compiled:
    """What matching and rewriting read of one rule graph.

    The slots are the sorted nodes, then the sorted edges, and `slot` maps
    each node to its slot.  A left graph's `search` is that of the rule
    that keeps it (`_left`), generated when `infer_assignment` first asks
    for it."""

    __slots__ = ("nodes", "edges", "slot", "search")

    def __init__(self, graph: RuleGraph) -> None:
        self.nodes, self.edges = sorted(graph.nodes), sorted(graph.edges)
        self.slot = {nid: i for i, nid in enumerate(self.nodes)}
        self.search: Optional[Callable] = None


def _compiled(graph: RuleGraph) -> _Compiled:
    if graph._compiled is None:
        graph._compiled = _Compiled(graph)
    return graph._compiled


def _left(graph: RuleGraph) -> _Compiled:
    """The record of a left graph, with the search of the rule keeping it."""
    compiled = _compiled(graph)
    if compiled.search is None:
        keep = ConditionalRuleSchema("", {}, graph, frozenset(graph.nodes), graph)
        compiled.search = generate(keep, compiled)
    return compiled


class _Rule:
    """What matching and rewriting read of one schema: its graphs' records,
    its generated search (`matcher.generate`) and its generated rewrite
    (`matcher.generate_rewrite`), each of which evaluates the right labels
    itself.  `loops` holds the explorer's verdict on loops of each rule
    set this rule comes first in (`confluence.loop_kind`)."""

    __slots__ = ("left", "right", "interface", "condition", "search", "rewrite", "loops")

    def __init__(self, schema: ConditionalRuleSchema) -> None:
        left, right = _compiled(schema.left), _compiled(schema.right)
        self.left, self.right = left, right
        self.interface, self.condition = schema.interface, schema.condition
        self.search = generate(schema, left)
        self.rewrite: Optional[Callable] = None  # generated at the first rewrite
        self.loops: dict[tuple[_Rule, ...], Optional[str]] = {}


def _rule(schema: ConditionalRuleSchema) -> _Rule:
    rule = schema._rule
    if (
        rule is None
        or rule.left is not schema.left._compiled
        or rule.right is not schema.right._compiled
        or rule.interface is not schema.interface
        or rule.condition is not schema.condition
    ):
        rule = schema._rule = _Rule(schema)
    return rule


# -- matching and rewriting ---------------------------------------------


def infer_assignment(
    left: RuleGraph, g: Premorphism, host: HostGraph
) -> Optional[Assignment]:
    """The unique assignment making g label-preserving, or None.

    g must be injective and structure-preserving, as every premorphism
    that matching considers is; the answer is the assignment the search
    of `left` gives for g's slot tuple, so marks must agree exactly and
    repeated variable occurrences must bind consistently.  A map that is
    not injective or not structure-preserving gives None.
    """
    compiled = _left(left)
    nodes, edges = g.node_map, g.edge_map
    image = (*(nodes[n] for n in compiled.nodes), *(edges[e] for e in compiled.edges))
    return dict(compiled.search(host)).get(image)


Match = tuple  # (slot tuple, assignment)


def enumerate_matches(
    schema: ConditionalRuleSchema,
    host: HostGraph,
    warnings: Optional[list[str]] = None,
) -> Iterator[Match]:
    """Yield every applicable match, in slot-tuple order, as (slot tuple,
    assignment).  The rule's one search runs in full at the first step,
    on the host as it is then.

    The search discards a candidate when no assignment exists, the
    condition is false or the dangling condition fails, and gives a
    candidate whose condition or right labels raise an evaluation error as
    (slot tuple, `EvalError`); such a candidate is discarded here with a
    warning.
    """
    for image, alpha in _rule(schema).search(host):
        if isinstance(alpha, EvalError):
            if warnings is not None:
                warnings.append(f"rule {schema.name}: match discarded ({alpha})")
        else:
            yield image, alpha


def apply(
    schema: ConditionalRuleSchema, host: HostGraph, match: Match, copy: bool = True
) -> HostGraph:
    """Apply the instantiated rule at a match of `enumerate_matches`, to a
    copy of the host or, with `copy` false, to the host itself.

    The rewrite is the rule's generated one (`matcher.generate_rewrite`).
    It evaluates the right-hand labels before any change, so degree
    operands observe pre-application degrees and an `EvalError` leaves the
    host as it was.  It then deletes the images of non-interface left
    items, relabels interface node images whose atoms or mark change, and
    adds the right-only items with fresh ids.  It is the one writer of the
    host's indexes, and keeps a built one up to date; the mark class of
    every item it deletes or adds was fixed when the rule was compiled.  A
    match whose items are gone, whose matched nodes or edges have changed
    their marks, or whose deleted node has gained an edge, raises
    `GraphError`."""
    rule = _rule(schema)
    result = host.copy() if copy else host
    if rule.rewrite is None:
        rule.rewrite = generate_rewrite(schema, rule.left.slot)
    rule.rewrite(result, *match)
    return result


def apply_ruleset(
    rules: list[ConditionalRuleSchema],
    host: HostGraph,
    warnings: Optional[list[str]] = None,
    certificates: Optional[dict] = None,
) -> list[HostGraph]:
    """All results of one application of any rule, one per isomorphism
    class.  `certificates` is a table of certificates by graph content
    (`HostGraph.signature`) that the results are certified through."""
    store = IsoStore()
    out: list[HostGraph] = []
    for schema in rules:
        for match in enumerate_matches(schema, host, warnings):
            result = apply(schema, host, match)
            result.signature(certificates)
            if store.put(result):
                out.append(result)
    return out
