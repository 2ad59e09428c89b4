"""Conditional rule schemata: validation, matching, and application.

Matching finds the injective premorphisms from the left graph into the
host graph, infers the unique assignment that makes each one
label-preserving, and keeps those that pass the rule condition and the
dangling condition.  Applying a match rewrites a copy of the host, or the
host itself where a run owns it.

Each rule graph is compiled once, on first use, into one record
(`_Compiled`) that matching and rewriting only read; adding a node or an
edge drops it.  Its slots are the sorted nodes, then the sorted edges, and
a match is the tuple of host ids in slot order.  A left graph's record
holds the search that `matcher.generate` writes for it, which also
unifies; the search starts at marked items where the left graph has them,
read from the host's marked index (`HostGraph.marked`).  A schema's record
(`_Rule`) adds the left slots it deletes, its right items in slot order,
and its test of a complete match and evaluator of right labels
(`matcher.generate_rule`).

There is one match path.  `enumerate_matches` yields every applicable
match with its assignment, sorted by slot tuple so that a seeded run does
not depend on the plan; `apply` rewrites at one, and the right labels are
evaluated in `apply`, once per applied match.  `infer_assignment` reads
the same search for the assignment of one premorphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .graphs import HostGraph, HostLabel, IsoStore, Premorphism
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
    degree_nodes,
    eval_condition,  # unused: bound only because perfbench/tracer.py asserts it
    eval_list,  # unused: bound only because perfbench/tracer.py asserts it
    infer_type,
    is_simple,
    operands,
    subterms,
    variables,
)
from .matcher import generate, generate_rule


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
        for node in sorted(_condition_nodes(schema.condition)):
            if node not in schema.left.nodes:
                bad("condition", f"node {node!r} is not a left-graph node")
        try:
            _check_condition_types(schema.condition, schema.variables)
        except LabelTypeError as exc:
            bad("condition", str(exc))

    return out


def _condition_nodes(c: Condition) -> set[str]:
    ends = {n for t in subterms(c) if isinstance(t, EdgePred) for n in (t.source, t.target)}
    return ends | degree_nodes(c)


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
    each node to its slot.  A left graph's search is generated on first use
    (`matcher.generate`)."""

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
    compiled = _compiled(graph)
    if compiled.search is None:
        compiled.search = generate(graph, compiled)
    return compiled


class _Rule:
    """What matching and rewriting read of one schema: its graphs' records,
    the slots of the left nodes it deletes, each right item in slot order
    with its mark and the left slot of an interface node or the right node
    slots of an edge's ends, and the generated test of a complete match and
    evaluator of the right labels (`matcher.generate_rule`)."""

    __slots__ = ("left", "right", "interface", "condition", "deleted", "nodes", "edges")
    __slots__ += ("test", "build", "raises")

    def __init__(self, schema: ConditionalRuleSchema) -> None:
        left, right = _left(schema.left), _compiled(schema.right)
        self.left, self.right = left, right
        self.interface, self.condition = schema.interface, schema.condition
        self.deleted = [left.slot[n] for n in left.nodes if n not in schema.interface]
        graph, ref = schema.right, {n: i for i, n in enumerate(right.nodes)}
        kept = {n: left.slot[n] for n in schema.interface}
        self.nodes = [(kept.get(n), graph.nodes[n].marked) for n in right.nodes]
        edges = [graph.edges[eid] for eid in right.edges]
        self.edges = [(ref[e.source], ref[e.target], e.label.marked) for e in edges]
        self.test, self.build, self.raises = generate_rule(schema, left.slot)


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
    assignment); each is tested as it is yielded, so a caller that rewrites
    the host in place must take every match first.

    A candidate is discarded when no assignment exists, the condition is
    false, the dangling condition fails, or evaluation of the condition or
    a right-hand label raises an evaluation error (the latter with a
    warning).  Right labels are evaluated here only where they can raise.
    """
    rule = _rule(schema)
    test, build = rule.test, rule.build if rule.raises else None
    for image, alpha in rule.left.search(host):
        try:
            if test is not None and not test(image, alpha, host):
                continue
            if build is not None:
                build(image, alpha, host)
        except EvalError as exc:
            if warnings is not None:
                warnings.append(f"rule {schema.name}: match discarded ({exc})")
            continue
        yield image, alpha


def apply(
    schema: ConditionalRuleSchema, host: HostGraph, match: Match, copy: bool = True
) -> HostGraph:
    """Apply the instantiated rule at a match of `enumerate_matches`, to a
    copy of the host or, with `copy` false, to the host itself.

    Evaluates the right-hand labels on the host before rewriting it, so
    degree operands observe pre-application degrees.  Deletes the images of
    non-interface left items, adds the right-only items with fresh ids, and
    relabels interface node images whose atoms or mark change."""
    rule = _rule(schema)
    image, alpha = match
    labels = rule.build(image, alpha, host)
    result = host.copy() if copy else host
    for heid in image[len(rule.left.nodes) :]:
        result.remove_edge(heid)
    for s in rule.deleted:
        result.remove_node(image[s])
    ids = []
    for (s, marked), items in zip(rule.nodes, labels):
        if s is None:
            ids.append(result.add_node(HostLabel(items, marked)))
            continue
        hid = image[s]
        old = result.nodes[hid]
        if old.items != items or old.marked != marked:
            result.relabel_node(hid, HostLabel(items, marked))
        ids.append(hid)
    for (source, target, marked), items in zip(rule.edges, labels[len(ids) :]):
        result.add_edge(ids[source], ids[target], HostLabel(items, marked))
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
