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
holds the search and the unifier that `matcher.generate` writes for it;
the search starts at marked items where the left graph has them, read from
the host's marked index (`HostGraph.marked`).  A right graph's record
holds one evaluator per label (`labels.compile_list`), in insertion order.
A schema's record (`_Rule`) adds the left slots it deletes and its right
items in slot order.

`match_slots` gives every applicable match, sorted by slot tuple so that a
seeded run does not depend on the plan, with its assignment and its
evaluated right labels; `rewrite` applies one.  `enumerate_matches`,
`apply` and `infer_assignment` hand out and take premorphisms instead.
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
    compile_list,
    degree_nodes,
    eval_condition,
    eval_list,  # bound here for perfbench/tracer.py
    infer_type,
    is_simple,
    operands,
    subterms,
    variables,
)
from .matcher import _Image, generate


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
    each node to its slot.  The label evaluators come in insertion order,
    nodes then edges.  A left graph's search and unifier are generated on
    first use (`matcher.generate`)."""

    __slots__ = ("nodes", "edges", "slot", "evaluators", "search", "unify")

    def __init__(self, graph: RuleGraph) -> None:
        self.nodes, self.edges = sorted(graph.nodes), sorted(graph.edges)
        self.slot = {nid: i for i, nid in enumerate(self.nodes)}
        self.evaluators = [compile_list(lab.expr) for lab in graph.nodes.values()]
        self.evaluators += [compile_list(e.label.expr) for e in graph.edges.values()]
        self.search: Optional[Callable] = None
        self.unify: Optional[Callable] = None

    def image(self, g: Premorphism) -> tuple:
        """The slot tuple of a premorphism."""
        nodes, edges = g.node_map, g.edge_map
        return (*(nodes[n] for n in self.nodes), *(edges[e] for e in self.edges))

    def premorphism(self, image: tuple) -> Premorphism:
        k = len(self.nodes)
        return Premorphism(dict(zip(self.nodes, image[:k])), dict(zip(self.edges, image[k:])))


def _compiled(graph: RuleGraph) -> _Compiled:
    if graph._compiled is None:
        graph._compiled = _Compiled(graph)
    return graph._compiled


def _left(graph: RuleGraph) -> _Compiled:
    compiled = _compiled(graph)
    if compiled.search is None:
        compiled.search, compiled.unify = generate(graph, compiled)
    return compiled


class _Rule:
    """What matching and rewriting read of one schema: its graphs' records,
    the slots of the left nodes it deletes, and each right item in slot
    order with the position of its label among the evaluated ones, its mark,
    and the left slot of an interface node or the right node slots of an
    edge's ends."""

    __slots__ = ("left", "right", "interface", "condition", "deleted", "nodes", "edges")

    def __init__(self, schema: ConditionalRuleSchema) -> None:
        left, right = _left(schema.left), _compiled(schema.right)
        self.left, self.right = left, right
        self.interface, self.condition = schema.interface, schema.condition
        self.deleted = [left.slot[n] for n in left.nodes if n not in schema.interface]
        graph = schema.right
        at = {n: i for i, n in enumerate(graph.nodes)}
        self.nodes = [
            (at[n], left.slot[n] if n in schema.interface else None, graph.nodes[n].marked)
            for n in right.nodes
        ]
        ref = {n: i for i, n in enumerate(right.nodes)}
        at = {eid: i for i, eid in enumerate(graph.edges, len(graph.nodes))}
        ends = {eid: (ref[e.source], ref[e.target]) for eid, e in graph.edges.items()}
        self.edges = [(at[eid], *ends[eid], graph.edges[eid].label.marked) for eid in right.edges]


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

    Unifies each left label against the host label of its image; marks
    must agree exactly, and repeated variable occurrences must bind
    consistently.
    """
    compiled = _left(left)
    return compiled.unify(compiled.image(g), g, host)


Match = tuple  # (slot tuple, assignment, evaluated right labels)


def match_slots(
    schema: ConditionalRuleSchema,
    host: HostGraph,
    warnings: Optional[list[str]] = None,
) -> list[Match]:
    """Every applicable match, in slot-tuple order, as (slot tuple,
    assignment, right labels): the atoms of each right label, in insertion
    order, for the rewrite.

    A candidate is discarded when no assignment exists, the condition is
    false, the dangling condition fails, or evaluation of the condition
    or a right-hand label raises an evaluation error (the latter with a
    warning).
    """
    rule = _rule(schema)
    condition, deleted, evaluators = rule.condition, rule.deleted, rule.right.evaluators
    slot, k = rule.left.slot, len(rule.left.nodes)
    out = []
    for image, alpha in rule.left.search(host):
        g = _Image(slot, image)
        try:
            if condition is not None and not eval_condition(condition, g, alpha, host):
                continue
            if deleted:
                incident, matched = host.incidence(), image[k:]
                if any(e not in matched for s in deleted for e in incident[image[s]]):
                    continue
            labels = [evaluate(g, alpha, host) for evaluate in evaluators]
        except EvalError as exc:
            if warnings is not None:
                warnings.append(f"rule {schema.name}: match discarded ({exc})")
            continue
        out.append((image, alpha, labels))
    return out


def rewrite(
    schema: ConditionalRuleSchema, host: HostGraph, match: Match, copy: bool = True
) -> HostGraph:
    """Apply the instantiated rule at a match, to a copy of the host or,
    with `copy` false, to the host itself.

    Deletes the images of non-interface left items, adds the right-only
    items with fresh identifiers, and relabels interface node images.
    Right-hand labels were evaluated on the original host graph, so degree
    operands observe pre-application degrees.
    """
    rule = _rule(schema)
    image, _, labels = match
    result = host.copy() if copy else host
    for heid in image[len(rule.left.nodes) :]:
        result.remove_edge(heid)
    for s in rule.deleted:
        result.remove_node(image[s])
    ids = []
    for at, s, marked in rule.nodes:
        label = HostLabel(labels[at], marked)
        if s is None:
            ids.append(result.add_node(label))
        else:
            result.relabel_node(image[s], label)
            ids.append(image[s])
    for at, source, target, marked in rule.edges:
        result.add_edge(ids[source], ids[target], HostLabel(labels[at], marked))
    return result


def enumerate_matches(
    schema: ConditionalRuleSchema,
    host: HostGraph,
    warnings: Optional[list[str]] = None,
) -> Iterator[tuple[Premorphism, Assignment]]:
    """Yield every applicable (premorphism, assignment) pair, as
    `match_slots` finds them."""
    left = _rule(schema).left
    for image, alpha, _ in match_slots(schema, host, warnings):
        yield left.premorphism(image), alpha


def apply(
    schema: ConditionalRuleSchema,
    host: HostGraph,
    g: Premorphism,
    alpha: Assignment,
) -> HostGraph:
    """Apply the instantiated rule at the given match, producing a new
    graph, as `rewrite` does."""
    rule = _rule(schema)
    labels = [evaluate(g, alpha, host) for evaluate in rule.right.evaluators]
    return rewrite(schema, host, (rule.left.image(g), alpha, labels))


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
        for match in match_slots(schema, host, warnings):
            result = rewrite(schema, host, match)
            result.signature(certificates)
            if store.put(result):
                out.append(result)
    return out
