"""Conditional rule schemata: validation, matching, and application.

Matching enumerates injective premorphisms from the left graph into the
host graph, infers the unique assignment that makes each one
label-preserving, filters by the rule condition and the dangling
condition, and applies the instantiated rule in place of the abstract
one.  Rewriting never mutates the input graph.

Each rule graph is compiled once, on first use, into one record
(`_Compiled`) that matching and rewriting only read; adding a node or
an edge drops it.  The record fixes the slot order, the sorted nodes and
then the sorted edges, and holds:

- the search plan: edge by edge, each later edge reached through the
  host's incidence index from a node already bound, then the nodes no
  edge touches, checking injectivity and marks as each item is bound.
  The matches are sorted into one fixed order, so a seeded run does not
  depend on the plan;
- one unifier per left label: its items flattened, each specialised to
  its kind (an int, string or atom variable, a negation chain over an int
  variable, a ground item, a `.` pattern split into its literal prefix,
  its string variable and its literal suffix), and tested against the
  host atoms from the front up to the list variable and from the back
  after it; the list variable takes the rest;
- one evaluator per right label (`labels.compile_list`), in insertion
  order for the check that every right label evaluates, and sorted with
  its mark and ends for `apply`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .graphs import HostGraph, HostLabel, IsoStore, Premorphism
from .labels import (
    Assignment,
    Condition,
    Dot,
    EdgePred,
    Eq,
    EvalError,
    LabelTypeError,
    Neg,
    Rel,
    RuleLabel,
    StrLit,
    TypeCheck,
    Var,
    VType,
    compile_list,
    degree_nodes,
    eval_condition,
    eval_list,
    infer_type,
    is_simple,
    list_items,
    operands,
    subterms,
    variables,
)


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


# -- the compiled record ----------------------------------------------


def _is_ground(e) -> bool:
    return not any(isinstance(t, Var) for t in subterms(e))


def _bind(bindings: Assignment, name: str, value) -> bool:
    if name in bindings:
        return bindings[name] == value
    bindings[name] = value
    return True


def _never(*_) -> bool:
    return False


def _compile_dot(item: Dot) -> Callable:
    """A test of a `.` pattern: string literals around one string variable."""
    pieces = [t for t in subterms(item) if not isinstance(t, Dot)]
    at = [i for i, p in enumerate(pieces) if isinstance(p, Var) and p.vtype is VType.STRING]
    if len(at) != 1 or sum(isinstance(p, StrLit) for p in pieces) != len(pieces) - 1:
        return _never
    name = pieces[at[0]].name
    prefix = "".join(p.value for p in pieces[: at[0]])
    suffix = "".join(p.value for p in pieces[at[0] + 1 :])
    fixed = len(prefix) + len(suffix)

    def dot(a, b, g, host) -> bool:
        return (
            isinstance(a, str)
            and len(a) >= fixed
            and a.startswith(prefix)
            and a.endswith(suffix)
            and _bind(b, name, a[len(prefix) : len(a) - len(suffix)])
        )

    return dot


def _compile_item(item) -> Callable:
    """A test of one host atom against one left-label item that binds the
    item's variables: `test(atom, bindings, g, host) -> bool`."""
    negations, core = 0, item
    while isinstance(core, Neg) and not _is_ground(core):
        negations, core = negations + 1, core.expr
    if negations:  # a negation chain over an integer variable is invertible
        if not (isinstance(core, Var) and core.vtype is VType.INT):
            return _never
        name, sign = core.name, -1 if negations % 2 else 1
        return lambda a, b, g, host: isinstance(a, int) and _bind(b, name, sign * a)
    if _is_ground(item):
        if degree_nodes(item):  # depends on the match: evaluate each time

            def ground(a, b, g, host) -> bool:
                try:
                    return eval_list(item, g, {}, host) == (a,)
                except EvalError:
                    return False

            return ground
        try:
            value = eval_list(item, None, {}, None)
        except EvalError:
            return _never
        return lambda a, b, g, host: value == (a,)
    if isinstance(item, Var):
        name = item.name
        if item.vtype is VType.INT:
            return lambda a, b, g, host: isinstance(a, int) and _bind(b, name, a)
        if item.vtype is VType.STRING:
            return lambda a, b, g, host: isinstance(a, str) and _bind(b, name, a)
        if item.vtype is VType.ATOM:
            return lambda a, b, g, host: _bind(b, name, a)
        return _never  # a bare list variable is handled positionally
    if isinstance(item, Dot):
        return _compile_dot(item)
    return _never


def _compile_label(label: RuleLabel) -> Callable:
    """A unifier of one left label with a host label, binding its variables
    into an assignment: `unify(host_label, bindings, g, host) -> bool`.
    Items before the list variable test atoms from the front, items after
    it atoms from the back, and the list variable takes the rest."""
    parts = list_items(label.expr)
    lists = [i for i, p in enumerate(parts) if isinstance(p, Var) and p.vtype is VType.LIST]
    if len(lists) > 1:
        return _never
    at = lists[0] if lists else len(parts)
    name = parts[at].name if lists else None
    fixed, marked = len(parts) - len(lists), label.marked
    # each item with the index of its atom, counted from the back after `at`
    steps = [
        (_compile_item(p), i if i < at else i - len(parts))
        for i, p in enumerate(parts)
        if i != at
    ]

    def unify(
        host_label: HostLabel, bindings: Assignment, g: Premorphism, host: HostGraph
    ) -> bool:
        items = host_label.items
        if host_label.marked != marked or (len(items) < fixed if lists else len(items) != fixed):
            return False
        for test, i in steps:
            if not test(items[i], bindings, g, host):
                return False
        return name is None or _bind(bindings, name, items[at : len(items) - fixed + at])

    return unify


class _Compiled:
    """What matching and rewriting read of one rule graph.

    The slots are the sorted nodes, then the sorted edges.  A plan step is
    `(slot, source slot, target slot, marked)` for an edge and
    `(slot, None, None, marked)` for a node no edge touches; each edge step
    touches a node bound before it where the graph allows.  The label
    evaluators come in insertion order, nodes then edges, and again with
    their marks in slot order (`sorted_nodes`, `sorted_edges`)."""

    __slots__ = (
        "nodes", "edges", "node_marks", "steps",
        "node_unifiers", "edge_unifiers", "evaluators", "sorted_nodes", "sorted_edges",
    )

    def __init__(self, graph: RuleGraph) -> None:
        nodes, edges = sorted(graph.nodes), sorted(graph.edges)
        slot = {nid: i for i, nid in enumerate(nodes)}
        todo = {eid: i for i, eid in enumerate(edges, len(nodes))}  # edge slots
        ends = {eid: (e.source, e.target) for eid, e in graph.edges.items()}
        steps: list[tuple] = []
        bound: set[str] = set()
        while todo:
            eid = next((e for e in todo if bound.intersection(ends[e])), next(iter(todo)))
            source, target = ends[eid]
            bound.update((source, target))
            marked = graph.edges[eid].label.marked
            steps.append((todo.pop(eid), slot[source], slot[target], marked))
        steps += [(slot[n], None, None, graph.nodes[n].marked) for n in nodes if n not in bound]
        self.nodes, self.edges, self.steps = nodes, edges, steps
        self.node_marks = [graph.nodes[n].marked for n in nodes]
        self.node_unifiers = [(nid, _compile_label(graph.nodes[nid])) for nid in nodes]
        self.edge_unifiers = [(eid, _compile_label(graph.edges[eid].label)) for eid in edges]
        node_evaluators = {nid: compile_list(lab.expr) for nid, lab in graph.nodes.items()}
        edge_evaluators = {eid: compile_list(e.label.expr) for eid, e in graph.edges.items()}
        self.evaluators = [*node_evaluators.values(), *edge_evaluators.values()]
        self.sorted_nodes = [(n, node_evaluators[n], graph.nodes[n].marked) for n in nodes]
        self.sorted_edges = [
            (*ends[eid], edge_evaluators[eid], graph.edges[eid].label.marked) for eid in edges
        ]


def _compiled(graph: RuleGraph) -> _Compiled:
    if graph._compiled is None:
        graph._compiled = _Compiled(graph)
    return graph._compiled


# -- assignment inference ---------------------------------------------


def infer_assignment(
    left: RuleGraph, g: Premorphism, host: HostGraph
) -> Optional[Assignment]:
    """The unique assignment making g label-preserving, or None.

    Unifies each left label against the host label of its image; marks
    must agree exactly, and repeated variable occurrences must bind
    consistently.
    """
    compiled = _compiled(left)
    bindings: Assignment = {}
    node_map, host_nodes = g.node_map, host.nodes
    for nid, unify in compiled.node_unifiers:
        if not unify(host_nodes[node_map[nid]], bindings, g, host):
            return None
    edge_map, host_edges = g.edge_map, host.edges
    for eid, unify in compiled.edge_unifiers:
        if not unify(host_edges[edge_map[eid]].label, bindings, g, host):
            return None
    return bindings


# -- match enumeration -------------------------------------------------


def _premorphisms(left: RuleGraph, host: HostGraph) -> Iterator[Premorphism]:
    """All injective structure-preserving maps that agree on marks, ordered
    by node images in sorted left-node order, then edge images in sorted
    left-edge order."""
    compiled = _compiled(left)
    nodes, edges, node_marks, steps = (
        compiled.nodes, compiled.edges, compiled.node_marks, compiled.steps
    )
    host_nodes, host_edges = host.nodes, host.edges
    image: list = [None] * (len(nodes) + len(edges))
    used_nodes: set[str] = set()
    used_edges: set[str] = set()
    found: list[tuple] = []

    def step(i: int) -> None:
        if i == len(steps):
            found.append(tuple(image))
            return
        slot, a, b, marked = steps[i]
        if a is None:  # a node that no left edge touches
            for hid, label in host_nodes.items():
                if hid not in used_nodes and label.marked == marked:
                    image[slot] = hid
                    used_nodes.add(hid)
                    step(i + 1)
                    used_nodes.remove(hid)
            return
        if image[a] is None and image[b] is None:
            candidates = host_edges
        else:
            candidates = host.incidence()[image[b] if image[a] is None else image[a]]
        for heid in candidates:
            e = host_edges[heid]
            if heid in used_edges or e.label.marked != marked:
                continue
            fresh = []
            for end, hid in ((a, e.source), (b, e.target)):
                if (
                    image[end] is None
                    and hid not in used_nodes
                    and host_nodes[hid].marked == node_marks[end]
                ):
                    image[end] = hid
                    used_nodes.add(hid)
                    fresh.append(end)
                elif image[end] != hid:
                    break
            else:
                image[slot] = heid
                used_edges.add(heid)
                step(i + 1)
                used_edges.remove(heid)
            for end in fresh:
                used_nodes.remove(image[end])
                image[end] = None

    step(0)
    found.sort()
    k = len(nodes)
    for key in found:
        yield Premorphism(dict(zip(nodes, key[:k])), dict(zip(edges, key[k:])))


def _dangling_ok(
    schema: ConditionalRuleSchema, g: Premorphism, host: HostGraph
) -> bool:
    deleted = {
        g.node_map[nid] for nid in schema.left.nodes if nid not in schema.interface
    }
    if not deleted:
        return True
    matched_edges = set(g.edge_map.values())
    for node in deleted:
        for eid in host.incident_edges(node):
            if eid not in matched_edges:
                return False
    return True


def enumerate_matches(
    schema: ConditionalRuleSchema,
    host: HostGraph,
    warnings: Optional[list[str]] = None,
) -> Iterator[tuple[Premorphism, Assignment]]:
    """Yield every applicable (premorphism, assignment) pair.

    A candidate is discarded when no assignment exists, the condition is
    false, the dangling condition fails, or evaluation of the condition
    or a right-hand label raises an evaluation error (the latter with a
    warning).
    """
    condition, right_labels = schema.condition, _compiled(schema.right).evaluators
    for g in _premorphisms(schema.left, host):
        alpha = infer_assignment(schema.left, g, host)
        if alpha is None:
            continue
        try:
            if condition is not None and not eval_condition(condition, g, alpha, host):
                continue
            if not _dangling_ok(schema, g, host):
                continue
            for evaluate in right_labels:
                evaluate(g, alpha, host)
        except EvalError as exc:
            if warnings is not None:
                warnings.append(f"rule {schema.name}: match discarded ({exc})")
            continue
        yield g, alpha


def apply(
    schema: ConditionalRuleSchema,
    host: HostGraph,
    g: Premorphism,
    alpha: Assignment,
) -> HostGraph:
    """Apply the instantiated rule at the given match, producing a new graph.

    Deletes the images of non-interface left items, adds the right-only
    items with fresh identifiers, and relabels interface node images.
    Right-hand labels see the original host graph, so degree operands
    observe pre-application degrees.
    """
    result = host.copy()

    for eid in schema.left.edges:
        result.remove_edge(g.edge_map[eid])
    for nid in schema.left.nodes:
        if nid not in schema.interface:
            result.remove_node(g.node_map[nid])

    right = _compiled(schema.right)
    new_nodes: dict[str, str] = {}
    for nid, evaluate, marked in right.sorted_nodes:
        label = HostLabel(evaluate(g, alpha, host), marked)
        if nid in schema.interface:
            result.relabel_node(g.node_map[nid], label)
        else:
            new_nodes[nid] = result.add_node(label)

    def image(nid: str) -> str:
        return g.node_map[nid] if nid in schema.interface else new_nodes[nid]

    for source, target, evaluate, marked in right.sorted_edges:
        label = HostLabel(evaluate(g, alpha, host), marked)
        result.add_edge(image(source), image(target), label)

    return result


def apply_ruleset(
    rules: list[ConditionalRuleSchema],
    host: HostGraph,
    warnings: Optional[list[str]] = None,
) -> list[HostGraph]:
    """All results of one application of any rule, one per isomorphism class."""
    store = IsoStore()
    out: list[HostGraph] = []
    for schema in rules:
        for g, alpha in enumerate_matches(schema, host, warnings):
            result = apply(schema, host, g, alpha)
            if store.put(result):
                out.append(result)
    return out

