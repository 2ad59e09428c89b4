"""Conditional rule schemata: validation, matching, and application.

Matching enumerates injective premorphisms from the left graph into the
host graph, infers the unique assignment that makes each one
label-preserving, filters by the rule condition and the dangling
condition, and applies the instantiated rule in place of the abstract
one.  Rewriting never mutates the input graph.

Premorphisms are found by a static search plan per left graph, cached on
it: edge by edge, each later edge reached through the host's incidence
index from a node already bound, checking injectivity and marks as each
item is bound.  The matches are sorted into one fixed order, so a seeded
run does not depend on the plan.

Labels are compiled once per rule graph, on first use, and cached beside
the plan.  Each left label becomes a unifier: its items are flattened
once, each specialised to its kind (an int, string or atom variable, a
negation chain over an int variable, a ground item, a concatenation),
and tested against the host atoms from the front up to the list
variable and from the back after it; the list variable takes the rest.
Each right label becomes an evaluator (`labels.compile_list`).
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
        # compiled on first use: the search plan and the label unifiers of
        # a left graph, the label evaluators of a right graph
        self._plan: Optional[tuple] = None
        self._unifiers: Optional[tuple] = None
        self._evaluators: Optional[tuple] = None

    def add_node(self, node_id: str, label: RuleLabel) -> None:
        self.nodes[node_id] = label
        self._plan = self._unifiers = self._evaluators = None

    def add_edge(self, edge_id: str, source: str, target: str, label: RuleLabel) -> None:
        self.edges[edge_id] = RuleEdge(source, target, label)
        self._plan = self._unifiers = self._evaluators = None


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

    for nid in schema.interface:
        if nid not in schema.left.nodes:
            bad(f"interface node {nid}", "not present in left graph")
        if nid not in schema.right.nodes:
            bad(f"interface node {nid}", "not present in right graph")

    left_vars: set[str] = set()
    for nid, label in schema.left.nodes.items():
        left_vars |= variables(label.expr)
    for eid, edge in schema.left.edges.items():
        left_vars |= variables(edge.label.expr)

    def check_expr(location: str, label: RuleLabel, left_side: bool) -> None:
        try:
            infer_type(label.expr, schema.variables)
        except LabelTypeError as exc:
            bad(location, str(exc))
            return
        if left_side and not is_simple(label.expr):
            bad(location, f"left-hand expression {label.expr} is not simple")
        for node in degree_nodes(label.expr):
            if node not in schema.left.nodes:
                bad(location, f"degree operand {node!r} is not a left-graph node")

    for nid, label in schema.left.nodes.items():
        check_expr(f"left node {nid}", label, True)
    for eid, edge in schema.left.edges.items():
        check_expr(f"left edge {eid}", edge.label, True)
        for endpoint in (edge.source, edge.target):
            if endpoint not in schema.left.nodes:
                bad(f"left edge {eid}", f"unknown endpoint {endpoint!r}")
    for nid, label in schema.right.nodes.items():
        check_expr(f"right node {nid}", label, False)
        extra = variables(label.expr) - left_vars
        if extra:
            bad(f"right node {nid}", f"variables {sorted(extra)} do not occur on the left")
    for eid, edge in schema.right.edges.items():
        check_expr(f"right edge {eid}", edge.label, False)
        extra = variables(edge.label.expr) - left_vars
        if extra:
            bad(f"right edge {eid}", f"variables {sorted(extra)} do not occur on the left")
        for endpoint in (edge.source, edge.target):
            if endpoint not in schema.right.nodes:
                bad(f"right edge {eid}", f"unknown endpoint {endpoint!r}")

    if schema.condition is not None:
        extra = variables(schema.condition) - left_vars
        if extra:
            bad("condition", f"variables {sorted(extra)} do not occur on the left")
        for node in _condition_nodes(schema.condition):
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


# -- assignment inference ---------------------------------------------


def _flatten_dot(e) -> list:
    if isinstance(e, Dot):
        return _flatten_dot(e.left) + _flatten_dot(e.right)
    return [e]


def _is_ground(e) -> bool:
    return not any(isinstance(t, Var) for t in subterms(e))


def _bind(bindings: Assignment, name: str, value) -> bool:
    if name in bindings:
        return bindings[name] == value
    bindings[name] = value
    return True


def _unify_string(e, text: str, bindings: Assignment) -> bool:
    """Match a string expression (at most one string variable) against text."""
    pieces = _flatten_dot(e)
    var_positions = [
        i for i, p in enumerate(pieces) if isinstance(p, Var) and p.vtype is VType.STRING
    ]
    literal = []
    for p in pieces:
        if isinstance(p, StrLit):
            literal.append(p.value)
        elif isinstance(p, Var) and p.vtype is VType.STRING:
            literal.append(None)
        else:
            return False
    if len(var_positions) == 0:
        return "".join(literal) == text  # type: ignore[arg-type]
    if len(var_positions) > 1:
        return False
    i = var_positions[0]
    prefix = "".join(literal[:i])  # type: ignore[arg-type]
    suffix = "".join(literal[i + 1 :])  # type: ignore[arg-type]
    if len(prefix) + len(suffix) > len(text):
        return False
    if not text.startswith(prefix):
        return False
    if suffix and not text.endswith(suffix):
        return False
    middle = text[len(prefix) : len(text) - len(suffix)]
    return _bind(bindings, pieces[i].name, middle)


def _never(*_) -> bool:
    return False


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
        return lambda a, b, g, host: isinstance(a, str) and _unify_string(item, a, b)
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


def _unifiers(left: RuleGraph) -> tuple:
    """The cached unifiers of a left graph: sorted nodes, then sorted edges."""
    if left._unifiers is None:
        left._unifiers = (
            [(nid, _compile_label(left.nodes[nid])) for nid in sorted(left.nodes)],
            [(eid, _compile_label(left.edges[eid].label)) for eid in sorted(left.edges)],
        )
    return left._unifiers


def infer_assignment(
    left: RuleGraph, g: Premorphism, host: HostGraph
) -> Optional[Assignment]:
    """The unique assignment making g label-preserving, or None.

    Unifies each left label against the host label of its image; marks
    must agree exactly, and repeated variable occurrences must bind
    consistently.
    """
    nodes, edges = _unifiers(left)
    bindings: Assignment = {}
    node_map, host_nodes = g.node_map, host.nodes
    for nid, unify in nodes:
        if not unify(host_nodes[node_map[nid]], bindings, g, host):
            return None
    edge_map, host_edges = g.edge_map, host.edges
    for eid, unify in edges:
        if not unify(host_edges[edge_map[eid]].label, bindings, g, host):
            return None
    return bindings


# -- match enumeration -------------------------------------------------


def _search_plan(left: RuleGraph) -> tuple:
    """The cached search plan of a left graph.  The slots are the sorted
    nodes, then the sorted edges.  Each edge step touches a node bound
    before it where the graph allows; the nodes no edge touches come last."""
    if left._plan is None:
        nodes, edges = sorted(left.nodes), sorted(left.edges)
        slot = {nid: i for i, nid in enumerate(nodes)}
        ends = {eid: (left.edges[eid].source, left.edges[eid].target) for eid in edges}
        steps: list[tuple] = []
        bound: set[str] = set()
        todo = edges[:]
        while todo:
            eid = next((e for e in todo if bound.intersection(ends[e])), todo[0])
            todo.remove(eid)
            bound.update(ends[eid])
            source, target = ends[eid]
            marked = left.edges[eid].label.marked
            steps.append((len(nodes) + edges.index(eid), slot[source], slot[target], marked))
        steps += [(slot[n], None, None, left.nodes[n].marked) for n in nodes if n not in bound]
        left._plan = (nodes, edges, [left.nodes[n].marked for n in nodes], steps)
    return left._plan


def _premorphisms(left: RuleGraph, host: HostGraph) -> Iterator[Premorphism]:
    """All injective structure-preserving maps that agree on marks, ordered
    by node images in sorted left-node order, then edge images in sorted
    left-edge order."""
    nodes, edges, node_marks, steps = _search_plan(left)
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


def _evaluators(right: RuleGraph) -> tuple:
    """The cached evaluators of a right graph's labels with their marks:
    one dict for the nodes and one for the edges, in insertion order."""
    if right._evaluators is None:
        right._evaluators = (
            {nid: (compile_list(lab.expr), lab.marked) for nid, lab in right.nodes.items()},
            {eid: (compile_list(e.label.expr), e.label.marked) for eid, e in right.edges.items()},
        )
    return right._evaluators


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
    nodes, edges = _evaluators(schema.right)
    right_labels = [evaluate for evaluate, _ in (*nodes.values(), *edges.values())]
    for g in _premorphisms(schema.left, host):
        alpha = infer_assignment(schema.left, g, host)
        if alpha is None:
            continue
        if schema.condition is not None:
            try:
                if not eval_condition(schema.condition, g, alpha, host):
                    continue
            except EvalError as exc:
                if warnings is not None:
                    warnings.append(
                        f"rule {schema.name}: match discarded ({exc})"
                    )
                continue
        if not _dangling_ok(schema, g, host):
            continue
        try:
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

    nodes, edges = _evaluators(schema.right)
    new_nodes: dict[str, str] = {}
    for nid in sorted(nodes):
        evaluate, marked = nodes[nid]
        label = HostLabel(evaluate(g, alpha, host), marked)
        if nid in schema.interface:
            result.relabel_node(g.node_map[nid], label)
        else:
            new_nodes[nid] = result.add_node(label)

    def image(nid: str) -> str:
        return g.node_map[nid] if nid in schema.interface else new_nodes[nid]

    for eid in sorted(edges):
        edge = schema.right.edges[eid]
        evaluate, marked = edges[eid]
        label = HostLabel(evaluate(g, alpha, host), marked)
        result.add_edge(image(edge.source), image(edge.target), label)

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

