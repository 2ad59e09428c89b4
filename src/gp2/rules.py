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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .graphs import Atom, HostGraph, HostLabel, IsoStore, Premorphism
from .labels import (
    Assignment,
    Condition,
    Cons,
    Dot,
    EdgePred,
    Empty,
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
    degree_nodes,
    eval_condition,
    eval_list,
    infer_type,
    is_simple,
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
        self._plan: Optional[tuple] = None  # the cached search plan

    def add_node(self, node_id: str, label: RuleLabel) -> None:
        self.nodes[node_id] = label
        self._plan = None

    def add_edge(self, edge_id: str, source: str, target: str, label: RuleLabel) -> None:
        self.edges[edge_id] = RuleEdge(source, target, label)
        self._plan = None


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


def _flatten(e) -> list:
    if isinstance(e, Cons):
        return _flatten(e.left) + _flatten(e.right)
    if isinstance(e, Empty):
        return []
    return [e]


def _flatten_dot(e) -> list:
    if isinstance(e, Dot):
        return _flatten_dot(e.left) + _flatten_dot(e.right)
    return [e]


def _is_ground(e) -> bool:
    # a bare variable, the usual item on the matching path, needs no walk
    return not isinstance(e, Var) and not any(isinstance(t, Var) for t in subterms(e))


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


def _unify_item(
    item, atom: Atom, bindings: Assignment, g: Premorphism, host: HostGraph
) -> bool:
    # negation chains over an integer variable are invertible
    negations = 0
    core = item
    while isinstance(core, Neg) and not _is_ground(core):
        negations += 1
        core = core.expr
    if negations and isinstance(core, Var) and core.vtype is VType.INT:
        if not isinstance(atom, int):
            return False
        return _bind(bindings, core.name, atom if negations % 2 == 0 else -atom)
    if _is_ground(item):
        try:
            value = eval_list(item, g, {}, host)
        except EvalError:
            return False
        return value == (atom,)
    if isinstance(item, Var):
        if item.vtype is VType.INT:
            return isinstance(atom, int) and _bind(bindings, item.name, atom)
        if item.vtype is VType.STRING:
            return isinstance(atom, str) and _bind(bindings, item.name, atom)
        if item.vtype is VType.ATOM:
            return _bind(bindings, item.name, atom)
        return False  # a bare list variable is handled positionally
    if isinstance(item, (Dot, StrLit)):
        return isinstance(atom, str) and _unify_string(item, atom, bindings)
    return False


def _unify_list(
    expr,
    items: tuple[Atom, ...],
    bindings: Assignment,
    g: Premorphism,
    host: HostGraph,
) -> bool:
    parts = _flatten(expr)
    list_positions = [
        i for i, p in enumerate(parts) if isinstance(p, Var) and p.vtype is VType.LIST
    ]
    if len(list_positions) > 1:
        return False
    if not list_positions:
        if len(parts) != len(items):
            return False
        return all(
            _unify_item(p, a, bindings, g, host) for p, a in zip(parts, items)
        )
    i = list_positions[0]
    head, tail = parts[:i], parts[i + 1 :]
    if len(head) + len(tail) > len(items):
        return False
    for p, a in zip(head, items[: len(head)]):
        if not _unify_item(p, a, bindings, g, host):
            return False
    for p, a in zip(tail, items[len(items) - len(tail) :]):
        if not _unify_item(p, a, bindings, g, host):
            return False
    middle = items[len(head) : len(items) - len(tail)]
    return _bind(bindings, parts[i].name, middle)


def infer_assignment(
    left: RuleGraph, g: Premorphism, host: HostGraph
) -> Optional[Assignment]:
    """The unique assignment making g label-preserving, or None.

    Unifies each left label against the host label of its image; marks
    must agree exactly, and repeated variable occurrences must bind
    consistently.
    """
    bindings: Assignment = {}
    for nid in sorted(left.nodes):
        rule_label = left.nodes[nid]
        host_label = host.nodes[g.node_map[nid]]
        if rule_label.marked != host_label.marked:
            return None
        if not _unify_list(rule_label.expr, host_label.items, bindings, g, host):
            return None
    for eid in sorted(left.edges):
        rule_edge = left.edges[eid]
        host_edge = host.edges[g.edge_map[eid]]
        if rule_edge.label.marked != host_edge.label.marked:
            return None
        if not _unify_list(rule_edge.label.expr, host_edge.label.items, bindings, g, host):
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


def _right_label(
    label: RuleLabel, g: Premorphism, alpha: Assignment, host: HostGraph
) -> HostLabel:
    return HostLabel(eval_list(label.expr, g, alpha, host), label.marked)


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
            for label in _right_labels(schema):
                _right_label(label, g, alpha, host)
        except EvalError as exc:
            if warnings is not None:
                warnings.append(f"rule {schema.name}: match discarded ({exc})")
            continue
        yield g, alpha


def _right_labels(schema: ConditionalRuleSchema):
    for label in schema.right.nodes.values():
        yield label
    for edge in schema.right.edges.values():
        yield edge.label


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

    new_nodes: dict[str, str] = {}
    for nid in sorted(schema.right.nodes):
        label = _right_label(schema.right.nodes[nid], g, alpha, host)
        if nid in schema.interface:
            result.relabel_node(g.node_map[nid], label)
        else:
            new_nodes[nid] = result.add_node(label)

    def image(nid: str) -> str:
        return g.node_map[nid] if nid in schema.interface else new_nodes[nid]

    for eid in sorted(schema.right.edges):
        edge = schema.right.edges[eid]
        label = _right_label(edge.label, g, alpha, host)
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

