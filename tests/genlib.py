"""Shared generators and brute-force reference implementations.

Random generation is seeded explicitly by every caller; nothing here
reads global randomness.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter, deque
from typing import Iterator, Optional

from gp2.executor import (
    BOTTOM_NONE,
    BOTTOM_POSSIBLE,
    BOTTOM_PROVEN,
    Budget,
    Configuration,
    Failure,
    Result,
    ResultSet,
    RunOutcome,
    TraceEntry,
    Unfinished,
)
from gp2.graphs import (
    Atom,
    Certificate,
    Edge,
    GraphError,
    HostGraph,
    HostLabel,
    IsoStore,
    Premorphism,
    _certificate_hash,
    _Content,
    format_atom,
)
from gp2.labels import (
    And,
    Arith,
    Assignment,
    Condition,
    Cons,
    Deg,
    Dot,
    EdgePred,
    Empty,
    Eq,
    EvalError,
    IntLit,
    ListExpr,
    Neg,
    Not,
    Rel,
    StrLit,
    TypeCheck,
    Var,
    VType,
    _Writer,
    is_simple,
    variables,
)
from gp2.labels import Or as CondOr
from gp2.matcher import _bound, _labels, raises
from gp2.program import (
    CheckedProgram,
    Command,
    Fail,
    If,
    Loop,
    Or,
    RuleSetCall,
    Seq,
    Skip,
    Try,
    seq,
)
from gp2.rules import (
    ConditionalRuleSchema,
    RuleGraph,
    _left,
    _rule,
    apply,
    apply_ruleset,
    enumerate_matches,
)
from gp2.labels import RuleLabel
from gp2.parsing import KEYWORDS, SYMBOLS, ParseError, Token

ATOM_POOL = ((), (0,), (1,), ("a",), (2, "b"), (-1,))
STRING_POOL = ("", "a", "b", "ab", "aba", "bb")
INT_POOL = (-2, -1, 0, 1, 2, 3)


# -- host graphs -------------------------------------------------------


def random_host(
    rng: random.Random,
    max_nodes: int = 8,
    max_edges: Optional[int] = None,
    labels: tuple = ATOM_POOL,
    loops: bool = True,
) -> HostGraph:
    g = HostGraph()
    n = rng.randint(0, max_nodes)
    ids = [g.add_node(HostLabel(rng.choice(labels))) for _ in range(n)]
    if n:
        if max_edges is None:
            max_edges = 2 * n
        for _ in range(rng.randint(0, max_edges)):
            s, t = rng.choice(ids), rng.choice(ids)
            if s == t and not loops:
                continue
            g.add_edge(s, t, HostLabel(rng.choice(labels)))
    return g


def random_eulerian(rng: random.Random, max_nodes: int = 6) -> HostGraph:
    """A connected graph with indegree == outdegree everywhere, built as
    a union of closed walks through a common node set."""
    g = HostGraph()
    n = rng.randint(1, max_nodes)
    atoms = [(rng.choice([i, f"v{i}"]),) for i in range(n)]
    ids = [g.add_node(HostLabel(a)) for a in atoms]
    # one closed walk covering every node keeps the result connected
    walk = ids[:]
    rng.shuffle(walk)
    for _ in range(rng.randint(0, n)):
        walk.insert(rng.randint(0, len(walk)), rng.choice(ids))
    for s, t in zip(walk, walk[1:] + walk[:1]):
        g.add_edge(s, t, HostLabel((rng.choice(INT_POOL),)))
    # optional extra closed walks over already-covered nodes
    for _ in range(rng.randint(0, 2)):
        cyc = [rng.choice(ids) for _ in range(rng.randint(1, 3))]
        for s, t in zip(cyc, cyc[1:] + cyc[:1]):
            g.add_edge(s, t, HostLabel((rng.choice(INT_POOL),)))
    return g


def host_universe(
    max_nodes: int = 3,
    max_edges: int = 3,
    labels: tuple = ((), (0,), ("a",)),
) -> Iterator[HostGraph]:
    """Every labelled host with the given bounds, isomorphic ones repeated."""
    for n in range(max_nodes + 1):
        for node_labels in itertools.combinations_with_replacement(labels, n):
            base = HostGraph()
            ids = [base.add_node(HostLabel(lab)) for lab in node_labels]
            slots = [
                (s, t, lab) for s in ids for t in ids for lab in labels
            ]
            for m in range(max_edges + 1):
                for combo in itertools.combinations_with_replacement(slots, m):
                    g = base.copy()
                    for s, t, lab in combo:
                        g.add_edge(s, t, HostLabel(lab))
                    yield g


def small_hosts(
    max_nodes: int = 3,
    max_edges: int = 3,
    labels: tuple = ((), (0,), ("a",)),
) -> list[HostGraph]:
    """Every host with the given bounds, one per isomorphism class."""
    store = IsoStore()
    return [g for g in host_universe(max_nodes, max_edges, labels) if store.put(g)]


# -- simple rule-label generation and brute-force matching -------------


def random_simple_label(rng: random.Random, prefix: str = "x"):
    """A random simple rule-label expression with its declarations."""
    decls: dict[str, VType] = {}
    counter = itertools.count()

    def fresh(vtype: VType) -> Var:
        name = f"{prefix}{next(counter)}"
        decls[name] = vtype
        return Var(name, vtype)

    def string_expr():
        parts = []
        n_parts = rng.randint(1, 3)
        var_at = rng.randrange(n_parts) if rng.random() < 0.7 else None
        for i in range(n_parts):
            if i == var_at:
                parts.append(fresh(VType.STRING))
            else:
                parts.append(StrLit(rng.choice(STRING_POOL)))
        expr = parts[0]
        for p in parts[1:]:
            expr = Dot(expr, p)
        return expr

    items = []
    used_list_var = False
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(
            ["int", "str", "ivar", "avar", "neg", "sexpr", "lvar", "lvar"]
        )
        if kind == "int":
            items.append(IntLit(rng.choice(INT_POOL)))
        elif kind == "str":
            items.append(StrLit(rng.choice(STRING_POOL)))
        elif kind == "ivar":
            items.append(fresh(VType.INT))
        elif kind == "avar":
            items.append(fresh(VType.ATOM))
        elif kind == "neg":
            inner = fresh(VType.INT) if rng.random() < 0.7 else IntLit(
                rng.choice(INT_POOL)
            )
            for _ in range(rng.randint(1, 2)):
                inner = Neg(inner)
            items.append(inner)
        elif kind == "sexpr":
            items.append(string_expr())
        elif not used_list_var:
            used_list_var = True
            items.append(fresh(VType.LIST))
    if not items:
        expr = Empty()
    else:
        expr = items[-1]
        for item in reversed(items[:-1]):
            expr = Cons(item, expr)
    assert is_simple(expr), str(expr)
    return expr, decls


def random_host_items(rng: random.Random, max_len: int = 6) -> tuple:
    items = []
    for _ in range(rng.randint(0, max_len)):
        items.append(
            rng.choice(INT_POOL) if rng.random() < 0.5 else rng.choice(STRING_POOL)
        )
    return tuple(items)


def _flatten_cons(e) -> list:
    if isinstance(e, Cons):
        return _flatten_cons(e.left) + _flatten_cons(e.right)
    if isinstance(e, Empty):
        return []
    return [e]


def _flatten_dot(e) -> list:
    if isinstance(e, Dot):
        return _flatten_dot(e.left) + _flatten_dot(e.right)
    return [e]


def _match_string(parts: list, text: str, binding: dict) -> list[dict]:
    """All bindings matching a '.'-expression against one string."""
    if not parts:
        return [binding] if text == "" else []
    head, rest = parts[0], parts[1:]
    if isinstance(head, StrLit):
        if text.startswith(head.value):
            return _match_string(rest, text[len(head.value):], binding)
        return []
    assert isinstance(head, Var)
    out = []
    for cut in range(len(text) + 1):
        value = text[:cut]
        if head.name in binding and binding[head.name] != value:
            continue
        b2 = dict(binding)
        b2[head.name] = value
        out.extend(_match_string(rest, text[cut:], b2))
    return out


def _match_item(item, atom, binding: dict) -> list[dict]:
    if isinstance(item, IntLit):
        return [binding] if atom == item.value else []
    if isinstance(item, StrLit):
        if not isinstance(atom, str):
            return []
        return _match_string(_flatten_dot(item), atom, binding)
    if isinstance(item, Neg):
        if not isinstance(atom, int) or isinstance(atom, bool):
            return []
        return _match_item(item.expr, -atom, binding)
    if isinstance(item, Dot):
        if not isinstance(atom, str):
            return []
        return _match_string(_flatten_dot(item), atom, binding)
    assert isinstance(item, Var)
    if item.vtype is VType.INT and not isinstance(atom, int):
        return []
    if item.vtype is VType.STRING and not isinstance(atom, str):
        return []
    if item.name in binding:
        return [binding] if binding[item.name] == atom else []
    b2 = dict(binding)
    b2[item.name] = atom
    return [b2]


def brute_assignments(expr, host_items: tuple) -> list[dict]:
    """Every assignment matching a simple label against a host label,
    by exhaustive search over all positional splits."""
    items = _flatten_cons(expr)

    def go(i: int, pos: int, binding: dict) -> list[dict]:
        if i == len(items):
            return [binding] if pos == len(host_items) else []
        item = items[i]
        if isinstance(item, Var) and item.vtype is VType.LIST:
            out = []
            for end in range(pos, len(host_items) + 1):
                value = tuple(host_items[pos:end])
                if item.name in binding and binding[item.name] != value:
                    continue
                b2 = dict(binding)
                b2[item.name] = value
                out.extend(go(i + 1, end, b2))
            return out
        if isinstance(item, Var) and item.vtype is VType.ATOM:
            if pos == len(host_items):
                return []
            out = []
            for b2 in _match_item(
                Var(item.name, VType.ATOM), host_items[pos], binding
            ):
                out.extend(go(i + 1, pos + 1, b2))
            return out
        if pos == len(host_items):
            return []
        out = []
        for b2 in _match_item(item, host_items[pos], binding):
            out.extend(go(i + 1, pos + 1, b2))
        return out

    found = go(0, 0, {})
    unique: list[dict] = []
    for b in found:
        if b not in unique:
            unique.append(b)
    return unique


# -- random rule schemata ----------------------------------------------


def random_schema(rng: random.Random, name: str = "r") -> ConditionalRuleSchema:
    """A valid schema with a simple left side of at most 4 nodes."""
    decls: dict[str, VType] = {}
    left = RuleGraph()
    n_left = rng.randint(1, 4)
    for i in range(n_left):
        nid = f"n{i + 1}"
        if rng.random() < 0.5:
            var = f"x{i}"
            decls[var] = VType.LIST
            left.add_node(nid, RuleLabel(Var(var, VType.LIST), False))
        else:
            left.add_node(nid, RuleLabel(IntLit(rng.choice(INT_POOL)), False))
    left_ids = sorted(left.nodes)
    for j in range(rng.randint(0, 3)):
        eid = f"e{j + 1}"
        if rng.random() < 0.4:
            var = f"y{j}"
            decls[var] = VType.LIST
            label = RuleLabel(Var(var, VType.LIST), False)
        else:
            label = RuleLabel(Empty(), False)
        left.add_edge(eid, rng.choice(left_ids), rng.choice(left_ids), label)

    interface = frozenset(nid for nid in left_ids if rng.random() < 0.6)

    right = RuleGraph()
    for nid in sorted(interface):
        # keep, possibly relabelled from left variables or constants
        if rng.random() < 0.5:
            right.add_node(nid, left.nodes[nid])
        else:
            right.add_node(nid, RuleLabel(IntLit(rng.choice(INT_POOL)), False))
    extra = []
    for k in range(rng.randint(0, 2)):
        nid = f"m{k + 1}"
        extra.append(nid)
        right.add_node(nid, RuleLabel(StrLit(rng.choice(STRING_POOL)), False))
    right_ids = sorted(right.nodes)
    if right_ids:
        for j in range(rng.randint(0, 3)):
            right.add_edge(
                f"f{j + 1}",
                rng.choice(right_ids),
                rng.choice(right_ids),
                RuleLabel(IntLit(rng.choice(INT_POOL)), False),
            )
    return ConditionalRuleSchema(name, decls, left, interface, right, None)


def random_condition(rng: random.Random, depth: int = 2):
    """A random condition with every predicate and connective, over
    `random_simple_label` expressions, degrees and arithmetic."""
    if depth > 0 and rng.random() < 0.5:
        if rng.random() < 0.3:
            return Not(random_condition(rng, depth - 1))
        kind = rng.choice([And, CondOr])
        return kind(random_condition(rng, depth - 1), random_condition(rng, depth - 1))
    expr = lambda: random_simple_label(rng)[0]
    kind = rng.choice(["type", "eq", "rel", "edge"])
    if kind == "type":
        return TypeCheck(rng.choice(["int", "string", "atom"]), expr())
    if kind == "eq":
        return Eq(expr(), expr(), rng.random() < 0.5)
    if kind == "rel":
        degree = Deg(rng.choice(["in", "out"]), rng.choice(["n1", "n2"]))
        total = Arith(rng.choice("+-*/"), degree, Neg(IntLit(rng.choice(INT_POOL))))
        return Rel(rng.choice([">", ">=", "<", "<="]), total, expr())
    return EdgePred("n1", "n2", expr() if rng.random() < 0.5 else None)


# -- reference evaluators ----------------------------------------------
#
# The interpreted evaluators that `gp2.labels._Writer` replaced, kept as
# the reference its generated code is checked against.  They recurse, so
# nesting deeper than the recursion limit raises `RecursionError`.


def eval_int(
    e: ListExpr, g: Premorphism, alpha: Assignment, host: HostGraph
) -> int:
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, Var):
        value = alpha[e.name]
        if not isinstance(value, int) or isinstance(value, bool):
            raise EvalError(f"variable {e.name!r} is not an integer")
        return value
    if isinstance(e, Neg):
        return -eval_int(e.expr, g, alpha, host)
    if isinstance(e, Arith):
        left = eval_int(e.left, g, alpha, host)
        right = eval_int(e.right, g, alpha, host)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if e.op == "/":
            if right == 0:
                raise EvalError("division by zero")
            # truncation towards zero; works for arbitrary precision
            q = abs(left) // abs(right)
            return -q if (left < 0) != (right < 0) else q
        raise ValueError(f"unknown operator {e.op!r}")
    if isinstance(e, Deg):
        return host.degree(g.node_map[e.node], e.direction)
    raise EvalError(f"not an integer expression: {e}")


def eval_string(
    e: ListExpr, g: Premorphism, alpha: Assignment, host: HostGraph
) -> str:
    if isinstance(e, StrLit):
        return e.value
    if isinstance(e, Var):
        value = alpha[e.name]
        if not isinstance(value, str):
            raise EvalError(f"variable {e.name!r} is not a string")
        return value
    if isinstance(e, Dot):
        return eval_string(e.left, g, alpha, host) + eval_string(
            e.right, g, alpha, host
        )
    raise EvalError(f"not a string expression: {e}")


def eval_list(
    e: ListExpr, g: Premorphism, alpha: Assignment, host: HostGraph
) -> tuple[Atom, ...]:
    """The sequence of atoms denoted by e under (g, alpha, host)."""
    if isinstance(e, Empty):
        return ()
    if isinstance(e, (IntLit, Neg, Arith, Deg)):
        return (eval_int(e, g, alpha, host),)
    if isinstance(e, (StrLit, Dot)):
        return (eval_string(e, g, alpha, host),)
    if isinstance(e, Var):
        value = alpha[e.name]
        if isinstance(value, tuple):
            return value
        return (value,)  # type: ignore[return-value]
    if isinstance(e, Cons):
        return eval_list(e.left, g, alpha, host) + eval_list(e.right, g, alpha, host)
    raise EvalError(f"unknown expression {e!r}")


def eval_condition(
    c: Condition, g: Premorphism, alpha: Assignment, host: HostGraph
) -> bool:
    if isinstance(c, TypeCheck):
        value = eval_list(c.expr, g, alpha, host)
        if c.tname == "int":
            return len(value) == 1 and isinstance(value[0], int)
        if c.tname == "string":
            return len(value) == 1 and isinstance(value[0], str)
        if c.tname == "atom":
            return len(value) == 1
        raise ValueError(f"unknown type predicate {c.tname!r}")
    if isinstance(c, Eq):
        left = eval_list(c.left, g, alpha, host)
        right = eval_list(c.right, g, alpha, host)
        return (left != right) if c.negated else (left == right)
    if isinstance(c, Rel):
        left = eval_int(c.left, g, alpha, host)
        right = eval_int(c.right, g, alpha, host)
        return {
            ">": left > right,
            ">=": left >= right,
            "<": left < right,
            "<=": left <= right,
        }[c.op]
    if isinstance(c, EdgePred):
        src = g.node_map[c.source]
        tgt = g.node_map[c.target]
        wanted = (
            None if c.label is None else eval_list(c.label, g, alpha, host)
        )
        for eid in host.edges_between(src, tgt):
            if wanted is None or host.edges[eid].label.items == wanted:
                return True
        return False
    if isinstance(c, Not):
        return not eval_condition(c.cond, g, alpha, host)
    # and/or evaluate both operands so evaluation errors always surface
    if isinstance(c, And):
        left = eval_condition(c.left, g, alpha, host)
        right = eval_condition(c.right, g, alpha, host)
        return left and right
    if isinstance(c, CondOr):
        left = eval_condition(c.left, g, alpha, host)
        right = eval_condition(c.right, g, alpha, host)
        return left or right
    raise TypeError(f"not a condition: {c!r}")


# -- reference rewrite -------------------------------------------------


def _fresh(prefix: str, counter: int, taken: dict) -> tuple[int, str]:
    """The next fresh id after `counter` that `taken` does not hold, with
    the counter that gave it."""
    while f"{prefix}{counter + 1}" in taken:
        counter += 1
    return counter + 1, f"{prefix}{counter + 1}"


def reference_apply(
    schema: ConditionalRuleSchema, host: HostGraph, match: tuple, copy: bool = True
) -> HostGraph:
    """`rules.apply` by direct construction.  The match is checked first,
    with the generated rewrite's `GraphError` messages in its order: the
    marks of the matched nodes, then each left edge's host edge (known,
    same mark), each deleted node (known, no edge left but the deleted
    ones) and each interface node (known).  The result's `nodes` and
    `edges` are then the host's without the deleted items, with the right
    nodes relabelled or added in slot order, then the right edges added,
    under fresh ids.  Both indexes are left unbuilt, so a scan supplies
    them, and the certificate is kept only where nothing changed.  The
    right labels are evaluated first, by the interpreted `eval_list`, in
    the order of the generated rewrite: the nodes, then the edges, each in
    insertion order."""
    left, right, interface = schema.left, schema.right, schema.interface
    image, alpha = match
    g = premorphism(left, image)
    node_items = {n: eval_list(label.expr, g, alpha, host) for n, label in right.nodes.items()}
    edge_items = {e: eval_list(r.label.expr, g, alpha, host) for e, r in right.edges.items()}
    at = dict(zip(sorted(left.nodes), image))
    for n, x in at.items():
        label = host.nodes.get(x)
        if label is not None and label.marked != left.nodes[n].marked:
            raise GraphError(f"stale match: node {x!r} is {'un' * (not label.marked)}marked")
    edges = dict(host.edges)
    for eid, x in zip(sorted(left.edges), image[len(at) :]):
        if x not in edges:
            raise GraphError(f"unknown edge id {x!r}")
        label = edges.pop(x).label
        if label.marked != left.edges[eid].label.marked:
            raise GraphError(f"stale match: edge {x!r} is {'un' * (not label.marked)}marked")
    deleted = [at[n] for n in sorted(left.nodes) if n not in interface]
    for x in deleted:
        if x not in host.nodes:
            raise GraphError(f"unknown node id {x!r}")
        first = next((i for i, e in edges.items() if x in (e.source, e.target)), None)
        if first is not None:
            raise GraphError(f"node {x!r} still incident to edge {first!r}")
    for n in sorted(right.nodes):
        if n in interface and at[n] not in host.nodes:
            raise GraphError(f"unknown node id {at[n]!r}")
    nodes = {x: label for x, label in host.nodes.items() if x not in deleted}
    node_counter, edge_counter, ids = host._node_counter, host._edge_counter, {}
    for n in sorted(right.nodes):
        if n in interface:
            ids[n] = at[n]
        else:
            node_counter, ids[n] = _fresh("n", node_counter, nodes)
        nodes[ids[n]] = HostLabel(node_items[n], right.nodes[n].marked)
    for eid in sorted(right.edges):
        e = right.edges[eid]
        edge_counter, x = _fresh("e", edge_counter, edges)
        edges[x] = Edge(ids[e.source], ids[e.target], HostLabel(edge_items[eid], e.label.marked))
    result = HostGraph() if copy else host
    same = nodes == host.nodes and edges == host.edges
    result._signature = host._signature if same else None
    result.nodes, result.edges = nodes, edges
    result._node_counter, result._edge_counter = node_counter, edge_counter
    result._incident = result._marked = None
    return result


# -- changing a host by rule ---------------------------------------------
#
# A run changes a host only by applying rules, so tests change one the same
# way: each edit below applies, in place, a rule without variables at a
# match chosen by hand, and the generated rewrite keeps the host's indexes.


def _constant(items: tuple):
    """The list expression of a label's atoms."""
    terms = [IntLit(a) if isinstance(a, int) else StrLit(a) for a in items]
    return functools.reduce(Cons, terms) if terms else Empty()


@functools.cache
def _edit_rule(left: tuple, right: tuple, interface: frozenset) -> ConditionalRuleSchema:
    """The rule whose sides are ((node id, label), ...) and ((edge id,
    source, target, label), ...), each label a `HostLabel`."""
    sides = []
    for nodes, edges in (left, right):
        side = RuleGraph()
        for nid, label in nodes:
            side.add_node(nid, RuleLabel(_constant(label.items), label.marked))
        for eid, s, t, label in edges:
            side.add_edge(eid, s, t, RuleLabel(_constant(label.items), label.marked))
        sides.append(side)
    return ConditionalRuleSchema("edit", {}, sides[0], interface, sides[1])


def _edit(host: HostGraph, left: tuple, right: tuple, image: tuple) -> None:
    """Apply the rule of these sides at `image`; the nodes that both sides
    have are its interface."""
    interface = frozenset(n for n, _ in left[0]) & frozenset(n for n, _ in right[0])
    apply(_edit_rule(left, right, interface), host, (image, {}), copy=False)


def _ends(host: HostGraph, source: str, target: str) -> tuple[tuple, dict]:
    """The rule nodes that keep the ends of an edge as they are, one for a
    loop, and the rule node of each end."""
    at = {x: f"n{i}" for i, x in enumerate(dict.fromkeys((source, target)), 1)}
    return tuple((n, host.nodes[x]) for x, n in at.items()), at


def edit_add_node(host: HostGraph, label: HostLabel) -> str:
    """Add a node by rule; its fresh id."""
    _edit(host, ((), ()), ((("n1", label),), ()), ())
    return next(reversed(host.nodes))


def edit_add_edge(host: HostGraph, source: str, target: str, label: HostLabel) -> str:
    """Add an edge by rule; its fresh id."""
    nodes, at = _ends(host, source, target)
    _edit(host, (nodes, ()), (nodes, (("e1", at[source], at[target], label),)), tuple(at))
    return next(reversed(host.edges))


def edit_remove_edge(host: HostGraph, edge_id: str) -> None:
    e = host.edges[edge_id]
    nodes, at = _ends(host, e.source, e.target)
    _edit(host, (nodes, (("e1", at[e.source], at[e.target], e.label),)), (nodes, ()), (*at, edge_id))


def edit_remove_node(host: HostGraph, node_id: str) -> None:
    """Remove a node by rule; a node with an edge raises `GraphError`."""
    _edit(host, ((("n1", host.nodes[node_id]),), ()), ((), ()), (node_id,))


def edit_relabel_node(host: HostGraph, node_id: str, label: HostLabel) -> None:
    _edit(host, ((("n1", host.nodes[node_id]),), ()), ((("n1", label),), ()), (node_id,))


# -- reference matcher -------------------------------------------------


def premorphism(left: RuleGraph, image: tuple) -> Premorphism:
    """The premorphism of a match's slot tuple (`rules.enumerate_matches`):
    the host ids of the sorted left nodes, then of the sorted left edges."""
    nodes, edges = sorted(left.nodes), sorted(left.edges)
    k = len(nodes)
    return Premorphism(dict(zip(nodes, image[:k])), dict(zip(edges, image[k:])))


def reference_premorphisms(left: RuleGraph, host: HostGraph) -> Iterator[Premorphism]:
    """All injective structure-preserving maps, node tuple by node tuple.

    The naive enumerator the search-plan matcher replaced: every injective
    tuple of host nodes in sorted order, then every choice of host edges
    between the images, found by scanning all host edges.  Marks are left
    to assignment inference.
    """
    left_nodes = sorted(left.nodes)
    left_edges = sorted(left.edges)
    host_nodes = sorted(host.nodes)

    node_map: dict[str, str] = {}
    used_nodes: set[str] = set()

    def assign_edges(i: int, edge_map: dict[str, str], used: set[str]):
        if i == len(left_edges):
            yield Premorphism(dict(node_map), dict(edge_map))
            return
        eid = left_edges[i]
        ledge = left.edges[eid]
        src = node_map[ledge.source]
        tgt = node_map[ledge.target]
        between = [
            heid for heid, e in host.edges.items() if e.source == src and e.target == tgt
        ]
        for heid in sorted(between):
            if heid in used:
                continue
            edge_map[eid] = heid
            used.add(heid)
            yield from assign_edges(i + 1, edge_map, used)
            del edge_map[eid]
            used.remove(heid)

    def assign_nodes(i: int):
        if i == len(left_nodes):
            yield from assign_edges(0, {}, set())
            return
        nid = left_nodes[i]
        for hid in host_nodes:
            if hid in used_nodes:
                continue
            node_map[nid] = hid
            used_nodes.add(hid)
            yield from assign_nodes(i + 1)
            del node_map[nid]
            used_nodes.remove(hid)

    yield from assign_nodes(0)


# -- reference assignment inference -------------------------------------
#
# The interpreter's unifier before labels were compiled: it flattens each
# left label and dispatches on each item's kind for every candidate.


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
    item, atom, bindings: Assignment, g: Premorphism, host: HostGraph
) -> bool:
    # negation chains over an integer variable are invertible
    negations = 0
    core = item
    while isinstance(core, Neg) and variables(core):
        negations += 1
        core = core.expr
    if negations and isinstance(core, Var) and core.vtype is VType.INT:
        if not isinstance(atom, int):
            return False
        return _bind(bindings, core.name, atom if negations % 2 == 0 else -atom)
    if not variables(item):
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
    items: tuple,
    bindings: Assignment,
    g: Premorphism,
    host: HostGraph,
) -> bool:
    parts = _flatten_cons(expr)
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


def reference_infer_assignment(
    left: RuleGraph, g: Premorphism, host: HostGraph
) -> Optional[Assignment]:
    """The unique assignment making g label-preserving, or None."""
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


def reference_matches(
    schema: ConditionalRuleSchema, host: HostGraph, warnings: Optional[list[str]] = None
) -> list[tuple[Premorphism, Assignment]]:
    """Every applicable (premorphism, assignment) pair, composed from the
    references and the interpreted evaluators alone.

    Each premorphism of `reference_premorphisms`, in its order, with the
    assignment of `reference_infer_assignment`, which checks the marks;
    then the condition, the dangling condition by a scan of all host edges,
    and every right label by `eval_list`.  An evaluation error discards the
    match with a warning."""
    deleted = [n for n in schema.left.nodes if n not in schema.interface]
    right_labels = [
        *schema.right.nodes.values(),
        *(e.label for e in schema.right.edges.values()),
    ]
    out = []
    for g in reference_premorphisms(schema.left, host):
        alpha = reference_infer_assignment(schema.left, g, host)
        if alpha is None:
            continue
        try:
            if schema.condition is not None and not eval_condition(
                schema.condition, g, alpha, host
            ):
                continue
            gone = {g.node_map[n] for n in deleted}
            matched = set(g.edge_map.values())
            if any(
                eid not in matched and (e.source in gone or e.target in gone)
                for eid, e in host.edges.items()
            ):
                continue
            for label in right_labels:
                eval_list(label.expr, g, alpha, host)
        except EvalError as exc:
            if warnings is not None:
                warnings.append(f"rule {schema.name}: match discarded ({exc})")
            continue
        out.append((g, alpha))
    return out


# -- reference two-phase matching ---------------------------------------


def generate_test(schema: ConditionalRuleSchema, slot: dict[str, int]):
    """The generated test of a complete match that the one search per
    schema replaced: `test(image, alpha, host)` tells whether the
    condition, then the dangling condition, hold at a match; None if the
    schema has neither.  The dangling condition is one length test per
    deleted node, as in the search."""
    left = schema.left
    namespace: dict = {"EvalError": EvalError}
    node = lambda n: f"image[{slot[n]}]"  # noqa: E731
    writer = _Writer(namespace, node, "raise EvalError({})", _bound(left))
    test = writer.lines
    if schema.condition is not None:
        holds = writer.value(schema.condition, "cond", "    ")
        test.append(f"    if not {holds}: return False")
    deleted = [n for n in sorted(left.nodes) if n not in schema.interface]
    test += ["    inc = host.incidence()"] if deleted else []
    for n in deleted:
        count = sum(n in (e.source, e.target) for e in left.edges.values())
        test.append(f"    if len(inc[image[{slot[n]}]]) != {count}: return False")
    if not test:
        return None
    exec("\n".join(["def test(image, alpha, host):", *test, "    return True"]), namespace)
    return namespace["test"]


# id of a schema's `_Rule` -> (that record, plain search, test, right labels to evaluate)
_tests: dict[int, tuple] = {}


def two_phase_matches(
    schema: ConditionalRuleSchema, host: HostGraph, warnings: Optional[list[str]] = None
) -> Iterator[tuple]:
    """`rules.enumerate_matches` in two phases, the path that the one
    search per schema replaced: the plain search of the left graph (the one
    `infer_assignment` reads), then, in slot-tuple order, the generated
    test of the condition and the dangling condition (`generate_test`, made
    once per schema record), then, where they can raise, the right labels
    by the interpreted `eval_list`, nodes then edges in insertion order."""
    rule = _rule(schema)
    kept = _tests.get(id(rule))
    if kept is None or kept[0] is not rule:
        search = _left(schema.left).search
        labels = _labels(schema.right) if raises(schema) else []
        kept = _tests[id(rule)] = rule, search, generate_test(schema, rule.left.slot), labels
    _, search, test, labels = kept
    for image, alpha in search(host):
        try:
            if test is not None and not test(image, alpha, host):
                continue
            if labels:
                g = premorphism(schema.left, image)
                for label in labels:
                    eval_list(label.expr, g, alpha, host)
        except EvalError as exc:
            if warnings is not None:
                warnings.append(f"rule {schema.name}: match discarded ({exc})")
            continue
        yield image, alpha


# -- reference isomorphism test ----------------------------------------


def _ranks(keys: list) -> list[int]:
    """Each key's rank among the distinct keys: a canonical colouring."""
    rank = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [rank[k] for k in keys]


def _label_key(label: HostLabel) -> tuple:
    """A total order on labels: atoms of one kind compare."""
    return tuple([isinstance(a, str) for a in label.items]), label.items, label.marked


def fresh_certificate(g: HostGraph) -> Certificate:
    """The certificate of g from scratch, as `HostGraph.signature` makes it
    without a table, but not cached on g."""
    nodes, edges = g.nodes, g.edges
    h = _certificate_hash(nodes, edges, g.incidence())
    return Certificate(_Content((h, dict(nodes), dict(edges))))


class ExactContent(tuple):
    """`gp2.graphs._Content` as it was before contents compared up to edge
    ids: (hash, nodes, edges), hashed as the certificate is, and equal
    exactly when the hashes and the node and edge dicts are, edge ids
    included.  Set as `gp2.graphs._Content`, it gives the reference content
    table."""

    __slots__ = ()

    def __hash__(self) -> int:
        return self[0]


def reference_certificate(g: HostGraph) -> tuple:
    """Canonical form by colour refinement and individualisation.

    The recursive certificate that `HostGraph.signature` computed before
    the iterative one in `gp2.graphs`; tests require the two to split
    hosts into the same isomorphism classes.

    Node colours start as ranks of (label, in-degree, out-degree) and are
    refined by the sorted multisets of (neighbour colour, edge label) over
    out- and in-edges.  While a colour class has several nodes, each of
    them is individualised in turn and the colouring refined again; every
    discrete colouring reached gives a leaf, the sorted edge list over
    colours, and the least leaf is the certificate.  A branch that is the
    image of an explored one under an automorphism is skipped: a swap of
    two nodes that preserves the edges, or a node in the orbit of a tried
    one under the automorphisms that equal leaves reveal.
    """

    labels = [_label_key(lab) for lab in g.nodes.values()]
    index = {n: i for i, n in enumerate(g.nodes)}
    edges = [(index[e.source], index[e.target], _label_key(e.label)) for e in g.edges.values()]
    out: list[list] = [[] for _ in index]
    into: list[list] = [[] for _ in index]
    for s, t, lab in edges:
        out[s].append((t, lab))
        into[t].append((s, lab))
    nodes = range(len(index))

    def refine(colours: list[int]) -> list[int]:
        while len(set(colours)) < len(colours):
            refined = _ranks([
                (
                    colours[v],
                    tuple(sorted((colours[w], lab) for w, lab in out[v])),
                    tuple(sorted((colours[w], lab) for w, lab in into[v])),
                )
                for v in nodes
            ])
            if refined == colours:
                break
            colours = refined
        return colours

    def automorphic_swap(u: int, v: int) -> bool:
        swap = {u: v, v: u}
        moved = [(s, t, lab) for s, t, lab in edges if s in swap or t in swap]
        image = [(swap.get(s, s), swap.get(t, t), lab) for s, t, lab in moved]
        return sorted(moved) == sorted(image)

    leaves: dict[tuple, tuple] = {}
    automorphisms: list[list[int]] = []

    def search(colours: list[int], path: tuple) -> int:
        """Collect the leaves below `path`; return the depth to resume at."""
        if len(set(colours)) == len(colours):
            leaf = tuple(sorted((colours[s], colours[t], lab) for s, t, lab in edges))
            if leaf not in leaves:
                leaves[leaf] = path, colours
                return len(path)
            # the automorphism that maps the earlier leaf onto this one fixes
            # their common prefix and maps the rest of this subtree onto an
            # explored one; it is kept to prune siblings in the same orbit
            earlier_path, earlier = leaves[leaf]
            node_at = sorted(nodes, key=colours.__getitem__)
            automorphisms.append([node_at[c] for c in earlier])
            return next(i for i, (a, b) in enumerate(zip(earlier_path, path)) if a != b)
        cell = min(c for c, k in Counter(colours).items() if k > 1)
        members = [v for v in nodes if colours[v] == cell]
        orbit = {v: {v} for v in members}  # under the automorphisms that fix `path`
        tried: list[int] = []
        known = 0
        for v in members:
            for a in automorphisms[known:]:
                if all(a[x] == x for x in path):
                    for x in members:
                        if a[x] not in orbit[x]:
                            merged = orbit[x] | orbit[a[x]]
                            orbit.update(dict.fromkeys(merged, merged))
            known = len(automorphisms)
            if not orbit[v].isdisjoint(tried) or any(automorphic_swap(u, v) for u in tried):
                continue
            tried.append(v)
            child = [c + (c > cell or (c == cell and w != v)) for w, c in enumerate(colours)]
            back = search(refine(child), path + (v,))
            if back < len(path):
                return back
        return len(path)

    search(refine(_ranks([(labels[v], len(into[v]), len(out[v])) for v in nodes])), ())
    return tuple(sorted(labels)), min(leaves)


def _items_key(items: tuple) -> tuple:
    """A totally ordered stand-in for an atom list (ints and strings mix)."""
    return tuple(
        (0, a, "") if isinstance(a, int) else (1, 0, a) for a in items
    )


def reference_signature(g: HostGraph) -> tuple:
    """An isomorphism-invariant fingerprint: sorted node and edge keys.

    The bucket key that `HostGraph.signature` gave before it became a
    canonical certificate; non-isomorphic graphs may share it.
    """
    indeg = dict.fromkeys(g.nodes, 0)
    outdeg = dict.fromkeys(g.nodes, 0)
    for e in g.edges.values():
        outdeg[e.source] += 1
        indeg[e.target] += 1
    node_sig = sorted(
        (_items_key(lab.items), lab.marked, indeg[n], outdeg[n])
        for n, lab in g.nodes.items()
    )
    edge_sig = sorted(
        (_items_key(e.label.items), e.label.marked, e.source == e.target)
        for e in g.edges.values()
    )
    return (tuple(node_sig), tuple(edge_sig))


def reference_isomorphic(a: HostGraph, b: HostGraph) -> bool:
    """Backtracking isomorphism test, partitioned by label and degrees.

    The pairwise test that canonical certificates replaced.
    """
    if len(a.nodes) != len(b.nodes) or len(a.edges) != len(b.edges):
        return False
    if reference_signature(a) != reference_signature(b):
        return False

    def node_keys(g: HostGraph) -> dict[str, tuple]:
        indeg = dict.fromkeys(g.nodes, 0)
        outdeg = dict.fromkeys(g.nodes, 0)
        for e in g.edges.values():
            outdeg[e.source] += 1
            indeg[e.target] += 1
        return {
            n: (_items_key(lab.items), lab.marked, indeg[n], outdeg[n])
            for n, lab in g.nodes.items()
        }

    a_keys = node_keys(a)
    b_keys = node_keys(b)
    a_nodes = sorted(a.nodes, key=lambda n: a_keys[n])
    candidates: dict[str, list[str]] = {
        n: [m for m in b.nodes if b_keys[m] == a_keys[n]] for n in a_nodes
    }

    b_edge_bag: dict[tuple[str, str], list] = {}
    for e in b.edges.values():
        b_edge_bag.setdefault((e.source, e.target), []).append(e.label)

    def edges_ok(mapping: dict[str, str]) -> bool:
        want: dict[tuple[str, str], list] = {}
        for e in a.edges.values():
            want.setdefault((mapping[e.source], mapping[e.target]), []).append(e.label)
        for pair, labels in want.items():
            have = b_edge_bag.get(pair, [])
            if sorted(map(str, labels)) != sorted(map(str, have)):
                return False
        return sum(len(v) for v in want.values()) == len(b.edges)

    used: set[str] = set()
    mapping: dict[str, str] = {}

    def backtrack(i: int) -> bool:
        if i == len(a_nodes):
            return edges_ok(mapping)
        n = a_nodes[i]
        for m in candidates[n]:
            if m in used:
                continue
            # prune: adjacency with already-mapped nodes must agree
            ok = True
            for p, q in mapping.items():
                if _pair_profile(a, n, p) != _pair_profile(b, m, q):
                    ok = False
                    break
            if not ok:
                continue
            mapping[n] = m
            used.add(m)
            if backtrack(i + 1):
                return True
            del mapping[n]
            used.remove(m)
        return False

    return backtrack(0)


def _pair_profile(g: HostGraph, u: str, v: str) -> tuple:
    fwd = sorted(str(g.edges[e].label) for e in g.edges_between(u, v))
    bwd = sorted(str(g.edges[e].label) for e in g.edges_between(v, u))
    return (tuple(fwd), tuple(bwd))


class ReferenceStore:
    """Graphs up to isomorphism: signature buckets searched pairwise."""

    def __init__(self) -> None:
        self.buckets: dict[tuple, list[HostGraph]] = {}

    def put(self, g: HostGraph) -> bool:
        """Insert unless an isomorphic graph is present; True if inserted."""
        bucket = self.buckets.setdefault(reference_signature(g), [])
        if any(reference_isomorphic(g, h) for h in bucket):
            return False
        bucket.append(g)
        return True

    def __iter__(self) -> Iterator[HostGraph]:
        for bucket in self.buckets.values():
            yield from bucket


# -- morphisms -----------------------------------------------------------


def preserves_structure(g: Premorphism, src, dst: HostGraph) -> bool:
    """Check s/t commutation for a map between graph-like objects.

    `src` may be a HostGraph or a rule graph; it only needs `edges`
    with source/target fields and a `nodes` mapping.
    """
    for leid, heid in g.edge_map.items():
        if leid not in src.edges or heid not in dst.edges:
            return False
        le, he = src.edges[leid], dst.edges[heid]
        if g.node_map.get(le.source) != he.source:
            return False
        if g.node_map.get(le.target) != he.target:
            return False
    return all(n in src.nodes for n in g.node_map) and all(
        h in dst.nodes for h in g.node_map.values()
    )


def is_label_preserving_morphism(
    g: Premorphism, src: HostGraph, dst: HostGraph
) -> bool:
    """True iff g is structure-preserving and maps every label onto an equal one."""
    if set(g.node_map) != set(src.nodes) or set(g.edge_map) != set(src.edges):
        return False
    if not preserves_structure(g, src, dst):
        return False
    for n, h in g.node_map.items():
        if src.nodes[n] != dst.nodes[h]:
            return False
    for e, h in g.edge_map.items():
        if src.edges[e].label != dst.edges[h].label:
            return False
    return True


# -- random command trees ----------------------------------------------


def random_body(
    rng: random.Random, rule_names: tuple[str, ...], depth: int = 3
) -> Command:
    if depth == 0:
        return rng.choice(
            [Skip(), Fail(), RuleSetCall((rng.choice(rule_names),))]
        )
    kind = rng.choice(["skip", "fail", "call", "seq", "if", "try", "or", "loop"])
    sub = lambda: random_body(rng, rule_names, depth - 1)
    if kind == "skip":
        return Skip()
    if kind == "fail":
        return Fail()
    if kind == "call":
        k = rng.randint(1, min(2, len(rule_names)))
        return RuleSetCall(tuple(rng.sample(rule_names, k)))
    if kind == "seq":
        return seq([sub(), sub()])
    if kind == "if":
        return If(sub(), sub(), sub() if rng.random() < 0.5 else None)
    if kind == "try":
        return Try(sub(), sub(), sub() if rng.random() < 0.5 else None)
    if kind == "or":
        return Or(sub(), sub())
    return Loop(sub())


# -- printing ----------------------------------------------------------

# The recursive `__str__` methods that `gp2.labels.show` replaced, kept as
# the reference printer: the command methods from before commands printed
# iteratively, and the label and condition methods from before they joined
# the command printer.


def reference_show(node) -> str:
    """The text of a command, rule label, expression or condition."""
    s = reference_show
    if isinstance(node, Skip):
        return "skip"
    if isinstance(node, Fail):
        return "fail"
    if isinstance(node, RuleSetCall):
        if node.bare and len(node.names) == 1:
            return node.names[0]
        return "{" + ", ".join(node.names) + "}"
    if isinstance(node, Seq):
        # bare, an if or try would take the items after it into its last branch
        return "; ".join(
            f"({s(c)})" if isinstance(c, (If, Try, Or)) else s(c) for c in node.items
        )
    if isinstance(node, (If, Try)):
        keyword = "if" if isinstance(node, If) else "try"
        text = f"{keyword} {s(node.cond)} then ({s(node.then)})"
        if node.els is not None:
            text += f" else ({s(node.els)})"
        return text
    if isinstance(node, Loop):
        return f"({s(node.body)})!"
    if isinstance(node, Or):
        left, right = (
            f"({s(c)})" if isinstance(c, (If, Try)) else s(c) for c in (node.left, node.right)
        )
        return f"({left} or {right})"
    if isinstance(node, Empty):
        return "empty"
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, StrLit):
        return format_atom(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{s(node.expr)})"
    if isinstance(node, Arith):
        return f"({s(node.left)} {node.op} {s(node.right)})"
    if isinstance(node, Deg):
        kw = "indeg" if node.direction == "in" else "outdeg"
        return f"{kw}({node.node})"
    if isinstance(node, Dot):
        return f"{s(node.left)}.{s(node.right)}"
    if isinstance(node, Cons):
        return f"{s(node.left)}:{s(node.right)}"
    if isinstance(node, RuleLabel):
        return f"{s(node.expr)} #" if node.marked else s(node.expr)
    if isinstance(node, TypeCheck):
        return f"{node.tname}({s(node.expr)})"
    if isinstance(node, Eq):
        op = "!=" if node.negated else "="
        return f"{s(node.left)} {op} {s(node.right)}"
    if isinstance(node, Rel):
        return f"{s(node.left)} {node.op} {s(node.right)}"
    if isinstance(node, EdgePred):
        if node.label is None:
            return f"edge({node.source}, {node.target})"
        return f"edge({node.source}, {node.target}, {s(node.label)})"
    if isinstance(node, Not):
        return f"not ({s(node.cond)})"
    if isinstance(node, And):
        return f"({s(node.left)} and {s(node.right)})"
    if isinstance(node, CondOr):
        return f"({s(node.left)} or {s(node.right)})"
    raise TypeError(f"not a syntax node: {node!r}")


def reference_summary(command: Command) -> str:
    """A traced command's text, cut to 60 characters."""
    text = reference_show(command)
    return text if len(text) <= 60 else text[:57] + "..."


# -- tokenizer ---------------------------------------------------------


def reference_tokenize(text: str) -> list[Token]:
    """The character-loop tokenizer that `gp2.parsing.tokenize` replaced."""
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i, col = i + 1, col + 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "KEYWORD" if word in KEYWORDS else "IDENT"
            tokens.append(Token(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        if c == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n and text[j + 1] in ('"', "\\"):
                    out.append(text[j + 1])
                    j += 2
                elif text[j] == "\n":
                    raise ParseError("unterminated string", start_line, start_col)
                else:
                    out.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string", start_line, start_col)
            tokens.append(Token("STRING", "".join(out), start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token("SYMBOL", sym, start_line, start_col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# -- exhaustive exploration --------------------------------------------


# The explorer that `gp2.executor.Engine` replaced, kept verbatim as the
# reference: configurations are (command, graph) pairs, and a sequence
# steps by recursing on its head and rebuilding the rest with `seq`.


class _ConfigTable:
    """Interning of unfinished configurations up to graph isomorphism."""

    def __init__(self) -> None:
        # per command, each graph's canonical certificate to its index
        self._by_cmd: dict[Command, dict[tuple, int]] = {}
        self.commands: list[Command] = []
        self.graphs: list[HostGraph] = []

    def intern(self, command: Command, graph: HostGraph) -> tuple[int, bool]:
        index = len(self.commands)
        existing = self._by_cmd.setdefault(command, {}).setdefault(graph.signature(), index)
        if existing != index:
            return existing, False
        self.commands.append(command)
        self.graphs.append(graph)
        return index, True

    def __len__(self) -> int:
        return len(self.commands)


class ReferenceEngine:
    """Shared state for one exhaustive-semantics computation."""

    def __init__(self, rules: dict[str, ConditionalRuleSchema], budget: Budget):
        self.rules = rules
        self.budget = budget
        self.steps = 0
        self.warnings: list[str] = []
        # memo of sub-semantics per (command, graph up to iso)
        self._memo: dict[Command, IsoStore] = {}

    def ruleset(self, names: tuple[str, ...]) -> list[ConditionalRuleSchema]:
        return [self.rules[n] for n in names]

    def tick(self) -> bool:
        """Account for one transition; False once the budget is spent."""
        if self.steps >= self.budget.max_steps:
            return False
        self.steps += 1
        return True

    def semantics(self, command: Command, graph: HostGraph) -> ResultSet:
        store = self._memo.setdefault(command, IsoStore())
        cached = store.get(graph)
        if cached is not None:
            return cached
        result = self._explore(command, graph)
        # do not cache truncated explorations; a later call may have
        # budget left to finish them
        if result.bottom != BOTTOM_POSSIBLE:
            store.set(graph, result)
        return result

    def _explore(self, command: Command, graph: HostGraph) -> ResultSet:
        table = _ConfigTable()
        root, _ = table.intern(command, graph)
        edges: dict[int, list[int]] = {}
        frontier = deque([root])
        results = IsoStore()
        result_list: list[HostGraph] = []
        can_fail = False
        stuck = False
        truncated = False

        while frontier:
            index = frontier.popleft()
            if not self.tick() or len(table) > self.budget.max_configs:
                truncated = True
                break
            succs, premise_truncated = self._successors(
                table.commands[index], table.graphs[index]
            )
            if premise_truncated:
                truncated = True
            edges[index] = []
            if not succs and not premise_truncated:
                stuck = True
            for succ in succs:
                if isinstance(succ, Result):
                    if results.put(succ.graph):
                        result_list.append(succ.graph)
                elif isinstance(succ, Failure):
                    can_fail = True
                else:
                    child, fresh = table.intern(succ.rest, succ.state)
                    edges[index].append(child)
                    if fresh:
                        frontier.append(child)

        # an incomplete exploration can only claim "possible"; proven
        # verdicts (stuckness, a closed cycle) need the full graph
        bottom = BOTTOM_NONE
        if truncated:
            bottom = BOTTOM_POSSIBLE
        elif stuck or _has_cycle(edges, root):
            bottom = BOTTOM_PROVEN
        return ResultSet(result_list, can_fail, bottom)

    def _successors(
        self, command: Command, graph: HostGraph
    ) -> tuple[list[Configuration], bool]:
        """The exact successor set of one unfinished configuration.

        The second component reports whether a premise discharge ran out
        of budget, in which case successors may be missing.
        """
        if isinstance(command, Seq):
            head, rest = command.items[0], seq(list(command.items[1:]))
            inner, truncated = self._successors(head, graph)
            out: list[Configuration] = []
            for succ in inner:
                if isinstance(succ, Unfinished):  # [seq1]
                    out.append(Unfinished(seq([succ.rest, rest]), succ.state))
                elif isinstance(succ, Result):  # [seq2]
                    out.append(Unfinished(rest, succ.graph))
                else:  # [seq3]
                    out.append(Failure())
            return out, truncated
        if isinstance(command, RuleSetCall):
            graphs = apply_ruleset(self.ruleset(command.names), graph, self.warnings)
            if graphs:
                return [Result(h) for h in graphs], False  # [call1]
            return [Failure()], False  # [call2]
        if isinstance(command, Skip):
            return [Result(graph)], False  # [skip]
        if isinstance(command, Fail):
            return [Failure()], False  # [fail]
        if isinstance(command, Or):
            return (
                [Unfinished(command.left, graph), Unfinished(command.right, graph)],
                False,
            )  # [or1], [or2]
        if isinstance(command, If):
            sub = self.semantics(command.cond, graph)
            out = []
            if sub.graphs:  # [if1] / [if3]
                out.append(Unfinished(command.then, graph))
            if sub.can_fail:  # [if2] / [if4]
                if command.els is None:
                    out.append(Result(graph))
                else:
                    out.append(Unfinished(command.els, graph))
            return out, sub.bottom == BOTTOM_POSSIBLE
        if isinstance(command, Try):
            sub = self.semantics(command.cond, graph)
            out = []
            for h in sub.graphs:  # [try1] / [try3]
                out.append(Unfinished(command.then, h))
            if sub.can_fail:  # [try2] / [try4]
                if command.els is None:
                    out.append(Result(graph))
                else:
                    out.append(Unfinished(command.els, graph))
            return out, sub.bottom == BOTTOM_POSSIBLE
        if isinstance(command, Loop):
            sub = self.semantics(command.body, graph)
            out = []
            for h in sub.graphs:  # [alap1]
                out.append(Unfinished(command, h))
            if sub.can_fail:  # [alap2]
                out.append(Result(graph))
            return out, sub.bottom == BOTTOM_POSSIBLE
        raise TypeError(f"cannot execute {command!r}")


def _has_cycle(edges: dict[int, list[int]], root: int) -> bool:
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[int, int] = {}

    stack = [(root, iter(edges.get(root, ())))]
    color[root] = GRAY
    while stack:
        node, it = stack[-1]
        advanced = False
        for child in it:
            state = color.get(child, WHITE)
            if state == GRAY:
                return True
            if state == WHITE:
                color[child] = GRAY
                stack.append((child, iter(edges.get(child, ()))))
                advanced = True
                break
        if not advanced:
            color[node] = BLACK
            stack.pop()
    return False


# -- single seeded runs ------------------------------------------------


# The big-step runner that `gp2.executor.run_one` replaced, kept verbatim
# as the reference: it recurses on sequences, `or`, `if`/`try` and loops
# rather than stepping flat continuations.


class BudgetExceeded(Exception):
    """The reference runner's step budget ran out."""


class ReferenceRunner:
    def __init__(self, rules, budget: Budget, tracing: bool):
        self.rules = rules
        self.budget = budget
        self.rng = random.Random(budget.seed)
        self.steps = 0
        self.warnings: list[str] = []
        self.trace: list[TraceEntry] = []
        self.tracing = tracing

    def tick(self, rule: str, command: Command, graph: HostGraph) -> None:
        self.steps += 1
        if self.steps > self.budget.max_steps:
            raise BudgetExceeded()
        if self.tracing:
            self.trace.append(
                TraceEntry(
                    self.steps,
                    rule,
                    reference_summary(command),
                    len(graph.nodes),
                    len(graph.edges),
                )
            )

    def run(self, command: Command, graph: HostGraph):
        """Evaluate one derivation; returns ('graph', G) or ('fail', G)."""
        if isinstance(command, Seq):
            current = graph
            for item in command.items:
                kind, current = self.run(item, current)
                if kind == "fail":
                    return "fail", graph
            return "graph", current
        if isinstance(command, Skip):
            self.tick("skip", command, graph)
            return "graph", graph
        if isinstance(command, Fail):
            self.tick("fail", command, graph)
            return "fail", graph
        if isinstance(command, RuleSetCall):
            matches = []
            for schema in [self.rules[n] for n in command.names]:
                for match in enumerate_matches(schema, graph, self.warnings):
                    matches.append((schema, match))
            if not matches:
                self.tick("call2", command, graph)
                return "fail", graph
            schema, match = self.rng.choice(matches)
            result = apply(schema, graph, match)
            self.tick("call1", command, result)
            return "graph", result
        if isinstance(command, Or):
            pick_left = self.rng.random() < 0.5
            self.tick("or1" if pick_left else "or2", command, graph)
            return self.run(command.left if pick_left else command.right, graph)
        if isinstance(command, (If, Try)):
            kind, h = self.run(command.cond, graph)
            name = "try" if isinstance(command, Try) else "if"
            if kind == "graph":
                h = h if name == "try" else graph  # if discards the test's graph
                self.tick(name + ("3" if command.els is None else "1"), command, h)
                return self.run(command.then, h)
            self.tick(name + ("4" if command.els is None else "2"), command, graph)
            if command.els is None:
                return "graph", graph
            return self.run(command.els, graph)
        if isinstance(command, Loop):
            current = graph
            while True:
                kind, nxt = self.run(command.body, current)
                if kind == "fail":
                    self.tick("alap2", command, current)
                    return "graph", current
                self.tick("alap1", command, nxt)
                current = nxt
        raise TypeError(f"cannot execute {command!r}")


def reference_run_one(
    program: CheckedProgram | Command,
    host: HostGraph,
    budget: Optional[Budget] = None,
    rules: Optional[dict[str, ConditionalRuleSchema]] = None,
    tracing: bool = False,
) -> RunOutcome:
    """One seeded pseudo-random derivation to a terminal configuration."""
    if isinstance(program, CheckedProgram):
        command = program.main
        rules = program.rules
    else:
        command = program
        rules = rules or {}
    runner = ReferenceRunner(rules, budget or Budget(), tracing)
    try:
        kind, graph = runner.run(command, host)
    except BudgetExceeded:
        return RunOutcome("budget", None, runner.steps, runner.warnings, runner.trace)
    if kind == "fail":
        return RunOutcome("fail", None, runner.steps, runner.warnings, runner.trace)
    return RunOutcome("graph", graph, runner.steps, runner.warnings, runner.trace)
