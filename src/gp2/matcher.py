"""The generated code of a rule: its schema's one search, which unifies
and tests the condition and the dangling condition inside its loops, its
schema's evaluator of right labels, and its schema's rewrite; and the
plain search of a left graph, without condition or dangling test, for
`rules.infer_assignment`.  `generate`, `generate_rule` and
`generate_rewrite` write them as Python source, which `rules` compiles
with `exec` on first use.  Expressions and conditions become straight-line
code, written by `gp2.labels._Writer`, so nesting in a rule never nests in
the source.  The rewrite is straight-line too: the mark class of each item
it deletes or adds is a constant fixed when the rule is compiled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from .graphs import Edge, GraphError, HostLabel, _without, mark_class
from .labels import (
    Dot,
    EvalError,
    Neg,
    RuleLabel,
    StrLit,
    Var,
    VType,
    _Writer,
    condition_nodes,
    degree_nodes,
    list_items,
    subterms,
    variables,
)

if TYPE_CHECKING:
    from .rules import ConditionalRuleSchema, RuleGraph, _Compiled


def _item(item, const: Callable[[object], str]) -> Optional[tuple]:
    """How one left-label item tests its host atom `t`: (test, value, name,
    degree operands), or None if it never matches.  The test is an
    expression over `t` (None for none), or for a ground item the item
    itself, which the search evaluates (`_Writer`) once the operands of
    its degree operators are bound; the item binds its variable `name`,
    if it has one, to the expression `value`."""
    negations, core = 0, item
    while isinstance(core, Neg):
        negations, core = negations + 1, core.expr
    if negations and variables(core):  # a negation chain over an integer variable is invertible
        if not (isinstance(core, Var) and core.vtype is VType.INT):
            return None
        return "isinstance(t, int)", "-t" if negations % 2 else "t", core.name, set()
    if not variables(item):
        return item, None, None, degree_nodes(item)
    if isinstance(item, Var):
        if item.vtype is VType.INT:
            return "isinstance(t, int)", "t", item.name, set()
        if item.vtype is VType.STRING:
            return "isinstance(t, str)", "t", item.name, set()
        if item.vtype is VType.ATOM:
            return None, "t", item.name, set()
        return None  # a bare list variable is handled positionally
    if isinstance(item, Dot):  # string literals around one string variable
        pieces = [t for t in subterms(item) if not isinstance(t, Dot)]
        at = [i for i, p in enumerate(pieces) if isinstance(p, Var) and p.vtype is VType.STRING]
        if len(at) != 1 or sum(isinstance(p, StrLit) for p in pieces) != len(pieces) - 1:
            return None
        prefix = "".join(p.value for p in pieces[: at[0]])
        suffix = "".join(p.value for p in pieces[at[0] + 1 :])
        test = (
            f"isinstance(t, str) and len(t) >= {len(prefix) + len(suffix)}"
            f" and t.startswith({const(prefix)}) and t.endswith({const(suffix)})"
        )
        return test, f"t[{len(prefix)}:len(t) - {len(suffix)}]", pieces[at[0]].name, set()
    return None


def _label(label: RuleLabel, const: Callable[[object], str]) -> Optional[tuple]:
    """How one left label unifies with a host label, or None if it never
    does: (mark, item count, items, list variable, degree operands).  Each
    item is (index, *`_item`), counted from the back after the list
    variable, which is (name, front count, back count) or None."""
    parts = list_items(label.expr)
    lists = [i for i, p in enumerate(parts) if isinstance(p, Var) and p.vtype is VType.LIST]
    if len(lists) > 1:
        return None
    at = lists[0] if lists else len(parts)
    items = []
    for i, p in enumerate(parts):
        if i != at:
            test = _item(p, const)
            if test is None:
                return None
            items.append((i if i < at else i - len(parts), *test))
    fixed = len(parts) - len(lists)
    rest = (parts[at].name, at, fixed - at) if lists else None
    operands = set().union(*(item[-1] for item in items))
    return label.marked, fixed, items, rest, operands


# the mark classes of edges (`HostGraph.marked`) in the order a search plan
# prefers to start at them: marked edges, then edges from or to a marked
# node, then unmarked edges between marked nodes
_START = (7, 6, 5, 4, 2, 1, 3)


def _bound(left: RuleGraph) -> dict[str, str]:
    """The type (`VType` value) each variable of the left labels has in
    every match, as `_Writer` reads `bound`."""
    bound: dict[str, str] = {}
    for label in [*left.nodes.values(), *(e.label for e in left.edges.values())]:
        for t in subterms(label.expr):
            if isinstance(t, Var) and bound.get(t.name, "atom") == "atom":
                bound[t.name] = t.vtype.value
    return bound


def generate(
    graph: RuleGraph, compiled: _Compiled, schema: Optional[ConditionalRuleSchema] = None
) -> Callable:
    """The search of a left graph, or with `schema` the search of a schema
    whose left graph it is, generated as Python source and compiled once.

    `search(host)` gives the sorted list of (slot tuple, assignment) of
    every injective premorphism that agrees on marks and unifies, and with
    `schema` satisfies the condition and the dangling condition.  Each
    loop binds one item, an edge with its ends, to locals, so injectivity
    is a few `==` tests, between items of one mark, and nothing is undone.
    Each step of the plan takes

    - an edge with a bound end, from the incidence index of that end;
    - else an edge that is or touches a marked item, from the marked index,
      its class first in `_START`;
    - else a marked node, from the marked index;
    - else an edge, else a node, from all host edges or nodes.

    Marks are tested where an item is bound.  Each left label is unified
    as soon as its item and the operands of its degree operators are
    bound, its variables becoming locals; a repeated one is compared.  The
    dangling condition is one length test per deleted node: a match is
    injective and preserves structure, so the node's incident edges are
    the matched ones if there are as many as left edges at it, a loop once.
    A condition that cannot raise is tested, and each length test is
    made, as soon as their nodes and variables are bound.  A condition
    that can raise is tested in the innermost loop, before the length
    tests, and its error is found as (slot tuple, `EvalError`), so the
    caller sees errors and matches in slot-tuple order.  A degree is
    counted in the incidence index inline."""
    nodes, edges, slot = compiled.nodes, compiled.edges, compiled.slot
    k, n = len(nodes), len(nodes) + len(edges)
    ends = {
        k + i: (slot[graph.edges[e].source], slot[graph.edges[e].target])
        for i, e in enumerate(edges)
    }
    namespace: dict = {"EvalError": EvalError}
    writer = _Writer(namespace, lambda v: f"x{slot[v]}", "continue", _bound(graph), inline=True)
    search, const = writer.lines, writer.const
    rule_labels = [graph.nodes[v] for v in nodes] + [graph.edges[e].label for e in edges]
    labels = [_label(label, const) for label in rule_labels]
    if None in labels:
        return lambda host: []
    local = writer.read  # variable name -> local
    names = [[item[3] for item in items] + [rest and rest[0]] for _, _, items, rest, _ in labels]
    for name in [name for label in names for name in label if name is not None]:
        local.setdefault(name, f"v{len(local)}")
    assignment = "{" + ", ".join(f"{name!r}: {v}" for name, v in local.items()) + "}"
    image = "".join(f"x{s}, " for s in range(n))
    bound: set[int] = set()  # the bound slots
    bound_vars: set[str] = set()
    condition = schema.condition if schema else None
    dangling = {  # the slot of each deleted node -> the number of left edges at it
        slot[v]: sum(v in (e.source, e.target) for e in graph.edges.values())
        for v in nodes
        if schema and v not in schema.interface
    }
    late = False  # whether the condition can raise
    if condition is not None:
        probe = _Writer({}, writer.node, "", writer.bound)
        probe.value(condition, "cond", "")
        late = probe.raises
        # the slots it reads: its nodes, and every slot whose label holds one
        # of its variables, so that a variable typed apart in two labels is
        # read only once both have unified
        needs = {slot[v] for v in condition_nodes(condition)}
        needs |= {s for s in range(n) if variables(condition).intersection(names[s])}

    def emit_condition(depth: int) -> None:
        """The test of the condition; with `late`, in the innermost loop."""
        pad, skip = "    " * depth, "continue" if depth > 1 else "return found"
        writer.fail = f"found.append((({image}), EvalError({{}}))); {skip}"
        search.append(f"{pad}if not {writer.value(condition, 'cond', pad)}: {skip}")

    def emit_label(s: int, pad: str) -> None:
        """The unification of the label in slot s with `L<s>`, binding the
        variables not bound yet; a failure goes on to the next candidate."""
        _, fixed, items, rest, _ = labels[s]
        search.append(f"{pad}I = L{s}.items")
        if rest is None or fixed:
            test = f"len(I) != {fixed}" if rest is None else f"len(I) < {fixed}"
            search.append(f"{pad}if {test}: continue")
        for index, test, value, name, _ in items:
            if test is not None and not isinstance(test, str):  # a ground item
                ground = writer.value(test, "item", pad)
                search.append(f"{pad}if I[{index}] != {ground}: continue")
                continue
            if test is None and value == "t" and name not in bound_vars:
                search.append(f"{pad}{local[name]} = I[{index}]")
                bound_vars.add(name)
                continue
            search.append(f"{pad}t = I[{index}]")
            tests = [] if test is None else [f"not ({test})"]
            if name is not None and name in bound_vars:
                tests.append(f"{value} != {local[name]}")
            if tests:
                search.append(f"{pad}if {' or '.join(tests)}: continue")
            if name is not None and name not in bound_vars:
                search.append(f"{pad}{local[name]} = {value}")
                bound_vars.add(name)
        if rest is not None:
            name, front, back = rest
            value = f"I[{front}:len(I) - {back}]" if back else f"I[{front}:]" if front else "I"
            if name in bound_vars:
                search.append(f"{pad}if {value} != {local[name]}: continue")
            else:
                search.append(f"{pad}{local[name]} = {value}")
                bound_vars.add(name)

    # one nested loop per step of the plan
    mark = [label[0] for label in labels]
    classes = {s: mark_class(mark[s], mark[a], mark[b]) for s, (a, b) in ends.items()}
    done: set[int] = set()  # the slots whose labels are unified
    depth = 1
    while True:
        if condition is not None and not late and needs <= done:
            emit_condition(depth)
            condition = None
        if len(bound) == n:
            break
        pad, inner = "    " * depth, "    " * (depth + 1)
        free = [s for s in range(n) if s not in bound]
        reached = [s for s in free if s >= k and not bound.isdisjoint(ends[s])]
        classed = sorted(
            (s for s in free if s >= k and classes[s]), key=lambda s: _START.index(classes[s])
        )
        marked_nodes = [s for s in free if s < k and mark[s]]
        s = (reached or classed or marked_nodes or [s for s in free if s >= k] or free)[0]
        by_class = not reached and bool(classed)  # the class fixes the marks of s and its ends
        old = [v for v in sorted(bound) if v < k]  # the bound nodes
        new = [s]
        if s < k:
            tests = [f"x{s} == x{v}" for v in old if mark[v] == mark[s]]
            if mark[s]:
                search.append(f"{pad}for x{s} in marked.get(0, ()):")
            else:
                search.append(f"{pad}for x{s}, L{s} in nodes.items():")
                tests.insert(0, f"L{s}.marked")
            if tests:
                search.append(f"{inner}if {' or '.join(tests)}: continue")
            if mark[s]:
                search.append(f"{inner}L{s} = nodes[x{s}]")
        else:
            a, b = ends[s]
            if reached:
                search.append(f"{pad}for x{s} in inc[x{a if a in bound else b}]:")
            elif by_class:
                search.append(f"{pad}for x{s} in marked.get({classes[s]}, ()):")
            else:
                search.append(f"{pad}for x{s}, E in edges.items():")
            if reached or by_class:
                search.append(f"{inner}E = edges[x{s}]")
            tests = [f"E.source != x{a}"] if a in bound else []
            tests += [f"E.target != x{b}"] if b in bound else []
            tests += [f"x{s} == x{e}" for e in sorted(bound) if e >= k and mark[e] == mark[s]]
            tests += [] if by_class else [f"E.label.marked != {mark[s]}"]
            if tests:
                search.append(f"{inner}if {' or '.join(tests)}: continue")
            search.append(f"{inner}L{s} = E.label")
            for end, field in ((a, "source"), (b, "target")):
                if end in new:  # the target of a loop
                    search.append(f"{inner}if E.target != x{end}: continue")
                elif end not in bound:
                    search.append(f"{inner}x{end} = E.{field}")
                    search.append(f"{inner}L{end} = nodes[x{end}]")
                    tests = [f"x{end} == x{v}" for v in old + new[1:] if mark[v] == mark[end]]
                    tests += [] if by_class else [f"L{end}.marked != {mark[end]}"]
                    if tests:
                        search.append(f"{inner}if {' or '.join(tests)}: continue")
                    new.append(end)
        bound.update(new)
        depth += 1
        for v in new:
            if v in dangling and not late:
                search.append(f"{inner}if len(inc[x{v}]) != {dangling[v]}: continue")
        for t in sorted(bound - done):
            if {slot[v] for v in labels[t][4] if v in slot} <= bound:
                emit_label(t, inner)
                done.add(t)
    pad = "    " * depth
    if condition is not None:  # a condition that can raise
        emit_condition(depth)
        search += [f"{pad}if len(inc[x{v}]) != {dangling[v]}: continue" for v in sorted(dangling)]
    search.append(f"{pad}found.append((({image}), {assignment}))")
    lines = ["def search(host):", "    nodes, edges, found = host.nodes, host.edges, []"]
    text = "\n".join(search)
    if "inc[" in text:
        lines.append("    inc = host.incidence()")
    if "marked.get(" in text:
        lines.append("    marked = host.marked()")
    lines += [text, "    found.sort()", "    return found"]
    exec("\n".join(lines), namespace)
    return namespace["search"]


def generate_rule(schema: ConditionalRuleSchema, slot: dict[str, int]) -> tuple:
    """(build, raises) of a schema whose left nodes have the slots `slot`.
    `build(image, alpha, host)` gives the atoms of the right labels in slot
    order, evaluated in insertion order as `eval_list` would; `raises` tells
    whether it can raise (a right label divides, or reads a variable at
    another type than the left side binds)."""
    right = schema.right
    namespace: dict = {"EvalError": EvalError}
    node = lambda n: f"image[{slot[n]}]"  # noqa: E731
    writer = _Writer(namespace, node, "raise EvalError({})", _bound(schema.left))
    nodes = {n: writer.value(label.expr, "list", "    ") for n, label in right.nodes.items()}
    edges = {e: writer.value(edge.label.expr, "list", "    ") for e, edge in right.edges.items()}
    labels = [nodes[n] for n in sorted(nodes)] + [edges[e] for e in sorted(edges)]
    source = ["def build(image, alpha, host):", *writer.lines]
    source.append(f"    return ({''.join(v + ', ' for v in labels)})")
    exec("\n".join(source), namespace)
    return namespace["build"], writer.raises


def generate_rewrite(schema: ConditionalRuleSchema, slot: dict[str, int]) -> Callable:
    """The rewrite of a schema whose left nodes have the slots `slot`:
    `rewrite(host, image, labels)` rewrites the host in place at the match
    `image`, given the right labels' atoms as `build` gives them.  It
    deletes the left edges in slot order, then the deleted nodes, relabels
    or adds the right nodes in slot order, then adds the right edges.  It
    is the one writer of a host's indexes: it keeps a built index up to
    date, replacing its lists, never changing them in place, and builds the
    incidence index only where it reads it.  A match agrees with the host
    on marks, so the mark class of each edge deleted or added is a
    constant.  An unknown id, a deleted node with an edge left (the first
    is named) and a matched node or deleted edge whose mark is not its left
    item's (a stale match) raise `GraphError`, the marks before any change."""
    left, right, interface = schema.left, schema.right, schema.interface
    nodes = sorted(right.nodes)
    was = {n: label.marked for n, label in left.nodes.items()}
    mark = {n: right.nodes[n].marked for n in nodes}
    deleted = [n for n in sorted(left.nodes) if n not in interface]
    same = all(n in interface and was[n] == mark[n] for n in nodes)
    same = same and not (left.edges or deleted or right.edges)  # only atoms may change
    out = ["def rewrite(host, image, labels):"]
    out.append("    nodes, edges, inc, M = host.nodes, host.edges, host._incident, host._marked")
    for n in sorted(left.nodes):  # before any change; an unknown node raises below
        x, label = f"image[{slot[n]}]", "MARKED" if was[n] else "UNMARKED"
        out.append(f"""    if nodes.get({x}, {label}).marked != {was[n]}:
        raise GraphError(f'stale match: node {{{x}!r}} is {"un" * was[n]}marked')""")
    out += [] if same else ["    host._signature = None"]
    for i, eid in enumerate(sorted(left.edges), len(left.nodes)):
        e = left.edges[eid]
        out.append(f"""    x = image[{i}]
    E = edges.get(x)
    if E is None: raise GraphError(f'unknown edge id {{x!r}}')
    if E.label.marked != {e.label.marked}:
        raise GraphError(f'stale match: edge {{x!r}} is {"un" * e.label.marked}marked')
    del edges[x]
    if inc is not None:
        inc[E.source] = _without(inc[E.source], x)""")
        if e.source != e.target:
            out.append("        inc[E.target] = _without(inc[E.target], x)")
        c = mark_class(e.label.marked, was[e.source], was[e.target])
        out += [f"    if M is not None: host._mark({c}, x, False)"] if c else []
    for n in deleted:
        out.append(f"""    x = image[{slot[n]}]
    if x not in nodes: raise GraphError(f'unknown node id {{x!r}}')
    inc = host.incidence()
    if inc[x]: raise GraphError(f'node {{x!r}} still incident to edge {{inc[x][0]!r}}')
    del nodes[x], inc[x]""")
        out += ["    if M is not None: host._mark(0, x, False)"] if was[n] else []
    for i, n in enumerate(nodes):  # an unknown interface node raises before any node is added
        if n in interface:
            out.append(f"""    v{i} = image[{slot[n]}]
    o{i} = nodes.get(v{i})
    if o{i} is None: raise GraphError(f'unknown node id {{v{i}!r}}')""")
    move = """        for x in inc[v{}]:
            E = edges[x]
            c = 4 * E.label.marked + 2 * nodes[E.source].marked + nodes[E.target].marked
            if c: {}"""
    for i, n in enumerate(nodes):
        label = f"HostLabel(labels[{i}], {mark[n]})"
        if n not in interface:
            out.append(f"    v{i} = host._fresh_node_id()\n    nodes[v{i}] = {label}")
            out += [f"    if M is not None: M[0] = M.get(0, []) + [v{i}]"] if mark[n] else []
        elif was[n] == mark[n]:
            out.append(f"    if o{i}.items != labels[{i}]:\n        nodes[v{i}] = {label}")
            out += ["        host._signature = None"] if same else []
        else:  # the node's edges change class
            out.append(f"""    if M is not None:
        if inc is None: inc = host.incidence()
{move.format(i, "host._mark(c, x, False)")}
    nodes[v{i}] = {label}
    if M is not None:
        host._mark(0, v{i}, {mark[n]})
{move.format(i, "M[c] = M.get(c, []) + [x]")}""")
    at: dict[int, list[str]] = {i: [] for i, n in enumerate(nodes) if n not in interface}
    classes: dict[int, list[str]] = {}
    for j, eid in enumerate(sorted(right.edges)):
        e = right.edges[eid]
        s, t = nodes.index(e.source), nodes.index(e.target)
        label = f"HostLabel(labels[{len(nodes) + j}], {e.label.marked})"
        out.append(f"    w{j} = host._fresh_edge_id()\n    edges[w{j}] = Edge(v{s}, v{t}, {label})")
        for end in dict.fromkeys((s, t)):
            at.setdefault(end, []).append(f"w{j}")
        c = mark_class(e.label.marked, mark[e.source], mark[e.target])
        if c:
            classes.setdefault(c, []).append(f"w{j}")
    out += ["    if inc is not None:"] if at else []
    for i, ids in sorted(at.items()):
        out.append(f"        inc[v{i}] = {f'inc[v{i}] + ' * (nodes[i] in interface)}[{', '.join(ids)}]")
    out += ["    if M is not None:"] if classes else []
    out += [f"        M[{c}] = M.get({c}, []) + [{', '.join(ids)}]" for c, ids in classes.items()]
    namespace = {"GraphError": GraphError, "HostLabel": HostLabel, "Edge": Edge, "_without": _without}
    namespace.update(MARKED=HostLabel((), True), UNMARKED=HostLabel((), False))
    exec("\n".join(out), namespace)
    return namespace["rewrite"]
