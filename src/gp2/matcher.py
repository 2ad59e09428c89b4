"""The generated matcher of a left graph: one search that also unifies.

`generate` writes it as Python source, once per left graph, and compiles
it with `exec`; `rules` calls it on first use and keeps only the function.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from .graphs import HostGraph, mark_class
from .labels import (
    Dot,
    EvalError,
    Neg,
    RuleLabel,
    StrLit,
    Var,
    VType,
    degree_nodes,
    eval_list,
    list_items,
    subterms,
)

if TYPE_CHECKING:
    from .rules import RuleGraph, _Compiled


def _is_ground(e) -> bool:
    return not any(isinstance(t, Var) for t in subterms(e))


class _Image:
    """A match's node images read by slot, offered to the evaluators in
    `labels` as what they read of a premorphism `g`: `g.node_map[node]`."""

    __slots__ = ("slot", "image")

    def __init__(self, slot: dict[str, int], image: tuple) -> None:
        self.slot = slot
        self.image = image

    @property
    def node_map(self) -> "_Image":
        return self

    def __getitem__(self, node: str) -> str:
        return self.image[self.slot[node]]


def _item(item, const: Callable[[object], str]) -> Optional[tuple]:
    """How one left-label item tests its host atom `t`: (test, value, name,
    degree operands), or None if it never matches.  The test is an
    expression over `t` (None for none), `{G}` standing for the match's
    node map; the item binds its variable `name`, if it has one, to the
    expression `value`."""
    negations, core = 0, item
    while isinstance(core, Neg) and not _is_ground(core):
        negations, core = negations + 1, core.expr
    if negations:  # a negation chain over an integer variable is invertible
        if not (isinstance(core, Var) and core.vtype is VType.INT):
            return None
        return "isinstance(t, int)", "-t" if negations % 2 else "t", core.name, set()
    if _is_ground(item):
        operands = degree_nodes(item)
        if operands:  # depends on the match: evaluate each time

            def ground(a, g, host: HostGraph) -> bool:
                try:
                    return eval_list(item, g, {}, host) == (a,)
                except EvalError:
                    return False

            return f"{const(ground)}(t, {{G}}, host)", None, None, operands
        try:
            value = eval_list(item, None, {}, None)
        except EvalError:
            return None
        return (f"t == {const(value[0])}", None, None, set()) if len(value) == 1 else None
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


def generate(graph: RuleGraph, compiled: _Compiled) -> Callable:
    """The search of a left graph, generated as Python source and
    compiled once.

    `search(host)` gives the sorted list of (slot tuple, assignment) of
    every injective premorphism that agrees on marks and unifies.  Each
    loop binds one item, an edge with its ends, to locals, so injectivity
    is a few `==` tests, between items of one mark, and nothing is undone.
    Each step of the plan takes

    - an edge with a bound end, from the incidence index of that end;
    - else an edge that is or touches a marked item, from the marked index,
      its class first in `_START`;
    - else a marked node, from the marked index;
    - else an edge, else a node, from all host edges or nodes.

    Each left label is unified as soon as its item and the operands of its
    degree operators are bound, its variables becoming locals; a repeated
    one is compared.  Marks are tested where an item is bound."""
    nodes, edges, slot = compiled.nodes, compiled.edges, compiled.slot
    k, n = len(nodes), len(nodes) + len(edges)
    ends = {
        k + i: (slot[graph.edges[e].source], slot[graph.edges[e].target])
        for i, e in enumerate(edges)
    }
    namespace: dict = {"_Image": _Image, "slot": slot}

    def const(value) -> str:
        name = f"k{len(namespace)}"
        namespace[name] = value
        return name

    rule_labels = [graph.nodes[v] for v in nodes] + [graph.edges[e].label for e in edges]
    labels = [_label(label, const) for label in rule_labels]
    if None in labels:
        return lambda host: []
    local: dict[str, str] = {}  # variable name -> local
    for _, _, items, rest, _ in labels:
        for name in [item[3] for item in items] + [rest and rest[0]]:
            if name is not None:
                local.setdefault(name, f"v{len(local)}")
    assignment = "{" + ", ".join(f"{name!r}: {v}" for name, v in local.items()) + "}"
    search: list[str] = []
    bound: set[int] = set()  # the bound slots
    bound_vars: set[str] = set()

    def emit_label(s: int, pad: str) -> None:
        """The unification of the label in slot s with `L<s>`, binding the
        variables not bound yet; a failure goes on to the next candidate."""
        _, fixed, items, rest, _ = labels[s]
        view = f"_Image(slot, ({''.join(f'x{v}, ' if v in bound else 'None, ' for v in range(k))}))"
        search.append(f"{pad}I = L{s}.items")
        if rest is None or fixed:
            test = f"len(I) != {fixed}" if rest is None else f"len(I) < {fixed}"
            search.append(f"{pad}if {test}: continue")
        for index, test, value, name, _ in items:
            if test is None and value == "t" and name not in bound_vars:
                search.append(f"{pad}{local[name]} = I[{index}]")
                bound_vars.add(name)
                continue
            search.append(f"{pad}t = I[{index}]")
            tests = [] if test is None else [f"not ({test.replace('{G}', view)})"]
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
    while len(bound) < n:
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
        for t in sorted(bound - done):
            if {slot[v] for v in labels[t][4] if v in slot} <= bound:
                emit_label(t, "    " * depth)
                done.add(t)
    image = "".join(f"x{s}, " for s in range(n))
    search.append(f"{'    ' * depth}found.append((({image}), {assignment}))")
    lines = ["def search(host):", "    nodes, edges, found = host.nodes, host.edges, []"]
    text = "\n".join(search)
    if "inc[" in text:
        lines.append("    inc = host.incidence()")
    if "marked.get(" in text:
        lines.append("    marked = host.marked()")
    lines += [text, "    found.sort()", "    return found"]
    exec("\n".join(lines), namespace)
    return namespace["search"]
