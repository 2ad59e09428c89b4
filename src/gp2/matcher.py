"""The generated code of a rule: the search of its left graph, which also
unifies, and its schema's test of a complete match and evaluator of right
labels.  `generate` and `generate_rule` write them as Python source, which
`rules` compiles with `exec` on first use.  Expressions and conditions
become straight-line code, so nesting in a rule never nests in the source.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from .graphs import mark_class
from .labels import (
    And,
    Arith,
    Deg,
    Dot,
    EdgePred,
    Eq,
    EvalError,
    IntLit,
    Neg,
    Not,
    Or,
    Rel,
    RuleLabel,
    StrLit,
    TypeCheck,
    Var,
    VType,
    degree_nodes,
    eval_list,
    list_items,
    operands,
    subterms,
    variables,
)

if TYPE_CHECKING:
    from .rules import ConditionalRuleSchema, RuleGraph, _Compiled


def _parts(e, kind: str) -> list:
    """The operands that the value of e as `kind` (`_Writer.value`) is
    written from, each with its kind."""
    if kind == "cond":
        sub = "cond" if isinstance(e, (Not, And, Or)) else "int" if isinstance(e, Rel) else "list"
        return [(t, sub) for t in operands(e)]
    if kind == "list":
        return [(t, "item") for t in list_items(e)]
    if kind == "item":  # a variable, or an integer or string expression
        string = isinstance(e, (StrLit, Dot))
        return [] if isinstance(e, Var) else [(e, "string" if string else "int")]
    if isinstance(e, Neg if kind == "int" else Dot) or (kind == "int" and isinstance(e, Arith)):
        return [(t, kind) for t in operands(e)]
    return []


# what an integer or a string is called in a message, and its type check
_TYPES = {
    "int": ("an integer", "not isinstance({0}, int) or isinstance({0}, bool)"),
    "string": ("a string", "not isinstance({0}, str)"),
}


class _Writer:
    """Straight-line source, in `lines`, that evaluates expressions and
    conditions as `labels.eval_list`, `eval_int`, `eval_string` and
    `eval_condition` do, one local per subterm, its constants going into
    `namespace`.  `node(n)` is the source of the host node of left node n,
    and `fail` the statement of an evaluation error, `{}` standing for its
    message.  A variable is read from `alpha` once; its type check is left
    out where `bound` gives the type its value has in every match (its
    `VType` on the left).  `raises` tells whether an error was written."""

    def __init__(self, namespace: dict, node, fail: str, bound: Optional[dict] = None):
        self.lines: list[str] = []
        self.namespace, self.node, self.fail, self.bound = namespace, node, fail, bound or {}
        self.read: dict[str, str] = {}  # variable -> the local holding its value
        self.raises, self.pad = False, ""

    def const(self, value) -> str:
        name = f"k{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def local(self, value: str) -> str:
        name = f"u{len(self.lines)}"
        self.lines.append(f"{self.pad}{name} = {value}")
        return name

    def error(self, message: str, test: str = "True") -> None:
        self.lines.append(f"{self.pad}if {test}: {self.fail.format(self.const(message))}")
        self.raises = True

    def value(self, e, kind: str, pad: str) -> str:
        """Write e as a condition ("cond"), list ("list"), list item ("item"),
        integer ("int") or string ("string"); give the local or constant that
        holds its value, starred for an item that is a list."""
        self.pad, done, todo = pad, [], [(e, kind, None)]  # done: operand values
        while todo:
            e, kind, parts = todo.pop()
            if parts is None:
                parts = _parts(e, kind)
                todo.append((e, kind, parts))
                todo += [(t, k, None) for t, k in reversed(parts)]
                continue
            args = done[len(done) - len(parts) :]
            del done[len(done) - len(parts) :]
            done.append(self.emit(e, kind, args))
        return done[0]

    def emit(self, e, kind: str, args: list) -> str:
        """Write the value of e from the values of its parts."""
        if kind == "list":
            if len(args) == 1 and args[0][0] == "*":
                return args[0][1:]
            if all(a in self.namespace for a in args):  # a constant
                return self.const(tuple(self.namespace[a] for a in args))
            return self.local(f"({', '.join(args)},)")
        if isinstance(e, Var):
            if e.name not in self.read:
                self.read[e.name] = self.local(f"alpha[{e.name!r}]")
            v, bound = self.read[e.name], self.bound.get(e.name)
            if kind in _TYPES and bound != kind:
                name, test = _TYPES[kind]
                self.error(f"variable {e.name!r} is not {name}", test.format(v))
            if kind != "item" or bound in ("int", "string", "atom"):
                return v
            if bound != "list":
                v = self.local(f"{v} if isinstance({v}, tuple) else ({v},)")
            return "*" + v
        if kind == "item":
            return args[0]
        if isinstance(e, Eq):
            return self.local(f"{args[0]} {'!=' if e.negated else '=='} {args[1]}")
        if isinstance(e, TypeCheck):
            v, atom = args[0], {"int": "int", "string": "str"}.get(e.tname)
            atom = f" and isinstance({v}[0], {atom})" if atom else ""
            return self.local(f"len({v}) == 1{atom}")
        if isinstance(e, EdgePred):
            test = f"host.edges[u].label.items == {args[0]}" if args else "True"
            ends = f"{self.node(e.source)}, {self.node(e.target)}"
            return self.local(f"any({test} for u in host.edges_between({ends}))")
        if isinstance(e, IntLit if kind == "int" else StrLit):
            return self.const(e.value)
        if kind == "int" and isinstance(e, Deg):
            return self.local(f"host.degree({self.node(e.node)}, {e.direction!r})")
        if kind == "int" and isinstance(e, Arith) and e.op == "/":  # truncation towards zero
            a, b = args
            self.error("division by zero", f"{b} == 0")
            q = self.local(f"abs({a}) // abs({b})")
            return self.local(f"-{q} if ({a} < 0) != ({b} < 0) else {q}")
        if args:  # and / or evaluate both operands, so that errors surface
            op = {Not: "not", And: "and", Or: "or", Neg: "-", Dot: "+"}.get(type(e)) or e.op
            return self.local(f"{op} {args[0]}" if len(args) == 1 else f"{args[0]} {op} {args[1]}")
        self.error(f"not {_TYPES[kind][0]} expression: {e}")
        return "None"


def _item(item, const: Callable[[object], str]) -> Optional[tuple]:
    """How one left-label item tests its host atom `t`: (test, value, name,
    degree operands), or None if it never matches.  The test is an
    expression over `t` (None for none), or for a ground item that reads
    degrees the item itself, which the search evaluates (`_Writer`) once
    its operands are bound; the item binds its variable `name`, if it has
    one, to the expression `value`."""
    negations, core = 0, item
    while isinstance(core, Neg) and variables(core):
        negations, core = negations + 1, core.expr
    if negations:  # a negation chain over an integer variable is invertible
        if not (isinstance(core, Var) and core.vtype is VType.INT):
            return None
        return "isinstance(t, int)", "-t" if negations % 2 else "t", core.name, set()
    if not variables(item):
        operands = degree_nodes(item)
        if operands:  # depends on the match: evaluate each time
            return item, None, None, operands
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
    namespace: dict = {}
    writer = _Writer(namespace, lambda v: f"x{slot[v]}", "continue")
    search, const = writer.lines, writer.const
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
    bound: set[int] = set()  # the bound slots
    bound_vars: set[str] = set()

    def emit_label(s: int, pad: str) -> None:
        """The unification of the label in slot s with `L<s>`, binding the
        variables not bound yet; a failure goes on to the next candidate."""
        _, fixed, items, rest, _ = labels[s]
        search.append(f"{pad}I = L{s}.items")
        if rest is None or fixed:
            test = f"len(I) != {fixed}" if rest is None else f"len(I) < {fixed}"
            search.append(f"{pad}if {test}: continue")
        for index, test, value, name, _ in items:
            if test is not None and not isinstance(test, str):  # a ground item reading degrees
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


def generate_rule(schema: ConditionalRuleSchema, slot: dict[str, int]) -> tuple:
    """(test, build, raises) of a schema whose left nodes have the slots
    `slot`.  `test(image, alpha, host)` tells whether the condition, then
    the dangling condition, hold at a match; None if the schema has neither.
    The dangling condition is one length test per deleted node: a match is
    injective and preserves structure, so the node's incident edges are the
    matched ones if there are as many as left edges at it, a loop once.
    `build(image, alpha, host)` gives the atoms of the right labels in slot
    order, evaluated in insertion order as `eval_list` would; `raises` tells
    whether it can raise (a right label divides, or reads a variable at
    another type than the left side binds)."""
    left, right = schema.left, schema.right
    namespace: dict = {"EvalError": EvalError}
    bound: dict[str, str] = {}
    for label in [*left.nodes.values(), *(e.label for e in left.edges.values())]:
        for t in subterms(label.expr):
            if isinstance(t, Var) and bound.get(t.name, "atom") == "atom":
                bound[t.name] = t.vtype.value
    node = lambda n: f"image[{slot[n]}]"  # noqa: E731
    writer = _Writer(namespace, node, "raise EvalError({})", bound)
    test = writer.lines
    if schema.condition is not None:
        holds = writer.value(schema.condition, "cond", "    ")
        test.append(f"    if not {holds}: return False")
    deleted = [n for n in sorted(left.nodes) if n not in schema.interface]
    test += ["    inc = host.incidence()"] if deleted else []
    for n in deleted:
        count = sum(n in (e.source, e.target) for e in left.edges.values())
        test.append(f"    if len(inc[image[{slot[n]}]]) != {count}: return False")
    writer = _Writer(namespace, node, "raise EvalError({})", bound)
    build = writer.lines
    nodes = {n: writer.value(label.expr, "list", "    ") for n, label in right.nodes.items()}
    edges = {e: writer.value(edge.label.expr, "list", "    ") for e, edge in right.edges.items()}
    labels = [nodes[n] for n in sorted(nodes)] + [edges[e] for e in sorted(edges)]
    source = ["def build(image, alpha, host):", *build]
    source.append(f"    return ({''.join(v + ', ' for v in labels)})")
    if test:
        source += ["def test(image, alpha, host):", *test, "    return True"]
    exec("\n".join(source), namespace)
    return namespace.get("test"), namespace["build"], writer.raises
