"""Rule-schema label expressions and conditions, their evaluation, and
the one base class, walker and printer of every syntax tree.

Expressions are evaluated relative to a premorphism (for degree lookups),
an assignment of values to typed variables, and a host graph.  One writer
(`_Writer`) turns them into straight-line Python source, so that nesting
never recurses: `gp2.matcher` writes a rule's code with it, and
`eval_list` and `eval_condition` compile and run it on each call.  The
interpreted evaluators it replaced are the reference in `tests/genlib.py`.

Every syntax node, here and in `gp2.program`, subclasses `_Node`: it
takes its construction, `repr` and immutability from one field table that
its annotations give, stores its hash when built and compares on an
explicit stack.  One table gives each node's text as strings and the nodes
nested in it; the walker (`operands`, `subterms`), the printer (`show`,
each node's `str`) and the type checker (`infer_type`) read it, so none of
them recurses.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, Optional, Union

from .graphs import Atom, HostGraph, Premorphism, format_atom


class EvalError(Exception):
    """Raised when expression evaluation is undefined (division by zero)."""


class VType(Enum):
    INT = "int"
    STRING = "string"
    ATOM = "atom"
    LIST = "list"


# -- walking and printing --------------------------------------------


def operands(e) -> list:
    """The nodes directly nested in e, left to right."""
    pieces = _PIECES.get(type(e))
    if pieces is None:
        raise TypeError(f"not a syntax node: {e!r}")
    return [p for p in pieces(e) if type(p) is not str]


def subterms(e):
    """Yield e and every node nested in it, each node before its operands
    and left operands before right ones."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        stack.extend(reversed(operands(e)))


def show(node, limit: Optional[int] = None) -> str:
    """The text of a command, rule label, expression or condition, which
    parses back to it.  With a limit, printing stops once the text is
    longer than limit, so only a prefix is built.

    Iterative, so a deep node prints without recursion, and with a limit a
    shared macro expansion is never printed whole."""
    out: list[str] = []
    size = 0
    stack = [node]
    while stack:
        p = stack.pop()
        if type(p) is not str:
            stack += reversed(_PIECES[type(p)](p))
            continue
        out.append(p)
        size += len(p)
        if limit is not None and size > limit:
            break
    return "".join(out)


_REQUIRED = object()  # the default of a field that has none


class _Node:
    """A syntax node: immutable, its fields set by the one `__init__`.

    Each kind annotates its fields in order, a default as a class
    attribute; those named in the class keyword `keyword_only`, such as a
    call's bare flag, are passed by name and change only the text.
    `__init_subclass__` reads them into the field table `_fields` (each
    field's default, `_REQUIRED` where it has none) and the positional
    fields `__match_args__`.  A node hashes once, when built, from the
    stored hashes of the nodes nested in it, so no lookup walks a tree."""

    __match_args__: tuple[str, ...] = ()
    _fields: dict[str, Any] = {}

    def __init_subclass__(cls, keyword_only: tuple[str, ...] = ()) -> None:
        names = vars(cls).get("__annotations__", {})
        cls.__match_args__ = tuple(name for name in names if name not in keyword_only)
        cls._fields = {name: vars(cls).get(name, _REQUIRED) for name in names}

    # one stack frame per node: nesting never recurses while building
    def __init__(self, *fields, **named) -> None:
        kind, state = type(self), vars(self)
        positional = kind.__match_args__
        state.update(zip(positional, fields), **named)
        for name, default in kind._fields.items():
            if state.setdefault(name, default) is _REQUIRED:
                raise TypeError(f"{kind.__name__} needs the field {name!r}")
        if len(fields) > len(positional) or len(state) > len(kind._fields):
            raise TypeError(f"unexpected arguments for {kind.__name__}: {fields} {named}")
        key = (kind, *map(state.__getitem__, positional))
        state["_key"] = key
        state["_hash"] = hash(key)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={vars(self)[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        """Field by field, on an explicit stack, comparing each pair of
        nested nodes once however often the two trees share it."""
        if self is other:
            return True
        if type(other) is not type(self) or other._hash != self._hash:
            return False
        pairs = [(self._key, other._key)]
        seen = set()
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if isinstance(a, tuple):
                if not isinstance(b, tuple) or len(a) != len(b):
                    return False
                pairs += zip(a, b)
            elif not isinstance(a, _Node):
                if a != b:
                    return False
            elif not isinstance(b, _Node) or a._hash != b._hash:
                return False
            elif (id(a), id(b)) not in seen:
                seen.add((id(a), id(b)))
                pairs.append((a._key, b._key))
        return True

    __str__ = show


# -- expression AST ----------------------------------------------------


class Empty(_Node):
    pass


class IntLit(_Node):
    value: int


class StrLit(_Node):
    value: str


class Var(_Node):
    name: str
    vtype: VType


class Neg(_Node):
    expr: "ListExpr"


class Arith(_Node):
    op: str  # one of + - * /
    left: "ListExpr"
    right: "ListExpr"


class Deg(_Node):
    direction: str  # "in" or "out"
    node: str


class Dot(_Node):
    left: "ListExpr"
    right: "ListExpr"


class Cons(_Node):
    left: "ListExpr"
    right: "ListExpr"


ListExpr = Union[Empty, IntLit, StrLit, Var, Neg, Arith, Deg, Dot, Cons]


class RuleLabel(_Node):
    expr: ListExpr
    marked: bool = False


# -- condition AST -----------------------------------------------------


class TypeCheck(_Node):
    tname: str  # int | string | atom
    expr: ListExpr


class Eq(_Node):
    left: ListExpr
    right: ListExpr
    negated: bool = False


class Rel(_Node):
    op: str  # > >= < <=
    left: ListExpr
    right: ListExpr


class EdgePred(_Node):
    source: str
    target: str
    label: Optional[ListExpr] = None


class Not(_Node):
    cond: "Condition"


class And(_Node):
    left: "Condition"
    right: "Condition"


class Or(_Node):
    left: "Condition"
    right: "Condition"


Condition = Union[TypeCheck, Eq, Rel, EdgePred, Not, And, Or]

# each node's text, as strings and the nodes nested in it, left to right;
# gp2.program adds the commands
_PIECES: dict[type, Callable[[Any], list]] = {
    Empty: lambda e: ["empty"],
    IntLit: lambda e: [str(e.value)],
    StrLit: lambda e: [format_atom(e.value)],
    Var: lambda e: [e.name],
    Neg: lambda e: ["(-", e.expr, ")"],
    Arith: lambda e: ["(", e.left, f" {e.op} ", e.right, ")"],
    Deg: lambda e: [("indeg(" if e.direction == "in" else "outdeg(") + e.node + ")"],
    Dot: lambda e: [e.left, ".", e.right],
    Cons: lambda e: [e.left, ":", e.right],
    RuleLabel: lambda e: [e.expr, " #"] if e.marked else [e.expr],
    TypeCheck: lambda e: [e.tname + "(", e.expr, ")"],
    Eq: lambda e: [e.left, " != " if e.negated else " = ", e.right],
    Rel: lambda e: [e.left, f" {e.op} ", e.right],
    EdgePred: lambda e: (
        [f"edge({e.source}, {e.target})"]
        if e.label is None
        else [f"edge({e.source}, {e.target}, ", e.label, ")"]
    ),
    Not: lambda e: ["not (", e.cond, ")"],
    And: lambda e: ["(", e.left, " and ", e.right, ")"],
    Or: lambda e: ["(", e.left, " or ", e.right, ")"],
}


# -- typing ------------------------------------------------------------


class LabelTypeError(Exception):
    pass


# each expression kind's type (a variable's is declared), and the type
# its operands need with the message that says they lack it
_TYPING: dict[type, tuple] = {
    Empty: (VType.LIST, None), Cons: (VType.LIST, None), Var: (None, None),
    IntLit: (VType.INT, None), Deg: (VType.INT, None), StrLit: (VType.STRING, None),
    Neg: (VType.INT, (VType.INT, "unary minus needs an integer, got {got}")),
    Arith: (VType.INT, (VType.INT, "arithmetic needs integers in {e}")),
    Dot: (VType.STRING, (VType.STRING, "'.' needs strings in {e}")),
}


def infer_type(e: ListExpr, decls: dict[str, VType]) -> VType:
    """Static type of an expression under the given variable declarations:
    one post-order walk on an explicit stack, checking each operand against
    what its parent needs as soon as its type is known."""
    todo = [(e, None, False)]  # (node, parent, operands pushed)
    while todo:
        e, parent, pushed = todo.pop()
        if type(e) not in _TYPING:
            raise LabelTypeError(f"unknown expression {e!r}")
        if not pushed and (nested := operands(e)):
            todo.append((e, parent, True))
            todo += [(o, e, False) for o in reversed(nested)]
            continue
        vtype = _TYPING[type(e)][0]
        if vtype is None:
            vtype = decls.get(e.name)
            if vtype is None:
                raise LabelTypeError(f"undeclared variable {e.name!r}")
            if vtype is not e.vtype:
                raise LabelTypeError(
                    f"variable {e.name!r} used as {e.vtype.value}, declared {vtype.value}"
                )
        need = None if parent is None else _TYPING[type(parent)][1]
        if need is not None and vtype is not need[0]:
            raise LabelTypeError(need[1].format(e=parent, got=vtype.value))
    return vtype


def variables(e) -> set[str]:
    """Names of all variables occurring in an expression or condition."""
    return {t.name for t in subterms(e) if isinstance(t, Var)}


def degree_nodes(e) -> set[str]:
    """Node identifiers referenced by indeg/outdeg subterms."""
    return {t.node for t in subterms(e) if isinstance(t, Deg)}


def condition_nodes(c) -> set[str]:
    """Node identifiers a condition reads: degree operands and `edge` ends."""
    ends = {n for t in subterms(c) if isinstance(t, EdgePred) for n in (t.source, t.target)}
    return ends | degree_nodes(c)


# -- evaluation --------------------------------------------------------

Assignment = dict[str, object]  # var name -> int | str | tuple of atoms


def list_items(e: ListExpr) -> list:
    """The items of a list expression: its `:` chain flattened, `empty` dropped."""
    out, stack = [], [e]
    while stack:
        e = stack.pop()
        if isinstance(e, Cons):
            stack += (e.right, e.left)
        elif not isinstance(e, Empty):
            out.append(e)
    return out


# the expressions whose value is an integer, or an error, whatever their operands
_INTEGERS = (IntLit, Deg, Arith, Neg)


def _parts(e, kind: str) -> list:
    """The operands that the value of e as `kind` (`_Writer.value`) is
    written from, each with its kind."""
    if kind == "cond":
        nested = operands(e)
        if isinstance(e, (Not, And, Or)):
            sub = "cond"
        elif isinstance(e, Rel) or isinstance(e, Eq) and all(isinstance(t, _INTEGERS) for t in nested):
            sub = "int"  # one-item lists compare as their items do
        else:
            sub = "list"
        return [(t, sub) for t in nested]
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
    conditions, one local per subterm, its constants going into
    `namespace`.  It is the one evaluator: `eval_list`, `eval_condition`
    and the code `gp2.matcher` generates run its code.  The interpreted
    evaluators it replaced are the reference in `tests/genlib.py`.
    `node(n)` is the source of the host node of left node n, and `fail`
    the statement of an evaluation error, `{}` standing for its message.
    A variable is read from `alpha` once, unless `read` already names the
    local holding it, and checked once per type; its check is left out
    where `bound` gives the type its value has in every match (its `VType`
    on the left).  Each message is one constant.  A degree is a call of
    `HostGraph.degree`, or with `inline` a count over the locals `inc` (the
    incidence index) and `edges`.  `raises` tells whether an error was
    written."""

    def __init__(
        self, namespace: dict, node, fail: str, bound: Optional[dict] = None, inline: bool = False
    ):
        self.lines: list[str] = []
        self.namespace, self.node, self.fail, self.bound = namespace, node, fail, bound or {}
        self.inline = inline
        self.read: dict[str, str] = {}  # variable -> the local holding its value
        self.checked: set[tuple[str, str]] = set()  # (variable, kind) checked
        self.messages: dict[str, str] = {}  # message -> its constant
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
        if message not in self.messages:
            self.messages[message] = self.const(message)
        self.lines.append(f"{self.pad}if {test}: {self.fail.format(self.messages[message])}")
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
            if kind in _TYPES and bound != kind and (e.name, kind) not in self.checked:
                self.checked.add((e.name, kind))
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
            x = self.node(e.node)
            if not self.inline:
                return self.local(f"host.degree({x}, {e.direction!r})")
            count, end = self.local("0"), "target" if e.direction == "in" else "source"
            self.lines.append(f"{self.pad}for u in inc[{x}]:")  # a loop is listed once
            self.lines.append(f"{self.pad}    if edges[u].{end} == {x}: {count} += 1")
            return count
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


def _evaluate(e, kind: str, g: Premorphism, alpha: Assignment, host: HostGraph):
    """The value of e as a list ("list") or a condition ("cond") under
    (g, alpha, host): its code, written by `_Writer` and run once."""
    namespace: dict = {"EvalError": EvalError}
    writer = _Writer(namespace, lambda n: f"g.node_map[{n!r}]", "raise EvalError({})")
    value = writer.value(e, kind, "    ")
    source = ["def evaluate(g, alpha, host):", *writer.lines, f"    return {value}"]
    exec("\n".join(source), namespace)
    return namespace["evaluate"](g, alpha, host)


def eval_list(
    e: ListExpr, g: Premorphism, alpha: Assignment, host: HostGraph
) -> tuple[Atom, ...]:
    """The sequence of atoms denoted by e under (g, alpha, host)."""
    return _evaluate(e, "list", g, alpha, host)


def eval_condition(
    c: Condition, g: Premorphism, alpha: Assignment, host: HostGraph
) -> bool:
    """Whether c holds under (g, alpha, host)."""
    return _evaluate(c, "cond", g, alpha, host)


# -- simplicity --------------------------------------------------------


def _count_vars(terms, vtype: VType) -> int:
    return sum(isinstance(t, Var) and t.vtype is vtype for t in terms)


def is_simple(e: ListExpr) -> bool:
    """Whether e may appear as a left-hand label: matching determines its
    variables unambiguously.  That rules out arithmetic, more than one
    list variable, and more than one string variable in a concatenation."""
    terms = list(subterms(e))
    if any(isinstance(t, Arith) for t in terms):
        return False
    if _count_vars(terms, VType.LIST) > 1:
        return False
    # count each outermost concatenation once: the ones nested in it are
    # covered by its count, and recounting them is quadratic in its length
    nested = {id(o) for t in terms if isinstance(t, Dot) for o in operands(t)}
    return all(
        _count_vars(subterms(t), VType.STRING) <= 1
        for t in terms
        if isinstance(t, Dot) and id(t) not in nested
    )
