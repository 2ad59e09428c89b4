"""Rule-schema label expressions and conditions, their evaluation, and
the one walker and printer of every syntax tree.

Expressions are evaluated relative to a premorphism (for degree lookups),
an assignment of values to typed variables, and a host graph.  One writer
(`_Writer`) turns them into straight-line Python source, so that nesting
never recurses: `gp2.matcher` writes a rule's code with it, and
`eval_list` and `eval_condition` compile and run it on each call.  The
interpreted evaluators it replaced are the reference in `tests/genlib.py`.

One table gives each node's text as strings and the nodes nested in it;
the walker (`operands`, `subterms`) and the printer (`show`, which `str()`
calls) read it, and `gp2.program` adds the commands to it.
"""

from __future__ import annotations

from dataclasses import dataclass
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


# -- expression AST ----------------------------------------------------


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class StrLit:
    value: str


@dataclass(frozen=True)
class Var:
    name: str
    vtype: VType


@dataclass(frozen=True)
class Neg:
    expr: "ListExpr"


@dataclass(frozen=True)
class Arith:
    op: str  # one of + - * /
    left: "ListExpr"
    right: "ListExpr"


@dataclass(frozen=True)
class Deg:
    direction: str  # "in" or "out"
    node: str


@dataclass(frozen=True)
class Dot:
    left: "ListExpr"
    right: "ListExpr"


@dataclass(frozen=True)
class Cons:
    left: "ListExpr"
    right: "ListExpr"


ListExpr = Union[Empty, IntLit, StrLit, Var, Neg, Arith, Deg, Dot, Cons]


@dataclass(frozen=True)
class RuleLabel:
    expr: ListExpr
    marked: bool = False


# -- condition AST -----------------------------------------------------


@dataclass(frozen=True)
class TypeCheck:
    tname: str  # int | string | atom
    expr: ListExpr


@dataclass(frozen=True)
class Eq:
    left: ListExpr
    right: ListExpr
    negated: bool = False


@dataclass(frozen=True)
class Rel:
    op: str  # > >= < <=
    left: ListExpr
    right: ListExpr


@dataclass(frozen=True)
class EdgePred:
    source: str
    target: str
    label: Optional[ListExpr] = None


@dataclass(frozen=True)
class Not:
    cond: "Condition"


@dataclass(frozen=True)
class And:
    left: "Condition"
    right: "Condition"


@dataclass(frozen=True)
class Or:
    left: "Condition"
    right: "Condition"


Condition = Union[TypeCheck, Eq, Rel, EdgePred, Not, And, Or]


# -- walking and printing --------------------------------------------

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


for _node in _PIECES:  # every node prints through show
    _node.__str__ = show


# -- typing ------------------------------------------------------------


class LabelTypeError(Exception):
    pass


def infer_type(e: ListExpr, decls: dict[str, VType]) -> VType:
    """Static type of an expression under the given variable declarations."""
    if isinstance(e, Empty):
        return VType.LIST
    if isinstance(e, IntLit):
        return VType.INT
    if isinstance(e, StrLit):
        return VType.STRING
    if isinstance(e, Var):
        declared = decls.get(e.name)
        if declared is None:
            raise LabelTypeError(f"undeclared variable {e.name!r}")
        if declared is not e.vtype:
            raise LabelTypeError(
                f"variable {e.name!r} used as {e.vtype.value}, declared {declared.value}"
            )
        return declared
    if isinstance(e, Neg):
        inner = infer_type(e.expr, decls)
        if inner is not VType.INT:
            raise LabelTypeError(f"unary minus needs an integer, got {inner.value}")
        return VType.INT
    if isinstance(e, Arith):
        for side in (e.left, e.right):
            if infer_type(side, decls) is not VType.INT:
                raise LabelTypeError(f"arithmetic needs integers in {e}")
        return VType.INT
    if isinstance(e, Deg):
        return VType.INT
    if isinstance(e, Dot):
        for side in (e.left, e.right):
            if infer_type(side, decls) is not VType.STRING:
                raise LabelTypeError(f"'.' needs strings in {e}")
        return VType.STRING
    if isinstance(e, Cons):
        infer_type(e.left, decls)
        infer_type(e.right, decls)
        return VType.LIST
    raise LabelTypeError(f"unknown expression {e!r}")


def variables(e) -> set[str]:
    """Names of all variables occurring in an expression or condition."""
    return {t.name for t in subterms(e) if isinstance(t, Var)}


def degree_nodes(e) -> set[str]:
    """Node identifiers referenced by indeg/outdeg subterms."""
    return {t.node for t in subterms(e) if isinstance(t, Deg)}


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
    conditions, one local per subterm, its constants going into
    `namespace`.  It is the one evaluator: `eval_list`, `eval_condition`
    and the code `gp2.matcher` generates run its code.  The interpreted
    evaluators it replaced are the reference in `tests/genlib.py`.
    `node(n)` is the source of the host node of left node n, and `fail`
    the statement of an evaluation error, `{}` standing for its message.
    A variable is read from `alpha` once and checked once per type; its
    check is left out where `bound` gives the type its value has in every
    match (its `VType` on the left).  Each message is one constant.
    `raises` tells whether an error was written."""

    def __init__(self, namespace: dict, node, fail: str, bound: Optional[dict] = None):
        self.lines: list[str] = []
        self.namespace, self.node, self.fail, self.bound = namespace, node, fail, bound or {}
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
