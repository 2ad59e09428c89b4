"""Rule-schema label expressions and conditions, their evaluation, and
the one walker and printer of every syntax tree.

Expressions are evaluated relative to a premorphism (for degree lookups),
an assignment of values to typed variables, and a host graph.  One table
gives each node's text as strings and the nodes nested in it; the walker
(`operands`, `subterms`) and the printer (`show`, which `str()` calls)
read it, and `gp2.program` adds the commands to it.
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


def compile_list(e: ListExpr) -> Callable[[Premorphism, Assignment, HostGraph], tuple]:
    """An evaluator of e, equal to `eval_list(e, ...)` with e fixed.

    Literals become constants and variables lookups; every other item
    (arithmetic, degrees, negation, concatenation) goes to `eval_list`.
    """
    pieces = [  # a constant tuple, a variable name, or an expression
        (item.value,) if isinstance(item, (IntLit, StrLit))
        else item.name if isinstance(item, Var)
        else item
        for item in list_items(e)
    ]

    def evaluate(g: Premorphism, alpha: Assignment, host: HostGraph) -> tuple:
        out: tuple = ()
        for p in pieces:
            if isinstance(p, tuple):
                out += p
            elif isinstance(p, str):
                value = alpha[p]
                out += value if isinstance(value, tuple) else (value,)
            else:
                out += eval_list(p, g, alpha, host)
        return out

    return evaluate


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
    if isinstance(c, Or):
        left = eval_condition(c.left, g, alpha, host)
        right = eval_condition(c.right, g, alpha, host)
        return left or right
    raise TypeError(f"not a condition: {c!r}")


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
