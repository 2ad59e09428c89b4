"""The surface of the syntax nodes of `gp2.labels` and `gp2.program`:
each of the 25 kinds takes its construction, `repr` and immutability
from `labels._Node`, through the field table its annotations give."""

import pytest

from gp2.labels import (
    _PIECES,
    And,
    Arith,
    Cons,
    Deg,
    Dot,
    EdgePred,
    Empty,
    Eq,
    IntLit,
    Neg,
    Not,
    Or as CondOr,
    Rel,
    RuleLabel,
    StrLit,
    TypeCheck,
    Var,
    VType,
    _Node,
)
from gp2.program import Fail, If, Loop, Or, RuleSetCall, Seq, Skip, Try

X = Var("x", VType.INT)
VX = "Var(name='x', vtype=<VType.INT: 'int'>)"
# a node of every kind, with the repr it had as a dataclass
PINNED = [
    (Empty(), "Empty()"),
    (IntLit(-3), 'IntLit(value=-3)'),
    (StrLit('a"b'), 'StrLit(value=\'a"b\')'),
    (X, VX),
    (Neg(X), f"Neg(expr={VX})"),
    (Arith("/", X, IntLit(2)), f"Arith(op='/', left={VX}, right=IntLit(value=2))"),
    (Deg("in", "n1"), "Deg(direction='in', node='n1')"),
    (
        Dot(StrLit("a"), Var("s", VType.STRING)),
        "Dot(left=StrLit(value='a'), right=Var(name='s', vtype=<VType.STRING: 'string'>))",
    ),
    (Cons(X, Empty()), f"Cons(left={VX}, right=Empty())"),
    (RuleLabel(X), f"RuleLabel(expr={VX}, marked=False)"),
    (RuleLabel(X, True), f"RuleLabel(expr={VX}, marked=True)"),
    (TypeCheck("atom", X), f"TypeCheck(tname='atom', expr={VX})"),
    (Eq(X, IntLit(0), negated=True), f"Eq(left={VX}, right=IntLit(value=0), negated=True)"),
    (
        Rel("<=", X, Deg("out", "n2")),
        f"Rel(op='<=', left={VX}, right=Deg(direction='out', node='n2'))",
    ),
    (EdgePred("n1", "n2"), "EdgePred(source='n1', target='n2', label=None)"),
    (EdgePred("n1", "n2", X), f"EdgePred(source='n1', target='n2', label={VX})"),
    (Not(Eq(X, X)), f"Not(cond=Eq(left={VX}, right={VX}, negated=False))"),
    (
        And(Eq(X, X), Eq(X, X)),
        f"And(left=Eq(left={VX}, right={VX}, negated=False), right=Eq(left={VX}, right={VX},"
        " negated=False))",
    ),
    (
        CondOr(Eq(X, X), Eq(X, X)),
        f"Or(left=Eq(left={VX}, right={VX}, negated=False), right=Eq(left={VX}, right={VX},"
        " negated=False))",
    ),
    (Skip(), "Skip()"),
    (Fail(), "Fail()"),
    (RuleSetCall(("r",), bare=True), "RuleSetCall(names=('r',), bare=True)"),
    (RuleSetCall(("r", "s")), "RuleSetCall(names=('r', 's'), bare=False)"),
    (Seq((Skip(), Fail())), "Seq(items=(Skip(), Fail()))"),
    (If(Skip(), Fail()), "If(cond=Skip(), then=Fail(), els=None)"),
    (Try(Skip(), Fail(), Skip()), "Try(cond=Skip(), then=Fail(), els=Skip())"),
    (Loop(Skip()), "Loop(body=Skip())"),
    (Or(Skip(), Fail()), "Or(left=Skip(), right=Fail())"),
]


def test_every_kind_keeps_its_dataclass_repr():
    assert {type(node) for node, _ in PINNED} == set(_PIECES)
    for node, text in PINNED:
        assert repr(node) == text


@pytest.mark.parametrize("node", [node for node, _ in PINNED], ids=repr)
def test_nodes_refuse_assignment_and_deletion(node):
    for name in (*vars(node), "other"):
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert node == type(node)(*[getattr(node, name) for name in type(node).__match_args__])


@pytest.mark.parametrize("kind", list(_PIECES), ids=lambda kind: f"{kind.__module__}.{kind.__name__}")
def test_a_wrong_argument_count_raises_type_error(kind):
    positional = kind.__match_args__
    required = [name for name in positional if not hasattr(kind, name)]  # no default
    with pytest.raises(TypeError):
        kind(*[None] * (len(positional) + 1))
    with pytest.raises(TypeError):
        kind(*[None] * len(positional), unknown=None)
    if required:
        with pytest.raises(TypeError):
            kind(*[None] * (len(required) - 1))


def test_defaults_and_keyword_only_fields():
    assert RuleLabel(X).marked is False and Eq(X, X).negated is False
    assert EdgePred("n1", "n2").label is None and If(Skip(), Fail()).els is None
    assert RuleSetCall(("r",)).bare is False and RuleSetCall.__match_args__ == ("names",)
    with pytest.raises(TypeError):  # bare is passed by name only
        RuleSetCall(("r",), True)
    # positional fields may be passed by name too
    assert Var(name="x", vtype=VType.INT) == X and Eq(X, X, negated=True) != Eq(X, X)
    assert all(issubclass(kind, _Node) for kind in _PIECES)
