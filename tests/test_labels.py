import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gp2.graphs import HostGraph, HostLabel, Premorphism
from gp2.labels import (
    And,
    Arith,
    Cons,
    Deg,
    Dot,
    EdgePred,
    Empty,
    Eq,
    EvalError,
    IntLit,
    Neg,
    Not,
    Or,
    Rel,
    StrLit,
    TypeCheck,
    Var,
    VType,
    eval_condition,
    eval_list,
    is_simple,
)

NO_MAP = Premorphism({}, {})
EMPTY = HostGraph()


def ev(e, alpha=None, g=NO_MAP, host=EMPTY):
    return eval_list(e, g, alpha or {}, host)


def cond(c, alpha=None, g=NO_MAP, host=EMPTY):
    return eval_condition(c, g, alpha or {}, host)


class TestEvalList:
    def test_empty_is_empty_sequence(self):
        assert ev(Empty()) == ()

    def test_variable_cons(self):
        e = Cons(Var("a", VType.ATOM), Var("x", VType.LIST))
        assert ev(e, {"a": 0, "x": (1, 2)}) == (0, 1, 2)

    def test_string_concat(self):
        e = Dot(Var("s", VType.STRING), Var("t", VType.STRING))
        assert ev(e, {"s": "o", "t": "k"}) == ("ok",)

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            ev(Arith("/", IntLit(3), IntLit(0)))

    def test_division_truncates_toward_zero(self):
        assert ev(Arith("/", IntLit(7), IntLit(2))) == (3,)
        assert ev(Arith("/", IntLit(-7), IntLit(2))) == (-3,)
        assert ev(Arith("/", IntLit(7), IntLit(-2))) == (-3,)

    def test_arithmetic(self):
        assert ev(Arith("+", IntLit(2), IntLit(3))) == (5,)
        assert ev(Arith("-", IntLit(2), IntLit(3))) == (-1,)
        assert ev(Arith("*", IntLit(4), IntLit(-3))) == (-12,)
        assert ev(Neg(IntLit(5))) == (-5,)

    def test_degree_observes_host(self):
        host = HostGraph()
        a = host.add_node(HostLabel((0,)))
        b = host.add_node(HostLabel((1,)))
        host.add_edge(a, b, HostLabel(()))
        g = Premorphism({"n1": a, "n2": b}, {})
        assert ev(Deg("out", "n1"), g=g, host=host) == (1,)
        assert ev(Deg("in", "n1"), g=g, host=host) == (0,)
        assert ev(Deg("in", "n2"), g=g, host=host) == (1,)

    def test_deterministic(self):
        e = Cons(IntLit(1), Cons(StrLit("a"), Var("x", VType.LIST)))
        alpha = {"x": (9,)}
        assert ev(e, alpha) == ev(e, alpha) == (1, "a", 9)


class TestEvalCondition:
    def test_type_checks(self):
        assert cond(TypeCheck("int", IntLit(5)))
        assert not cond(TypeCheck("atom", Cons(StrLit("ab"), IntLit(1))))
        assert cond(TypeCheck("string", StrLit("ab")))
        assert not cond(TypeCheck("int", StrLit("ab")))

    def test_empty_string_is_not_empty_list(self):
        assert cond(TypeCheck("string", StrLit("")))
        assert not cond(TypeCheck("string", Empty()))
        assert not cond(Eq(StrLit(""), Empty()))

    def test_equality(self):
        assert cond(Eq(Cons(IntLit(1), IntLit(2)), Cons(IntLit(1), IntLit(2))))
        assert cond(Eq(IntLit(1), IntLit(2), negated=True))

    def test_relops(self):
        assert cond(Rel("<", IntLit(1), IntLit(2)))
        assert cond(Rel(">=", IntLit(2), IntLit(2)))
        assert not cond(Rel(">", IntLit(1), IntLit(2)))

    def test_edge_predicate(self):
        host = HostGraph()
        a = host.add_node(HostLabel((0,)))
        b = host.add_node(HostLabel((1,)))
        host.add_edge(a, b, HostLabel((7,), marked=True))
        g = Premorphism({"n1": a, "n2": b}, {})
        assert cond(EdgePred("n1", "n2"), g=g, host=host)
        assert not cond(EdgePred("n2", "n1"), g=g, host=host)
        # label comparison ignores the mark
        assert cond(EdgePred("n1", "n2", IntLit(7)), g=g, host=host)
        assert not cond(EdgePred("n1", "n2", IntLit(8)), g=g, host=host)

    def test_boolean_operators_evaluate_both_sides(self):
        boom = Eq(Arith("/", IntLit(1), IntLit(0)), IntLit(0))
        with pytest.raises(EvalError):
            cond(Or(Eq(IntLit(1), IntLit(1)), boom))
        with pytest.raises(EvalError):
            cond(And(Eq(IntLit(1), IntLit(2)), boom))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_de_morgan(self, seed):
        rng = random.Random(seed)

        def atom():
            return rng.choice(
                [
                    Eq(IntLit(rng.randint(0, 2)), IntLit(rng.randint(0, 2))),
                    Rel("<", IntLit(rng.randint(-2, 2)), IntLit(rng.randint(-2, 2))),
                    TypeCheck("int", IntLit(0)),
                ]
            )

        c1, c2 = atom(), atom()
        assert cond(Not(And(c1, c2))) == cond(Or(Not(c1), Not(c2)))
        assert cond(Not(Or(c1, c2))) == cond(And(Not(c1), Not(c2)))


class TestSimplicity:
    def test_atom_then_list_var(self):
        e = Cons(Var("a", VType.ATOM), Var("x", VType.LIST))
        assert is_simple(e)

    def test_two_list_vars(self):
        e = Cons(Var("x", VType.LIST), Var("y", VType.LIST))
        assert not is_simple(e)

    def test_string_concat_with_one_variable(self):
        e = Cons(
            Dot(StrLit("no"), Var("s", VType.STRING)),
            Cons(Var("y", VType.LIST), Var("t", VType.STRING)),
        )
        assert is_simple(e)

    def test_two_string_vars_in_one_concat(self):
        e = Dot(Var("s", VType.STRING), Var("t", VType.STRING))
        assert not is_simple(e)

    def test_arithmetic_is_not_simple(self):
        assert not is_simple(Arith("+", Var("n", VType.INT), IntLit(1)))

    def test_negated_variable_is_simple(self):
        assert is_simple(Neg(Var("n", VType.INT)))
