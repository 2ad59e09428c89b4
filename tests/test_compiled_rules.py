"""The compiled record of a rule graph against the reference pipeline:
`.` patterns split once into prefix, string variable and suffix, and one
record serving a graph used as both sides of a schema."""

import random

import pytest

from genlib import STRING_POOL, premorphism, random_host, reference_infer_assignment
from gp2.graphs import HostGraph, HostLabel, Premorphism
from gp2.labels import Cons, Dot, RuleLabel, StrLit, Var, VType
from gp2.parsing import parse_host_graph, parse_program
from gp2.program import checked
from gp2.rules import (
    ConditionalRuleSchema,
    RuleGraph,
    apply,
    enumerate_matches,
    infer_assignment,
)

S, T = Var("s", VType.STRING), Var("t", VType.STRING)
N = Var("i", VType.INT)


def dots(*pieces):
    """A left-nested `.` chain of the pieces."""
    expr = pieces[0]
    for p in pieces[1:]:
        expr = Dot(expr, p)
    return expr


# (pattern, host atoms, the assignment infer_assignment must give or None)
DOT_CASES = [
    # an empty prefix or suffix
    (dots(S, StrLit("b")), ("ab",), {"s": "a"}),
    (dots(StrLit("a"), S), ("ab",), {"s": "b"}),
    (dots(S, StrLit("b")), ("ba",), None),
    (dots(StrLit("a"), S), ("ba",), None),
    # a prefix and suffix together longer than the atom
    (dots(StrLit("ab"), S, StrLit("cd")), ("abc",), None),
    (dots(StrLit("ab"), S, StrLit("cd")), ("abcd",), {"s": ""}),
    # a prefix that overlaps the suffix
    (dots(StrLit("ab"), S, StrLit("ba")), ("aba",), None),
    (dots(StrLit("ab"), S, StrLit("ba")), ("abba",), {"s": ""}),
    (dots(StrLit("ab"), S, StrLit("ba")), ("ababa",), {"s": "a"}),
    # an empty binding, the whole atom, and literals split across pieces
    (dots(StrLit("a"), S, StrLit("b")), ("ab",), {"s": ""}),
    (dots(StrLit(""), S, StrLit("")), ("xy",), {"s": "xy"}),
    (Dot(StrLit("a"), Dot(StrLit("b"), Dot(S, StrLit("c")))), ("abzc",), {"s": "z"}),
    (Dot(Dot(StrLit("a"), S), Dot(StrLit(""), StrLit("c"))), ("ac",), {"s": ""}),
    # a non-string atom
    (dots(StrLit("a"), S), (5,), None),
    (dots(S, StrLit("")), (0,), None),
    # a pattern with an int variable, alone or beside a string variable
    (dots(StrLit("a"), N), ("a1",), None),
    (dots(StrLit("a"), N), (1,), None),
    (dots(StrLit("a"), N, S), ("a1b",), None),
    # two string variables
    (dots(S, T), ("ab",), None),
    # the bound variable must agree with a repeated occurrence
    (Cons(S, dots(StrLit("x"), S)), ("ab", "xab"), {"s": "ab"}),
    (Cons(S, dots(StrLit("x"), S)), ("ab", "xb"), None),
    (Cons(dots(S, StrLit("y")), S), ("ay", "a"), {"s": "a"}),
]


@pytest.mark.parametrize("pattern, atoms, expected", DOT_CASES, ids=str)
def test_dot_patterns_infer_the_reference_assignment(pattern, atoms, expected):
    left = RuleGraph()
    left.add_node("n1", RuleLabel(pattern))
    host = HostGraph()
    host.add_node(HostLabel(atoms), "n1")
    g = Premorphism({"n1": "n1"}, {})
    got = infer_assignment(left, g, host)
    want = reference_infer_assignment(left, g, host)
    assert got == want == expected
    assert got is None or list(got.items()) == list(want.items())


SHARED_SOURCE = """
rule r(x: list; s: string; i: int)
  [ (n1, x) (n2, "a".s) (n3, i) | (e1, n1, n2, 0) (e2, n2, n3, empty) ]
  => [ (n1, x) (n2, "a".s) (n3, i) | (e1, n1, n2, 0) (e2, n2, n3, empty) ]
  interface = {INTERFACE}
main = r
"""


@pytest.mark.parametrize("interface", ["n1, n2, n3", "n2", ""])
def test_one_graph_as_both_sides_matches_and_applies_like_two(interface):
    twin = checked(parse_program(SHARED_SOURCE.replace("INTERFACE", interface))).rules["r"]
    assert twin.left is not twin.right
    shared = ConditionalRuleSchema(
        "r", twin.variables, twin.left, twin.interface, twin.left, twin.condition
    )
    rng = random.Random(interface)
    labels = tuple((a,) for a in STRING_POOL) + ((0,), (), (3,), ("ab", 1), ("abb",))
    hosts = [random_host(rng, max_nodes=5, labels=labels) for _ in range(60)]
    hosts += [
        parse_host_graph(
            '[ (v1, 7) (v2, "ab") (v3, 2) (v4, "a") | (f1, v1, v2, 0) (f2, v2, v3, empty)'
            " (f3, v4, v3, empty) (f4, v1, v4, 0) ]"
        ),
        parse_host_graph('[ (v1, 7) (v2, "ab") (v3, 2) | (f1, v1, v2, 0) (f2, v2, v3, empty) ]'),
    ]
    applied = 0
    for host in hosts:
        results = []
        for schema in (twin, shared):
            warnings: list[str] = []
            matches = list(enumerate_matches(schema, host, warnings))
            results.append(
                (
                    [
                        (premorphism(schema.left, image), list(alpha.items()))
                        for image, alpha in matches
                    ],
                    [apply(schema, host, match).to_text() for match in matches],
                    warnings,
                )
            )
        assert results[0] == results[1], host.to_text()
        applied += len(results[0][1])
    assert applied > 0
