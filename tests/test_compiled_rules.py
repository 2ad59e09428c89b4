"""The compiled record of a rule graph against the reference pipeline:
`.` patterns split once into prefix, string variable and suffix, and one
record serving a graph used as both sides of a schema."""

import collections
import random
import re

import pytest

import gp2.labels
from genlib import (
    STRING_POOL,
    eval_condition,
    premorphism,
    random_host,
    reference_infer_assignment,
)
from gp2 import corpus, matcher
from gp2.graphs import HostGraph, HostLabel, Premorphism
from gp2.labels import Arith, Cons, Deg, Dot, Eq, IntLit, Neg, RuleLabel, StrLit, Var, VType
from gp2.parsing import parse_host_graph, parse_program
from gp2.program import checked
from gp2.rules import (
    ConditionalRuleSchema,
    RuleGraph,
    _compiled,
    apply,
    enumerate_matches,
    infer_assignment,
)
from test_rules import evaluate_or_error

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


# -- comparisons of integer expressions ---------------------------------------


def test_integer_comparisons_in_searches_build_no_tuple(monkeypatch):
    """A comparison whose operands are both integer expressions is one int
    `==` or `!=` in the generated search: `acyclic`'s `delete` (`indeg(n1)
    = 0`) and `eulerian`'s `unbalanced` (`indeg(n1) != outdeg(n1)`) build
    no one-item tuple per candidate, and neither does any corpus search."""
    sources = []

    def recording_exec(source, namespace):
        sources.append(source)
        exec(source, namespace)

    monkeypatch.setattr(matcher, "exec", recording_exec, raising=False)
    searches = {}
    for program in corpus.PROGRAMS:
        for name, schema in corpus.load(program).rules.items():
            matcher.generate(schema, _compiled(schema.left))
            searches[program, name] = sources[-1]
    for key in (("acyclic", "delete"), ("eulerian", "unbalanced")):
        assert re.search(r"\n +u\d+ = u\d+ [!=]= [uk]\d+\n", searches[key]), searches[key]
    for key, source in searches.items():
        assert not re.search(r"= \(.*,\)\n", source), (key, source)


def integer_expression(rng: random.Random, depth: int):
    """A random integer expression: literals, degrees and variables under
    negation and arithmetic, division included."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(
            [
                IntLit(rng.choice([0, 1, 2, -3])),
                Deg(rng.choice(["in", "out"]), rng.choice(["n1", "n2"])),
                Var("x", VType.INT),
                Var("l", VType.LIST),
            ]
        )
    if rng.random() < 0.3:
        return Neg(integer_expression(rng, depth - 1))
    left, right = integer_expression(rng, depth - 1), integer_expression(rng, depth - 1)
    return Arith(rng.choice("+-*/"), left, right)


def test_integer_comparisons_evaluate_as_the_reference():
    """Comparisons of two integer expressions, now compared as ints, give
    the reference evaluator's value or error, the variables bound to values
    of every type."""
    host = parse_host_graph(
        '[ (n1, 0) (n2, 1) | (e1, n1, n2, 0) (e2, n2, n1, "a") (e3, n1, n1, 1) ]'
    )
    g = Premorphism({"n1": "n1", "n2": "n2"}, {})
    values = [-2, 0, 1, 3, True, "a", (), (0,), (1, "b")]
    seen = collections.Counter()
    for trial in range(2000):
        rng = random.Random(trial)
        sides = [integer_expression(rng, 3) for _ in range(2)]
        if not all(isinstance(side, (IntLit, Deg, Arith, Neg)) for side in sides):
            continue
        c = Eq(*sides, negated=rng.random() < 0.5)
        alpha = {"x": rng.choice(values), "l": rng.choice(values)}
        got = evaluate_or_error(lambda: gp2.labels.eval_condition(c, g, alpha, host))
        assert got == evaluate_or_error(lambda: eval_condition(c, g, alpha, host)), str(c)
        seen[got[1] if got[0] == "value" else "error"] += 1
        seen["division by zero"] += got == ("error", "division by zero")
    assert min(seen.values()) >= 20, seen
