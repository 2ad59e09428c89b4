"""What the explorer saves per configuration, checked against what it
would compute without the saving: syntax node equality without
recursion, certificates reused by graph content, and rule-set calls
answered without a nested exploration."""

import random
from copy import deepcopy
from functools import reduce
from itertools import combinations

import pytest

from genlib import (
    ReferenceEngine,
    edit_add_node,
    edit_remove_node,
    fresh_certificate,
    random_body,
    random_host,
    small_hosts,
)
from gp2 import corpus
from gp2.executor import Budget, Engine
from gp2.graphs import HostGraph, HostLabel
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
from gp2.parsing import parse_host_graph, parse_program
from gp2.program import Fail, If, Loop, Or, RuleSetCall, Seq, Skip, Try, checked
from test_executor import deep_commands

RULES = checked(
    parse_program(
        """
rule remove_node(x: list) [ (n1, x) | ] => [ | ] interface = {}
rule r() [ (n1, 0) | ] => [ (n1, 1) | ] interface = {n1}
rule relabel(x: list) [ (n1, x) | ] => [ (n1, 0) | ] interface = {n1}
rule divide(x: int) [ (n1, x) | ] => [ (n1, x / 0) | ] interface = {n1}
rule grow(x: list) [ (n1, x) | ] => [ (n1, x) (n2, 0) | ] interface = {n1}
main = skip
"""
    )
).rules


def test_separately_built_deep_commands_compare_equal():
    """Each copy shares its subcommands, so a comparison that did not
    remember the pairs it has compared would take exponential time."""
    for a, b in zip(deep_commands(), deep_commands()):
        assert a is not b and hash(a) == hash(b)
        assert a == b and not a != b
    deeper = Seq((Skip(), deep_commands()[1]))
    assert deeper != deep_commands()[1]


def test_commands_compare_by_kind_and_fields():
    r, s = RuleSetCall(("r",)), RuleSetCall(("s",))
    assert r == RuleSetCall(("r",), bare=True)  # the bare flag changes only the text
    assert r != s and Seq((r,)) != Seq((r, r)) and r != ("r",)
    assert If(r, Skip()) == If(RuleSetCall(("r",)), Skip(), None) != Try(r, Skip())
    assert Or(Seq((r, s)), Skip()) == Or(Seq((r, s)), Skip()) != Or(Seq((s, r)), Skip())


X, Y = Var("x", VType.INT), Var("y", VType.INT)
# syntax nodes of every kind, each of another kind or with another field
# than every other one
NODES = [
    Skip(), Fail(), RuleSetCall(("r",)), RuleSetCall(("r", "s")), Seq((Skip(), Fail())),
    If(Skip(), Fail()), Try(Skip(), Fail()), Or(Skip(), Fail()), Loop(Skip()),
    Empty(), IntLit(1), IntLit(2), StrLit("1"), X, Y, Var("x", VType.LIST),
    Neg(X), Arith("+", X, Y), Arith("-", X, Y), Arith("+", Y, X), Deg("in", "n1"),
    Deg("out", "n1"), Deg("in", "n2"), Dot(X, Y), Cons(X, Y), Cons(X, Empty()),
    RuleLabel(X), RuleLabel(X, True), RuleLabel(Y),
    TypeCheck("int", X), TypeCheck("string", X), Eq(X, Y), Eq(X, Y, negated=True),
    Rel("<", X, Y), Rel(">", X, Y), EdgePred("n1", "n2"), EdgePred("n2", "n1"),
    EdgePred("n1", "n2", X), Not(Eq(X, Y)), And(Eq(X, Y), Eq(Y, X)),
    CondOr(Eq(X, Y), Eq(Y, X)),
]


@pytest.mark.parametrize("node", NODES, ids=str)
def test_syntax_nodes_store_their_hash_and_equal_deep_copies(node):
    copy = deepcopy(node)
    assert copy is not node and hash(copy) == hash(node) == node._hash
    assert copy == node and not copy != node


def test_syntax_nodes_compare_by_kind_and_fields():
    for a, b in combinations(NODES, 2):
        assert a != b and not a == b, (a, b)
    assert RuleLabel(X) == RuleLabel(X, False) and Eq(X, Y) == Eq(X, Y, False)
    assert EdgePred("n1", "n2") == EdgePred("n1", "n2", None)
    assert IntLit(1) != 1 and X != ("x", VType.INT) and Empty() != ()


def test_deep_label_and_condition_chains_compare_without_recursion():
    """Separately built chains 10,000 deep hash alike and compare equal;
    one that differs only at its leaf compares unequal."""
    for grow in (Neg, Not, lambda e: Cons(X, e), lambda e: Arith("*", e, X)):
        a, b, c = (reduce(lambda e, _: grow(e), range(10_000), leaf) for leaf in (X, X, Y))
        assert a is not b and hash(a) == hash(b) and a == b and a != c


def test_every_syntax_node_subclasses_the_one_base():
    """Every node kind of the syntax table, the 17 of labels and conditions
    and the 8 commands, takes its construction, hash and equality from
    `labels._Node`, so none falls back to recursive dataclass equality."""
    assert len(_PIECES) == 25
    for kind in _PIECES:
        assert issubclass(kind, _Node), kind
        assert not {"__init__", "__eq__", "__hash__"} & vars(kind).keys(), kind


# -- rule-set calls under the smallest budgets -----------------------------


CALLS = [RuleSetCall(("r",)), RuleSetCall(("divide", "relabel")), RuleSetCall(())]
COMMANDS = CALLS + [
    wrap
    for call in CALLS
    for wrap in (Loop(call), If(call, Skip()), Try(call, Skip(), RuleSetCall(("remove_node",))))
]
TINY = [Budget(max_steps=s, max_configs=c) for s in (0, 1, 2, 10) for c in (0, 1, 2, 50)]


def outcome(engine, result):
    return result.describe(), result.bottom, engine.steps, list(engine.warnings)


@pytest.mark.parametrize("command", COMMANDS, ids=str)
def test_rule_set_calls_match_the_reference_on_tiny_budgets(command):
    """A lone call, and each premise or loop body that is one, against the
    reference explorer, which explores every call.  Each engine then gets
    room for one more step and is asked again: a truncated result set must
    not have been memoised, and a complete one must have been."""
    hosts = [parse_host_graph(t) for t in ("[ | ]", "[ (n1, 0) | ]", "[ (n1, 0) (n2, 0) | ]")]
    hosts.append(parse_host_graph("[ (n1, 7) (n2, 0) | (e1, n1, n2, 0) ]"))
    for host in hosts:
        for budget in TINY:
            budgets = [Budget(budget.max_steps, budget.max_configs) for _ in range(2)]
            new, ref = Engine(RULES, budgets[0]), ReferenceEngine(RULES, budgets[1])
            for _ in range(2):
                got = outcome(new, new.semantics(command, host))
                assert got == outcome(ref, ref.semantics(command, host)), (
                    str(command), host.to_text(), budget
                )
                for b in budgets:
                    b.max_steps += 1


# -- certificates reused by content ------------------------------------------


def test_reused_certificates_equal_fresh_ones(monkeypatch):
    """Every certificate the explorer takes from its table, over seeded
    explorations of random programs and of the corpus programs, equals the
    certificate computed afresh for that graph."""
    seen = {"reused": 0, "computed": 0}
    signature = HostGraph.signature

    def checked_signature(g, table=None):
        if table is None or g._signature is not None:
            return signature(g, table)
        size = len(table)
        got = signature(g, table)
        if len(table) == size:
            seen["reused"] += 1
            fresh = fresh_certificate(g)
            assert got == fresh and hash(got) == hash(fresh), g.to_text()
        else:
            seen["computed"] += 1
        return got

    monkeypatch.setattr(HostGraph, "signature", checked_signature)
    rng = random.Random(72)
    hosts = small_hosts(2, 2)
    names = tuple(RULES)
    for _ in range(150):
        body = random_body(rng, names, depth=3)
        engine = Engine(RULES, Budget(max_steps=300, max_configs=50))
        for host in rng.sample(hosts, 3) + [random_host(rng, 5, labels=((0,), (1,)))]:
            engine.semantics(body, host)
    for name in corpus.PROGRAMS:
        program = corpus.load(name)
        for host in rng.sample(hosts, 40) + [random_host(rng, 6) for _ in range(4)]:
            Engine(program.rules, Budget(max_steps=2_000)).semantics(program.main, host)
    assert seen["reused"] >= 10_000 and seen["computed"] >= 2_000, seen


def test_equal_contents_share_a_certificate_but_keep_their_ids():
    """Graphs of equal content, or of content equal up to edge ids, take
    one certificate through a table; each keeps its own ids, text and fresh
    id counters."""
    table = {}
    a = parse_host_graph("[ (n1, 0) (n2, 1) | (e1, n1, n2, 2) ]")
    b = a.copy()
    edit_add_node(b, HostLabel((5,)))  # takes n3 and moves b's counter on
    edit_remove_node(b, "n3")
    assert b.nodes == a.nodes and b.edges == a.edges
    assert a.signature(table) is b.signature(table) and len(table) == 1
    assert (a.add_node(HostLabel()), b.add_node(HostLabel())) == ("n3", "n4")
    assert a.signature(table) == b.signature(table) and len(table) == 3
    c = parse_host_graph("[ (n1, 0) (n2, 1) | (e1, n1, n2, 3) ]")
    assert c.signature(table) != a.signature(table) and len(table) == 4
    # equal up to edge ids, as when a rule that keeps an edge renews its id
    texts = (
        "[ (n1, 0) (n2, 1) | (e1, n1, n2, 2) (e2, n1, n2, 2) (e3, n2, n2, 4 #) ]",
        "[ (n2, 1) (n1, 0) | (e9, n2, n2, 4 #) (e2, n1, n2, 2) (e4, n1, n2, 2) ]",
    )
    d, e = map(parse_host_graph, texts)
    assert d.signature(table) is e.signature(table) and len(table) == 5
    assert (d.to_text(), e.to_text()) == texts
    assert [g.add_edge("n1", "n1", HostLabel()) for g in (d, e, d, e)] == ["e4", "e1", "e5", "e3"]
    assert d.signature(table) is e.signature(table) and len(table) == 6
    assert d.to_text().endswith("(e4, n1, n1, empty) (e5, n1, n1, empty) ]")
    assert e.to_text().endswith("(e1, n1, n1, empty) (e3, n1, n1, empty) ]")
