import collections
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlib import (
    INT_POOL,
    STRING_POOL,
    brute_assignments,
    premorphism,
    random_eulerian,
    random_host,
    random_host_items,
    random_schema,
    random_simple_label,
    reference_infer_assignment,
    reference_matches,
    reference_premorphisms,
    reference_run_one,
)
from gp2 import corpus
from gp2.executor import Budget, run_one
from gp2.graphs import HostGraph, HostLabel, Premorphism, isomorphic
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
    Rel,
    RuleLabel,
    StrLit,
    TypeCheck,
    Var,
    VType,
    degree_nodes,
    eval_list,
    subterms,
    variables,
)
from gp2.labels import Or as CondOr
from gp2.matcher import generate_rule
from gp2.parsing import parse_host_graph, parse_program
from gp2.program import checked
from gp2.rules import (
    ConditionalRuleSchema,
    RuleGraph,
    Violation,
    apply,
    apply_ruleset,
    enumerate_matches,
    infer_assignment,
    validate,
)


def schema_of(source: str, name: str) -> ConditionalRuleSchema:
    return checked(parse_program(source + "\nmain = skip")).rules[name]


NULL_RULE = "rule null() [ | ] => [ | ] interface = {}"


def nested_condition_rule(relation: str = "a", degree_node: str = "n1"):
    """A rule whose condition nests not, and, or, >, =, int(...) and an
    edge(...) whose label holds an indeg."""
    return parse_program(
        "rule r(a, b: int; s: string; x: list)\n"
        "  [ (n1, a:x) (n2, s) | (e1, n1, n2, b) ]\n"
        "  => [ (n1, a:x) (n2, s) | ]\n"
        "  interface = {n1, n2}\n"
        f'  where not (int(a) and (s = "x" or {relation} > outdeg(n2)))\n'
        f"    and edge(n1, n2, indeg({degree_node}):b)\n"
        "main = r"
    ).rules["r"]


class TestValidate:
    def test_rhs_variable_missing_from_lhs(self):
        left = RuleGraph()
        left.add_node("n1", RuleLabel(Empty(), False))
        right = RuleGraph()
        right.add_node("n1", RuleLabel(Var("x", VType.LIST), False))
        schema = ConditionalRuleSchema(
            "bad", {"x": VType.LIST}, left, frozenset({"n1"}), right, None
        )
        assert validate(schema)

    def test_non_simple_left_label(self):
        left = RuleGraph()
        left.add_node(
            "n1",
            RuleLabel(Cons(Var("x", VType.LIST), Var("y", VType.LIST)), False),
        )
        right = RuleGraph()
        right.add_node("n1", RuleLabel(Empty(), False))
        schema = ConditionalRuleSchema(
            "bad",
            {"x": VType.LIST, "y": VType.LIST},
            left,
            frozenset({"n1"}),
            right,
            None,
        )
        assert any("simple" in str(v) for v in validate(schema))

    def test_identity_rule_is_valid(self):
        schema = schema_of(NULL_RULE, "null")
        assert validate(schema) == []

    def test_nested_condition_collectors(self):
        condition = nested_condition_rule().condition
        assert variables(condition) == {"a", "b", "s"}
        assert degree_nodes(condition) == {"n1", "n2"}
        assert validate(nested_condition_rule()) == []

    def test_nested_condition_degree_operand_not_on_left(self):
        assert validate(nested_condition_rule(degree_node="n9")) == [
            Violation("r", "condition", "node 'n9' is not a left-graph node")
        ]

    def test_nested_condition_string_operand_of_relation(self):
        assert validate(nested_condition_rule(relation="s")) == [
            Violation(
                "r",
                "condition",
                "relational operands must be integers in s > outdeg(n2)",
            )
        ]

    def test_interface_must_appear_on_both_sides(self):
        left = RuleGraph()
        left.add_node("n1", RuleLabel(Empty(), False))
        schema = ConditionalRuleSchema(
            "bad", {}, left, frozenset({"n1"}), RuleGraph(), None
        )
        assert validate(schema)

    def test_every_item_violation_in_one_order(self):
        """One fault in each per-item branch of both sides, reported
        interface first, then left nodes, left edges, right nodes, right
        edges and the condition, each item's faults in check order."""
        i, s = Var("i", VType.INT), Var("s", VType.STRING)
        x, y = Var("x", VType.LIST), Var("y", VType.LIST)
        w, v = Var("w", VType.INT), Var("v", VType.INT)

        def label(e):
            return RuleLabel(e, False)

        left, right = RuleGraph(), RuleGraph()
        left.add_node("n1", label(Cons(i, x)))
        left.add_node("n2", label(Cons(x, y)))
        left.add_node("n3", label(Arith("+", s, IntLit(1))))
        left.add_node("n4", label(Deg("out", "q5")))
        left.add_edge("e1", "n1", "q1", label(Arith("-", s, i)))
        left.add_edge("e2", "q6", "n1", label(Cons(y, x)))
        right.add_node("n1", label(Cons(i, x)))
        right.add_node("n4", label(Arith("*", s, i)))
        right.add_node("n5", label(Deg("in", "q2")))
        right.add_node("n6", label(Cons(w, x)))
        right.add_edge("e1", "n1", "q3", label(v))
        right.add_edge("e2", "n4", "n1", label(Arith("+", i, Deg("out", "q4"))))
        right.add_edge("e3", "n1", "n1", label(Arith("/", s, IntLit(2))))
        schema = ConditionalRuleSchema(
            "bad",
            {"i": VType.INT, "s": VType.STRING, "x": VType.LIST, "y": VType.LIST,
             "w": VType.INT, "v": VType.INT},
            left,
            frozenset({"n1", "n2", "i1"}),
            right,
            Eq(w, IntLit(0)),
        )
        assert [(f.location, f.message) for f in validate(schema)] == [
            ("interface node i1", "not present in left graph"),
            ("interface node i1", "not present in right graph"),
            ("interface node n2", "not present in right graph"),
            ("left node n2", "left-hand expression x:y is not simple"),
            ("left node n3", "arithmetic needs integers in (s + 1)"),
            ("left node n4", "degree operand 'q5' is not a left-graph node"),
            ("left edge e1", "arithmetic needs integers in (s - i)"),
            ("left edge e1", "unknown endpoint 'q1'"),
            ("left edge e2", "left-hand expression y:x is not simple"),
            ("left edge e2", "unknown endpoint 'q6'"),
            ("right node n4", "arithmetic needs integers in (s * i)"),
            ("right node n5", "degree operand 'q2' is not a left-graph node"),
            ("right node n6", "variables ['w'] do not occur on the left"),
            ("right edge e1", "variables ['v'] do not occur on the left"),
            ("right edge e1", "unknown endpoint 'q3'"),
            ("right edge e2", "degree operand 'q4' is not a left-graph node"),
            ("right edge e3", "arithmetic needs integers in (s / 2)"),
            ("condition", "variables ['w'] do not occur on the left"),
        ]
        assert {f.rule for f in validate(schema)} == {"bad"}


class TestInferAssignment:
    def single_label_match(self, expr, host_items):
        left = RuleGraph()
        left.add_node("n1", RuleLabel(expr, False))
        host = HostGraph()
        hid = host.add_node(HostLabel(host_items))
        return infer_assignment(left, Premorphism({"n1": hid}, {}), host)

    def test_literal_prefix_string_var(self):
        alpha = self.single_label_match(
            Dot(StrLit("no"), Var("s", VType.STRING)), ("nose",)
        )
        assert alpha == {"s": "se"}

    def test_atom_var_cannot_bind_two_atoms(self):
        assert self.single_label_match(Var("a", VType.ATOM), (1, 2)) is None

    def test_repeated_int_var_around_list_var(self):
        expr = Cons(
            Var("n", VType.INT), Cons(Var("x", VType.LIST), Var("n", VType.INT))
        )
        assert self.single_label_match(expr, (3, 7, 3)) == {"n": 3, "x": (7,)}
        assert self.single_label_match(expr, (3, 7, 4)) is None

    def test_atom_then_list_var(self):
        expr = Cons(Var("a", VType.ATOM), Var("x", VType.LIST))
        assert self.single_label_match(expr, (0, 1, 2)) == {"a": 0, "x": (1, 2)}

    def test_variables_match_by_the_subtype_order(self):
        # int, string <= atom <= list: a variable matches a host label
        # exactly when the label's value has its type or a type below it
        labels = [(1,), ("a",), (), (1, "a")]
        table = {
            VType.INT: [(1,)],
            VType.STRING: [("a",)],
            VType.ATOM: [(1,), ("a",)],
            VType.LIST: labels,
        }
        for vtype, matched in table.items():
            expr = Var("x", vtype)
            got = [l for l in labels if self.single_label_match(expr, l) is not None]
            assert got == matched, vtype

    def test_mark_must_agree(self):
        left = RuleGraph()
        left.add_node("n1", RuleLabel(Var("x", VType.LIST), False))
        host = HostGraph()
        hid = host.add_node(HostLabel((0,), marked=True))
        assert infer_assignment(left, Premorphism({"n1": hid}, {}), host) is None

    def test_answers_only_for_premorphisms_that_matching_considers(self):
        """An injective, structure-preserving map gets the assignment the
        search gives it; a map that is not injective, or that does not take
        edge ends to edge ends, gets None."""
        left = RuleGraph()
        left.add_node("n1", RuleLabel(Var("x", VType.LIST)))
        left.add_node("n2", RuleLabel(Var("y", VType.LIST)))
        left.add_edge("e1", "n1", "n2", RuleLabel(Var("z", VType.LIST)))
        host = parse_host_graph("[ (a, 1) (b, 2) | (e1, a, b, 3) (e2, a, a, 4) ]")
        g = Premorphism({"n1": "a", "n2": "b"}, {"e1": "e1"})
        assert infer_assignment(left, g, host) == {"x": (1,), "y": (2,), "z": (3,)}
        not_injective = Premorphism({"n1": "a", "n2": "a"}, {"e1": "e2"})
        assert infer_assignment(left, not_injective, host) is None
        reversed_edge = Premorphism({"n1": "b", "n2": "a"}, {"e1": "e1"})
        assert infer_assignment(left, reversed_edge, host) is None

    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        expr, _ = random_simple_label(rng)
        items = tuple(
            rng.choice([0, 1, -1, "a", "ab", ""]) for _ in range(rng.randint(0, 6))
        )
        got = self.single_label_match(expr, items)
        want = brute_assignments(expr, items)
        assert len(want) <= 1
        if got is None:
            assert want == []
        else:
            assert want == [got]


class TestEnumerateMatches:
    def test_unique_assignment_example(self):
        schema = schema_of(
            "rule r(a: atom; x: list) [ (n1, a:x) | ] => [ (n1, a:x) | ]"
            " interface = {n1}",
            "r",
        )
        host = parse_host_graph("[ (n1, 0:1:2) | ]")
        matches = list(enumerate_matches(schema, host))
        assert len(matches) == 1
        assert matches[0][1] == {"a": 0, "x": (1, 2)}

    def test_literal_mismatch(self):
        schema = schema_of(
            "rule r() [ (n1, 5) | ] => [ (n1, 5) | ] interface = {n1}", "r"
        )
        host = parse_host_graph("[ (n1, 6) | ]")
        assert list(enumerate_matches(schema, host)) == []

    def test_dangling_condition_excludes(self):
        # deletes its node; host node has an external incident edge
        schema = schema_of(
            "rule r(x: list) [ (n1, x) | ] => [ | ] interface = {}", "r"
        )
        host = parse_host_graph(
            "[ (n1, 0) (n2, 0) | (e1, n1, n2, empty) ]"
        )
        assert list(enumerate_matches(schema, host)) == []
        isolated = parse_host_graph("[ (n1, 0) | ]")
        assert len(list(enumerate_matches(schema, isolated))) == 1

    def test_condition_failure_discards(self):
        schema = schema_of(
            "rule r(n: int) [ (n1, n) | ] => [ (n1, n) | ] interface = {n1}"
            " where n > 0",
            "r",
        )
        assert list(enumerate_matches(schema, parse_host_graph("[ (n1, -1) | ]"))) == []
        assert len(list(enumerate_matches(schema, parse_host_graph("[ (n1, 1) | ]")))) == 1

    def test_division_by_zero_in_condition_discards_with_warning(self):
        schema = schema_of(
            "rule r(n: int) [ (n1, n) | ] => [ (n1, n) | ] interface = {n1}"
            " where 1/n = 1",
            "r",
        )
        warnings: list[str] = []
        host = parse_host_graph("[ (n1, 0) (n2, 1) | ]")
        matches = list(enumerate_matches(schema, host, warnings))
        assert len(matches) == 1  # only n ↦ 1 survives
        assert len(warnings) == 1

    def test_injective_matching_only(self):
        schema = schema_of(
            "rule r(x, y: list) [ (n1, x) (n2, y) | ] => [ (n1, x) (n2, y) | ]"
            " interface = {n1, n2}",
            "r",
        )
        host = parse_host_graph("[ (n1, 0) | ]")
        assert list(enumerate_matches(schema, host)) == []


# (rule, host, the graph run_one derives): a degree operator in a left
# label of a node or an edge, its operand in a slot before or after the
# item's own, bound in the same search step, a later one or an earlier one
DEGREE_CASES = [
    (
        "rule r(x: list) [ (n1, indeg(n2)) (n2, x) | (e1, n1, n2, empty) ]"
        " => [ (n1, indeg(n2) + 6) (n2, x) | (e1, n1, n2, empty) ] interface = {n1, n2}",
        "[ (a, 1) (b, 5) | (e1, a, b, empty) ]",
        "[ (a, 7) (b, 5) | (e1, a, b, empty) ]",
    ),
    (
        "rule r(x: list) [ (n1, x) (n2, outdeg(n1)) | (e1, n1, n2, empty) ]"
        " => [ (n1, x) (n2, outdeg(n1) + 1) | ] interface = {n1, n2}",
        "[ (a, 3) (b, 2) (c, 1) | (e1, a, b, empty) (e2, a, c, empty) (e3, c, b, empty) ]",
        "[ (a, 3) (b, 3) (c, 1) | (e2, a, c, empty) (e3, c, b, empty) ]",
    ),
    (
        "rule r(x, y: list) [ (n1, x) (n2, y) | (e1, n1, n2, indeg(n2):outdeg(n1)) ]"
        " => [ (n1, x) (n2, y) | (e1, n2, n1, 0) ] interface = {n1, n2}",
        "[ (a, 0) (b, 1) (c, 2) | (e1, a, b, 2:1) (e2, c, b, 2:3) (e3, c, a, 1:1) ]",
        "[ (a, 0) (b, 1) (c, 2) | (e2, c, b, 2:3) (e3, c, a, 1:1) (e1, b, a, 0) ]",
    ),
    (  # the search starts at the marked n1 and binds n2 after it
        "rule r(x: list) [ (n1, indeg(n2) #) (n2, x) | (e1, n1, n2, empty) ]"
        " => [ (n1, 0) (n2, x #) | (e1, n1, n2, empty) ] interface = {n1, n2}",
        "[ (a, 2 #) (b, 5) (c, 1 #) | (e1, a, b, empty) (e2, c, b, empty) (e3, c, a, empty) ]",
        "[ (a, 0) (b, 5 #) (c, 1 #) | (e2, c, b, empty) (e3, c, a, empty) (e1, a, b, empty) ]",
    ),
    (  # isolated nodes: each label waits for the other node
        "rule r(x: list) [ (n1, indeg(n2)) (n2, x:outdeg(n1)) | ]"
        " => [ (n1, x) (n2, 9) | ] interface = {n1, n2}",
        "[ (a, 1) (b, 4:0) (c, 7:1) | (e1, a, c, empty) ]",
        "[ (a, 7) (b, 4:0) (c, 9) | (e1, a, c, empty) ]",
    ),
]


@pytest.mark.parametrize("rule, host, expected", DEGREE_CASES)
def test_degree_operators_in_left_labels(rule, host, expected):
    program = checked(parse_program(rule + "\nmain = r"))
    outcome = run_one(program, parse_host_graph(host))
    assert outcome.kind == "graph" and outcome.graph.to_text() == expected
    left = program.rules["r"].left
    [(image, alpha)] = enumerate_matches(program.rules["r"], parse_host_graph(host))
    g = premorphism(left, image)
    assert alpha == reference_infer_assignment(left, g, parse_host_graph(host))


class TestApply:
    def test_null_rule_preserves_graph(self):
        schema = schema_of(NULL_RULE, "null")
        host = parse_host_graph('[ (n1, 0) (n2, "a") | (e1, n1, n2, 1:2) ]')
        [match] = list(enumerate_matches(schema, host))
        assert isomorphic(apply(schema, host, match), host)

    def test_relabelling(self):
        schema = schema_of(
            "rule r() [ (n1, 1) | ] => [ (n1, 2) | ] interface = {n1}", "r"
        )
        host = parse_host_graph("[ (n1, 1) | ]")
        [match] = list(enumerate_matches(schema, host))
        result = apply(schema, host, match)
        assert result.nodes["n1"] == HostLabel((2,))

    def test_a_label_rewritten_to_itself_is_kept(self):
        """An interface node whose atoms and mark the rule leaves as they
        are keeps its label object, in a copy and in place; a changed mark
        gives a new label."""
        schema = schema_of(
            "rule r(x, y: list) [ (n1, x #) (n2, y) | ] => [ (n1, x #) (n2, y #) | ]"
            " interface = {n1, n2}",
            "r",
        )
        host = parse_host_graph("[ (a, 2:3 #) (b, 1) | (e1, a, b, empty) ]")
        text = host.to_text()
        [match] = list(enumerate_matches(schema, host))
        result = apply(schema, host, match)
        assert result.nodes["a"] is host.nodes["a"]
        assert result.nodes["b"] == HostLabel((1,), True)
        owned = host.copy()
        label = owned.nodes["a"]
        assert apply(schema, owned, match, copy=False) is owned
        assert owned.nodes["a"] is label
        assert owned.to_text() == result.to_text()
        assert sorted(owned.marked()[0]) == ["a", "b"]

        same = schema_of("rule r(x: list) [ (n1, x #) | ] => [ (n1, x #) | ] interface = {n1}", "r")
        [match] = list(enumerate_matches(same, host))
        result = apply(same, host, match)
        assert result.nodes["a"] is host.nodes["a"]
        assert result.to_text() == host.to_text() == text

    def test_right_hand_arithmetic_instantiation(self):
        schema = schema_of(
            "rule bridge(n: int) [ (n1, n) | ] => [ (n1, n*n) | ] interface = {n1}",
            "bridge",
        )
        host = parse_host_graph("[ (n1, 3) | ]")
        [match] = list(enumerate_matches(schema, host))
        assert match[1] == {"n": 3}
        result = apply(schema, host, match)
        assert result.nodes["n1"] == HostLabel((9,))

    def test_right_degrees_observe_original_host(self):
        # the rule deletes the matched edge; outdeg on the right must
        # still see the pre-application value
        schema = schema_of(
            "rule r(x, y, z: list) [ (n1, x) (n2, y) | (e1, n1, n2, z) ]"
            " => [ (n1, outdeg(n1)) (n2, y) | ] interface = {n1, n2}",
            "r",
        )
        host = parse_host_graph("[ (n1, 0) (n2, 0) | (e1, n1, n2, empty) ]")
        [match] = list(enumerate_matches(schema, host))
        result = apply(schema, host, match)
        assert result.nodes["n1"] == HostLabel((1,))

    def test_added_items_get_fresh_ids(self):
        schema = schema_of(
            "rule r() [ | ] => [ (n1, 0) | (e1, n1, n1, empty) ] interface = {}",
            "r",
        )
        host = parse_host_graph("[ (n1, 1) | ]")
        [match] = list(enumerate_matches(schema, host))
        result = apply(schema, host, match)
        assert len(result.nodes) == 2
        assert result.nodes["n1"] == HostLabel((1,))  # original untouched
        assert len(result.edges) == 1


    def test_deleting_nodes_builds_no_incidence_index(self, monkeypatch):
        schema = corpus.load("series_parallel").rules["delete_base"]
        host = parse_host_graph("[ (n1, 0) (n2, 0) | (e1, n1, n2, empty) ]")
        [match] = list(enumerate_matches(schema, host))
        builds = 0
        incidence = HostGraph.incidence

        def counted(graph):
            nonlocal builds
            builds += graph._incident is None
            return incidence(graph)

        monkeypatch.setattr(HostGraph, "incidence", counted)
        result = apply(schema, host, match)
        assert builds == 0
        assert not result.nodes and not result.edges


class TestLabelsPerAppliedMatch:
    """Right labels are built once per applied match, except where they can
    raise, and a match whose labels raise is discarded with its warning."""

    DEC = (
        "rule dec(x: int) [ (n1, x) | ] => [ (n1, x - 1 + 0 * indeg(n1)) | ]"
        " interface = {n1} where x > 0\n"
        "main = dec!\n"
    )
    HALF = (
        "rule half(x: int) [ (n1, x) | ] => [ (n1, 12 / x #) | ] interface = {n1}\n"
        "main = half!\n"
    )
    HOST = "[ (n1, 3) (n2, 0) (n3, 2) (n4, 4) (n5, -6) | (e1, n1, n3, 0) (e2, n4, n4, 0) ]"

    def test_a_run_builds_the_labels_of_the_applied_matches_only(self, monkeypatch):
        calls = collections.Counter()
        degree = HostGraph.degree

        def counted(graph, node, direction):
            calls[direction] += 1
            return degree(graph, node, direction)

        monkeypatch.setattr(HostGraph, "degree", counted)
        program = checked(parse_program(self.DEC))
        out = run_one(program, parse_host_graph(self.HOST))
        assert out.kind == "graph" and out.warnings == []
        assert sorted(map(str, out.graph.nodes.values())) == ["-6", "0", "0", "0", "0"]
        assert calls == {"in": 3 + 2 + 4}  # one per application: x falls to 0

    def test_labels_that_divide_by_zero_discard_their_matches(self):
        program = checked(parse_program(self.HALF))
        host = parse_host_graph(self.HOST)
        warnings: list[str] = []
        found = list(enumerate_matches(program.rules["half"], host, warnings))
        assert [image for image, _ in found] == [("n1",), ("n3",), ("n4",), ("n5",)]
        assert warnings == ["rule half: match discarded (division by zero)"]
        for seed in range(4):
            got = run_one(program, host, Budget(seed=seed), tracing=True)
            want = reference_run_one(program, host, Budget(seed=seed), tracing=True)
            assert got.graph.to_text() == want.graph.to_text()
            assert (got.kind, got.steps, got.warnings, got.trace) == (
                want.kind, want.steps, want.warnings, want.trace
            )
            assert got.warnings == ["rule half: match discarded (division by zero)"] * 5
            assert sorted(map(str, got.graph.nodes.values())) == ["-2 #", "0", "3 #", "4 #", "6 #"]

    def test_labels_that_read_a_variable_at_another_type_discard_their_matches(self):
        """The left side binds `a` as an atom and the right side reads it as
        an integer and as a string: only the matches where it has that type
        apply, as in the interpreted pipeline."""
        a = Var("a", VType.ATOM)
        left, right = RuleGraph(), RuleGraph()
        left.add_node("n1", RuleLabel(a))
        right.add_node("n1", RuleLabel(Arith("+", Var("a", VType.INT), IntLit(1))))
        right.add_node("n2", RuleLabel(Dot(Var("a", VType.STRING), StrLit("!"))))
        schema = ConditionalRuleSchema("r", {}, left, frozenset({"n1"}), right)
        host = parse_host_graph('[ (n1, 3) (n2, "x") | ]')
        assert matches_and_warnings(premorphism_matches, schema, host) == matches_and_warnings(
            reference_matches, schema, host
        )
        warnings: list[str] = []
        assert list(enumerate_matches(schema, host, warnings)) == []
        assert warnings == [
            "rule r: match discarded (variable 'a' is not a string)",
            "rule r: match discarded (variable 'a' is not an integer)",
        ]


class TestApplyRuleset:
    def test_empty_ruleset_has_no_result(self):
        assert apply_ruleset([], parse_host_graph("[ (n1, 0) | ]")) == []

    def test_null_singleton(self):
        schema = schema_of(NULL_RULE, "null")
        host = parse_host_graph("[ (n1, 0) | ]")
        results = apply_ruleset([schema], host)
        assert len(results) == 1
        assert isomorphic(results[0], host)

    def test_results_deduplicated_up_to_iso(self):
        schema = schema_of(
            "rule r(x: list) [ (n1, x) | ] => [ (n1, 9) | ] interface = {n1}",
            "r",
        )
        host = parse_host_graph("[ (n1, 0) (n2, 0) | ]")
        # two matches, isomorphic outcomes
        assert len(list(enumerate_matches(schema, host))) == 2
        assert len(apply_ruleset([schema], host)) == 1

    def test_order_independence_of_result_set(self):
        rng = random.Random(3)
        a = random_schema(rng, "a")
        b = random_schema(rng, "b")
        host = random_host(rng, max_nodes=4)
        fwd = apply_ruleset([a, b], host)
        rev = apply_ruleset([b, a], host)
        assert len(fwd) == len(rev)
        for g in fwd:
            assert any(isomorphic(g, h) for h in rev)


class TestDpoInvariants:
    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_cardinality_preservation_dangling(self, seed):
        rng = random.Random(seed)
        schema = random_schema(rng)
        assert validate(schema) == []
        host = random_host(rng, max_nodes=5)
        for match in enumerate_matches(schema, host):
            result = apply(schema, host, match)
            g = premorphism(schema.left, match[0])
            deleted_nodes = len(schema.left.nodes) - len(schema.interface)
            added_nodes = len(schema.right.nodes) - len(schema.interface)
            assert len(result.nodes) == len(host.nodes) - deleted_nodes + added_nodes
            assert (
                len(result.edges)
                == len(host.edges) - len(schema.left.edges) + len(schema.right.edges)
            )
            matched_nodes = set(g.node_map.values())
            matched_edges = set(g.edge_map.values())
            for nid, lab in host.nodes.items():
                if nid not in matched_nodes:
                    assert result.nodes[nid] == lab
            for eid, e in host.edges.items():
                if eid not in matched_edges:
                    r = result.edges[eid]
                    assert (r.source, r.target, r.label) == (e.source, e.target, e.label)
            deleted = matched_nodes - {g.node_map[n] for n in schema.interface}
            for nid in deleted:
                for eid in host.incident_edges(nid):
                    assert eid in matched_edges


# -- the search-plan matcher against the node-first reference ----------


# each trial draws how often a mark is set or flipped; 0 keeps every
# structural match, so loops and parallel edges are matched often
MARK_RATES = (0.0, 0.2, 0.5)


def with_random_marks(rng: random.Random, host: HostGraph, rate: float) -> HostGraph:
    out = HostGraph()
    for nid, lab in host.nodes.items():
        out.add_node(HostLabel(lab.items, rng.random() < rate), nid)
    for eid, e in host.edges.items():
        out.add_edge(e.source, e.target, HostLabel(e.label.items, rng.random() < rate), eid)
    return out


def with_flipped_left_marks(rng: random.Random, schema, rate: float) -> ConditionalRuleSchema:
    left = RuleGraph()
    for nid, lab in schema.left.nodes.items():
        left.add_node(nid, RuleLabel(lab.expr, lab.marked ^ (rng.random() < rate)))
    for eid, e in schema.left.edges.items():
        label = RuleLabel(e.label.expr, e.label.marked ^ (rng.random() < rate))
        left.add_edge(eid, e.source, e.target, label)
    return ConditionalRuleSchema(
        schema.name, schema.variables, left, schema.interface, schema.right, schema.condition
    )


def matches_and_warnings(matcher, schema, host) -> tuple:
    """The node and edge maps and the assignment, each with its dict order,
    of every match in order, and the warnings."""
    warnings: list[str] = []
    found = [
        (list(g.node_map.items()), list(g.edge_map.items()), list(alpha.items()))
        for g, alpha in matcher(schema, host, warnings)
    ]
    return found, warnings


def premorphism_matches(schema, host, warnings) -> list:
    """The matches of `enumerate_matches` as (premorphism, assignment)
    pairs, the form of `reference_matches`."""
    matches = enumerate_matches(schema, host, warnings)
    return [(premorphism(schema.left, image), alpha) for image, alpha in matches]


# the mark classes of edges, in the order a search plan starts at them
START_CLASSES = (7, 6, 5, 4, 2, 1, 3)


def mark_pattern(left: RuleGraph) -> str:
    """Where the search plan of a left graph starts: at the edges of a mark
    class (4 if the edge is marked, plus 2 if its source is and 1 if its
    target is), at marked nodes, or at all edges or nodes."""
    classes = {
        4 * e.label.marked + 2 * left.nodes[e.source].marked + left.nodes[e.target].marked
        for e in left.edges.values()
    }
    for c in START_CLASSES:
        if c in classes:
            return f"class {c}"
    if any(label.marked for label in left.nodes.values()):
        return "marked node"
    return "edge" if left.edges else "node" if left.nodes else "empty"


class TestMatcherAgainstReference:
    """The generated matcher yields exactly the matches of the reference
    pipeline, in the same order, with the same assignments and warnings,
    so seeded runs pick the same match."""

    def agree(self, schema, host, seen) -> None:
        found = matches_and_warnings(premorphism_matches, schema, host)
        assert found == matches_and_warnings(reference_matches, schema, host), host.to_text()
        left = schema.left
        ends = [(e.source, e.target) for e in left.edges.values()]
        touched = {n for pair in ends for n in pair}
        # the search saw a candidate: a premorphism that agrees on every mark
        searched = any(
            all(left.nodes[n].marked == host.nodes[h].marked for n, h in g.node_map.items())
            and all(
                left.edges[e].label.marked == host.edges[h].label.marked
                for e, h in g.edge_map.items()
            )
            for g in reference_premorphisms(left, host)
        )
        seen["matches"] += len(found[0])
        seen["warnings"] += len(found[1])
        seen["loop"] += searched and any(s == t for s, t in ends)
        seen["parallel"] += searched and len(set(ends)) < len(ends)
        seen["isolated"] += searched and bool(set(left.nodes) - touched)
        seen[mark_pattern(left)] += searched
        seen["matched " + mark_pattern(left)] += bool(found[0])

    def test_random_schemas_on_marked_hosts(self):
        seen = collections.Counter()
        for trial in range(500):
            rng = random.Random(trial)
            rate = rng.choice(MARK_RATES)
            schema = with_flipped_left_marks(rng, random_schema(rng), rate)
            host = with_random_marks(rng, random_host(rng, max_nodes=6), rate)
            self.agree(schema, host, seen)
        assert min(seen[k] for k in ("matches", "loop", "parallel", "isolated")) > 0, seen
        starts = ["marked node", "edge", "node"]
        assert min(seen[k] for k in starts) > 0, seen
        assert sum(seen[f"class {c}"] for c in START_CLASSES) > 0, seen
        assert min(seen["matched " + k] for k in starts) > 0, seen

    @pytest.mark.parametrize("name", corpus.PROGRAMS)
    def test_corpus_rules_on_marked_hosts(self, name):
        seen = collections.Counter()
        rng = random.Random(name)
        hosts = [random_host(rng, max_nodes=6) for _ in range(30)]
        hosts += [random_eulerian(rng, max_nodes=6) for _ in range(30)]
        for host in hosts:
            host = with_random_marks(rng, host, rng.choice(MARK_RATES))
            for schema in corpus.load(name).rules.values():
                self.agree(schema, host, seen)
        assert seen["matches"] > 0, seen

    def test_every_start_class(self):
        """Left graphs with an edge of each mark class, on hosts of their
        shape with extra edges of random marks between their nodes."""
        seen = collections.Counter()
        for trial in range(700):
            rng = random.Random(trial)
            c = START_CLASSES[trial % 7]
            drawn = random_left_graph(rng)
            ids = sorted(drawn.nodes) + ["n9"]
            source = rng.choice(ids[:-1])
            target = ids[-1] if (c >> 1) % 2 != c % 2 else source
            marks = {n: lab.marked for n, lab in drawn.nodes.items()}
            marks.update({source: bool(c & 2), target: bool(c & 1), "n9": bool(c & 1)})
            left = RuleGraph()
            for nid in ids:
                expr = drawn.nodes[nid].expr if nid in drawn.nodes else Var("x9", VType.LIST)
                left.add_node(nid, RuleLabel(expr, marks[nid]))
            for eid, e in drawn.edges.items():
                left.add_edge(eid, e.source, e.target, e.label)
            left.add_edge("e9", source, target, RuleLabel(Var("y9", VType.LIST), bool(c & 4)))
            host = instantiated(rng, left)
            for _ in range(3):
                labels = [e.label for e in host.edges.values()]
                label = rng.choice(labels)
                label = HostLabel(label.items, rng.random() < 0.5)
                host.add_edge(rng.choice(ids), rng.choice(ids), label)
            right = RuleGraph()
            for nid in ids:
                right.add_node(nid, RuleLabel(IntLit(1)))
            self.agree(ConditionalRuleSchema("r", {}, left, frozenset(ids), right), host, seen)
        starts = [f"class {c}" for c in START_CLASSES]
        assert min(seen["matched " + k] for k in starts) >= 10, seen

    def test_rich_schemas_on_marked_hosts(self):
        """Left labels with degree operators, negation and `.` patterns,
        conditions, and right labels that read degrees or divide by zero;
        every fifth left graph is empty."""
        seen = collections.Counter()
        for trial in range(1500):
            rng = random.Random(trial)
            left = random_left_graph(rng) if trial % 5 else RuleGraph()
            schema = rich_schema(rng, left)
            if trial % 2:
                host = with_random_marks(rng, random_host(rng, 4, labels=HOST_ITEMS), 0.2)
            else:
                host = instantiated(rng, left)
            self.agree(schema, host, seen)
            found = list(enumerate_matches(schema, host))
            labels = [*left.nodes.values(), *(e.label for e in left.edges.values())]
            seen["degree"] += bool(found) and any(degree_nodes(lab.expr) for lab in labels)
            seen["condition"] += bool(found) and schema.condition is not None
        patterns = ("marked node", "edge", "empty")
        assert min(seen["matched " + k] for k in patterns) > 0, seen
        assert min(seen[k] for k in ("degree", "condition")) >= 10, seen
        assert seen["warnings"] >= 20 and seen["matches"] >= 100, seen


# -- compiled labels against the reference -----------------------------

HOST_ITEMS = (
    (), (0,), (1,), (-1,), ("a",), ("ab",), ("",), (0, "a"), (1, 1), ("b", -1, 2), (2, "ab", 0, 1)
)


def random_left_graph(rng: random.Random) -> RuleGraph:
    """A left graph with simple labels whose variable names repeat across
    labels, some with a ground item: a degree, a constant or `1 / 0`."""
    node_ids = [f"n{i + 1}" for i in range(rng.randint(1, 3))]

    def label() -> RuleLabel:
        expr, _ = random_simple_label(rng)
        if rng.random() < 0.3:
            ground = rng.choice([
                Deg(rng.choice(["in", "out"]), rng.choice(node_ids)),
                Neg(Deg("out", rng.choice(node_ids))),
                Arith("+", Deg("in", rng.choice(node_ids)), IntLit(-1)),
                Arith("/", IntLit(1), IntLit(0)),
                Dot(StrLit("a"), StrLit("b")),
                Neg(Neg(IntLit(1))),
            ])
            expr = Cons(ground, expr) if rng.random() < 0.5 else Cons(expr, ground)
        return RuleLabel(expr, rng.random() < 0.2)

    left = RuleGraph()
    for nid in node_ids:
        left.add_node(nid, label())
    for j in range(rng.randint(0, 3)):
        left.add_edge(f"e{j + 1}", rng.choice(node_ids), rng.choice(node_ids), label())
    return left


def instantiated(rng: random.Random, left: RuleGraph) -> HostGraph:
    """A host of the left graph's shape, labelled with the left labels
    evaluated under one random value per variable name and type."""
    shape = HostGraph()
    for nid in left.nodes:
        shape.add_node(HostLabel(), nid)
    for eid, e in left.edges.items():
        shape.add_edge(e.source, e.target, HostLabel(), eid)
    g = Premorphism({n: n for n in left.nodes}, {})
    values: dict = {}

    def label(rule_label: RuleLabel) -> HostLabel:
        alpha = {}
        for t in subterms(rule_label.expr):
            if isinstance(t, Var):
                if (t.name, t.vtype) not in values:
                    values[t.name, t.vtype] = {
                        VType.INT: lambda: rng.choice(INT_POOL),
                        VType.STRING: lambda: rng.choice(STRING_POOL),
                        VType.ATOM: lambda: rng.choice(INT_POOL + STRING_POOL),
                        VType.LIST: lambda: random_host_items(rng, 3),
                    }[t.vtype]()
                alpha[t.name] = values[t.name, t.vtype]
        try:
            items = eval_list(rule_label.expr, g, alpha, shape)
        except EvalError:
            items = ()
        return HostLabel(items, rule_label.marked ^ (rng.random() < 0.05))

    host = HostGraph()
    for nid, rule_label in left.nodes.items():
        host.add_node(label(rule_label), nid)
    for eid, e in left.edges.items():
        host.add_edge(e.source, e.target, label(e.label), eid)
    return host


def rich_schema(rng: random.Random, left: RuleGraph) -> ConditionalRuleSchema:
    """A schema over a left graph with a random condition over its nodes
    and variables, a random interface, and right labels that copy left
    labels, read degrees or divide by one."""
    nodes = sorted(left.nodes) or ["n1"]
    exprs = [lab.expr for lab in left.nodes.values()]
    exprs += [e.label.expr for e in left.edges.values()]

    def degree():
        return Deg(rng.choice(["in", "out"]), rng.choice(nodes))

    def condition(depth: int):
        if depth and rng.random() < 0.4:
            if rng.random() < 0.3:
                return Not(condition(depth - 1))
            kind = rng.choice([And, CondOr])
            return kind(condition(depth - 1), condition(depth - 1))
        kind = rng.choice(["eq", "rel", "edge", "type"] if exprs else ["rel", "edge"])
        if kind == "eq":
            return Eq(rng.choice(exprs), rng.choice(exprs), rng.random() < 0.5)
        if kind == "type":
            return TypeCheck(rng.choice(["int", "string", "atom"]), rng.choice(exprs))
        if kind == "rel":
            total = Arith(rng.choice("+-*/"), degree(), IntLit(rng.choice(INT_POOL)))
            return Rel(rng.choice([">", ">=", "<", "<="]), total, IntLit(rng.choice(INT_POOL)))
        label = rng.choice(exprs) if exprs and rng.random() < 0.5 else None
        return EdgePred(rng.choice(nodes), rng.choice(nodes), label)

    def right_label() -> RuleLabel:
        kind = rng.choice(["copy", "copy", "degree", "divide"] if exprs else ["degree", "divide"])
        if kind == "copy":
            expr = rng.choice(exprs)
        elif kind == "degree":
            expr = Cons(degree(), IntLit(1)) if left.nodes else IntLit(1)
        else:
            expr = Arith("/", IntLit(1), degree() if left.nodes else IntLit(0))
        return RuleLabel(expr, rng.random() < 0.2)

    interface = frozenset(n for n in left.nodes if rng.random() < 0.6)
    right = RuleGraph()
    for nid in sorted(interface):
        right.add_node(nid, right_label())
    right.add_node("m1", right_label())
    right_ids = sorted(right.nodes)
    for j in range(rng.randint(0, 2)):
        right.add_edge(f"f{j + 1}", rng.choice(right_ids), rng.choice(right_ids), right_label())
    cond = condition(1) if left.nodes and rng.random() < 0.5 else None
    return ConditionalRuleSchema("r", {}, left, interface, right, cond)


def assignments(infer, left, host) -> list:
    """The inferred assignment of every premorphism, dict order included."""
    return [
        None if alpha is None else list(alpha.items())
        for alpha in (infer(left, g, host) for g in reference_premorphisms(left, host))
    ]


def random_right_expr(rng: random.Random, depth: int):
    """A random right-label expression over the variables i, j (int), s
    (string), a (atom) and x (list), with negation chains, arithmetic
    (`/ 0` among it), degrees of n1 and n2, and `.` with one string variable."""

    def int_expr(d: int):
        kind = rng.choice(["lit", "var", "deg"] + ["neg", "arith"] * (d > 0))
        if kind == "lit":
            return IntLit(rng.choice(INT_POOL))
        if kind == "var":
            return Var(rng.choice("ij"), VType.INT)
        if kind == "deg":
            return Deg(rng.choice(["in", "out"]), rng.choice(["n1", "n2"]))
        if kind == "neg":
            inner = int_expr(d - 1)
            for _ in range(rng.randint(1, 3)):
                inner = Neg(inner)
            return inner
        right = IntLit(0) if rng.random() < 0.2 else int_expr(d - 1)
        return Arith(rng.choice("+-*/"), int_expr(d - 1), right)

    def str_expr(d: int):
        if d == 0 or rng.random() < 0.5:
            return StrLit(rng.choice(STRING_POOL)) if rng.random() < 0.6 else Var("s", VType.STRING)
        pieces = [StrLit(rng.choice(STRING_POOL)) for _ in range(rng.randint(1, 3))]
        pieces.insert(rng.randint(0, len(pieces)), Var("s", VType.STRING))
        expr = pieces[0]
        for p in pieces[1:]:
            expr = Dot(expr, p) if rng.random() < 0.5 else Dot(p, expr)
        return expr

    kind = rng.choice(["empty", "list", "atom", "int", "str"] + ["cons"] * 3 * (depth > 0))
    if kind == "empty":
        return Empty()
    if kind == "list":
        return Var("x", VType.LIST)
    if kind == "atom":
        return Var("a", VType.ATOM)
    if kind == "int":
        return int_expr(2)
    if kind == "str":
        return str_expr(2)
    return Cons(random_right_expr(rng, depth - 1), random_right_expr(rng, depth - 1))


def evaluate_or_error(evaluate) -> tuple:
    try:
        return "value", evaluate()
    except EvalError as exc:
        return "error", str(exc)


class TestCompiledLabels:
    """Compiled left labels infer the reference's assignments, key order
    included, and compiled right labels evaluate as `eval_list` does."""

    def agree(self, left, host, seen) -> None:
        got = assignments(infer_assignment, left, host)
        assert got == assignments(reference_infer_assignment, left, host), host.to_text()
        seen["candidates"] += len(got)
        seen["assignments"] += sum(alpha is not None for alpha in got)

    def test_random_schemas_on_marked_hosts(self):
        seen = collections.Counter()
        for trial in range(500):
            rng = random.Random(trial)
            rate = rng.choice(MARK_RATES)
            schema = with_flipped_left_marks(rng, random_schema(rng), rate)
            host = with_random_marks(rng, random_host(rng, max_nodes=6), rate)
            self.agree(schema.left, host, seen)
        assert seen["assignments"] > 0 and seen["candidates"] > seen["assignments"], seen

    def test_rich_left_labels_on_marked_hosts(self):
        seen = collections.Counter()
        for trial in range(1000):
            rng = random.Random(trial)
            left = random_left_graph(rng)
            if trial % 2:
                host = with_random_marks(rng, random_host(rng, 4, labels=HOST_ITEMS), 0.2)
            else:
                host = instantiated(rng, left)
            self.agree(left, host, seen)
        assert seen["assignments"] > 100, seen

    @pytest.mark.parametrize("name", corpus.PROGRAMS)
    def test_corpus_rules_on_random_and_eulerian_hosts(self, name):
        seen = collections.Counter()
        program = corpus.load(name)
        rng = random.Random(name)
        hosts = [random_host(rng, max_nodes=5) for _ in range(20)]
        hosts += [random_eulerian(rng, max_nodes=5) for _ in range(20)]
        for host in hosts:
            host = with_random_marks(rng, host, rng.choice(MARK_RATES))
            # a few rewrite steps give hosts with the labels the rules write
            for _ in range(4):
                for schema in program.rules.values():
                    self.agree(schema.left, host, seen)
                steps = [
                    (schema, match)
                    for schema in program.rules.values()
                    for match in enumerate_matches(schema, host)
                ]
                if not steps:
                    break
                schema, match = rng.choice(steps)
                host = apply(schema, host, match)
        assert seen["assignments"] > 0, seen

    def test_right_labels_evaluate_as_eval_list(self):
        """The generated evaluator of a right label, whose variables the left
        side does not bind, so that every type check is written."""
        host = parse_host_graph("[ (n1, 0) (n2, 1) | (e1, n1, n2, 0) (e2, n1, n1, 0) ]")
        g = Premorphism({"n1": "n1", "n2": "n2"}, {})
        left = RuleGraph()
        for nid in g.node_map:
            left.add_node(nid, RuleLabel(Empty()))
        seen = collections.Counter()
        for trial in range(3000):
            rng = random.Random(trial)
            expr = random_right_expr(rng, 3)
            right = RuleGraph()
            right.add_node("n1", RuleLabel(expr))
            schema = ConditionalRuleSchema("r", {}, left, frozenset(), right)
            _, build, raises = generate_rule(schema, {"n1": 0, "n2": 1})
            alpha = {
                "i": rng.choice([-2, 0, 3, 3, "bad"]),
                "j": rng.choice([0, 2]),
                "s": rng.choice(["", "ab", "ab", 5]),
                "a": rng.choice([1, "q"]),
                "x": rng.choice([(), (1, "b"), (0,)]),
            }
            got = evaluate_or_error(lambda: build(("n1", "n2"), alpha, host)[0])
            assert got == evaluate_or_error(lambda: eval_list(expr, g, alpha, host)), str(expr)
            assert raises or got[0] == "value", str(expr)
            seen[got[0]] += 1
            seen["division by zero"] += got == ("error", "division by zero")
            seen["degree"] += got[0] == "value" and bool(degree_nodes(expr))
        assert min(seen.values()) >= 20, seen

    def test_generated_code_is_flat_at_any_depth(self):
        """A condition and right labels nested 5,000 deep, far past what the
        parser reads, compile to straight-line code and evaluate."""
        x = Var("x", VType.INT)
        total, negated, holds = x, x, Eq(x, IntLit(1))
        for _ in range(5_000):
            total, negated = Arith("+", total, x), Neg(negated)
            holds = Not(Not(And(holds, Rel(">=", x, IntLit(0)))))
        left, right = RuleGraph(), RuleGraph()
        left.add_node("n1", RuleLabel(x))
        right.add_node("n1", RuleLabel(Cons(total, negated)))
        schema = ConditionalRuleSchema("r", {}, left, frozenset({"n1"}), right, holds)
        host = parse_host_graph("[ (n1, 1) (n2, 2) | ]")
        [match] = enumerate_matches(schema, host)
        assert apply(schema, host, match).to_text() == "[ (n1, 5001:1) (n2, 2) | ]"

    def test_adding_items_after_a_match_drops_compiled_labels(self):
        host = parse_host_graph("[ (n1, 1) (n2, 2) | (e1, n1, n2, 3) ]")
        left, right = RuleGraph(), RuleGraph()
        left.add_node("n1", RuleLabel(Var("x", VType.LIST)))
        right.add_node("n1", RuleLabel(Var("x", VType.LIST)))
        schema = ConditionalRuleSchema("r", {}, left, frozenset({"n1"}), right)
        assert [alpha for _, alpha in enumerate_matches(schema, host)] == [
            {"x": (1,)},
            {"x": (2,)},
        ]
        g = Premorphism({"n1": "n1", "n2": "n2"}, {})
        left.add_node("n2", RuleLabel(Var("y", VType.INT)))
        assert infer_assignment(left, g, host) == {"x": (1,), "y": 2}
        left.add_edge("e1", "n1", "n2", RuleLabel(IntLit(4)))
        assert infer_assignment(left, Premorphism(g.node_map, {"e1": "e1"}), host) is None

        left = RuleGraph()
        left.add_node("n1", RuleLabel(Var("x", VType.LIST)))
        schema = ConditionalRuleSchema("r", {}, left, frozenset({"n1"}), right)

        def at_n1():
            """The match at host node n1, taken after the latest change."""
            [match] = [m for m in enumerate_matches(schema, host) if m[0] == ("n1",)]
            assert match[1] == {"x": (1,)}
            return match

        assert apply(schema, host, at_n1()).to_text() == host.to_text()
        right.add_node("m1", RuleLabel(StrLit("new")))
        result = apply(schema, host, at_n1())
        assert sorted(map(str, result.nodes.values())) == ['"new"', "1", "2"]
        right.add_edge("f1", "n1", "m1", RuleLabel(Var("x", VType.LIST), True))
        result = apply(schema, host, at_n1())
        assert HostLabel((1,), True) in [e.label for e in result.edges.values()]
        right.add_node("m2", RuleLabel(Arith("/", IntLit(1), IntLit(0))))
        warnings: list[str] = []
        assert list(enumerate_matches(schema, host, warnings)) == []
        assert warnings == ["rule r: match discarded (division by zero)"] * 2
