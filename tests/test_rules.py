import collections
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlib import (
    brute_assignments,
    random_eulerian,
    random_host,
    random_schema,
    random_simple_label,
    reference_premorphisms,
)
from gp2 import corpus, rules
from gp2.graphs import HostGraph, HostLabel, Premorphism, isomorphic
from gp2.labels import (
    Arith,
    Cons,
    Dot,
    Empty,
    IntLit,
    RuleLabel,
    StrLit,
    Var,
    VType,
    degree_nodes,
    variables,
)
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

    def test_mark_must_agree(self):
        left = RuleGraph()
        left.add_node("n1", RuleLabel(Var("x", VType.LIST), False))
        host = HostGraph()
        hid = host.add_node(HostLabel((0,), marked=True))
        assert infer_assignment(left, Premorphism({"n1": hid}, {}), host) is None

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


class TestApply:
    def test_null_rule_preserves_graph(self):
        schema = schema_of(NULL_RULE, "null")
        host = parse_host_graph('[ (n1, 0) (n2, "a") | (e1, n1, n2, 1:2) ]')
        [(g, alpha)] = list(enumerate_matches(schema, host))
        assert isomorphic(apply(schema, host, g, alpha), host)

    def test_relabelling(self):
        schema = schema_of(
            "rule r() [ (n1, 1) | ] => [ (n1, 2) | ] interface = {n1}", "r"
        )
        host = parse_host_graph("[ (n1, 1) | ]")
        [(g, alpha)] = list(enumerate_matches(schema, host))
        result = apply(schema, host, g, alpha)
        assert result.nodes["n1"] == HostLabel((2,))

    def test_right_hand_arithmetic_instantiation(self):
        schema = schema_of(
            "rule bridge(n: int) [ (n1, n) | ] => [ (n1, n*n) | ] interface = {n1}",
            "bridge",
        )
        host = parse_host_graph("[ (n1, 3) | ]")
        [(g, alpha)] = list(enumerate_matches(schema, host))
        assert alpha == {"n": 3}
        result = apply(schema, host, g, alpha)
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
        [(g, alpha)] = list(enumerate_matches(schema, host))
        result = apply(schema, host, g, alpha)
        assert result.nodes["n1"] == HostLabel((1,))

    def test_added_items_get_fresh_ids(self):
        schema = schema_of(
            "rule r() [ | ] => [ (n1, 0) | (e1, n1, n1, empty) ] interface = {}",
            "r",
        )
        host = parse_host_graph("[ (n1, 1) | ]")
        [(g, alpha)] = list(enumerate_matches(schema, host))
        result = apply(schema, host, g, alpha)
        assert len(result.nodes) == 2
        assert result.nodes["n1"] == HostLabel((1,))  # original untouched
        assert len(result.edges) == 1


    def test_deleting_nodes_builds_no_incidence_index(self, monkeypatch):
        schema = corpus.load("series_parallel").rules["delete_base"]
        host = parse_host_graph("[ (n1, 0) (n2, 0) | (e1, n1, n2, empty) ]")
        [(g, alpha)] = list(enumerate_matches(schema, host))
        builds = 0
        incidence = HostGraph.incidence

        def counted(graph):
            nonlocal builds
            builds += graph._incident is None
            return incidence(graph)

        monkeypatch.setattr(HostGraph, "incidence", counted)
        result = apply(schema, host, g, alpha)
        assert builds == 0
        assert not result.nodes and not result.edges


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
        for g, alpha in enumerate_matches(schema, host):
            result = apply(schema, host, g, alpha)
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


def maps(premorphisms, left, host) -> list:
    """The node and edge maps, in order and with their dict orders, of the
    premorphisms that agree with the left graph on every mark."""
    return [
        (list(g.node_map.items()), list(g.edge_map.items()))
        for g in premorphisms
        if all(left.nodes[n].marked == host.nodes[h].marked for n, h in g.node_map.items())
        and all(
            left.edges[e].label.marked == host.edges[h].label.marked
            for e, h in g.edge_map.items()
        )
    ]


def matches_and_warnings(schema, host) -> tuple:
    warnings: list[str] = []
    found = [
        (list(g.node_map.items()), list(g.edge_map.items()), alpha)
        for g, alpha in enumerate_matches(schema, host, warnings)
    ]
    return found, warnings


class TestMatcherAgainstReference:
    """The search plan yields exactly the reference's premorphisms and the
    reference pipeline's matches, in the same order, so seeded runs pick
    the same match."""

    def agree(self, monkeypatch, schema, host, seen) -> None:
        left = schema.left
        got = maps(rules._premorphisms(left, host), left, host)
        assert got == maps(reference_premorphisms(left, host), left, host)
        found = matches_and_warnings(schema, host)
        with monkeypatch.context() as m:
            m.setattr(rules, "_premorphisms", reference_premorphisms)
            assert found == matches_and_warnings(schema, host), host.to_text()
        ends = [(e.source, e.target) for e in left.edges.values()]
        touched = {n for pair in ends for n in pair}
        seen["matches"] += len(found[0])
        seen["loop"] += bool(got) and any(s == t for s, t in ends)
        seen["parallel"] += bool(got) and len(set(ends)) < len(ends)
        seen["isolated"] += bool(got) and bool(set(left.nodes) - touched)

    def test_random_schemas_on_marked_hosts(self, monkeypatch):
        seen = collections.Counter()
        for trial in range(500):
            rng = random.Random(trial)
            rate = rng.choice(MARK_RATES)
            schema = with_flipped_left_marks(rng, random_schema(rng), rate)
            host = with_random_marks(rng, random_host(rng, max_nodes=6), rate)
            self.agree(monkeypatch, schema, host, seen)
        assert min(seen[k] for k in ("matches", "loop", "parallel", "isolated")) > 0, seen

    @pytest.mark.parametrize("name", corpus.PROGRAMS)
    def test_corpus_rules_on_marked_hosts(self, monkeypatch, name):
        seen = collections.Counter()
        rng = random.Random(name)
        hosts = [random_host(rng, max_nodes=6) for _ in range(30)]
        hosts += [random_eulerian(rng, max_nodes=6) for _ in range(30)]
        for host in hosts:
            host = with_random_marks(rng, host, rng.choice(MARK_RATES))
            for schema in corpus.load(name).rules.values():
                self.agree(monkeypatch, schema, host, seen)
        assert seen["matches"] > 0, seen
