import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlib import random_body, random_host, reference_run_one
from gp2.executor import (
    BOTTOM_NONE,
    BOTTOM_POSSIBLE,
    BOTTOM_PROVEN,
    Budget,
    Engine,
    Failure,
    Result,
    Unfinished,
    equivalent,
    run_one,
    semantics,
    successors,
)
from gp2.graphs import isomorphic
from gp2.parsing import parse_host_graph, parse_program
from gp2.program import CheckedProgram, Fail, If, Loop, Or, RuleSetCall, Seq, Skip, Try, checked

RULES_SRC = """
rule r() [ (n1, 0) | ] => [ (n1, 1) | ] interface = {n1}
rule null() [ | ] => [ | ] interface = {}
main = skip
"""
RULES = checked(parse_program(RULES_SRC)).rules

G0 = parse_host_graph("[ (n1, 0) | ]")
G1 = parse_host_graph("[ (n1, 1) | ]")
G2 = parse_host_graph("[ (n1, 2) | ]")

R = RuleSetCall(("r",))
NULL = RuleSetCall(("null",))
P, Q = RuleSetCall(("r",)), Skip()


def as_program(command, rules=RULES):
    return CheckedProgram(rules, command)


def step(command, graph):
    return successors(Unfinished(command, graph), RULES)


def only(succs):
    assert len(succs) == 1
    return succs[0]


def assert_result(succ, graph):
    assert isinstance(succ, Result)
    assert isomorphic(succ.graph, graph)


def assert_unfinished(succ, rest, graph):
    assert isinstance(succ, Unfinished)
    assert succ.rest == rest
    assert isomorphic(succ.state, graph)


# -- one test per inference rule, asserting the exact successor set ----


class TestCoreRules:
    def test_call1_applicable_ruleset_steps_to_results(self):
        assert_result(only(step(R, G0)), G1)

    def test_call2_inapplicable_ruleset_fails(self):
        assert only(step(R, G2)) == Failure()

    def test_seq1_head_steps_inside_sequence(self):
        succs = step(Seq((Or(Skip(), Fail()), R)), G0)
        assert len(succs) == 2
        assert_unfinished(succs[0], Seq((Skip(), R)), G0)
        assert_unfinished(succs[1], Seq((Fail(), R)), G0)

    def test_seq2_finished_head_passes_graph_on(self):
        assert_unfinished(only(step(Seq((R, Q)), G0)), Q, G1)

    def test_seq3_failing_head_fails_the_sequence(self):
        assert only(step(Seq((Fail(), Q)), G0)) == Failure()

    def test_if1_passing_test_runs_then_on_original_graph(self):
        # the test rewrites G0 to G1 but the then-branch sees G0
        assert_unfinished(only(step(If(R, P, Q), G0)), P, G0)

    def test_if2_failing_test_runs_else_on_original_graph(self):
        assert_unfinished(only(step(If(R, P, Q), G2)), Q, G2)

    def test_try1_passing_test_passes_result_graph_to_then(self):
        assert_unfinished(only(step(Try(R, Q, P), G0)), Q, G1)

    def test_try2_failing_test_runs_else_on_original_graph(self):
        assert_unfinished(only(step(Try(R, Q, P), G2)), P, G2)

    def test_alap1_loop_iterates_on_the_rewritten_graph(self):
        assert_unfinished(only(step(Loop(R), G0)), Loop(R), G1)

    def test_alap2_failing_body_ends_loop_with_current_graph(self):
        assert_result(only(step(Loop(R), G2)), G2)


class TestDerivedRules:
    def test_or1_left_choice(self):
        succs = step(Or(P, Q), G0)
        assert len(succs) == 2
        assert_unfinished(succs[0], P, G0)

    def test_or2_right_choice(self):
        succs = step(Or(P, Q), G0)
        assert len(succs) == 2
        assert_unfinished(succs[1], Q, G0)

    def test_skip_yields_the_input_graph(self):
        assert_result(only(step(Skip(), G0)), G0)

    def test_fail_yields_failure(self):
        assert only(step(Fail(), G0)) == Failure()

    def test_if3_no_else_passing_test(self):
        assert_unfinished(only(step(If(R, P), G0)), P, G0)

    def test_if4_no_else_failing_test_yields_input_graph(self):
        assert_result(only(step(If(R, P), G2)), G2)

    def test_try3_no_else_passing_test(self):
        assert_unfinished(only(step(Try(R, Q), G0)), Q, G1)

    def test_try4_no_else_failing_test_yields_input_graph(self):
        assert_result(only(step(Try(R, Q), G2)), G2)


class TestNondeterministicBranching:
    def test_if_produces_both_branches_when_test_can_succeed_and_fail(self):
        succs = step(If(Or(Skip(), Fail()), P, Q), G0)
        assert len(succs) == 2
        assert {s.rest for s in succs if isinstance(s, Unfinished)} == {P, Q}

    def test_terminal_configurations_have_no_successors(self):
        with pytest.raises(ValueError):
            successors(Result(G0), RULES)
        with pytest.raises(ValueError):
            successors(Failure(), RULES)


def deep_commands() -> tuple:
    """An or and a sequence nested far past the recursion limit; each
    branch of the or goes one level deeper."""
    deep_or = deep_seq = R
    for _ in range(5_000):
        deep_or = Or(deep_or, Seq((Skip(), deep_or)))
        deep_seq = Seq((Skip(), deep_seq))
    return deep_or, deep_seq


class TestRunOne:
    def test_skip(self):
        out = run_one(as_program(Skip()), G0)
        assert out.kind == "graph"
        assert isomorphic(out.graph, G0)

    def test_fail(self):
        assert run_one(as_program(Fail()), G0).kind == "fail"

    def test_empty_ruleset_loop_terminates(self):
        out = run_one(as_program(Loop(RuleSetCall(()))), G0)
        assert out.kind == "graph"
        assert isomorphic(out.graph, G0)

    def test_divergent_loop_exhausts_budget(self):
        out = run_one(as_program(Loop(NULL)), G0, budget=Budget(max_steps=100))
        assert out.kind == "budget"

    def test_same_seed_same_outcome(self):
        body = Or(Seq((R, Skip())), Fail())
        a = run_one(as_program(body), G0, budget=Budget(seed=5))
        b = run_one(as_program(body), G0, budget=Budget(seed=5))
        assert a.kind == b.kind
        if a.kind == "graph":
            assert a.graph.to_text() == b.graph.to_text()

    def test_trace_records_rule_names(self):
        out = run_one(as_program(Seq((Skip(), Fail()))), G0, tracing=True)
        assert [t.rule for t in out.trace] == ["skip", "fail"]

    @pytest.mark.parametrize(
        "command, graph, seed, names",
        [
            (R, G0, 0, ["call1"]),
            (R, G2, 0, ["call2"]),
            (Skip(), G0, 0, ["skip"]),
            (Fail(), G0, 0, ["fail"]),
            # the first draw of seed 1 is below 0.5 and picks the left branch
            (Or(Skip(), Fail()), G0, 1, ["or1", "skip"]),
            (Or(Skip(), Fail()), G0, 0, ["or2", "fail"]),
            (If(R, P, Q), G0, 0, ["call1", "if1", "call1"]),
            (If(R, P, Q), G2, 0, ["call2", "if2", "skip"]),
            (If(R, P), G0, 0, ["call1", "if3", "call1"]),
            (If(R, P), G2, 0, ["call2", "if4"]),
            (Try(R, Q, P), G0, 0, ["call1", "try1", "skip"]),
            (Try(R, Q, P), G2, 0, ["call2", "try2", "call2"]),
            (Try(R, Q), G0, 0, ["call1", "try3", "skip"]),
            (Try(R, Q), G2, 0, ["call2", "try4"]),
            (Loop(R), G0, 0, ["call1", "alap1", "call2", "alap2"]),
            (Seq((If(Skip(), R), Loop(Fail()))), G0, 0, ["skip", "if3", "call1", "fail", "alap2"]),
        ],
    )
    def test_trace_names_each_inference_rule(self, command, graph, seed, names):
        out = run_one(as_program(command), graph, Budget(seed=seed), tracing=True)
        assert [t.rule for t in out.trace] == names

    def test_or_and_sequences_run_without_recursion(self):
        for command in deep_commands():
            out = run_one(as_program(command), G0, Budget(max_steps=100_000))
            assert out.kind == "graph" and isomorphic(out.graph, G1)


INC_RULES = """
rule inc(i: int) [ (n1, i) | ] => [ (n1, i + 1) | ] interface = {n1} where i < 4
rule add() [ | ] => [ (n1, 0) | ] interface = {}
"""


class TestRewriteInPlace:
    """A run rewrites in place only a graph that it made and that no if,
    try or loop still needs: each program ends as the big-step reference
    runner, which copies on every rewrite, says, and the host is kept."""

    @pytest.mark.parametrize(
        "main",
        [
            "inc; if inc then inc",
            "inc; if (inc; inc) then skip else add",
            "inc; try (inc; inc; fail) then add else skip",
            "inc; try inc then (inc; add)",
            "inc; (inc; inc; fail)!",
            "inc; (inc; inc)!; inc",
            "inc!; add; inc!",
            "add; (inc or add); if inc then fail else inc",
        ],
    )
    def test_premises_keep_their_graph(self, main):
        program = checked(parse_program(INC_RULES + f"main = {main}\n"))
        host = parse_host_graph("[ (a, 0) (b, 2) | (e1, a, b, empty) ]")
        for seed in range(4):
            got = run_one(program, host, Budget(seed=seed), tracing=True)
            want = reference_run_one(program, host, Budget(seed=seed), tracing=True)
            assert (got.kind, got.steps, [str(t) for t in got.trace]) == (
                want.kind, want.steps, [str(t) for t in want.trace]
            )
            assert got.graph is None or got.graph.to_text() == want.graph.to_text()
            assert host.to_text() == "[ (a, 0) (b, 2) | (e1, a, b, empty) ]"

    def test_random_programs_keep_the_host(self):
        rng = random.Random(16)
        program = checked(parse_program(INC_RULES + "main = skip\n"))
        for _ in range(300):
            body = random_body(rng, ("inc", "add"), depth=4)
            host = random_host(rng, max_nodes=3, labels=((0,), (2,)))
            text = host.to_text()
            got = run_one(CheckedProgram(program.rules, body), host, Budget(max_steps=60))
            want = reference_run_one(body, host, Budget(max_steps=60), program.rules)
            assert got.kind == want.kind and host.to_text() == text
            assert got.graph is None or got.graph.to_text() == want.graph.to_text()


class TestSemantics:
    def test_or_and_sequences_explore_without_recursion(self):
        # each command hashes once, when built, so no memo or interning
        # lookup walks the command tree
        for command in deep_commands():
            rs = semantics(as_program(command), G0, Budget(max_steps=100_000))
            assert len(rs.graphs) == 1 and isomorphic(rs.graphs[0], G1)

    def test_skip_or_fail(self):
        rs = semantics(as_program(Or(Skip(), Fail())), G0)
        assert len(rs.graphs) == 1
        assert isomorphic(rs.graphs[0], G0)
        assert rs.can_fail
        assert rs.bottom == BOTTOM_NONE

    def test_try_form_of_the_non_equivalence_cannot_fail(self):
        c = Or(Skip(), Fail())
        rs = semantics(as_program(Try(c, Skip(), Skip())), G0)
        assert len(rs.graphs) == 1 and not rs.can_fail

    def test_if_form_of_the_non_equivalence_can_fail(self):
        c = Or(Skip(), Fail())
        rs = semantics(as_program(If(c, Seq((c, Skip())), Skip())), G0)
        assert len(rs.graphs) == 1 and rs.can_fail

    def test_divergent_loop_is_proven_bottom(self):
        rs = semantics(as_program(Loop(NULL)), G0)
        assert rs.graphs == [] and not rs.can_fail
        assert rs.bottom == BOTTOM_PROVEN

    def test_budget_exhaustion_reports_possible_bottom(self):
        # the loop grows the graph forever, so no cycle is ever closed
        grow = checked(
            parse_program(
                "rule grow() [ | ] => [ (n1, 0) | ] interface = {}\nmain = grow!"
            )
        )
        rs = semantics(grow, G0, budget=Budget(max_steps=50))
        assert rs.bottom == BOTTOM_POSSIBLE

    def test_stuck_configuration_is_proven_bottom(self):
        # if-command whose test diverges: no inference rule applies
        rs = semantics(as_program(If(Loop(NULL), Skip(), Skip())), G0)
        assert rs.bottom == BOTTOM_PROVEN
        assert rs.graphs == [] and not rs.can_fail

    def test_if_discards_test_graph(self):
        rs = semantics(as_program(If(R, Skip(), Skip())), G0)
        assert len(rs.graphs) == 1
        assert isomorphic(rs.graphs[0], G0)

    def test_try_passes_test_graph(self):
        rs = semantics(as_program(Try(R, Skip(), Skip())), G0)
        assert len(rs.graphs) == 1
        assert isomorphic(rs.graphs[0], G1)

    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_loops_never_fail(self, seed):
        rng = random.Random(seed)
        body = random_body(rng, ("r", "null"), depth=2)
        host = random_host(rng, max_nodes=3, max_edges=2, labels=((), (0,)))
        rs = semantics(as_program(Loop(body)), host, budget=Budget(max_steps=3000))
        if rs.bottom != BOTTOM_POSSIBLE:
            assert not rs.can_fail

    def test_budget_enlargement_is_monotone(self):
        prog = checked(
            parse_program(
                "rule grow() [ | ] => [ (n1, 0) | ] interface = {}\n"
                "main = grow; grow; (skip or fail)"
            )
        )
        small = semantics(prog, G0, budget=Budget(max_steps=3))
        large = semantics(prog, G0, budget=Budget(max_steps=1000))
        assert len(small.graphs) <= len(large.graphs)
        assert (not small.can_fail) or large.can_fail


def test_entry_points_take_a_checked_program_and_no_rules():
    # one calling form: a hand-built command is run as a CheckedProgram
    for entry in (run_one, semantics, equivalent):
        assert "rules" not in inspect.signature(entry).parameters, entry.__name__


class TestEquivalence:
    HOSTS = [
        parse_host_graph("[ | ]"),
        G0,
        G2,
        parse_host_graph("[ (n1, 0) (n2, 1) | (e1, n1, n2, empty) ]"),
    ]

    def test_skip_equals_null_call(self):
        v = equivalent(as_program(Skip()), as_program(NULL), self.HOSTS)
        assert v.status == "equal"

    def test_fail_equals_empty_ruleset(self):
        v = equivalent(as_program(Fail()), as_program(RuleSetCall(())), self.HOSTS)
        assert v.status == "equal"

    def test_counterexample_reported(self):
        v = equivalent(as_program(Skip()), as_program(Fail()), self.HOSTS)
        assert v.status == "counterexample"
        assert v.counterexample is not None

    def test_inconclusive_on_budget(self):
        grow_rules = checked(
            parse_program(
                "rule grow() [ | ] => [ (n1, 0) | ] interface = {}\nmain = skip"
            )
        ).rules
        v = equivalent(
            as_program(Loop(RuleSetCall(("grow",))), grow_rules),
            as_program(Loop(RuleSetCall(("grow",))), grow_rules),
            [G0],
            budget=Budget(max_steps=30),
        )
        assert v.status == "inconclusive"
