"""Acceptance suite: eight criteria, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as the
criteria complete.
"""

import random

import pytest

from genlib import (
    brute_assignments,
    premorphism,
    random_body,
    random_eulerian,
    random_host,
    random_schema,
    random_simple_label,
    small_hosts,
)
from gp2 import corpus
from gp2.executor import (
    BOTTOM_POSSIBLE,
    Budget,
    Engine,
    Failure,
    Result,
    Unfinished,
    _same_result_set,
    run_one,
    successors,
)
from gp2.graphs import HostGraph, HostLabel, Premorphism, isomorphic
from gp2.oracles import (
    oracle_acyclic,
    oracle_connected,
    oracle_eulerian,
    oracle_series_parallel,
    validate_euler_numbering,
)
from gp2.parsing import parse_host_graph, parse_program
from gp2.program import Fail, If, Loop, Or, RuleSetCall, Seq, Skip, Try, checked
from gp2.rules import RuleGraph, apply, enumerate_matches, infer_assignment, validate
from gp2.labels import RuleLabel


def report(number: int, name: str, failures: list):
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    print(f"\nacceptance criterion {number} [{name}]: {status}")
    assert not failures, failures[:5]


# -- 1: double-pushout rewriting invariants ----------------------------


def test_criterion_1_dpo_correctness():
    rng = random.Random(10)
    failures = []
    for trial in range(200):
        schema = random_schema(rng)
        if validate(schema):
            failures.append(("invalid schema", trial))
            continue
        host = random_host(rng, max_nodes=5)
        for match in enumerate_matches(schema, host):
            result = apply(schema, host, match)
            g = premorphism(schema.left, match[0])
            dn = len(schema.left.nodes) - len(schema.interface)
            an = len(schema.right.nodes) - len(schema.interface)
            if len(result.nodes) != len(host.nodes) - dn + an:
                failures.append(("node cardinality", trial))
            if len(result.edges) != len(host.edges) - len(schema.left.edges) + len(
                schema.right.edges
            ):
                failures.append(("edge cardinality", trial))
            matched_nodes = set(g.node_map.values())
            matched_edges = set(g.edge_map.values())
            for nid, lab in host.nodes.items():
                if nid not in matched_nodes and result.nodes.get(nid) != lab:
                    failures.append(("unmatched node changed", trial))
            for eid, e in host.edges.items():
                if eid in matched_edges:
                    continue
                r = result.edges.get(eid)
                if r is None or (r.source, r.target, r.label) != (
                    e.source,
                    e.target,
                    e.label,
                ):
                    failures.append(("unmatched edge changed", trial))
            deleted = matched_nodes - {g.node_map[n] for n in schema.interface}
            for nid in deleted:
                for eid in host.incident_edges(nid):
                    if eid not in matched_edges:
                        failures.append(("dangling violation", trial))
    report(1, "DPO correctness", failures)


# -- 2: unique assignment inference vs brute force ---------------------


def test_criterion_2_assignment_uniqueness():
    rng = random.Random(20)
    failures = []
    for trial in range(200):
        expr, _ = random_simple_label(rng)
        items = tuple(
            rng.choice([0, 1, -1, 2, "a", "ab", "b", ""])
            for _ in range(rng.randint(0, 6))
        )
        left = RuleGraph()
        left.add_node("n1", RuleLabel(expr, False))
        host = HostGraph()
        hid = host.add_node(HostLabel(items))
        got = infer_assignment(left, Premorphism({"n1": hid}, {}), host)
        want = brute_assignments(expr, items)
        if len(want) > 1:
            failures.append(("non-unique solution set", trial, str(expr), items))
        elif got is None and want:
            failures.append(("missed solution", trial, str(expr), items))
        elif got is not None and want != [got]:
            failures.append(("wrong solution", trial, str(expr), items))
    report(2, "assignment uniqueness", failures)


# -- 3 & 4: equivalence laws over the bounded host universe -----------

LAW_RULES_SRC = """
rule remove_edge(x, y, z: list)
  [ (n1, x) (n2, y) | (e1, n1, n2, z) ] => [ (n1, x) (n2, y) | ]
  interface = {n1, n2}
rule remove_loop(x, z: list)
  [ (n1, x) | (e1, n1, n1, z) ] => [ (n1, x) | ] interface = {n1}
rule remove_node(x: list) [ (n1, x) | ] => [ | ] interface = {}
rule create() [ | ] => [ (n1, 0) | ] interface = {}
rule null() [ | ] => [ | ] interface = {}
rule zero() [ (n1, 0) | ] => [ (n1, 0) | ] interface = {n1}
rule relabel(x: list) [ (n1, x) | ] => [ (n1, 0) | ] interface = {n1}
main = skip
"""
LAW_RULES = checked(parse_program(LAW_RULES_SRC)).rules


def law_hosts():
    hosts = small_hosts(max_nodes=3, max_edges=3)
    rng = random.Random(30)
    hosts += [random_host(rng, max_nodes=6, max_edges=6) for _ in range(20)]
    return hosts


@pytest.fixture(scope="module")
def hosts3():
    return law_hosts()


def check_law(engine, name, p, q, hosts, failures):
    for host in hosts:
        sa = engine.semantics(p, host)
        sb = engine.semantics(q, host)
        if BOTTOM_POSSIBLE in (sa.bottom, sb.bottom):
            failures.append((name, "inconclusive", host.to_text()))
            continue
        same, detail = _same_result_set(sa, sb)
        if not same:
            failures.append((name, detail, host.to_text()))


def test_criterion_3_equivalence_laws(hosts3):
    engine = Engine(LAW_RULES, Budget(max_steps=100_000_000, max_configs=10_000_000))
    failures = []
    null_call = RuleSetCall(("null",))
    test_cmd = RuleSetCall(("relabel",))  # can succeed or fail per host
    check_law(engine, "skip = null", Skip(), null_call, hosts3, failures)
    check_law(engine, "fail = {}", Fail(), RuleSetCall(()), hosts3, failures)
    check_law(
        engine,
        "if-else-null",
        If(test_cmd, RuleSetCall(("create",))),
        If(test_cmd, RuleSetCall(("create",)), null_call),
        hosts3,
        failures,
    )
    check_law(
        engine,
        "try-else-null",
        Try(test_cmd, RuleSetCall(("create",))),
        Try(test_cmd, RuleSetCall(("create",)), null_call),
        hosts3,
        failures,
    )
    coin = Seq(
        (
            Loop(RuleSetCall(("remove_edge", "remove_loop", "remove_node"))),
            RuleSetCall(("create", "null")),
            RuleSetCall(("zero",)),
        )
    )
    for p, q in [(Skip(), Fail()), (RuleSetCall(("relabel",)), Skip())]:
        check_law(
            engine,
            "or-elimination",
            Or(p, q),
            If(coin, p, q),
            hosts3,
            failures,
        )
    report(3, "equivalence laws", failures)


def test_criterion_4_try_if_non_equivalence(hosts3):
    engine = Engine(LAW_RULES, Budget(max_steps=100_000_000, max_configs=10_000_000))
    failures = []
    c = Or(Skip(), Fail())
    try_form = Try(c, Skip(), Skip())
    if_form = If(c, Seq((c, Skip())), Skip())
    for host in hosts3:
        st = engine.semantics(try_form, host)
        si = engine.semantics(if_form, host)
        if not (
            len(st.graphs) == 1
            and isomorphic(st.graphs[0], host)
            and not st.can_fail
            and st.bottom == "none"
        ):
            failures.append(("try-form", host.to_text()))
        if not (
            len(si.graphs) == 1
            and isomorphic(si.graphs[0], host)
            and si.can_fail
            and si.bottom == "none"
        ):
            failures.append(("if-form", host.to_text()))
    report(4, "try/if non-equivalence", failures)


# -- 5: corpus programs vs oracles -------------------------------------


def test_criterion_5_corpus_differential():
    failures = []
    cases = [
        ("connected", oracle_connected, dict(max_nodes=8)),
        ("acyclic", oracle_acyclic, dict(max_nodes=8)),
        ("series_parallel", oracle_series_parallel, dict(max_nodes=8, max_edges=6)),
        ("eulerian", oracle_eulerian, dict(max_nodes=8)),
    ]
    for name, oracle, kwargs in cases:
        program = corpus.load(name)
        rng = random.Random(50)
        for trial in range(100):
            host = random_host(rng, **kwargs)
            out = run_one(program, host, budget=Budget(seed=trial, max_steps=200_000))
            if out.kind == "budget":
                failures.append((name, "budget", host.to_text()))
            elif (out.kind == "graph") != oracle(host):
                failures.append((name, out.kind, host.to_text()))
    report(5, "corpus vs oracles", failures)


# -- 6: the Euler-cycle construction -----------------------------------


def numbering_shape_ok(witness) -> bool:
    """Hierarchical insertion shape: sibling indices start at 1 and each
    non-initial sibling has its predecessor present."""
    numbers = set(witness)
    for t in witness:
        if t[-1] < 1:
            return False
        if t[-1] > 1 and t[:-1] + (t[-1] - 1,) not in numbers:
            return False
    return True


def test_criterion_6_euler_cycle():
    failures = []
    program = corpus.load("euler_cycle")
    hosts = [parse_host_graph("[ | ]")]
    for seed in range(25):
        hosts.append(random_eulerian(random.Random(seed), max_nodes=6))
    for i, host in enumerate(hosts):
        out = run_one(program, host, budget=Budget(seed=i, max_steps=500_000))
        if out.kind != "graph":
            failures.append((i, out.kind))
            continue
        verdict = validate_euler_numbering(out.graph, host)
        if not verdict.verdict:
            failures.append((i, verdict.reason, host.to_text()))
        elif not numbering_shape_ok(verdict.witness):
            failures.append((i, "numbering shape", verdict.witness))
    report(6, "euler-cycle numbering", failures)


# -- 7: one successor-set check per inference rule ---------------------


def test_criterion_7_inference_rule_coverage():
    rules = checked(
        parse_program(
            "rule r() [ (n1, 0) | ] => [ (n1, 1) | ] interface = {n1}\nmain = skip"
        )
    ).rules
    g0 = parse_host_graph("[ (n1, 0) | ]")
    g1 = parse_host_graph("[ (n1, 1) | ]")
    g2 = parse_host_graph("[ (n1, 2) | ]")
    r = RuleSetCall(("r",))
    p, q = RuleSetCall(("r",)), Skip()

    def succ(cmd, graph):
        return successors(Unfinished(cmd, graph), rules)

    def is_result(s, graph):
        return isinstance(s, Result) and isomorphic(s.graph, graph)

    def is_unf(s, rest, graph):
        return isinstance(s, Unfinished) and s.rest == rest and isomorphic(s.state, graph)

    # one entry per inference rule of the transition relation (19 total)
    checks = {
        "call1": lambda: [is_result(s, g1) for s in succ(r, g0)] == [True],
        "call2": lambda: succ(r, g2) == [Failure()],
        "seq1": lambda: [
            is_unf(s, Seq((c, r)), g0)
            for s, c in zip(succ(Seq((Or(Skip(), Fail()), r)), g0), (Skip(), Fail()))
        ]
        == [True, True],
        "seq2": lambda: [is_unf(s, q, g1) for s in succ(Seq((r, q)), g0)] == [True],
        "seq3": lambda: succ(Seq((Fail(), q)), g0) == [Failure()],
        "if1": lambda: [is_unf(s, p, g0) for s in succ(If(r, p, q), g0)] == [True],
        "if2": lambda: [is_unf(s, q, g2) for s in succ(If(r, p, q), g2)] == [True],
        "try1": lambda: [is_unf(s, q, g1) for s in succ(Try(r, q, p), g0)] == [True],
        "try2": lambda: [is_unf(s, p, g2) for s in succ(Try(r, q, p), g2)] == [True],
        "alap1": lambda: [is_unf(s, Loop(r), g1) for s in succ(Loop(r), g0)] == [True],
        "alap2": lambda: [is_result(s, g2) for s in succ(Loop(r), g2)] == [True],
        "or1": lambda: is_unf(succ(Or(p, q), g0)[0], p, g0)
        and len(succ(Or(p, q), g0)) == 2,
        "or2": lambda: is_unf(succ(Or(p, q), g0)[1], q, g0)
        and len(succ(Or(p, q), g0)) == 2,
        "skip": lambda: [is_result(s, g0) for s in succ(Skip(), g0)] == [True],
        "fail": lambda: succ(Fail(), g0) == [Failure()],
        "if3": lambda: [is_unf(s, p, g0) for s in succ(If(r, p), g0)] == [True],
        "if4": lambda: [is_result(s, g2) for s in succ(If(r, p), g2)] == [True],
        "try3": lambda: [is_unf(s, q, g1) for s in succ(Try(r, q), g0)] == [True],
        "try4": lambda: [is_result(s, g2) for s in succ(Try(r, q), g2)] == [True],
    }
    failures = [name for name, check in checks.items() if not check()]
    assert len(checks) == 19
    report(7, "inference-rule coverage", failures)


# -- 8: loops never fail ----------------------------------------------


def test_criterion_8_loop_failure_invariant():
    rules = checked(
        parse_program(
            "rule r() [ (n1, 0) | ] => [ (n1, 1) | ] interface = {n1}\n"
            "rule null() [ | ] => [ | ] interface = {}\nmain = skip"
        )
    ).rules
    rng = random.Random(80)
    failures = []
    engine = Engine(rules, Budget(max_steps=500_000, max_configs=100_000))
    for trial in range(100):
        body = random_body(rng, ("r", "null"), depth=2)
        host = random_host(rng, max_nodes=3, max_edges=2, labels=((), (0,), (1,)))
        rs = engine.semantics(Loop(body), host)
        if rs.bottom != BOTTOM_POSSIBLE and rs.can_fail:
            failures.append((trial, str(body), host.to_text()))
    report(8, "loop-failure invariant", failures)
