"""The explorer against the reference it replaced, and the two execution
modes against each other.

`genlib.ReferenceEngine` is the explorer that stepped (command, graph)
pairs and rebuilt sequences with `seq`; `Engine` steps flat
continuations.  Both must give the same result sets in the same order,
take the same number of steps and record the same warnings, on every
budget, including the truncated ones, except where `Engine` reduces a
loop: one of a confluent rule set (`confluence.confluent`) to one
transition to its normal form, one of a reducible rule set
(`rules.reducible`) to one match per step.  There the reduced explorer
must take no more steps, and wherever the reference completes the result
sets must agree up to isomorphism, with the same failure, bottom and
warnings.  The verdicts themselves are pinned for every loop of the
corpus and the law rules, with the reason for each no.
"""

import random
import sys
from collections import Counter
from pathlib import Path

from genlib import ReferenceEngine, random_body, random_host, small_hosts
from gp2 import confluence, corpus
from gp2.confluence import confluent, obstacle
from gp2.executor import (
    BOTTOM_NONE,
    BOTTOM_POSSIBLE,
    BOTTOM_PROVEN,
    Budget,
    Engine,
    Result,
    Unfinished,
    equivalent,
    run_one,
    semantics,
    successors,
)
from gp2.graphs import HostGraph, HostLabel, isomorphic
from gp2.labels import subterms
from gp2.parsing import parse_host_graph, parse_program
from gp2.program import CheckedProgram, Loop, RuleSetCall, checked
from gp2.rules import reducible

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402
from worker import LAW_RULES, LAWS, PROGRAMS, UNBOUNDED  # noqa: E402

# rules that shrink or relabel hosts, so every exploration is finite, and
# one whose right label divides by zero, so matches raise warnings
RULES = checked(
    parse_program(
        """
rule remove_edge(x, y, z: list)
  [ (n1, x) (n2, y) | (e1, n1, n2, z) ] => [ (n1, x) (n2, y) | ]
  interface = {n1, n2}
rule remove_node(x: list) [ (n1, x) | ] => [ | ] interface = {}
rule r() [ (n1, 0) | ] => [ (n1, 1) | ] interface = {n1}
rule null() [ | ] => [ | ] interface = {}
rule relabel(x: list) [ (n1, x) | ] => [ (n1, 0) | ] interface = {n1}
rule divide(x: int) [ (n1, x) | ] => [ (n1, x / 0) | ] interface = {n1}
main = skip
"""
    )
).rules
# step limits that cut explorations at many points, and a configuration
# limit that cuts them too
BUDGETS = [Budget(max_steps=n, max_configs=50) for n in (3, 7, 25, 10_000)]
BUDGETS.append(Budget(max_configs=4))


def as_program(command):
    return CheckedProgram(RULES, command)


def outcome(engine, result):
    return result.describe(), result.bottom, engine.steps, list(engine.warnings)


def configuration(cfg):
    """A comparable form of a configuration; graphs compare by text, since
    both explorers make them with the same rule applications."""
    if isinstance(cfg, Unfinished):
        return "unfinished", cfg.rest, cfg.state.to_text()
    if isinstance(cfg, Result):
        return "result", cfg.graph.to_text()
    return "failure"


def has_confluent_loop(body, rules) -> bool:
    """Whether body holds a loop of a confluent rule set (`gp2.confluence`)."""
    return any(
        isinstance(c, Loop) and isinstance(c.body, RuleSetCall)
        and confluent([rules[n] for n in c.body.names])
        for c in subterms(body)
    )


def up_to_iso(engine, result) -> tuple:
    """A result set with its graphs up to isomorphism, and the warnings."""
    graphs = result.graphs
    signatures = {g.signature() for g in graphs}
    return signatures, len(graphs), result.can_fail, result.bottom, engine.warnings


def test_random_programs_match_the_reference_explorer():
    """600 programs on 4 hosts each of `small_hosts(2, 2)`, per budget; the
    engines of one program and budget serve its 4 hosts in turn, so the
    memo and the step count carry over between calls.  A body with a loop
    of a confluent set takes no more steps than the reference, and agrees
    with it up to isomorphism wherever the reference completes."""
    rng = random.Random(70)
    hosts = small_hosts(2, 2)
    names = tuple(RULES)
    truncated = proven = exact = reduced = 0
    for _ in range(600):
        body = random_body(rng, names, depth=3)
        chosen = rng.sample(hosts, 4)
        reduces = has_confluent_loop(body, RULES)
        for budget in BUDGETS:
            new, ref = Engine(RULES, budget), ReferenceEngine(RULES, budget)
            for host in chosen:
                got, want = new.semantics(body, host), ref.semantics(body, host)
                case = str(body), host.to_text(), budget
                if not reduces:
                    assert outcome(new, got) == outcome(ref, want), case
                    exact += 1
                else:
                    assert new.steps <= ref.steps, case
                    if want.bottom != BOTTOM_POSSIBLE:
                        assert up_to_iso(new, got) == up_to_iso(ref, want), case
                    reduced += 1
                truncated += got.bottom == BOTTOM_POSSIBLE
                proven += got.bottom == BOTTOM_PROVEN
    assert truncated >= 100 and proven >= 100, (truncated, proven)
    assert (exact, reduced) == (11_720, 280), (exact, reduced)


def test_successors_match_the_reference_step():
    """`successors` against the reference `_successors` on every
    configuration the reference reaches, up to 30 per program."""
    rng = random.Random(71)
    hosts = small_hosts(2, 2)
    names = tuple(RULES)
    budget = Budget(max_steps=200, max_configs=50)
    compared = 0
    for _ in range(600):
        frontier = [Unfinished(random_body(rng, names, depth=3), rng.choice(hosts))]
        for cfg in frontier:
            if len(frontier) > 30:
                break
            want, _ = ReferenceEngine(RULES, budget)._successors(cfg.rest, cfg.state)
            got = successors(cfg, RULES, budget)
            assert list(map(configuration, got)) == list(map(configuration, want)), (
                str(cfg.rest), cfg.state.to_text()
            )
            frontier += [s for s in want if isinstance(s, Unfinished)]
            compared += 1
    assert compared >= 2_500, compared


def test_benchmark_requests_match_the_reference_explorer():
    """The `explore` and `laws` requests of two and eight benchmark
    cycles, under 4,000 steps, about five times what the reference takes on the
    largest of them, and none may run out.  Results, bottom and
    warnings equal the reference's everywhere, and so do the steps, except
    where the explorer reduces a loop.  `euler_cycle`'s `clean_up!` steps
    by one match at a time (`Engine._loop_step`), so it must take fewer.
    `connected`'s `{mark_out, mark_in}!` and the `coin` loop of the law
    sides go straight to their normal form (`Engine._normal_form`), so they
    must take no more."""
    rng = random.Random(72)
    programs = {name: corpus.load(name) for name in PROGRAMS["explore"]}
    cases = 0
    for cycle in workloads.explore(rng, 2):
        for req in cycle:
            program = programs[req["program"]]
            host = parse_host_graph(req["host"])
            budget = Budget(max_steps=4_000)
            new, ref = Engine(program.rules, budget), ReferenceEngine(program.rules, budget)
            got = outcome(new, new.semantics(program.main, host))
            want = outcome(ref, ref.semantics(program.main, host))
            assert BOTTOM_POSSIBLE not in (got[1], want[1]), req["cls"]
            if req["program"] == "euler_cycle":
                assert got[2] < want[2], req["cls"]
                got, want = got[:2] + got[3:], want[:2] + want[3:]
            elif req["program"] == "connected":
                assert got[2] <= want[2], req["cls"]
                got, want = got[:2] + got[3:], want[:2] + want[3:]
            assert got == want, req["cls"]
            cases += 1
    sides = [
        (side, checked(parse_program(f"{LAW_RULES}\nmain = {side}\n")))
        for _, left, right, _ in LAWS
        for side in (left, right)
    ]
    for cycle in workloads.laws(rng, 8):
        for req in cycle:
            host = parse_host_graph(req["host"])
            for text, side in sides:
                budget = Budget(max_steps=4_000)
                new, ref = Engine(side.rules, budget), ReferenceEngine(side.rules, budget)
                got = outcome(new, new.semantics(side.main, host))
                want = outcome(ref, ref.semantics(side.main, host))
                assert BOTTOM_POSSIBLE not in (got[1], want[1]), (req["host"], text)
                if "coin" in text:
                    assert got[2] <= want[2], (req["host"], text)
                    got, want = got[:2] + got[3:], want[:2] + want[3:]
                assert got == want, (req["host"], text)
            cases += 1
    assert cases == 54


# reducible rules, each alone (unmark, mark, remove_edge), and rules that
# are not: they delete a node, relabel without a dead mark or raise
REDUCIBLE_MIX = checked(
    parse_program(
        """
rule unmark(x: list) [ (n1, x #) | ] => [ (n1, x) | ] interface = {n1}
rule mark(x: list) [ (n1, x) | ] => [ (n1, x #) | ] interface = {n1}
rule remove_edge(x, y, z: list)
  [ (n1, x) (n2, y) | (e1, n1, n2, z) ] => [ (n1, x) (n2, y) | ]
  interface = {n1, n2}
rule remove_node(x: list) [ (n1, x) | ] => [ | ] interface = {}
rule relabel(x: list) [ (n1, x) | ] => [ (n1, 0) | ] interface = {n1}
rule divide(x: int) [ (n1, x) | ] => [ (n1, x / 0) | ] interface = {n1}
main = skip
"""
    )
).rules


def distinct_host(rng, n):
    """A host of n nodes with distinct labels, about half of them marked,
    and n - 1 to n + 2 edges, loops and parallel edges allowed."""
    g = HostGraph()
    ids = [g.add_node(HostLabel((i,), rng.random() < 0.5)) for i in range(n)]
    for _ in range(rng.randint(n - 1, n + 2)):
        g.add_edge(rng.choice(ids), rng.choice(ids), HostLabel((rng.choice([0, 1]),)))
    return g


def test_reduced_loops_reach_the_reference_results():
    """5,000 programs, each on one host of `small_hosts(2, 2)` and one of
    5 or 6 nodes with distinct labels, where isomorphism merges few of the
    orders a loop can apply its matches in; under 10,000 steps, about five times
    what the reference takes on the longest of them, and none may run out.
    Result graphs up to isomorphism, failure, bottom and warnings equal the
    reference's."""
    rng = random.Random(77)
    hosts = small_hosts(2, 2)
    names = tuple(REDUCIBLE_MIX)
    reduced = 0
    for _ in range(5_000):
        body = random_body(rng, names, depth=3)
        for host in (rng.choice(hosts), distinct_host(rng, rng.randint(5, 6))):
            budget = Budget(max_steps=10_000)
            new = Engine(REDUCIBLE_MIX, budget)
            ref = ReferenceEngine(REDUCIBLE_MIX, budget)
            got, want = new.semantics(body, host), ref.semantics(body, host)
            assert BOTTOM_POSSIBLE not in (got.bottom, want.bottom), (str(body), host.to_text())
            assert (
                {g.signature() for g in got.graphs},
                len(got.graphs),
                got.can_fail,
                got.bottom,
                new.warnings,
            ) == (
                {g.signature() for g in want.graphs},
                len(want.graphs),
                want.can_fail,
                want.bottom,
                ref.warnings,
            ), (str(body), host.to_text())
            reduced += new.steps < ref.steps
    assert reduced >= 100, reduced


def test_reducible_rule_sets():
    """`rules.reducible` on the corpus, the law rules and rules made to
    break one condition each."""
    made = checked(
        parse_program(
            """
rule unmark(x: list) [ (n1, x #) | ] => [ (n1, x) | ] interface = {n1}
rule mark(x: list) [ (n1, x) | ] => [ (n1, x #) | ] interface = {n1}
rule mark_degree(x: list) [ (n1, x) | ] => [ (n1, indeg(n1) #) | ] interface = {n1}
rule mark_divide(x: int) [ (n1, x) | ] => [ (n1, x / 0 #) | ] interface = {n1}
rule unmark_edge(x, y, z: list)
  [ (n1, x #) (n2, y #) | (e1, n1, n2, z) ] => [ (n1, x) (n2, y #) | ]
  interface = {n1, n2}
rule unmarked(x: list) [ (n1, x) | ] => [ (n1, x) | ] interface = {n1}
main = skip
"""
        )
    ).rules
    euler = corpus.load("euler_cycle").rules
    connected = corpus.load("connected").rules
    acyclic = corpus.load("acyclic").rules
    laws = checked(parse_program(f"{LAW_RULES}\nmain = skip\n")).rules
    sp = corpus.load("series_parallel").rules

    def verdict(rules, *names):
        return reducible([rules[n] for n in names])

    assert verdict(euler, "clean_up")
    assert verdict(laws, "remove_edge")
    assert verdict(made, "mark")
    assert verdict(made, "unmark_edge")  # an edge and a dead mark
    assert not verdict(acyclic, "delete")  # a condition
    assert not verdict(made, "mark_degree")  # a degree operator
    assert not verdict(laws, "remove_node")  # node deletion
    assert not verdict(laws, "remove_edge", "remove_loop", "remove_node")  # coin
    assert not verdict(sp, "serial")  # right edges
    assert not verdict(acyclic, "has_edge")
    assert not verdict(connected, "mark_out", "mark_in")  # marks a left mark
    assert not verdict(made, "mark", "unmark")
    assert not verdict(laws, "null")  # identity rules
    assert not verdict(connected, "unmarked")
    assert not verdict(made, "mark_divide")  # a label that raises
    assert not verdict(RULES, "divide")


DROPS = ("mark_loop", "unloop", "drop_loop", "drop_marked", "drop")


def test_confluent_rule_sets():
    """`confluence.obstacle` on every loop of the corpus, the law rules,
    every rule of `RULES` and `REDUCIBLE_MIX` and the pairs of them that
    are shown confluent or that conflict, and rules made to break one check
    each: None where the set is shown confluent, else how its reason
    starts."""
    made = checked(
        parse_program(
            """
rule constant() [ (n1, 0) | ] => [ | ] interface = {}
rule twice(x: list) [ (n1, x) (n2, x) | ] => [ | ] interface = {}
rule swap(x, y: list) [ (n1, x) | (e1, n1, n1, y) ] => [ (n1, y) | ] interface = {n1}
rule split(x, y: list) [ (n1, x) | (e1, n1, n1, y) ] => [ (n1, x) (n2, y) | ] interface = {n1}
rule big(a, b, c, d, e, f: list)
  [ (n1, a) (n2, b) (n3, c) (n4, d) (n5, e) (n6, f) | ] => [ | ] interface = {}
rule mark_loop(x, z: list) [ (n1, x) | (e1, n1, n1, z) ] => [ (n1, x #) | ] interface = {n1}
rule unloop(x, z: list) [ (n1, x #) | (e1, n1, n1, z) ] => [ (n1, x #) | ] interface = {n1}
rule drop_loop(x, z: list) [ (n1, x) | (e1, n1, n1, z) ] => [ (n1, x) (n2, 0) | ] interface = {n1}
rule drop_marked(x: list) [ (n1, x #) | ] => [ | ] interface = {}
rule drop(x: list) [ (n1, x) | ] => [ | ] interface = {}
main = skip
"""
        )
    ).rules
    euler = corpus.load("euler_cycle").rules
    cycle = ("grow", "grow_seen", "grow_back", "loop", "loop_grow", "loop_grow_seen", "loop_chain")
    laws = checked(parse_program(f"{LAW_RULES}\nmain = skip\n")).rules
    sp = corpus.load("series_parallel").rules
    table = [
        (corpus.load("connected").rules, ("mark_out", "mark_in"), None),
        (corpus.load("eulerian").rules, ("mark_out", "mark_in"), None),
        (laws, ("remove_edge", "remove_loop", "remove_node"), None),  # coin
        (RULES, ("remove_edge",), None),
        (RULES, ("remove_node",), None),
        (RULES, ("remove_edge", "remove_node"), None),
        (REDUCIBLE_MIX, ("mark",), None),
        # three normal forms on a directed triangle, one per middle node
        (sp, ("serial", "parallel"), "serial/serial does not join on [ (n1, 0) (n2, 1) (n3, 2) "
         "| (e1, n1, n2, 3) (e2, n2, n3, 4) (e3, n3, n1, 5) ]"),
        (euler, cycle, "grow: label s:i:xs # is outside the fragment"),
        (euler, ("clean_up",), "clean_up: label a:k:y # is outside the fragment"),
        (corpus.load("acyclic").rules, ("delete",), "delete: it has a condition"),
        (RULES, ("divide",), "divide: label (x / 0) is outside the fragment"),
        (RULES, ("relabel",), "relabel: it does not lower the measure"),
        (RULES, ("r",), "r: it does not lower the measure"),
        (RULES, ("null",), "null: it does not lower the measure"),
        (laws, ("create",), "create: it does not lower the measure"),
        (laws, ("zero",), "zero: it does not lower the measure"),
        (REDUCIBLE_MIX, ("unmark",), "unmark: it does not lower the measure"),
        # a marked node no longer matches remove_edge or remove_node
        (REDUCIBLE_MIX, ("mark", "remove_edge"), "mark/remove_edge does not join"),
        (REDUCIBLE_MIX, ("mark", "remove_node"), "mark/remove_node does not join"),
        (made, ("constant",), "constant: left label 0 is not a list variable used once"),
        (made, ("twice",), "twice: left label x is not a list variable used once"),
        (made, ("swap",), "swap: interface node n1 does not keep its variable"),
        (made, ("split",), "split: created node n2 carries a variable"),
        (made, ("big",), "big/big: too many overlaps to analyse"),
        # the sides of each pair reach the empty graph, but only by deleting
        # the node both first steps keep, which an edge to the rest of a host
        # keeps from being deleted
        (made, DROPS, "mark_loop/mark_loop does not join"),
    ]
    for rules, names, reason in table:
        got = obstacle([rules[n] for n in names])
        assert (got if reason is None else got[: len(reason)]) == reason, (names, got)
    # the triangle's normal forms are three indeed
    triangle = parse_host_graph(
        "[ (n1, 0) (n2, 1) (n3, 2) | (e1, n1, n2, 3) (e2, n2, n3, 4) (e3, n3, n1, 5) ]"
    )
    loop = Loop(RuleSetCall(("serial", "parallel")))
    assert len(semantics(CheckedProgram(sp, loop), triangle).graphs) == 3
    # and the node with a loop and an edge out has two
    host = parse_host_graph("[ (n1, 1) (n2, 2) | (e1, n1, n1, 3) (e2, n1, n2, 4) ]")
    assert len(semantics(CheckedProgram(made, Loop(RuleSetCall(DROPS))), host).graphs) == 2


def test_loop_verdicts_are_computed_once_per_rule_set(monkeypatch):
    """One analysis per rule set of a loaded program, shared by every
    engine: two `equivalent` calls over 8 hosts build 32 engines, and the
    `coin` set is analysed once."""
    calls: Counter = Counter()
    for name in ("confluent", "reducible"):
        def counted(rules, name=name, original=getattr(confluence, name)):
            calls[name] += 1
            return original(rules)

        monkeypatch.setattr(confluence, name, counted)
    p, q = (
        checked(parse_program(f"{LAW_RULES}\nmain = {side}\n"))
        for side in ("skip or fail", "if coin then skip else fail")
    )
    hosts = random.Random(74).sample(small_hosts(2, 2), 8)
    for _ in range(2):
        assert equivalent(p, q, hosts, Budget(**UNBOUNDED)).status == "equal"
    assert calls == {"confluent": 1}
    # euler_cycle loops a set that is neither confluent nor reducible, and
    # clean_up, which is reducible only
    euler = corpus.load("euler_cycle")
    host = parse_host_graph("[ (n1, 0) (n2, 1) | (e1, n1, n2, 2) (e2, n2, n1, 3) ]")
    for _ in range(2):
        assert len(semantics(euler, host).graphs) == 2
    assert calls == {"confluent": 3, "reducible": 2}


def distinct_labels(n, pairs) -> str:
    """The text of a host of n nodes with edges between the given pairs of
    node indices, node i labelled i and edge k labelled 100 + k."""
    return workloads._graph(n, pairs, lambda i: (i,), lambda k: (100 + k,))


def distinct_hosts(rng):
    """Paths of 1 to 8 nodes, trees of 2 to 9 nodes with random edge
    directions, and grids up to 3x3, each whole and with one edge cut, all
    with distinct node and edge labels."""
    shapes = [(n, workloads.path_pairs(n)) for n in range(1, 9)]
    shapes += [(n, workloads.binary_tree_pairs(rng, n)) for n in range(2, 10)]
    shapes += [(r * c, workloads.grid_pairs(r, c)) for r, c in ((1, 3), (2, 2), (2, 3), (3, 3))]
    for n, pairs in shapes:
        yield parse_host_graph(distinct_labels(n, pairs))
        if pairs:
            cut = rng.randrange(len(pairs))
            yield parse_host_graph(distinct_labels(n, pairs[:cut] + pairs[cut + 1 :]))


def test_confluent_loops_reach_the_reference_results():
    """`connected` and `eulerian`, whose `{mark_out, mark_in}!` goes
    straight to its normal form, on `distinct_hosts`, under a step limit
    that the reference stays well within.  Result graphs up to isomorphism,
    failure, bottom and warnings equal the reference's, in fewer steps."""
    rng = random.Random(78)
    cases = 0
    for name in ("connected", "eulerian"):
        program = corpus.load(name)
        for host in distinct_hosts(rng):
            budget = Budget(max_steps=10_000)
            new, ref = Engine(program.rules, budget), ReferenceEngine(program.rules, budget)
            got, want = new.semantics(program.main, host), ref.semantics(program.main, host)
            assert want.bottom == BOTTOM_NONE, (name, host.to_text())
            assert up_to_iso(new, got) == up_to_iso(ref, want), (name, host.to_text())
            assert new.steps < ref.steps, (name, host.to_text())
            cases += 1
    assert cases == 78


def test_connected_on_a_4x4_grid_takes_few_steps():
    """Every order of `{mark_out, mark_in}!` on a 4x4 grid with distinct
    labels took the unreduced explorer 23,016 steps; its normal form is one
    transition."""
    program = corpus.load("connected")
    text = distinct_labels(16, workloads.grid_pairs(4, 4))
    engine = Engine(program.rules, Budget(max_steps=1_000))
    result = engine.semantics(program.main, parse_host_graph(text))
    assert [g.to_text() for g in result.graphs] == [text] and not result.can_fail
    assert result.bottom == BOTTOM_NONE
    assert engine.steps == 260


def test_single_runs_agree_with_the_result_set():
    """Wherever `semantics` is complete, every seeded run that ends in a
    graph ends in one of its results, and a run fails only if the result
    set can fail.  A run that spends its budget is not checked: `bottom`
    covers only the command's own derivations, so a premise that can
    diverge but can also finish, as in `if (skip or (skip)!) then skip`,
    leaves `bottom` at none while a run may take the divergent branch."""
    rng = random.Random(73)
    names = tuple(RULES)
    checked_runs = 0
    for _ in range(1_200):
        body = random_body(rng, names, depth=3)
        host = random_host(rng, max_nodes=3, max_edges=3)
        results = semantics(as_program(body), host, Budget(max_steps=20_000))
        if results.bottom == BOTTOM_POSSIBLE:
            continue
        for seed in range(8):
            run = run_one(as_program(body), host, Budget(max_steps=200, seed=seed))
            if run.kind == "graph":
                assert any(isomorphic(run.graph, g) for g in results.graphs), (
                    str(body), host.to_text(), seed
                )
            elif run.kind == "fail":
                assert results.can_fail, (str(body), host.to_text(), seed)
            checked_runs += run.kind != "budget"
    assert checked_runs >= 6_000, checked_runs


def test_a_divergent_premise_branch_is_outside_bottom():
    body = checked(parse_program("main = if (skip or (skip)!) then skip")).main
    host = parse_host_graph("[ | ]")
    results = semantics(as_program(body), host, Budget(max_steps=1_000))
    assert results.bottom == BOTTOM_NONE and len(results.graphs) == 1
    kinds = {run_one(as_program(body), host, Budget(max_steps=100, seed=s)).kind for s in range(8)}
    assert kinds == {"graph", "budget"}
