"""The explorer against the reference it replaced, and the two execution
modes against each other.

`genlib.ReferenceEngine` is the explorer that stepped (command, graph)
pairs and rebuilt sequences with `seq`; `Engine` steps flat
continuations.  Both must give the same result sets in the same order,
take the same number of steps and record the same warnings, on every
budget, including the truncated ones.
"""

import random
import sys
from pathlib import Path

from genlib import ReferenceEngine, random_body, random_host, small_hosts
from gp2 import corpus
from gp2.executor import (
    BOTTOM_NONE,
    BOTTOM_POSSIBLE,
    BOTTOM_PROVEN,
    Budget,
    Engine,
    Result,
    Unfinished,
    run_one,
    semantics,
    successors,
)
from gp2.graphs import isomorphic
from gp2.parsing import parse_host_graph, parse_program
from gp2.program import checked

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


def test_random_programs_match_the_reference_explorer():
    """600 programs on 4 hosts each of `small_hosts(2, 2)`, per budget; the
    engines of one program and budget serve its 4 hosts in turn, so the
    memo and the step count carry over between calls."""
    rng = random.Random(70)
    hosts = small_hosts(2, 2)
    names = tuple(RULES)
    truncated = proven = 0
    for _ in range(600):
        body = random_body(rng, names, depth=3)
        chosen = rng.sample(hosts, 4)
        for budget in BUDGETS:
            new, ref = Engine(RULES, budget), ReferenceEngine(RULES, budget)
            for host in chosen:
                got = outcome(new, new.semantics(body, host))
                assert got == outcome(ref, ref.semantics(body, host)), (
                    str(body), host.to_text(), budget
                )
                truncated += got[1] == BOTTOM_POSSIBLE
                proven += got[1] == BOTTOM_PROVEN
    assert truncated >= 100 and proven >= 100, (truncated, proven)


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
    cycles, unbounded as the benchmark runs them."""
    rng = random.Random(72)
    programs = {name: corpus.load(name) for name in PROGRAMS["explore"]}
    cases = 0
    for cycle in workloads.explore(rng, 2):
        for req in cycle:
            program = programs[req["program"]]
            host = parse_host_graph(req["host"])
            budget = Budget(**UNBOUNDED)
            new, ref = Engine(program.rules, budget), ReferenceEngine(program.rules, budget)
            assert outcome(new, new.semantics(program.main, host)) == outcome(
                ref, ref.semantics(program.main, host)
            ), req["cls"]
            cases += 1
    sides = [
        checked(parse_program(f"{LAW_RULES}\nmain = {side}\n"))
        for _, left, right, _ in LAWS
        for side in (left, right)
    ]
    for cycle in workloads.laws(rng, 8):
        for req in cycle:
            host = parse_host_graph(req["host"])
            for side in sides:
                budget = Budget(**UNBOUNDED)
                new, ref = Engine(side.rules, budget), ReferenceEngine(side.rules, budget)
                assert outcome(new, new.semantics(side.main, host)) == outcome(
                    ref, ref.semantics(side.main, host)
                ), (req["host"], str(side.main))
            cases += 1
    assert cases == 54


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
        results = semantics(body, host, Budget(max_steps=20_000), RULES)
        if results.bottom == BOTTOM_POSSIBLE:
            continue
        for seed in range(8):
            run = run_one(body, host, Budget(max_steps=200, seed=seed), RULES)
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
    results = semantics(body, host, Budget(max_steps=1_000))
    assert results.bottom == BOTTOM_NONE and len(results.graphs) == 1
    kinds = {run_one(body, host, Budget(max_steps=100, seed=s)).kind for s in range(8)}
    assert kinds == {"graph", "budget"}
