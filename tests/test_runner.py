"""`run_one` against the big-step runner it replaced.

`genlib.ReferenceRunner` recursed on sequences, `or`, `if`/`try` and
loops; `run_one` keeps its commands and a frame per running premise on
one explicit stack.  Both must draw the same random numbers, so they
end in the same outcome after the same steps, with the same warnings and
the same trace, on every budget, including the ones that cut runs short.
"""

import random
from collections import Counter

from genlib import random_body, reference_run_one, small_hosts
from gp2.corpus import PROGRAMS, load
from gp2.executor import Budget, run_one
from gp2.parsing import parse_host_graph
from gp2.program import CheckedProgram
from test_explorer import RULES, workloads


def as_program(command):
    return CheckedProgram(RULES, command)


def outcome(out):
    graph = None if out.graph is None else out.graph.to_text()
    return out.kind, out.steps, graph, out.warnings, [str(t) for t in out.trace]


def test_random_runs_match_the_reference_runner():
    """1,500 programs, each on one host of `small_hosts(2, 2)`, under
    three step limits and three seeds."""
    rng = random.Random(80)
    hosts = small_hosts(2, 2)
    names = tuple(RULES)
    kinds = Counter()
    warned = 0
    for _ in range(1_500):
        body = random_body(rng, names, depth=4)
        host = rng.choice(hosts)
        for max_steps in (5, 40, 10_000):
            for seed in range(3):
                budget = Budget(max_steps=max_steps, seed=seed)
                got = outcome(run_one(as_program(body), host, budget, tracing=True))
                want = outcome(reference_run_one(body, host, budget, RULES, tracing=True))
                assert got == want, (str(body), host.to_text(), budget)
                kinds[got[0]] += 1
                warned += bool(got[3])
    assert min(kinds.values()) >= 1_000 and warned >= 500, (kinds, warned)


def test_corpus_runs_match_the_reference_runner():
    """Every corpus program on seeded hosts of the benchmark's shapes with
    at most 12 nodes, `euler_cycle` on Eulerian hosts and the recognisers
    on path, grid and sparse ones, under three step limits and three
    seeds.  No run changes its host."""
    rng = random.Random(28)
    cases = [("euler_cycle", workloads.euler_host(rng, n, round(1.5 * n))) for n in (4, 6, 8, 12)]
    for n in (9, 12):
        for eulerian in (False, True):
            hosts = workloads.recognize_hosts(rng, n, eulerian).values()
            cases += [(name, text) for name in workloads.RECOGNIZERS for text in hosts]
    programs = {name: load(name) for name in PROGRAMS}
    assert {name for name, _ in cases} == set(PROGRAMS)
    kinds = Counter()
    for name, text in cases:
        host = parse_host_graph(text)
        before = host.to_text()
        for max_steps in (5, 40, 10_000):
            for seed in range(3):
                budget = Budget(max_steps=max_steps, seed=seed)
                got = outcome(run_one(programs[name], host, budget, tracing=True))
                want = outcome(reference_run_one(programs[name], host, budget, tracing=True))
                assert got == want, (name, text, budget)
                kinds[got[0]] += 1
        assert host.to_text() == before, (name, text)
    assert min(kinds[kind] for kind in ("graph", "fail", "budget")) >= 20, kinds
