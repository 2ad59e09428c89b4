"""`run_one` against the big-step runner it replaced.

`genlib.ReferenceRunner` recursed on sequences, `or`, `if`/`try` and
loops; `run_one` steps flat continuations through the explorer's
transition function.  Both must draw the same random numbers, so they
end in the same outcome after the same steps, with the same warnings and
the same trace, on every budget, including the ones that cut runs short.
"""

import random
from collections import Counter

from genlib import random_body, reference_run_one, small_hosts
from gp2.executor import Budget, run_one
from gp2.program import CheckedProgram
from test_explorer import RULES


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
