"""The benchmark tracer's view of gp2 (`perfbench/tracer.py`): the rule
functions it wraps are the ones both execution modes call, so matching and
rewriting show as the `rules.match` and `rules.apply` layers."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402

import gp2  # noqa: E402
from gp2 import corpus  # noqa: E402
from gp2.executor import Budget  # noqa: E402
from gp2.parsing import parse_host_graph  # noqa: E402

EULERIAN = (
    "[ (n1, 0) (n2, 1) (n3, 2) | (e1, n1, n2, 5) (e2, n2, n3, 6) (e3, n3, n1, 7)"
    " (e4, n2, n2, 8) (e5, n1, n3, 9) (e6, n3, n1, 4) ]"
)


def traced(request):
    """Run one request under the tracer: its recorder and the result."""
    rec, uninstall = tracer.install(gp2)
    try:
        span = rec.begin_request(1)
        result = request()
        rec.end_request(span)
    finally:
        uninstall()
    return rec, result


def layers(rec) -> set:
    return {tracer.LAYERS[i] for i in rec.name}


def test_a_run_shows_each_match_and_rewrite():
    program = corpus.load("euler_cycle")
    host = parse_host_graph(EULERIAN)
    rec, outcome = traced(
        lambda: gp2.executor.run_one(program, host, Budget(seed=5), tracing=True)
    )
    assert outcome.kind == "graph"
    calls = sum(entry.rule == "call1" for entry in outcome.trace)
    assert {"rules.match", "rules.apply"} <= layers(rec)
    assert rec.counts["rules.apply_calls"] == calls > 0
    assert rec.counts["rules.matches"] >= calls
    assert rec.counts["executor.steps"] == outcome.steps


def test_an_exploration_applies_every_match_it_sees():
    program = corpus.load("connected")
    host = parse_host_graph("[ (n1, 0) (n2, 0) (n3, 0) | (e1, n1, n2, 0) (e2, n3, n2, 0) ]")
    engine = gp2.executor.Engine(program.rules, Budget())
    rec, result = traced(lambda: engine.semantics(program.main, host))
    assert len(result.graphs) == 1 and not result.can_fail
    assert {"rules.match", "rules.apply"} <= layers(rec)
    assert rec.counts["rules.apply_calls"] == rec.counts["rules.matches"] > 0
    assert rec.counts["executor.steps"] == engine.steps
