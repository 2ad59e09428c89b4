"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

gp2 = worker.import_gp2()


def small_cycle(name: str) -> list:
    """The cheaper requests of one cycle: every rung but the top."""
    cycle = workloads.build(name, 3)[0]
    top = max(req["rung"] for req in cycle)
    return [req for req in cycle if req["rung"] < top]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_gives_identical_inputs(name):
    assert workloads.build(name, 7) == workloads.build(name, 7)
    assert workloads.build(name, 7) != workloads.build(name, 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_text_is_what_gp2_prints(name):
    for req in workloads.build(name, 1)[0]:
        assert gp2.parse_host_graph(req["host"]).to_text() == req["host"]


def test_law_universe_size():
    # 43,391 labelled hosts with at most 3 nodes and 3 edges; one has no nodes
    sizes = [len(a) * len(b) for a, b in map(workloads.law_universe, workloads.LAW_RUNGS)]
    assert sum(sizes) + 1 == 43_391


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_request_matches_untraced_and_self_times_add_up(name):
    plain = worker.Workload(name, gp2)
    cycle = small_cycle(name)
    outputs = [plain.serve(req, seed=i) for i, req in enumerate(cycle)]
    assert all(plain.check(req, out) is None for req, out in zip(cycle, outputs))

    rec, uninstall = tracer.install(gp2)
    try:
        traced = worker.Workload(name, gp2)
        spans = []
        for i, req in enumerate(cycle):
            spans.append(rec.begin_request(i + 1))
            assert traced.serve(req, seed=i) == outputs[i]
            rec.end_request(spans[-1])
    finally:
        uninstall()

    self_ns = rec.self_times()
    for rid, span in enumerate(spans, start=1):
        own = sum(t for t, r in zip(self_ns, rec.request) if r == rid)
        assert own == rec.end[span] - rec.start[span]
    layers = {tracer.LAYERS[i] for i in rec.name}
    assert {"request", "parsing.host", "graphs.to_text"} <= layers


def test_uninstall_restores_every_binding():
    before = (gp2.run_one, gp2.executor.enumerate_matches, gp2.graphs.HostGraph.degree)
    _, uninstall = tracer.install(gp2)
    assert gp2.executor.enumerate_matches is not before[1]
    uninstall()
    assert (gp2.run_one, gp2.executor.enumerate_matches, gp2.graphs.HostGraph.degree) == before


@pytest.mark.parametrize("wrong", ["input", "budget"])
def test_a_wrong_output_counts_as_failed(monkeypatch, wrong):
    plain = worker.Workload("run-euler", gp2)
    cycles = [small_cycle("run-euler")]
    serve = plain.serve
    corrupted = []

    def wrong_once(req, seed):
        out = serve(req, seed)
        if not corrupted:
            corrupted.append(req)
            # the host with its edges unnumbered, or an exhausted budget
            out = req["host"] if wrong == "input" else "budget"
        return out

    monkeypatch.setattr(plain, "serve", wrong_once)
    samples, failures, errors = worker.run_requests(plain, cycles)
    assert (len(samples), failures) == (len(cycles[0]), 1)
    assert errors and errors[0].startswith(corrupted[0]["cls"])


def test_a_raising_request_counts_as_failed(monkeypatch):
    plain = worker.Workload("laws", gp2)
    cycles = [small_cycle("laws")]
    monkeypatch.setattr(plain, "serve", lambda req, seed: 1 / 0)
    samples, failures, _ = worker.run_requests(plain, cycles)
    assert failures == len(samples) == len(cycles[0])


def test_statistics():
    assert run.nearest_rank(list(range(1, 101)), 90) == (90, 10)
    assert run.slope([0, 1, 2], [1, 3, 5]) == pytest.approx(2)
