import random

from hypothesis import given, settings
from hypothesis import strategies as st

from genlib import random_eulerian, random_host
from gp2.graphs import HostGraph, HostLabel
from gp2.oracles import (
    oracle_acyclic,
    oracle_connected,
    oracle_eulerian,
    oracle_series_parallel,
    validate_euler_numbering,
)
from gp2.parsing import parse_host_graph


class TestConnected:
    def test_two_isolated_nodes(self):
        assert not oracle_connected(parse_host_graph("[ (n1, 0) (n2, 0) | ]"))

    def test_directed_path(self):
        g = parse_host_graph(
            "[ (a, 0) (b, 0) (c, 0) | (e1, a, b, empty) (e2, b, c, empty) ]"
        )
        assert oracle_connected(g)

    def test_empty_graph_is_connected(self):
        assert oracle_connected(parse_host_graph("[ | ]"))

    def test_direction_is_ignored(self):
        g = parse_host_graph(
            "[ (a, 0) (b, 0) (c, 0) | (e1, b, a, empty) (e2, b, c, empty) ]"
        )
        assert oracle_connected(g)


class TestAcyclic:
    def test_loop(self):
        assert not oracle_acyclic(parse_host_graph("[ (a, 0) | (e1, a, a, empty) ]"))

    def test_out_star(self):
        g = parse_host_graph(
            "[ (a, 0) (b, 0) (c, 0) | (e1, a, b, empty) (e2, a, c, empty) ]"
        )
        assert oracle_acyclic(g)

    def test_three_cycle(self):
        g = parse_host_graph(
            "[ (a, 0) (b, 0) (c, 0) |"
            " (e1, a, b, empty) (e2, b, c, empty) (e3, c, a, empty) ]"
        )
        assert not oracle_acyclic(g)


class TestSeriesParallel:
    def test_base_graph(self):
        assert oracle_series_parallel(
            parse_host_graph("[ (a, 0) (b, 0) | (e1, a, b, empty) ]")
        )

    def test_parallel_pair(self):
        g = parse_host_graph(
            "[ (a, 0) (b, 0) | (e1, a, b, empty) (e2, a, b, empty) ]"
        )
        assert oracle_series_parallel(g)

    def test_serial_chain(self):
        g = parse_host_graph(
            "[ (a, 0) (b, 0) (c, 0) | (e1, a, b, empty) (e2, b, c, empty) ]"
        )
        assert oracle_series_parallel(g)

    def test_three_cycle_is_not(self):
        g = parse_host_graph(
            "[ (a, 0) (b, 0) (c, 0) |"
            " (e1, a, b, empty) (e2, b, c, empty) (e3, c, a, empty) ]"
        )
        assert not oracle_series_parallel(g)

    def test_isolated_extra_node(self):
        g = parse_host_graph("[ (a, 0) (b, 0) (c, 0) | (e1, a, b, empty) ]")
        assert not oracle_series_parallel(g)

    @given(st.integers(0, 20_000))
    @settings(max_examples=40, deadline=None)
    def test_inductively_built_instances_are_recognised(self, seed):
        rng = random.Random(seed)
        g = HostGraph()
        s = g.add_node(HostLabel((0,)))
        t = g.add_node(HostLabel((0,)))
        terminals = [(s, t)]
        g.add_edge(s, t, HostLabel(()))
        for _ in range(rng.randint(0, 4)):
            a, b = rng.choice(terminals)
            if rng.random() < 0.5:
                g.add_edge(a, b, HostLabel(()))  # parallel composition
            else:
                mid = g.add_node(HostLabel((0,)))  # serial split of a fresh edge
                g.add_edge(a, mid, HostLabel(()))
                g.add_edge(mid, b, HostLabel(()))
                terminals.append((a, mid))
                terminals.append((mid, b))
        assert oracle_series_parallel(g)


class TestEulerian:
    def test_three_cycle(self):
        g = parse_host_graph(
            "[ (a, 0) (b, 0) (c, 0) |"
            " (e1, a, b, empty) (e2, b, c, empty) (e3, c, a, empty) ]"
        )
        assert oracle_eulerian(g)

    def test_single_edge_unbalanced(self):
        assert not oracle_eulerian(
            parse_host_graph("[ (a, 0) (b, 0) | (e1, a, b, empty) ]")
        )

    def test_two_disjoint_loops(self):
        g = parse_host_graph(
            "[ (a, 0) (b, 0) | (e1, a, a, empty) (e2, b, b, empty) ]"
        )
        assert not oracle_eulerian(g)

    @given(st.integers(0, 20_000))
    @settings(max_examples=40, deadline=None)
    def test_generator_produces_eulerian_graphs(self, seed):
        assert oracle_eulerian(random_eulerian(random.Random(seed)))


class TestIsoInvariance:
    @given(st.integers(0, 20_000))
    @settings(max_examples=30, deadline=None)
    def test_verdicts_survive_renaming(self, seed):
        g = random_host(random.Random(seed), max_nodes=5, max_edges=5)
        h = HostGraph()
        rename = {n: h.add_node(lab, f"p{n}") for n, lab in g.nodes.items()}
        for e in g.edges.values():
            h.add_edge(rename[e.source], rename[e.target], e.label)
        for oracle in (oracle_connected, oracle_acyclic, oracle_eulerian):
            assert oracle(g) == oracle(h)


def numbered_cycle(numbers):
    """A directed cycle of len(numbers) nodes whose i-th edge carries
    label 0 followed by numbers[i]."""
    n = len(numbers)
    g = HostGraph()
    ids = [g.add_node(HostLabel((i,))) for i in range(n)]
    original = g.copy()
    for i, num in enumerate(numbers):
        original.add_edge(ids[i], ids[(i + 1) % n], HostLabel((0,)))
        g.add_edge(ids[i], ids[(i + 1) % n], HostLabel((0, *num)))
    return g, original


class TestEulerNumbering:
    def test_hierarchical_numbering_accepted(self):
        # one 7-edge closed walk numbered with nested-cycle lists
        numbers = [(1, 1), (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2), (1, 3), (1, 4)]
        result, original = numbered_cycle(numbers)
        verdict = validate_euler_numbering(result, original)
        assert verdict.verdict
        assert verdict.witness == sorted(numbers)

    def test_empty_graph(self):
        empty = parse_host_graph("[ | ]")
        assert validate_euler_numbering(empty, empty).verdict

    def test_duplicate_numbers_rejected(self):
        result, original = numbered_cycle([(1,), (1,)])
        assert not validate_euler_numbering(result, original).verdict

    def test_non_consecutive_walk_rejected(self):
        # numbers order the edges against the walk direction
        result, original = numbered_cycle([(2,), (1,), (3,)])
        assert not validate_euler_numbering(result, original).verdict

    def test_changed_base_label_rejected(self):
        result, original = numbered_cycle([(1,), (2,)])
        eid = next(iter(result.edges))
        e = result.edges[eid]
        result.edges[eid] = type(e)(e.source, e.target, HostLabel((9, 1)))
        assert not validate_euler_numbering(result, original).verdict

    def test_unnumbered_edge_rejected(self):
        original = parse_host_graph("[ (a, 0) | (e1, a, a, 5) ]")
        assert not validate_euler_numbering(original, original).verdict
