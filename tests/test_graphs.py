import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlib import (
    ReferenceStore,
    edit_add_edge,
    edit_add_node,
    edit_relabel_node,
    edit_remove_edge,
    edit_remove_node,
    host_universe,
    is_label_preserving_morphism,
    preserves_structure,
    random_host,
    reference_certificate,
    reference_isomorphic,
)
from gp2.graphs import (
    KEYWORDS,
    Edge,
    GraphError,
    HostGraph,
    HostLabel,
    IsoStore,
    Premorphism,
    isomorphic,
)
from gp2.parsing import ParseError, parse_host_graph


def single(label=(0,)):
    g = HostGraph()
    g.add_node(HostLabel(label))
    return g


class TestLabels:
    def test_atoms_must_be_ints_or_strings(self):
        with pytest.raises(Exception):
            HostLabel((1.5,))

    def test_empty_list_distinct_from_empty_string(self):
        assert HostLabel(()) != HostLabel(("",))

    def test_mark_distinguishes(self):
        assert HostLabel((1,), True) != HostLabel((1,), False)

    def test_a_string_atom_with_a_line_break_is_refused(self):
        """The host reader has no line-break escape, so such a label would
        not read back; every other character does."""
        for atom in ("a\nb", "\n", type("Text", (str,), {})("x\n")):
            with pytest.raises(GraphError, match="one-line str"):
                HostLabel((0, atom))
        label = HostLabel(('a\rb\t\\"\x00é', -1), True)
        assert parse_host_graph(f"[ (n1, {label}) | ]").nodes["n1"] == label


class TestDegree:
    def test_no_edges(self):
        g = HostGraph()
        n = g.add_node(HostLabel((0,)))
        assert g.degree(n, "in") == 0
        assert g.degree(n, "out") == 0

    def test_loop_counts_once_each_direction(self):
        g = HostGraph()
        n = g.add_node(HostLabel((0,)))
        g.add_edge(n, n, HostLabel(()))
        assert g.degree(n, "in") == 1
        assert g.degree(n, "out") == 1

    def test_parallel_edges(self):
        g = HostGraph()
        a = g.add_node(HostLabel((0,)))
        b = g.add_node(HostLabel((0,)))
        g.add_edge(a, b, HostLabel(()))
        g.add_edge(a, b, HostLabel(()))
        assert g.degree(b, "in") == 2
        assert g.degree(a, "out") == 2

    def test_unknown_node(self):
        with pytest.raises(GraphError):
            HostGraph().degree("nope", "in")

    @given(st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_degree_sums_equal_edge_count(self, seed):
        g = random_host(random.Random(seed))
        indeg = sum(g.degree(n, "in") for n in g.nodes)
        outdeg = sum(g.degree(n, "out") for n in g.nodes)
        assert indeg == outdeg == len(g.edges)


class TestStructure:
    def test_edge_endpoints_must_exist(self):
        g = HostGraph()
        n = g.add_node(HostLabel((0,)))
        with pytest.raises(GraphError):
            g.add_edge(n, "ghost", HostLabel(()))

    def test_remove_node_with_incident_edge_rejected(self):
        g = HostGraph()
        n = g.add_node(HostLabel((0,)))
        g.add_edge(n, n, HostLabel(()))
        with pytest.raises(GraphError):
            edit_remove_node(g, n)

    def test_refusal_names_first_incident_edge(self):
        g = HostGraph()
        a, b = g.add_node(HostLabel((0,)), "a"), g.add_node(HostLabel((0,)), "b")
        g.add_edge(b, b, HostLabel(()), "z")
        g.add_edge(a, b, HostLabel(()), "y")
        with pytest.raises(GraphError, match="still incident to edge 'z'"):
            edit_remove_node(g, b)

    # every keyword; ids that start with a letter or `_`; and ids that start
    # with a decimal digit, another numeral or a combining mark, or hold a
    # space, `-`, `#` or a line break, are empty or are not a str
    IDS = [*sorted(KEYWORDS), "n1", "_", "_9", "x_y", "Main", "if1", "é", "Ωmega", "ß", "a²", "x١"]
    IDS += ["1x", "١", "²", "²x", "Ⅻ", "e\u0301", "\u0301", "a b", "", "a-b", "x\n", "x#", 5]

    @pytest.mark.parametrize("item_id", IDS, ids=repr)
    def test_explicit_ids_are_exactly_those_that_read_back(self, item_id):
        label = HostLabel((0,))
        g = HostGraph()
        g.nodes[item_id] = label
        g.edges[item_id] = Edge(item_id, item_id, label)
        try:
            reads_back = parse_host_graph(g.to_text()).to_text() == g.to_text()
        except ParseError:
            reads_back = False
        with_node = HostGraph()
        with_node.add_node(label, "v")
        for add in (
            lambda: HostGraph().add_node(label, item_id),
            lambda: with_node.add_edge("v", "v", label, item_id),
        ):
            try:
                add()
            except GraphError as exc:
                assert not reads_back and "is not an identifier" in str(exc)
            else:
                assert reads_back

    def test_fresh_ids_skip_collisions(self):
        g = HostGraph()
        g.add_node(HostLabel((0,)), node_id="n1")
        other = g.add_node(HostLabel((1,)))
        assert other != "n1"
        assert other in g.nodes

    def test_copy_is_independent(self):
        g = HostGraph()
        n = g.add_node(HostLabel((0,)))
        h = g.copy()
        edit_relabel_node(h, n, HostLabel((1,)))
        assert g.nodes[n] == HostLabel((0,))


class TestIncidenceIndex:
    """The lazy index answers every adjacency query as a full scan would,
    through any sequence of rule applications and copies."""

    @staticmethod
    def check_against_scans(g: HostGraph) -> None:
        for n in g.nodes:
            incident = [i for i, e in g.edges.items() if n in (e.source, e.target)]
            assert list(g.incident_edges(n)) == incident
            assert g.degree(n, "in") == sum(e.target == n for e in g.edges.values())
            assert g.degree(n, "out") == sum(e.source == n for e in g.edges.values())
            for m in g.nodes:
                between = [i for i, e in g.edges.items() if (e.source, e.target) == (n, m)]
                assert list(g.edges_between(n, m)) == between

    @pytest.mark.parametrize("seed", range(20))
    def test_random_mutations_and_copies(self, seed):
        rng = random.Random(seed)
        pool = [HostGraph()]
        refused = 0
        for _ in range(150):
            g = rng.choice(pool)
            op = rng.choice(
                ["node", "edge", "edge", "edge", "drop_edge", "drop_node", "relabel", "copy"]
            )
            if op == "node" or not g.nodes:
                edit_add_node(g, HostLabel((rng.randint(0, 2),)))
            elif op == "edge":
                edit_add_edge(g, rng.choice(list(g.nodes)), rng.choice(list(g.nodes)), HostLabel(()))
            elif op == "drop_edge" and g.edges:
                edit_remove_edge(g, rng.choice(list(g.edges)))
            elif op == "drop_node":
                n = rng.choice(list(g.nodes))
                first = next((i for i, e in g.edges.items() if n in (e.source, e.target)), None)
                if first is None:
                    edit_remove_node(g, n)
                else:
                    refused += 1
                    with pytest.raises(GraphError) as info:
                        edit_remove_node(g, n)
                    assert str(info.value) == f"node {n!r} still incident to edge {first!r}"
                    assert n in g.nodes
            elif op == "relabel":
                edit_relabel_node(g, rng.choice(list(g.nodes)), HostLabel((9,), True))
            elif op == "copy" and len(pool) < 4:
                pool.append(g.copy())
            for h in pool:
                self.check_against_scans(h)
        assert refused


def scanned_marks(g: HostGraph) -> dict:
    """The marked index, built by a scan of the whole graph, its lists sorted."""
    index: dict = {}
    for n, label in g.nodes.items():
        if label.marked:
            index.setdefault(0, []).append(n)
    for i, e in g.edges.items():
        c = 4 * e.label.marked + 2 * g.nodes[e.source].marked + g.nodes[e.target].marked
        if c:
            index.setdefault(c, []).append(i)
    return {c: sorted(ids) for c, ids in index.items()}


class TestMarkedIndex:
    """The marked index, kept up to date by every rule application and
    copy, is the one a scan builds, whenever it was first built."""

    @staticmethod
    def check(g: HostGraph) -> None:
        assert {c: sorted(ids) for c, ids in g.marked().items()} == scanned_marks(g)

    def test_random_mutations_and_copies(self):
        seen = set()
        for seed in range(20):
            rng = random.Random(seed)
            pool = [HostGraph()]
            for step in range(150):
                g = rng.choice(pool)
                op = rng.choice(
                    ["node", "edge", "edge", "drop_edge", "drop_node", "relabel", "copy"]
                )
                label = HostLabel((rng.randint(0, 2),), rng.random() < 0.5)
                if op == "node" or not g.nodes:
                    edit_add_node(g, label)
                elif op == "edge":
                    edit_add_edge(g, rng.choice(list(g.nodes)), rng.choice(list(g.nodes)), label)
                elif op == "drop_edge" and g.edges:
                    edit_remove_edge(g, rng.choice(list(g.edges)))
                elif op == "drop_node":
                    n = rng.choice(list(g.nodes))
                    if all(n not in (e.source, e.target) for e in g.edges.values()):
                        edit_remove_node(g, n)
                elif op == "relabel":
                    edit_relabel_node(g, rng.choice(list(g.nodes)), label)
                elif op == "copy" and len(pool) < 4:
                    pool.append(g.copy())
                # the index of the first graph is built late, the others' early
                for h in pool[step < 75 :]:
                    self.check(h)
                    seen.update(h.marked())
        assert seen == set(range(8))

    def test_node_and_edge_ids_may_coincide(self):
        g = parse_host_graph("[ (x, 0 #) (y, 1) | (x, x, y, 2) (y, y, x, 3 #) ]")
        assert g.marked() == {0: ["x"], 2: ["x"], 5: ["y"]}
        edit_remove_edge(g, "x")
        edit_relabel_node(g, "x", HostLabel((0,)))
        assert g.marked() == {4: ["y"]}
        edit_remove_edge(g, "y")
        edit_relabel_node(g, "y", HostLabel((1,), True))
        assert g.marked() == {0: ["y"]}

    def test_copies_share_lists_until_changed(self):
        g = parse_host_graph("[ (a, 0 #) (b, 1) | (e1, a, b, 2) ]")
        g.marked()
        h = g.copy()
        assert all(h.marked()[c] is ids for c, ids in g.marked().items())
        edit_relabel_node(h, "b", HostLabel((1,), True))
        assert g.marked() == {0: ["a"], 2: ["e1"]}
        assert h.marked() == {0: ["a", "b"], 3: ["e1"]}


class TestMorphisms:
    def test_identity_is_label_preserving(self):
        g = parse_host_graph('[ (n1, 0) (n2, 1) | (e1, n1, n2, "x") ]')
        ident = Premorphism({n: n for n in g.nodes}, {e: e for e in g.edges})
        assert is_label_preserving_morphism(ident, g, g)

    def test_label_mismatch(self):
        a = single((1,))
        b = single((2,))
        g = Premorphism({next(iter(a.nodes)): next(iter(b.nodes))}, {})
        assert not is_label_preserving_morphism(g, a, b)

    def test_permuted_triangle(self):
        a = parse_host_graph(
            "[ (n1, 1) (n2, 2) (n3, 3) |"
            " (e1, n1, n2, empty) (e2, n2, n3, empty) (e3, n3, n1, empty) ]"
        )
        b = parse_host_graph(
            "[ (m2, 2) (m3, 3) (m1, 1) |"
            " (f2, m2, m3, empty) (f3, m3, m1, empty) (f1, m1, m2, empty) ]"
        )
        g = Premorphism(
            {"n1": "m1", "n2": "m2", "n3": "m3"},
            {"e1": "f1", "e2": "f2", "e3": "f3"},
        )
        assert preserves_structure(g, a, b)
        assert is_label_preserving_morphism(g, a, b)


class TestIsomorphism:
    def test_reflexive(self):
        g = parse_host_graph('[ (n1, 0:1) (n2, "a" #) | (e1, n1, n2, 3) ]')
        assert isomorphic(g, g)

    def test_cardinality_mismatch(self):
        a = parse_host_graph("[ (n1, 0) (n2, 0) | ]")
        b = parse_host_graph("[ (n1, 0) (n2, 0) (n3, 0) | ]")
        assert not isomorphic(a, b)

    def test_four_cycles_with_permuted_ids(self):
        a = parse_host_graph(
            "[ (n1, 0) (n2, 0) (n3, 0) (n4, 0) |"
            " (e1, n1, n2, empty) (e2, n2, n3, empty)"
            " (e3, n3, n4, empty) (e4, n4, n1, empty) ]"
        )
        b = parse_host_graph(
            "[ (p3, 0) (p1, 0) (p4, 0) (p2, 0) |"
            " (q1, p2, p3, empty) (q2, p3, p4, empty)"
            " (q3, p4, p1, empty) (q4, p1, p2, empty) ]"
        )
        assert isomorphic(a, b)

    def test_direction_matters(self):
        a = parse_host_graph("[ (n1, 0) (n2, 1) | (e1, n1, n2, empty) ]")
        b = parse_host_graph("[ (n1, 0) (n2, 1) | (e1, n2, n1, empty) ]")
        assert not isomorphic(a, b)

    def test_parallel_edge_multiplicity(self):
        a = parse_host_graph(
            "[ (n1, 0) (n2, 0) | (e1, n1, n2, empty) (e2, n1, n2, empty) ]"
        )
        b = parse_host_graph(
            "[ (n1, 0) (n2, 0) | (e1, n1, n2, empty) (e2, n2, n1, empty) ]"
        )
        assert not isomorphic(a, b)

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_equivalence_relation(self, seed):
        rng = random.Random(seed)
        g = random_host(rng, max_nodes=5)
        h = random_host(rng, max_nodes=5)
        assert isomorphic(g, g)
        assert isomorphic(g, h) == isomorphic(h, g)

    def test_renamed_copy_is_isomorphic(self):
        rng = random.Random(9)
        g = random_host(rng, max_nodes=6)
        h = parse_host_graph(g.to_text())
        assert isomorphic(g, h)


POOL = ((), (0,), ("a",), (1, "a"), ("a", 1))


def random_marked_host(rng: random.Random, max_nodes: int = 8) -> HostGraph:
    def label() -> HostLabel:
        return HostLabel(rng.choice(POOL), rng.random() < 0.3)

    g = HostGraph()
    ids = [g.add_node(label()) for _ in range(rng.randint(0, max_nodes))]
    for _ in range(rng.randint(0, 2 * len(ids)) if ids else 0):
        g.add_edge(rng.choice(ids), rng.choice(ids), label())
    return g


def shuffled_copy(rng: random.Random, g: HostGraph, reverse: bool = False) -> HostGraph:
    """g with fresh ids and insertion orders; with `reverse`, one edge turned round."""
    nodes = list(g.nodes)
    edges = list(g.edges.values())
    rng.shuffle(nodes)
    rng.shuffle(edges)
    if reverse and edges:
        e = edges[0]
        edges[0] = Edge(e.target, e.source, e.label)
    h = HostGraph()
    ids = {n: h.add_node(g.nodes[n], f"v{i}") for i, n in enumerate(nodes)}
    for i, e in enumerate(edges):
        h.add_edge(ids[e.source], ids[e.target], e.label, f"f{i}")
    return h


def uniform_host(n: int, pairs: list) -> HostGraph:
    g = HostGraph()
    ids = [g.add_node(HostLabel((0,))) for _ in range(n)]
    for s, t in pairs:
        g.add_edge(ids[s], ids[t], HostLabel(()))
    return g


class TestCertificateAgainstReference:
    """Equal certificates exactly when the backtracking reference test
    finds an isomorphism."""

    def test_small_host_universe(self):
        store, reference = IsoStore(), ReferenceStore()
        for g in host_universe(3, 3):
            store.put(g)
            reference.put(g)
        representatives = list(reference)
        assert len(store) == len(representatives) == 20_705
        assert len({g.signature() for g in representatives}) == 20_705

    @pytest.mark.parametrize("seed", range(10))
    def test_random_marked_hosts(self, seed):
        rng = random.Random(seed)
        outcomes = set()
        for _ in range(60):
            g = random_marked_host(rng)
            h = shuffled_copy(rng, g)
            assert reference_isomorphic(g, h)
            assert g.signature() == h.signature()
            r = shuffled_copy(rng, g, reverse=True)
            same = reference_isomorphic(g, r)
            assert (g.signature() == r.signature()) == same
            assert isomorphic(g, r) == same
            outcomes.add(same)
        assert outcomes == {True, False}


class TestSymmetricHosts:
    """Automorphisms prune the search.  The swap check gives the edgeless
    and complete hosts one branch per level.  Equal leaves give the
    automorphisms that skip the other nodes of a matching's or a cycle's
    cells: without them one certificate of 40 disjoint edges took 6 s;
    without the jump back from an equal leaf, 10 disjoint edges need 10!
    leaves and the search does not finish.  The 4-cycle and the two
    2-cycles share one cell with two orbits; merging them would let the
    node order pick the leaf."""

    GRID = [(r * 4 + c, r * 4 + c + 1) for r in range(4) for c in range(3)] + [
        (r * 4 + c, r * 4 + c + 4) for r in range(3) for c in range(4)
    ]

    @pytest.mark.parametrize(
        "n, pairs",
        [
            (12, []),
            (7, [(i, j) for i in range(7) for j in range(7)]),
            (12, [(i, (i + 1) % 12) for i in range(12)]),
            (16, GRID),
            (20, [(2 * i, 2 * i + 1) for i in range(10)]),
            (80, [(2 * i, 2 * i + 1) for i in range(40)]),
            (40, [(i, (i + 1) % 40) for i in range(40)] + [((i + 1) % 40, i) for i in range(40)]),
            (8, [(i, (i + 1) % 4) for i in range(4)] + [(4, 5), (5, 4), (6, 7), (7, 6)]),
        ],
        ids=[
            "edgeless-12",
            "complete-with-loops-7",
            "cycle-12",
            "grid-4x4",
            "matching-10",
            "matching-40",
            "cycle-40-both-ways",
            "cycles-4-2-2",
        ],
    )
    def test_shuffled_copies_share_certificate(self, n, pairs):
        rng = random.Random(n)
        g = uniform_host(n, pairs)
        for _ in range(3):
            assert shuffled_copy(rng, g).signature() == g.signature()
        if pairs:
            r = shuffled_copy(rng, g, reverse=True)
            assert (r.signature() == g.signature()) == reference_isomorphic(g, r)

    @pytest.mark.parametrize("seed", range(10))
    def test_copies_of_one_component(self, seed):
        """Equal components are swapped by automorphisms that only equal
        leaves reveal; pruning by them must not change the least leaf."""
        rng = random.Random(seed)
        for _ in range(10):
            part = random_marked_host(rng, max_nodes=3)
            g = HostGraph()
            for _ in range(rng.randint(2, 4)):
                ids = {n: g.add_node(lab) for n, lab in part.nodes.items()}
                for e in part.edges.values():
                    g.add_edge(ids[e.source], ids[e.target], e.label)
            assert shuffled_copy(rng, g).signature() == g.signature()
            r = shuffled_copy(rng, g, reverse=True)
            assert (r.signature() == g.signature()) == reference_isomorphic(g, r)


def host(node_labels: list, edges: list) -> HostGraph:
    """Nodes 0.. with the given labels; edges as (source, target, label)."""
    g = HostGraph()
    ids = [g.add_node(lab) for lab in node_labels]
    for s, t, lab in edges:
        g.add_edge(ids[s], ids[t], lab)
    return g


A, B, ZERO = HostLabel(("a",)), HostLabel(("b",)), HostLabel((0,))


def twin_heavy_pairs():
    """Pairs of hosts full of twins: nodes of one label and one labelled
    neighbourhood, which the certificate individualises in one step."""
    rng = random.Random(11)
    for k in range(1, 6):
        edges = [(2 * i, 2 * i + 1, A) for i in range(k)]
        g = host([ZERO] * (2 * k), edges)
        yield g, shuffled_copy(rng, g)
        yield g, host([ZERO] * (2 * k), edges[1:] + [(0, 1, B)])
        yield g, host([ZERO] * (2 * k), edges[1:] + [(1, 0, A)])
    for k in range(1, 7):
        into = host([ZERO] * (k + 1), [(i, 0, A) for i in range(1, k + 1)])
        out = host([ZERO] * (k + 1), [(0, i, A) for i in range(1, k + 1)])
        yield into, shuffled_copy(rng, into)
        yield out, shuffled_copy(rng, out)
        yield into, out
        leaf = host([ZERO] * k + [HostLabel((0,), True)], [(0, i, A) for i in range(1, k + 1)])
        yield out, leaf
        yield leaf, shuffled_copy(rng, leaf)
    for k in range(2, 7):
        for marked in range(k + 1):
            g = host([HostLabel((0,), i < marked) for i in range(k)], [])
            yield g, shuffled_copy(rng, g)
            yield g, host([HostLabel((0,), i < min(marked + 1, k - 1)) for i in range(k)], [])
    # u and v share a hub and carry loops; their twinship depends on the
    # multisets of loop and parallel-edge labels
    for u_loops, v_loops in [([A], [A]), ([A], [B]), ([A, A], [A]), ([A, B], [B, A])]:
        for u_par, v_par in [([A, A], [A, A]), ([A, B], [B, A]), ([A, A], [A, B])]:
            edges = [(0, 0, lab) for lab in u_loops] + [(1, 1, lab) for lab in v_loops]
            edges += [(0, 2, lab) for lab in u_par] + [(1, 2, lab) for lab in v_par]
            g = host([ZERO] * 3, edges)
            yield g, shuffled_copy(rng, g)
            yield g, host([ZERO] * 3, [(t, s, lab) if s == 2 or t == 2 else (s, t, lab)
                                       for s, t, lab in edges])
            yield g, host([ZERO] * 3, [(0, 0, A), (1, 1, A), (0, 2, A), (0, 2, A),
                                       (1, 2, A), (1, 2, A)])
    for _ in range(400):
        n = rng.randint(2, 6)
        g = host([ZERO] * n, [])
        for _ in range(rng.randint(n, 2 * n)):
            g.add_edge(f"n{rng.randint(1, n)}", f"n{rng.randint(1, n)}", rng.choice((A, B)))
        twin = rng.choice(list(g.nodes))
        for _ in range(rng.randint(1, 4)):
            copy = g.add_node(g.nodes[twin])
            for e in list(g.edges.values()):
                if e.source == e.target == twin:
                    g.add_edge(copy, copy, e.label)
                elif e.source == twin:
                    g.add_edge(copy, e.target, e.label)
                elif e.target == twin:
                    g.add_edge(e.source, copy, e.label)
        yield g, shuffled_copy(rng, g)
        yield g, shuffled_copy(rng, g, reverse=True)


class TestTwins:
    """The certificate against the reference search on hosts whose twins it
    individualises in one step, and on hosts too symmetric for recursion."""

    def test_twin_heavy_hosts(self):
        outcomes = set()
        for a, b in twin_heavy_pairs():
            same = reference_isomorphic(a, b)
            assert (a.signature() == b.signature()) == same
            outcomes.add(same)
        assert outcomes == {True, False}

    def test_same_classes_as_reference_certificate(self):
        classes: dict = {}
        reference_classes: dict = {}
        for g in host_universe(3, 3):
            assert classes.setdefault(g.signature(), len(classes)) == reference_classes.setdefault(
                reference_certificate(g), len(reference_classes)
            )
        assert len(classes) == 20_705

    def test_edgeless_hosts_of_1200_nodes(self):
        g = uniform_host(1200, [])
        assert isomorphic(g, shuffled_copy(random.Random(0), g))


class TestSerialization:
    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_preserves_ids_and_labels(self, seed):
        g = random_host(random.Random(seed))
        h = parse_host_graph(g.to_text())
        assert set(h.nodes) == set(g.nodes)
        assert h.nodes == g.nodes
        assert set(h.edges) == set(g.edges)
        for eid, e in g.edges.items():
            f = h.edges[eid]
            assert (f.source, f.target, f.label) == (e.source, e.target, e.label)

    def test_printer_is_fixpoint(self):
        text = '[ (n1, 0:1:2) (n2, "ok" #) | (e1, n1, n2, empty) ]'
        once = parse_host_graph(text).to_text()
        assert parse_host_graph(once).to_text() == once

    def test_string_escapes_round_trip(self):
        g = HostGraph()
        g.add_node(HostLabel(('say "hi" \\ there',)))
        h = parse_host_graph(g.to_text())
        assert h.nodes == g.nodes


class TestIsoStore:
    def test_put_deduplicates_up_to_iso(self):
        store = IsoStore()
        a = parse_host_graph("[ (n1, 0) (n2, 0) | (e1, n1, n2, empty) ]")
        b = parse_host_graph("[ (p1, 0) (p2, 0) | (q1, p2, p1, empty) ]")
        assert store.put(a)
        assert not store.put(b)
        assert len(store) == 1

    def test_get_set(self):
        store = IsoStore()
        a = parse_host_graph("[ (n1, 0) | ]")
        store.set(a, "payload")
        b = parse_host_graph("[ (other, 0) | ]")
        assert store.get(b) == "payload"
        assert store.get(parse_host_graph("[ (n1, 1) | ]")) is None
