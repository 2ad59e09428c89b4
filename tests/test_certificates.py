"""Certificates that hash by id-free invariants and compute their
canonical form only when they meet a different certificate of equal hash.

A certificate taken after every mutation is checked against fresh ones of
a rebuilt graph; correctness is checked with every hash forced to a
constant and across in-place rewrites; how finely the hash separates
classes, and the canonical forms and content-table hits of the
benchmark's explorer requests, are pinned."""

import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

from genlib import (
    edit_add_edge,
    edit_add_node,
    edit_relabel_node,
    edit_remove_edge,
    edit_remove_node,
    fresh_certificate,
    host_universe,
    reference_certificate,
)
from gp2 import corpus, graphs
from gp2.executor import Budget, Engine, equivalent
from gp2.graphs import HostGraph, HostLabel, IsoStore
from gp2.parsing import parse_host_graph, parse_program
from gp2.program import checked
from gp2.rules import apply, enumerate_matches
from test_graphs import random_marked_host, shuffled_copy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402
from worker import LAW_RULES, LAWS, PROGRAMS, UNBOUNDED  # noqa: E402

LABELS = [
    HostLabel(items, marked) for items in ((), (0,), ("a",), (1, "b")) for marked in (False, True)
]


def rebuilt(g: HostGraph) -> HostGraph:
    """A graph of g's content built afresh, not yet certified."""
    h = HostGraph()
    for n, label in g.nodes.items():
        h.add_node(label, n)
    for eid, e in g.edges.items():
        h.add_edge(e.source, e.target, e.label, eid)
    return h


def mutate(rng: random.Random, g: HostGraph) -> None:
    """One random rule application: a node or an edge added or removed, a
    loop or a parallel edge added, or a node relabelled, often only its
    mark flipped."""
    nodes, edges = list(g.nodes), list(g.edges)
    op = rng.randrange(7) if nodes else 0
    if op == 0:
        edit_add_node(g, rng.choice(LABELS))
    elif op == 1:
        edit_add_edge(g, rng.choice(nodes), rng.choice(nodes), rng.choice(LABELS))
    elif op == 2:
        n = rng.choice(nodes)
        edit_add_edge(g, n, n, rng.choice(LABELS))
    elif op == 3 and edges:
        e = g.edges[rng.choice(edges)]
        edit_add_edge(g, e.source, e.target, rng.choice(LABELS))
    elif op == 4 and edges:
        edit_remove_edge(g, rng.choice(edges))
    elif op == 5:
        isolated = [n for n in nodes if not g.incidence()[n]]
        if isolated:
            edit_remove_node(g, rng.choice(isolated))
    else:
        n = rng.choice(nodes)
        old = g.nodes[n]
        flipped = HostLabel(old.items, not old.marked)
        edit_relabel_node(g, n, flipped if rng.random() < 0.5 else rng.choice(LABELS))


def test_the_signature_equals_a_fresh_certificate_after_every_mutation():
    """Seeded sequences of small rule applications (`mutate`) over
    certified graphs, some with the marked index built, with copies taken
    mid-sequence and mutated apart:
    after every mutation the graph's certificate equals, and hashes as, the
    certificate of a rebuilt graph and the from-scratch `fresh_certificate`."""
    rng = random.Random(24)
    for _ in range(60):
        certified = random_marked_host(rng, max_nodes=5)
        certified.signature()
        live = [certified]
        for _ in range(60):
            g = rng.choice(live)
            if rng.random() < 0.2:
                g.marked()
            if rng.random() < 0.05:
                live.append(g.copy())
            mutate(rng, g)
            cert = g.signature()
            for fresh in (rebuilt(g).signature(), fresh_certificate(g)):
                assert hash(fresh) == hash(cert) and fresh == cert


SEPARATION = """
from genlib import host_universe
certificates = {g.signature() for g in host_universe(2, 2)}
print(len(certificates), len({hash(c) for c in certificates}))
"""


def test_the_hash_separates_most_classes_under_every_hash_seed():
    """Over every host with at most 2 nodes and 2 edges, the certificate
    hash takes at least 406 values for the 451 classes (388 when it summed
    squared label hashes beside the end degrees), in a process per hash
    seed; a coarser hash would bring canonical forms back."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(graphs.__file__))
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=os.pathsep.join([src, tests]))
        done = subprocess.run(
            [sys.executable, "-c", SEPARATION],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        classes, hashes = map(int, done.stdout.split())
        assert classes == 451 and hashes >= 406, (seed, hashes)


def test_isomorphic_copies_hash_alike():
    rng = random.Random(25)
    for _ in range(300):
        g = random_marked_host(rng)
        h = shuffled_copy(rng, g)
        assert hash(h.signature()) == hash(g.signature())
        assert h.signature() == g.signature()


# -- correctness does not rest on the hash ---------------------------------


def test_classes_do_not_rest_on_the_invariant(monkeypatch):
    """With every hash that `gp2.graphs` takes forced to 0 (labels, terms,
    certificates, contents and canonical forms), certificates compare by
    canonical form alone: the classes of every host with at most 2 nodes
    and 2 edges still equal the reference certificate's, through a content
    table and an `IsoStore` too, and explorations give the same results."""
    hosts = list(workloads.explore(random.Random(5), 1)[0])
    programs = {name: corpus.load(name) for name in PROGRAMS["explore"]}

    def explore_all():
        out = []
        for req in hosts:
            program = programs[req["program"]]
            engine = Engine(program.rules, Budget(**UNBOUNDED))
            out.append(engine.semantics(program.main, parse_host_graph(req["host"])).describe())
        return out

    want = explore_all()
    monkeypatch.setattr(graphs, "hash", lambda value: 0, raising=False)
    classes: dict = {}
    reference_classes: dict = {}
    table: dict = {}
    store = IsoStore()
    for g in host_universe(2, 2):
        for cert in (g.signature(), shuffled_copy(random.Random(len(classes)), g).signature(table)):
            assert classes.setdefault(cert, len(classes)) == reference_classes.setdefault(
                reference_certificate(g), len(reference_classes)
            )
        store.put(g)
    assert len(classes) == len(store) == len(reference_classes) == 451
    assert explore_all() == want


RULES = checked(
    parse_program(
        """
rule mark(x: list) [ (n1, x) | ] => [ (n1, x #) | ] interface = {n1}
rule cut(x, y, z: list)
  [ (n1, x) (n2, y) | (e1, n1, n2, z) ] => [ (n1, x) (n2, y) | ]
  interface = {n1, n2}
rule grow(x: list) [ (n1, x) | ] => [ (n1, x) (n2, 1) | (e1, n1, n2, 0) ] interface = {n1}
main = skip
"""
    )
).rules


def test_a_certificate_outlives_an_in_place_rewrite():
    """A certificate taken before `apply(..., copy=False)` rewrites its
    graph still equals a fresh certificate of the old content, and a
    content table still gives it for that content."""
    rng = random.Random(26)
    for _ in range(100):
        host = random_marked_host(rng, max_nodes=4)
        table: dict = {}
        for _ in range(4):
            old = rebuilt(host)
            cert = host.signature(table)
            matches = [(s, m) for s in RULES.values() for m in enumerate_matches(s, host)]
            if not matches:
                break
            schema, match = rng.choice(matches)
            apply(schema, host, match, copy=False)
            assert cert == fresh_certificate(old) and hash(cert) == hash(fresh_certificate(old))
            assert cert != host.signature(table)
            assert rebuilt(old).signature(table) is cert


# -- what is certified -------------------------------------------------------


def count_certification(monkeypatch) -> Counter:
    """Count canonical forms computed, and graphs certified with and without
    a table hit, from here on."""
    counts: Counter = Counter()
    form = graphs._canonical_form
    signature = HostGraph.signature

    def counted_form(nodes, edges):
        counts["forms"] += 1
        return form(nodes, edges)

    def counted_signature(g, table=None):
        if g._signature is not None:
            return signature(g, table)
        size = None if table is None else len(table)
        got = signature(g, table)
        counts["certified" if size is None or len(table) > size else "reused"] += 1
        return got

    monkeypatch.setattr(graphs, "_canonical_form", counted_form)
    monkeypatch.setattr(HostGraph, "signature", counted_signature)
    return counts


def test_laws_requests_compute_no_canonical_form(monkeypatch):
    """The `laws` requests of 100 benchmark cycles (seed 5), through
    `equivalent` as the benchmark serves them: 5,645 canonical forms and 3
    table hits before certificates waited for an equal hash and the two
    sides shared a table, none and 2,077 now.  The first cycle runs before
    counting, so that the confluence verdicts are in place."""
    sides = {
        law: tuple(
            checked(parse_program(f"{LAW_RULES}\nmain = {side}\n")) for side in (left, right)
        )
        for law, left, right, _ in LAWS
    }
    cycles = workloads.laws(random.Random("laws:5"), 100)

    def serve(requests):
        for req in requests:
            host = parse_host_graph(req["host"])
            for law, *_, status in LAWS:
                assert equivalent(*sides[law], [host], Budget(**UNBOUNDED)).status == status

    serve(cycles[0])
    counts = count_certification(monkeypatch)
    serve([req for cycle in cycles for req in cycle])
    assert (counts["forms"], counts["certified"], counts["reused"]) == (0, 3_571, 2_077)


def test_explore_requests_compute_few_canonical_forms(monkeypatch):
    """`semantics` of the corpus programs on the `explore` hosts of 8
    benchmark cycles (seed 5): 3,373 canonical forms before certificates
    waited for an equal hash, 953 while the hash took a sum of squared
    label hashes, 798 now: of isomorphic graphs built apart, and of graphs
    that the hash cannot tell apart, such as paths marked at different
    inner nodes.  2,765 graphs are certified, 3,373 while a reducible loop
    took one match per configuration."""
    programs = {name: corpus.load(name) for name in PROGRAMS["explore"]}
    cycles = workloads.explore(random.Random("explore:5"), 8)

    def serve(requests):
        for req in requests:
            program = programs[req["program"]]
            engine = Engine(program.rules, Budget(**UNBOUNDED))
            engine.semantics(program.main, parse_host_graph(req["host"]))

    serve(cycles[0])
    counts = count_certification(monkeypatch)
    serve([req for cycle in cycles for req in cycle])
    assert (counts["forms"], counts["certified"], counts["reused"]) == (798, 2_765, 198)
