"""The generated rewrite (`matcher.generate_rewrite`), the one writer of a
host's indexes, against a direct construction of its result
(`genlib.reference_apply`), whose indexes a scan builds."""

import collections
import random

import pytest

from genlib import (
    edit_add_edge,
    edit_relabel_node,
    edit_remove_edge,
    edit_remove_node,
    random_schema,
    reference_apply,
)
from gp2 import corpus
from gp2.graphs import GraphError, HostGraph, HostLabel
from gp2.labels import RuleLabel
from gp2.parsing import parse_host_graph, parse_program
from gp2.program import checked
from gp2.rules import ConditionalRuleSchema, RuleGraph, apply, enumerate_matches
from test_graphs import random_marked_host, scanned_marks

# which indexes a host has built when it is rewritten
INDEXES = ("none", "incidence", "both")


def with_random_marks(rng: random.Random, schema, rate: float) -> ConditionalRuleSchema:
    """The schema with each left and right mark flipped at the given rate, so
    that interface nodes gain and lose marks."""
    sides = []
    for graph in (schema.left, schema.right):
        side = RuleGraph()
        for nid, lab in graph.nodes.items():
            side.add_node(nid, RuleLabel(lab.expr, lab.marked ^ (rng.random() < rate)))
        for eid, e in graph.edges.items():
            label = RuleLabel(e.label.expr, e.label.marked ^ (rng.random() < rate))
            side.add_edge(eid, e.source, e.target, label)
        sides.append(side)
    left, right = sides
    return ConditionalRuleSchema(
        schema.name, schema.variables, left, schema.interface, right, schema.condition
    )


def prepared(host: HostGraph, indexes: str) -> HostGraph:
    """A copy of host with exactly the given indexes built, and with both,
    its certificate."""
    g = host.copy()
    g._incident = g._marked = g._signature = None
    if indexes != "none":
        g.incidence()
    if indexes == "both":
        g.marked()
        g.signature()
    return g


def snapshot(g: HostGraph) -> tuple:
    """Everything a rewrite of a copy must leave as it is, index lists too."""
    lists = lambda index: None if index is None else {k: list(v) for k, v in index.items()}  # noqa: E731
    counters = g._node_counter, g._edge_counter
    return g.to_text(), counters, lists(g._incident), lists(g._marked), g._signature


def scanned_incidence(g: HostGraph) -> dict:
    index: dict = {n: [] for n in g.nodes}
    for eid, e in g.edges.items():
        index[e.source].append(eid)
        if e.target != e.source:
            index[e.target].append(eid)
    return index


def agree(schema, host: HostGraph, seen: collections.Counter) -> None:
    """apply and reference_apply give the same graph, counters and
    certificate at every match, under each set of built indexes, to a copy
    and in place; apply keeps each built index, as a scan builds it (the
    marked index's lists in any order), and builds no marked index."""
    for match in list(enumerate_matches(schema, host)):
        seen["matches"] += 1
        for indexes in INDEXES:
            for copy in (True, False):
                g, h = prepared(host, indexes), prepared(host, indexes)
                before = snapshot(g)
                result = apply(schema, g, match, copy=copy)
                expected = reference_apply(schema, h, match, copy=copy)
                assert (result is g) is not copy
                if copy:
                    assert snapshot(g) == before
                assert result.to_text() == expected.to_text()
                assert result._node_counter == expected._node_counter
                assert result._edge_counter == expected._edge_counter
                assert (result._signature is None) == (expected._signature is None)
                assert (result._incident is None) <= (indexes == "none")
                assert (result._marked is None) == (indexes != "both")
                if result._incident is not None:
                    assert result._incident == scanned_incidence(result) == expected.incidence()
                if result._marked is not None:
                    assert {c: sorted(ids) for c, ids in result._marked.items()} == scanned_marks(result)
        result = apply(schema, host, match)
        seen["deletes"] += not host.nodes.keys() <= result.nodes.keys()
        seen["adds"] += result._node_counter > host._node_counter
        seen["moves"] += any(  # a kept node whose mark changed, with edges that move class
            result.incidence()[n] and result.nodes[n].marked != label.marked
            for n, label in host.nodes.items() if n in result.nodes
        )


def test_random_schemas_on_marked_hosts():
    seen = collections.Counter()
    for trial in range(1000):
        rng = random.Random(trial)
        schema = random_schema(rng)
        if trial % 2:
            schema = with_random_marks(rng, schema, 0.3)
        agree(schema, random_marked_host(rng), seen)
    assert min(seen[k] for k in ("deletes", "adds", "moves")) >= 50, seen
    assert seen["matches"] >= 500, seen


@pytest.mark.parametrize("name", corpus.PROGRAMS)
def test_corpus_rules_on_marked_hosts(name):
    seen = collections.Counter()
    rng = random.Random(name)
    rules = corpus.load(name).rules.values()
    for _ in range(40):
        host = random_marked_host(rng)
        for schema in rules:
            agree(schema, host, seen)
    assert seen["matches"] > 0, seen


def test_a_signature_is_kept_where_no_label_changes():
    program = checked(parse_program(
        "rule keep(x: list) [ (n1, x) | ] => [ (n1, x) | ] interface = {n1}\n"
        "rule zero(x: list) [ (n1, x) | ] => [ (n1, 0) | ] interface = {n1}\n"
        "main = keep"
    ))
    host = parse_host_graph("[ (a, 0) (b, 1) | ]")
    certificate = host.signature()
    for name, kept in (("keep", ["a", "b"]), ("zero", ["a"])):
        schema = program.rules[name]
        for match in enumerate_matches(schema, host):
            result = apply(schema, host, match)
            assert (result._signature is certificate) is (match[0][0] in kept)


# -- stale and foreign matches ------------------------------------------

RULES = checked(parse_program(
    "rule cut(x, y, z: list) [ (n1, x) (n2, y) | (e1, n1, n2, z) ]"
    " => [ (n1, x) (n2, y) | ] interface = {n1, n2}\n"
    "rule drop(x: list) [ (n1, x) | ] => [ | ] interface = {}\n"
    "rule drop_end(x, y, z: list) [ (n1, x) (n2, y) | (e1, n1, n2, z) ]"
    " => [ (n1, x) | ] interface = {n1}\n"
    "rule grow(x: list) [ (n1, x) | ] => [ (n1, x #) (n2, 0) | (e1, n1, n2, 0) ]"
    " interface = {n1}\n"
    "rule unmark(x: list) [ (n1, x #) | ] => [ (n1, x) | ] interface = {n1}\n"
    "main = cut"
)).rules


def raised(apply_fn, schema, host: HostGraph, match) -> str:
    with pytest.raises(GraphError) as info:
        apply_fn(schema, host, match)
    return str(info.value)


@pytest.mark.parametrize("copy", [True, False])
@pytest.mark.parametrize("indexes", INDEXES)
def test_stale_matches_raise_the_mutators_errors(indexes, copy):
    """A match applied after its edge or its deleted node was removed, or
    after its deleted node gained an edge, each by another rule, raises
    what the reference raises, and leaves no dangling edge."""
    host = parse_host_graph("[ (a, 0) (b, 1) (c, 2) | (e1, a, b, 0) ]")
    cases = [  # (rule, host id of its first slot, change, message)
        ("cut", "a", lambda g: edit_remove_edge(g, "e1"), "unknown edge id 'e1'"),
        ("drop_end", "a", lambda g: edit_remove_edge(g, "e1"), "unknown edge id 'e1'"),
        ("drop", "c", lambda g: edit_remove_node(g, "c"), "unknown node id 'c'"),
        ("drop", "c", lambda g: edit_add_edge(g, "c", "a", HostLabel()), "node 'c' still incident to edge 'e2'"),
        ("drop_end", "a", lambda g: edit_add_edge(g, "c", "b", HostLabel()), "node 'b' still incident to edge 'e2'"),
    ]
    for name, first, change, message in cases:
        schema = RULES[name]
        match = next(m for m in enumerate_matches(schema, host) if m[0][0] == first)
        stale = prepared(host, indexes)
        change(stale)
        g, h = stale.copy(), stale.copy()
        rewrite = lambda s, g, m: apply(s, g, m, copy=copy)  # noqa: E731
        reference = lambda s, g, m: reference_apply(s, g, m, copy=copy)  # noqa: E731
        assert raised(rewrite, schema, g, match) == raised(reference, schema, h, match) == message
        for graph in (g, h):
            assert all(e.source in graph.nodes and e.target in graph.nodes for e in graph.edges.values())


def test_an_unknown_interface_node_raises_a_graph_error():
    host = parse_host_graph("[ (a, 0) | ]")
    schema = RULES["grow"]
    [match] = enumerate_matches(schema, host)
    edit_remove_node(host, "a")
    for copy in (True, False):
        with pytest.raises(GraphError, match="unknown node id 'a'"):
            apply(schema, host, match, copy=copy)
    assert host.to_text() == "[ | ]"


@pytest.mark.parametrize("copy", [True, False])
@pytest.mark.parametrize("indexes", INDEXES)
def test_a_match_whose_marks_changed_raises_before_any_change(indexes, copy):
    """The rewrite's mark classes are fixed when the rule is compiled, so a
    match whose node has been marked or unmarked since, or whose edge is
    marked in the host it is applied to, raises and leaves that host's
    text, id counters and indexes as they were.  Without the check, `drop` deleted node c
    while the marked index still listed it."""
    host = parse_host_graph("[ (a, 0) (b, 1) (c, 2) (d, 3 #) | (e1, a, b, 0) ]")
    marked_edge = parse_host_graph("[ (a, 0) (b, 1) (c, 2) (d, 3 #) | (e1, a, b, 0 #) ]")

    def relabel(n: str, marked: bool):
        return lambda g: edit_relabel_node(g, n, HostLabel(g.nodes[n].items, marked))

    cases = [  # (rule, host id of its first slot, change, message)
        ("drop", "c", relabel("c", True), "stale match: node 'c' is marked"),
        ("cut", "a", relabel("b", True), "stale match: node 'b' is marked"),
        ("unmark", "d", relabel("d", False), "stale match: node 'd' is unmarked"),
        ("cut", "a", lambda g: marked_edge.copy(), "stale match: edge 'e1' is marked"),
    ]
    for name, first, change, message in cases:
        schema = RULES[name]
        match = next(m for m in enumerate_matches(schema, host) if m[0][0] == first)
        stale = prepared(host, indexes)
        stale = change(stale) or stale
        stale = prepared(stale, indexes)
        before = snapshot(stale)
        assert raised(lambda s, g, m: apply(s, g, m, copy=copy), schema, stale, match) == message
        assert snapshot(stale)[:4] == before[:4]  # the certificate, a cache, may be dropped
        assert {c: sorted(ids) for c, ids in stale.marked().items()} == scanned_marks(stale)
