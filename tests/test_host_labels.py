"""The `HostLabel` contract: an immutable value of atoms and a mark."""

import copy
import pickle
import random

import pytest

from genlib import _label_key, random_eulerian, random_host, random_host_items
from gp2 import corpus
from gp2.executor import Budget, run_one
from gp2.graphs import GraphError, HostLabel, format_label
from gp2.parsing import parse_host_graph


def test_assignment_raises():
    label = HostLabel((1, "a"))
    for name in ("items", "marked", "sort_key", "other"):
        with pytest.raises(AttributeError):
            setattr(label, name, ())
        with pytest.raises(AttributeError):
            delattr(label, name)
    assert label.items == (1, "a") and not label.marked


def test_equality_and_hash_follow_items_and_mark():
    rng = random.Random(17)
    labels = [HostLabel(random_host_items(rng, 3), rng.random() < 0.5) for _ in range(400)]
    for a in labels:
        for b in labels[:40]:
            same = (a.items, a.marked) == (b.items, b.marked)
            assert (a == b) == same and (a != b) != same
            if same:
                assert hash(a) == hash(b)
    assert HostLabel() == HostLabel((), False) and HostLabel() != HostLabel(("",))
    assert HostLabel((1,)) != HostLabel((1,), True)
    assert HostLabel((1,)) != ((1,), False)
    assert len({HostLabel((0,)), HostLabel((0,)), HostLabel((0,), True)}) == 2


@pytest.mark.parametrize("atom", [True, False, 1.0, None, (1,), b"a"])
def test_atoms_other_than_int_and_str_raise(atom):
    with pytest.raises(GraphError):
        HostLabel((0, atom))


def test_sort_key_is_the_reference_key():
    rng = random.Random(18)
    for _ in range(500):
        label = HostLabel(random_host_items(rng, 4), rng.random() < 0.5)
        assert label.sort_key == _label_key(label)
        assert label.sort_key is label.sort_key  # filled once


def test_text_and_copies():
    assert str(HostLabel()) == "empty"
    assert str(HostLabel((), True)) == "empty #"
    assert str(HostLabel((1, "a", -2))) == '1:"a":-2'
    assert str(HostLabel(('q"\\',), True)) == '"q\\"\\\\" #'
    assert repr(HostLabel((1,), True)) == "HostLabel(items=(1,), marked=True)"
    label = HostLabel((3, "b"), True)
    assert pickle.loads(pickle.dumps(label)) == label


def graph_labels(graph) -> list:
    return list(graph.nodes.values()) + [e.label for e in graph.edges.values()]


def test_printed_text_is_the_formatted_text():
    """The text a label keeps once printed is `format_label` of its atoms
    and mark, for labels built directly, read by the host reader (from
    printed hosts and from spaced, commented and escaped ones) and built by
    the generated rewrites of `euler_cycle`; printing again gives it too."""
    rng = random.Random(19)
    built = [HostLabel(random_host_items(rng, 4), rng.random() < 0.5) for _ in range(300)]
    read = []
    for _ in range(60):
        text = random_host(rng, 6).to_text()
        read += graph_labels(parse_host_graph(text))
    read += graph_labels(parse_host_graph('[ (n1, "a\\"b\\\\" : - 3 // c\n # ) | ]'))
    rewritten = []
    euler = corpus.load("euler_cycle")
    for seed in range(40):
        host = random_eulerian(rng, max_nodes=8)
        outcome = run_one(euler, host, Budget(seed=seed))
        assert outcome.kind == "graph"
        kept = set(map(id, graph_labels(host)))
        rewritten += [label for label in graph_labels(outcome.graph) if id(label) not in kept]
        assert parse_host_graph(outcome.graph.to_text()).to_text() == outcome.graph.to_text()
    assert len(read) > 300 and len(rewritten) > 300
    assert str(read[-1]) == '"a\\"b\\\\":-3 #'
    for label in built + read + rewritten:
        for _ in range(2):
            assert str(label) == format_label(label.items, label.marked)


def test_a_printed_label_stays_immutable_and_pickles_as_before():
    label = HostLabel((1, "a"), True)
    for printed in (False, True):
        if printed:
            assert str(label) == '1:"a" #'
        for name in ("_text", "items"):
            with pytest.raises(AttributeError):
                setattr(label, name, "x")
            with pytest.raises(AttributeError):
                delattr(label, name)
        assert label.__reduce__() == (HostLabel, ((1, "a"), True))
        for twin in (pickle.loads(pickle.dumps(label)), copy.copy(label), copy.deepcopy(label)):
            assert twin == label and str(twin) == str(label)
    assert str(label) == '1:"a" #'
