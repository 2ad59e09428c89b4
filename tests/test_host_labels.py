"""The `HostLabel` contract: an immutable value of atoms and a mark."""

import pickle
import random

import pytest

from genlib import _label_key, random_host_items
from gp2.graphs import GraphError, HostLabel


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
