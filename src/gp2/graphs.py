"""Directed labelled multigraphs and morphism machinery.

Host graphs are totally labelled: every node and edge carries a list of
atoms (integers and strings) plus a mark bit.  Rule interfaces use the
partial variant where node labels may be absent.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

Atom = int | str


class GraphError(Exception):
    """Violation of a graph invariant (unknown ids, dangling edges, ...)."""


@dataclass(frozen=True)
class HostLabel:
    """A list of atoms plus a mark bit.

    The empty list is a legal value and is distinct from a one-element
    list containing the empty string.
    """

    items: tuple[Atom, ...] = ()
    marked: bool = False

    def __post_init__(self) -> None:
        for a in self.items:
            if not isinstance(a, (int, str)) or isinstance(a, bool):
                raise GraphError(f"label atom must be int or str, got {a!r}")

    def __str__(self) -> str:
        return format_label(self.items, self.marked)

    @cached_property
    def sort_key(self) -> tuple:
        """A total order on labels: atoms of one kind compare."""
        return tuple([isinstance(a, str) for a in self.items]), self.items, self.marked


def format_atom(a: Atom) -> str:
    if isinstance(a, int):
        return str(a)
    escaped = a.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def format_label(items: tuple[Atom, ...], marked: bool) -> str:
    text = "empty" if not items else ":".join(format_atom(a) for a in items)
    return text + " #" if marked else text


@dataclass(frozen=True)
class Edge:
    source: str
    target: str
    label: HostLabel


class HostGraph:
    """A finite directed multigraph with identifier-indexed nodes and edges.

    Parallel edges and loops are permitted.  Graphs are treated as
    immutable once fully constructed; rewriting copies first.

    Adjacency queries read a lazy incidence index: each node's incident
    edge ids in edge insertion order, a loop listed once.  It is built on
    first use and dropped, like the cached canonical certificate
    (`signature`), on every mutation, so its lists are never changed in
    place and a copy may share them.
    """

    def __init__(self) -> None:
        self.nodes: dict[str, HostLabel] = {}
        self.edges: dict[str, Edge] = {}
        self._node_counter = 0
        self._edge_counter = 0
        self._signature: Optional[tuple] = None
        self._incident: Optional[dict[str, list[str]]] = None

    # -- construction -------------------------------------------------

    def add_node(self, label: HostLabel, node_id: Optional[str] = None) -> str:
        if node_id is None:
            node_id = self._fresh_node_id()
        elif node_id in self.nodes:
            raise GraphError(f"duplicate node id {node_id!r}")
        self.nodes[node_id] = label
        self._signature = self._incident = None
        return node_id

    def add_edge(
        self,
        source: str,
        target: str,
        label: HostLabel,
        edge_id: Optional[str] = None,
    ) -> str:
        if source not in self.nodes:
            raise GraphError(f"unknown source node {source!r}")
        if target not in self.nodes:
            raise GraphError(f"unknown target node {target!r}")
        if edge_id is None:
            edge_id = self._fresh_edge_id()
        elif edge_id in self.edges:
            raise GraphError(f"duplicate edge id {edge_id!r}")
        self.edges[edge_id] = Edge(source, target, label)
        self._signature = self._incident = None
        return edge_id

    def remove_edge(self, edge_id: str) -> None:
        if edge_id not in self.edges:
            raise GraphError(f"unknown edge id {edge_id!r}")
        del self.edges[edge_id]
        self._signature = self._incident = None

    def remove_node(self, node_id: str) -> None:
        if node_id not in self.nodes:
            raise GraphError(f"unknown node id {node_id!r}")
        first = next((i for i, e in self.edges.items() if node_id in (e.source, e.target)), None)
        if first is not None:
            raise GraphError(f"node {node_id!r} still incident to edge {first!r}")
        del self.nodes[node_id]
        self._signature = self._incident = None

    def relabel_node(self, node_id: str, label: HostLabel) -> None:
        if node_id not in self.nodes:
            raise GraphError(f"unknown node id {node_id!r}")
        self.nodes[node_id] = label
        self._signature = self._incident = None

    def _fresh_node_id(self) -> str:
        while True:
            self._node_counter += 1
            nid = f"n{self._node_counter}"
            if nid not in self.nodes:
                return nid

    def _fresh_edge_id(self) -> str:
        while True:
            self._edge_counter += 1
            eid = f"e{self._edge_counter}"
            if eid not in self.edges:
                return eid

    def copy(self) -> "HostGraph":
        g = HostGraph()
        g.nodes = dict(self.nodes)
        g.edges = dict(self.edges)
        g._node_counter = self._node_counter
        g._edge_counter = self._edge_counter
        g._signature = self._signature
        g._incident = self._incident
        return g

    # -- queries ------------------------------------------------------

    def degree(self, node_id: str, direction: str) -> int:
        """Count of in- or out-edges at a node; a loop counts once each way."""
        if node_id not in self.nodes:
            raise GraphError(f"unknown node id {node_id!r}")
        edges = self.edges
        incident = self.incidence()[node_id]
        if direction == "in":
            return sum(1 for eid in incident if edges[eid].target == node_id)
        if direction == "out":
            return sum(1 for eid in incident if edges[eid].source == node_id)
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")

    def incidence(self) -> dict[str, list[str]]:
        """The incidence index, built on first use; callers must not change it."""
        if self._incident is None:
            index: dict[str, list[str]] = {n: [] for n in self.nodes}
            for eid, e in self.edges.items():
                index[e.source].append(eid)
                if e.target != e.source:
                    index[e.target].append(eid)
            self._incident = index
        return self._incident

    def incident_edges(self, node_id: str) -> Iterator[str]:
        yield from self.incidence().get(node_id, ())

    def edges_between(self, source: str, target: str) -> Iterator[str]:
        edges = self.edges
        for eid in self.incidence().get(source, ()):
            e = edges[eid]
            if e.source == source and e.target == target:
                yield eid

    def to_text(self) -> str:
        nodes = " ".join(
            f"({nid}, {label})" for nid, label in self.nodes.items()
        )
        edges = " ".join(
            f"({eid}, {e.source}, {e.target}, {e.label})"
            for eid, e in self.edges.items()
        )
        left = f"[ {nodes} " if nodes else "[ "
        right = f"| {edges} ]" if edges else "| ]"
        return left + right

    def signature(self) -> tuple:
        """The canonical certificate: equal exactly for isomorphic graphs."""
        if self._signature is None:
            self._signature = _certificate(self)
        return self._signature

    def __repr__(self) -> str:
        return f"HostGraph({self.to_text()})"


def _ranks(keys: list) -> list[int]:
    """Each key's rank among the distinct keys: a canonical colouring."""
    rank = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [rank[k] for k in keys]


def _certificate(g: HostGraph) -> tuple:
    """Canonical form by colour refinement and individualisation.

    Node colours start as ranks of (label, in-degree, out-degree) and are
    refined by the sorted multisets of (neighbour colour, edge label) over
    out- and in-edges.  While a colour class has several nodes, each of
    them is individualised in turn and the colouring refined again; every
    discrete colouring reached gives a leaf, the sorted edge list over
    colours, and the least leaf is the certificate.  A branch that is the
    image of an explored one under an automorphism is skipped: a swap of
    two nodes that preserves the edges, or a node in the orbit of a tried
    one under the automorphisms that equal leaves reveal.
    """

    labels = [lab.sort_key for lab in g.nodes.values()]
    index = {n: i for i, n in enumerate(g.nodes)}
    edges = [(index[e.source], index[e.target], e.label.sort_key) for e in g.edges.values()]
    out: list[list] = [[] for _ in index]
    into: list[list] = [[] for _ in index]
    for s, t, lab in edges:
        out[s].append((t, lab))
        into[t].append((s, lab))
    nodes = range(len(index))

    def refine(colours: list[int]) -> list[int]:
        while len(set(colours)) < len(colours):
            refined = _ranks([
                (
                    colours[v],
                    tuple(sorted((colours[w], lab) for w, lab in out[v])),
                    tuple(sorted((colours[w], lab) for w, lab in into[v])),
                )
                for v in nodes
            ])
            if refined == colours:
                break
            colours = refined
        return colours

    def automorphic_swap(u: int, v: int) -> bool:
        swap = {u: v, v: u}
        moved = [(s, t, lab) for s, t, lab in edges if s in swap or t in swap]
        image = [(swap.get(s, s), swap.get(t, t), lab) for s, t, lab in moved]
        return sorted(moved) == sorted(image)

    leaves: dict[tuple, tuple] = {}
    automorphisms: list[list[int]] = []

    def search(colours: list[int], path: tuple) -> int:
        """Collect the leaves below `path`; return the depth to resume at."""
        if len(set(colours)) == len(colours):
            leaf = tuple(sorted((colours[s], colours[t], lab) for s, t, lab in edges))
            if leaf not in leaves:
                leaves[leaf] = path, colours
                return len(path)
            # the automorphism that maps the earlier leaf onto this one fixes
            # their common prefix and maps the rest of this subtree onto an
            # explored one; it is kept to prune siblings in the same orbit
            earlier_path, earlier = leaves[leaf]
            node_at = sorted(nodes, key=colours.__getitem__)
            automorphisms.append([node_at[c] for c in earlier])
            return next(i for i, (a, b) in enumerate(zip(earlier_path, path)) if a != b)
        cell = min(c for c, k in Counter(colours).items() if k > 1)
        members = [v for v in nodes if colours[v] == cell]
        orbit = {v: {v} for v in members}  # under the automorphisms that fix `path`
        tried: list[int] = []
        known = 0
        for v in members:
            for a in automorphisms[known:]:
                if all(a[x] == x for x in path):
                    for x in members:
                        if a[x] not in orbit[x]:
                            merged = orbit[x] | orbit[a[x]]
                            orbit.update(dict.fromkeys(merged, merged))
            known = len(automorphisms)
            if not orbit[v].isdisjoint(tried) or any(automorphic_swap(u, v) for u in tried):
                continue
            tried.append(v)
            child = [c + (c > cell or (c == cell and w != v)) for w, c in enumerate(colours)]
            back = search(refine(child), path + (v,))
            if back < len(path):
                return back
        return len(path)

    search(refine(_ranks([(labels[v], len(into[v]), len(out[v])) for v in nodes])), ())
    return tuple(sorted(labels)), min(leaves)


@dataclass
class Premorphism:
    """Structure-preserving graph map: sources and targets commute.

    Labels are not required to match; that is checked separately once an
    assignment has instantiated the rule labels.
    """

    node_map: dict[str, str]
    edge_map: dict[str, str]


def isomorphic(a: HostGraph, b: HostGraph) -> bool:
    """Isomorphism test by equality of canonical certificates."""
    if len(a.nodes) != len(b.nodes) or len(a.edges) != len(b.edges):
        return False
    return a.signature() == b.signature()


class IsoStore:
    """A set/map of graphs keyed up to isomorphism by canonical certificate."""

    def __init__(self) -> None:
        self._values: dict[tuple, object] = {}

    def get(self, g: HostGraph, default=None):
        return self._values.get(g.signature(), default)

    def contains(self, g: HostGraph) -> bool:
        sentinel = object()
        return self.get(g, sentinel) is not sentinel

    def put(self, g: HostGraph, value=None) -> bool:
        """Insert unless an isomorphic graph is present; True if inserted."""
        key = g.signature()
        if key in self._values:
            return False
        self._values[key] = value
        return True

    def set(self, g: HostGraph, value) -> None:
        self._values[g.signature()] = value

    def __len__(self) -> int:
        return len(self._values)
