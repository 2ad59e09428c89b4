"""Directed labelled multigraphs and morphism machinery.

Host graphs are totally labelled: every node and edge carries a list of
atoms (integers and strings) plus a mark bit.  Rule interfaces use the
partial variant where node labels may be absent.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    first use and dropped, like the cached signature, on every mutation,
    so its lists are never changed in place and a copy may share them.
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
        incident = self.incidence()[node_id]
        if incident:
            raise GraphError(f"node {node_id!r} still incident to edge {incident[0]!r}")
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
        """An isomorphism-invariant hashable fingerprint, used for bucketing."""
        if self._signature is not None:
            return self._signature
        indeg = dict.fromkeys(self.nodes, 0)
        outdeg = dict.fromkeys(self.nodes, 0)
        for e in self.edges.values():
            outdeg[e.source] += 1
            indeg[e.target] += 1
        node_sig = sorted(
            (_items_key(lab.items), lab.marked, indeg[n], outdeg[n])
            for n, lab in self.nodes.items()
        )
        edge_sig = sorted(
            (_items_key(e.label.items), e.label.marked, e.source == e.target)
            for e in self.edges.values()
        )
        self._signature = (tuple(node_sig), tuple(edge_sig))
        return self._signature

    def __repr__(self) -> str:
        return f"HostGraph({self.to_text()})"


def _items_key(items: tuple[Atom, ...]) -> tuple:
    """A totally ordered stand-in for an atom list (ints and strings mix)."""
    return tuple(
        (0, a, "") if isinstance(a, int) else (1, 0, a) for a in items
    )


@dataclass
class Premorphism:
    """Structure-preserving graph map: sources and targets commute.

    Labels are not required to match; that is checked separately once an
    assignment has instantiated the rule labels.
    """

    node_map: dict[str, str]
    edge_map: dict[str, str]

    def preserves_structure(self, src, dst: HostGraph) -> bool:
        """Check s/t commutation for a map between graph-like objects.

        `src` may be a HostGraph or a rule graph; it only needs `edges`
        with source/target fields and a `nodes` mapping.
        """
        for leid, heid in self.edge_map.items():
            if leid not in src.edges or heid not in dst.edges:
                return False
            le, he = src.edges[leid], dst.edges[heid]
            if self.node_map.get(le.source) != he.source:
                return False
            if self.node_map.get(le.target) != he.target:
                return False
        return all(n in src.nodes for n in self.node_map) and all(
            h in dst.nodes for h in self.node_map.values()
        )


def is_label_preserving_morphism(
    g: Premorphism, src: HostGraph, dst: HostGraph
) -> bool:
    """True iff g is structure-preserving and maps every label onto an equal one."""
    if set(g.node_map) != set(src.nodes) or set(g.edge_map) != set(src.edges):
        return False
    if not g.preserves_structure(src, dst):
        return False
    for n, h in g.node_map.items():
        if src.nodes[n] != dst.nodes[h]:
            return False
    for e, h in g.edge_map.items():
        if src.edges[e].label != dst.edges[h].label:
            return False
    return True


def isomorphic(a: HostGraph, b: HostGraph) -> bool:
    """Backtracking isomorphism test, partitioned by label and degrees."""
    if len(a.nodes) != len(b.nodes) or len(a.edges) != len(b.edges):
        return False
    if a.signature() != b.signature():
        return False

    def node_keys(g: HostGraph) -> dict[str, tuple]:
        indeg = dict.fromkeys(g.nodes, 0)
        outdeg = dict.fromkeys(g.nodes, 0)
        for e in g.edges.values():
            outdeg[e.source] += 1
            indeg[e.target] += 1
        return {
            n: (_items_key(lab.items), lab.marked, indeg[n], outdeg[n])
            for n, lab in g.nodes.items()
        }

    a_keys = node_keys(a)
    b_keys = node_keys(b)
    a_nodes = sorted(a.nodes, key=lambda n: a_keys[n])
    candidates: dict[str, list[str]] = {
        n: [m for m in b.nodes if b_keys[m] == a_keys[n]] for n in a_nodes
    }

    b_edge_bag: dict[tuple[str, str], list] = {}
    for e in b.edges.values():
        b_edge_bag.setdefault((e.source, e.target), []).append(e.label)

    def edges_ok(mapping: dict[str, str]) -> bool:
        want: dict[tuple[str, str], list] = {}
        for e in a.edges.values():
            want.setdefault((mapping[e.source], mapping[e.target]), []).append(e.label)
        for pair, labels in want.items():
            have = b_edge_bag.get(pair, [])
            if sorted(map(str, labels)) != sorted(map(str, have)):
                return False
        return sum(len(v) for v in want.values()) == len(b.edges)

    used: set[str] = set()
    mapping: dict[str, str] = {}

    def backtrack(i: int) -> bool:
        if i == len(a_nodes):
            return edges_ok(mapping)
        n = a_nodes[i]
        for m in candidates[n]:
            if m in used:
                continue
            # prune: adjacency with already-mapped nodes must agree
            ok = True
            for p, q in mapping.items():
                if _pair_profile(a, n, p) != _pair_profile(b, m, q):
                    ok = False
                    break
            if not ok:
                continue
            mapping[n] = m
            used.add(m)
            if backtrack(i + 1):
                return True
            del mapping[n]
            used.remove(m)
        return False

    return backtrack(0)


def _pair_profile(g: HostGraph, u: str, v: str) -> tuple:
    fwd = sorted(str(g.edges[e].label) for e in g.edges_between(u, v))
    bwd = sorted(str(g.edges[e].label) for e in g.edges_between(v, u))
    return (tuple(fwd), tuple(bwd))


class IsoStore:
    """A set/map of graphs keyed up to isomorphism.

    Buckets by signature and falls back to pairwise isomorphism checks,
    which is fine at desk scale.
    """

    def __init__(self) -> None:
        self._buckets: dict[tuple, list[tuple[HostGraph, object]]] = {}

    def get(self, g: HostGraph, default=None):
        for h, value in self._buckets.get(g.signature(), []):
            if isomorphic(g, h):
                return value
        return default

    def contains(self, g: HostGraph) -> bool:
        sentinel = object()
        return self.get(g, sentinel) is not sentinel

    def put(self, g: HostGraph, value=None) -> bool:
        """Insert unless an isomorphic graph is present; True if inserted."""
        bucket = self._buckets.setdefault(g.signature(), [])
        for h, _ in bucket:
            if isomorphic(g, h):
                return False
        bucket.append((g, value))
        return True

    def set(self, g: HostGraph, value) -> None:
        bucket = self._buckets.setdefault(g.signature(), [])
        for i, (h, _) in enumerate(bucket):
            if isomorphic(g, h):
                bucket[i] = (h, value)
                return
        bucket.append((g, value))

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())
