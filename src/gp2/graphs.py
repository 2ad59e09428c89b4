"""Directed labelled multigraphs and morphism machinery.

Host graphs are totally labelled: every node and edge carries a list of
atoms (integers and strings) plus a mark bit.  Rule interfaces use the
partial variant where node labels may be absent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Optional

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


def mark_class(edge: bool, source: bool, target: bool) -> int:
    """The mark class of an edge, from whether it, its source and its target
    are marked: 4 if it is, plus 2 if its source is and 1 if its target is."""
    return 4 * edge + 2 * source + target


def _without(ids: list[str], item: str) -> list[str]:
    """A copy of an index list without one id."""
    rest = ids.copy()
    rest.remove(item)
    return rest


class Edge(NamedTuple):
    source: str
    target: str
    label: HostLabel


class HostGraph:
    """A finite directed multigraph with identifier-indexed nodes and edges.

    Parallel edges and loops are permitted.  Graphs are treated as
    immutable once fully constructed; rewriting copies first.

    Two indexes of id lists are built on first use and then kept up to date
    by every mutation.  Their lists are replaced, never changed in place,
    so a copy copies only the dicts that hold them:

    - the incidence index: each node's incident edge ids in edge insertion
      order, a loop listed once;
    - the marked index (`marked`): the ids of the marked nodes, and of the
      edges of each mark class.

    The cached canonical certificate (`signature`) is dropped on every
    mutation.
    """

    def __init__(self) -> None:
        self.nodes: dict[str, HostLabel] = {}
        self.edges: dict[str, Edge] = {}
        self._node_counter = 0
        self._edge_counter = 0
        self._signature: Optional[tuple] = None
        self._incident: Optional[dict[str, list[str]]] = None
        self._marked: Optional[dict[int, list[str]]] = None

    # -- construction -------------------------------------------------

    def add_node(self, label: HostLabel, node_id: Optional[str] = None) -> str:
        if node_id is None:
            node_id = self._fresh_node_id()
        elif node_id in self.nodes:
            raise GraphError(f"duplicate node id {node_id!r}")
        self.nodes[node_id] = label
        self._signature = None
        if self._incident is not None:
            self._incident[node_id] = []
        if label.marked and self._marked is not None:
            self._mark(0, node_id, True)
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
        self._signature = None
        incident = self._incident
        if incident is not None:
            incident[source] = incident[source] + [edge_id]
            if target != source:
                incident[target] = incident[target] + [edge_id]
        self._index_edge(edge_id, True)
        return edge_id

    def remove_edge(self, edge_id: str) -> None:
        if edge_id not in self.edges:
            raise GraphError(f"unknown edge id {edge_id!r}")
        self._index_edge(edge_id, False)
        e = self.edges.pop(edge_id)
        self._signature = None
        incident = self._incident
        if incident is not None:
            for end in {e.source, e.target}:
                incident[end] = _without(incident[end], edge_id)

    def remove_node(self, node_id: str) -> None:
        if node_id not in self.nodes:
            raise GraphError(f"unknown node id {node_id!r}")
        incident = self.incidence()
        if incident[node_id]:
            raise GraphError(f"node {node_id!r} still incident to edge {incident[node_id][0]!r}")
        label = self.nodes.pop(node_id)
        self._signature = None
        del incident[node_id]
        if label.marked and self._marked is not None:
            self._mark(0, node_id, False)

    def relabel_node(self, node_id: str, label: HostLabel) -> None:
        if node_id not in self.nodes:
            raise GraphError(f"unknown node id {node_id!r}")
        self._signature = None
        if self._marked is None or self.nodes[node_id].marked == label.marked:
            self.nodes[node_id] = label
            return
        incident = self.incidence()[node_id]
        for eid in incident:
            self._index_edge(eid, False)
        self.nodes[node_id] = label
        self._mark(0, node_id, label.marked)
        for eid in incident:
            self._index_edge(eid, True)

    def _index_edge(self, edge_id: str, add: bool) -> None:
        """Add an edge to the marked index, if it is built, or take it out."""
        if self._marked is not None:
            c = self._edge_class(edge_id)
            if c:
                self._mark(c, edge_id, add)

    def _mark(self, key: int, item: str, add: bool) -> None:
        """Add an id to one list of the marked index, or take it out."""
        index = self._marked
        if add:
            index[key] = index.get(key, []) + [item]
        elif len(index[key]) == 1:
            del index[key]
        else:
            index[key] = _without(index[key], item)

    def _edge_class(self, edge_id: str) -> int:
        e, nodes = self.edges[edge_id], self.nodes
        return mark_class(e.label.marked, nodes[e.source].marked, nodes[e.target].marked)

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
        if self._incident is not None:
            g._incident = dict(self._incident)
        if self._marked is not None:
            g._marked = dict(self._marked)
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

    def marked(self) -> dict[int, list[str]]:
        """The marked index, built on first use; callers must not change it.

        Under each mark class but 0 (`mark_class`) it lists the ids of the
        edges of that class, and under 0 the ids of the marked nodes; a key
        with no ids is left out."""
        if self._marked is None:
            index: dict[int, list[str]] = {}
            marked = [n for n, label in self.nodes.items() if label.marked]
            if marked:
                index[0] = marked
            for eid in self.edges:
                c = self._edge_class(eid)
                if c:
                    index.setdefault(c, []).append(eid)
            self._marked = index
        return self._marked

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


def _certificate(g: HostGraph) -> tuple:
    """Canonical form by colour refinement and individualisation.

    An ordered partition of the nodes gives each node the position of its
    cell as its colour.  The first partition sorts the nodes by (label,
    in-degree, out-degree); when it is already discrete, its sorted edge
    list over colours is the certificate.  Otherwise the partition is
    refined from a queue of splitter cells: each splitter re-keys only the
    nodes it has edges to, by the sorted multiset of its edges' labels and
    directions, and splits their cells in key order.  A split cell queues
    its parts but the largest, which the other parts and the old cell
    determine (Hopcroft), unless the old cell is still queued.

    While a cell has several nodes, the search branches on it: each branch
    individualises a node, and with it all its twins (nodes of the same
    label and the same labelled neighbourhood, which any permutation maps
    onto one leaf), in one step.  Every discrete partition reached is a
    leaf, its sorted edge list, and the least leaf is the certificate.  The
    search keeps its branches on an explicit stack and skips a branch that
    an automorphism maps onto an explored one: an equal leaf gives an
    automorphism that fixes the common prefix of the two paths, so the
    search jumps back to where they part, and later siblings in the orbit
    of a tried one under the automorphisms that fix their path are skipped.
    """
    labels = [lab.sort_key for lab in g.nodes.values()]
    index = {v: i for i, v in enumerate(g.nodes)}
    n = len(labels)
    into = [0] * n
    out = [0] * n
    edges = []
    for e in g.edges.values():
        s = index[e.source]
        t = index[e.target]
        out[s] += 1
        into[t] += 1
        edges.append((s, t, e.label.sort_key))
    keys = list(zip(labels, into, out))
    order = sorted(range(n), key=keys.__getitem__)
    colour = [0] * n
    cells: dict[int, list[int]] = {}
    last = None
    for p, v in enumerate(order):
        if keys[v] == last:
            cells[start].append(v)
            colour[v] = start
        else:
            start = colour[v] = p
            cells[p] = [v]
            last = keys[v]
    head = tuple([labels[v] for v in order])

    def leaf(colour: list[int]) -> tuple:
        return tuple(sorted([(colour[s], colour[t], lab) for s, t, lab in edges]))

    if len(cells) == n:
        return head, leaf(colour)

    # each node's edges as (other end, code): codes rank edge labels, and
    # their parity gives the direction
    rank = {lab: 2 * r for r, lab in enumerate(sorted({lab for _, _, lab in edges}))}
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for s, t, lab in edges:
        adj[t].append((s, rank[lab]))
        adj[s].append((t, rank[lab] + 1))
    _refine(adj, colour, cells, sorted(cells))
    if len(cells) == n:
        return head, leaf(colour)

    # twins share a cell, and a transposition of two is an automorphism; a
    # loop's other end is written -1, so that twins' loops match
    classes: dict[tuple, list[int]] = {}
    for c, members in cells.items():
        if len(members) > 1:
            for v in members:
                key = c, tuple(sorted([(w if w != v else -1, code) for w, code in adj[v]]))
                classes.setdefault(key, []).append(v)
    twins = {v: block for block in classes.values() for v in block}

    def branch(colour: list[int], cells: dict, path: tuple, target: int) -> tuple:
        while len(cells[target]) == 1:  # the cells before the parent's target are singletons
            target += 1
        # the orbits of the target cell's twin classes, as a union-find forest
        orbit = {v: twins[v][0] for v in cells[target]}
        return colour, cells, path, target, iter(dict.fromkeys(orbit.values())), [], orbit

    def find(orbit: dict, v: int) -> int:
        while orbit[v] != v:
            orbit[v] = orbit[orbit[v]]
            v = orbit[v]
        return v

    leaves: dict[tuple, tuple] = {}
    stack = [branch(colour, cells, (), 0)]
    while stack:
        colour, cells, path, target, firsts, tried, orbit = stack[-1]
        roots = {find(orbit, u) for u in tried}
        v = next((v for v in firsts if find(orbit, v) not in roots), None)
        if v is None:
            stack.pop()
            continue
        tried.append(v)
        colour = list(colour)
        cells = dict(cells)
        block = twins[v]
        members = cells[target]
        for p, x in enumerate(block, target):
            cells[p] = [x]
            colour[x] = p
        if len(block) < len(members):
            p = target + len(block)
            cells[p] = [x for x in members if twins[x] is not block]
            for x in cells[p]:
                colour[x] = p
        # one twin suffices as splitter: the others have the same edges
        _refine(adj, colour, cells, [target])
        path += (v,)
        if len(cells) < n:
            stack.append(branch(colour, cells, path, target))
            continue
        found = leaf(colour)
        if found not in leaves:
            leaves[found] = path, colour
            continue
        # the automorphism that maps the earlier leaf onto this one fixes
        # their common prefix and maps the rest of this branch onto an
        # explored one; its moved nodes merge orbits along that prefix
        earlier_path, earlier = leaves[found]
        node_at = [0] * n
        for x, c in enumerate(colour):
            node_at[c] = x
        del stack[next(i for i, (a, b) in enumerate(zip(earlier_path, path)) if a != b) + 1:]
        for *_, orbit in stack:
            for x, c in enumerate(earlier):
                if node_at[c] != x and x in orbit:
                    r, s = find(orbit, x), find(orbit, node_at[c])
                    orbit[max(r, s)] = min(r, s)
    return head, min(leaves)


def _refine(adj: list, colour: list[int], cells: dict, queue: list[int]) -> None:
    """Split `cells` in place until no queued splitter splits a cell.

    Only the nodes with an edge to the splitter are re-keyed; the others of
    their cells keep the empty key, the least.  Every choice depends on cell
    positions and keys alone, so isomorphic inputs are split alike.
    """
    n = len(colour)
    queued = set(queue)
    for splitter in queue:  # also visits the splitters appended below
        if len(cells) == n:
            return
        queued.discard(splitter)
        hits: dict[int, list[int]] = {}
        for w in cells[splitter]:
            for v, code in adj[w]:
                if v in hits:
                    hits[v].append(code)
                else:
                    hits[v] = [code]
        touched: dict[int, list[int]] = {}
        for v in hits:
            c = colour[v]
            if c in touched:
                touched[c].append(v)
            elif len(cells[c]) > 1:
                touched[c] = [v]
        for c in sorted(touched) if len(touched) > 1 else touched:
            members = cells[c]
            parts: dict[tuple, list[int]] = {}
            if len(touched[c]) < len(members):
                parts[()] = [v for v in members if v not in hits]
            for v in touched[c]:
                codes = hits[v]
                codes.sort()
                parts.setdefault(tuple(codes), []).append(v)
            if len(parts) == 1:
                continue
            split = [parts[k] for k in sorted(parts)]
            sizes = [len(part) for part in split]
            keep = 0 if c in queued else sizes.index(max(sizes))
            p = c
            for i, part in enumerate(split):
                cells[p] = part
                for v in part:
                    colour[v] = p
                if i != keep:
                    queue.append(p)
                    queued.add(p)
                p += sizes[i]


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
