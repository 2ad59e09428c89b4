"""Classical graph algorithms used as independent references.

These are deliberately implemented with textbook methods (DFS, Kahn's
algorithm, exhaustive reduction search) and never touch the rewriting
engine, so they can serve as the trusted side of differential tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .graphs import HostGraph


@dataclass
class OracleVerdict:
    property_name: str
    verdict: bool
    witness: Optional[object] = None
    reason: str = ""


def oracle_connected(g: HostGraph) -> bool:
    """Undirected reachability from any node covers all nodes; the empty
    graph is vacuously connected."""
    if not g.nodes:
        return True
    adjacency: dict[str, set[str]] = {n: set() for n in g.nodes}
    for e in g.edges.values():
        adjacency[e.source].add(e.target)
        adjacency[e.target].add(e.source)
    start = next(iter(g.nodes))
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for other in adjacency[node]:
            if other not in seen:
                seen.add(other)
                queue.append(other)
    return len(seen) == len(g.nodes)


def oracle_acyclic(g: HostGraph) -> bool:
    """Kahn's algorithm: a topological order exists iff no directed cycle."""
    indegree = {n: 0 for n in g.nodes}
    for e in g.edges.values():
        indegree[e.target] += 1
    queue = deque(n for n, d in indegree.items() if d == 0)
    removed = 0
    while queue:
        node = queue.popleft()
        removed += 1
        for e in g.edges.values():
            if e.source == node:
                indegree[e.target] -= 1
                if indegree[e.target] == 0:
                    queue.append(e.target)
    return removed == len(g.nodes)


def oracle_eulerian(g: HostGraph) -> bool:
    """Connected with indegree equal to outdegree at every node."""
    if not oracle_connected(g):
        return False
    return all(g.degree(n, "in") == g.degree(n, "out") for n in g.nodes)


# -- series-parallel recognition --------------------------------------


def _reduction_state(g: HostGraph):
    """Labels are irrelevant for the reduction; keep only the structure."""
    nodes = tuple(sorted(g.nodes))
    edges = tuple(sorted((e.source, e.target) for e in g.edges.values()))
    return nodes, edges


def _canonical(nodes: tuple, edges: tuple):
    """Canonical form under node renaming, by brute force on small states."""
    from itertools import permutations

    if len(nodes) > 6:
        # fall back to a renaming by first occurrence; only used for
        # dedup so a weaker canonical form merely costs a little work
        order = {n: i for i, n in enumerate(nodes)}
        return (len(nodes), tuple(sorted((order[s], order[t]) for s, t in edges)))
    best = None
    for perm in permutations(range(len(nodes))):
        order = {n: perm[i] for i, n in enumerate(nodes)}
        cand = tuple(sorted((order[s], order[t]) for s, t in edges))
        if best is None or cand < best:
            best = cand
    return (len(nodes), best)


def _reductions(nodes: tuple, edges: tuple):
    """All single-step reductions: (a) contract a degree-(1,1) node with
    distinct neighbours, (b) merge a pair of parallel edges."""
    out = []
    edge_list = list(edges)
    # (a) serial
    for v in nodes:
        incoming = [i for i, (s, t) in enumerate(edge_list) if t == v]
        outgoing = [i for i, (s, t) in enumerate(edge_list) if s == v]
        if len(incoming) != 1 or len(outgoing) != 1:
            continue
        i, o = incoming[0], outgoing[0]
        if i == o:  # a loop at v
            continue
        src = edge_list[i][0]
        tgt = edge_list[o][1]
        if src == v or tgt == v or src == tgt:
            continue
        new_edges = [e for k, e in enumerate(edge_list) if k not in (i, o)]
        new_edges.append((src, tgt))
        out.append((tuple(n for n in nodes if n != v), tuple(sorted(new_edges))))
    # (b) parallel
    seen_pairs = set()
    for i, (s, t) in enumerate(edge_list):
        if s == t or (s, t) in seen_pairs:
            continue
        if sum(1 for e in edge_list if e == (s, t)) >= 2:
            seen_pairs.add((s, t))
            new_edges = list(edge_list)
            new_edges.remove((s, t))
            out.append((nodes, tuple(sorted(new_edges))))
    return out


def oracle_series_parallel(g: HostGraph) -> bool:
    """True iff the graph reduces to a two-node, one-edge base graph.

    Reduction order should not matter; for small graphs (at most 8 edges)
    every order is tried anyway, larger ones use a single greedy reduction
    sequence.
    """
    start = _reduction_state(g)

    def is_base(state) -> bool:
        nodes, edges = state
        return len(nodes) == 2 and len(edges) == 1 and edges[0][0] != edges[0][1]

    if len(g.edges) > 8:
        state = start
        while True:
            if is_base(state):
                return True
            steps = _reductions(*state)
            if not steps:
                return False
            state = steps[0]

    seen = {_canonical(*start)}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if is_base(state):
            return True
        for nxt in _reductions(*state):
            key = _canonical(*nxt)
            if key not in seen:
                seen.add(key)
                queue.append(nxt)
    return False


# -- Euler numbering validation ---------------------------------------


def validate_euler_numbering(result: HostGraph, original: HostGraph) -> OracleVerdict:
    """Check that a numbered output encodes an Euler cycle of the original.

    Edge labels in the result must be the original atomic label followed
    by a numbering list; numberings must be pairwise distinct, and
    visiting edges in hierarchical (tuple-sorted) numbering order must
    give one closed walk using every edge exactly once.
    """
    name = "euler-numbering"

    if set(result.nodes) != set(original.nodes):
        return OracleVerdict(name, False, reason="node sets differ")
    for nid, label in original.nodes.items():
        if result.nodes[nid].items != label.items:
            return OracleVerdict(name, False, reason=f"node {nid} label changed")

    if len(result.edges) != len(original.edges):
        return OracleVerdict(name, False, reason="edge counts differ")

    numbered = []  # (number, source, target, base atom)
    for e in result.edges.values():
        if len(e.label.items) < 2:
            return OracleVerdict(
                name, False, reason=f"edge {e.source}->{e.target} not numbered"
            )
        base, number = e.label.items[0], e.label.items[1:]
        numbered.append((number, e.source, e.target, base))

    def edge_key(entry):
        s, t, base = entry
        return (s, t, type(base).__name__, str(base))

    stripped = sorted(((s, t, base) for _, s, t, base in numbered), key=edge_key)
    original_edges = sorted(
        (
            (e.source, e.target, e.label.items[0] if e.label.items else None)
            for e in original.edges.values()
        ),
        key=edge_key,
    )
    if stripped != original_edges:
        return OracleVerdict(name, False, reason="underlying edges differ")

    numbers = [n for n, *_ in numbered]
    if len(set(numbers)) != len(numbers):
        return OracleVerdict(name, False, reason="duplicate numbering")

    walk = sorted(numbered, key=lambda entry: entry[0])
    for (_, _, t, _), (_, s, _, _) in zip(walk, walk[1:]):
        if t != s:
            return OracleVerdict(
                name, False, witness=[w[0] for w in walk], reason="walk is not consecutive"
            )
    if walk and walk[-1][2] != walk[0][1]:
        return OracleVerdict(
            name, False, witness=[w[0] for w in walk], reason="walk is not closed"
        )
    return OracleVerdict(name, True, witness=[w[0] for w in walk])
