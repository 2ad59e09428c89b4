"""Seeded input generators and request lists for the four workloads.

Inputs are built here as host-graph text, without importing gp2, so that
the package under test neither builds nor deduplicates its own load.  A
request list is a sequence of *cycles*; each cycle holds one request of
every class (program, host family, rung) the workload mixes, so cutting
a run at a cycle boundary keeps the mix exact.
"""

from __future__ import annotations

import itertools
import random

# -- host-graph text ---------------------------------------------------


def format_atom(a) -> str:
    if isinstance(a, int):
        return str(a)
    return '"' + a.replace("\\", "\\\\").replace('"', '\\"') + '"'


def format_label(items: tuple, marked: bool = False) -> str:
    text = "empty" if not items else ":".join(format_atom(a) for a in items)
    return text + " #" if marked else text


def host_text(nodes: list, edges: list) -> str:
    """Text in the exact layout `HostGraph.to_text` prints.

    nodes: [(id, items)]; edges: [(id, source, target, items)].
    """
    left = " ".join(f"({n}, {format_label(items)})" for n, items in nodes)
    right = " ".join(
        f"({e}, {s}, {t}, {format_label(items)})" for e, s, t, items in edges
    )
    return ("[ " + left + " " if left else "[ ") + ("| " + right + " ]" if right else "| ]")


def _graph(n: int, pairs: list, node_items, edge_items) -> str:
    nodes = [(f"n{i + 1}", node_items(i)) for i in range(n)]
    edges = [
        (f"e{k + 1}", f"n{s + 1}", f"n{t + 1}", edge_items(k))
        for k, (s, t) in enumerate(pairs)
    ]
    return host_text(nodes, edges)


# -- structural families (node indices 0..n-1, edges as pairs) --------


def path_pairs(n: int) -> list:
    return [(i, i + 1) for i in range(n - 1)]


def grid_pairs(rows: int, cols: int) -> list:
    """A rows x cols grid, edges pointing right and down."""
    pairs = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                pairs.append((v, v + 1))
            if r + 1 < rows:
                pairs.append((v, v + cols))
    return pairs


def random_pairs(rng: random.Random, n: int, m: int) -> list:
    """m edges with uniform endpoints, loops and parallel edges allowed."""
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]


def eulerian_pairs(rng: random.Random, n: int, m: int) -> list:
    """A connected multigraph with in-degree = out-degree everywhere:
    one closed walk through every node, then short closed walks (loops
    included) over the same nodes until there are exactly m edges."""
    assert m >= n
    walk = list(range(n))
    rng.shuffle(walk)
    pairs = list(zip(walk, walk[1:] + walk[:1])) if n > 1 else [(0, 0)]
    while len(pairs) < m:
        length = min(rng.randint(1, 3), m - len(pairs))
        if length == 2 and n < 2:
            length = 1
        cyc = rng.sample(range(n), length) if length <= n else [0] * length
        pairs.extend(zip(cyc, cyc[1:] + cyc[:1]))
    return pairs


def binary_tree_pairs(rng: random.Random, n: int) -> list:
    """A heap-shaped binary tree, each edge oriented at random."""
    return [
        ((v - 1) // 2, v) if rng.random() < 0.5 else (v, (v - 1) // 2)
        for v in range(1, n)
    ]


def diamond_ladder_pairs(n: int) -> list:
    """A two-terminal series-parallel ladder: a chain of diamonds (two
    parallel two-edge paths), then a serial tail up to n nodes."""
    pairs = []
    tip, fresh = 0, 1
    while fresh + 3 <= n:
        a, b, t = fresh, fresh + 1, fresh + 2
        pairs += [(tip, a), (a, t), (tip, b), (b, t)]
        tip, fresh = t, fresh + 3
    while fresh < n:
        pairs.append((tip, fresh))
        tip, fresh = fresh, fresh + 1
    return pairs


# -- requests ----------------------------------------------------------


def _atom(rng: random.Random, i: int):
    return rng.choice([i, f"v{i}"])


def _request(cls: str, program: str, n: int, text: str, rung=None) -> dict:
    """One request; `rung` defaults to the node count n."""
    return {"cls": cls, "program": program, "n": n, "rung": n if rung is None else rung, "host": text}


def euler_host(rng: random.Random, n: int, m: int) -> str:
    pairs = eulerian_pairs(rng, n, m)
    return _graph(
        n,
        pairs,
        lambda i: (_atom(rng, i),),
        lambda k: (rng.randrange(10),),
    )


def run_euler(rng: random.Random, cycles: int) -> list:
    return [
        [_request(f"euler/n{n}", "euler_cycle", n, euler_host(rng, n, round(1.5 * n))) for n in (4, 6, 8, 12)]
        for _ in range(cycles)
    ]


RECOGNIZERS = ("connected", "acyclic", "series_parallel", "eulerian")
RECOGNIZE_RUNGS = (9, 12, 16)  # grids 3x3, 3x4, 4x4


def recognize_hosts(rng: random.Random, n: int, eulerian: bool) -> dict:
    """Path, grid and sparse hosts with n nodes; the sparse one is
    Eulerian or has uniform random edges.  Cycles alternate between the
    two, so every run has the same mix."""
    rows = 3 if n < 16 else 4
    label = lambda _: (rng.randrange(3),)  # noqa: E731
    if eulerian:
        sparse = eulerian_pairs(rng, n, n + n // 4)
    else:
        sparse = random_pairs(rng, n, n)
    return {
        "path": _graph(n, path_pairs(n), label, label),
        "grid": _graph(n, grid_pairs(rows, n // rows), label, label),
        "sparse": _graph(n, sparse, label, label),
    }


def run_recognize(rng: random.Random, cycles: int) -> list:
    out = []
    for i in range(cycles):
        cycle = []
        for n in RECOGNIZE_RUNGS:
            hosts = recognize_hosts(rng, n, eulerian=i % 2 == 1)
            for program in RECOGNIZERS:
                for family, text in hosts.items():
                    cycle.append(_request(f"{program}/{family}/n{n}", program, n, text))
        out.append(cycle)
    return out


EXPLORE_EULER = ((3, 4), (4, 5), (5, 6))  # (nodes, edges) per rung


def explore_hosts(rng: random.Random, k: int) -> list:
    """Rung k (0, 1, 2) of the explore families.

    Connected and series-parallel hosts have n = 4, 6, 8 nodes, all
    labelled 0, so they are as symmetric as their shapes allow.  Shapes
    are fixed per rung and only edge directions, the cut edge and the
    Eulerian host are drawn: the cost of exhaustive exploration swings by
    10x between random shapes or labellings of one size, which no run
    could average out."""
    label = lambda _: (0,)  # noqa: E731
    n = 4 + 2 * k
    cut = path_pairs(n)
    cut.pop(rng.randrange(len(cut)))  # disconnected
    n_eu, m_eu = EXPLORE_EULER[k]
    return [
        ("connected", n, _graph(n, path_pairs(n), label, label)),
        ("connected", n, _graph(n, cut, label, label)),
        ("connected", n, _graph(n, binary_tree_pairs(rng, n), label, label)),
        ("series_parallel", n, _graph(n, diamond_ladder_pairs(n), label, label)),
        ("euler_cycle", n_eu, euler_host(rng, n_eu, m_eu)),
    ]


def explore(rng: random.Random, cycles: int) -> list:
    out = []
    for _ in range(cycles):
        cycle = []
        for k in range(3):
            for i, (program, n, text) in enumerate(explore_hosts(rng, k)):
                cycle.append(_request(f"{program}/{i}/r{k}", program, n, text, rung=k))
        out.append(cycle)
    return out


# -- laws: the labelled universe of hosts with <= 3 nodes, <= 3 edges ----

LAW_LABELS = ((), (0,), ("a",))
LAW_MAX_EDGES = 3


def law_universe(n: int) -> tuple:
    """The rung-n slice of the labelled universe, as two factor lists:
    node-label multisets and edge multisets.  Every pair of one of each
    is a distinct labelled host, so drawing both uniformly draws the
    host uniformly."""
    node_labels = list(itertools.combinations_with_replacement(LAW_LABELS, n))
    slots = [(s, t, lab) for s in range(n) for t in range(n) for lab in LAW_LABELS]
    edge_sets = [
        combo
        for m in range(LAW_MAX_EDGES + 1)
        for combo in itertools.combinations_with_replacement(slots, m)
    ]
    return node_labels, edge_sets


def law_host(node_labels: tuple, edge_set: tuple) -> str:
    nodes = [(f"n{i + 1}", lab) for i, lab in enumerate(node_labels)]
    edges = [
        (f"e{k + 1}", f"n{s + 1}", f"n{t + 1}", lab)
        for k, (s, t, lab) in enumerate(edge_set)
    ]
    return host_text(nodes, edges)


LAW_RUNGS = (1, 2, 3)


def laws(rng: random.Random, cycles: int) -> list:
    """One host per rung (node count) per cycle, uniform within the rung.
    The single host with no nodes has no rung and is left out."""
    universes = {n: law_universe(n) for n in LAW_RUNGS}
    out = []
    for _ in range(cycles):
        cycle = []
        for n in LAW_RUNGS:
            node_labels, edge_sets = universes[n]
            text = law_host(rng.choice(node_labels), rng.choice(edge_sets))
            cycle.append(_request(f"laws/n{n}", "laws", n, text))
        out.append(cycle)
    return out


# -- the workloads -------------------------------------------------------

# generate: (rng, cycles) -> cycles; cycles: list length, enough that a
# run at the seed commit does not wrap round; trace_cycles: the fixed
# prefix the traced run covers; tail: the latency percentile reported,
# chosen so that at least ten top-rung samples lie beyond it at the seed
# commit.
WORKLOADS = {
    "run-euler": dict(generate=run_euler, cycles=120, trace_cycles=8, tail=80),
    "run-recognize": dict(generate=run_recognize, cycles=64, trace_cycles=6, tail=95),
    "explore": dict(generate=explore, cycles=40, trace_cycles=6, tail=90),
    "laws": dict(generate=laws, cycles=1500, trace_cycles=150, tail=90),
}


def build(name: str, seed: int) -> list:
    spec = WORKLOADS[name]
    return spec["generate"](random.Random(f"{name}:{seed}"), spec["cycles"])
