"""Time the generated rewrite (`rules.apply`) against a direct construction
of its result (`genlib.reference_apply`), which evaluates the right labels
by interpretation, builds new `nodes` and `edges` dicts and leaves the
indexes unbuilt, where the rewrite evaluates them in generated code and
keeps the built indexes up to date.

    PYTHONPATH=src python tests/rewrite_timing.py [rounds] [cycles]

For each benchmark workload it serves the first `cycles` cycles (4 by
default) of the seed 5 request list, as `perfbench/worker.py` does: once
so that every rule is compiled, once to print the share of request time
spent in `apply`, and once to record every applied match with a copy of
the graph it was applied to.  It then times both rewrites on those
matches, in place on fresh copies made outside the timed region, the side
that goes first alternating from round to round, and prints the median of
the rounds (5 by default) for each side.  The name does not match
`test_*.py`, so the test suite does not collect it.
"""

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from worker import Workload, import_gp2  # noqa: E402

gp2 = import_gp2()
import gp2.confluence  # noqa: E402
import gp2.executor  # noqa: E402
import gp2.rules  # noqa: E402
from genlib import reference_apply  # noqa: E402

MODULES = (gp2.rules, gp2.executor, gp2.confluence)  # every module that binds `apply`
SEED = 5


def serve_all(workload: Workload, requests: list, wrap) -> float:
    """Serve the requests with `apply` replaced by wrap(apply) in every
    module; the seconds the requests took."""
    original = gp2.rules.apply
    for module in MODULES:
        module.apply = wrap(original)
    try:
        start = time.perf_counter()
        for i, req in enumerate(requests):
            workload.serve(req, SEED + i)
        return time.perf_counter() - start
    finally:
        for module in MODULES:
            module.apply = original


def apply_share(workload: Workload, requests: list) -> float:
    spent = 0

    def wrap(apply):
        def timed(*args, **kwargs):
            nonlocal spent
            start = time.perf_counter_ns()
            try:
                return apply(*args, **kwargs)
            finally:
                spent += time.perf_counter_ns() - start

        return timed

    total = serve_all(workload, requests, wrap)
    return spent / 1e9 / total


def recorded(workload: Workload, requests: list) -> list:
    """(schema, graph, match) of every applied match, the graph a copy of
    the one it was applied to, with the same indexes built."""
    calls = []

    def wrap(apply):
        def record(schema, host, match, copy=True):
            calls.append((schema, host.copy(), match))
            return apply(schema, host, match, copy)

        return record

    serve_all(workload, requests, wrap)
    return calls


def replay(fn, calls: list) -> float:
    graphs = [host.copy() for _, host, _ in calls]
    start = time.perf_counter()
    for (schema, _, match), graph in zip(calls, graphs):
        fn(schema, graph, match, False)
    return time.perf_counter() - start


def main() -> None:
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    cycles = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    sides = {"apply": gp2.rules.apply, "reference": reference_apply}
    print(f"seed {SEED}, {cycles} cycles per workload, median of {rounds} rounds")
    for name in workloads.WORKLOADS:
        workload = Workload(name, gp2)
        requests = [r for cycle in workloads.build(name, SEED)[:cycles] for r in cycle]
        serve_all(workload, requests, lambda apply: apply)  # compiles every rule first
        share = apply_share(workload, requests)
        calls = recorded(workload, requests)
        times = {side: [] for side in sides}
        for r in range(rounds):
            for side in list(sides) if r % 2 == 0 else list(sides)[::-1]:
                times[side].append(replay(sides[side], calls))
        new, ref = (statistics.median(times[side]) * 1e3 for side in sides)
        print(
            f"{name:14s} apply share {share:6.1%}  {len(calls):6,} rewrites"
            f"  apply {new:8.2f} ms  reference {ref:8.2f} ms  ratio {new / ref:.2f}"
        )


if __name__ == "__main__":
    main()
