"""Time the one search per schema (`rules.enumerate_matches`) against the
two-phase path that it replaced (`genlib.two_phase_matches`: the plain
search of the left graph, then the condition and dangling test).

    PYTHONPATH=src python tests/match_timing.py [rounds] [cycles] [workload ...]

For each workload named (`run-recognize` by default) it serves the first
`cycles` cycles (4 by default) of the seed 5 request list, as
`perfbench/worker.py` does: once so that every rule is compiled, once to
print the share of request time spent in `enumerate_matches`, and once to
record every call of it with a copy of the graph it searched.  It then
runs both paths over those calls, the side that goes first alternating
from round to round, checks that they agree on matches and warnings, and
prints the median of the rounds (5 by default) for each side.  The name
does not match `test_*.py`, so the test suite does not collect it.
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
from genlib import two_phase_matches  # noqa: E402

MODULES = (gp2.rules, gp2.executor, gp2.confluence)  # every module that binds it
SEED = 5


def serve_all(workload: Workload, requests: list, wrap) -> float:
    """Serve the requests with `enumerate_matches` replaced by
    wrap(enumerate_matches) in every module; the seconds they took."""
    original = gp2.rules.enumerate_matches
    for module in MODULES:
        module.enumerate_matches = wrap(original)
    try:
        start = time.perf_counter()
        for i, req in enumerate(requests):
            workload.serve(req, SEED + i)
        return time.perf_counter() - start
    finally:
        for module in MODULES:
            module.enumerate_matches = original


def match_share(workload: Workload, requests: list) -> float:
    spent = 0

    def wrap(enumerate_matches):
        def timed(*args, **kwargs):
            nonlocal spent
            matches = enumerate_matches(*args, **kwargs)
            while True:  # a caller may take only the first match
                start = time.perf_counter_ns()
                try:
                    match = next(matches)
                except StopIteration:
                    return
                finally:
                    spent += time.perf_counter_ns() - start
                yield match

        return timed

    total = serve_all(workload, requests, wrap)
    return spent / 1e9 / total


def recorded(workload: Workload, requests: list) -> list:
    """(schema, graph) of every search, the graph a copy of the one
    searched, with the same indexes built."""
    calls = []

    def wrap(enumerate_matches):
        def record(schema, host, warnings=None):
            calls.append((schema, host.copy()))
            return enumerate_matches(schema, host, warnings)

        return record

    serve_all(workload, requests, wrap)
    return calls


def replay(fn, calls: list) -> tuple[float, list]:
    out = []
    start = time.perf_counter()
    for schema, graph in calls:
        warnings: list[str] = []
        out.append((list(fn(schema, graph, warnings)), warnings))
    return time.perf_counter() - start, out


def main() -> None:
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    cycles = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    names = sys.argv[3:] or ["run-recognize"]
    sides = {"one search": gp2.rules.enumerate_matches, "two-phase": two_phase_matches}
    print(f"seed {SEED}, {cycles} cycles per workload, median of {rounds} rounds")
    for name in names:
        workload = Workload(name, gp2)
        requests = [r for cycle in workloads.build(name, SEED)[:cycles] for r in cycle]
        serve_all(workload, requests, lambda matches: matches)  # compiles every rule first
        share = match_share(workload, requests)
        calls = recorded(workload, requests)
        times: dict = {side: [] for side in sides}
        for r in range(rounds):
            results = []
            for side in list(sides) if r % 2 == 0 else list(sides)[::-1]:
                seconds, out = replay(sides[side], calls)
                times[side].append(seconds)
                results.append(out)
            assert results[0] == results[1], name
        new, old = (statistics.median(times[side]) * 1e3 for side in sides)
        print(
            f"{name:14s} match share {share:6.1%}  {len(calls):6,} searches"
            f"  one search {new:8.2f} ms  two-phase {old:8.2f} ms  ratio {new / old:.2f}"
        )


if __name__ == "__main__":
    main()
