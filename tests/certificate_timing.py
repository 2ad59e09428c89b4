"""Count and time what certifying graphs costs on the `explore` and `laws`
requests, with the content table comparing contents up to edge ids
(`gp2.graphs._Content`) and with their edge ids (`genlib.ExactContent`,
its reference).

    PYTHONPATH=src python tests/certificate_timing.py [rounds] [cycles] [workload ...]

For each workload named (`explore` and `laws` by default) it takes the
first `cycles` cycles of the seed 5 request list (by default 8 for
`explore` and 100 for `laws`, the cycles that `tests/test_certificates.py`
pins) and serves them as `perfbench/worker.py` does.  For each side it
serves the first cycle once, so that every rule is compiled and every
loop verdict is in place, then every request while counting the
canonical forms computed (and the time they took), the graphs certified
into a content table and the graphs that took a certificate from one, as
the pinned tests count them (`test_certificates.count_certification`).
It then times every request uncounted, the side that goes first
alternating from round to round, checks that both sides give the same
outputs, and prints for each request class the median over the rounds
(5 by default) of the mean time per request.  The name does not match
`test_*.py`, so the test suite does not collect it.
"""

import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from worker import Workload, import_gp2  # noqa: E402

gp2 = import_gp2()
import gp2.graphs  # noqa: E402
import pytest  # noqa: E402
from genlib import ExactContent  # noqa: E402
from test_certificates import count_certification  # noqa: E402

SEED = 5
CYCLES = {"explore": 8, "laws": 100}
SIDES = {"up to edge ids": gp2.graphs._Content, "id-exact": ExactContent}


def serve_all(workload: Workload, requests: list) -> list:
    return [workload.serve(req, SEED + i) for i, req in enumerate(requests)]


def counted(workload: Workload, requests: list) -> Counter:
    """`count_certification`'s counts while the requests are served, and
    the seconds they took."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        counts = count_certification(monkeypatch)
        start = time.perf_counter()
        serve_all(workload, requests)
        counts["serve_s"] = time.perf_counter() - start
    return counts


def timed(workload: Workload, requests: list) -> tuple[dict, list]:
    """The mean seconds per request of each class, and the outputs."""
    spent: dict = defaultdict(list)
    outputs = []
    for i, req in enumerate(requests):
        start = time.perf_counter()
        outputs.append(workload.serve(req, SEED + i))
        spent[req["cls"]].append(time.perf_counter() - start)
    return {cls: statistics.fmean(s) for cls, s in spent.items()}, outputs


def main() -> None:
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    cycles = int(sys.argv[2]) if len(sys.argv) > 2 else None
    names = sys.argv[3:] or list(CYCLES)
    print(f"seed {SEED}, median of {rounds} rounds")
    for name in names:
        workload = Workload(name, gp2)
        count = cycles or CYCLES.get(name, 8)
        chosen = workloads.build(name, SEED)[:count]
        requests = [r for cycle in chosen for r in cycle]
        print(f"\n{name}: {count} cycles, {len(requests)} requests")
        times: dict = {side: defaultdict(list) for side in SIDES}
        for side, content in SIDES.items():
            gp2.graphs._Content = content
            serve_all(workload, chosen[0])
            c = counted(workload, requests)
            print(
                f"  {side:15s} forms {c['forms']:6,}  certified {c['certified']:6,}"
                f"  reused {c['reused']:6,}  forms took {c['form_s']:.3f} s"
                f" of {c['serve_s']:.3f} s ({c['form_s'] / c['serve_s']:.1%})"
            )
        for r in range(rounds):
            outputs = []
            for side in list(SIDES) if r % 2 == 0 else list(SIDES)[::-1]:
                gp2.graphs._Content = SIDES[side]
                per_class, out = timed(workload, requests)
                outputs.append(out)
                for cls, seconds in per_class.items():
                    times[side][cls].append(seconds)
            assert outputs[0] == outputs[1], name
        gp2.graphs._Content = SIDES["up to edge ids"]
        new, old = (times[side] for side in SIDES)
        print(f"  {'class':22s} {'up to ids ms':>12s} {'id-exact ms':>12s} {'ratio':>6s}")
        for cls in new:
            a, b = (statistics.median(t[cls]) * 1e3 for t in (new, old))
            print(f"  {cls:22s} {a:12.3f} {b:12.3f} {a / b:6.2f}")


if __name__ == "__main__":
    main()
