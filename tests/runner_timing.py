"""Time `run_one` against the big-step `genlib.ReferenceRunner`.

    PYTHONPATH=src python tests/runner_timing.py [rounds]

The probe is the first 300 programs that `test_runner.py` draws (seed
80), each on its host under the step limits 5, 40 and 10,000 and the
seeds 0, 1 and 2.  Each round times both runners on every case,
untraced and then traced, the side that goes first alternating from
round to round.  It prints the median of the rounds (5 by default) for
each side and mode, and the ratio of `run_one` to the reference.  The
name does not match `test_*.py`, so the test suite does not collect it.
"""

import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from genlib import random_body, reference_run_one, small_hosts  # noqa: E402
from gp2.executor import Budget, run_one  # noqa: E402
from gp2.program import CheckedProgram  # noqa: E402
from test_explorer import RULES  # noqa: E402

PROGRAMS = 300


def cases() -> list:
    """The runs of the first PROGRAMS programs, drawn as `test_runner.py`
    draws them."""
    rng = random.Random(80)
    hosts = small_hosts(2, 2)
    names = tuple(RULES)
    out = []
    for _ in range(PROGRAMS):
        body = random_body(rng, names, depth=4)
        host = rng.choice(hosts)
        for max_steps in (5, 40, 10_000):
            for seed in range(3):
                out.append((body, host, Budget(max_steps=max_steps, seed=seed)))
    return out


def run_all(cases: list, tracing: bool) -> int:
    return sum(run_one(CheckedProgram(RULES, b), h, budget, tracing).steps for b, h, budget in cases)


def reference_all(cases: list, tracing: bool) -> int:
    return sum(reference_run_one(b, h, budget, RULES, tracing).steps for b, h, budget in cases)


def main() -> None:
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    runs = cases()
    sides = {"run_one": run_all, "reference": reference_all}
    times = {(side, tracing): [] for side in sides for tracing in (False, True)}
    for r in range(rounds):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for side in order:
            for tracing in (False, True):
                start = time.perf_counter()
                steps = sides[side](runs, tracing)
                times[side, tracing].append(time.perf_counter() - start)
    print(f"{len(runs)} runs, {steps:,} steps per side and mode, median of {rounds} rounds")
    for tracing in (False, True):
        new, ref = (statistics.median(times[side, tracing]) for side in sides)
        mode = "traced" if tracing else "untraced"
        print(f"{mode:9s} run_one {new:.3f} s  reference {ref:.3f} s  ratio {new / ref:.2f}")


if __name__ == "__main__":
    main()
