"""The gp2 benchmark: one workload per invocation, in processes of its own.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: run-euler, run-recognize, explore, laws (see README.md).  The
inputs come from --seed; gp2 is imported from src/ of this checkout.

With --trace 0 it prints the end-to-end metrics; with --trace 1 the
per-layer breakdown of a separate traced run.  Each metric is printed
by name with its unit, and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The load is a closed
loop with one client in one thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5  # set-up is measured this many times; the median counts
DEADLINE_S = 170  # every child is stopped before the run reaches this

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "growth_exp": "exponent",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio") or name.endswith("_yield"):
        return "ratio"
    return "count"


class WorkerError(Exception):
    pass


def call_worker(mode: str, name: str, job, deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, name],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            timeout=remaining,
            cwd=ROOT,
            env=env,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker passed the deadline") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- statistics -----------------------------------------------------------


def nearest_rank(values: list, percent: float) -> tuple:
    """(value, samples beyond it) at the nearest-rank percentile."""
    ordered = sorted(values)
    index = max(0, math.ceil(percent / 100 * len(ordered)) - 1)
    return ordered[index], len(ordered) - 1 - index


def slope(xs: list, ys: list) -> float:
    """Least-squares slope of ys against xs."""
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


def latency_metrics(samples: list, cycles: list, tail: float, rescale: bool = True) -> tuple:
    """Latency metrics from [cycle, position, ns, calibration ns] samples.

    Each time is rescaled to the reference speed (see worker.py) unless
    `rescale` is false.  Rungs are the workload's size classes; a rung's
    size is the mean node count of its hosts in the request list.  p50
    and the tail use only the top rung; the growth exponent fits
    log(median latency) against log(size) over all rungs."""
    sizes = defaultdict(list)
    for cycle in cycles:
        for req in cycle:
            sizes[req["rung"]].append(req["n"])
    by_rung = defaultdict(list)
    total_ms = 0.0
    for index, pos, ns, speed in samples:
        ms = ns / 1e6 * (worker.REFERENCE_NS / speed if rescale else 1)
        by_rung[cycles[index][pos]["rung"]].append(ms)
        total_ms += ms
    rungs = sorted(sizes)
    top = by_rung[rungs[-1]]
    tail_ms, beyond = nearest_rank(top, tail)
    medians = [statistics.median(by_rung[r]) for r in rungs]
    size = [statistics.fmean(sizes[r]) for r in rungs]
    metrics = {
        "throughput_rps": len(samples) / (total_ms / 1e3),
        "latency_p50_ms": statistics.median(top),
        "latency_tail_ms": tail_ms,
        "growth_exp": slope([math.log(s) for s in size], [math.log(m) for m in medians]),
    }
    notes = [
        f"latency_tail_ms is p{tail:g} of {len(top)} top-rung samples "
        f"(n = {size[-1]:g}), {beyond} beyond it",
        "median ms per rung: "
        + ", ".join(f"n={s:g}: {m:.3f}" for s, m in zip(size, medians)),
    ]
    return metrics, notes


# -- the two kinds of run ---------------------------------------------------


def end_to_end(name: str, cycles: list, seconds: float, deadline: float) -> dict:
    spec = workloads.WORKLOADS[name]
    call_worker("setup", name, None, deadline)  # warm-up: writes bytecode caches
    probes = [call_worker("setup", name, None, deadline) for _ in range(SETUP_PROBES - 1)]
    result = call_worker("measure", name, {"cycles": cycles, "seconds": seconds}, deadline)
    probes.append(result)
    setups = [p["setup_s"] for p in probes]
    metrics, notes = latency_metrics(result["samples"], cycles, spec["tail"])
    raw, _ = latency_metrics(result["samples"], cycles, spec["tail"], rescale=False)
    speeds = [sample[3] for sample in result["samples"]]
    notes.append(
        f"times are rescaled to the reference speed; the calibration loop took "
        f"{statistics.median(speeds) / 1e6:.3f} ms (median; reference "
        f"{worker.REFERENCE_NS / 1e6:g} ms).  Unscaled: setup_s "
        f"{statistics.median(p['raw_setup_s'] for p in probes):.4g}, "
        + ", ".join(f"{k} {v:.4g}" for k, v in raw.items() if k != "growth_exp")
    )
    metrics = {
        "setup_s": statistics.median(setups),
        **metrics,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    attempted = len(result["samples"])
    notes.append(f"setup_s is the median of {len(setups)} set-ups")
    return dict(
        metrics={k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        attempted=attempted,
        failed=result["failed"],
        errors=result["errors"],
        notes=notes,
    )


def traced(name: str, cycles: list, deadline: float) -> dict:
    spec = workloads.WORKLOADS[name]
    job = {"cycles": cycles[: spec["trace_cycles"]], "stem": f"spans-{name}"}
    result = call_worker("trace", name, job, deadline)
    layers = result["layers"]
    total = layers["trace.request_s"]
    shares = sorted(
        ((v / total, k) for k, v in layers.items() if k.endswith("_s") and k != "trace.request_s"),
        reverse=True,
    )
    notes = [
        "self-time shares of traced request time: "
        + ", ".join(f"{k} {share:.1%}" for share, k in shares[:6]),
        f"spans written to .perfbench-out/{job['stem']}.bin",
    ]
    return dict(
        metrics={k: (v, layer_unit(k)) for k, v in layers.items()},
        attempted=result["attempted"],
        failed=result["failed"],
        errors=result["errors"],
        notes=notes,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "gp2" / "__init__.py").is_file():
        print(f"no gp2 package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cycles = workloads.build(args.workload, args.seed)
    try:
        if args.trace:
            report = traced(args.workload, cycles, deadline)
        else:
            report = end_to_end(args.workload, cycles, args.seconds, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for key, (value, unit) in report["metrics"].items():
        print(f"  {key} = {value:.6g} {unit}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  error_ratio = {failed / attempted:.6g} ({failed} of {attempted} requests)")
    for note in report["notes"]:
        print(f"  # {note}")
    for error in report["errors"]:
        print(f"  ! {error}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
