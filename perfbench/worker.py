"""One workload process: set up gp2, serve requests, check every output.

Usage (run.py starts it; the request list arrives as JSON on stdin):

    python3 perfbench/worker.py setup|measure|trace WORKLOAD < requests.json

A request does what the CLI does once the program is loaded: parse the
host text, run, and serialise the result.  Only that is timed.  Each
output is then checked against a reference that does not use the
engine: the oracles in gp2.oracles, the Euler-numbering validator, the
known law verdicts, and text equality with the input where a recogniser
hands back its host.  The result goes to stdout as one JSON line.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
from collections import deque
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# The VM the benchmark was built on drifts in speed by up to 2x over
# minutes as other tenants load its host.  A fixed calibration loop is
# timed before each request, and run.py rescales every time to the speed
# at which the loop takes REFERENCE_NS.  The loop builds, sorts and
# discards small dicts, tuples and sets, as gp2 does; it tracked gp2's
# drift better than pure integer arithmetic.  The garbage collector is
# paused while it runs, so gp2's heap cannot slow it.
CALIBRATION_ROUNDS = 150
CALIBRATION_KEYS = tuple(f"n{i}" for i in range(8))
REFERENCE_NS = 1_250_000

# a budget that no explore or laws request comes near
UNBOUNDED = dict(max_steps=10**8, max_configs=10**7)

# The rules of acceptance criteria 3 and 4 (tests/test_acceptance.py),
# with each law side written as a main command.
LAW_RULES = """
rule remove_edge(x, y, z: list)
  [ (n1, x) (n2, y) | (e1, n1, n2, z) ] => [ (n1, x) (n2, y) | ]
  interface = {n1, n2}
rule remove_loop(x, z: list)
  [ (n1, x) | (e1, n1, n1, z) ] => [ (n1, x) | ] interface = {n1}
rule remove_node(x: list) [ (n1, x) | ] => [ | ] interface = {}
rule create() [ | ] => [ (n1, 0) | ] interface = {}
rule null() [ | ] => [ | ] interface = {}
rule zero() [ (n1, 0) | ] => [ (n1, 0) | ] interface = {n1}
rule relabel(x: list) [ (n1, x) | ] => [ (n1, 0) | ] interface = {n1}
coin = {remove_edge, remove_loop, remove_node}!; {create, null}; zero
"""
# (name, left main, right main, expected verdict on every host)
LAWS = (
    ("skip=null", "skip", "null", "equal"),
    ("fail={}", "fail", "{}", "equal"),
    ("if-else-null", "if relabel then create", "if relabel then create else null", "equal"),
    ("try-else-null", "try relabel then create", "try relabel then create else null", "equal"),
    ("or-skip-fail", "skip or fail", "if coin then skip else fail", "equal"),
    ("or-relabel-skip", "relabel or skip", "if coin then relabel else skip", "equal"),
    (
        "try-if",
        "try (skip or fail) then skip else skip",
        "if (skip or fail) then ((skip or fail); skip) else skip",
        "counterexample",
    ),
)

PROGRAMS = {
    "run-euler": ("euler_cycle",),
    "run-recognize": ("connected", "acyclic", "series_parallel", "eulerian"),
    "explore": ("connected", "series_parallel", "euler_cycle"),
    "laws": (),
}


def import_gp2():
    """Import gp2 from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import gp2
    import gp2.corpus  # noqa: F401  (program texts)

    if Path(gp2.__file__).resolve().parent != SRC / "gp2":
        raise SystemExit(f"gp2 imported from {gp2.__file__}, not {SRC / 'gp2'}")
    return gp2


class Workload:
    """The programs of one workload and how a request runs and is checked."""

    def __init__(self, name: str, gp2) -> None:
        self.name = name
        self.gp2 = gp2
        self.programs = {}
        for program in PROGRAMS[name]:
            text = gp2.corpus.program_text(program)
            self.programs[program] = gp2.checked(gp2.parse_program(text))
        if name == "laws":
            for law, left, right, _ in LAWS:
                self.programs[law] = tuple(
                    gp2.checked(gp2.parse_program(f"{LAW_RULES}\nmain = {side}\n"))
                    for side in (left, right)
                )

    # -- the timed part ---------------------------------------------------

    def serve(self, req: dict, seed: int) -> str:
        gp2 = self.gp2
        host = gp2.parse_host_graph(req["host"])
        if self.name.startswith("run-"):
            outcome = gp2.run_one(
                self.programs[req["program"]], host, gp2.Budget(seed=seed)
            )
            return outcome.graph.to_text() if outcome.kind == "graph" else outcome.kind
        if self.name == "explore":
            program = self.programs[req["program"]]
            engine = gp2.Engine(program.rules, gp2.Budget(**UNBOUNDED))
            results = engine.semantics(program.main, host)
            lines = [g.to_text() for g in results.graphs]
            if results.can_fail:
                lines.append("fail")
            lines.append(f"bottom: {results.bottom}")
            return "\n".join(lines)
        lines = []
        for law, *_ in LAWS:
            p, q = self.programs[law]
            verdict = gp2.equivalent(p, q, [host], gp2.Budget(**UNBOUNDED))
            witness = verdict.counterexample
            lines.append(f"{law}: {verdict.status}")
            if witness is not None:
                lines.append(witness.to_text())
        return "\n".join(lines)

    # -- the check, outside the timed part --------------------------------

    def check(self, req: dict, output: str):
        """None if the output is right, else a one-line reason."""
        from gp2 import oracles

        text = req["host"]
        host = self.gp2.parse_host_graph(text)
        program = req["program"]
        if program == "laws":
            want = []
            for law, _, _, status in LAWS:
                want.append(f"{law}: {status}")
                if status == "counterexample":
                    want.append(text)
            return None if output.split("\n") == want else "law verdicts differ"
        if program == "euler_cycle":
            graphs = output.split("\n")
            if self.name == "explore":
                if graphs[-1:] != ["bottom: none"] or "fail" in graphs:
                    return "euler_cycle result set can fail or diverge"
                graphs = graphs[:-1]
            if not graphs or graphs == ["fail"]:
                return "euler_cycle gave no graph"
            for g in graphs:
                verdict = oracles.validate_euler_numbering(self.gp2.parse_host_graph(g), host)
                if not verdict.verdict:
                    return f"euler numbering: {verdict.reason}"
            return None
        oracle = {
            "connected": oracles.oracle_connected,
            "acyclic": oracles.oracle_acyclic,
            "series_parallel": oracles.oracle_series_parallel,
            "eulerian": oracles.oracle_eulerian,
        }[program]
        accepted = oracle(host)
        # what a successful run hands back: the host, the host stripped of
        # its edges (acyclic deletes them), or nothing (series_parallel
        # reduces the graph away)
        kept = {
            "connected": text,
            "eulerian": text,
            "acyclic": text[: text.index("|")] + "| ]",
            "series_parallel": "[ | ]",
        }[program]
        if self.name == "explore":
            want = f"{kept}\nbottom: none" if accepted else "fail\nbottom: none"
        else:
            want = kept if accepted else "fail"
        return None if output == want else f"{program}: output disagrees with the oracle"


def calibration_loop() -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        for i in range(CALIBRATION_ROUNDS):
            d = {k: (j, i) for j, k in enumerate(CALIBRATION_KEYS)}
            items = sorted(d.items(), key=lambda kv: kv[1], reverse=True)
            seen = {v for _, v in items}
            tuple(kv for kv in items if kv[1] in seen)
        return perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """The calibration loop's time: the median of its last five timings,
    one taken before each request."""

    def __init__(self) -> None:
        self.timings: deque = deque(maxlen=5)

    def current(self) -> float:
        self.timings.append(calibration_loop())
        return statistics.median(self.timings)


def run_requests(workload: Workload, cycles: list, seconds=None, on_request=None):
    """Closed loop, one client: each request starts when the last ended.

    Runs whole cycles, wrapping round the list, until `seconds` have
    passed; with `seconds` None, runs each cycle once.  Returns
    ([cycle index, position, ns, calibration ns] per request, failures,
    error samples)."""
    probe = SpeedProbe()
    samples = []
    failures = 0
    errors: list = []
    start = perf_counter()
    done = 0
    while done < len(cycles) if seconds is None else (
        done == 0 or perf_counter() - start < seconds
    ):
        index = done % len(cycles)
        for pos, req in enumerate(cycles[index]):
            speed = probe.current()
            if on_request is not None:
                on_request(begin=True)
            t0 = perf_counter_ns()
            try:
                output = workload.serve(req, seed=index * 1000 + pos)
                reason = None
            except Exception as exc:  # a raising request counts as failed
                output = None
                reason = f"raised {type(exc).__name__}: {exc}"
            elapsed = perf_counter_ns() - t0
            if on_request is not None:
                on_request(end=True)
            if output is not None:
                try:
                    reason = workload.check(req, output)
                except Exception as exc:  # e.g. an output that does not parse
                    reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                failures += 1
                if len(errors) < 5:
                    errors.append(f"{req['cls']}: {reason}")
            samples.append((index, pos, elapsed, speed))
        done += 1
    return samples, failures, errors


def setup(name: str):
    """Import gp2 and parse and check the workload's programs, timed."""
    t0 = perf_counter()
    gp2 = import_gp2()
    workload = Workload(name, gp2)
    return workload, perf_counter() - t0


def rescaled_setup(name: str):
    """Set-up time, rescaled by the calibration loop timed just after."""
    workload, seconds = setup(name)
    speed = statistics.median(calibration_loop() for _ in range(5))
    return workload, seconds * REFERENCE_NS / speed, seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    mode, name = sys.argv[1], sys.argv[2]
    if name not in PROGRAMS:
        raise SystemExit(f"unknown workload {name!r}")
    if mode == "setup":
        _, setup_s, raw_s = rescaled_setup(name)
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_s}))
        return 0
    job = json.load(sys.stdin)
    cycles = job["cycles"]
    workload, setup_s, raw_s = rescaled_setup(name)
    if mode == "measure":
        samples, failures, errors = run_requests(workload, cycles, job["seconds"])
        result = {"setup_s": setup_s, "raw_setup_s": raw_s, "samples": samples, "failed": failures,
                  "errors": errors, "peak_rss_mb": peak_rss_mb()}
    elif mode == "trace":
        result = trace(workload, cycles, job["stem"])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


def trace(workload: Workload, cycles: list, stem: str) -> dict:
    """One untraced and one traced pass over the same cycles.

    The traced pass starts with a traced re-parse of the programs, so the
    set-up layers are measured too.  Returns the per-layer table."""
    import tracer

    samples, *_ = run_requests(workload, cycles)
    plain_s = sum(sample[2] for sample in samples) / 1e9

    rec, uninstall = tracer.install(workload.gp2)
    try:
        span = rec.begin_request(0)  # request 0 is the traced set-up
        traced = Workload(workload.name, workload.gp2)
        rec.end_request(span)
        state = {"id": 0, "span": -1}

        def on_request(begin=False, end=False):
            if begin:
                state["id"] += 1
                state["span"] = rec.begin_request(state["id"])
            if end:
                rec.end_request(state["span"])

        traced_samples, failures, errors = run_requests(traced, cycles, None, on_request)
    finally:
        uninstall()
    traced_s = sum(sample[2] for sample in traced_samples) / 1e9

    OUT.mkdir(exist_ok=True)
    rec.write(OUT / stem)
    self_s = rec.self_by_layer()
    c = rec.counts

    def ratio(a, b):
        return c[a] / c[b] if c[b] else 0.0

    layers = {
        "parsing.host_s": self_s["parsing.host"],
        "parsing.host_bytes": c["parsing.host_bytes"],
        "parsing.program_s": self_s["parsing.program"],
        "program.check_s": self_s["program.check"],
        "rules.match_s": self_s["rules.match"],
        "rules.candidates": c["rules.candidates"],
        "rules.matches": c["rules.matches"],
        "rules.match_yield": ratio("rules.matches", "rules.candidates"),
        "rules.infer_s": self_s["rules.infer"],
        "labels.eval_s": self_s["labels.eval"],
        "rules.apply_s": self_s["rules.apply"],
        "rules.apply_calls": c["rules.apply_calls"],
        "graphs.copy_s": self_s["graphs.copy"],
        "labels.cond_s": self_s["labels.cond"],
        "labels.cond_calls": c["labels.cond_calls"],
        "labels.cond_true_ratio": ratio("labels.cond_true", "labels.cond_calls"),
        "graphs.scan_s": self_s["graphs.scan"],
        "graphs.scan_calls": c["graphs.scan_calls"],
        "graphs.iso_s": self_s["graphs.iso"],
        "graphs.iso_calls": c["graphs.iso_calls"],
        "graphs.iso_true_ratio": ratio("graphs.iso_true", "graphs.iso_calls"),
        "graphs.signature_s": self_s["graphs.signature"],
        "graphs.store_s": self_s["graphs.store"],
        "graphs.store_ops": c["graphs.store_ops"],
        "graphs.store_hit_ratio": ratio("graphs.store_hits", "graphs.store_ops"),
        "executor.run_s": self_s["executor.run"],
        "executor.explore_s": self_s["executor.explore"],
        "executor.equiv_s": self_s["executor.equiv"],
        "executor.steps": c["executor.steps"],
        "executor.semantics_calls": c["executor.semantics_calls"],
        "graphs.to_text_s": self_s["graphs.to_text"],
        "request.self_s": self_s["request"],
        "trace.request_s": traced_s,
        "trace.spans": len(rec),
        "trace.overhead_ratio": traced_s / plain_s,
    }
    return {"layers": layers, "attempted": len(traced_samples), "failed": failures,
            "errors": errors}


if __name__ == "__main__":
    sys.exit(main())
