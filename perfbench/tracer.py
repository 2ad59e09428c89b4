"""Span recorder for the traced run.

Wraps the public functions of each gp2 layer at every module that calls
them (a name imported with ``from .rules import enumerate_matches`` is a
separate binding in ``gp2.executor``), and the layer methods on their
classes.  Each call, and each ``next()`` of a generator, becomes a span:
name, start, end, parent span and request id.  Spans are kept in memory
in flat arrays and written out once, at the end of the run.  Self time
is a span's duration minus the time its child spans cover; spans nest
strictly because the program is single-threaded.

Spans are recorded only while a request (or the traced set-up) is open,
so output checks after a request add nothing.
"""

from __future__ import annotations

import json
import weakref
from array import array
from collections import Counter
from time import perf_counter_ns

# span names, in the order they are numbered in the written file
LAYERS = (
    "request",
    "parsing.host",
    "parsing.program",
    "program.check",
    "executor.run",
    "executor.explore",
    "executor.equiv",
    "rules.match",
    "rules.infer",
    "rules.apply",
    "labels.eval",
    "labels.cond",
    "graphs.copy",
    "graphs.scan",
    "graphs.iso",
    "graphs.signature",
    "graphs.store",
    "graphs.to_text",
)
_ID = {name: i for i, name in enumerate(LAYERS)}


class Recorder:
    """Spans in parallel arrays, plus counters taken at the same wrappers."""

    def __init__(self) -> None:
        self.name = array("B")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.counts: Counter = Counter()
        self.current = -1  # index of the innermost open span
        self.request_id = -1  # -1 while no request is open
        self.steps_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @property
    def active(self) -> bool:
        return self.request_id >= 0

    def open(self, name: str) -> int:
        index = len(self.name)
        self.name.append(_ID[name])
        self.parent.append(self.current)
        self.request.append(self.request_id)
        self.end.append(0)
        self.current = index
        self.start.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self.current = self.parent[index]

    def begin_request(self, request_id: int) -> int:
        self.request_id = request_id
        return self.open("request")

    def end_request(self, index: int) -> None:
        self.close(index)
        self.request_id = -1

    def __len__(self) -> int:
        return len(self.name)

    # -- analysis -------------------------------------------------------

    def self_times(self) -> list:
        """Per-span self time in ns: duration minus child durations."""
        own = [e - s for s, e in zip(self.start, self.end)]
        out = own[:]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= own[i]
        return out

    def self_by_layer(self) -> dict:
        totals = dict.fromkeys(LAYERS, 0)
        for i, t in enumerate(self.self_times()):
            totals[LAYERS[self.name[i]]] += t
        return {name: t / 1e9 for name, t in totals.items()}

    def write(self, stem) -> None:
        """Write `<stem>.json` (layout) and `<stem>.bin` (the columns, one
        after another, in native byte order)."""
        columns = ("name", "start", "end", "parent", "request")
        with open(f"{stem}.bin", "wb") as fh:
            for col in columns:
                getattr(self, col).tofile(fh)
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": len(self),
                    "columns": {c: getattr(self, c).typecode for c in columns},
                    "typecodes": "Python array module: B uint8, i int32, q int64",
                    "names": LAYERS,
                    "counts": dict(self.counts),
                },
                fh,
                indent=1,
            )


# -- wrappers ------------------------------------------------------------


def _call(rec: Recorder, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if after is not None:
            after(rec, result, args, kwargs)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _generator(rec: Recorder, name: str, fn, count: str = ""):
    """Time a generator per next(), so lazy work is charged to its layer."""

    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            if not rec.active:
                try:
                    item = next(inner)
                except StopIteration:
                    return
            else:
                span = rec.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    rec.close(span)
                if count:
                    rec.counts[count] += 1
            yield item

    wrapper.__wrapped__ = fn
    return wrapper


def _counter(key: str, true_key: str = ""):
    def after(rec, result, args, kwargs):
        rec.counts[key] += 1
        if true_key and result:
            rec.counts[true_key] += 1

    return after


def _count_engine_steps(rec, result, args, kwargs):
    engine = args[0]
    seen = rec.steps_seen.get(engine, 0)
    rec.counts["executor.steps"] += engine.steps - seen
    rec.steps_seen[engine] = engine.steps
    rec.counts["executor.semantics_calls"] += 1


def _count_run_steps(rec, result, args, kwargs):
    rec.counts["executor.steps"] += result.steps


def _count_host_bytes(rec, result, args, kwargs):
    rec.counts["parsing.host_bytes"] += len(args[0].encode("utf-8"))


def _store_op(method: str):
    """IsoStore.get hits when it finds a value, put when it inserts nothing."""

    def after(rec, result, args, kwargs):
        rec.counts["graphs.store_ops"] += 1
        if method == "get":
            default = args[2] if len(args) > 2 else kwargs.get("default")
            hit = result is not default
        else:
            hit = not result
        rec.counts["graphs.store_hits"] += int(hit)

    return after


def install(gp2) -> tuple:
    """Wrap every layer boundary; returns (recorder, uninstall callback)."""
    import gp2.executor as executor
    import gp2.graphs as graphs
    import gp2.parsing as parsing
    import gp2.program as program
    import gp2.rules as rules

    rec = Recorder()
    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def rebind(attr, modules, make):
        """Replace one function under every name it is imported as."""
        fn = getattr(modules[0], attr)
        wrapped = make(fn)
        for module in modules:
            assert getattr(module, attr) is fn, (module, attr)
            patch(module, attr, wrapped)

    def functions(attr, name, modules, after=None):
        rebind(attr, modules, lambda fn: _call(rec, name, fn, after))

    functions("parse_host_graph", "parsing.host", [parsing, gp2], _count_host_bytes)
    functions("parse_program", "parsing.program", [parsing, gp2])
    functions("checked", "program.check", [program, gp2])
    functions("run_one", "executor.run", [executor, gp2], _count_run_steps)
    functions("equivalent", "executor.equiv", [executor, gp2])
    functions("apply", "rules.apply", [rules, executor], _counter("rules.apply_calls"))
    functions("infer_assignment", "rules.infer", [rules], _counter("rules.candidates"))
    functions("eval_list", "labels.eval", [rules])
    functions(
        "eval_condition",
        "labels.cond",
        [rules],
        _counter("labels.cond_calls", "labels.cond_true"),
    )
    functions(
        "isomorphic",
        "graphs.iso",
        [graphs, executor, gp2],
        _counter("graphs.iso_calls", "graphs.iso_true"),
    )
    rebind(
        "enumerate_matches",
        [rules, executor],
        lambda fn: _generator(rec, "rules.match", fn, "rules.matches"),
    )

    host_graph = graphs.HostGraph
    patch(
        executor.Engine,
        "semantics",
        _call(rec, "executor.explore", executor.Engine.semantics, _count_engine_steps),
    )
    patch(host_graph, "copy", _call(rec, "graphs.copy", host_graph.copy))
    patch(host_graph, "signature", _call(rec, "graphs.signature", host_graph.signature))
    patch(host_graph, "to_text", _call(rec, "graphs.to_text", host_graph.to_text))
    patch(
        host_graph,
        "degree",
        _call(rec, "graphs.scan", host_graph.degree, _counter("graphs.scan_calls")),
    )
    for attr in ("incident_edges", "edges_between"):
        wrapped = _generator(rec, "graphs.scan", getattr(host_graph, attr))
        patch(host_graph, attr, _call_counted(rec, wrapped))

    store = graphs.IsoStore
    for method in ("get", "put"):
        patch(store, method, _call(rec, "graphs.store", getattr(store, method), _store_op(method)))
    patch(store, "set", _store_set(rec, store.set))

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return rec, uninstall


def _call_counted(rec: Recorder, wrapped_generator):
    """Count a scan generator once per call, not once per next()."""

    def wrapper(*args, **kwargs):
        if rec.active:
            rec.counts["graphs.scan_calls"] += 1
        return wrapped_generator(*args, **kwargs)

    return wrapper


def _store_set(rec: Recorder, fn):
    """IsoStore.set returns nothing; it hits when the store does not grow."""
    inner = _call(rec, "graphs.store", fn)

    def wrapper(store, graph, value):
        if not rec.active:
            return fn(store, graph, value)
        before = len(store)
        inner(store, graph, value)
        rec.counts["graphs.store_ops"] += 1
        rec.counts["graphs.store_hits"] += int(len(store) == before)

    return wrapper
