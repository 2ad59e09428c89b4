"""List the statements of `src/gp2` that the benchmark's workloads never run.

    PYTHONPATH=src python tests/workload_coverage.py [cycles]

It serves the first `cycles` cycles (8 by default) of the seed 5 request
list of each benchmark workload, as `perfbench/worker.py` does, under
`sys.settrace`, which is installed before gp2 is imported, so that import
and set-up count too.  Outputs are not checked.  Then, for each module of
`src/gp2`, it prints how many of its statements never ran and their line
ranges.  A statement ran if a line of its own ran: for a compound
statement, a line of its header, or of its decorators, not of its body.
Docstrings and other bare constants are not counted.  A module that was
never imported is named as such.  The name does not match `test_*.py`, so
the test suite does not collect it.
"""

import ast
import sys
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gp2"
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from worker import Workload, import_gp2  # noqa: E402

SEED = 5


def tracer(traced: dict) -> Callable:
    """A global trace function that traces the frames of gp2's files only,
    and records in `traced` each file's lines that ran (None for a file
    not of gp2)."""

    def trace_call(frame, event, arg):
        name = frame.f_code.co_filename
        lines = traced.get(name, False)
        if lines is False:
            lines = traced[name] = set() if Path(name).resolve().parent == PACKAGE else None
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def trace_line(frame, event, arg):
            lines.add(frame.f_lineno)
            return trace_line

        return trace_line

    return trace_call


def statements(source: str) -> list[tuple[int, int, set[int]]]:
    """(first line, last line, own lines) of each counted statement, in
    source order; a statement's own lines are its lines that no statement
    inside it holds, with its decorators' lines."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        own = set(range(node.lineno, node.end_lineno + 1))
        for inner in ast.walk(node):
            if inner is not node and isinstance(inner, ast.stmt):
                own -= set(range(inner.lineno, inner.end_lineno + 1))
        for decorator in getattr(node, "decorator_list", ()):
            own |= set(range(decorator.lineno, decorator.end_lineno + 1))
        out.append((min(own), max(own), own))
    out.sort(key=lambda item: item[0])
    return out


def never_ran(source: str, lines: set[int]) -> tuple[int, list[str]]:
    """How many statements did not run, and their line ranges, where a
    range joins statements that follow each other with none that ran."""
    count, ranges, start, end = 0, [], None, None
    for first, last, own in statements(source):
        if own & lines:
            if start is not None:
                ranges.append(f"{start}-{end}" if end > start else str(start))
            start = None
            continue
        count += 1
        start = first if start is None else start
        end = last
    if start is not None:
        ranges.append(f"{start}-{end}" if end > start else str(start))
    return count, ranges


def main() -> None:
    cycles = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    traced: dict[str, set[int] | None] = {}
    sys.settrace(tracer(traced))
    try:
        gp2 = import_gp2()
        for name in workloads.WORKLOADS:
            workload = Workload(name, gp2)
            requests = [r for cycle in workloads.build(name, SEED)[:cycles] for r in cycle]
            for i, req in enumerate(requests):
                workload.serve(req, SEED + i)
    finally:
        sys.settrace(None)
    print(f"seed {SEED}, {cycles} cycles of each workload: statements never run")
    ran = {Path(name).resolve(): lines for name, lines in traced.items() if lines is not None}
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = ran.get(path)
        if lines is None:
            count = len(statements(source))
            print(f"{path.name:14s} {count:4d}  never imported")
        else:
            count, ranges = never_ran(source, lines)
            print(f"{path.name:14s} {count:4d}  {', '.join(ranges)}")
        total += count
    print(f"{'total':14s} {total:4d}")


if __name__ == "__main__":
    main()
