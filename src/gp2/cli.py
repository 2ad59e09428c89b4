"""Command-line entry point: run, explore, and validate graph programs."""

import argparse
import sys

from .executor import BOTTOM_POSSIBLE, Budget, Engine, run_one
from .graphs import HostGraph
from .parsing import ParseError, parse_host_graph, parse_program
from .program import CheckError, check_program, checked

EXIT_GRAPH = 0
EXIT_FAIL = 1
EXIT_BUDGET = 2
EXIT_ERROR = 3


class OutputError(Exception):
    """A result that cannot be printed."""


def _printed(render) -> str:
    """`render()`, whose one ValueError is an integer with more digits than
    int-to-str conversion allows."""
    try:
        return render()
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise OutputError(
            f"cannot print the result: it holds an integer of more than {limit} digits"
        ) from None


def _emit(text: str, output: str | None) -> None:
    if output is None:
        print(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _load_program(path: str):
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    return checked(parse_program(source))


def _load_graph(path: str) -> HostGraph:
    with open(path, encoding="utf-8") as fh:
        return parse_host_graph(fh.read())


def _budget(args: argparse.Namespace) -> Budget:
    return Budget(
        max_steps=args.max_steps,
        max_configs=args.max_configs,
        seed=args.seed,
    )


def cmd_run(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    graph = _load_graph(args.graph)
    outcome = run_one(program, graph, budget=_budget(args), tracing=args.trace)
    lines = []
    for warning in outcome.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.trace:
        lines.extend(f"# {entry}" for entry in outcome.trace)
    if outcome.kind == "graph":
        lines.append(_printed(outcome.graph.to_text))
        code = EXIT_GRAPH
    elif outcome.kind == "fail":
        lines.append("fail")
        code = EXIT_FAIL
    else:
        lines.append("bound exceeded")
        code = EXIT_BUDGET
    _emit("\n".join(lines), args.output)
    return code


def cmd_semantics(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    graph = _load_graph(args.graph)
    engine = Engine(program.rules, budget=_budget(args))
    results = engine.semantics(program.main, graph)
    for warning in engine.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _emit(_printed(results.describe), args.output)
    # a truncated exploration may have missed results
    return EXIT_BUDGET if results.bottom == BOTTOM_POSSIBLE else EXIT_GRAPH


def cmd_check(args: argparse.Namespace) -> int:
    with open(args.program, encoding="utf-8") as fh:
        ast = parse_program(fh.read())
    violations = check_program(ast)
    if violations:
        for v in violations:
            print(str(v))
        return EXIT_ERROR
    print("ok")
    return EXIT_GRAPH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gp2", description="Run and analyse GP 2 graph programs."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-steps", type=int, default=10_000)
        p.add_argument("--max-configs", type=int, default=100_000)
        p.add_argument("--output", default=None)

    run_p = sub.add_parser("run", help="execute one run of a program on a host graph")
    run_p.add_argument("program")
    run_p.add_argument("graph")
    run_p.add_argument("--trace", action="store_true")
    common(run_p)
    run_p.set_defaults(func=cmd_run)

    sem_p = sub.add_parser(
        "semantics", help="compute the full result set of a program on a host graph"
    )
    sem_p.add_argument("program")
    sem_p.add_argument("graph")
    common(sem_p)
    sem_p.set_defaults(func=cmd_semantics)

    check_p = sub.add_parser("check", help="validate a program without running it")
    check_p.add_argument("program")
    check_p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    # argparse exits 2 on a usage error, which means an exhausted budget
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # 0 after --help
        return EXIT_ERROR if exc.code else EXIT_GRAPH
    for flag in ("--max-steps", "--max-configs"):
        if getattr(args, flag[2:].replace("-", "_"), 0) < 0:
            print(f"error: {flag} must not be negative", file=sys.stderr)
            return EXIT_ERROR
    try:
        return args.func(args)
    # UnicodeDecodeError: an input file that is not UTF-8; RecursionError:
    # a program nested deeper than what still recurses allows: bracket
    # nesting and `if` chains in the parser, and nested premises under
    # `semantics` (label and condition chains, and premises under `run`,
    # do not recurse)
    except (
        ParseError, CheckError, OutputError, OSError, UnicodeDecodeError, RecursionError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
