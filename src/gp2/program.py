"""Program abstract syntax: commands, declarations, and static checking."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .rules import ConditionalRuleSchema, Violation, validate


class _Printed:
    """Commands print through `show`."""

    def __str__(self) -> str:
        return show(self)


@dataclass(frozen=True)
class Skip(_Printed):
    pass


@dataclass(frozen=True)
class Fail(_Printed):
    pass


@dataclass(frozen=True)
class RuleSetCall(_Printed):
    names: tuple[str, ...]
    # a bare identifier prints without braces
    bare: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class Seq(_Printed):
    items: tuple["Command", ...]


@dataclass(frozen=True)
class If(_Printed):
    cond: "Command"
    then: "Command"
    els: Optional["Command"] = None


@dataclass(frozen=True)
class Try(_Printed):
    cond: "Command"
    then: "Command"
    els: Optional["Command"] = None


@dataclass(frozen=True)
class Loop(_Printed):
    body: "Command"


@dataclass(frozen=True)
class Or(_Printed):
    left: "Command"
    right: "Command"


Command = Union[Skip, Fail, RuleSetCall, Seq, If, Try, Loop, Or]


def subcommands(c: Command) -> tuple[Command, ...]:
    """The commands directly nested in c, in source order."""
    if isinstance(c, Seq):
        return c.items
    if isinstance(c, (If, Try)):
        return (c.cond, c.then) if c.els is None else (c.cond, c.then, c.els)
    if isinstance(c, Loop):
        return (c.body,)
    if isinstance(c, Or):
        return (c.left, c.right)
    return ()


def commands(c: Command) -> Iterator[Command]:
    """Yield c and every command nested in it, each command before the
    ones nested in it, in source order."""
    stack = [c]
    while stack:
        c = stack.pop()
        yield c
        stack.extend(reversed(subcommands(c)))


def flatten(command: Command) -> tuple[Command, ...]:
    """The commands that command runs in turn, its sequences spliced in."""
    if not isinstance(command, Seq):
        return (command,)
    out: list[Command] = []
    stack = [command]
    while stack:
        c = stack.pop()
        if isinstance(c, Seq):
            stack += reversed(c.items)
        else:
            out.append(c)
    return tuple(out)


def _bracketed(c: Command, kinds: tuple) -> list:
    return ["(", c, ")"] if isinstance(c, kinds) else [c]


def _pieces(c: Command) -> list:
    """The text of c as strings and the commands nested in it, in order."""
    if isinstance(c, RuleSetCall):
        if c.bare and len(c.names) == 1:
            return [c.names[0]]
        return ["{" + ", ".join(c.names) + "}"]
    if isinstance(c, Seq):
        # bare, an if or try would take the items after it into its last branch
        out = [p for item in c.items for p in ("; ", *_bracketed(item, (If, Try, Or)))]
        return out[1:]
    if isinstance(c, (If, Try)):
        out = ["if " if isinstance(c, If) else "try ", c.cond, " then (", c.then, ")"]
        return out if c.els is None else out + [" else (", c.els, ")"]
    if isinstance(c, Loop):
        return ["(", c.body, ")!"]
    if isinstance(c, Or):
        return ["(", *_bracketed(c.left, (If, Try)), " or ", *_bracketed(c.right, (If, Try)), ")"]
    return ["skip" if isinstance(c, Skip) else "fail"]


def show(command: Command, limit: Optional[int] = None) -> str:
    """The text of command, which parses back to it.  With a limit, printing
    stops once the text is longer than limit, so only a prefix is built.

    Iterative, so a deep command prints without recursion, and with a
    limit a shared macro expansion is never printed whole."""
    out: list[str] = []
    size = 0
    stack = [command]
    while stack:
        c = stack.pop()
        if not isinstance(c, str):
            stack += reversed(_pieces(c))
            continue
        out.append(c)
        size += len(c)
        if limit is not None and size > limit:
            break
    return "".join(out)


def seq(items: list[Command]) -> Command:
    """Build a flattened sequence; a singleton collapses to the command."""
    flat = [c for item in items for c in flatten(item)]
    return flat[0] if len(flat) == 1 else Seq(tuple(flat))


@dataclass
class MacroDecl:
    name: str
    body: Command


@dataclass
class ProgramAST:
    rules: dict[str, ConditionalRuleSchema]
    macros: dict[str, MacroDecl]
    mains: list[Command]  # checked to contain exactly one entry

    @property
    def main(self) -> Command:
        return self.mains[0]


@dataclass
class CheckedProgram:
    """A validated program with macros expanded away from the main body."""

    rules: dict[str, ConditionalRuleSchema]
    main: Command


class CheckError(Exception):
    def __init__(self, violations: list[Violation]):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = violations


def check_program(ast: ProgramAST) -> list[Violation]:
    """Static checks: rule validity, call resolution, macro acyclicity,
    exactly one main."""
    out: list[Violation] = []

    if len(ast.mains) == 0:
        out.append(Violation("program", "top level", "no main declaration"))
    elif len(ast.mains) > 1:
        out.append(Violation("program", "top level", "more than one main declaration"))

    for schema in ast.rules.values():
        out.extend(validate(schema))

    bodies = [(f"macro {m.name}", m.body) for m in ast.macros.values()]
    for where, body in bodies + [("main", main) for main in ast.mains]:
        for command in commands(body):
            if not isinstance(command, RuleSetCall):
                continue
            for name in command.names:
                if name in ast.rules or (command.bare and name in ast.macros):
                    continue
                kind = "rule or macro" if command.bare else "rule"
                out.append(
                    Violation("program", where, f"unresolved {kind} identifier {name!r}")
                )

    # macro recursion check over the reference graph: a depth-first search
    # on an explicit stack, trail holding the macros from its root
    done: dict[str, bool] = {}  # False while on the trail
    for root in ast.macros:
        if root in done:
            continue
        done[root] = False
        trail, stack = [root], [iter(_macro_refs(ast.macros[root].body, ast))]
        while stack:
            ref = next(stack[-1], None)
            if ref is None:
                done[trail.pop()] = True
                stack.pop()
            elif ref not in done:
                done[ref] = False
                trail.append(ref)
                stack.append(iter(_macro_refs(ast.macros[ref].body, ast)))
            elif not done[ref]:
                out.append(
                    Violation(
                        "program",
                        f"macro {ref}",
                        "recursive macro reference: " + " -> ".join(trail + [ref]),
                    )
                )

    return out


def _macro_refs(command: Command, ast: ProgramAST) -> dict[str, None]:
    """The macros command calls, each once, in source order."""
    return dict.fromkeys(
        name
        for c in commands(command)
        if isinstance(c, RuleSetCall) and c.bare
        for name in c.names
        if name in ast.macros
    )


def expand_macros(command: Command, ast: ProgramAST) -> Command:
    """Substitute macro bodies, each expanded once and shared by its calls,
    so the result is a DAG no larger than the program; assumes the
    reference graph is acyclic."""
    done: dict[int, Command] = {}  # the expansion of each command, by identity
    stack = [command]
    while stack:
        c = stack[-1]
        call = isinstance(c, RuleSetCall) and c.bare and c.names[0] in ast.macros
        subs = (ast.macros[c.names[0]].body,) if call else subcommands(c)
        todo = [s for s in subs if id(s) not in done]
        stack += todo
        if not todo:
            stack.pop()
            parts = tuple(done[id(s)] for s in subs)
            if call or isinstance(c, Seq):
                done[id(c)] = parts[0] if call else Seq(parts)
            else:  # If, Try, Loop and Or take their subcommands positionally
                done[id(c)] = type(c)(*parts) if parts else c
    return done[id(command)]


def checked(ast: ProgramAST) -> CheckedProgram:
    violations = check_program(ast)
    if violations:
        raise CheckError(violations)
    return CheckedProgram(ast.rules, expand_macros(ast.main, ast))
