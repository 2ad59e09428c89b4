"""Program abstract syntax: commands, declarations, and static checking.

Commands subclass the syntax node of `gp2.labels` and join its syntax
table, so they are built, hashed, compared, walked and printed as labels
and conditions are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .labels import _PIECES, _Node, operands, subterms
from .rules import ConditionalRuleSchema, Violation, validate


class Skip(_Node):
    pass


class Fail(_Node):
    pass


class RuleSetCall(_Node, keyword_only=("bare",)):
    names: tuple[str, ...]
    # a bare identifier prints without braces
    bare: bool = False


class Seq(_Node):
    items: tuple["Command", ...]


class If(_Node):
    cond: "Command"
    then: "Command"
    els: Optional["Command"] = None


class Try(_Node):
    cond: "Command"
    then: "Command"
    els: Optional["Command"] = None


class Loop(_Node):
    body: "Command"


class Or(_Node):
    left: "Command"
    right: "Command"


Command = Union[Skip, Fail, RuleSetCall, Seq, If, Try, Loop, Or]


def _bracketed(c: Command, kinds: tuple) -> list:
    return ["(", c, ")"] if isinstance(c, kinds) else [c]


def _branches(keyword: str, c: If | Try) -> list:
    out = [keyword, c.cond, " then (", c.then, ")"]
    return out if c.els is None else out + [" else (", c.els, ")"]


_PIECES.update(
    {
        Skip: lambda c: ["skip"],
        Fail: lambda c: ["fail"],
        RuleSetCall: lambda c: [
            c.names[0] if c.bare and len(c.names) == 1 else "{" + ", ".join(c.names) + "}"
        ],
        # bare, an if or try would take the items after it into its last branch
        Seq: lambda c: [
            p for item in c.items for p in ("; ", *_bracketed(item, (If, Try, Or)))
        ][1:],
        If: lambda c: _branches("if ", c),
        Try: lambda c: _branches("try ", c),
        Loop: lambda c: ["(", c.body, ")!"],
        Or: lambda c: [
            "(", *_bracketed(c.left, (If, Try)), " or ", *_bracketed(c.right, (If, Try)), ")"
        ],
    }
)


def seq(items: list[Command]) -> Command:
    """Build a sequence of items with the sequences nested in them spliced
    in; a singleton collapses to the command."""
    flat: list[Command] = []
    stack = items[::-1]
    while stack:
        c = stack.pop()
        if isinstance(c, Seq):
            stack += reversed(c.items)
        else:
            flat.append(c)
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


@dataclass(eq=False)
class CheckError(Exception):
    violations: list[Violation]

    def __str__(self) -> str:
        return "; ".join(map(str, self.violations))


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
        for command in subterms(body):
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
        for c in subterms(command)
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
        subs = (ast.macros[c.names[0]].body,) if call else operands(c)
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
