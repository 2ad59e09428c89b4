"""Small-step execution of programs: single seeded runs, bounded
exhaustive result sets, and program equivalence checking.

The explorer's configurations are pairs (continuation, graph), where a
continuation is the tuple of commands still to run, sequences spliced in;
() is a result and None failure.  It follows every transition up to a
budget, deduplicates configurations up to graph isomorphism, and reports
divergence or stuckness through a bottom flag.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Union

from .graphs import HostGraph, IsoStore, isomorphic
from .program import (
    CheckedProgram,
    Command,
    Fail,
    If,
    Loop,
    Or,
    RuleSetCall,
    Seq,
    Skip,
    Try,
    seq,
)
from .rules import ConditionalRuleSchema, apply, apply_ruleset, enumerate_matches


@dataclass(frozen=True)
class Unfinished:
    rest: Command
    state: HostGraph = field(compare=False, hash=False)

    # equality/hashing is by rest command only; graphs are compared
    # separately up to isomorphism


@dataclass(frozen=True)
class Result:
    graph: HostGraph = field(compare=False, hash=False)


@dataclass(frozen=True)
class Failure:
    pass


Configuration = Union[Unfinished, Result, Failure]


@dataclass
class Budget:
    max_steps: int = 10_000
    max_configs: int = 100_000
    seed: int = 0


BOTTOM_NONE = "none"
BOTTOM_PROVEN = "proven"
BOTTOM_POSSIBLE = "possible"


@dataclass
class ResultSet:
    """Approximation of the set of results of a program on one graph."""

    graphs: list[HostGraph]
    can_fail: bool
    bottom: str  # none | proven | possible

    def describe(self) -> str:
        parts = [g.to_text() for g in self.graphs]
        if self.can_fail:
            parts.append("fail")
        if self.bottom != BOTTOM_NONE:
            parts.append(f"bottom: {self.bottom}")
        return "\n".join(parts) if parts else "(empty)"


class BudgetExceeded(Exception):
    pass


@dataclass
class TraceEntry:
    step: int
    rule: str
    command: str
    nodes: int
    edges: int

    def __str__(self) -> str:
        return f"{self.step:5d} [{self.rule}] {self.command}  ({self.nodes} nodes, {self.edges} edges)"


# -- exhaustive exploration -------------------------------------------


def _flat(command: Command) -> tuple[Command, ...]:
    """The continuation that runs command, its sequences spliced in."""
    if isinstance(command, Seq):
        return tuple(c for item in command.items for c in _flat(item))
    return (command,)


class Engine:
    """Shared state for one exhaustive-semantics computation."""

    def __init__(self, rules: dict[str, ConditionalRuleSchema], budget: Budget):
        self.rules = rules
        self.budget = budget
        self.steps = 0
        self.warnings: list[str] = []
        # memo of sub-semantics per (command, graph up to iso)
        self._memo: dict[Command, IsoStore] = {}

    def tick(self) -> bool:
        """Account for one transition; False once the budget is spent."""
        if self.steps >= self.budget.max_steps:
            return False
        self.steps += 1
        return True

    def semantics(self, command: Command, graph: HostGraph) -> ResultSet:
        store = self._memo.setdefault(command, IsoStore())
        cached = store.get(graph)
        if cached is not None:
            return cached
        result = self._explore(command, graph)
        # do not cache truncated explorations; a later call may have
        # budget left to finish them
        if result.bottom != BOTTOM_POSSIBLE:
            store.set(graph, result)
        return result

    def _explore(self, command: Command, graph: HostGraph) -> ResultSet:
        # unfinished configurations in breadth-first order, each interned
        # by (continuation, certificate) to its position
        configs = [(_flat(command), graph)]
        index = {(configs[0][0], graph.signature()): 0}
        children: list[list[int]] = []
        results = IsoStore()
        result_list: list[HostGraph] = []
        can_fail = stuck = truncated = False

        for rest, state in configs:  # also visits the ones appended below
            if not self.tick() or len(configs) > self.budget.max_configs:
                truncated = True
                break
            succs, premise_truncated = self._successors(rest, state)
            if premise_truncated:
                truncated = True
            elif not succs:
                stuck = True
            children.append([])
            for cont, h in succs:
                if cont is None:
                    can_fail = True
                elif not cont:
                    if results.put(h):
                        result_list.append(h)
                else:
                    child = index.setdefault((cont, h.signature()), len(configs))
                    if child == len(configs):
                        configs.append((cont, h))
                    children[-1].append(child)

        # an incomplete exploration can only claim "possible"; proven
        # verdicts (stuckness, a closed cycle) need the full graph
        bottom = BOTTOM_NONE
        if truncated:
            bottom = BOTTOM_POSSIBLE
        elif stuck or _has_cycle(children):
            bottom = BOTTOM_PROVEN
        return ResultSet(result_list, can_fail, bottom)

    def _successors(
        self, continuation: tuple[Command, ...], graph: HostGraph
    ) -> tuple[list[tuple[Optional[tuple[Command, ...]], HostGraph]], bool]:
        """The exact successor set of one unfinished configuration.

        The head command steps, and the rest of the continuation rides
        along, which is all that [seq1]-[seq3] say.  The second component
        reports whether a premise discharge ran out of budget, in which
        case successors may be missing.
        """
        head, rest = continuation[0], continuation[1:]
        if isinstance(head, RuleSetCall):
            rules = [self.rules[n] for n in head.names]
            graphs = apply_ruleset(rules, graph, self.warnings)
            if graphs:
                return [(rest, h) for h in graphs], False  # [call1]
            return [(None, graph)], False  # [call2]
        if isinstance(head, Skip):
            return [(rest, graph)], False  # [skip]
        if isinstance(head, Fail):
            return [(None, graph)], False  # [fail]
        if isinstance(head, Or):  # [or1], [or2]
            return [(_flat(head.left) + rest, graph), (_flat(head.right) + rest, graph)], False
        if isinstance(head, (If, Try)):
            sub = self.semantics(head.cond, graph)
            # [try1] / [try3] go on from each result, [if1] / [if3] from graph
            starts = sub.graphs if isinstance(head, Try) else [graph] if sub.graphs else []
            out = [(_flat(head.then) + rest, h) for h in starts]
            if sub.can_fail:  # [if2] / [if4] / [try2] / [try4]
                out.append((rest if head.els is None else _flat(head.els) + rest, graph))
            return out, sub.bottom == BOTTOM_POSSIBLE
        if isinstance(head, Loop):
            sub = self.semantics(head.body, graph)
            out = [(continuation, h) for h in sub.graphs]  # [alap1]
            if sub.can_fail:  # [alap2]
                out.append((rest, graph))
            return out, sub.bottom == BOTTOM_POSSIBLE
        raise TypeError(f"cannot execute {head!r}")


def _has_cycle(children: list[list[int]]) -> bool:
    """Whether a cycle is reachable from configuration 0."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * len(children)
    color[0] = GRAY
    stack = [(0, iter(children[0]))]
    while stack:
        node, it = stack[-1]
        for child in it:
            if color[child] == GRAY:
                return True
            if color[child] == WHITE:
                color[child] = GRAY
                stack.append((child, iter(children[child])))
                break
        else:
            color[node] = BLACK
            stack.pop()
    return False


def successors(
    cfg: Configuration,
    rules: dict[str, ConditionalRuleSchema],
    budget: Optional[Budget] = None,
) -> list[Configuration]:
    """The set of configurations one transition away from cfg."""
    if not isinstance(cfg, Unfinished):
        raise ValueError("terminal configurations have no successors")
    succs, _ = Engine(rules, budget or Budget())._successors(_flat(cfg.rest), cfg.state)
    return [
        Failure() if rest is None else Unfinished(seq(list(rest)), h) if rest else Result(h)
        for rest, h in succs
    ]


def semantics(
    program: CheckedProgram | Command,
    host: HostGraph,
    budget: Optional[Budget] = None,
    rules: Optional[dict[str, ConditionalRuleSchema]] = None,
) -> ResultSet:
    """Breadth-first exhaustive approximation of the result set."""
    if isinstance(program, CheckedProgram):
        command = program.main
        rules = program.rules
    else:
        command = program
        rules = rules or {}
    return Engine(rules, budget or Budget()).semantics(command, host)


# -- single seeded runs ------------------------------------------------


@dataclass
class RunOutcome:
    kind: str  # "graph" | "fail" | "budget"
    graph: Optional[HostGraph]
    steps: int
    warnings: list[str]
    trace: list[TraceEntry]


class _Runner:
    def __init__(self, rules, budget: Budget, tracing: bool):
        self.rules = rules
        self.budget = budget
        self.rng = random.Random(budget.seed)
        self.steps = 0
        self.warnings: list[str] = []
        self.trace: list[TraceEntry] = []
        self.tracing = tracing

    def tick(self, rule: str, command: Command, graph: HostGraph) -> None:
        self.steps += 1
        if self.steps > self.budget.max_steps:
            raise BudgetExceeded()
        if self.tracing:
            self.trace.append(
                TraceEntry(
                    self.steps, rule, _summary(command), len(graph.nodes), len(graph.edges)
                )
            )

    def run(self, command: Command, graph: HostGraph):
        """Evaluate one derivation; returns ('graph', G) or ('fail', G)."""
        if isinstance(command, Seq):
            current = graph
            for item in command.items:
                kind, current = self.run(item, current)
                if kind == "fail":
                    return "fail", graph
            return "graph", current
        if isinstance(command, Skip):
            self.tick("skip", command, graph)
            return "graph", graph
        if isinstance(command, Fail):
            self.tick("fail", command, graph)
            return "fail", graph
        if isinstance(command, RuleSetCall):
            matches = []
            for schema in [self.rules[n] for n in command.names]:
                for g, alpha in enumerate_matches(schema, graph, self.warnings):
                    matches.append((schema, g, alpha))
            if not matches:
                self.tick("call2", command, graph)
                return "fail", graph
            schema, g, alpha = self.rng.choice(matches)
            result = apply(schema, graph, g, alpha)
            self.tick("call1", command, result)
            return "graph", result
        if isinstance(command, Or):
            pick_left = self.rng.random() < 0.5
            self.tick("or1" if pick_left else "or2", command, graph)
            return self.run(command.left if pick_left else command.right, graph)
        if isinstance(command, (If, Try)):
            kind, h = self.run(command.cond, graph)
            name = "try" if isinstance(command, Try) else "if"
            if kind == "graph":
                h = h if name == "try" else graph  # if discards the test's graph
                self.tick(name + ("3" if command.els is None else "1"), command, h)
                return self.run(command.then, h)
            self.tick(name + ("4" if command.els is None else "2"), command, graph)
            if command.els is None:
                return "graph", graph
            return self.run(command.els, graph)
        if isinstance(command, Loop):
            current = graph
            while True:
                kind, nxt = self.run(command.body, current)
                if kind == "fail":
                    self.tick("alap2", command, current)
                    return "graph", current
                self.tick("alap1", command, nxt)
                current = nxt
        raise TypeError(f"cannot execute {command!r}")


def _summary(command: Command) -> str:
    text = str(command)
    return text if len(text) <= 60 else text[:57] + "..."


def run_one(
    program: CheckedProgram | Command,
    host: HostGraph,
    budget: Optional[Budget] = None,
    rules: Optional[dict[str, ConditionalRuleSchema]] = None,
    tracing: bool = False,
) -> RunOutcome:
    """One seeded pseudo-random derivation to a terminal configuration."""
    if isinstance(program, CheckedProgram):
        command = program.main
        rules = program.rules
    else:
        command = program
        rules = rules or {}
    runner = _Runner(rules, budget or Budget(), tracing)
    try:
        kind, graph = runner.run(command, host)
    except BudgetExceeded:
        return RunOutcome("budget", None, runner.steps, runner.warnings, runner.trace)
    if kind == "fail":
        return RunOutcome("fail", None, runner.steps, runner.warnings, runner.trace)
    return RunOutcome("graph", graph, runner.steps, runner.warnings, runner.trace)


# -- equivalence -------------------------------------------------------


@dataclass
class HostVerdict:
    host: HostGraph
    status: str  # equal | different | inconclusive
    detail: str = ""


@dataclass
class EquivalenceVerdict:
    status: str  # equal | counterexample | inconclusive
    per_host: list[HostVerdict]

    @property
    def counterexample(self) -> Optional[HostGraph]:
        for v in self.per_host:
            if v.status == "different":
                return v.host
        return None


def _same_result_set(a: ResultSet, b: ResultSet) -> tuple[bool, str]:
    if a.can_fail != b.can_fail:
        return False, f"can_fail differs: {a.can_fail} vs {b.can_fail}"
    if (a.bottom == BOTTOM_PROVEN) != (b.bottom == BOTTOM_PROVEN):
        return False, f"bottom differs: {a.bottom} vs {b.bottom}"
    if len(a.graphs) != len(b.graphs):
        return False, f"{len(a.graphs)} vs {len(b.graphs)} result graphs"
    store = IsoStore()
    for g in a.graphs:
        store.put(g)
    for g in b.graphs:
        if not store.contains(g):
            return False, f"graph {g.to_text()} only on one side"
    return True, ""


def equivalent(
    p: CheckedProgram | Command,
    q: CheckedProgram | Command,
    hosts: list[HostGraph],
    budget: Optional[Budget] = None,
    rules: Optional[dict[str, ConditionalRuleSchema]] = None,
) -> EquivalenceVerdict:
    """Compare bounded result sets of two programs over the given hosts."""
    per_host: list[HostVerdict] = []
    overall = "equal"
    for host in hosts:
        sa = semantics(p, host, budget, rules)
        sb = semantics(q, host, budget, rules)
        if BOTTOM_POSSIBLE in (sa.bottom, sb.bottom):
            per_host.append(HostVerdict(host, "inconclusive", "budget exhausted"))
            if overall == "equal":
                overall = "inconclusive"
            continue
        same, detail = _same_result_set(sa, sb)
        if same:
            per_host.append(HostVerdict(host, "equal"))
        else:
            per_host.append(HostVerdict(host, "different", detail))
            overall = "counterexample"
    return EquivalenceVerdict(overall, per_host)
