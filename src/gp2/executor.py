"""Small-step execution of programs: single seeded runs, bounded
exhaustive result sets, and program equivalence checking.

Configurations pair a continuation, the commands still to run, with a
graph.  Both modes step its head command through one transition
function, `_step`, the rest riding along, and enter a sequence at the
head without a step, as [seq1]-[seq3] step only the head of `P; Q`.  A
run keeps a stack and follows one transition at a time, picked at
random.  The explorer keeps tuples (`_entered`), follows every
transition up to a budget, deduplicates configurations by continuation
as written and graph up to isomorphism, and reports divergence or
stuckness through a bottom flag.  So a sequence nested in a macro and
its flat spelling are two configurations until their heads step.

The explorer's cost is per configuration.  Two savings make each one
cheaper and change nothing it explores.  A rule-set call that is a loop
body or a premise has one configuration, whose successors are its
results or failure, so `Engine.semantics` answers it from one application
of its rules.  And each `Engine` keeps one table from exact graph content
to certificate (`HostGraph.signature`), through which every graph it
derives is certified, so equal contents share one certificate and compare
by identity.  A certificate computes its canonical form only when it meets
a different one of equal hash, and `equivalent` hands one table per host
to the engines of both sides, so results that the two sides derive alike
compare by identity, without one.

A third saving explores fewer configurations: a loop of a reducible rule
set (`rules.reducible`) applies one match per step, the first that is
independent of every other enabled match (`rules.first_independent`),
and all of them only where there is no such match.  This is a
stubborn-set reduction (Valmari 1990), sound by parallel independence
and the local Church-Rosser theorem (Ehrig et al. 2006):

- No rule of the set can enable a match, and each application disables
  its own match.  So the loop's state space is finite and acyclic.
- The chosen match stays enabled along every other path, and it commutes
  with every other match.  So every normal form, and hence every exit
  of the loop, is still reached.  Since no ids are created, the exits
  have identical contents, not just isomorphic ones.
- Cycles through the loop, failure, `bottom` and the warnings are
  unchanged.

A fourth saving answers a loop of a confluent rule set
(`confluence.confluent`) in one transition, to its one result.  The set
terminates, and each of its critical pairs is strongly joinable, so by the
critical pair lemma (Plump 2005) and Newman's lemma every graph has one
normal form up to isomorphism, whatever order the matches are applied in:

- That normal form is the loop's only exit, and the loop neither fails
  nor diverges.  The explorer interns graphs up to isomorphism, so it
  explores on from the same configurations as before.
- The explorer reaches it by the first match each time, on a copy that it
  rewrites in place.  It ticks once per rewrite, so the budget still
  bounds the loop, and a truncated one gives `bottom: possible`.  It
  certifies only the normal form.
- No rule of the set has a condition or a label that can raise, so no
  warning is lost.

Each loop's saving, the fourth before the third where a set allows both,
is decided once per rule set of a loaded program (`confluence.loop_kind`).
`successors` and single runs keep the full one-step relation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Union

from .confluence import CONFLUENT, REDUCIBLE, loop_kind

# isomorphic is bound here only for perfbench/tracer.py
from .graphs import Certificate, HostGraph, IsoStore, isomorphic
from .labels import show
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
from .rules import (
    ConditionalRuleSchema,
    apply,
    apply_ruleset,
    enumerate_matches,
    first_independent,
)


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


# -- the transition relation -----------------------------------------


Transition = tuple[Optional[tuple[Command, ...]], HostGraph, str]


def _step(mode: Engine | _Runner, head: Command, graph: HostGraph) -> tuple[list[Transition], bool]:
    """The transitions of the head command of a continuation, by [call1]-[alap2].

    Each is a (pushed, graph, rule) triple: pushed holds the commands that
    run before the rest of the continuation, which rides along unchanged
    as [seq1]-[seq3] say, and is None for failure.  The mode, an `Engine`
    or a `_Runner`, decides the two things the execution modes differ in:
    what a rule-set call derives (`mode.call`) and the outcome of a
    premise (`mode.semantics`).  The second component reports whether a
    premise ran out of budget, in which case transitions may be missing.
    """
    # rule-set calls and loops first: they take most steps of a run
    if isinstance(head, RuleSetCall):
        graphs = mode.call(head.names, graph)
        if graphs:
            return [((), h, "call1") for h in graphs], False
        return [(None, graph, "call2")], False
    if isinstance(head, Loop):
        sub = mode.semantics(head.body, graph)
        out = [((head,), h, "alap1") for h in sub.graphs]
        if sub.can_fail:
            out.append(((), graph, "alap2"))
        return out, sub.bottom == BOTTOM_POSSIBLE
    if isinstance(head, Skip):
        return [((), graph, "skip")], False
    if isinstance(head, Fail):
        return [(None, graph, "fail")], False
    if isinstance(head, Or):
        return [((head.left,), graph, "or1"), ((head.right,), graph, "or2")], False
    if isinstance(head, (If, Try)):
        sub = mode.semantics(head.cond, graph)
        name = "try" if isinstance(head, Try) else "if"
        # [if1] / [if2] with an else branch, [if3] / [if4] without; so for try
        passed, failed = (name + "3", name + "4") if head.els is None else (name + "1", name + "2")
        # try goes on from each result of the test, if from graph
        starts = sub.graphs if name == "try" else [graph] if sub.graphs else []
        out = [((head.then,), h, passed) for h in starts]
        if sub.can_fail:
            out.append((() if head.els is None else (head.els,), graph, failed))
        return out, sub.bottom == BOTTOM_POSSIBLE
    raise TypeError(f"cannot execute {head!r}")


# -- exhaustive exploration -------------------------------------------


class Engine:
    """Shared state for one exhaustive-semantics computation."""

    def __init__(
        self,
        rules: dict[str, ConditionalRuleSchema],
        budget: Budget,
        certificates: Optional[dict] = None,
    ):
        self.rules = rules
        self.budget = budget
        self.steps = 0
        self.warnings: list[str] = []
        # memo of sub-semantics per (command, certificate of the graph)
        self._memo: dict[tuple[Command, Certificate], ResultSet] = {}
        # the certificate of every graph content this computation has seen,
        # or that of every engine it is shared with
        self._certificates = {} if certificates is None else certificates
        # the verdict on loops of each rule set it has met, by rule names;
        # `confluence.loop_kind` keeps them for every engine, but looking one
        # up there costs a walk over the set's rules
        self._loop_kinds: dict[tuple[str, ...], Optional[str]] = {}

    def tick(self) -> bool:
        """Account for one transition; False once the budget is spent."""
        if self.steps >= self.budget.max_steps:
            return False
        self.steps += 1
        return True

    def call(self, names: tuple[str, ...], graph: HostGraph) -> list[HostGraph]:
        """Every graph one application of a named rule derives, up to iso."""
        rules = [self.rules[n] for n in names]
        return apply_ruleset(rules, graph, self.warnings, self._certificates)

    def semantics(self, command: Command, graph: HostGraph) -> ResultSet:
        key = (command, graph.signature(self._certificates))
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if isinstance(command, RuleSetCall):
            result = self._ruleset_call(command, graph)
        else:
            result = self._explore(command, graph)
        # do not cache truncated explorations; a later call may have
        # budget left to finish them
        if result.bottom != BOTTOM_POSSIBLE:
            self._memo[key] = result
        return result

    def _ruleset_call(self, command: RuleSetCall, graph: HostGraph) -> ResultSet:
        """What `_explore` gives for a lone rule-set call, without its
        bookkeeping: its one configuration steps by [call1] to each graph
        `call` derives, which are results, or by [call2] to failure."""
        if not self.tick() or self.budget.max_configs < 1:
            return ResultSet([], False, BOTTOM_POSSIBLE)
        graphs = self.call(command.names, graph)
        return ResultSet(graphs, not graphs, BOTTOM_NONE)

    def _explore(self, command: Command, graph: HostGraph) -> ResultSet:
        # unfinished configurations in breadth-first order, each interned
        # by (continuation, certificate) to its position
        configs = [(_entered((command,)), graph)]
        index = {(configs[0][0], graph.signature()): 0}
        children: list[list[int]] = []
        results = IsoStore()
        result_list: list[HostGraph] = []
        # only a child interned before its parent's step can close a cycle
        can_fail = stuck = truncated = revisited = False

        for cont, state in configs:  # also visits the ones appended below
            if not self.tick() or len(configs) > self.budget.max_configs:
                truncated = True
                break
            head = cont[0]
            kind = self._loop_kind(head)
            if kind is CONFLUENT:
                succs, premise_truncated = self._normal_form(head, state)
            elif kind is REDUCIBLE:
                succs, premise_truncated = self._loop_step(head, state)
            else:
                succs, premise_truncated = _step(self, head, state)
            if premise_truncated:
                truncated = True
            elif not succs:
                stuck = True
            children.append([])
            rest = cont[1:]
            for pushed, h, _ in succs:
                if pushed is None:
                    can_fail = True
                elif after := _entered(pushed + rest):
                    child = index.setdefault((after, h.signature()), len(configs))
                    if child == len(configs):
                        configs.append((after, h))
                    else:
                        revisited = True
                    children[-1].append(child)
                elif results.put(h):
                    result_list.append(h)

        # an incomplete exploration can only claim "possible"; proven
        # verdicts (stuckness, a closed cycle) need the full graph
        bottom = BOTTOM_NONE
        if truncated:
            bottom = BOTTOM_POSSIBLE
        elif stuck or revisited and _has_cycle(children):
            bottom = BOTTOM_PROVEN
        return ResultSet(result_list, can_fail, bottom)

    def _loop_kind(self, head: Command) -> Optional[str]:
        """`confluence.loop_kind` of head's rule set, if head loops one."""
        if not isinstance(head, Loop) or not isinstance(head.body, RuleSetCall):
            return None
        names = head.body.names
        if names not in self._loop_kinds:
            self._loop_kinds[names] = loop_kind([self.rules[n] for n in names])
        return self._loop_kinds[names]

    def _normal_form(self, loop: Loop, graph: HostGraph) -> tuple[list[Transition], bool]:
        """What `_step` gives for a loop of a confluent rule set, reduced to
        one transition, to the loop's one result: the graph rewritten by the
        first match of its rules until none is left.  It copies the graph
        at the first rewrite and then rewrites the copy in place, ticks once
        per rewrite, and certifies only the result."""
        rules = [self.rules[n] for n in loop.body.names]
        h = graph
        while pick := next(
            ((s, m) for s in rules for m in enumerate_matches(s, h, self.warnings)), None
        ):
            if not self.tick():
                return [], True
            h = apply(pick[0], h, pick[1], copy=h is graph)
        h.signature(self._certificates)
        return [((), h, "alap2")], False

    def _loop_step(self, loop: Loop, graph: HostGraph) -> tuple[list[Transition], bool]:
        """What `_step` gives for a loop of a reducible rule set, reduced to
        one [alap1] transition where some match is independent of every
        other one (`rules.first_independent`): the first such match.

        Otherwise the body's full result goes into the memo, where `_step`
        reads it.  This charges the tick that `_ruleset_call` would, and it
        stores no reduced result, which premises could read."""
        body = loop.body
        key = (body, graph.signature(self._certificates))
        if key not in self._memo:
            if not self.tick():
                return [], True
            matches = [
                (schema, match)
                for schema in (self.rules[n] for n in body.names)
                for match in enumerate_matches(schema, graph, self.warnings)
            ]
            pick = first_independent(matches)
            if pick is not None:
                h = apply(pick[0], graph, pick[1])
                h.signature(self._certificates)
                return [((loop,), h, "alap1")], False
            graphs = self.call(body.names, graph) if matches else []
            self._memo[key] = ResultSet(graphs, not graphs, BOTTOM_NONE)
        return _step(self, loop, graph)


def _entered(cont: tuple[Command, ...]) -> tuple[Command, ...]:
    """cont with the sequences at its head entered, as a run's stack does."""
    while cont and isinstance(cont[0], Seq):
        cont = cont[0].items + cont[1:]
    return cont


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
    head, *rest = _entered((cfg.rest,))
    succs, _ = _step(Engine(rules, budget or Budget()), head, cfg.state)
    return [
        Failure() if p is None else Unfinished(seq([*p, *rest]), h) if p or rest else Result(h)
        for p, h, _ in succs
    ]


def semantics(
    program: CheckedProgram, host: HostGraph, budget: Optional[Budget] = None
) -> ResultSet:
    """Breadth-first exhaustive approximation of the result set."""
    return Engine(program.rules, budget or Budget()).semantics(program.main, host)


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
        # the summary of each traced command, keyed by identity: commands
        # that compare equal can print differently (`RuleSetCall.bare`)
        self.summaries: dict[int, str] = {}
        # the graph that only this run can see, which a rule rewrites in place
        self.owned: Optional[HostGraph] = None

    def tick(self, rule: str, command: Command, graph: HostGraph) -> None:
        self.steps += 1
        if self.steps > self.budget.max_steps:
            raise BudgetExceeded()
        if self.tracing:
            summary = self.summaries.get(id(command))
            if summary is None:
                summary = self.summaries[id(command)] = _summary(command)
            self.trace.append(
                TraceEntry(self.steps, rule, summary, len(graph.nodes), len(graph.edges))
            )

    def call(self, names: tuple[str, ...], graph: HostGraph) -> list[HostGraph]:
        """The graph that one match of a named rule, picked at random,
        derives; none if no rule matches.  Every match is taken before the
        rewrite, which may change the graph in place."""
        matches = []
        for name in names:
            schema = self.rules[name]
            for match in enumerate_matches(schema, graph, self.warnings):
                matches.append((schema, match))
        if not matches:
            return []
        schema, match = self.rng.choice(matches)
        self.owned = apply(schema, graph, match, copy=graph is not self.owned)
        return [self.owned]

    def semantics(self, command: Command, graph: HostGraph) -> ResultSet:
        """One run of command from graph, as a result set: the graph it
        ends in, or failure."""
        stack = [command]  # the continuation, its head last
        while stack:
            head = stack.pop()
            if isinstance(head, Seq):
                stack += reversed(head.items)
                continue
            if _keeps(head):
                self.owned = None
            succs, _ = _step(self, head, graph)
            # only an or has two transitions in a run
            pick = self.rng.random() >= 0.5 if len(succs) > 1 else 0
            pushed, graph, rule = succs[pick]
            self.tick(rule, head, graph)
            if pushed is None:
                return ResultSet([], True, BOTTOM_NONE)
            stack += pushed
        return ResultSet([graph], False, BOTTOM_NONE)


def _keeps(head: Command) -> bool:
    """Whether stepping head may go on from its graph as it was before a
    premise ran on it: an if's always; a try's or a loop's unless the
    premise is a rule-set call, which fails only where it rewrites nothing."""
    if isinstance(head, Try):
        return not isinstance(head.cond, RuleSetCall)
    if isinstance(head, Loop):
        return not isinstance(head.body, RuleSetCall)
    return isinstance(head, If)


def _summary(command: Command) -> str:
    text = show(command, limit=60)
    return text if len(text) <= 60 else text[:57] + "..."


def run_one(
    program: CheckedProgram,
    host: HostGraph,
    budget: Optional[Budget] = None,
    tracing: bool = False,
) -> RunOutcome:
    """One seeded pseudo-random derivation to a terminal configuration."""
    runner = _Runner(program.rules, budget or Budget(), tracing)
    try:
        result = runner.semantics(program.main, host)
    except BudgetExceeded:
        return RunOutcome("budget", None, runner.steps, runner.warnings, runner.trace)
    if result.can_fail:
        return RunOutcome("fail", None, runner.steps, runner.warnings, runner.trace)
    return RunOutcome("graph", result.graphs[0], runner.steps, runner.warnings, runner.trace)


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
    signatures = {g.signature() for g in a.graphs}
    for g in b.graphs:
        if g.signature() not in signatures:
            return False, f"graph {g.to_text()} only on one side"
    return True, ""


def equivalent(
    p: CheckedProgram,
    q: CheckedProgram,
    hosts: list[HostGraph],
    budget: Optional[Budget] = None,
) -> EquivalenceVerdict:
    """Compare bounded result sets of two programs over the given hosts."""
    per_host: list[HostVerdict] = []
    overall = "equal"
    budget = budget or Budget()
    for host in hosts:
        table: dict = {}
        sa = Engine(p.rules, budget, table).semantics(p.main, host)
        sb = Engine(q.rules, budget, table).semantics(q.main, host)
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
