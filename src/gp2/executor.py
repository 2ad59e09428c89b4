"""Small-step execution of programs: single seeded runs, bounded
exhaustive result sets, and program equivalence checking.

Configurations pair a continuation, the commands still to run, with a
graph.  Both modes share one matcher and one `apply`, and enter a
sequence at the head without a step, as [seq1]-[seq3] step only the head
of `P; Q`.  A run (`run_one`) keeps the continuation on one explicit
stack of commands and frames: a loop, `if` or `try` pushes a frame
holding itself and its start graph under its body or test, and the
outcome of that premise, a graph or a failure, pops the frame and takes
the step of [alap1]-[alap2] or [if1]-[try4] that it picks.  So a run
follows one transition at a time, picked at random, and nests no call
per premise.  The explorer steps the head command of a tuple
(`_entered`) through the transition function `_step`, the rest riding
along, follows every transition up to a budget, deduplicates
configurations by continuation as written and graph up to isomorphism,
and reports divergence or stuckness through a bottom flag.  So a
sequence nested in a macro and its flat spelling are two configurations
until their heads step.

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

A third saving explores fewer configurations.  A loop of a confluent or
a reducible rule set, decided once per rule set of a loaded program
(`confluence.loop_kind`, confluent first; the module is imported at the
first verdict, so a single run never loads it), is reduced by
`Engine._reduced_loop`: it rewrites the graph with matches that commute
with every other match, on a copy made at the first rewrite, ticking once
per rewrite, so the budget still bounds the loop and a truncated one gives
`bottom: possible`.  With no match left it takes the loop's exit [alap2],
with only conflicting ones left one [alap1] transition, and with none
rewritten the loop steps as written.  It certifies only the graph it hands
on.

- A confluent set (`confluence.confluent`) takes its first match each
  time.  It terminates, and each of its critical pairs is strongly
  joinable, so by the critical pair lemma (Plump 2005) and Newman's lemma
  every graph has one normal form up to isomorphism, whatever order the
  matches are applied in.  That is the loop's only exit, and the loop
  neither fails nor diverges.  No rule of the set has a condition or a
  label that can raise, so no warning is lost.
- A reducible set (`confluence.reducible`) takes every match independent
  of every other (`confluence.independent`), a stubborn-set reduction
  (Valmari 1990) sound by parallel independence and the local
  Church-Rosser theorem (Ehrig et al. 2006).  No rule of the set can
  enable a match, and each application disables its own match, so the
  loop's state space is finite and acyclic.  An independent match stays
  enabled along every other path and commutes with every other match, so
  every exit of the loop is still reached, with identical contents since
  no ids are created.  Cycles, failure, `bottom` and warnings are
  unchanged.  It takes them in one batch: applying one disables only
  itself, enables nothing and changes no other match's image, so the
  independent matches shrink by exactly that one, and the batch reaches
  the same exits as applying them one at a time.

`successors` and single runs keep the full one-step relation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache
from itertools import islice
from typing import Optional, Union

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


def _step(engine: Engine, head: Command, graph: HostGraph) -> tuple[list[Transition], bool]:
    """The transitions of the head command of a continuation, by [call1]-[alap2].

    Each is a (pushed, graph, rule) triple: pushed holds the commands that
    run before the rest of the continuation, which rides along unchanged
    as [seq1]-[seq3] say, and is None for failure.  A rule-set call derives
    what `engine.call` derives, and a premise has the result set of
    `engine.semantics`.  The second component reports whether a premise
    ran out of budget, in which case transitions may be missing.
    """
    if isinstance(head, RuleSetCall):
        graphs = engine.call(head.names, graph)
        if graphs:
            return [((), h, "call1") for h in graphs], False
        return [(None, graph, "call2")], False
    if isinstance(head, Loop):
        sub = engine.semantics(head.body, graph)
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
        sub = engine.semantics(head.cond, graph)
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
            if kind is None:
                succs, premise_truncated = _step(self, head, state)
            else:
                succs, premise_truncated = self._reduced_loop(head, state, kind)
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
            self._loop_kinds[names] = _confluence().loop_kind([self.rules[n] for n in names])
        return self._loop_kinds[names]

    def _reduced_loop(
        self, loop: Loop, graph: HostGraph, kind: str
    ) -> tuple[list[Transition], bool]:
        """What `_step` gives for a loop that `loop_kind` reduces, reduced:
        the graph rewritten by its first match each time (CONFLUENT) or by
        every independent match in one batch (INDEPENDENT) until there is
        none, then one [alap2] transition where no match is left and one
        [alap1] where conflicting ones are.  A loop whose matches all
        conflict at entry steps as written (`_step`)."""
        rules = [self.rules[n] for n in loop.body.names]
        confluence = _confluence()
        h = graph
        while True:
            matches = ((s, m) for s in rules for m in enumerate_matches(s, h, self.warnings))
            if kind is confluence.CONFLUENT:
                enabled = batch = list(islice(matches, 1))
            else:
                enabled = list(matches)
                batch = confluence.independent(enabled)
            if not batch:
                break
            for schema, match in batch:
                if not self.tick():
                    return [], True
                h = apply(schema, h, match, copy=h is graph)
        if enabled and h is graph:
            return _step(self, loop, graph)
        h.signature(self._certificates)
        return [((loop,), h, "alap1") if enabled else ((), h, "alap2")], False


@cache
def _confluence():
    """`gp2.confluence`, imported at an engine's first loop verdict, so a
    single run (`run_one`) never loads it."""
    from . import confluence

    return confluence


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


def _summary(command: Command) -> str:
    text = show(command, limit=60)
    return text if len(text) <= 60 else text[:57] + "..."


def run_one(
    program: CheckedProgram,
    host: HostGraph,
    budget: Optional[Budget] = None,
    tracing: bool = False,
) -> RunOutcome:
    """One seeded pseudo-random derivation to a terminal configuration.

    The run keeps one stack: the commands still to run, the next on top,
    and under the body of each running loop and the test of each running
    `if` or `try` a frame, the pair of that command and the graph it
    started from.  Popping a frame means the body or test succeeded; a
    failure pops down to the nearest frame, or ends the run.  A rule
    rewrites in place the graph that only this run can see (`owned`), so
    a frame that may go back to its graph clears it.
    """
    budget = budget or Budget()
    rules, max_steps = program.rules, budget.max_steps
    rng = random.Random(budget.seed)
    steps, warnings, trace = 0, [], []
    # the summary of each traced command, keyed by identity: commands
    # that compare equal can print differently (`RuleSetCall.bare`)
    summaries: dict[int, str] = {}
    graph, owned, stack, failed = host, None, [program.main], False
    while True:
        if failed:
            while stack:
                frame = stack.pop()
                if type(frame) is tuple:
                    break
            else:
                return RunOutcome("fail", None, steps, warnings, trace)
            head, graph = frame
            failed = False
            if type(head) is Loop:
                rule = "alap2"
            elif head.els is None:
                rule = "try4" if type(head) is Try else "if4"
            else:
                rule = "try2" if type(head) is Try else "if2"
                stack.append(head.els)
        elif not stack:
            return RunOutcome("graph", graph, steps, warnings, trace)
        else:
            head = stack.pop()
            # commands are never subclassed, so their type picks the case
            kind = type(head)
            if kind is RuleSetCall:
                # every match is taken before the rewrite, which may change
                # the graph in place
                matches = []
                for name in head.names:
                    schema = rules[name]
                    for match in enumerate_matches(schema, graph, warnings):
                        matches.append((schema, match))
                if matches:
                    schema, match = rng.choice(matches)
                    graph = owned = apply(schema, graph, match, copy=graph is not owned)
                    rule = "call1"
                else:
                    rule, failed = "call2", True
            elif kind is Seq:
                stack += reversed(head.items)
                continue
            elif kind is tuple:
                head, start = head
                if type(head) is Loop:
                    # enter the loop again at once, as popping it would
                    rule = "alap1"
                    stack += ((head, graph), head.body)
                    if type(head.body) is not RuleSetCall:
                        owned = None
                elif type(head) is Try:
                    rule = "try3" if head.els is None else "try1"
                    stack.append(head.then)
                else:
                    # an if goes on from the graph its test started from
                    rule, graph = "if3" if head.els is None else "if1", start
                    stack.append(head.then)
            elif kind is Loop or kind is If or kind is Try:
                premise = head.body if kind is Loop else head.cond
                stack += ((head, graph), premise)
                # a try or a loop goes back to its graph only when the
                # premise fails, and a failed rule-set call rewrote nothing
                if kind is If or type(premise) is not RuleSetCall:
                    owned = None
                continue
            elif kind is Skip:
                rule = "skip"
            elif kind is Fail:
                rule, failed = "fail", True
            elif kind is Or:
                left = rng.random() < 0.5
                rule = "or1" if left else "or2"
                stack.append(head.left if left else head.right)
            else:
                raise TypeError(f"cannot execute {head!r}")
        steps += 1
        if steps > max_steps:
            return RunOutcome("budget", None, steps, warnings, trace)
        if tracing:
            summary = summaries.get(id(head))
            if summary is None:
                summary = summaries[id(head)] = _summary(head)
            trace.append(TraceEntry(steps, rule, summary, len(graph.nodes), len(graph.edges)))


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
