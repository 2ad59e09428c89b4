"""Which loops the explorer reduces, and by which matches (`gp2.executor`):
a confluent set's by its first match each time, straight to its normal
form, and a reducible set's by its independent matches, all at once.

A terminating rule set that is locally confluent has one normal form up to
isomorphism from every graph (Newman 1942), so its loop `R!` has exactly
that one result.  `confluent` proves both properties for sets inside a
fragment where they can be read off the rules, and answers no elsewhere:

- no rule has a condition;
- every label is one variable or a list of constants, so none can raise
  or read a degree;
- every left label is one list variable, used once, marked or not;
- an interface node keeps its left variable, and no created node carries
  a variable.

Termination: every rule strictly lowers (edges, nodes, unmarked nodes) in
lexicographic order.  A match is injective and the rest of the host stays
as it is, so a step changes each count by what the rule's two sides
differ by.

Local confluence, by the critical pair lemma (Plump 2005; for GP 2,
Hristakiev and Plump 2017): every critical pair is strongly joinable.  A
critical pair is two matches into the union of two left graphs glued along
an overlap, such that both meet the dangling condition and they conflict:
the overlap holds an edge, which a GP 2 rule always deletes, or a node
that one of them deletes or relabels.  Matches that do not conflict are
parallel independent, since no condition or degree reads the rest of the
host.

Each item of a pair graph gets a fresh atom of its own, shared by the two
items glued into it.  Left labels are variables, so matching reads only
structure and marks, and every instance of the atoms derives alike.  A
pair joins where its two sides are isomorphic, or else where their normal
forms, which termination makes finite, are isomorphic and keep every node
that neither first step deletes.  A node's atom stays with it and with no
other node, since interface nodes keep their variable and created nodes
carry none, so the isomorphism maps each kept node to itself: the pair is
strongly joinable.  A pair that needs another common reduct is not
found to join.

A reducible set's rules cannot enable a match of the set, and a match
disables only itself, so a match whose written items meet no other image
commutes with every other match (Valmari 1990, stubborn sets).
"""

from __future__ import annotations

from collections import Counter
from itertools import count, product
from typing import Iterator, Optional

from .graphs import HostGraph, HostLabel
from .labels import (
    Cons,
    Empty,
    IntLit,
    RuleLabel,
    StrLit,
    Var,
    VType,
    degree_nodes,
    subterms,
    variables,
)
from .rules import ConditionalRuleSchema, Match, RuleGraph, _rule, apply, enumerate_matches

CONFLUENT = "confluent"
INDEPENDENT = "independent"

# the most ways to glue two left graphs that the analysis tries, counted
# as the choices of an image or none for each left item; a set that needs
# more is not shown confluent
MAX_OVERLAPS = 100_000


def loop_kind(rules: list[ConditionalRuleSchema]) -> Optional[str]:
    """Which matches the explorer applies in a loop of rules: the first
    each time (CONFLUENT, `confluent`), every `independent` one
    (INDEPENDENT, `reducible`) or none.  Computed once per rule set and
    kept on the compiled record of its first rule, keyed by the records of
    the set, so a changed rule is analysed again."""
    records = tuple(map(_rule, rules))
    if not records:
        return None  # the body of {}! fails at once, so it steps as written
    kinds = records[0].loops
    if records not in kinds:
        kinds[records] = (
            CONFLUENT if confluent(rules) else INDEPENDENT if reducible(rules) else None
        )
    return kinds[records]


def reducible(rules: list[ConditionalRuleSchema]) -> bool:
    """Whether no rule of the set can enable a match of the set, and each
    application disables its own match: every rule has no condition, no
    degree operator in a label, right labels that cannot raise, no node
    deleted or created and no right edge; every node it writes gets a mark
    that no left node of the set has (a dead label); and it has a left
    edge or writes a node.  A match of such a rule then deletes every edge
    of its image, and no left node of the set matches a node it wrote."""
    left_marks = {label.marked for s in rules for label in s.left.nodes.values()}
    for schema in rules:
        nodes, written = schema.right.nodes, _changed(schema)
        if (
            schema.condition is not None
            or _rule(schema).raises
            or not len(schema.left.nodes) == len(schema.interface) == len(nodes)
            or schema.right.edges
            or any(degree_nodes(label.expr) for label in _labels(schema))
            or not (schema.left.edges or written)
            or any(nodes[n].marked in left_marks for n in written)
        ):
            return False
    return True


def independent(
    matches: list[tuple[ConditionalRuleSchema, Match]]
) -> list[tuple[ConditionalRuleSchema, Match]]:
    """The (schema, match) pairs whose match is independent of every other
    one's, in order; for the rules of a reducible set (`reducible`).

    Two matches are independent when neither one's written items meet the
    other's image.  A match's written items are its image edges, which it
    deletes, and the images of the nodes its rule relabels; node ids and
    edge ids are counted apart."""
    node_uses: Counter = Counter()
    edge_uses: Counter = Counter()
    written: set = set()
    items = []
    schemas = {id(schema): schema for schema, _ in matches}  # each rule once
    slots = {i: [_rule(s).left.slot[n] for n in _changed(s)] for i, s in schemas.items()}
    for schema, (image, _) in matches:
        left = _rule(schema).left
        nodes, edges = image[: len(left.nodes)], image[len(left.nodes) :]
        writes = [image[s] for s in slots[id(schema)]]
        node_uses.update(nodes)
        edge_uses.update(edges)
        written.update(writes)
        items.append((nodes, edges, writes))
    # no other image holds what a match writes, and no other match writes
    # what it only reads
    return [
        pair
        for pair, (nodes, edges, writes) in zip(matches, items)
        if all(edge_uses[e] == 1 for e in edges)
        and all(node_uses[n] == 1 for n in writes)
        and not any(n in written for n in nodes if n not in writes)
    ]


def confluent(rules: list[ConditionalRuleSchema]) -> bool:
    """Whether a loop of rules is shown to have one result up to iso."""
    return obstacle(rules) is None


def obstacle(rules: list[ConditionalRuleSchema]) -> Optional[str]:
    """Why `confluent` answers no for rules, or None where it answers yes.
    The checks run in order, each over every rule: the condition, the
    shape of the labels, the measure, the flow of variables, and last the
    critical pairs."""
    for check in (_condition, _shapes, _lowers, _flow):
        for schema in rules:
            reason = check(schema)
            if reason is not None:
                return f"{schema.name}: {reason}"
    constants = {
        t.value for s in rules for label in _labels(s) for t in subterms(label.expr)
        if isinstance(t, IntLit)
    }
    for i, a in enumerate(rules):
        for b in rules[i:]:
            la, lb = a.left, b.left
            tries = (len(lb.nodes) + 1) ** len(la.nodes) * (len(lb.edges) + 1) ** len(la.edges)
            if tries > MAX_OVERLAPS:
                return f"{a.name}/{b.name}: too many overlaps to analyse"
            for graph, ma, mb, kept in _critical_pairs(a, b, constants):
                x, y = apply(a, graph, ma), apply(b, graph, mb)
                if x.signature() == y.signature():
                    continue
                x, y = _normal_form(rules, x), _normal_form(rules, y)
                nodes = {label.items for label in x.nodes.values()}
                if x.signature() != y.signature() or not kept <= nodes:
                    return f"{a.name}/{b.name} does not join on {graph.to_text()}"
    return None


def _labels(schema: ConditionalRuleSchema):
    for graph in (schema.left, schema.right):
        yield from graph.nodes.values()
        yield from (e.label for e in graph.edges.values())


def _condition(schema: ConditionalRuleSchema) -> Optional[str]:
    return None if schema.condition is None else "it has a condition"


def _shapes(schema: ConditionalRuleSchema) -> Optional[str]:
    for label in _labels(schema):
        e = label.expr
        if not isinstance(e, Var) and not all(
            isinstance(t, (Empty, IntLit, StrLit, Cons)) for t in subterms(e)
        ):
            return f"label {label} is outside the fragment"
    return None


def _size(graph: RuleGraph) -> tuple[int, int, int]:
    unmarked = sum(not label.marked for label in graph.nodes.values())
    return len(graph.edges), len(graph.nodes), unmarked


def _lowers(schema: ConditionalRuleSchema) -> Optional[str]:
    if _size(schema.right) < _size(schema.left):
        return None
    return "it does not lower the measure (edges, nodes, unmarked nodes)"


def _flow(schema: ConditionalRuleSchema) -> Optional[str]:
    left, right = schema.left, schema.right
    seen = set()
    for label in [*left.nodes.values(), *(e.label for e in left.edges.values())]:
        e = label.expr
        if not isinstance(e, Var) or e.vtype is not VType.LIST or e.name in seen:
            return f"left label {label} is not a list variable used once (outside the fragment)"
        seen.add(e.name)
    for n, label in right.nodes.items():
        if n in schema.interface and label.expr != left.nodes[n].expr:
            return f"interface node {n} does not keep its variable (outside the fragment)"
        if n not in schema.interface and variables(label.expr):
            return f"created node {n} carries a variable (outside the fragment)"
    return None


def _changed(schema: ConditionalRuleSchema) -> set[str]:
    """The left nodes a rule deletes or relabels."""
    left, right = schema.left.nodes, schema.right.nodes
    return {n for n in left if n not in schema.interface or right[n] != left[n]}


def _maps(choices: list) -> Iterator[dict]:
    """Every injective partial map that sends each key of choices to one of
    its candidates or leaves it out."""
    keys = [k for k, _ in choices]
    for images in product(*[[None, *cands] for _, cands in choices]):
        chosen = [v for v in images if v is not None]
        if len(set(chosen)) == len(chosen):
            yield {k: v for k, v in zip(keys, images) if v is not None}


def _critical_pairs(
    a: ConditionalRuleSchema, b: ConditionalRuleSchema, constants: set
) -> Iterator[tuple[HostGraph, tuple, tuple, set]]:
    """The critical pairs of a and b: (graph, match of a, match of b, the
    labels of the nodes that neither match deletes).  The fresh atoms are
    integers that no label of the set holds."""
    la, lb = a.left, b.left
    changed_a, changed_b = _changed(a), _changed(b)
    node_choices = [
        (n, [m for m, other in lb.nodes.items() if other.marked == label.marked])
        for n, label in la.nodes.items()
    ]
    for nodes in _maps(node_choices):
        edge_choices = [
            (eid, [
                fid for fid, f in lb.edges.items()
                if f.label.marked == e.label.marked
                and nodes.get(e.source) == f.source
                and nodes.get(e.target) == f.target
            ])
            for eid, e in la.edges.items()
        ]
        for edges in _maps(edge_choices):
            if not edges and not any(n in changed_a or m in changed_b for n, m in nodes.items()):
                continue  # parallel independent
            graph, atoms = HostGraph(), (x for x in count() if x not in constants)

            def fresh(label: RuleLabel) -> HostLabel:
                return HostLabel((next(atoms),), label.marked)

            at_b = {n: graph.add_node(fresh(label)) for n, label in lb.nodes.items()}
            at_a = {
                n: at_b[nodes[n]] if n in nodes else graph.add_node(fresh(label))
                for n, label in la.nodes.items()
            }
            eb = {
                f: graph.add_edge(at_b[e.source], at_b[e.target], fresh(e.label))
                for f, e in lb.edges.items()
            }
            ea = {
                f: eb[edges[f]] if f in edges else graph.add_edge(
                    at_a[e.source], at_a[e.target], fresh(e.label)
                )
                for f, e in la.edges.items()
            }
            ma = _match(a, graph, at_a, ea)
            mb = _match(b, graph, at_b, eb)
            if ma is None or mb is None:
                continue  # a dangling edge
            gone = {at_a[n] for n in la.nodes if n not in a.interface}
            gone |= {at_b[n] for n in lb.nodes if n not in b.interface}
            kept = {graph.nodes[v].items for v in graph.nodes if v not in gone}
            yield graph, ma, mb, kept


def _match(schema: ConditionalRuleSchema, graph: HostGraph, nodes: dict, edges: dict):
    """The match of schema that sends each left item to the given host
    item, if it meets the dangling condition: the one whose assignment
    binds each item's variable to that host item's own atom."""
    left = schema.left
    want = {label.expr.name: graph.nodes[nodes[n]].items for n, label in left.nodes.items()}
    for f, e in left.edges.items():
        want[e.label.expr.name] = graph.edges[edges[f]].label.items
    return next((m for m in enumerate_matches(schema, graph) if m[1] == want), None)


def _normal_form(rules: list[ConditionalRuleSchema], graph: HostGraph) -> HostGraph:
    """graph rewritten by the first match of rules until none is left."""
    while True:
        pick = next(((s, m) for s in rules for m in enumerate_matches(s, graph)), None)
        if pick is None:
            return graph
        graph = apply(pick[0], graph, pick[1], copy=False)
