"""Concrete syntax: one tokenizer, one precedence-climbing routine for the
three operator grammars, and one reader for graph literals."""

from __future__ import annotations

import re
from functools import cached_property, reduce
from typing import Callable, NamedTuple, Optional

from .graphs import GraphError, HostGraph, HostLabel
from .labels import (
    Arith,
    Condition,
    Cons,
    Deg,
    Dot,
    Empty,
    EdgePred,
    Eq,
    IntLit,
    Neg,
    Not,
    Or as CondOr,
    And as CondAnd,
    Rel,
    RuleLabel,
    StrLit,
    TypeCheck,
    Var,
    VType,
)
from .program import (
    Command,
    Fail,
    If,
    Loop,
    MacroDecl,
    Or,
    ProgramAST,
    RuleSetCall,
    Skip,
    Try,
    seq,
)
from .rules import ConditionalRuleSchema, RuleGraph


KEYWORDS = {
    "main", "if", "then", "else", "try", "or", "skip", "fail", "empty",
    "where", "interface", "rule", "int", "string", "atom", "list",
    "edge", "indeg", "outdeg", "not", "and",
}

SYMBOLS = [
    "=>", "!=", ">=", "<=",
    "[", "]", "(", ")", "{", "}", ",", ";", ":", ".", "!", "=", "#",
    "+", "-", "*", "/", "<", ">", "|",
]

# One alternative per token kind, tried in order. Integers are ASCII digits.
# An identifier is a letter or `_` and then letters, digits or `_`; the class
# `[^\W\d]` also admits non-decimal numerals such as `²`, which `tokenize`
# refuses. Inside a string, `\"` and `\\` are escapes and any other
# backslash stands for itself.
_TOKEN = re.compile(
    r"(?P<space>[ \t\r\n]+)|(?P<comment>//[^\n]*)|(?P<INT>[0-9]+)"
    r"|(?P<IDENT>[^\W\d]\w*)"
    r'|"(?P<STRING>[^"\\\n]*(?:\\(?:["\\]|(?!["\\]))[^"\\\n]*)*)"'
    "|(?P<SYMBOL>" + "|".join(map(re.escape, SYMBOLS)) + ")"
)
_ESCAPE = re.compile(r'\\(["\\])')


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # IDENT, KEYWORD, INT, STRING, SYMBOL, EOF
    value: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos, line, line_start = 0, 1, 0
    for m in _TOKEN.finditer(text):
        kind, value = m.lastgroup, m.group(m.lastgroup)
        if m.start() != pos or (kind == "IDENT" and not (value[0].isalpha() or value[0] == "_")):
            break
        if kind == "space":
            if "\n" in value:
                line += value.count("\n")
                line_start = pos + value.rindex("\n") + 1
        elif kind != "comment":
            if kind == "IDENT" and value in KEYWORDS:
                kind = "KEYWORD"
            elif kind == "STRING" and "\\" in value:
                value = _ESCAPE.sub(r"\1", value)
            tokens.append(Token(kind, value, line, pos - line_start + 1))
        pos = m.end()
    col = pos - line_start + 1
    if pos < len(text):
        c = text[pos]
        message = "unterminated string" if c == '"' else f"unexpected character {c!r}"
        raise ParseError(message, line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# Operator tables map an operator's (token kind, value) to (precedence,
# build); a higher precedence binds tighter. `Parser.climb` reads a run of
# operands joined by operators of one precedence and makes its tree with
# build(first token, operands, operator values).


def _left(make: Callable) -> Callable:
    """A build that folds a run to the left with make(start, op, left, right)."""
    return lambda start, items, ops: reduce(
        lambda left, step: make(start, step[0], left, step[1]), zip(ops, items[1:]), items[0]
    )


def _cons(start: Token, items: list, ops: list):
    return reduce(lambda tail, item: Cons(item, tail), reversed(items))


_arith = _left(lambda start, op, left, right: Arith(op, left, right))
EXPRESSION_OPS = {
    ("SYMBOL", ":"): (1, _cons),
    ("SYMBOL", "."): (2, _left(lambda start, op, left, right: Dot(left, right))),
    ("SYMBOL", "+"): (3, _arith),
    ("SYMBOL", "-"): (3, _arith),
    ("SYMBOL", "*"): (4, _arith),
    ("SYMBOL", "/"): (4, _arith),
}
CONDITION_OPS = {
    ("KEYWORD", "or"): (1, _left(lambda start, op, left, right: CondOr(left, right))),
    ("KEYWORD", "and"): (2, _left(lambda start, op, left, right: CondAnd(left, right))),
}
COMMAND_OPS = {
    # every `or` of a chain carries the chain's start
    ("KEYWORD", "or"): (
        1, _left(lambda start, op, left, right: Or(left, right, span=(start.line, start.col)))
    ),
    ("SYMBOL", ";"): (2, lambda start, items, ops: seq(items)),
}
_NO_OP = (0, None)
COMPARISONS = {("SYMBOL", op) for op in ("=", "!=", ">=", "<=", ">", "<")}


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        # the variables of the rule being read; expressions occur only in rules
        self.decls: dict[str, VType] = {}

    # -- token helpers -------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    @cached_property
    def closers(self) -> dict[int, int]:
        """The position of each `(` token's matching `)`."""
        closers, opened = {}, []
        for i, tok in enumerate(self.tokens):
            if tok.kind == "SYMBOL" and tok.value == "(":
                opened.append(i)
            elif tok.kind == "SYMBOL" and tok.value == ")" and opened:
                closers[opened.pop()] = i
        return closers

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def at(self, kind: str, value: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self.at(kind, value):
            return self.next()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        if self.at(kind, value):
            return self.next()
        tok = self.peek()
        want = value if value is not None else kind
        raise ParseError(
            f"expected {want!r}, found {tok.value or tok.kind!r}", tok.line, tok.col
        )

    def integer(self) -> int:
        tok = self.expect("INT")
        try:
            return int(tok.value)
        except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
            raise ParseError(str(exc), tok.line, tok.col) from None

    def climb(self, ops: dict, operand: Callable, min_prec: int = 1):
        """Parse operands joined by the binary operators of `ops` that bind
        at least as tightly as `min_prec`.

        A run of operators of one precedence is read in one loop, so only a
        tighter operator or a nested operand costs a stack frame."""
        start = self.peek()
        left = operand()
        while True:
            tok = self.peek()
            prec, build = ops.get((tok.kind, tok.value), _NO_OP)
            if prec < min_prec:
                return left
            items, signs = [left], []
            while prec == ops.get((tok.kind, tok.value), _NO_OP)[0]:
                signs.append(self.next().value)
                items.append(self.climb(ops, operand, prec + 1))
                tok = self.peek()
            left = build(start, items, signs)

    # -- graph literals --------------------------------------------------

    def parse_graph(self, graph, parse_label: Callable):
        """Read `[ (id, label)* | (id, source, target, label)* ]` into `graph`.

        A rule graph refuses a duplicate id as soon as it is read. A host
        graph refuses a duplicate id or an unknown endpoint when the item is
        added. Both report at the item's `(`."""
        self.expect("SYMBOL", "[")
        sections = (("node", graph.nodes, 1, "|"), ("edge", graph.edges, 3, "]"))
        for kind, known, arity, close in sections:
            while self.at("SYMBOL", "("):
                tok = self.next()
                ids = [self.expect("IDENT").value]
                if ids[0] in known and isinstance(graph, RuleGraph):
                    raise ParseError(f"duplicate {kind} id {ids[0]!r}", tok.line, tok.col)
                while len(ids) < arity:
                    self.expect("SYMBOL", ",")
                    ids.append(self.expect("IDENT").value)
                self.expect("SYMBOL", ",")
                label = parse_label()
                self.expect("SYMBOL", ")")
                try:
                    if kind == "node":
                        graph.add_node(node_id=ids[0], label=label)
                    else:
                        graph.add_edge(edge_id=ids[0], source=ids[1], target=ids[2], label=label)
                except GraphError as exc:
                    raise ParseError(str(exc), tok.line, tok.col) from exc
            self.expect("SYMBOL", close)
        return graph

    def parse_host_label(self) -> HostLabel:
        items = []
        if not self.accept("KEYWORD", "empty"):
            items.append(self.parse_host_atom())
            while self.accept("SYMBOL", ":"):
                items.append(self.parse_host_atom())
        return HostLabel(tuple(items), self.accept("SYMBOL", "#") is not None)

    def parse_host_atom(self):
        if self.accept("SYMBOL", "-"):
            return -self.integer()
        if self.at("INT"):
            return self.integer()
        if self.at("STRING"):
            return self.next().value
        raise self.error("expected an integer or string atom")

    def parse_rule_label(self) -> RuleLabel:
        expr = self.climb(EXPRESSION_OPS, self.parse_unary)
        return RuleLabel(expr, self.accept("SYMBOL", "#") is not None)

    # -- label expressions ----------------------------------------------

    def parse_unary(self):
        if self.accept("SYMBOL", "-"):
            return Neg(self.parse_unary())
        return self.parse_expr_primary()

    def parse_expr_primary(self):
        if self.at("INT"):
            return IntLit(self.integer())
        if self.at("STRING"):
            return StrLit(self.next().value)
        if self.accept("KEYWORD", "empty"):
            return Empty()
        if self.at("KEYWORD", "indeg") or self.at("KEYWORD", "outdeg"):
            kw = self.next().value
            self.expect("SYMBOL", "(")
            node = self.expect("IDENT").value
            self.expect("SYMBOL", ")")
            return Deg("in" if kw == "indeg" else "out", node)
        if self.accept("SYMBOL", "("):
            expr = self.climb(EXPRESSION_OPS, self.parse_unary)
            self.expect("SYMBOL", ")")
            return expr
        if self.at("IDENT"):
            tok = self.next()
            vtype = self.decls.get(tok.value)
            if vtype is None:
                raise ParseError(
                    f"undeclared variable {tok.value!r}", tok.line, tok.col
                )
            return Var(tok.value, vtype)
        raise self.error("expected an expression")

    # -- conditions ------------------------------------------------------

    def parse_cond_not(self) -> Condition:
        if self.accept("KEYWORD", "not"):
            return Not(self.parse_cond_not())
        return self.parse_cond_primary()

    def parse_cond_primary(self) -> Condition:
        tok = self.peek()
        if tok.kind == "KEYWORD" and tok.value in ("int", "string", "atom"):
            self.next()
            self.expect("SYMBOL", "(")
            expr = self.climb(EXPRESSION_OPS, self.parse_unary)
            self.expect("SYMBOL", ")")
            return TypeCheck(tok.value, expr)
        if self.accept("KEYWORD", "edge"):
            self.expect("SYMBOL", "(")
            src = self.expect("IDENT").value
            self.expect("SYMBOL", ",")
            tgt = self.expect("IDENT").value
            label = None
            if self.accept("SYMBOL", ","):
                label = self.climb(EXPRESSION_OPS, self.parse_unary)
            self.expect("SYMBOL", ")")
            return EdgePred(src, tgt, label)
        # a `(` opens a comparison exactly when an operator follows its `)`;
        # an unmatched `(` counts as followed by the end of the input
        if self.at("SYMBOL", "("):
            close = self.closers.get(self.pos, len(self.tokens) - 2)
            after = self.tokens[close + 1]
            key = (after.kind, after.value)
            if key not in EXPRESSION_OPS and key not in COMPARISONS:
                self.next()
                cond = self.climb(CONDITION_OPS, self.parse_cond_not)
                self.expect("SYMBOL", ")")
                return cond
        return self.parse_comparison()

    def parse_comparison(self) -> Condition:
        left = self.climb(EXPRESSION_OPS, self.parse_unary)
        op = self.peek().value
        if (self.peek().kind, op) not in COMPARISONS:
            raise self.error("expected a comparison operator")
        self.next()
        right = self.climb(EXPRESSION_OPS, self.parse_unary)
        if op in ("=", "!="):
            return Eq(left, right, negated=op == "!=")
        return Rel(op, left, right)

    # -- rule declarations ----------------------------------------------

    def parse_rule_decl(self) -> ConditionalRuleSchema:
        self.expect("KEYWORD", "rule")
        name = self.expect("IDENT").value
        self.expect("SYMBOL", "(")
        decls: dict[str, VType] = {}
        if not self.at("SYMBOL", ")"):
            while True:
                names = [self.expect("IDENT").value]
                while self.accept("SYMBOL", ","):
                    names.append(self.expect("IDENT").value)
                self.expect("SYMBOL", ":")
                tok = self.next()
                if tok.kind != "KEYWORD" or tok.value not in (
                    "int", "string", "atom", "list",
                ):
                    raise ParseError("expected a variable type", tok.line, tok.col)
                for var in names:
                    if var in decls:
                        raise ParseError(
                            f"variable {var!r} declared twice", tok.line, tok.col
                        )
                    decls[var] = VType(tok.value)
                if not self.accept("SYMBOL", ";"):
                    break
        self.expect("SYMBOL", ")")
        self.decls = decls
        left = self.parse_graph(RuleGraph(), self.parse_rule_label)
        self.expect("SYMBOL", "=>")
        right = self.parse_graph(RuleGraph(), self.parse_rule_label)
        self.expect("KEYWORD", "interface")
        self.expect("SYMBOL", "=")
        interface = self.parse_names()
        condition = None
        if self.accept("KEYWORD", "where"):
            condition = self.climb(CONDITION_OPS, self.parse_cond_not)
        return ConditionalRuleSchema(
            name, decls, left, frozenset(interface), right, condition
        )

    def parse_names(self) -> list[str]:
        """Read `{ id, ... }`, possibly empty."""
        self.expect("SYMBOL", "{")
        names = []
        if self.at("IDENT"):
            names.append(self.next().value)
            while self.accept("SYMBOL", ","):
                names.append(self.expect("IDENT").value)
        self.expect("SYMBOL", "}")
        return names

    # -- commands --------------------------------------------------------

    def parse_postfix(self) -> Command:
        start = self.peek()
        cmd = self.parse_command_primary()
        while self.accept("SYMBOL", "!"):
            cmd = Loop(cmd, span=(start.line, start.col))
        return cmd

    def parse_command_primary(self) -> Command:
        tok = self.peek()
        span = (tok.line, tok.col)
        if self.accept("KEYWORD", "skip"):
            return Skip(span=span)
        if self.accept("KEYWORD", "fail"):
            return Fail(span=span)
        if self.accept("KEYWORD", "if") or self.accept("KEYWORD", "try"):
            cond = self.climb(COMMAND_OPS, self.parse_postfix)
            self.expect("KEYWORD", "then")
            then = self.climb(COMMAND_OPS, self.parse_postfix)
            els = None
            if self.accept("KEYWORD", "else"):
                els = self.climb(COMMAND_OPS, self.parse_postfix)
            return (If if tok.value == "if" else Try)(cond, then, els, span=span)
        if self.at("SYMBOL", "{"):
            return RuleSetCall(tuple(self.parse_names()), bare=False, span=span)
        if self.at("IDENT"):
            name = self.next().value
            return RuleSetCall((name,), bare=True, span=span)
        if self.accept("SYMBOL", "("):
            cmd = self.climb(COMMAND_OPS, self.parse_postfix)
            self.expect("SYMBOL", ")")
            return cmd
        raise self.error("expected a command")

    # -- programs --------------------------------------------------------

    def parse_program(self) -> ProgramAST:
        rules: dict[str, ConditionalRuleSchema] = {}
        macros: dict[str, MacroDecl] = {}
        mains: list[Command] = []
        while not self.at("EOF"):
            tok = self.peek()
            if self.accept("KEYWORD", "main"):
                self.expect("SYMBOL", "=")
                mains.append(self.climb(COMMAND_OPS, self.parse_postfix))
                continue
            if self.at("KEYWORD", "rule"):
                decl, table = self.parse_rule_decl(), rules
            elif self.accept("IDENT"):
                self.expect("SYMBOL", "=")
                body = self.climb(COMMAND_OPS, self.parse_postfix)
                decl, table = MacroDecl(tok.value, body, span=(tok.line, tok.col)), macros
            else:
                raise self.error("expected a declaration")
            if decl.name in rules or decl.name in macros:
                raise ParseError(f"duplicate declaration {decl.name!r}", tok.line, tok.col)
            table[decl.name] = decl
        return ProgramAST(rules, macros, mains)


def parse_program(text: str) -> ProgramAST:
    parser = Parser(text)
    return parser.parse_program()


def parse_host_graph(text: str) -> HostGraph:
    parser = Parser(text)
    graph = parser.parse_graph(HostGraph(), parser.parse_host_label)
    parser.expect("EOF")
    return graph
