import random

import pytest

from genlib import random_body
from gp2.labels import Arith, Cons, Dot, IntLit, StrLit, Var, VType
from gp2.cli import main as cli_main
from gp2.parsing import ParseError, Parser, parse_host_graph, parse_program
from gp2.program import (
    CheckError,
    Fail,
    If,
    Loop,
    Or,
    RuleSetCall,
    Seq,
    Skip,
    Try,
    check_program,
    checked,
)

TWO_RULES = """
rule a() [ | ] => [ | ] interface = {}
rule b() [ | ] => [ | ] interface = {}
rule r() [ | ] => [ | ] interface = {}
"""


def main_of(text: str):
    return parse_program(TWO_RULES + text).main


class TestHostGraphs:
    def test_empty(self):
        g = parse_host_graph("[ | ]")
        assert not g.nodes and not g.edges

    def test_empty_list_label(self):
        g = parse_host_graph("[ (n1, empty) | ]")
        assert g.nodes["n1"].items == ()
        assert not g.nodes["n1"].marked

    def test_marked_edge(self):
        g = parse_host_graph('[ (n1, 0) (n2, 0) | (e1, n1, n2, "ok" #) ]')
        e = g.edges["e1"]
        assert (e.source, e.target) == ("n1", "n2")
        assert e.label.items == ("ok",)
        assert e.label.marked

    def test_negative_integers_and_lists(self):
        g = parse_host_graph("[ (n1, -3:0:2) | ]")
        assert g.nodes["n1"].items == (-3, 0, 2)

    def test_duplicate_node_id_rejected(self):
        with pytest.raises(ParseError):
            parse_host_graph("[ (n1, 0) (n1, 1) | ]")

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(ParseError):
            parse_host_graph(
                "[ (n1, 0) | (e1, n1, n1, empty) (e1, n1, n1, empty) ]"
            )

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ParseError):
            parse_host_graph("[ (n1, 0) | (e1, n1, nx, empty) ]")

    def test_error_carries_location(self):
        try:
            parse_host_graph("[ (n1, ) | ]")
        except ParseError as exc:
            assert exc.line == 1
            assert exc.col > 0
        else:
            pytest.fail("expected a parse error")


class TestPrograms:
    def test_main_skip(self):
        ast = parse_program("main = skip")
        assert ast.main == Skip()

    def test_ruleset_then_loop(self):
        main = main_of("main = {a, b}; r!")
        assert main == Seq(
            (RuleSetCall(("a", "b")), Loop(RuleSetCall(("r",))))
        )

    def test_bang_binds_tighter_than_seq(self):
        main = main_of("main = r; r!")
        assert isinstance(main, Seq)
        assert isinstance(main.items[1], Loop)

    def test_or_binds_loosest(self):
        main = main_of("main = r; skip or fail")
        assert isinstance(main, Or)
        assert isinstance(main.left, Seq)
        assert main.right == Fail()

    def test_if_then_else_and_optional_else(self):
        with_else = main_of("main = if r then skip else fail")
        assert with_else == If(RuleSetCall(("r",), bare=True), Skip(), Fail())
        without = main_of("main = if r then skip")
        assert without == If(RuleSetCall(("r",), bare=True), Skip(), None)
        assert without.els is None

    def test_try_forms(self):
        t = main_of("main = try r then skip else fail")
        assert t == Try(RuleSetCall(("r",), bare=True), Skip(), Fail())
        assert main_of("main = try r then skip").els is None

    def test_parenthesised_loop_body(self):
        main = main_of("main = (r; skip)!")
        assert isinstance(main, Loop)
        assert isinstance(main.body, Seq)

    @pytest.mark.parametrize("text", ["(if a then a); a", "(if a then b) or fail"])
    def test_printed_branch_reparses(self, text):
        main = main_of(f"main = {text}")
        assert main_of(f"main = {main}") == main

    def test_printed_random_bodies_reparse(self):
        for seed in range(500):
            body = random_body(random.Random(seed), ("a", "b", "r"), depth=4)
            assert main_of(f"main = {body}") == body, f"seed {seed}: {body}"

    def test_empty_ruleset_call(self):
        main = parse_program("main = {}").main
        assert main == RuleSetCall(())

    def test_comments(self):
        ast = parse_program("// nothing here\nmain = skip // trailing\n")
        assert ast.main == Skip()

    def test_keyword_cannot_name_rule(self):
        with pytest.raises(ParseError):
            parse_program("rule if() [ | ] => [ | ] interface = {}\nmain = skip")

    def test_undeclared_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_program(
                "rule r() [ (n1, x) | ] => [ (n1, x) | ] interface = {n1}\n"
                "main = r"
            )


class TestRuleDeclarations:
    def test_variable_groups_and_condition(self):
        ast = parse_program(
            "rule r(a, b: int; s: string; x: list)\n"
            "  [ (n1, a:x) (n2, s) | (e1, n1, n2, b) ]\n"
            "  => [ (n1, a:x) (n2, s) | ]\n"
            "  interface = {n1, n2}\n"
            "  where a > b and not edge(n2, n1)\n"
            "main = r"
        )
        schema = ast.rules["r"]
        assert schema.variables == {
            "a": VType.INT,
            "b": VType.INT,
            "s": VType.STRING,
            "x": VType.LIST,
        }
        assert schema.interface == frozenset({"n1", "n2"})
        assert schema.condition is not None

    def test_expression_precedence(self):
        ast = parse_program(
            'rule r(n: int; s: string) [ (n1, n) | ] =>'
            ' [ (n1, n+1*2 : "a".s : n) | ] interface = {n1}\nmain = r'
        )
        label = ast.rules["r"].right.nodes["n1"]
        expr = label.expr
        # ':' is right-associative and loosest
        assert isinstance(expr, Cons)
        first, rest = expr.left, expr.right
        assert isinstance(first, Arith) and first.op == "+"
        assert isinstance(first.right, Arith) and first.right.op == "*"
        assert isinstance(rest, Cons)
        assert isinstance(rest.left, Dot)

    def test_marked_rule_items(self):
        ast = parse_program(
            "rule r(x: list) [ (n1, x #) | ] => [ (n1, x) | ] interface = {n1}\n"
            "main = r"
        )
        assert ast.rules["r"].left.nodes["n1"].marked
        assert not ast.rules["r"].right.nodes["n1"].marked

    def test_duplicate_rule_name_rejected(self):
        with pytest.raises(ParseError):
            parse_program(
                "rule r() [ | ] => [ | ] interface = {}\n"
                "rule r() [ | ] => [ | ] interface = {}\n"
                "main = r"
            )


def condition_of(text: str):
    rule = "rule r(x: int) [ (n1, x) | ] => [ (n1, x) | ] interface = {n1} where "
    return parse_program(rule + text + "\nmain = r").rules["r"].condition


class TestConditions:
    @pytest.mark.parametrize(
        "text, plain",
        [
            ("(x) = 1", "x = 1"),
            ("((x)) + 1 > (2)", "x + 1 > 2"),
            ("(x) : 1 != 2", "x : 1 != 2"),
            ("(x = 1)", "x = 1"),
            ("((x = 1) and (x) = 1)", "x = 1 and x = 1"),
            ("not (x = 1 or x = 2)", "not (x = 1 or x = 2)"),
            ("(not (x) < 1) or (edge(n1, n1))", "not x < 1 or edge(n1, n1)"),
        ],
    )
    def test_parenthesised_condition_or_expression(self, text, plain):
        assert condition_of(text) == condition_of(plain)

    def test_nested_condition_reads_each_token_once(self, monkeypatch):
        text = (
            "rule r(x: int) [ (n1, x) | ] => [ (n1, x) | ] interface = {n1}\n"
            "where " + "(" * 160 + "x = 1" + ")" * 160 + "\nmain = r"
        )
        calls = 0
        read = Parser.next

        def counting(parser):
            nonlocal calls
            calls += 1
            return read(parser)

        monkeypatch.setattr(Parser, "next", counting)
        parser = Parser(text)
        parser.parse_program()
        assert calls <= len(parser.tokens)

    def test_long_integer_in_condition_reports_the_limit(self, tmp_path, capsys):
        text = (
            "rule r(x: int) [ (n1, x) | ] => [ (n1, x) | ] interface = {n1} where x = "
            + "7" * 5000
            + "\nmain = r\n"
        )
        with pytest.raises(ParseError) as exc:
            parse_program(text)
        assert (exc.value.line, exc.value.col) == (1, 74)
        assert "limit" in exc.value.message
        (tmp_path / "p.gp2").write_text(text, encoding="utf-8")
        assert cli_main(["check", str(tmp_path / "p.gp2")]) == 3
        assert capsys.readouterr().err.startswith("error: 1:74: ")


class TestChecking:
    def test_missing_main(self):
        violations = check_program(parse_program("rule r() [ | ] => [ | ] interface = {}"))
        assert any("main" in str(v) for v in violations)

    def test_two_mains(self):
        violations = check_program(parse_program("main = skip\nmain = fail"))
        assert any("main" in str(v) for v in violations)

    def test_unresolved_identifier(self):
        violations = check_program(parse_program("main = try c then skip"))
        assert any("unresolved" in str(v) for v in violations)

    def test_macro_recursion_rejected(self):
        program = parse_program("m = m; skip\nmain = m")
        assert any("recursive" in str(v) for v in check_program(program))

    def test_macro_expansion(self):
        program = checked(
            parse_program(TWO_RULES + "twice = r; r\nmain = twice!")
        )
        assert program.main == Loop(
            Seq((RuleSetCall(("r",), bare=True), RuleSetCall(("r",), bare=True)))
        )

    def test_unresolved_names_in_source_order(self):
        """Macros in declaration order, then main; within each, calls in
        source order however deeply nested; macro cycles come last."""
        program = parse_program(
            "rule r() [ | ] => [ | ] interface = {}\n"
            "m1 = u1; if (u2 or r) then {r, u3} else try m2 then (u4!)\n"
            "m2 = (r; (skip or {m1, u5}))!; if skip then (m1 or u6)\n"
            "main = m1; if u7 then (r or (u8; {u9, r})); m2; (u1)!\n"
        )
        rule_or_macro = "unresolved rule or macro identifier"
        assert [(v.rule, v.location, v.message) for v in check_program(program)] == [
            ("program", "macro m1", f"{rule_or_macro} 'u1'"),
            ("program", "macro m1", f"{rule_or_macro} 'u2'"),
            ("program", "macro m1", "unresolved rule identifier 'u3'"),
            ("program", "macro m1", f"{rule_or_macro} 'u4'"),
            ("program", "macro m2", "unresolved rule identifier 'm1'"),
            ("program", "macro m2", "unresolved rule identifier 'u5'"),
            ("program", "macro m2", f"{rule_or_macro} 'u6'"),
            ("program", "main", f"{rule_or_macro} 'u7'"),
            ("program", "main", f"{rule_or_macro} 'u8'"),
            ("program", "main", "unresolved rule identifier 'u9'"),
            ("program", "main", f"{rule_or_macro} 'u1'"),
            ("program", "macro m1", "recursive macro reference: m1 -> m2 -> m1"),
        ]

    def test_check_error_lists_all_violations(self):
        with pytest.raises(CheckError) as exc:
            checked(parse_program("main = a; b"))
        assert len(exc.value.violations) == 2
