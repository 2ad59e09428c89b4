"""The front end's lexical rules, its cost on long labels, its agreement
with the character-loop tokenizer it replaced, the host reader's agreement
with the Parser, the printer's agreement with the recursive printer it
replaced, and deep nesting."""

import random
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from genlib import (
    random_body,
    random_condition,
    random_host,
    random_schema,
    random_simple_label,
    reference_show,
    reference_summary,
    reference_tokenize,
)
from gp2 import corpus
from gp2.cli import main as cli_main
from gp2.executor import Budget, _summary, run_one, semantics
from gp2.graphs import HostGraph, HostLabel, Premorphism
from gp2.labels import (
    Cons,
    Eq,
    IntLit,
    Neg,
    Not,
    RuleLabel,
    Var,
    VType,
    eval_condition,
    eval_list,
    show,
)
from gp2.parsing import (
    CONDITION_OPS,
    Parser,
    ParseError,
    _read_host,
    parse_host_graph,
    parse_program,
    tokenize,
)
from gp2.program import CheckedProgram, checked

LONG_INT = "7" * 5000


class TestLexicalRules:
    @pytest.mark.parametrize(
        "host, col",
        [
            ("[ (n1, ²) | ]", 8),  # a superscript digit, not a decimal one
            ("[ (n1, 1٣) | ]", 9),  # an Arabic-Indic three after an ASCII 1
            (f"[ (n1, {LONG_INT}) | ]", 8),
            (f"[ (n1, 0) | (e1, n1, n1, 0:-{LONG_INT}) ]", 29),
        ],
        ids=["superscript", "arabic-indic", "long", "long-negative"],
    )
    def test_host_refused_at_its_position(self, host, col):
        with pytest.raises(ParseError) as exc:
            parse_host_graph(host)
        assert (exc.value.line, exc.value.col) == (1, col)

    def test_long_integer_in_rule_label_refused_at_its_position(self):
        text = f"rule r() [ | ] =>\n [ (n1, 1:{LONG_INT}) | ] interface = {{}}\nmain = r"
        with pytest.raises(ParseError) as exc:
            parse_program(text)
        assert (exc.value.line, exc.value.col) == (2, 11)

    def test_non_ascii_letters_and_digits_in_identifiers(self):
        ast = parse_program(
            "rule é٣() [ (n², 0) | ] => [ (n², 1) | ] interface = {n²}\nmain = é٣"
        )
        assert set(ast.rules["é٣"].left.nodes) == {"n²"}

    @pytest.mark.parametrize(
        "host",
        ["[ (n1, ²) | ]", "[ (n1, 1٣) | ]", f"[ (n1, {LONG_INT}) | ]"],
        ids=["superscript", "arabic-indic", "long"],
    )
    def test_run_exits_three(self, tmp_path, capsys, host):
        (tmp_path / "p.gp2").write_text("main = skip\n", encoding="utf-8")
        (tmp_path / "g.host").write_text(host, encoding="utf-8")
        code = cli_main(["run", str(tmp_path / "p.gp2"), str(tmp_path / "g.host")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: 1:") and len(err.strip().splitlines()) == 1

    def test_check_exits_three_on_long_integer(self, tmp_path, capsys):
        program = f"rule r() [ | ] => [ (n1, {LONG_INT}) | ] interface = {{}}\nmain = r\n"
        (tmp_path / "p.gp2").write_text(program, encoding="utf-8")
        assert cli_main(["check", str(tmp_path / "p.gp2")]) == 3
        assert capsys.readouterr().err.startswith("error: 1:26: ")


def test_long_host_label_parses_in_linear_time():
    host = "[ (n1, " + ":".join(["1", '"a"'] * 50_000) + ") | ]"
    began = time.perf_counter()
    graph = parse_host_graph(host)
    assert time.perf_counter() - began < 5.0
    assert len(graph.nodes["n1"].items) == 100_000


# -- differential against the character-loop tokenizer -------------------

ALPHABET = 'ab_1 09\n\t"\\/#:.;,()[]{}=!<>-+*|é²٣'


def lexed(tokenizer, text):
    try:
        return tokenizer(text)
    except ParseError as exc:
        return (exc.line, exc.col, exc.message)


def assert_same_tokens(text: str) -> None:
    new, old = lexed(tokenize, text), lexed(reference_tokenize, text)
    if new == old:
        return
    if isinstance(new, tuple):
        # an integer is ASCII digits; the old loop took any Unicode digit
        line, col, message = new
        offset = sum(len(s) + 1 for s in text.split("\n")[: line - 1]) + col - 1
        char = text[offset]
        assert message == f"unexpected character {char!r}", text
        assert char.isdigit() and not char.isascii(), text
        assert lexed(tokenize, text[:offset]) == lexed(reference_tokenize, text[:offset])
        return
    # the old loop left the end-of-input column where a final `//` began
    assert isinstance(old, list) and new[:-1] == old[:-1], text
    last_line = text.rsplit("\n", 1)[-1]
    assert old[-1].line == new[-1].line, text
    assert last_line[old[-1].col - 1 :].startswith("//"), text
    assert new[-1].col == len(last_line) + 1, text


class TestTokenizerAgainstReference:
    def test_corpus(self):
        for name in corpus.PROGRAMS:
            assert tokenize(corpus.program_text(name)) == reference_tokenize(
                corpus.program_text(name)
            )

    def test_printed_random_bodies(self):
        for seed in range(300):
            body = random_body(random.Random(seed), ("a", "b", "r"), depth=4)
            text = f"main = {body}"
            assert tokenize(text) == reference_tokenize(text), text

    def test_printed_random_hosts(self):
        for seed in range(300):
            text = random_host(random.Random(seed)).to_text()
            assert tokenize(text) == reference_tokenize(text), text

    def test_random_strings(self):
        rng = random.Random(6)
        for _ in range(20_000):
            assert_same_tokens("".join(rng.choices(ALPHABET, k=rng.randint(0, 24))))

    @pytest.mark.parametrize(
        "text",
        ['"a\\"', '"a\\\\"b"', '"\\x\\"\\\\"', "a // c", "x²", "1²", "-٣", '"²"'],
    )
    def test_edge_cases(self, text):
        assert_same_tokens(text)


# -- the host reader against the Parser --------------------------------------


def parser_host(text: str) -> HostGraph:
    """The host graph the token-list Parser reads from text."""
    parser = Parser(text)
    graph = parser.parse_graph(HostGraph(), parser.parse_host_label)
    parser.expect("EOF")
    return graph


def compare_with_parser(text: str) -> bool:
    """Check that the reader and parse_host_graph agree with the Parser on
    text, and say whether the Parser accepted it."""
    try:
        want = parser_host(text)
    except ParseError as exc:
        assert _read_host(text) is None, text
        with pytest.raises(ParseError) as got:
            parse_host_graph(text)
        assert (got.value.line, got.value.col, got.value.message) == (
            exc.line,
            exc.col,
            exc.message,
        ), text
        return False
    for graph in (_read_host(text), parse_host_graph(text)):
        assert graph is not None, text
        assert list(graph.nodes.items()) == list(want.nodes.items()), text
        assert list(graph.edges.items()) == list(want.edges.items()), text
        # the fresh-id counters agree too
        ids = []
        for g in (graph, want.copy()):
            node = g.add_node(HostLabel())
            ids.append((node, g.add_edge(node, node, HostLabel())))
        assert ids[0] == ids[1], text
    return True


HOST_TOKENS = ["empty", "if", "//", "n1", "-", "#"]
# each rewrites a printed host into one the Parser reads alike
HOST_VARIANTS = [
    lambda t: t.replace(" ", " // a comment (n9, 1) \"\n"),
    lambda t: t.replace(" ", "\r\n"),
    lambda t: t.replace(", ", ",\t"),
    lambda t: t.replace("-", "- // minus\n "),
    lambda t: t.replace("-1", "- 5"),
    lambda t: t.replace('"a"', '"a\\"\\\\b\\c"'),
    lambda t: t.replace(")", " #)"),
    lambda t: t.replace("empty", "empty#"),
    lambda t: t.replace("(", "(\t").replace("]", "] // end"),
]


def host_texts(count: int, max_nodes: int = 8) -> list[str]:
    return [random_host(random.Random(seed), max_nodes).to_text() for seed in range(count)]


class TestHostReaderAgainstParser:
    def test_printed_random_hosts(self):
        assert all(compare_with_parser(text) for text in host_texts(300))

    @pytest.mark.parametrize("variant", range(len(HOST_VARIANTS)))
    def test_variants(self, variant):
        for text in host_texts(100):
            assert compare_with_parser(HOST_VARIANTS[variant](text))

    def test_random_mutations(self):
        rng = random.Random(14)
        texts = host_texts(100, max_nodes=3)
        accepted = 0
        for _ in range(20_000):
            text = list(rng.choice(texts))
            for _ in range(rng.randint(1, 2)):
                k = rng.randrange(len(text) + 1)
                if rng.random() < 0.3 and k < len(text):
                    del text[k]
                else:
                    text.insert(k, rng.choice(HOST_TOKENS + list(ALPHABET)))
            accepted += compare_with_parser("".join(text))
        # both outcomes are well represented
        assert 1_000 < accepted < 19_000

    @pytest.mark.parametrize(
        "text",
        [
            "[ (n1, 0) (n1, 1) | ]",
            "[ (n1, 0) | (e1, n1, n2, 0) ]",
            "[ (n1, 0) | (e1, n1, n1, 0) (e1, n1, n1, 0) ]",
            "[ (if, 0) | ]",
            "[ (n1, 0) | (empty, n1, n1, 0) ]",
            "[ (²1, 0) | ]",
            f"[ (n1, -{LONG_INT}) | ]",
            "[ (n1, 1 // comment) | ]",
            "[ (n1, 1) | ] x",
            "[ (n1, 1:) | ]",
            "[ (n1, emptyx) | ]",
            "[ (n1, --1) | ]",
            "[ (n1, 1 # #) | ]",
        ],
    )
    def test_refused_as_the_parser_refuses(self, text):
        assert not compare_with_parser(text)

    @pytest.mark.parametrize(
        "text",
        [
            "[ (n1, " + "//" * 10_000,
            "[ (n1, " + ":".join(["1"] * 10_000) + " junk",
        ],
        ids=["slashes", "long-label"],
    )
    def test_hostile_input_refused_in_linear_time(self, text):
        began = time.perf_counter()
        with pytest.raises(ParseError):
            parse_host_graph(text)
        assert time.perf_counter() - began < 1.0


# -- printing ----------------------------------------------------------------


def rule_labels(rule) -> list:
    """The node and edge labels of both sides of a rule."""
    sides = (rule.left, rule.right)
    return [label for g in sides for label in g.nodes.values()] + [
        edge.label for g in sides for edge in g.edges.values()
    ]


def random_nodes(seed: int) -> list:
    """A random command, simple label, schema's labels and condition."""
    rng = random.Random(seed)
    return [
        random_body(rng, ("a", "b", "r"), depth=4),
        RuleLabel(random_simple_label(rng)[0], rng.random() < 0.3),
        *rule_labels(random_schema(rng)),
        random_condition(rng),
    ]


def test_printer_agrees_with_the_recursive_printer():
    rng = random.Random(0)
    count = 0
    for seed in range(3_000):
        for node in random_nodes(seed):
            text = reference_show(node)
            assert show(node) == str(node) == text, text
            assert _summary(node) == reference_summary(node), text
            limit = rng.randrange(80)
            prefix = show(node, limit=limit)
            assert text.startswith(prefix) and (prefix == text or len(prefix) > limit), text
            count += 1
    assert count >= 20_000


def test_deep_chains_print_without_recursion():
    deep_neg = x = Var("x", VType.INT)
    deep_not = zero = Eq(x, IntLit(0))
    deep_cons = x
    for _ in range(5_000):
        deep_neg, deep_not, deep_cons = Neg(deep_neg), Not(deep_not), Cons(x, deep_cons)
    assert str(deep_neg) == "(-" * 5_000 + "x" + ")" * 5_000
    assert str(deep_not) == "not (" * 5_000 + str(zero) + ")" * 5_000
    assert str(deep_cons) == "x:" * 5_000 + "x"


@pytest.mark.parametrize("name", corpus.PROGRAMS)
def test_corpus_syntax_prints_and_reparses(name):
    ast = parse_program(corpus.program_text(name))

    def reparsed(text: str, decls: dict, read):
        parser = Parser(text)
        parser.decls = decls
        node = read(parser)
        assert parser.at("EOF"), text
        return node

    for rule in ast.rules.values():
        for label in rule_labels(rule):
            assert reparsed(str(label), rule.variables, Parser.parse_rule_label) == label
        if rule.condition is not None:
            read = lambda p: p.climb(CONDITION_OPS, p.parse_cond_not)
            assert reparsed(str(rule.condition), rule.variables, read) == rule.condition
    for body in [m.body for m in ast.macros.values()] + ast.mains:
        assert parse_program(f"main = {body}").main == body


# -- nesting ---------------------------------------------------------------

DEPTH = 120


def program(label="x", where="", main="r", macros=""):
    where = f" where {where}" if where else ""
    return (
        f"rule r(x: int) [ (n1, x) | ] => [ (n1, {label}) | ] interface = {{n1}}{where}\n"
        f"{macros}main = {main}\n"
    )


NESTED = {
    "parentheses in main": program(main="(" * DEPTH + "r" + ")" * DEPTH),
    "if chain": program(main="if r then " * DEPTH + "r"),
    "!": program(main="r" + "!" * DEPTH),
    "or": program(main=" or ".join(["r"] * (DEPTH + 1))),
    "macro chain": program(
        main=f"m{DEPTH}",
        macros="m0 = r\n" + "".join(f"m{i + 1} = m{i}\n" for i in range(DEPTH)),
    ),
    "parentheses in an expression": program(label="(" * DEPTH + "x" + ")" * DEPTH),
    "unary -": program(label="-" * DEPTH + "x"),
    ": chain": program(label=":".join(["x"] * (DEPTH + 1))),
    "+ chain": program(label="+".join(["x"] * (DEPTH + 1))),
    "parentheses in a condition": program(where="(" * DEPTH + "x = 0" + ")" * DEPTH),
    "not": program(where="not " * DEPTH + "x = 0"),
    "and chain": program(where=" and ".join(["x = 0"] * (DEPTH + 1))),
}


def printed(ast) -> str:
    rule = ast.rules["r"]
    macros = "".join(f"{m.name} = {m.body}\n" for m in ast.macros.values())
    where = "" if rule.condition is None else str(rule.condition)
    return program(str(rule.right.nodes["n1"].expr), where, str(ast.main), macros)


def parse_check_print_run(text: str) -> None:
    ast = parse_program(text)
    prog = checked(ast)
    again = parse_program(printed(ast))
    assert again.main == ast.main
    assert {m.name: m.body for m in again.macros.values()} == {
        m.name: m.body for m in ast.macros.values()
    }
    assert again.rules["r"].right.nodes == ast.rules["r"].right.nodes
    assert again.rules["r"].condition == ast.rules["r"].condition
    host = parse_host_graph("[ (n1, 0) | ]")
    budget = Budget(max_steps=500, max_configs=500)
    assert run_one(prog, host, budget=budget).kind in ("graph", "fail", "budget")
    assert semantics(prog, host, budget=budget).bottom in ("none", "proven", "possible")


@pytest.mark.parametrize("construct", list(NESTED))
def test_deep_nesting(construct):
    # a fresh thread starts with an empty stack, as the command line does,
    # so the depth reached does not depend on the test runner's frames
    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(parse_check_print_run, NESTED[construct]).result()


# the deepest nesting of each construct that reaches a rule label or a
# condition: one level more is refused by the parser's recursion
DEEPEST = {
    "+ chain": lambda: program(label="+".join(["x"] * 328)),
    "parentheses in an expression": lambda: program(label="(" * 327 + "x" + ")" * 327),
    "unary -": lambda: program(label="-" * 245 + "x"),
    ": chain": lambda: program(label=":".join(["x"] * 330)),
    "parentheses in a condition": lambda: program(where="(" * 326 + "x = 0" + ")" * 326),
    "not": lambda: program(where="not " * 245 + "x = 0"),
    "and chain": lambda: program(where=" and ".join(["x = 0"] * 327)),
}


def run_as_interpreted(text: str) -> None:
    """`run_one` of the program's one rule, compiled to straight-line code,
    against `eval_condition` and `eval_list` on hosts where x is 0, 1, -2."""
    prog = checked(parse_program(text))
    rule = prog.rules["r"]
    g = Premorphism({"n1": "n1"}, {})
    for x in (0, 1, -2):
        host = parse_host_graph(f"[ (n1, {x}) | ]")
        out = run_one(prog, host)
        if rule.condition is not None and not eval_condition(rule.condition, g, {"x": x}, host):
            assert out.kind == "fail"
            continue
        want = host.copy()
        label = eval_list(rule.right.nodes["n1"].expr, g, {"x": x}, host)
        want.relabel_node("n1", HostLabel(label))
        assert out.kind == "graph" and out.graph.to_text() == want.to_text()


@pytest.mark.parametrize("construct", list(DEEPEST))
def test_deepest_labels_and_conditions_run_as_interpreted(construct):
    with ThreadPoolExecutor(max_workers=1) as pool:  # a fresh stack, as above
        pool.submit(run_as_interpreted, DEEPEST[construct]()).result()


# -- macro expansion ---------------------------------------------------------

INC = "rule inc(x: int) [ (n1, x) | ] => [ (n1, x + 1) | ] interface = {n1} where x < 3\n"


def doubling_chain(k: int, leaf: str = "inc") -> str:
    """Macros m0 ... mk, each but the last calling the next one twice."""
    return "".join(f"m{i} = m{i + 1}; m{i + 1}\n" for i in range(k)) + f"m{k} = {leaf}\n"


def test_each_macro_expands_once_and_its_calls_share_it():
    main = checked(parse_program(INC + doubling_chain(3) + "main = m0\n")).main
    assert len(main.items) == 2 and main.items[0] is main.items[1]


def test_a_long_doubling_chain_checks_and_runs_to_its_budget():
    # 2^60 calls once expanded: only sharing makes this feasible
    null = "rule r() [ | ] => [ | ] interface = {}\n"
    host = parse_host_graph("[ | ]")
    steps = set()
    for k in (14, 60):
        prog = checked(parse_program(null + doubling_chain(k, "r") + "main = m0\n"))
        out = run_one(prog, host, budget=Budget(max_steps=10_000))
        assert out.kind == "budget"
        steps.add(out.steps)
    assert steps == {10_001}


def test_a_traced_run_prints_only_the_start_of_a_shared_expansion():
    # the head `skip or m0` stands for 2^18 calls once expanded
    null = "rule r() [ | ] => [ | ] interface = {}\n"
    prog = checked(parse_program(null + doubling_chain(18, "r") + "main = skip or m0\n"))
    host = parse_host_graph("[ | ]")

    def best_of_three(tracing):
        times = []
        for _ in range(3):
            began = time.perf_counter()
            out = run_one(prog, host, Budget(max_steps=100), tracing=tracing)
            times.append(time.perf_counter() - began)
        return min(times), out

    (untraced, plain), (traced, out) = best_of_three(False), best_of_three(True)
    assert (out.kind, out.steps) == (plain.kind, plain.steps)
    first = out.trace[0].command
    assert first.startswith("(skip or r; r; ") and first.endswith("...") and len(first) == 60
    assert traced - untraced < 0.1


# each main uses m0 once: after ;, inside or, in try ... then, under !
MACRO_USES = ["inc; m0", "m0 or (inc; m0)", "try m0 then (m0; inc) else inc", "(inc; m0)!"]


@pytest.mark.parametrize("k", range(6))
@pytest.mark.parametrize("use", MACRO_USES)
def test_shared_expansion_runs_like_the_text_written_out(use, k):
    leaf = "inc or skip"
    shared = checked(parse_program(INC + doubling_chain(k, leaf) + f"main = {use}\n"))
    body = leaf
    for _ in range(k):
        body = f"({body}); ({body})"
    # the text written out has no macros; its parsed main runs unexpanded
    ast = parse_program(INC + f"main = {use.replace('m0', f'({body})')}\n")
    flat = CheckedProgram(ast.rules, ast.main)
    host = parse_host_graph("[ (n1, 0) (n2, 1) | ]")
    for seed in range(4):
        a, b = (run_one(p, host, Budget(seed=seed), tracing=True) for p in (shared, flat))
        assert a.trace == b.trace and (a.kind, a.steps) == (b.kind, b.steps)
        if a.kind == "graph":
            assert a.graph.to_text() == b.graph.to_text()
    budget = Budget(max_steps=100_000)
    rs = semantics(shared, host, budget)
    assert rs.bottom != "possible"
    assert rs.describe() == semantics(flat, host, budget).describe()
