import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import gp2
from gp2 import corpus
from gp2.cli import main
from gp2.graphs import isomorphic
from gp2.parsing import parse_host_graph

DIVERGE = "rule null() [ | ] => [ | ] interface = {}\nmain = null!\n"
GROW = "rule grow() [ | ] => [ (n1, 0) | ] interface = {}\nmain = grow!\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_skip_prints_graph_and_exits_zero(self, files, capsys):
        p = files("p.gp2", "main = skip\n")
        g = files("g.host", "[ | ]\n")
        code, out, _ = run_cli(capsys, "run", p, g)
        assert code == 0
        assert out.strip() == "[ | ]"

    def test_fail_prints_fail_and_exits_one(self, files, capsys):
        p = files("p.gp2", "main = fail\n")
        g = files("g.host", "[ (n1, 0) | ]\n")
        code, out, _ = run_cli(capsys, "run", p, g)
        assert code == 1
        assert out.strip() == "fail"

    def test_divergence_exits_two(self, files, capsys):
        p = files("p.gp2", DIVERGE)
        g = files("g.host", "[ | ]\n")
        code, out, _ = run_cli(capsys, "run", p, g, "--max-steps", "100")
        assert code == 2
        assert "bound exceeded" in out

    def test_printed_graph_reparses(self, files, capsys):
        p = files(
            "p.gp2",
            'rule r(x: list) [ (n1, x) | ] => [ (n1, x:"done" #) | ]'
            " interface = {n1}\nmain = r\n",
        )
        g = files("g.host", "[ (n1, 0:1) | ]\n")
        code, out, _ = run_cli(capsys, "run", p, g)
        assert code == 0
        parsed = parse_host_graph(out)
        assert parsed.nodes["n1"].items == (0, 1, "done")
        assert parsed.nodes["n1"].marked

    def test_identical_inputs_identical_output(self, files, capsys):
        p = files("p.gp2", "main = skip or fail\n")
        g = files("g.host", "[ (n1, 0) | ]\n")
        first = run_cli(capsys, "run", p, g, "--seed", "3")
        second = run_cli(capsys, "run", p, g, "--seed", "3")
        assert first == second

    def test_output_file(self, files, capsys, tmp_path):
        p = files("p.gp2", "main = skip\n")
        g = files("g.host", "[ (n1, 7) | ]\n")
        target = tmp_path / "result.host"
        code, _, _ = run_cli(capsys, "run", p, g, "--output", str(target))
        assert code == 0
        assert isomorphic(
            parse_host_graph(target.read_text()), parse_host_graph("[ (n1, 7) | ]")
        )

    def test_trace_lines(self, files, capsys):
        p = files("p.gp2", "main = skip\n")
        g = files("g.host", "[ | ]\n")
        code, out, _ = run_cli(capsys, "run", p, g, "--trace")
        assert code == 0
        assert any(line.startswith("#") and "skip" in line for line in out.splitlines())


class TestSemantics:
    def test_skip_or_fail(self, files, capsys):
        p = files("p.gp2", "main = skip or fail\n")
        g = files("g.host", "[ (n1, 0) | ]\n")
        code, out, _ = run_cli(capsys, "semantics", p, g)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == ["[ (n1, 0) | ]", "fail"]

    def test_empty_ruleset_only_fails(self, files, capsys):
        p = files("p.gp2", "main = {}\n")
        g = files("g.host", "[ (n1, 0) | ]\n")
        code, out, _ = run_cli(capsys, "semantics", p, g)
        assert code == 0
        assert out.strip() == "fail"

    def test_divergence_reports_proven_bottom(self, files, capsys):
        p = files("p.gp2", DIVERGE)
        g = files("g.host", "[ | ]\n")
        code, out, _ = run_cli(capsys, "semantics", p, g)
        assert code == 0
        assert out.strip() == "bottom: proven"

    @pytest.mark.parametrize("mode", [["semantics"]])
    def test_truncated_exploration_exits_two(self, files, capsys, mode):
        p = files("p.gp2", GROW)
        g = files("g.host", "[ | ]\n")
        code, out, _ = run_cli(capsys, *mode, p, g, "--max-steps", "50")
        assert code == 2
        assert out.strip() == "bottom: possible"

    def test_edgeless_host_of_2000_nodes(self, files, capsys):
        p = files("p.gp2", "main = skip\n")
        text = "[ " + " ".join(f"(n{i}, 0)" for i in range(2000)) + " | ]"
        g = files("g.host", text + "\n")
        code, out, _ = run_cli(capsys, "semantics", p, g)
        assert code == 0
        assert out.strip() == text


class TestCheck:
    def test_valid_program(self, files, capsys):
        p = files("p.gp2", "main = skip\n")
        code, out, _ = run_cli(capsys, "check", p)
        assert code == 0

    def test_non_simple_left_label(self, files, capsys):
        p = files(
            "p.gp2",
            "rule r(x, y: list) [ (n1, x:y) | ] => [ (n1, x:y) | ]"
            " interface = {n1}\nmain = r\n",
        )
        code, out, _ = run_cli(capsys, "check", p)
        assert code == 3
        assert "simple" in out

    def test_missing_main(self, files, capsys):
        p = files("p.gp2", "rule r() [ | ] => [ | ] interface = {}\n")
        code, out, _ = run_cli(capsys, "check", p)
        assert code == 3

    def test_syntax_error_exits_three(self, files, capsys):
        p = files("p.gp2", "main = = skip\n")
        code, _, err = run_cli(capsys, "check", p)
        assert code == 3
        assert "error" in err

    def test_long_or_chain_checks(self, files, capsys):
        # the walk over commands keeps its own stack; a fresh thread starts
        # with an empty one, as the command line does
        p = files("p.gp2", "main = " + " or ".join(["skip"] * 5001) + "\n")
        with ThreadPoolExecutor(max_workers=1) as pool:
            code, out, err = pool.submit(run_cli, capsys, "check", p).result()
        assert (code, out, err) == (0, "ok\n", "")

    def test_long_rule_label_checks(self, files, capsys):
        # the type check walks a label on its own stack
        label = ":".join(["0"] * 3000)
        p = files(
            "p.gp2",
            f"rule r() [ (n1, {label}) | ] => [ (n1, 0) | ] interface = {{n1}}\n"
            "main = r\n",
        )
        assert run_cli(capsys, "check", p) == (0, "ok\n", "")

    def test_long_macro_chain_declared_callers_first_checks(self, files, capsys):
        # the search for macro cycles keeps its own stack
        chain = "".join(f"m{i} = m{i - 1}\n" for i in range(1500, 0, -1))
        p = files("p.gp2", "main = m1500\n" + chain + "m0 = skip\n")
        with ThreadPoolExecutor(max_workers=1) as pool:
            code, out, err = pool.submit(run_cli, capsys, "check", p).result()
        assert (code, out, err) == (0, "ok\n", "")

    def test_violations_print_in_one_order_under_every_hash_seed(self, files):
        """Interface, degree and condition nodes are sets, and so were the
        macro references; each `gp2 check` process must print them alike."""
        p = files(
            "p.gp2",
            "rule r(x: int)\n"
            "  [ (n1, x) | ] => [ (n1, x + indeg(q1) + outdeg(q2)) | ]\n"
            "  interface = {n1, i1, i2, i3, i4}\n"
            "  where edge(q3, q4)\n"
            "a = b; c\nb = c\nc = b\nmain = a\n",
        )
        src = os.path.dirname(os.path.dirname(gp2.__file__))
        outputs = set()
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-m", "gp2.cli", "check", p],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == 3, done.stderr
            outputs.add(done.stdout)
        assert outputs == {
            "r: interface node i1: not present in left graph\n"
            "r: interface node i1: not present in right graph\n"
            "r: interface node i2: not present in left graph\n"
            "r: interface node i2: not present in right graph\n"
            "r: interface node i3: not present in left graph\n"
            "r: interface node i3: not present in right graph\n"
            "r: interface node i4: not present in left graph\n"
            "r: interface node i4: not present in right graph\n"
            "r: right node n1: degree operand 'q1' is not a left-graph node\n"
            "r: right node n1: degree operand 'q2' is not a left-graph node\n"
            "r: condition: node 'q3' is not a left-graph node\n"
            "r: condition: node 'q4' is not a left-graph node\n"
            "program: macro b: recursive macro reference: a -> b -> c -> b\n"
        }


class TestErrors:
    def test_non_utf8_host_exits_three(self, files, capsys, tmp_path):
        p = files("p.gp2", "main = skip\n")
        g = tmp_path / "g.host"
        g.write_bytes(b"[ (n1, \"\xff\") | ]\n")
        code, _, err = run_cli(capsys, "run", p, str(g))
        assert code == 3
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_deeply_nested_main_exits_three(self, files, capsys):
        p = files("p.gp2", "main = " + "(" * 2000 + "skip" + ")" * 2000 + "\n")
        g = files("g.host", "[ | ]\n")
        code, _, err = run_cli(capsys, "run", p, g)
        assert code == 3
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["run", "semantics"])
    def test_integer_too_long_to_print_exits_three(self, files, capsys, command):
        # 3 squared fifteen times has 15,635 digits, past the default limit
        p = files(
            "p.gp2",
            "rule sq(x: int) [ (n1, x) | ] => [ (n1, x * x) | ] interface = {n1}\n"
            "main = " + "; ".join(["sq"] * 15) + "\n",
        )
        g = files("g.host", "[ (n1, 3) | ]\n")
        code, out, err = run_cli(capsys, command, p, g)
        assert code == 3
        assert out == ""
        limit = sys.get_int_max_str_digits()
        assert err == (
            f"error: cannot print the result: it holds an integer of more than {limit} digits\n"
        )

    @pytest.mark.parametrize("command", ["run", "semantics"])
    @pytest.mark.parametrize("flag", ["--max-steps", "--max-configs"])
    def test_negative_budget_exits_three(self, files, capsys, command, flag):
        p = files("p.gp2", "main = skip\n")
        g = files("g.host", "[ | ]\n")
        code, out, err = run_cli(capsys, command, p, g, flag, "-1")
        assert code == 3
        assert out == ""
        assert err == f"error: {flag} must not be negative\n"

    @pytest.mark.parametrize("argv", [["run"], ["run", "a", "b", "--bogus"]])
    def test_usage_error_exits_three(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("usage: gp2") and "error:" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--help")
        assert code == 0
        assert out.startswith("usage: gp2 run")


def test_a_run_never_imports_the_confluence_analysis(files):
    """`gp2 run` needs no loop verdict, so neither importing the CLI nor a
    run of `connected` loads `gp2.confluence`; an engine's first loop
    verdict does."""
    p = files("p.gp2", corpus.program_text("connected"))
    g = files("g.host", '[ (a, 0) (b, 1) (c, 2) | (e, a, b, "x") (f, c, b, 1) ]\n')
    script = f"""
import contextlib, io, sys
import gp2.cli
print("gp2.confluence" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = gp2.cli.main(["run", {p!r}, {g!r}])
print(code, out.getvalue().startswith("[ "), "gp2.confluence" in sys.modules)
from gp2 import Budget, Engine, corpus, parse_host_graph
program = corpus.load("connected")
engine = Engine(program.rules, Budget())
result = engine.semantics(program.main, parse_host_graph(open({g!r}).read()))
print(len(result.graphs), "gp2.confluence" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(gp2.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["False", "0 True False", "1 True", ""]
