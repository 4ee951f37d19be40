"""CLI surface: commands, exit codes, formats, piping."""

import io
import json

import pytest

from helpers import cycle_graph
from unicwd import build_template, C5Spec, U3Spec, to_edge_list
from unicwd.cli import main


@pytest.fixture
def u3_file(tmp_path):
    p = tmp_path / "u3.el"
    p.write_text(to_edge_list(build_template(U3Spec(1))))
    return str(p)


@pytest.fixture
def non_unigraph_file(tmp_path):
    g = cycle_graph(*"abcdef")
    p = tmp_path / "c6.el"
    p.write_text(to_edge_list(g))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRecognize:
    def test_unigraph(self, capsys, u3_file):
        code, out, _ = run(capsys, "recognize", u3_file)
        assert code == 0
        assert "verdict: unigraph" in out
        assert "family=U3" in out

    def test_not_unigraph(self, capsys, non_unigraph_file):
        code, out, _ = run(capsys, "recognize", non_unigraph_file)
        assert code == 1
        assert "verdict: not-unigraph" in out

    def test_json(self, capsys, u3_file):
        code, out, _ = run(capsys, "recognize", "--json", u3_file)
        data = json.loads(out)
        assert data["verdict"] == "unigraph"
        assert data["components"][0]["family"] == "U3"
        assert data["components"][0]["params"] == {"m": 1}


def test_successive_calls_share_no_state(capsys, u3_file):
    # one parser serves every in-process call
    code, out, _ = run(capsys, "recognize", "--json", u3_file)
    assert code == 0 and json.loads(out)["verdict"] == "unigraph"
    code, out, _ = run(capsys, "recognize", u3_file)
    assert code == 0 and out.endswith("verdict: unigraph\n") and "{" not in out
    code, out, err = run(capsys, "recognize")
    assert code == 2 and out == "" and "error:" in err
    code, out, err = run(capsys, "recognize", u3_file)
    assert code == 0 and "family=U3" in out and err == ""


class TestDecompose:
    def test_text_format(self, capsys, tmp_path):
        from unicwd import SplittedGraph, Graph, compose

        g = compose(
            SplittedGraph(Graph(["z"]), frozenset({"z"}), frozenset()),
            build_template(C5Spec()),
        )
        p = tmp_path / "g.el"
        p.write_text(to_edge_list(g))
        code, out, _ = run(capsys, "decompose", str(p))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "split k=1 A={z} B={}"
        assert lines[1] == "tail {x1,x2,x3,x4,x5}"

    def test_tail_none(self, capsys, tmp_path):
        p = tmp_path / "p4.el"
        p.write_text("4 3\na b\nb c\nc d\n")
        code, out, _ = run(capsys, "decompose", str(p))
        assert code == 0
        assert out.strip().splitlines()[-1] == "tail none"

    def test_json_roundtrip(self, capsys, u3_file):
        code, out, _ = run(capsys, "decompose", "--json", u3_file)
        data = json.loads(out)
        assert data["components"] == []
        assert sorted(data["tail"]) == data["tail"]


class TestSynthesizeEvalCheck:
    def test_stdout_expression_report_on_stderr(self, capsys, u3_file):
        code, out, err = run(capsys, "synthesize", u3_file)
        assert code == 0
        assert out.startswith("(")
        assert "total_width:" in err

    def test_synthesize_json_report(self, capsys, tmp_path, u3_file):
        expr_path = str(tmp_path / "u3.kx")
        code, out, _ = run(capsys, "synthesize", "--json", u3_file, "-o", expr_path)
        assert code == 0
        data = json.loads(out)
        assert data["total_width"] <= 3
        assert data["components"][0]["family"] == "U3"

    def test_refuses_non_unigraph(self, capsys, non_unigraph_file):
        code, _, err = run(capsys, "synthesize", non_unigraph_file)
        assert code == 1
        assert "not a unigraph" in err

    def test_empty_graph_exit_2(self, capsys, tmp_path):
        p = tmp_path / "empty.el"
        p.write_text("0 0\n")
        code, out, err = run(capsys, "synthesize", str(p))
        assert code == 2
        assert err == "error: cannot synthesize an expression for the empty graph\n"
        assert out == ""

    def test_internal_error_exit_4(self, capsys, tmp_path, monkeypatch):
        import unicwd.synth
        from unicwd import Intro, Union

        p = tmp_path / "c5.el"
        p.write_text(to_edge_list(cycle_graph(*"abcde")))
        monkeypatch.setattr(
            unicwd.synth, "_c5_expr", lambda order: Union(tuple(Intro(v, 1) for v in order))
        )
        code, out, err = run(capsys, "synthesize", str(p))
        assert code == 4
        assert out == ""
        assert err.startswith("error: internal: component 1 (C5/identity)")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_unexpected_exception_exit_4(self, capsys, tmp_path, monkeypatch):
        import unicwd.cli

        def broken(g):
            raise KeyError("lost")

        p = tmp_path / "c5.el"
        p.write_text(to_edge_list(cycle_graph(*"abcde")))
        monkeypatch.setattr(unicwd.cli, "is_unigraph", broken)
        code, out, err = run(capsys, "recognize", str(p))
        assert code == 4
        assert out == ""
        assert err == "error: internal: KeyError: 'lost'\n"

    def test_synthesize_check_loop(self, capsys, tmp_path, u3_file):
        expr_path = str(tmp_path / "u3.kx")
        code, out, _ = run(capsys, "synthesize", u3_file, "-o", expr_path)
        assert code == 0 and "total_width" in out
        code, out, _ = run(capsys, "check", u3_file, expr_path)
        assert code == 0 and out.strip() == "equal"

    def test_check_detects_mismatch(self, capsys, tmp_path, u3_file):
        expr_path = tmp_path / "one.kx"
        expr_path.write_text("(v h 1)\n")
        code, out, _ = run(capsys, "check", u3_file, str(expr_path))
        assert code == 1 and out.strip() == "not-equal"

    def test_eval_output_is_parseable_edge_list(self, capsys, tmp_path):
        expr_path = tmp_path / "e.kx"
        expr_path.write_text("(j 1 2 (u (v a 1) (v b 2)))\n")
        code, out, _ = run(capsys, "eval", str(expr_path))
        assert code == 0
        from unicwd import read_edge_list

        g = read_edge_list(out)
        assert g.n == 2 and g.m == 1
        assert "# width 2" in out

    def test_eval_json(self, capsys, tmp_path):
        expr_path = tmp_path / "e.kx"
        expr_path.write_text("(v a 3)\n")
        code, out, _ = run(capsys, "eval", "--json", str(expr_path))
        data = json.loads(out)
        assert data == {"vertices": ["a"], "edges": [], "labels": {"a": 3}, "width": 1}

    def test_syntax_error_exit_2(self, capsys, tmp_path):
        expr_path = tmp_path / "bad.kx"
        expr_path.write_text("(j 1 1 (v a 1))\n")
        code, _, err = run(capsys, "eval", str(expr_path))
        assert code == 2
        assert "join labels must differ" in err

    def test_malformed_graph_exit_2(self, capsys, tmp_path):
        p = tmp_path / "bad.el"
        p.write_text("2 9\na b\n")
        code, _, err = run(capsys, "recognize", str(p))
        assert code == 2
        assert "line 1" in err


class TestSolve:
    def test_solve_synthesizes(self, capsys, u3_file):
        code, out, _ = run(capsys, "solve", "--problem", "mis", u3_file)
        assert code == 0
        assert out.startswith("problem=mis value=3 witness={")

    def test_solve_with_expression(self, capsys, tmp_path, u3_file):
        expr_path = str(tmp_path / "u3.kx")
        run(capsys, "synthesize", u3_file, "-o", expr_path)
        code, out, _ = run(capsys, "solve", "--problem", "ds", u3_file, "--expr", expr_path)
        assert code == 0 and "problem=ds" in out

    def test_solve_mismatched_expression(self, capsys, tmp_path, u3_file):
        expr_path = tmp_path / "one.kx"
        expr_path.write_text("(v zz 1)\n")
        code, _, err = run(capsys, "solve", "--problem", "mis", u3_file, "--expr", str(expr_path))
        assert code == 2
        assert "does not evaluate" in err

    def test_json(self, capsys, u3_file):
        code, out, _ = run(capsys, "solve", "--problem", "vc", "--json", u3_file)
        data = json.loads(out)
        assert data["problem"] == "vc" and data["value"] == 3

    def test_solve_refuses_non_unigraph_without_expression(self, capsys, non_unigraph_file):
        code, _, err = run(capsys, "solve", "--problem", "mis", non_unigraph_file)
        assert code == 1
        assert "not a unigraph" in err

    @staticmethod
    def labels_apart(tmp_path, k):
        """Graph and expression files: k vertices on k labels, one edge v1-v2."""
        names = [f"v{i}" for i in range(1, k + 1)]
        graph = tmp_path / f"w{k}.el"
        graph.write_text(f"{k} 1\n" + "".join(f"vertex {v}\n" for v in names) + "v1 v2\n")
        expr = tmp_path / f"w{k}.kx"
        expr.write_text("(j 1 2 (u " + " ".join(f"(v {v} {i})" for i, v in enumerate(names, 1)) + "))\n")
        return str(graph), str(expr)

    def test_ds_refused_above_width_8(self, capsys, tmp_path):
        graph, expr = self.labels_apart(tmp_path, 9)
        code, out, err = run(capsys, "solve", "--problem", "ds", graph, "--expr", expr)
        assert code == 3 and out == ""
        assert err.strip() == "error: solve --problem ds: size 9 exceeds the guard 8 (size is the expression's width)"
        for problem in ("mis", "vc"):  # their guard stays at width 12
            code, out, _ = run(capsys, "solve", "--problem", problem, graph, "--expr", expr, "--json")
            assert code == 0 and json.loads(out)["value"] == {"mis": 8, "vc": 1}[problem]

    def test_ds_accepted_at_width_8(self, capsys, tmp_path):
        graph, expr = self.labels_apart(tmp_path, 8)
        code, out, _ = run(capsys, "solve", "--problem", "ds", graph, "--expr", expr, "--json")
        data = json.loads(out)
        assert code == 0 and data["value"] == 7 and len(data["witness"]) == 7


class TestGen:
    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "gen", "--seed", "11", "--budget", "25")
        _, out2, _ = run(capsys, "gen", "--seed", "11", "--budget", "25")
        assert out1 == out2

    def test_seed_required(self, capsys):
        code, _, _ = run(capsys, "gen", "--budget", "25")
        assert code == 2

    def test_pipeline_closes_loop(self, capsys, tmp_path, monkeypatch):
        graph_path = str(tmp_path / "g.el")
        expr_path = str(tmp_path / "g.kx")
        for seed in (1, 2, 3):
            code, _, _ = run(capsys, "gen", "--seed", str(seed), "--budget", "18", "-o", graph_path)
            assert code == 0
            code, _, _ = run(capsys, "synthesize", graph_path, "-o", expr_path)
            assert code == 0
            code, eval_out, _ = run(capsys, "eval", expr_path)
            assert code == 0
            monkeypatch.setattr("sys.stdin", io.StringIO(eval_out))
            code, out, _ = run(capsys, "check", "-", expr_path)
            assert code == 0 and out.strip() == "equal"


class TestOracleCommands:
    def test_cwd_exact(self, capsys, tmp_path):
        p = tmp_path / "c5.el"
        p.write_text(to_edge_list(build_template(C5Spec())))
        code, out, _ = run(capsys, "oracle", "cwd", "--max-k", "4", str(p))
        assert code == 0 and out.strip() == "cwd(g) = 3"
        code, out, _ = run(capsys, "oracle", "cwd", "--max-k", "4", "--json", str(p))
        data = json.loads(out)
        assert data["exact"] == 3 and data["lo"] == 3 and data["hi"] == 3

    def test_cwd_indeterminate_interval(self, capsys, u3_file):
        code, out, _ = run(
            capsys, "oracle", "cwd", "--max-k", "3", "--budget", "10", u3_file
        )
        assert code == 0
        assert out.startswith("cwd(g) in [")

    @pytest.mark.parametrize(
        "bounds, flag",
        [
            (["--max-k", "0"], "--max-k"),
            (["--max-k", "-3", "--json"], "--max-k"),
            (["--max-k", "3", "--budget", "-1"], "--budget"),
        ],
    )
    def test_cwd_rejects_meaningless_bounds(self, capsys, u3_file, bounds, flag):
        code, out, err = run(capsys, "oracle", "cwd", *bounds, u3_file)
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {flag}: must be at least" in errors[0]

    def test_cwd_smallest_bounds_accepted(self, capsys, u3_file):
        code, out, _ = run(
            capsys, "oracle", "cwd", "--max-k", "1", "--budget", "0", "--json", u3_file
        )
        assert code == 0
        assert json.loads(out) == {"exact": None, "hi": None, "lo": 1, "max_k": 1}

    def test_unigraph_verdicts(self, capsys, u3_file, non_unigraph_file):
        code, out, _ = run(capsys, "oracle", "unigraph", u3_file)
        assert code == 0 and "unigraph: true" in out
        code, out, _ = run(capsys, "oracle", "unigraph", non_unigraph_file)
        assert code == 0 and "unigraph: false" in out

    def test_decomps(self, capsys, u3_file):
        code, out, _ = run(capsys, "oracle", "decomps", u3_file)
        assert code == 0
        assert "count: 1" in out

    def test_guard_exit_3(self, capsys, tmp_path):
        p = tmp_path / "big.el"
        names = [f"v{i}" for i in range(12)]
        p.write_text("12 0\n" + "".join(f"vertex {v}\n" for v in names))
        code, _, err = run(capsys, "oracle", "unigraph", str(p))
        assert code == 3
        assert "exceeds the guard" in err

    def test_guard_env_override(self, capsys, tmp_path, monkeypatch):
        p = tmp_path / "ten.el"
        names = [f"v{i}" for i in range(9)]
        p.write_text("9 0\n" + "".join(f"vertex {v}\n" for v in names))
        code, _, _ = run(capsys, "oracle", "unigraph", str(p))
        assert code == 3
        monkeypatch.setenv("UNICWD_MAX_ORACLE_N", "9")
        code, out, _ = run(capsys, "oracle", "unigraph", str(p))
        assert code == 0 and "unigraph: true" in out
