import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quiverstokes
from quiverstokes import _kernels, braid
from quiverstokes.algebra import Basis, joyce_point
from quiverstokes.braid import perm_conj, sign_conj
from quiverstokes.cli import main
from quiverstokes.quiver import apply_word, linear_quiver
from quiverstokes.serialize import (basis_to_json, quiver_to_json,
                                    rational_matrix_to_json)
from quiverstokes.stokes import DTModel, an_stokes, extension_actives
from quiverstokes.verify import (_family_entries, _pipeline_fixtures,
                                 fixture_matrices_sj)


# the child process imports the package the tests import, from a checkout
# too, where only pytest's configured path finds it
SRC = str(Path(quiverstokes.__file__).resolve().parents[1])


def run_cli(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "quiverstokes.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    return proc


@pytest.fixture
def a3_file(tmp_path):
    path = tmp_path / "a3.json"
    path.write_text(json.dumps(
        {"n": 3, "arrows": [[0, 1, 0], [0, 0, 1], [0, 0, 0]]}))
    return str(path)


@pytest.fixture
def tau3_file(tmp_path):
    path = tmp_path / "tau3.json"
    path.write_text(json.dumps({"rows": [[1, 1, 1], [0, 1, 1], [0, 0, 1]]}))
    return str(path)


class TestMutate:
    def test_middle_vertex_gives_cycle(self, a3_file):
        out = run_cli("mutate", a3_file, "--word", "2")
        assert out.returncode == 0
        data = json.loads(out.stdout)
        assert data == {"n": 3, "arrows": [[0, 0, 1], [1, 0, 0], [0, 1, 0]]}

    def test_empty_word_identity(self, a3_file):
        out = run_cli("mutate", a3_file)
        assert json.loads(out.stdout)["arrows"] == [[0, 1, 0], [0, 0, 1], [0, 0, 0]]

    def test_involution(self, a3_file):
        out = run_cli("mutate", a3_file, "--word", "2,2")
        assert json.loads(out.stdout)["arrows"] == [[0, 1, 0], [0, 0, 1], [0, 0, 0]]

    def test_byte_identical_reruns(self, a3_file):
        a = run_cli("mutate", a3_file, "--word", "1,3").stdout
        b = run_cli("mutate", a3_file, "--word", "1,3").stdout
        assert a == b


class TestGoodness:
    def test_pass(self, a3_file, tau3_file):
        out = run_cli("goodness", a3_file, tau3_file, "--p", "3")
        data = json.loads(out.stdout)
        assert data["quadratic_ok"] and data["vanishing_ok"]
        assert data["violations"] == []

    def test_rank2_quadratic_empty(self, tmp_path):
        q = tmp_path / "q.json"
        q.write_text(json.dumps({"n": 2, "arrows": [[0, 5], [0, 0]]}))
        b = tmp_path / "b.json"
        b.write_text(json.dumps({"rows": [[1, 1], [0, 1]]}))
        data = json.loads(run_cli("goodness", str(q), str(b)).stdout)
        assert data["quadratic_ok"]

    def test_failing_basis(self, a3_file, tmp_path):
        b = tmp_path / "bad.json"
        b.write_text(json.dumps({"rows": [[1, 0, 1], [0, 1, 0], [0, 0, 1]]}))
        data = json.loads(run_cli("goodness", a3_file, str(b)).stdout)
        assert not data["vanishing_ok"]
        assert any(v["kind"] == "vanishing" for v in data["violations"])

    def test_find_quivers(self, a3_file, tau3_file):
        data = json.loads(run_cli("goodness", a3_file, tau3_file,
                                  "--find-quivers").stdout)
        assert len(data["good_quivers"]) == 6


class TestStokes:
    def test_a3_pipeline_cartan_at_unit_point(self, a3_file):
        out = run_cli("stokes", a3_file, "--eval", "sJ")
        data = json.loads(out.stdout)
        assert data["evaluation"] == [["1", "-1", "0"], ["0", "1", "-1"],
                                      ["0", "0", "1"]]

    def test_chamber_file(self, a3_file, tau3_file, tmp_path):
        ch = tmp_path / "ch.json"
        ch.write_text(json.dumps({
            "Z": [["-7", "2"], ["2", "2"], ["17", "2"]],
            "active": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]],
            "dt": {"1,1,0": "1"},
        }))
        out = run_cli("stokes", a3_file, "--basis", tau3_file,
                      "--chamber", str(ch))
        data = json.loads(out.stdout)
        positions = {(f["i"], f["j"]) for f in data["factors"]}
        assert (1, 3) in positions
        assert data["product"]["entries"][0][1] == {"1,0,0": "-1"}

    def test_mu5mu1mu3_a5_pipeline(self, tmp_path):
        # build the quiver by mutation, then run the full pipeline on it
        a5 = tmp_path / "a5.json"
        a5.write_text(json.dumps({"n": 5, "arrows": [
            [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1], [0, 0, 0, 0, 0]]}))
        mutated = run_cli("mutate", str(a5), "--word", "3,1,5")
        q = tmp_path / "q.json"
        q.write_text(mutated.stdout)
        out = run_cli("stokes", str(q), "--eval", "sJ")
        data = json.loads(out.stdout)
        assert data["evaluation"][3] == ["0", "0", "1", "1", "1"]

    def test_text_format(self, a3_file):
        out = run_cli("stokes", a3_file, "--format", "text")
        assert "order:" in out.stdout and "-s1" in out.stdout


class TestEquiv:
    def test_identity_pair(self, tmp_path):
        m = tmp_path / "m.json"
        m.write_text(json.dumps([["1", "-1"], ["0", "1"]]))
        data = json.loads(run_cli("equiv", str(m), str(m)).stdout)
        assert data["status"] == "found"
        assert data["word"] == [] and data["verified"]

    def test_a2_pair(self, tmp_path):
        m1 = tmp_path / "m1.json"
        m1.write_text(json.dumps([["1", "-1"], ["0", "1"]]))
        m2 = tmp_path / "m2.json"
        m2.write_text(json.dumps([["1", "1"], ["0", "1"]]))
        data = json.loads(run_cli("equiv", str(m1), str(m2)).stdout)
        assert data["status"] == "found" and data["verified"]

    def test_tiny_budget_inconclusive(self, tmp_path):
        m1 = tmp_path / "m1.json"
        m1.write_text(json.dumps([["1", "-1", "0"], ["0", "1", "-1"],
                                  ["0", "0", "1"]]))
        m2 = tmp_path / "m2.json"
        m2.write_text(json.dumps([["1", "2", "0"], ["0", "1", "2"],
                                  ["0", "0", "1"]]))
        data = json.loads(run_cli("equiv", str(m1), str(m2),
                                  "--depth", "0").stdout)
        assert data["status"] in ("inconclusive", "exhausted")
        assert "word" not in data

    def test_several_targets_answer_as_single_runs(self, tmp_path, monkeypatch,
                                                   capsys):
        # from A4 at the unit point to depth 1: a found target, the source
        # itself, and an inconclusive one
        source = an_stokes(4).evaluate(joyce_point(4))
        values = fixture_matrices_sj(_pipeline_fixtures())
        paths = []
        for name, m in (("s", source), ("t1", values["a4/mu2"]),
                        ("t2", source), ("t3", values["a4/mu1mu3"])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(rational_matrix_to_json(m)))
            paths.append(str(path))
        for fmt in ("json", "text"):
            singles = [run_cli("equiv", paths[0], t, "--depth", "1",
                               "--format", fmt).stdout for t in paths[1:]]
            batch = run_cli("equiv", *paths, "--depth", "1", "--format", fmt)
            assert batch.returncode == 0
            if fmt == "json":
                results = json.loads(batch.stdout)
                assert results == [json.loads(s) for s in singles]
                assert [r["status"] for r in results] == \
                    ["found", "found", "inconclusive"]
            else:
                assert batch.stdout == "".join(
                    f"{t}: {s}" for t, s in zip(paths[1:], singles))

        # in one process the second target is answered from the exploration
        # the first one made
        calls = []
        expand = _kernels.expand_frontier
        monkeypatch.setattr(_kernels, "expand_frontier",
                            lambda *a: calls.append(1) or expand(*a))
        for targets in ([paths[1]], [paths[1], paths[1]]):
            calls.clear()
            monkeypatch.setattr(braid, "_LAST", None)
            assert main(["equiv", paths[0], *targets, "--depth", "1"]) == 0
            capsys.readouterr()
            if len(targets) == 1:
                first = len(calls)
        assert first > 0 and len(calls) == first

    def test_a_bad_later_target_prints_nothing(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps([["1", "-1"], ["0", "1"]]))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([["1", "2"], ["3", "1"]]))
        out = run_cli("equiv", str(good), str(good), str(bad))
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr.startswith("quiverstokes: error: ")


class TestVerifyPaper:
    def test_tables_scope_passes(self):
        out = run_cli("verify-paper", "tables")
        assert out.returncode == 0
        data = json.loads(out.stdout)
        assert data["ok"] and all(c["ok"] for c in data["checks"])

    def test_braid_relations_scope(self):
        out = run_cli("verify-paper", "braid_relations", "--format", "text")
        assert out.returncode == 0
        assert "FAIL" not in out.stdout

    def test_byte_identical(self):
        a = run_cli("verify-paper", "tables").stdout
        b = run_cli("verify-paper", "tables").stdout
        assert a == b


class TestErrors:
    """Input the library rejects ends in one line on stderr and exit code 2."""

    @pytest.mark.parametrize("command,files,message", [
        ("mutate", [{"n": 3, "arrows": [[0, 1], [0, 0]]}],
         "arrow matrix must be n x n"),
        ("goodness", [{"n": 2, "arrows": [[0, 1], [0, 0]]},
                      {"rows": [[1, 1], [1, 1]]}],
         "basis rows are linearly dependent"),
        ("stokes", [{"n": 3, "arrows": [[0, 1], [0, 0]]}],
         "arrow matrix must be n x n"),
        ("equiv", [[["1", "2"], ["3", "1"]], [["1", "1"], ["0", "1"]]],
         "input is not unipotent with respect to any order"),
        ("equiv", [[["1", str(2 ** 70)], ["0", "1"]], [["1", "1"], ["0", "1"]]],
         "orbit search entries must fit in int64"),
        ("equiv", [[["1", "1/0"], ["0", "1"]], [["1", "1"], ["0", "1"]]],
         "field 'matrix' must hold finite rationals, got '1/0'"),
        ("equiv", [[["1", float("inf")], ["0", "1"]], [["1", "1"], ["0", "1"]]],
         "field 'matrix' must hold finite rationals, got inf"),
        ("mutate", [{"n": 0, "arrows": []}],
         "field 'n' must be a positive integer, got 0"),
        ("stokes", [{"n": 0, "arrows": []}],
         "field 'n' must be a positive integer, got 0"),
        ("goodness", [{"n": 2, "arrows": [[0, 1], [0, 0]]}, {"rows": []}],
         "rank n must be at least 1, got 0"),
        ("goodness", [{"n": 3, "arrows": [[0, 1, 0], [0, 0, 1], [0, 0, 0]]},
                      {"rows": [[1]]}],
         "rank mismatch"),
        ("mutate", [{"n": True, "arrows": [[False]]}],
         "field 'n' must be an integer, got True"),
        ("mutate", [{"n": 1, "arrows": [[False]]}],
         "field 'arrows' must hold integers, got False"),
        ("equiv", [[[True, 2], [False, True]], [["1", "2"], ["0", "1"]]],
         "field 'matrix' must hold finite rationals, got True"),
        ("equiv", [[], []], "orbit search needs matrices of size at least 1"),
        ("equiv", [[["1", "1_0"], ["0", "1"]], [["1", "1"], ["0", "1"]]],
         "field 'matrix' must hold finite rationals, got '1_0'"),
    ])
    def test_library_error_is_one_line(self, tmp_path, command, files, message):
        paths = []
        for k, content in enumerate(files):
            path = tmp_path / f"in{k}.json"
            path.write_text(json.dumps(content))
            paths.append(str(path))
        out = run_cli(command, *paths)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == f"quiverstokes: error: {message}\n"

    def test_equal_pair_unipotent_for_no_order(self, tmp_path):
        # equal inputs are checked like any others, not reported as found
        path = tmp_path / "m.json"
        path.write_text(json.dumps([["1", "1"], ["1", "1"]]))
        out = run_cli("equiv", str(path), str(path))
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == ("quiverstokes: error: input is not unipotent "
                              "with respect to any order\n")

    @pytest.mark.parametrize("content,message", [
        ({"n": 3}, "missing field 'arrows'"),
        ({"arrows": [[0, 1], [0, 0]]}, "missing field 'n'"),
        ({"n": 3, "arrows": 5}, "field 'arrows' must be a list of lists of numbers"),
        ({"n": 2, "arrows": [[0, None], [0, 0]]},
         "field 'arrows' must hold integers, got None"),
        ({"n": [3], "arrows": [[0]]}, "field 'n' must be an integer, got [3]"),
        ([1, 2], "missing field 'n'"),
        ({"n": float("inf"), "arrows": [[0]]},
         "field 'n' must be an integer, got inf"),
        ({"n": 2, "arrows": [[0, float("inf")], [0, 0]]},
         "field 'arrows' must hold integers, got inf"),
        ({"n": 2.7, "arrows": [[0, 1], [0, 0]]},
         "field 'n' must be an integer, got 2.7"),
        ({"n": 2, "arrows": [[0, 1.5], [0, 0]]},
         "field 'arrows' must hold integers, got 1.5"),
        ({"n": 2, "arrows": [[0, "1.5"], [0, 0]]},
         "field 'arrows' must hold integers, got '1.5'"),
        ({"n": 2, "arrows": [[0, "1_0"], [0, 0]]},
         "field 'arrows' must hold integers, got '1_0'"),
    ])
    def test_malformed_quiver_file(self, tmp_path, content, message):
        path = tmp_path / "q.json"
        path.write_text(json.dumps(content))
        out = run_cli("mutate", str(path))
        assert (out.returncode, out.stdout, out.stderr) == \
            (2, "", f"quiverstokes: error: {message}\n")

    @pytest.mark.parametrize("flag,content,message", [
        ("--basis", {"cols": [[1]]}, "missing field 'rows'"),
        ("--chamber", {"active": [[1, 0, 0]]}, "missing field 'Z'"),
        ("--chamber", {"Z": [["-1", "1"], ["0", "1"], ["1", "1"]]},
         "missing field 'active'"),
        ("--chamber", {"Z": [["-1", "1", "0"], ["0", "1"], ["1", "1"]],
                       "active": []},
         "field 'Z' must be a list of pairs of numbers"),
        ("--chamber", {"Z": [["-1", "1"], ["0", "1"], ["1", "1"]],
                       "active": [], "dt": [1]},
         "field 'dt' must map classes to counts"),
        ("--chamber", {"Z": [["1", "1/0"], ["0", "1"], ["1", "1"]],
                       "active": []},
         "field 'Z' must hold finite rationals, got '1/0'"),
        ("--chamber", {"Z": [["-1", "1"], ["0", "1"], ["1", "1"]],
                       "active": [[1, 0, 0]], "dt": {"1,0,0": "1/0"}},
         "field 'dt' must hold finite rationals, got '1/0'"),
        ("--chamber", {"Z": [["-1", "1"], ["0", "1"], ["1", "1"]],
                       "active": [[1, 0, 0]], "dt": {"1,0,0": float("inf")}},
         "field 'dt' must hold finite rationals, got inf"),
        ("--basis", {"rows": [[1, 0, 0], [0, float("inf"), 0], [0, 0, 1]]},
         "field 'rows' must hold integers, got inf"),
        ("--basis", {"rows": [[1, 0, 0], [0, 1, 0.5], [0, 0, 1]]},
         "field 'rows' must hold integers, got 0.5"),
        ("--chamber", {"Z": [["-1", "1"], ["0", "1"], ["1", "1"]],
                       "active": [[1, 0.5, 0]]},
         "field 'active' must hold integers, got 0.5"),
        ("--chamber", {"Z": [["-1", "1"], ["0", "1"], ["1", "1"]],
                       "active": [[1, 0, 0]], "dt": {"1.5,0,0": 1}},
         "field 'dt' must hold integers, got '1.5'"),
        ("--chamber", {"Z": [["-1", "1"], ["0", "1"], ["1", "1"]],
                       "active": [[1, 0, 0]], "dt": {"1,0": "7"}},
         "field 'dt' class '1,0' has rank 2, the chamber has rank 3"),
        ("--chamber", {"Z": [["-1", "1"], ["0", "1"], ["1", True]],
                       "active": [[1, 0, 0]]},
         "field 'Z' must hold finite rationals, got True"),
        ("--chamber", {"Z": [["-1", "1"], ["0", "1"], ["1", "1"]],
                       "active": [[1, 0, 0]], "dt": {"1,0,0": True}},
         "field 'dt' must hold finite rationals, got True"),
        ("--basis", {"rows": [[1, 0, 0], [0, True, 0], [0, 0, 1]]},
         "field 'rows' must hold integers, got True"),
        ("--chamber", {"Z": [["-1", "1"], ["0", "1"], ["1_0", "1"]],
                       "active": []},
         "field 'Z' must hold finite rationals, got '1_0'"),
        ("--chamber", {"Z": [["-1", "1"], ["0", "1"], ["1", "1"]],
                       "active": [[1, 0, 0]], "dt": {"1,0,0": "\u0663"}},
         "field 'dt' must hold finite rationals, got '\u0663'"),
        ("--chamber", {"Z": [["-1", "1"], ["0", "1"], ["1", "1"]],
                       "active": [[1, 0, 0]], "dt": {"1,0,0": 0.1}},
         "field 'dt' must hold finite rationals, got 0.1"),
    ])
    def test_malformed_basis_or_chamber_file(self, tmp_path, a3_file, flag,
                                             content, message):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(content))
        out = run_cli("stokes", a3_file, flag, str(path))
        assert (out.returncode, out.stdout, out.stderr) == \
            (2, "", f"quiverstokes: error: {message}\n")

    def test_automatic_charge_with_a_shared_ray(self, tmp_path):
        # the linear quiver plus an arrow 1 -> 7: under convex_charge(7),
        # 2 * 5^2 = 1^2 + 7^2 puts e1 + e7 on the ray of e5
        arrows = [list(row) for row in linear_quiver(7).arrows]
        arrows[0][6] = 1
        q = tmp_path / "q.json"
        q.write_text(json.dumps({"n": 7, "arrows": arrows}))
        b = tmp_path / "b.json"
        b.write_text(json.dumps(basis_to_json(Basis.triangular(7))))
        out = run_cli("stokes", str(q), "--basis", str(b), "--p", "3")
        assert (out.returncode, out.stdout, out.stderr) == \
            (2, "", "quiverstokes: error: classes (1, 0, 0, 0, 0, 0, 1) and "
                    "(0, 0, 0, 0, 1, 0, 0) lie on the same ray\n")

    def test_missing_file(self, tmp_path):
        path = tmp_path / "missing.json"
        out = run_cli("mutate", str(path))
        assert (out.returncode, out.stdout, out.stderr) == \
            (2, "", f"quiverstokes: error: cannot read {path}: "
                    "No such file or directory\n")

    def test_evaluation_point_of_the_wrong_length(self, a3_file):
        out = run_cli("stokes", a3_file, "--eval", "1,2")
        assert (out.returncode, out.stdout, out.stderr) == \
            (2, "", "quiverstokes: error: evaluation point needs 3 "
                    "coordinates\n")

    @pytest.mark.parametrize("point,bad", [("1/0,1,1", "1/0"),
                                           ("1,-2/0,1", "-2/0"),
                                           ("nan,1,1", "nan"),
                                           ("1_0,1,1", "1_0")])
    def test_evaluation_point_that_is_not_rational(self, a3_file, point, bad):
        out = run_cli("stokes", a3_file, "--eval", point)
        assert (out.returncode, out.stdout, out.stderr) == \
            (2, "", f"quiverstokes: error: field '--eval' must hold finite "
                    f"rationals, got {bad!r}\n")

    @pytest.mark.parametrize("p", ["0", "-1"])
    def test_truncation_order_below_one(self, a3_file, p):
        out = run_cli("stokes", a3_file, "--p", p)
        assert (out.returncode, out.stdout, out.stderr) == \
            (2, "", f"quiverstokes: error: truncation order must be at "
                    f"least 1, got {p}\n")

    def test_chamber_class_of_the_wrong_rank(self, tmp_path, a3_file):
        chamber = tmp_path / "chamber.json"
        chamber.write_text(json.dumps(
            {"Z": [["-1", "1"], ["0", "1"], ["1", "1"]],
             "active": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0, 5]]}))
        out = run_cli("stokes", a3_file, "--chamber", str(chamber))
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == ("quiverstokes: error: class (1, 1, 0, 5) has "
                              "rank 4, the chamber has rank 3\n")

    @pytest.mark.parametrize("flag,value,message", [
        ("--depth", "-1", "orbit search depth must be at least 0, got -1"),
        ("--entry-bound", "-5",
         "orbit search entry bound must be at least 1, got -5"),
        ("--entry-bound", "0",
         "orbit search entry bound must be at least 1, got 0"),
    ])
    def test_negative_depth_or_entry_bound(self, tmp_path, flag, value, message):
        paths = []
        for k in range(2):
            path = tmp_path / f"in{k}.json"
            path.write_text(json.dumps([["1", "1"], ["0", "1"]] if k else
                                       [["1", "2"], ["0", "1"]]))
            paths.append(str(path))
        out = run_cli("equiv", *paths, flag, value)
        assert (out.returncode, out.stdout, out.stderr) == \
            (2, "", f"quiverstokes: error: {message}\n")

    def test_entry_bound_beyond_the_move_limit(self, tmp_path):
        paths = []
        for k in range(2):
            path = tmp_path / f"in{k}.json"
            path.write_text(json.dumps([["1", "1"], ["0", "1"]] if k else
                                       [["1", "2"], ["0", "1"]]))
            paths.append(str(path))
        out = run_cli("equiv", *paths, "--entry-bound", "4000000000")
        assert out.returncode == 2
        assert out.stdout == ""
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith("quiverstokes: error: ")
        assert "int64" in out.stderr

    @pytest.mark.parametrize("command,flag,value", [
        ("equiv", "--depth", "1_0"), ("equiv", "--entry-bound", " 3"),
        ("stokes", "--p", "\u0663"), ("goodness", "--lambda", "1.5"),
    ])
    def test_flag_that_is_not_one_integer(self, tmp_path, a3_file, tau3_file,
                                          command, flag, value):
        matrix = tmp_path / "m.json"
        matrix.write_text(json.dumps([["1", "1"], ["0", "1"]]))
        files = {"equiv": [str(matrix)] * 2, "stokes": [a3_file],
                 "goodness": [a3_file, tau3_file]}[command]
        out = run_cli(command, *files, flag, value)
        assert (out.returncode, out.stdout) == (2, "")
        assert "Traceback" not in out.stderr
        assert out.stderr.splitlines()[-1] == (
            f"quiverstokes {command}: error: argument {flag}: invalid integer "
            f"value: {value!r}")

    def test_verify_paper_unknown_scope(self):
        out = run_cli("verify-paper", "no_such_scope")
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert out.stderr.splitlines()[-1].startswith(
            "quiverstokes verify-paper: error: argument scope")

    @pytest.mark.parametrize("word,bad", [("1 2", "1 2"), ("1.5", "1.5"),
                                          ("1,,2", ""), ("true", "true"),
                                          ("[1, 2 3]", "2 3"),
                                          ("1_2", "1_2")])
    def test_word_item_that_is_not_one_integer(self, a3_file, word, bad):
        out = run_cli("mutate", a3_file, "--word", word)
        assert (out.returncode, out.stdout, out.stderr) == \
            (2, "", f"quiverstokes: error: field '--word' must hold integers, "
                    f"got {bad!r}\n")

    def test_spaced_word_is_not_read_as_one_vertex(self, tmp_path):
        # on a rank-12 quiver, "1 2" read as 12 would be a valid word
        path = tmp_path / "a12.json"
        path.write_text(json.dumps(quiver_to_json(linear_quiver(12))))
        out = run_cli("mutate", str(path), "--word", "1 2")
        assert (out.returncode, out.stdout, out.stderr) == \
            (2, "", "quiverstokes: error: field '--word' must hold integers, "
                    "got '1 2'\n")

    @pytest.mark.parametrize("point", ["sj", "SJ", "5", "x"])
    def test_evaluation_point_that_is_one_unknown_token(self, a3_file, point):
        out = run_cli("stokes", a3_file, "--eval", point)
        assert (out.returncode, out.stdout, out.stderr) == \
            (2, "", f"quiverstokes: error: field '--eval' must be sJ, 0 or 3 "
                    f"comma-separated rationals, got {point!r}\n")

    @pytest.mark.parametrize("word", ["2,1", "[2, 1]", " 2 , 1 ", "", "[]"])
    def test_word_forms_that_parse(self, capsys, a3_file, word):
        expected = apply_word(linear_quiver(3), [2, 1] if word.strip("[] ")
                              else [])
        assert main(["mutate", a3_file, "--word", word]) == 0
        assert json.loads(capsys.readouterr().out) == quiver_to_json(expected)


def stdout_sha256(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


class TestPinnedOutput:
    """SHA-256 of canonical JSON output, recorded before the exact braid move
    became a row/column update and the ordered products column updates; the
    good-quiver hashes were recorded before the search became a depth-first
    sign enumeration with an integer transport product; the `verify-paper`
    scope hashes, JSON and text, before chamber rays were compared on
    integers and each fixture product was built once."""

    def test_verify_paper_all(self, capsys):
        assert stdout_sha256(capsys, ["verify-paper", "all", "--format", "json"]) \
            == "bff7e4fe70d75052fc73caf9ed7af69fc84c185e5ae3308c39e26edf31ff344f"

    # every other scope and format; `annulus` then built all 31 products
    VERIFY_PAPER_SCOPES = {
        ("tables", "json"):
            "369ea0c6b963ecbdc046f1e1eaa592bbbd7c8901ab66981c3690e2924cd0f78d",
        ("tables", "text"):
            "b1672121c24419811c958f7b82b5dabe3ea9df331f3fa090023c0dbb45faa2cc",
        ("an_jets", "json"):
            "25effe902f06b537a02b25fe950951a3e729617b9d6b1d3d7811320bd4ac3ba1",
        ("an_jets", "text"):
            "4ca2e63217706b77811effbbf79e237030ff40e13cddc77b06ca1889074a71dc",
        ("mutation_theorem", "json"):
            "403a6835cbeb48c5ecdc90ef3d0120c1de24399dc14ca8e8c680883b742c3be1",
        ("mutation_theorem", "text"):
            "0d255c6b007fc83326a4fa8e05c9327298d410ac59e496b40a0da2aab8555f0b",
        ("annulus", "json"):
            "823099befbaf41b0151debc4dea0c5bd12a2de5c2d4041c5fd58a471b3c19cf7",
        ("annulus", "text"):
            "349354ff7b5a6a6cb9ad535727670475a9ad49a6d58124162b2253c1870efdc7",
        ("braid_relations", "json"):
            "aceb32413ba51bf58024707693357c104282973c5ccb4c6b8e9dd1d73424d352",
        ("braid_relations", "text"):
            "c1ddd40f237ed3f9b7f6c66d66b1e29085287cce71114d494892ab068f811f0f",
    }

    @pytest.mark.parametrize("scope, fmt", sorted(VERIFY_PAPER_SCOPES))
    def test_verify_paper_scopes(self, capsys, scope, fmt):
        assert stdout_sha256(capsys, ["verify-paper", scope, "--format", fmt]) \
            == self.VERIFY_PAPER_SCOPES[scope, fmt]

    def test_verify_paper_all_text(self, capsys):
        assert stdout_sha256(capsys, ["verify-paper", "all", "--format", "text"]) \
            == "9c758472b2d0a3a390fb867fa9cc9e7d80cc5ab3453adb483d7aa46f3941426e"

    STOKES_SJ = {
        "a2/mu1":
            "a587dbe0700181740b1baf4f23ea068424ca4b0ca6673d6921cd19f74d2565fd",
        "a3/mu3":
            "c3ccf0af705444cc438b811a664cbfabc8cf3bc4310a3cb7fb94d9ac02efe1cb",
        "a3/mu1mu3":
            "7fc2abbeae4b180d025487bb1dff7e3376244d9e6d860adadb4e3d4bff68df71",
        "a3/mu1":
            "2afd5b70caba160b4da3dd6faeb303486c240c3e98f491d201c1c7beef02ddaa",
        "a3/mu2":
            "256fd60166a9ce45e77deaa8d98563821fd04592f2879333858ff15671f68cd5",
        "a3/mu2mu1mu3":
            "dcb850c6510dca160e1ef31f832b50e177bfcc90a725a7eaca9bdb4d738fdbe4",
        "a4/mu1":
            "0ae305995a018559689579773c7f818a270ffb9384f6d0346230c078d566524b",
        "a4/mu4":
            "12f1a4369e62647c0e4fe68c3b7b384e5a74a9cee310f1f7d0fc743d9ac14405",
        "a4/mu4mu2mu1":
            "1563eef4c4bde1e909b40a99b8daca2a6b0d6cd82df977fdc26e32e126b82697",
        "a4/mu1mu4":
            "76d42b3a7f1cc3e7c0eafd8c4128a8c69d27aaa8d37bb2a56d5cd1f36c74927e",
        "a4/mu2mu1":
            "b43cd2c2c8785908b97d988eacea371e8eeb93336a93d76cd5aac8b5821ccc69",
        "a4/mu1mu2mu1":
            "d3f79b9e344768390e1aabd468d217b8d3c829bfb03a0cf8d18f01bb9a94a2c0",
        "a4/mu4mu1mu2mu1":
            "3dd64fa82dca36cf9d6942fec1d96513a0b65bfefc5e0d3bfbea0b76339c3e54",
        "a4/mu2":
            "0c609bc2501897f31576ad7c850e7c4a86630b3c6ab3a35cebd3f9749440fa0a",
        "a4/mu4mu2":
            "be3b4d68bb417936703123c20995a6bcf4068c927cb49479cae7bc1c9e4cb64c",
        "a4/mu3":
            "fc284e1f70fed05691004e8cc56fba959e5db2858d1e99a05826e20d4cecdaa5",
        "a4/mu1mu3":
            "a48dd7b055e977d24bec0b5ac92904a329f17b256c1dd45ecbdb3933b72783ed",
        "a5/mu1":
            "71fc598d243e3d211909dda066eca0a374ec0c4a02bf4d15215599ad0cc16396",
        "a5/mu5":
            "17aedf61894897adff84246a2c369613330d731486cd9019264eff5bb37e3015",
        "a5/mu3":
            "0046ba947d17bc366fb04be8785bf6672d9d854e6a653dbbe82511952d234a0e",
        "a5/mu1mu4":
            "0e8a71214bb69bb268b354f2dab103d0eddb230ea343dce08c82faec69712298",
        "a5/mu2mu4":
            "d658c487378e568fb488cf1f7ce1ffcdf54db336ff2563d856f24a998f997b6d",
        "a5/mu2mu1mu4":
            "7fb3cde20a6d7fcf2333a2841965875ffef1a250a771197fbf1dae0a24d89df9",
        "a5/mu1mu2mu1mu4":
            "f2c91d65745ef862b8313c52e22828ab3c23833f7b158e67c56dbdd026c2fcca",
        "a5/mu1mu3":
            "7903e63d237d570b928681dfc370553de9b61d03c513ce92b6d1eecaf2c07d50",
        "a5/mu5mu1mu3":
            "d9a96c2171aa8f61b264a0c9c26221c2add0d062e3db15b232b145349081b12b",
        "a5/mu4":
            "269ab19b642038369bc05d51bfd28bf2388e22f9cf2390b62682c88c58961c7d",
        "a5/mu2":
            "897f246bd6d7b59c99fe464739ff1bc814190cb1bafa8690a8b46a859e5caa1f",
        "a5/mu1mu2mu1":
            "c848f86121101713bee704a0b3322ac245a0942a600c648c4d9b61564688bfcb",
    }

    def test_stokes_at_unit_point_on_mutation_families(self, capsys, tmp_path):
        seen = {}
        for n, e in _family_entries():
            path = tmp_path / "q.json"
            path.write_text(json.dumps(quiver_to_json(
                apply_word(linear_quiver(n), e["word"]))))
            seen[e["id"]] = stdout_sha256(
                capsys, ["stokes", str(path), "--format", "json", "--eval", "sJ"])
        assert seen == self.STOKES_SJ

    FIND_QUIVERS = {
        "triangular-3-p3-lambda1":
            "6d42e236d85afff1d602567722ec6d3f78fd7578f1bfb8c56830124f6276e7cb",
        "triangular-3-p3-lambda2":
            "86f4d7116eb0d27fda2106b50c223da1761f74960f023ed91669a41e5806bd54",
        "triangular-3-p4-lambda1":
            "0e2ec1d42b3cd8470275d4675d771e55417dbb17950f2b54c3885e4532bbf95d",
        "triangular-3-p4-lambda2":
            "0d58da516279f85200f346d05389dec23a99362bb9fc1f4b5310192eb0c59c8e",
        "triangular-3-p5-lambda1":
            "3f933edd76222effdd23c697a73e899677aba838a2e64b447e9bc0b17efe1122",
        "triangular-3-p5-lambda2":
            "2a8f1b5e2e4934837bc2a286e81d4032746bdcb41e761c27544512dd9e15d15d",
        "triangular-4-p3-lambda1":
            "d25586d2221a2b450e4b7530c32973d18acbbb2b4ddb07d7ae7a864e2f7b0d31",
        "triangular-4-p3-lambda2":
            "e555816498950b317ba269fb4ba29ae29116fb446c5cc4426096500d19d01d36",
        "triangular-4-p4-lambda1":
            "61a90279e54371fcdada0fc0832cef91fe813c457b4b2e221d659f6a96dae1f6",
        "triangular-4-p4-lambda2":
            "daeb99286a4c47229823ae1d9cb4e8a31559cd9fd26f587581eee41c09cfcba5",
        "triangular-4-p5-lambda1":
            "65d7bb807662b78c2d30cc4e09d0c8ce60cf6821f744ee429fc3b3af7ef0a40e",
        "triangular-4-p5-lambda2":
            "4b90de0cc8178457382ba13ef834b43d397b343e7d59ec3e570bd252d231e3e8",
        "triangular-5-p3-lambda1":
            "ed28087c57daf215c0f559f5045517d4bd746f86458dbaadb3d376abb733c3f8",
        "triangular-5-p3-lambda2":
            "0188983f4a47519e76e173f3a587e982abde07db566f58e0bce8fdeb6aa2f0a0",
        "triangular-5-p4-lambda1":
            "6b85ebefd4e8ee20295d2d9bb781b5af3a61b92261d0ff0385098976d40697e6",
        "triangular-5-p4-lambda2":
            "cdc6aa76d97ef199f88625b2cc45f0f6d4c3f064836805b637b379f97aff37ff",
        "triangular-5-p5-lambda1":
            "0de35cf0483f86429786c0be76b553df95933d6216de93fb495c94a7c7412f92",
        "triangular-5-p5-lambda2":
            "1441723eaaebc388eb8cf831072beff3dc492e0dbb2734dbb7f16d947bd83c3f",
        "triangular-6-p3-lambda1":
            "3c842f61fe7e7284952077116eae2a0656545758b7f028d9d082ca48656333d9",
        "triangular-6-p3-lambda2":
            "ff66de6f8e27a65c3158f808bd0d66b0cb8c86cbb99bf508d847868a28dbb2f2",
        "triangular-6-p4-lambda1":
            "cdf84c776c909c93c2673a93d8ec2ab5c4f765cd9fe3541d590f516c433ba7e1",
        "triangular-6-p4-lambda2":
            "aaa0946afa9af975e5292bcde030e5da4fd9017f259e1e39c47fce00cf4edf0a",
        "triangular-6-p5-lambda1":
            "f8088f94f81827627198189dec2335f4dee4a0e17c6bbd9443fa5dc3cb4f621f",
        "triangular-6-p5-lambda2":
            "b8386a9efe461523a79f8104ec01727b36bffec673cf9ab09e4407ff144ff833",
        "alternating-3-p3-lambda1":
            "090c5e3bf265ca0828beab762043410bf116e1cc30a1dfeb9ed5392a96c96358",
        "alternating-3-p3-lambda2":
            "762e9cc4ef5d95645294640f7eeef5e61dd66c4236c892742e66f72af5212366",
        "alternating-3-p4-lambda1":
            "88ad8c98fe8d6ec4c3eef838e67ff541912a9cb4829141c16e82b1a4feae5589",
        "alternating-3-p4-lambda2":
            "58ff81121db44eb509f710d87d9ce8f46ca0c3104c9f4a99671ab24566515121",
        "alternating-3-p5-lambda1":
            "211c4cc1ec5eae7a7de78769812373fbab63917853a712304ac3a8cb38bb379f",
        "alternating-3-p5-lambda2":
            "1037fd865ea90361f9c5b9f28507939b23c6687a8c3dc7d6657e8273267dfb77",
        "alternating-4-p3-lambda1":
            "971be24041de7e71d6cb88ec606c8c3390201732c4acf7bc1337da3d5b127cf5",
        "alternating-4-p3-lambda2":
            "d2dd738bbc64f21e1ff07e23eed74551e975d99811be7aa52b2a960a4cd0a88e",
        "alternating-4-p4-lambda1":
            "846daba7f36db7c3d100353fe3d4f9c957659705d08474694783cc3fb2e222d8",
        "alternating-4-p4-lambda2":
            "fe8deef6527cddc6fc173db02733dc0ca646f6121e64e7fc8cbed70641677bb8",
        "alternating-4-p5-lambda1":
            "f637ca316bdb3cd587619483976a7778afe46330c6afd4ca123a96835c19c057",
        "alternating-4-p5-lambda2":
            "6eb24711fb7206f341ac283817c363d4715b5eb7d5912d5e56cf06d2f55ec48c",
        "alternating-5-p3-lambda1":
            "c82bf46985661ab98e5d7675a435d05426eee9e5068bc39996be86ae0af4835a",
        "alternating-5-p3-lambda2":
            "af5f14a9b3b8be70b305b6d09d88366486f7415d6df0ec887a4179a7dfe28f43",
        "alternating-5-p4-lambda1":
            "8ca93034bc944493cb64bba4bc6761b5fc65061a5f41b5feb91d6314e4f74be2",
        "alternating-5-p4-lambda2":
            "e1dd9759a7c4871b0a9ab68d8f6e5c6d7b1a36815f1f0cb6c2642fa3dcf7125c",
        "alternating-5-p5-lambda1":
            "768c064950c3e36550612fac7d96f83183adad983bba4e7408e17217f6d69509",
        "alternating-5-p5-lambda2":
            "82bd7ac14543af2160acb6bf5828fb20a7193a19aa3c2a05ba9268c766d81332",
        "alternating-6-p3-lambda1":
            "55da9a6dec0383223bcd5f143f6684d99740603dee0f7154d152a17f75002911",
        "alternating-6-p3-lambda2":
            "8a8220dce3e0b218eebfb66cf11da97102455c05fab33bcffae86b439b3cfd02",
        "alternating-6-p4-lambda1":
            "233f7b6f015af8455ba89780f13055b913fde08e8f0e8e6b5bb58563954769e2",
        "alternating-6-p4-lambda2":
            "3466ce0c46da2ac1d530572b0f194ad1dcff9adac80f0be650555314de5864d5",
        "alternating-6-p5-lambda1":
            "e7230939c39d05638e353bc98f20e0951932be6dca4d2b2c329ee2e1d97d97ae",
        "alternating-6-p5-lambda2":
            "81119dc7d8489b41379e2bf3478d470c036fbfc688b46ca1351c5e5649f8be06",
    }

    def test_goodness_find_quivers(self, capsys, tmp_path):
        seen = {}
        for kind in ("triangular", "alternating"):
            for n in range(3, 7):
                quiver = tmp_path / "q.json"
                quiver.write_text(json.dumps(quiver_to_json(linear_quiver(n))))
                basis = tmp_path / "b.json"
                basis.write_text(json.dumps(
                    basis_to_json(getattr(Basis, kind)(n))))
                for p in (3, 4, 5):
                    for lam in (1, 2):
                        seen[f"{kind}-{n}-p{p}-lambda{lam}"] = stdout_sha256(
                            capsys, ["goodness", str(quiver), str(basis),
                                     "--find-quivers", "--p", str(p),
                                     "--lambda", str(lam), "--format", "json"])
        assert seen == self.FIND_QUIVERS

    # `stokes` on a chamber file per A3-A5 fixture quiver: the fixture's
    # charge, its level-2 actives in reversed order and a "dt" table that
    # doubles every two-simple count and gives the first simple class the
    # count -1/2; recorded before a chamber sorted its rays once at
    # construction, and the p1 and p6 runs before polynomials became exact
    # and a jet the exact product truncated once.  Every class has length
    # >= 1, so --p 1 drops every factor; no class reaches length 6, so
    # --p 6 prints the exact product
    CHAMBER_FIXTURES = ("a3/mu2", "a3/mu2mu1mu3", "a4/mu1", "a4/mu2mu1",
                        "a5/mu3", "a5/mu1mu3")
    CHAMBER_RUNS = {
        "exact-json": ["--format", "json"],
        "exact-text": ["--format", "text"],
        "p2-json": ["--p", "2", "--format", "json"],
        "p3-json": ["--p", "3", "--format", "json"],
        "p3-eval-text": ["--p", "3", "--eval", "point", "--format", "text"],
        "exact-eval-json": ["--eval", "point", "--format", "json"],
        "p1-json": ["--p", "1", "--format", "json"],
        "p6-json": ["--p", "6", "--format", "json"],
    }
    STOKES_CHAMBER_FILES = {
        "a3/mu2 exact-json":
            "0114c978760a8928c03e32b457e77a29e0af2ef3586e40a969b0f6fd80589b4c",
        "a3/mu2 exact-text":
            "3f7536960b0718adc7aceca9f9ce548f4b618f3458e37ad0c6815cedcf4d1482",
        "a3/mu2 p2-json":
            "7cf749a03cf5d2dbe1d95031d808bde525318db1037e3980c0212c920cd7f88b",
        "a3/mu2 p3-json":
            "0114c978760a8928c03e32b457e77a29e0af2ef3586e40a969b0f6fd80589b4c",
        "a3/mu2 p3-eval-text":
            "8583d8ddf51370f053566811da6914fead8077c128a5f82dc722e05f416e2dba",
        "a3/mu2 exact-eval-json":
            "04c7b89b08dd9609709826c6aa1e7d0390dbb7b55b2881ce297d867b03020588",
        "a3/mu2 p1-json":
            "4add980c2e027660c93efd5f3896ff009653a92a9388eeb7e96d33e55c3c1733",
        "a3/mu2 p6-json":
            "0114c978760a8928c03e32b457e77a29e0af2ef3586e40a969b0f6fd80589b4c",
        "a3/mu2mu1mu3 exact-json":
            "4bcde6903e177c350784d4f27ac904004056b6ef17772b93b7ff36c3d995fc1d",
        "a3/mu2mu1mu3 exact-text":
            "5aa84f94ea419384f7c65ee5d183082683f7c4852b95207a2c3aec7c8244931d",
        "a3/mu2mu1mu3 p2-json":
            "2fd9ae3cba07fa3d2c63c20fb4d88b22a5151b17d9f1149ab34ced70d435ae4d",
        "a3/mu2mu1mu3 p3-json":
            "4bcde6903e177c350784d4f27ac904004056b6ef17772b93b7ff36c3d995fc1d",
        "a3/mu2mu1mu3 p3-eval-text":
            "68f2d8c5c636227efb5bcfadab167f523e7518e0f1b652050d2eb85b692f04ea",
        "a3/mu2mu1mu3 exact-eval-json":
            "b5afed67b638f373cb03b26b86bc47304ecfa78785da5be418717f7eaf4aea9b",
        "a3/mu2mu1mu3 p1-json":
            "4add980c2e027660c93efd5f3896ff009653a92a9388eeb7e96d33e55c3c1733",
        "a3/mu2mu1mu3 p6-json":
            "4bcde6903e177c350784d4f27ac904004056b6ef17772b93b7ff36c3d995fc1d",
        "a4/mu1 exact-json":
            "bdc5cedbcbaf7c9d07ec70b84c6f9203c08569e98b6d4e096976c00566321f19",
        "a4/mu1 exact-text":
            "823b1babeef36c627163f19f2b7eaa1463abcb616d5150a2e04f080627e4d6c0",
        "a4/mu1 p2-json":
            "8133d54126951ca690f376abb191786a1d6961c605cf0c352e9d215a025319ea",
        "a4/mu1 p3-json":
            "478189fc3aa755890104eda72192fe34a56e4f1b44b713dcd0ba4ede1cad24cb",
        "a4/mu1 p3-eval-text":
            "f235a7d0d92de3c8f5f1f8e7d1bb96b20d3d21f38cf27b2fc5fbe7e3b8eace9a",
        "a4/mu1 exact-eval-json":
            "0edb90d5f2c94c97cac3c0de47670cd55b86153d3816870a30164ceea6d998b2",
        "a4/mu1 p1-json":
            "b7de38883580cdabcf627bbe8edba5551c2ef660b4988f77d4f3093e465f10b0",
        "a4/mu1 p6-json":
            "bdc5cedbcbaf7c9d07ec70b84c6f9203c08569e98b6d4e096976c00566321f19",
        "a4/mu2mu1 exact-json":
            "4c876e4b43cca9e22e34fc202cd1bceb32faa1eb958bf38566e3efcf7f05f9cd",
        "a4/mu2mu1 exact-text":
            "313221e08ccaa2c45c5d147ed3d63117afb6d73079c38bd45f45264ad9459a82",
        "a4/mu2mu1 p2-json":
            "ac54ac6600ff25da1ae8a2309815ff9e3621019c91a4566a8ce8384fe2d2772f",
        "a4/mu2mu1 p3-json":
            "1cf8ab1cc265645e9664f92c43417d6dc7958b2a4760741d8bf2eb57c3d95991",
        "a4/mu2mu1 p3-eval-text":
            "36e51ca5672169cb7707cd1d099f3e6da7eb8e0353d09fba583920b1f858ac0a",
        "a4/mu2mu1 exact-eval-json":
            "1015fd4b3cb123ca9e62c433d5de30f076dada16de9e005f21024659f0ac8412",
        "a4/mu2mu1 p1-json":
            "b7de38883580cdabcf627bbe8edba5551c2ef660b4988f77d4f3093e465f10b0",
        "a4/mu2mu1 p6-json":
            "4c876e4b43cca9e22e34fc202cd1bceb32faa1eb958bf38566e3efcf7f05f9cd",
        "a5/mu3 exact-json":
            "c2731f0483e4ecc6042370223518e3ef70300786203364426f46faf31d3d7bea",
        "a5/mu3 exact-text":
            "1ac7307a93fb192dd3e1fa5c8eb40d97788ba8558817957bff6d9c272dc54e04",
        "a5/mu3 p2-json":
            "00f9a4efe40cbf1778417a8900df8fbbaca950a09958eae04c0e38dbbf796bd7",
        "a5/mu3 p3-json":
            "237c13e9317c6cc78d8f4b53f484361d25275dcb9b4e6fa6a5b736f4d5cc18d9",
        "a5/mu3 p3-eval-text":
            "29a7ae928140c1a11fcd16badf274c70ed51582a57e93400ca926eebd4c66f64",
        "a5/mu3 exact-eval-json":
            "14dc139ed86732ca605140df2048ce95154280f99d98889362fde261b0d4a50c",
        "a5/mu3 p1-json":
            "6f568d45960e2fa3fe5ca237f974afd86344cd23956fd51b77191008c75a410a",
        "a5/mu3 p6-json":
            "c2731f0483e4ecc6042370223518e3ef70300786203364426f46faf31d3d7bea",
        "a5/mu1mu3 exact-json":
            "89e21fda79ae726e204238995c37cf2bcdab0120752427fe0cf94231c044ca34",
        "a5/mu1mu3 exact-text":
            "558a83afc73441f85486edb5f9dcc308fe8bf81c71cec87c8584ab3b70d63abd",
        "a5/mu1mu3 p2-json":
            "3780b041782037f08289c31e806dc98fbdf5faf7c3a06ffedc20f41c5e5fe11f",
        "a5/mu1mu3 p3-json":
            "db4ecad6d1c61dbf1afb83d2dab196ba5d584d155c4362c6bf471ea8c637cdfe",
        "a5/mu1mu3 p3-eval-text":
            "3dff7bd29e144f4e0ab7810fdde363cd19ec3a1daeeb52eb14cc46fc9bf3ff72",
        "a5/mu1mu3 exact-eval-json":
            "78bc9b0f4e1e3004a1605e27ce14f229c0d13b53fec3396f46a29faf81e15ba4",
        "a5/mu1mu3 p1-json":
            "6f568d45960e2fa3fe5ca237f974afd86344cd23956fd51b77191008c75a410a",
        "a5/mu1mu3 p6-json":
            "89e21fda79ae726e204238995c37cf2bcdab0120752427fe0cf94231c044ca34",
    }

    def test_stokes_on_chamber_files(self, capsys, tmp_path):
        seen = {}
        for n, e in _family_entries():
            if e["id"] not in self.CHAMBER_FIXTURES:
                continue
            q = apply_word(linear_quiver(n), e["word"])
            active = extension_actives(q, e["Z"])[::-1]
            model = DTModel.from_quiver_extensions(q)
            dt = {",".join(map(str, v.coords)): str(2 * model.dt(v))
                  for v in active if sum(v.coords) == 2}
            dt[",".join("1" if k == 0 else "0" for k in range(n))] = "-1/2"
            quiver = tmp_path / "q.json"
            quiver.write_text(json.dumps(quiver_to_json(q)))
            chamber = tmp_path / "c.json"
            chamber.write_text(json.dumps(
                {"Z": e["Z"], "active": [list(v.coords) for v in active],
                 "dt": dt}))
            point = ",".join(("1/2", "-2", "3", "2/3", "-1")[:n])
            for run, flags in self.CHAMBER_RUNS.items():
                flags = [point if f == "point" else f for f in flags]
                seen[f"{e['id']} {run}"] = stdout_sha256(
                    capsys, ["stokes", str(quiver), "--chamber", str(chamber),
                             *flags])
        assert seen == self.STOKES_CHAMBER_FILES

    # `equiv` from a sign- and permutation-disguised an_stokes(n) at the unit
    # point to a disguised fixture value: (fixture, sigma1, signs1, sigma2,
    # signs2).  Every certificate starts with a `perm` move and ends with
    # two; recorded before the search inverted permutations in one helper.
    EQUIV_PAIRS = [
        ("a4/mu2", (2, 3, 1, 4), (1, -1, -1, 1), (3, 4, 2, 1), (-1, -1, -1, -1)),
        ("a4/mu4mu2", (3, 2, 4, 1), (1, -1, -1, -1), (2, 3, 4, 1), (-1, 1, -1, -1)),
        ("a5/mu3", (4, 5, 1, 3, 2), (-1, 1, -1, 1, 1), (4, 3, 5, 1, 2),
         (-1, 1, -1, -1, -1)),
        ("a5/mu2mu4", (3, 5, 4, 2, 1), (1, -1, -1, 1, 1), (1, 5, 4, 2, 3),
         (-1, -1, 1, 1, 1)),
        ("a5/mu1mu3", (4, 3, 1, 2, 5), (-1, 1, 1, -1, -1), (4, 2, 5, 3, 1),
         (1, -1, -1, -1, -1)),
        ("a5/mu5mu1mu3", (4, 3, 2, 1, 5), (1, -1, -1, -1, 1), (3, 2, 5, 4, 1),
         (-1, -1, 1, -1, 1)),
        ("a5/mu2", (3, 2, 4, 1, 5), (-1, -1, 1, 1, -1), (5, 4, 3, 2, 1),
         (-1, -1, -1, -1, 1)),
    ]
    EQUIV_DISGUISED = {
        "a4/mu2":
            "f0b2bd85e6ceb2c438bab90d50cf123a9da3e13f7c57dcdaa931374b97418a71",
        "a4/mu4mu2":
            "799d33d387da2e9a0b2715f35241420b3bd06e4e04d71bbcbfeba5ddefa171b2",
        "a5/mu3":
            "aff0d244f5df5182d3a5b784786abc29d81b86431460ccc7a39fde5e7c093b60",
        "a5/mu2mu4":
            "875c64770a20c600706fffd38162a1dfaaf35d5b3cba2df0cdffd774cfc730f6",
        "a5/mu1mu3":
            "5d930cd06e3b1312f027e879d62e37cd00280411729b8919d0999572e2f06719",
        "a5/mu5mu1mu3":
            "5a7b80a70a05b1e99d48be6147da7fbf840b09ecb28448ab37f4bf9175e2229f",
        "a5/mu2":
            "c9b2c2625782a55b78cf36bf8b19be30d6bb532dbc03278b14ac569f76d0732a",
    }

    def test_equiv_on_disguised_pairs(self, capsys, tmp_path):
        values = fixture_matrices_sj(_pipeline_fixtures())
        seen = {}
        for fid, sigma1, signs1, sigma2, signs2 in self.EQUIV_PAIRS:
            n = len(sigma1)
            source = perm_conj(sigma1, sign_conj(
                signs1, an_stokes(n).evaluate(joyce_point(n))))
            target = perm_conj(sigma2, sign_conj(signs2, values[fid]))
            paths = []
            for name, m in (("s.json", source), ("t.json", target)):
                path = tmp_path / name
                path.write_text(json.dumps(rational_matrix_to_json(m)))
                paths.append(str(path))
            assert main(["equiv", *paths, "--format", "json"]) == 0
            out = capsys.readouterr().out
            word = json.loads(out)["word"]
            assert ["perm" in mv for mv in word[:1] + word[-2:]] == [True] * 3
            seen[fid] = hashlib.sha256(out.encode()).hexdigest()
        assert seen == self.EQUIV_DISGUISED


def test_verify_paper_scopes_are_the_scope_table():
    parser = quiverstokes.cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command")
    scope = next(a for a in commands.choices["verify-paper"]._actions
                 if a.dest == "scope")
    assert list(scope.choices) == list(quiverstokes.verify.SCOPES)
    assert scope.choices[-1] == "all"
    with pytest.raises(ValueError) as err:
        quiverstokes.verify.run_scope("nope")
    assert all(repr(name) in str(err.value) for name in scope.choices)
