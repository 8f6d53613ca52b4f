import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oppositions
from oppositions.cli import main
from conftest import HEXAGON_CORPUS, SQUARE_CORPUS


@pytest.fixture()
def square_file(tmp_path):
    path = tmp_path / "square.corpus"
    path.write_text(SQUARE_CORPUS + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def hexagon_file(tmp_path):
    path = tmp_path / "hexagon.corpus"
    path.write_text(HEXAGON_CORPUS + "\n", encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_contradictory(self, capsys):
        code, out, err = run(capsys, "classify", "A[P]", "O[P]")
        assert (code, out, err) == (0, "contradictory\n", "")

    def test_equivalent(self, capsys):
        code, out, _ = run(capsys, "classify", "A[P]", "A[P]")
        assert (code, out) == (0, "equivalent\n")

    def test_subcontrary_with_disjunction(self, capsys):
        code, out, _ = run(capsys, "classify", "U[P]", "I[P]")
        assert (code, out) == (0, "subcontrary\n")

    def test_subaltern_direction(self, capsys):
        code, out, _ = run(capsys, "classify", "A[P]", "I[P]")
        assert (code, out) == (0, "subaltern(a->b)\n")
        code, out, _ = run(capsys, "classify", "I[P]", "A[P]")
        assert (code, out) == (0, "subaltern(b->a)\n")

    def test_explicit_bound(self, capsys):
        code, out, _ = run(capsys, "classify", "U[P]", "Y[P]", "--bound", "3")
        assert (code, out) == (0, "contradictory\n")

    def test_parse_error(self, capsys):
        code, out, err = run(capsys, "classify", "A[P", "O[P]")
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_vocabulary_mismatch(self, capsys):
        code, out, err = run(capsys, "classify", "A[P]", "A[Q]")
        assert code == 3
        assert out == ""
        assert "vocabulary" in err


class TestGraph:
    def test_text(self, capsys, square_file):
        code, out, _ = run(capsys, "graph", "--corpus", square_file)
        assert code == 0
        assert "A O contradictory" in out
        assert "A I subaltern(A->I)" in out

    def test_structured(self, capsys, square_file):
        code, out, _ = run(capsys, "graph", "--corpus", square_file, "--format", "structured")
        assert code == 0
        document = json.loads(out)
        assert len(document["pairs"]) == 6

    def test_dot(self, capsys, hexagon_file):
        code, out, _ = run(capsys, "graph", "--corpus", hexagon_file, "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")
        assert out.count("->") == 15

    def test_empty_corpus(self, capsys, tmp_path):
        path = tmp_path / "empty.corpus"
        path.write_text("", encoding="utf-8")
        code, out, err = run(capsys, "graph", "--corpus", str(path))
        assert code == 2
        assert out == ""

    def test_single_entry_corpus(self, capsys, tmp_path):
        path = tmp_path / "one.corpus"
        path.write_text("A: A[P]\n", encoding="utf-8")
        code, _, _ = run(capsys, "graph", "--corpus", str(path))
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "graph", "--corpus", "/nonexistent.corpus")
        assert code == 2
        assert "cannot read" in err

    def test_parse_error_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.corpus"
        path.write_text("A: A[P]\nE: E[P\n", encoding="utf-8")
        code, _, err = run(capsys, "graph", "--corpus", str(path))
        assert code == 2
        assert "2:" in err

    def test_stdin_corpus(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(SQUARE_CORPUS))
        code, out, _ = run(capsys, "graph", "--corpus", "-")
        assert code == 0
        assert "I O subcontrary" in out


class TestEncode:
    def test_square_matches(self, capsys, square_file):
        code, out, _ = run(capsys, "encode", "--corpus", square_file, "--q", "1", "--r", "2")
        assert code == 0
        assert "A = 1 (universal)" in out
        assert "verification: matches" in out
        assert "+---+---0---+---+" in out

    def test_hexagon_includes_distinct_objects(self, capsys, hexagon_file):
        code, out, _ = run(capsys, "encode", "--corpus", hexagon_file)
        assert code == 0
        assert "U = 3 (disjunction)" in out
        assert "Y = -3 (conjunction)" in out
        assert "verification: matches" in out

    def test_universal_map_flag(self, capsys, square_file):
        code, out, _ = run(capsys, "encode", "--corpus", square_file, "--map", "a-high")
        assert code == 0
        assert "A = 2 (universal)" in out

    def test_hexagon_with_square_clauses_mismatches(self, capsys, hexagon_file):
        code, out, _ = run(
            capsys, "encode", "--corpus", hexagon_file, "--clauses", "square"
        )
        assert code == 5
        assert "A U decoded contrary, semantic subaltern(A->U)" in out

    def test_shape_error(self, capsys, tmp_path):
        path = tmp_path / "odd.corpus"
        path.write_text("A: A[P]\nB: E[P]\n", encoding="utf-8")
        code, _, err = run(capsys, "encode", "--corpus", str(path))
        assert code == 4
        assert "square or hexagon" in err

    def test_definitional_shape_enforced(self, capsys, tmp_path):
        path = tmp_path / "notu.corpus"
        text = "A: A[P]\nE: E[P]\nI: I[P]\nO: O[P]\nU: A[P] | I[P]\nY: Y[P]\n"
        path.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "encode", "--corpus", str(path))
        assert code == 4
        assert "U must be the disjunction" in err

    def test_alternate_representations_accepted(self, capsys, tmp_path):
        path = tmp_path / "universal_only.corpus"
        text = (
            "A: forall x. P(x)\n"
            "E: forall x. ~P(x)\n"
            "I: ~forall x. ~P(x)\n"
            "O: ~forall x. P(x)\n"
        )
        path.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "encode", "--corpus", str(path))
        assert code == 0
        assert "verification: matches" in out

    def test_bad_magnitudes(self, capsys, square_file):
        code, _, err = run(capsys, "encode", "--corpus", square_file, "--q", "2", "--r", "2")
        assert code == 2
        assert "distinct" in err

    def test_structured_format(self, capsys, hexagon_file):
        code, out, _ = run(
            capsys, "encode", "--corpus", hexagon_file, "--format", "structured"
        )
        assert code == 0
        document = json.loads(out)
        assert document["kind"] == "encoding_report"
        assert document["verification"]["matches"] is True


class TestSynthesize:
    def test_square_count(self, capsys, square_file):
        code, out, _ = run(
            capsys, "synthesize", "--corpus", square_file, "--magnitude", "2"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines == [
            "A=1 E=2 I=-2 O=-1",
            "A=2 E=1 I=-1 O=-2",
            "found 2",
        ]

    def test_hexagon_square_clauses_negative_result(self, capsys, hexagon_file):
        code, out, _ = run(
            capsys,
            "synthesize",
            "--corpus",
            hexagon_file,
            "--clauses",
            "square",
            "--magnitude",
            "6",
        )
        assert code == 1
        assert out == "found 0\n"

    def test_hexagon_hexagon_clauses(self, capsys, hexagon_file):
        code, out, _ = run(
            capsys,
            "synthesize",
            "--corpus",
            hexagon_file,
            "--clauses",
            "hexagon",
            "--magnitude",
            "3",
        )
        assert code == 0
        assert "A=1 E=2 I=-2 O=-1 U=3 Y=-3" in out
        assert out.strip().endswith("found 2")

    def test_structured_format(self, capsys, square_file):
        code, out, _ = run(
            capsys,
            "synthesize",
            "--corpus",
            square_file,
            "--magnitude",
            "2",
            "--format",
            "structured",
        )
        assert code == 0
        document = json.loads(out)
        assert document["kind"] == "synthesis_result"
        assert document["count"] == 2

    def test_role_inference_failure(self, capsys, tmp_path):
        path = tmp_path / "impl.corpus"
        path.write_text("A: A[P]\nC: A[P] -> I[P]\n", encoding="utf-8")
        code, _, err = run(capsys, "synthesize", "--corpus", str(path))
        assert code == 4
        assert "polarity role" in err


class TestShapeErrors:
    @pytest.mark.parametrize(
        "corpus,argv",
        [
            (SQUARE_CORPUS, ("synthesize", "--clauses", "hexagon", "--magnitude", "3")),
            ("A: A[P]\nE: E[P]\nI: I[P]", ("synthesize", "--magnitude", "3")),
            (SQUARE_CORPUS, ("encode", "--clauses", "hexagon")),
        ],
        ids=["hexagon-clauses-on-square", "unbalanced-polarities", "encode-hexagon-clauses"],
    )
    def test_exit_four_without_traceback(self, tmp_path, corpus, argv):
        # a child process, so an uncaught exception would show its traceback
        path = tmp_path / "shape.corpus"
        path.write_text(corpus + "\n", encoding="utf-8")
        src = str(Path(oppositions.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "oppositions", *argv, "--corpus", str(path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert done.returncode == 4
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys, hexagon_file):
        args = ("graph", "--corpus", hexagon_file, "--format", "structured")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_stderr_carries_no_payload_on_success(self, capsys, hexagon_file):
        _, _, err = run(capsys, "encode", "--corpus", hexagon_file)
        assert err == ""
