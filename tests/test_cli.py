import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oppositions
from oppositions import cli, pairs, print_sentence, semantics
from oppositions.cli import main
from oppositions.formula import A_LOW, UNIVERSAL_MAPS
from conftest import HEXAGON_CORPUS, SQUARE_CORPUS, sentence_strategy


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

    def test_vocabulary_mismatch_line(self, capsys):
        # the CLI has no vocabulary option, so the line only states the mismatch
        code, out, err = run(capsys, "classify", "A[P]", "O[Q]")
        assert (code, out) == (3, "")
        assert err == (
            "error: vocabulary mismatch: sentences use different predicates (['P'] vs ['Q'])\n"
        )

    def test_five_predicates_at_the_default_bound(self, capsys):
        code, out, err = run(
            capsys,
            "classify",
            "forall x. P(x) & Q(x) -> R(x) | S(x) | T(x)",
            "exists x. P(x) & Q(x) & ~R(x) & ~S(x) & ~T(x)",
        )
        assert (code, out, err) == (0, "contradictory\n", "")


def cut_note(bound):
    return (f"note: --bound {bound} is too small: some model needs {bound + 1} elements, "
            "so the answer may not be exact\n")


class TestCutShortNote:
    """A bound that the oracle says cut its answer short, where some model needs
    more elements than the bound, is labelled on stderr only."""

    # four distinct leaves, yet every vector is realized within 2 elements
    EARLY_PAIR = (
        "(exists x. P(x)) & (exists x. Q(x)) & (exists x. P(x) & Q(x))",
        "exists x. P(x) & ~Q(x)",
    )
    # five predicates (32 cells) and three distinct leaves; a is false in every
    # one-element model, and a true with b false needs three elements
    FIVE_PAIR = (
        "(exists x. P(x) & ~Q(x) & R(x)) & (exists x. ~P(x) & S(x) & T(x))",
        "forall x. P(x) | Q(x) | R(x) | S(x) | T(x)",
    )

    def test_contrary_pair_at_bound_one(self, capsys):
        # both are false only in a model with two elements
        code, out, err = run(capsys, "classify", "A[P]", "E[P]", "--bound", "1")
        assert (code, out, err) == (0, "contradictory\n", cut_note(1))

    @pytest.mark.parametrize("argv", [(), ("--bound", "2"), ("--bound", "5")])
    def test_exact_bounds_stay_quiet(self, capsys, argv):
        code, out, err = run(capsys, "classify", "A[P]", "E[P]", *argv)
        assert (code, out, err) == (0, "contrary\n", "")

    @pytest.mark.parametrize("bound", ["2", "3", "4"])
    def test_a_bound_below_the_leaves_that_does_not_cut_stays_quiet(self, capsys, bound):
        code, out, err = run(capsys, "classify", *self.EARLY_PAIR, "--bound", bound)
        assert (code, out, err) == (0, "unconnected\n", "")
        code, out, err = run(capsys, "classify", *self.EARLY_PAIR, "--bound", "1")
        assert (code, out, err) == (0, "contrary\n", cut_note(1))

    @pytest.mark.parametrize(
        "bound, expected",
        [("1", ("contrary\n", cut_note(1))), ("2", ("subaltern(a->b)\n", cut_note(2))),
         ("3", ("unconnected\n", "")), ("9", ("unconnected\n", ""))],
    )
    def test_five_predicates(self, capsys, monkeypatch, bound, expected):
        # from the three distinct leaves on, the walk runs and never cuts;
        # below them the closure walks only the classes, and cuts
        walked = []

        def spying(leaves, cells, one):
            walked.append(one)
            return walk(leaves, cells, one)

        walk = semantics._walk
        monkeypatch.setattr(semantics, "_walk", spying)
        code, out, err = run(capsys, "classify", *self.FIVE_PAIR, "--bound", bound)
        assert (code, (out, err)) == (0, expected)
        assert walked == ([True] if int(bound) < 3 else [False])

    def test_corpus_commands(self, capsys, tmp_path):
        # the hexagon corpus has two distinct leaves over two cells
        for argv in (("graph",), ("encode",), ("synthesize", "--magnitude", "3")):
            _, _, err = run(capsys, *with_corpus(tmp_path, HEXAGON_CORPUS, (*argv, "--bound", "1")))
            assert err == cut_note(1)


class TestCompileOnce:
    """Each command compiles its input once, and the note reads the same oracle."""

    @pytest.mark.parametrize("argv, expected", [
        (("classify", "A[P]", "E[P]", "--bound", "1"), 0),
        (("graph",), 0),
        (("encode",), 0),
        (("synthesize", "--bound", "1"), 1),  # the cut graph has no encoding
    ])
    def test_one_compile(self, capsys, monkeypatch, tmp_path, argv, expected):
        calls = []

        def spying(vocab, sentences):
            calls.append(vocab)
            return compile_(vocab, sentences)

        compile_ = semantics._compile
        monkeypatch.setattr(semantics, "_compile", spying)
        if argv[0] != "classify":
            argv = with_corpus(tmp_path, HEXAGON_CORPUS, argv)
        code, out, _ = run(capsys, *argv)
        assert (code, len(calls)) == (expected, 1) and out


class TestOneEntryCorpus:
    """A graph needs two nodes; ``OppositionGraph`` alone says so."""

    @pytest.mark.parametrize("argv, code, err", [
        (("graph",), 2, "error: an opposition graph needs at least two nodes\n"),
        (("synthesize",), 2, "error: an opposition graph needs at least two nodes\n"),
        (("encode",), 4, "error: corpus labels ['A'] are not a categorical square or hexagon\n"),
    ])
    def test_refused_on_one_line(self, capsys, tmp_path, argv, code, err):
        assert run(capsys, *with_corpus(tmp_path, "A: A[P]", argv)) == (code, "", err)

    def test_refused_before_the_oracle_compiles(self, capsys, tmp_path):
        # 20 one-cell leaves over 5 predicates realize more vectors than the
        # oracle's limit, but a lone sentence has no pair to classify
        def cell(c):
            return " & ".join(f"{'' if c >> j & 1 else '~'}P{j}(x)" for j in range(5))

        corpus = "s: " + " & ".join(f"(exists x. ({cell(c)}))" for c in range(20))
        argv = with_corpus(tmp_path, corpus, ("graph",))
        start = time.perf_counter()
        result = run(capsys, *argv)
        assert time.perf_counter() - start < 0.1
        assert result == (2, "", "error: an opposition graph needs at least two nodes\n")


class TestInternalError:
    def test_escaped_exception_exits_70_on_one_line(self, capsys, monkeypatch):
        def broken(corpus, bound):
            raise KeyError("a bug\nover two lines")

        monkeypatch.setattr(pairs, "pair_relations", broken)
        code, out, err = run(capsys, "classify", "A[P]", "O[P]")
        assert (code, out) == (70, "")
        assert err.startswith("internal error: KeyError(") and err.count("\n") == 1


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

    def test_dot_refuses_a_label_that_ends_in_a_backslash(self, capsys, tmp_path):
        path = tmp_path / "backslash.corpus"
        path.write_text("a\\: A[P]\nb: O[P]\n", encoding="utf-8")
        code, out, err = run(capsys, "graph", "--corpus", str(path), "--format", "dot")
        assert (code, out) == (2, "")
        assert err == "error: DOT cannot quote the label a\\: it ends in a backslash\n"
        code, out, _ = run(capsys, "graph", "--corpus", str(path))
        assert (code, out) == (0, "a\\ b contradictory\n")

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

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path, source):
        data = ("\ufeff" + SQUARE_CORPUS + "\n").encode("utf-8")
        path = tmp_path / "bom.corpus"
        path.write_bytes(data)
        done = subprocess.run(
            [*CHILD, "graph", "--corpus", str(path) if source == "file" else "-"],
            input=data if source == "stdin" else None, capture_output=True,
            env=child_env(PYTHONIOENCODING="utf-8"), timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == (GOLDEN / "graph-square-text.out").read_bytes()

    def test_corpus_graph_annotation_resolves(self):
        # the annotation names a class the module imports
        import typing
        from oppositions import corpus_commands
        from oppositions.graph import OppositionGraph

        hints = typing.get_type_hints(corpus_commands._corpus_graph)
        assert hints["return"] is OppositionGraph


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

    @pytest.mark.parametrize(
        "fmt,expected", [("structured", '"value": 1000000000'), ("dot", "digraph oppositions {")]
    )
    def test_huge_span_draws_no_number_line(self, capsys, square_file, fmt, expected):
        argv = ("encode", "--corpus", square_file, "--r", str(10**9), "--format", fmt)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert expected in out

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

    def test_square_clauses_refuse_the_hexagon_at_any_magnitude(self, tmp_path):
        # no permutation pair decodes to the hexagon, so no support is visited;
        # in a child with a timeout, so a search that visits them fails instead of hanging
        argv = ["synthesize", "--clauses", "square", "--magnitude", "1000000"]
        result = run_child(tmp_path, HEXAGON_CORPUS, argv)
        assert (result.returncode, result.stdout, result.stderr) == (1, "found 0\n", "")

    def test_hexagon_clauses_refuse_a_result_past_the_cap(self, tmp_path):
        # about 5 * 10**11 solutions: refused from their count, before any is built
        argv = ["synthesize", "--clauses", "hexagon", "--magnitude", "1000000"]
        result = run_child(tmp_path, HEXAGON_CORPUS, argv)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "limit of 100000" in result.stderr

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


def with_corpus(tmp_path, corpus, argv):
    """argv, plus a --corpus file holding the corpus text or bytes unless it is None."""
    if corpus is None:
        return argv
    path = tmp_path / "input.corpus"
    if isinstance(corpus, bytes):
        path.write_bytes(corpus)
    else:
        path.write_text(corpus + "\n", encoding="utf-8")
    return (*argv, "--corpus", str(path))


CHILD = [sys.executable, "-m", "oppositions"]


def child_env(**extra):
    src = str(Path(oppositions.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=src, **extra)


def run_child(tmp_path, corpus, argv, env=None, **options):
    """Run the CLI in a child process, so an uncaught exception shows its
    traceback; ``options`` go to subprocess.run."""
    argv = with_corpus(tmp_path, corpus, argv)
    return subprocess.run(
        [*CHILD, *argv],
        capture_output=True,
        text=True,
        env=env or child_env(),
        timeout=60,
        **options,
    )


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
        done = run_child(tmp_path, corpus, argv)
        assert done.returncode == 4
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


    @pytest.mark.parametrize(
        "corpus,argv,line",
        [
            (
                "A: A[P]\nB: E[P]",
                ("encode",),
                "corpus labels ['A', 'B'] are not a categorical square or hexagon",
            ),
            (
                "A: A[P]\nE: E[Q]\nI: I[P]\nO: O[P]",
                ("encode",),
                "encoding expects a corpus over a single predicate",
            ),
            (
                "A: A[P]\nE: E[P]\nI: I[P]\nO: A[P]",
                ("encode",),
                "label O is not the categorical O form over P",
            ),
            (
                SQUARE_CORPUS + "\nU: A[P] | I[P]\nY: Y[P]",
                ("encode",),
                "label U must be the disjunction of A and E",
            ),
            (
                SQUARE_CORPUS + "\nU: U[P]\nY: I[P] | O[P]",
                ("encode",),
                "label Y must be the conjunction of I and O",
            ),
            (
                "A: A[P]\nC: A[P] -> I[P]",
                ("synthesize",),
                "cannot infer a polarity role for label 'C'",
            ),
            # the shape comes before the magnitudes, and roles before the oracle's note
            (
                SQUARE_CORPUS + "\nU: A[P] | I[P]\nY: Y[P]",
                ("encode", "--q", "2", "--r", "2"),
                "label U must be the disjunction of A and E",
            ),
            (
                "A: A[P]\nC: A[P] -> I[P]",
                ("synthesize", "--bound", "1"),
                "cannot infer a polarity role for label 'C'",
            ),
        ],
        ids=[
            "labels",
            "predicates",
            "form",
            "disjunction",
            "conjunction",
            "role",
            "disjunction-before-magnitudes",
            "role-before-bound-note",
        ],
    )
    def test_exact_message(self, tmp_path, corpus, argv, line):
        done = run_child(tmp_path, corpus, argv)
        assert (done.returncode, done.stdout, done.stderr) == (4, "", f"error: {line}\n")


class TestBoundErrors:
    @pytest.mark.parametrize(
        "corpus,argv",
        [
            (None, ("classify", "A[P]", "I[P]", "--bound", "0")),
            (SQUARE_CORPUS, ("encode", "--bound", "-1")),
            (HEXAGON_CORPUS, ("synthesize", "--magnitude", "0")),
            (
                None,
                (
                    "classify",
                    "forall x. " + " & ".join(f"P{i}(x)" for i in range(25)),
                    "exists x. " + " & ".join(f"P{i}(x)" for i in range(25)),
                ),
            ),
            (None, ("classify", "~" * 3000 + "A[P]", "I[P]")),
            (None, ("classify", "(" * 1200 + "A[P]" + ")" * 1200, "I[P]")),
            (None, ("classify", " & ".join(["A[P]"] * 3000), "I[P]")),
            (None, ("classify", "forall x. " + "~" * 3000 + "P(x)", "I[P]")),
            (None, ("classify", "forall x. " + "(" * 1200 + "P(x)" + ")" * 1200, "I[P]")),
            ("A: I[P]\nB: forall x. " + " & ".join(["P(x)"] * 3000), ("graph",)),
            (b"A: A[P]\nB: \xffI[P]\n", ("graph",)),
            (HEXAGON_CORPUS, ("encode", "--r", str(10**9))),
        ],
        ids=[
            "classify-bound-zero",
            "encode-bound-negative",
            "synthesize-magnitude-zero",
            "classify-too-many-cells",
            "deep-negation",
            "deep-parentheses",
            "long-conjunction",
            "deep-matrix-negation",
            "deep-matrix-parentheses",
            "long-matrix-conjunction-in-corpus",
            "corpus-not-utf8",
            "encode-number-line-too-wide",
        ],
    )
    def test_exit_two_without_traceback(self, tmp_path, corpus, argv):
        done = run_child(tmp_path, corpus, argv)
        assert done.returncode == 2
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert "error: " in done.stderr.splitlines()[-1]

    @pytest.mark.parametrize(
        "label", ["\udcffB", "B\x07"], ids=["surrogate-escaped-stdin", "control-character"]
    )
    def test_unprintable_label_from_stdin(self, tmp_path, label):
        # surrogateescape stdin turns a stray byte into a lone surrogate
        done = run_child(
            tmp_path,
            None,
            ("graph", "--corpus", "-", "--format", "structured"),
            env=child_env(PYTHONIOENCODING="utf-8:surrogateescape"),
            input=f"A: A[P]\n{label}: I[P]\n",
            errors="surrogateescape",
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: ") and "invalid label" in done.stderr


LONG = "L" * 100_000


class TestLongRefusals:
    # each refusal quotes its 100,000-character operand, so only the cap bounds it
    @pytest.mark.parametrize(
        "corpus,argv,code",
        [
            (f"{LONG}: A[P]\n{LONG}: I[P]", ("graph",), 2),
            (f"a: A[P]\n{LONG} {LONG}: I[P]", ("graph",), 2),
            (None, ("classify", f"A[P] {LONG}", "O[P]"), 2),
            (None, ("classify", "A[P]", f"O[{LONG}]"), 3),
            (f"A: A[P]\nE: E[P]\nI: I[P]\n{LONG}: O[P]", ("encode",), 4),
        ],
        ids=["duplicate-label", "invalid-label", "trailing-input", "vocabulary-mismatch",
             "shape-error"],
    )
    def test_one_line_within_the_cap(self, tmp_path, corpus, argv, code):
        done = run_child(
            tmp_path, corpus, argv, env=child_env(PYTHONIOENCODING="utf-8"), encoding="utf-8"
        )
        assert (done.returncode, done.stdout) == (code, "")
        [line] = done.stderr.splitlines()
        assert line.startswith("error: ") and "…" in line
        assert len(line.encode("utf-8")) <= cli.MAX_LINE

    def test_the_cap_counts_bytes_in_stderrs_encoding(self, tmp_path):
        # under ascii, backslashreplace writes each é as the four bytes \xe9
        label = "\u00e9" * 100_000
        done = run_child(
            tmp_path, f"{label}: A[P]\n{label}: I[P]", ("graph",),
            env=child_env(PYTHONIOENCODING="ascii"), encoding="ascii",
        )
        assert (done.returncode, done.stdout) == (2, "")
        [line] = done.stderr.splitlines()
        assert line.startswith("error: ") and "duplicate label" in line
        assert "\\xe9" in line and "\\u2026" in line
        assert cli.MAX_LINE - 10 < len(line.encode("ascii")) <= cli.MAX_LINE

    def test_a_line_at_the_cap_is_kept_whole(self, capsys):
        line = "x" * cli.MAX_LINE
        assert cli._say(line, 7) == 7
        assert capsys.readouterr().err == line + "\n"


# The child runs under -S, so no module that site or a .pth file preloads
# (typing, re and enum may be) can hide a load; it snapshots its modules
# after start-up, so what the interpreter itself loads does not count.
MODULES_PROBE = """\
import sys
bare = set(sys.modules)
from oppositions.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(*sorted(set(sys.modules) - bare), file=sys.stderr)
sys.exit(code)
"""

# a refused argument or -h runs no command, so it loads no handler
ARGUMENT_MODULES = {"oppositions", "oppositions.cli", "oppositions.formula"}
# every command reads sentences and runs the oracle, which defines the relations
ORACLE_MODULES = ARGUMENT_MODULES | {"oppositions.parser", "oppositions.semantics"}
# classify prints one relation and builds no graph; its handler and the
# two-sentence API live apart, so the corpus commands compile none of them
CLASSIFY_MODULES = ORACLE_MODULES | {"oppositions.pairs"}
# the corpus commands' handlers live apart, so classify compiles none of them
CORPUS_MODULES = ORACLE_MODULES | {"oppositions.corpus_commands"}
GRAPH_MODULES = CORPUS_MODULES | {"oppositions.graph"}
# synthesize compiles the roles, the clause tables and the search; only
# encode adds the construction, its decoding, verification and number line
SEARCH_MODULES = GRAPH_MODULES | {"oppositions.segment"}
ENCODE_MODULES = SEARCH_MODULES | {"oppositions.construction"}
WRITER = {"oppositions.document"}
# only --format dot loads the DOT emitter, and no command loads the reader:
# each test compares whole sets, so no set here names oppositions.reader, and
# graph --format structured loads no construction, segment or DOT emitter
DOT = {"oppositions.dot"}


# Records are __slots__ classes, so only field introspection imports
# dataclasses, which pulls in inspect, ast and dis; the command table
# replaced argparse, which pulls in gettext and locale; annotations name
# collections.abc, not typing, which costs more than a bare start; the
# tokenizer scans with str methods, not re, which the probe's -S keeps site
# from loading; and annotations are evaluated where they are defined, so no
# module imports __future__.
NEVER_LOADED = {
    "dataclasses", "inspect", "argparse", "gettext", "locale", "typing", "re", "__future__",
}


def loaded_modules(tmp_path, corpus, argv, code=0):
    """The modules a child imports to run the CLI on argv, past its own start;
    the child must exit with ``code``."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", MODULES_PROBE, *with_corpus(tmp_path, corpus, argv)],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert done.returncode == code, done.stderr
    return set(done.stderr.splitlines()[-1].split())  # after any error line


def package_modules(loaded):
    return {m for m in loaded if m.startswith("oppositions")}


TWENTY_FIVE = [f"P{i}(x)" for i in range(25)]


class TestImportContract:
    # the error rows guard main's exit-code table, which looks segment up
    # without importing it
    @pytest.mark.parametrize(
        "corpus,argv,code,modules",
        [
            (None, ("classify", "A[P]", "O[P]"), 0, CLASSIFY_MODULES),
            (SQUARE_CORPUS, ("graph", "--format", "text"), 0, GRAPH_MODULES),
            (SQUARE_CORPUS, ("graph", "--format", "dot"), 0, GRAPH_MODULES | DOT),
            (SQUARE_CORPUS, ("graph", "--format", "structured"), 0, GRAPH_MODULES),
            (None, ("classify", "A[P", "O[P]"), 2, CLASSIFY_MODULES),
            (None, ("classify", "A[P]", "O[Q]"), 3, CLASSIFY_MODULES),
            (
                None,
                (
                    "classify",
                    "forall x. " + " & ".join(TWENTY_FIVE),
                    "exists x. " + " & ".join(TWENTY_FIVE),
                ),
                2,
                CLASSIFY_MODULES,
            ),
            ("a\\: A[P]\nb: O[P]", ("graph", "--format", "dot"), 2, GRAPH_MODULES | DOT),
            (None, ("classify", "-h"), 0, ARGUMENT_MODULES),
            (SQUARE_CORPUS, ("graph", "--format", "svg"), 2, ARGUMENT_MODULES),
        ],
        ids=[
            "classify",
            "graph-text",
            "graph-dot",
            "graph-structured",
            "classify-parse-error",
            "classify-vocabulary-mismatch",
            "classify-too-many-cells",
            "graph-dot-backslash-label",
            "classify-help",
            "graph-argument-refused",
        ],
    )
    def test_oracle_commands_load_only_the_oracle(self, tmp_path, corpus, argv, code, modules):
        loaded = loaded_modules(tmp_path, corpus, argv, code)
        writer = WRITER if "structured" in argv else set()
        assert package_modules(loaded) == modules | writer
        assert not NEVER_LOADED & loaded
        assert "json" not in loaded

    def test_encode_loads_segment(self, tmp_path):
        loaded = loaded_modules(tmp_path, SQUARE_CORPUS, ("encode", "--format", "structured"))
        assert package_modules(loaded) == ENCODE_MODULES | WRITER
        assert not NEVER_LOADED & loaded

    @pytest.mark.parametrize("form,extra", [("text", set()), ("dot", DOT)], ids=["text", "dot"])
    def test_encode_loads_the_construction_in_every_format(self, tmp_path, form, extra):
        loaded = loaded_modules(tmp_path, SQUARE_CORPUS, ("encode", "--format", form))
        assert package_modules(loaded) == ENCODE_MODULES | extra
        assert not NEVER_LOADED & loaded

    @pytest.mark.parametrize("module", ["segment", "construction", "pairs"])
    def test_the_library_loads_no_cli_code(self, module):
        probe = f"import sys, oppositions.{module}\nprint(*sorted(sys.modules))"
        done = subprocess.run(
            [sys.executable, "-S", "-c", probe], capture_output=True, text=True,
            env=child_env(), timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "")
        loaded = set(done.stdout.split())
        assert f"oppositions.{module}" in loaded
        assert not {"oppositions.cli", "oppositions.corpus_commands"} & loaded

    def test_encode_shape_error_loads_segment(self, tmp_path):
        loaded = loaded_modules(tmp_path, SQUARE_CORPUS, ("encode", "--clauses", "hexagon"), 4)
        assert package_modules(loaded) == ENCODE_MODULES
        assert not NEVER_LOADED & loaded

    def test_synthesize_loads_segment(self, tmp_path):
        loaded = loaded_modules(tmp_path, HEXAGON_CORPUS, ("synthesize",))
        assert package_modules(loaded) == SEARCH_MODULES
        assert not NEVER_LOADED & loaded

    def test_structured_synthesis_adds_only_the_writer(self, tmp_path):
        loaded = loaded_modules(tmp_path, HEXAGON_CORPUS, ("synthesize", "--format", "structured"))
        assert package_modules(loaded) == SEARCH_MODULES | WRITER

    @pytest.mark.parametrize(
        "corpus,argv", [(SQUARE_CORPUS, ("encode",)), (HEXAGON_CORPUS, ("synthesize",))],
        ids=["encode", "synthesize"],
    )
    def test_structured_documents_load_the_writer_not_json(self, tmp_path, corpus, argv):
        loaded = loaded_modules(tmp_path, corpus, (*argv, "--format", "structured"))
        assert {"oppositions.document", "oppositions.segment"} <= loaded
        assert "json" not in loaded


class TestBrokenPipe:
    def test_reader_closing_early_exits_141_quietly(self, tmp_path):
        # 80 labels give 3,160 pairs, far more than a pipe buffer holds
        corpus = "\n".join(f"L{i}: A[P]" for i in range(80))
        argv = with_corpus(tmp_path, corpus, ("graph", "--format", "structured"))
        child = subprocess.Popen(
            [*CHILD, *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        assert child.stdout.readline() == b"{\n"
        child.stdout.close()
        _, err = child.communicate(timeout=60)
        assert child.returncode == 141
        assert err == b""


# --- fuzzing: argv and corpus bytes never escape the documented exit codes ---

TOKENS = (
    "A[P]", "E[Q]", "I[R]", "O[P]", "U[Q]", "Y[R]", "B[P]", "forall x.", "exists y.",
    "P(x)", "Q(x)", "R(y)", "~", "&", "|", "->", "(", ")", ".", "[", "]", ":", "#",
)
SHAPES = (
    lambda n, leaf: "~" * n + leaf,
    lambda n, leaf: "(" * n + leaf + ")" * n,
    lambda n, leaf: " & ".join([leaf] * n),
)
deep = st.builds(
    lambda shape, n, level: level[0] + shape(n, level[1]),
    st.sampled_from(SHAPES),
    st.sampled_from((99, 100, 101, 150, 1200, 3000)),
    st.sampled_from((("", "A[P]"), ("forall x. ", "P(x)"))),
)
sentence_text = st.one_of(
    sentence_strategy(("P", "Q", "R")).map(print_sentence),
    st.lists(st.sampled_from(TOKENS), max_size=8).map(" ".join),
    deep,
)
corpus_line = st.builds("{}: {}".format, st.sampled_from("AEIOUYZ"), sentence_text)
corpus_bytes = st.one_of(
    st.sampled_from((SQUARE_CORPUS, HEXAGON_CORPUS)).map(str.encode),
    st.lists(corpus_line, min_size=1, max_size=6).map(lambda lines: "\n".join(lines).encode()),
    st.binary(max_size=60),
    st.tuples(st.sampled_from((SQUARE_CORPUS, HEXAGON_CORPUS)), st.binary(max_size=4)).map(
        lambda pair: pair[0].encode() + pair[1]
    ),
)


def number(low, high):
    return st.integers(min_value=low, max_value=high).map(str)


FORMATS = st.sampled_from(("structured", "dot", "text"))
CLAUSES = st.sampled_from(("square", "hexagon"))
FLAGS = {
    "classify": {"--bound": number(-1, 4)},
    "graph": {"--bound": number(-1, 4), "--format": FORMATS},
    "encode": {
        "--clauses": CLAUSES,
        "--q": number(-2, 4),
        "--r": number(-2, 4),
        "--map": st.sampled_from(("a-low", "a-high")),
        "--bound": number(-1, 4),
        "--format": FORMATS,
    },
    "synthesize": {
        "--clauses": CLAUSES,
        "--magnitude": number(-1, 8),
        "--bound": number(-1, 4),
        "--format": FORMATS,
    },
}


# another command's flags take the same values on every command
ANY_FLAG = {flag: values for flags in FLAGS.values() for flag, values in flags.items()}
# neither is a flag of any command, nor abbreviates one
UNKNOWN_FLAGS = ("--verbose", "--corpus-file")


@st.composite
def invocations(draw):
    """argv without the corpus path, and the corpus bytes for commands that
    read one (None leaves --corpus out).  Besides well-formed flags, argv may
    hold an unknown flag, another command's flag, a ``--flag=value``, an
    extra positional, and a flag missing its value at its end."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    argv = [command]
    if command == "classify":
        argv += [draw(sentence_text), draw(sentence_text)]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
        argv += [flag, draw(flags[flag])]
    others = sorted(set(ANY_FLAG) - set(flags))
    odd = st.one_of(
        st.tuples(st.sampled_from(UNKNOWN_FLAGS), number(0, 3)),
        st.sampled_from(others).flatmap(lambda f: st.tuples(st.just(f), ANY_FLAG[f])),
        st.sampled_from(sorted(flags)).flatmap(
            lambda f: st.tuples(flags[f].map(lambda value: f"{f}={value}"))
        ),
        st.tuples(sentence_text),
    )
    if draw(st.integers(0, 3)) == 0:  # rare enough that most argv reach the command
        at = draw(st.integers(1, len(argv)))
        argv[at:at] = draw(odd)
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(sorted(flags))))
    if command == "classify" or draw(st.integers(0, 9)) == 0:
        return argv, None
    return argv, draw(corpus_bytes)


# --- the argparse parser that cli.COMMANDS replaced, frozen as the reference ---

def _positive_int_reference(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oppositions",
        description=(
            "Classify logical oppositions between sentences and work with "
            "integer line-segment encodings of the square and hexagon of "
            "oppositions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    classify_p = sub.add_parser(
        "classify", help="classify the opposition between two sentences"
    )
    classify_p.add_argument("a", help="first sentence, e.g. 'A[P]' or 'forall x. P(x)'")
    classify_p.add_argument("b", help="second sentence")
    classify_p.add_argument(
        "--bound", type=_positive_int_reference, default=None, help="domain-size bound (default: exact)"
    )

    graph_p = sub.add_parser("graph", help="build the opposition graph of a corpus")
    _add_corpus_arg(graph_p)
    graph_p.add_argument("--bound", type=_positive_int_reference, default=None)
    graph_p.add_argument(
        "--format", choices=("structured", "dot", "text"), default="text"
    )

    encode_p = sub.add_parser(
        "encode", help="encode a categorical square or hexagon corpus on a segment"
    )
    _add_corpus_arg(encode_p)
    encode_p.add_argument("--clauses", choices=("square", "hexagon"), default=None)
    encode_p.add_argument("--q", type=int, default=1, help="smaller universal magnitude")
    encode_p.add_argument("--r", type=int, default=2, help="larger universal magnitude")
    encode_p.add_argument(
        "--map",
        dest="universal_map",
        choices=UNIVERSAL_MAPS,
        default=A_LOW,
        help="whether label A takes the smaller or larger magnitude",
    )
    encode_p.add_argument("--bound", type=_positive_int_reference, default=None)
    encode_p.add_argument(
        "--format", choices=("structured", "dot", "text"), default="text"
    )

    synth_p = sub.add_parser(
        "synthesize", help="search for segment encodings of a corpus graph"
    )
    _add_corpus_arg(synth_p)
    synth_p.add_argument("--clauses", choices=("square", "hexagon"), default=None)
    synth_p.add_argument(
        "--magnitude", type=_positive_int_reference, default=None, help="search bound on |value|"
    )
    synth_p.add_argument("--bound", type=_positive_int_reference, default=None)
    synth_p.add_argument("--format", choices=("structured", "text"), default="text")

    return parser


def _add_corpus_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--corpus",
        required=True,
        help="corpus file of 'label: sentence' lines, or '-' for stdin",
    )


def reference_args(argv):
    """argparse's destinations for argv, or None where it refuses argv."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return vars(build_arg_parser().parse_args(argv))
    except SystemExit as done:
        assert done.code == 2
        return None


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(invocations())
    def test_exit_code_is_documented(self, invocation):
        argv, corpus = invocation
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            if corpus is not None:
                path = Path(tmp) / "input.corpus"
                path.write_bytes(corpus)
                argv = [*argv, "--corpus", str(path)]
            expected = reference_args(argv)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2, 3, 4, 5, 74)  # 74 is a failed stdout write
        assert "Traceback" not in err.getvalue()
        assert "internal error" not in err.getvalue()
        if expected is None:
            assert (code, out.getvalue()) == (2, "")
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        else:
            assert vars(cli.parse_args(argv)) == expected


class TestArgumentTable:
    @pytest.mark.parametrize(
        "argv",
        [
            ("encode", "--q", "-2", "--corpus", "-"),
            ("classify", "--bound=3", "A[P]", "O[P]"),
            ("classify", "A[P]", "--bound", "3", "O[P]"),
            ("classify", "A[P]", "O[P]", "--bound", "1", "--bound", "2"),
            ("graph", "--format=dot", "--corpus=-", "--format", "text"),
            ("synthesize", "--corpus", "h.corpus", "--magnitude", "6", "--clauses=hexagon"),
            ("encode", "--corpus", "s.corpus", "--map", "a-high", "--r=-3"),
        ],
        ids=[
            "negative-value", "equals", "positional-after-flag", "last-wins", "mixed",
            "synthesize", "encode",
        ],
    )
    def test_accepts_as_argparse_did(self, argv):
        expected = reference_args(argv)
        assert expected is not None
        assert vars(cli.parse_args(argv)) == expected

    @pytest.mark.parametrize(
        "argv,line",
        [
            (("classify", "A[P]", "O[P]", "--bound", "0"), "argument --bound: must be at least 1, got 0"),
            (
                ("encode", "--corpus", "-", "--q", "x"),
                "argument --q: invalid literal for int() with base 10: 'x'",
            ),
            (
                ("synthesize", "--corpus", "-", "--format", "dot"),
                "argument --format: invalid choice 'dot', not structured|text",
            ),
            (
                ("graph", "--corpus", "-", "--format=svg"),
                "argument --format: invalid choice 'svg', not structured|dot|text",
            ),
            (("graph", "--format", "dot"), "argument --corpus is required"),
            (("encode", "--corpus", "-", "--q"), "argument --q: expected a value"),
            (("encode", "--q", "--corpus", "-"), "argument --q: expected a value"),
            (("classify", "A[P]"), "classify takes 2 positionals, got 1"),
            (("graph", "--corpus", "-", "A[P]"), "graph takes 0 positionals, got 1"),
            (("classify", "A[P]", "O[P]", "--corpus", "-"), "classify has no flag --corpus"),
            (("graph", "--corpus", "-", "--verbose", "1"), "graph has no flag --verbose"),
            (
                ("prove", "A[P]"),
                "unknown command 'prove'; choose from classify, graph, encode, synthesize",
            ),
            ((), "no command; choose from classify, graph, encode, synthesize"),
        ],
        ids=[
            "bound-zero", "not-an-int", "choice-of-another-command", "choice-after-equals",
            "corpus-missing", "value-missing", "value-is-a-flag", "too-few-positionals",
            "extra-positional", "another-commands-flag", "unknown-flag", "unknown-command",
            "no-command",
        ],
    )
    def test_refusal_is_one_error_line_and_exit_2(self, capsys, argv, line):
        assert reference_args(argv) is None
        assert run(capsys, *argv) == (2, "", f"error: {line}\n")

    @pytest.mark.parametrize("command", ["encode", "synthesize"])
    def test_clause_choices_are_the_clause_systems(self, command):
        # the table holds its own copy, so that parsing never imports segment
        from oppositions.segment import ClauseSystem

        flags = {flag[0]: flag for flag in cli.COMMANDS[command][2]}
        assert flags["--clauses"][2] == tuple(c.value for c in ClauseSystem)

    def test_abbreviated_flags_are_refused(self, capsys):
        argv = ("synthesize", "--corpus", "-", "--mag", "6")
        assert reference_args(argv)["magnitude"] == 6
        assert run(capsys, *argv) == (2, "", "error: synthesize has no flag --mag\n")


class TestHelp:
    @pytest.mark.parametrize(
        "argv",
        [("-h",), ("--help",), *((name, "-h") for name in cli.COMMANDS), ("graph", "--corpus", "-h")],
    )
    def test_help_exits_zero_and_names_every_flag(self, tmp_path, argv):
        done = run_child(tmp_path, None, argv)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("usage:\n")
        for name in [argv[0]] if argv[0] in cli.COMMANDS else cli.COMMANDS:
            assert f"oppositions {name} " in done.stdout
            for flag, *_ in cli.COMMANDS[name][2]:
                assert f"{flag} " in done.stdout


class TestOutputEncoding:
    def test_a_label_stdout_cannot_carry_is_named_on_one_line(self, tmp_path):
        env = child_env(PYTHONIOENCODING="ascii")
        done = run_child(tmp_path, "\u00c4: A[P]\nb: O[P]", ("graph",), env=env)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: stdout's encoding ascii cannot write '\\xc4'\n"


GOLDEN = Path(__file__).parent / "golden"

# file name in tests/golden -> (corpus or None, argv, exit code)
README_COMMANDS = {
    "classify-contradictory": (None, ("classify", "A[P]", "O[P]"), 0),
    "classify-subaltern": (None, ("classify", "A[P]", "I[P]"), 0),
    "graph-square-text": (SQUARE_CORPUS, ("graph", "--format", "text"), 0),
    "graph-square-structured": (SQUARE_CORPUS, ("graph", "--format", "structured"), 0),
    "graph-square-dot": (SQUARE_CORPUS, ("graph", "--format", "dot"), 0),
    "encode-hexagon": (HEXAGON_CORPUS, ("encode", "--q", "1", "--r", "2"), 0),
    "synthesize-hexagon-square": (
        HEXAGON_CORPUS,
        ("synthesize", "--clauses", "square", "--magnitude", "6"),
        1,
    ),
    "synthesize-hexagon-hexagon": (
        HEXAGON_CORPUS,
        ("synthesize", "--clauses", "hexagon", "--magnitude", "6"),
        0,
    ),
}


# Recorded from the search that enumerated the distinct objects and filtered
# on their sums, at a magnitude where most of its candidates are no longer
# built, and with the labels out of role order.
SHUFFLED_HEXAGON = "\n".join(f"{form}: {form}[P]" for form in "YAOUIE")
# Labels that json.dumps escapes: a quote, a backslash, a non-ASCII letter
# and an astral character, written as a surrogate pair.
ESCAPED_LABELS = "\n".join(
    f"{label}: {form}[P]" for label, form in zip(('a"b', "c\\", "é", "\U0001f600"), "AEIO")
)
GOLDEN_COMMANDS = README_COMMANDS | {
    "synthesize-shuffled-hexagon-16": (
        SHUFFLED_HEXAGON,
        ("synthesize", "--clauses", "hexagon", "--magnitude", "16"),
        0,
    ),
    # one row for each structured document kind, recorded from json.dumps
    "encode-square-structured": (SQUARE_CORPUS, ("encode", "--format", "structured"), 0),
    "encode-hexagon-square-structured": (
        HEXAGON_CORPUS,
        ("encode", "--format", "structured", "--clauses", "square"),
        5,
    ),
    "synthesize-hexagon-hexagon-structured": (
        HEXAGON_CORPUS,
        ("synthesize", "--format", "structured", "--clauses", "hexagon", "--magnitude", "6"),
        0,
    ),
    "graph-escaped-labels-structured": (ESCAPED_LABELS, ("graph", "--format", "structured"), 0),
}


class TestGoldenStdout:
    """The README's commands, and the rows added to them, print exactly the
    bytes recorded in tests/golden."""

    @pytest.mark.parametrize("name", list(GOLDEN_COMMANDS))
    def test_byte_identical(self, capsys, tmp_path, name):
        corpus, argv, exit_code = GOLDEN_COMMANDS[name]
        code, out, err = run(capsys, *with_corpus(tmp_path, corpus, argv))
        assert (code, err) == (exit_code, "")
        assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys, hexagon_file):
        args = ("graph", "--corpus", hexagon_file, "--format", "structured")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_stderr_carries_no_payload_on_success(self, capsys, hexagon_file):
        _, _, err = run(capsys, "encode", "--corpus", hexagon_file)
        assert err == ""


# Each row runs in a child through ``python -m oppositions``, that is through
# cli.run, and in-process through cli.main: the exit code and both streams
# must agree.  The rows past the golden ones are exits 2-5 and -h.
ENTRY_COMMANDS = GOLDEN_COMMANDS | {
    "classify-parse-error": (None, ("classify", "A[P", "O[P]"), 2),
    "classify-vocabulary-mismatch": (None, ("classify", "A[P]", "O[Q]"), 3),
    "encode-shape-error": (SQUARE_CORPUS, ("encode", "--clauses", "hexagon"), 4),
    "encode-mismatch": (HEXAGON_CORPUS, ("encode", "--clauses", "square"), 5),
    "help": (None, ("graph", "-h"), 0),
}

# Registers an exit handler that writes to stderr, so the handler's line
# shows whether teardown ran after the rest of the probe.
AT_EXIT = """\
import atexit, os, runpy, sys
atexit.register(os.write, 2, b"teardown\\n")
"""

# A main that leaves bytes in stdout and refuses; the test closes the read
# end of stdout's pipe before the child starts, so run's flush hits EPIPE.
GONE_READER = """\
import sys
from oppositions import cli

def main():
    print("payload")  # buffered, as stdout is a pipe
    print("error: refused", file=sys.stderr)
    return 2

cli.main = main
cli.run()
"""


def buffered_env(**extra):
    """child_env with stdout block-buffered, as it is by default, so that
    bytes wait in it for run's flush even where PYTHONUNBUFFERED is set."""
    return child_env(PYTHONUNBUFFERED="", **extra)


class TestEntryFunction:
    """``python -m oppositions``, ``python -m oppositions.cli`` and the
    ``oppositions`` script end through cli.run with os._exit, after flushing."""

    @pytest.mark.parametrize("name", list(ENTRY_COMMANDS))
    def test_child_matches_in_process_main(self, capsys, tmp_path, name):
        corpus, argv, exit_code = ENTRY_COMMANDS[name]
        argv = with_corpus(tmp_path, corpus, argv)
        child = subprocess.run(
            [*CHILD, *argv], capture_output=True, env=buffered_env(PYTHONIOENCODING="utf-8"),
            timeout=60,
        )
        code, out, err = run(capsys, *argv)
        assert code == exit_code
        assert (child.returncode, child.stdout, child.stderr) == (
            code, out.encode("utf-8"), err.encode("utf-8")
        )
        if 2 <= code <= 4:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == ""
        if code == 1:
            assert out == "found 0\n"

    def test_a_payload_larger_than_the_buffers_reaches_a_file_whole(self, capsys, tmp_path):
        corpus = "\n".join(f"L{i}: A[P]" for i in range(80))
        argv = with_corpus(tmp_path, corpus, ("graph", "--format", "structured"))
        target = tmp_path / "graph.json"
        with open(target, "wb") as handle:
            child = subprocess.run([*CHILD, *argv], stdout=handle, env=buffered_env(), timeout=60)
        _, out, _ = run(capsys, *argv)
        assert child.returncode == 0
        assert len(out) > 2**16  # above a pipe buffer and io.DEFAULT_BUFFER_SIZE
        assert target.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize("module", ["oppositions", "oppositions.cli"])
    def test_each_module_way_in_skips_teardown(self, module):
        probe = AT_EXIT + 'runpy.run_module(sys.argv.pop(1), run_name="__main__", alter_sys=True)'
        done = subprocess.run(
            [sys.executable, "-c", probe, module, "classify", "A[P]", "O[P]"],
            capture_output=True, text=True, env=buffered_env(), timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "contradictory\n", "")

    def test_the_cli_module_way_in_runs_a_corpus_command_on_one_cli(self, capsys, tmp_path):
        # cli runs as __main__ and registers itself, so corpus_commands
        # imports that copy: no second cli is loaded and compiled
        argv = with_corpus(tmp_path, SQUARE_CORPUS, ("graph", "--format", "text"))
        probe = AT_EXIT + 'runpy.run_module(sys.argv.pop(1), run_name="__main__", alter_sys=True)'
        done = subprocess.run(
            [sys.executable, "-v", "-c", probe, "oppositions.cli", *argv],
            capture_output=True, text=True, env=buffered_env(), timeout=60,
        )
        _, out, _ = run(capsys, *argv)
        lines = done.stderr.splitlines()
        imported = [line.split("'")[1] for line in lines if line.startswith("import '")]
        assert (done.returncode, done.stdout) == (0, out)
        assert "teardown" not in lines
        assert imported.count("oppositions.corpus_commands") == 1
        assert "oppositions.cli" not in imported

    def test_main_returns_and_leaves_teardown_to_the_caller(self):
        probe = AT_EXIT + "from oppositions.cli import main\nprint(main(sys.argv[1:]))"
        done = subprocess.run(
            [sys.executable, "-c", probe, "classify", "A[P]", "O[Q]"],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert (done.returncode, done.stdout) == (0, "3\n")
        assert done.stderr.splitlines()[-1] == "teardown"

    def test_the_script_target_is_run(self):
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        scripts = pyproject.read_text(encoding="utf-8").split("[project.scripts]\n")[1]
        target = scripts.splitlines()[0]
        assert target == 'oppositions = "oppositions.cli:run"'

    def test_a_final_flush_to_a_gone_reader_exits_141_quietly(self):
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-c", GONE_READER], stdout=write, stderr=subprocess.PIPE,
                env=buffered_env(), timeout=60,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (141, b"error: refused\n")


# One invocation for each of exits 0-5, and one whose answer carries a note.
FAILED_WRITE_COMMANDS = {
    name: ENTRY_COMMANDS[name]
    for name in (
        "classify-contradictory", "synthesize-hexagon-square", "classify-parse-error",
        "classify-vocabulary-mismatch", "encode-shape-error", "encode-mismatch",
    )
} | {"classify-note": (None, ("classify", "I[P]", "O[P]", "--bound", "1"), 0)}
SINKS = [
    pytest.param(
        "/dev/full",
        marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
    ),
    "gone-reader",
]


def failing_sink(sink):
    """A descriptor every write to which fails: /dev/full (ENOSPC), or the
    write end of a pipe whose read end is already closed (EPIPE)."""
    if sink == "/dev/full":
        return os.open(sink, os.O_WRONLY)
    read, write = os.pipe()
    os.close(read)
    return write


def run_into_sink(argv, stream, sink, unbuffered):
    """Run the CLI in a child with ``stream`` sent to a failing sink and the
    other stream captured; returns the exit code and the captured bytes."""
    write = failing_sink(sink)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: write}
    try:
        done = subprocess.run(
            [*CHILD, *argv], env=child_env(PYTHONUNBUFFERED=unbuffered, PYTHONIOENCODING="utf-8"),
            timeout=60, **streams,
        )
    finally:
        os.close(write)
    return done.returncode, done.stderr if stream == "stdout" else done.stdout


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("sink", SINKS)
@pytest.mark.parametrize("name", list(FAILED_WRITE_COMMANDS))
class TestFailedWrites:
    """A stream that takes no write ends each invocation in a documented
    code, compared with the same invocation run in-process."""

    def test_stdout(self, capsys, tmp_path, name, sink, unbuffered):
        corpus, argv, exit_code = FAILED_WRITE_COMMANDS[name]
        argv = with_corpus(tmp_path, corpus, argv)
        code, out, err = run(capsys, *argv)
        assert code == exit_code
        code_in_sink, stderr = run_into_sink(argv, "stdout", sink, unbuffered)
        stderr = stderr.decode("utf-8")
        if not out:  # a refusal writes nothing to stdout, so no write fails
            assert (code_in_sink, stderr) == (code, err)
        elif sink == "/dev/full":
            assert code_in_sink == 74
            assert stderr.startswith(err + "error: cannot write stdout: ")
            assert stderr.count("\n") == err.count("\n") + 1
        else:
            assert (code_in_sink, stderr) == (141, err)

    def test_stderr_changes_neither_code_nor_stdout(self, capsys, tmp_path, name, sink, unbuffered):
        corpus, argv, exit_code = FAILED_WRITE_COMMANDS[name]
        argv = with_corpus(tmp_path, corpus, argv)
        code, out, _ = run(capsys, *argv)
        assert code == exit_code
        assert run_into_sink(argv, "stderr", sink, unbuffered) == (code, out.encode("utf-8"))


def run_with_closed(argv, fd):
    """Run the CLI in a child whose descriptor ``fd`` (0, 1 or 2) is closed
    before it starts, as by ``<&-``, ``>&-`` or ``2>&-``, so that Python
    sets that stream to None; the open streams are captured."""
    return subprocess.run(
        ["/bin/sh", "-c", f'exec "$@" {fd}>&-', "sh", *CHILD, *argv],
        capture_output=True, env=child_env(PYTHONIOENCODING="utf-8"), timeout=60,
    )


@pytest.mark.parametrize("name", list(FAILED_WRITE_COMMANDS))
class TestClosedStreams:
    """A stream closed before start ends each invocation as a failed write
    to it would, compared with the same invocation run in-process."""

    def test_stdout(self, capsys, tmp_path, name):
        corpus, argv, exit_code = FAILED_WRITE_COMMANDS[name]
        argv = with_corpus(tmp_path, corpus, argv)
        code, out, err = run(capsys, *argv)
        assert code == exit_code
        done = run_with_closed(argv, 1)
        stderr = done.stderr.decode("utf-8")
        if not out:  # a refusal writes nothing to stdout, so it keeps its code
            assert (done.returncode, stderr) == (code, err)
        else:
            assert done.returncode == 74
            assert stderr.startswith(err + "error: cannot write stdout: ")
            assert stderr.count("\n") == err.count("\n") + 1

    def test_stderr_changes_neither_code_nor_stdout(self, capsys, tmp_path, name):
        corpus, argv, exit_code = FAILED_WRITE_COMMANDS[name]
        argv = with_corpus(tmp_path, corpus, argv)
        code, out, _ = run(capsys, *argv)
        assert code == exit_code
        done = run_with_closed(argv, 2)
        assert (done.returncode, done.stdout) == (code, out.encode("utf-8"))


def test_a_closed_stdin_is_a_corpus_that_cannot_be_read():
    done = run_with_closed(("graph", "--corpus", "-"), 0)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.decode("utf-8") == "error: cannot read corpus: stdin is closed\n"
