"""Tests of the benchmark's own parts: reference, generator, spans, verdicts."""

import random

import pytest

import reference as ref
import run
import verdict
import workloads
from spans import Span, Tracer, covered, self_time

SQUARE = "".join(f"{f}: {f}[P]\n" for f in "AEIO")
HEXAGON = "".join(f"{f}: {f}[P]\n" for f in "AEIOUY")


# --- reference ------------------------------------------------------------------


def test_reference_reproduces_the_papers_square():
    assert ref.corpus_graph(SQUARE) == ref.PAPER_SQUARE


def test_reference_reproduces_the_papers_hexagon():
    assert ref.corpus_graph(HEXAGON) == ref.PAPER_HEXAGON


@pytest.mark.parametrize("seed", range(8))
def test_every_representation_gives_the_papers_graphs(seed):
    rng = random.Random(seed)
    assert ref.corpus_graph(workloads.categorical_corpus(rng, "AEIO")) == ref.PAPER_SQUARE
    assert ref.corpus_graph(workloads.categorical_corpus(rng, "AEIOUY")) == ref.PAPER_HEXAGON


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ("A[P]", "O[P]", "contradictory"),
        ("A[P]", "I[P]", "subaltern(a->b)"),
        ("I[P]", "A[P]", "subaltern(b->a)"),
        ("A[P]", "E[P]", "contrary"),
        ("I[P]", "O[P]", "subcontrary"),
        ("A[P]", "forall x. P(x)", "equivalent"),
        ("~exists x. ~P(x)", "A[P]", "equivalent"),
        ("exists x. P(x) & Q(x)", "exists x. P(x) & ~Q(x)", "unconnected"),
        ("forall x. P(x) & ~P(x)", "exists x. Q(x) | ~Q(x)", "contradictory"),
    ],
)
def test_reference_classifies_known_pairs(a, b, expected):
    assert ref.classify_texts(a, b) == expected


def test_reference_applies_the_readme_precedence():
    atom_p = ("forall", ("atom", "P"))
    assert ref.parse_sentence("~A[P] & I[Q] | E[P] -> O[Q]") == (
        "implies",
        ("or", ("and", ("not", atom_p), ("exists", ("atom", "Q"))), ("forall", ("not", ("atom", "P")))),
        ("exists", ("not", ("atom", "Q"))),
    )
    # a quantifier body extends as far as possible
    assert ref.parse_sentence("forall x. P(x) | Q(x) & ~P(x)") == (
        "forall",
        ("or", ("atom", "P"), ("and", ("atom", "Q"), ("not", ("atom", "P")))),
    )
    assert ref.parse_sentence("A[P] -> E[P] -> I[P]")[0:2] == (
        "implies",
        ("implies", atom_p, ("forall", ("not", ("atom", "P")))),
    )


def test_cell_sets_are_exhaustive():
    order = ("P", "Q", "R")
    everything = ref.truth_vector(ref.parse_sentence("exists x. P(x) | ~P(x)"), order)
    assert bin(everything).count("1") == 255
    assert bin(ref.truth_vector(ref.parse_sentence("A[P]"), ("P", "Q"))).count("1") == 3


def test_hexagon_solution_count_closed_form():
    assert [ref.hexagon_solution_count(m) for m in (6, 8, 10, 12)] == [12, 24, 40, 60]
    for m in (1, 2, 3, 6, 9, 16):
        assert len(ref.hexagon_solutions(m)) == ref.hexagon_solution_count(m)


def test_hexagon_solutions_decode_by_sums():
    for row in ref.hexagon_solutions(8):
        v = dict(row)
        assert v["U"] == v["A"] + v["E"] == -v["Y"]
        assert v["A"] + v["O"] == v["E"] + v["I"] == 0


# --- generator -------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(name, tmp_path):
    first = workloads.build(name, 7, tmp_path)
    second = workloads.build(name, 7, tmp_path)
    assert first.invocations == second.invocations
    assert first.files == second.files
    assert first.k3_pair == second.k3_pair
    other = workloads.build(name, 8, tmp_path)
    assert (other.files, other.invocations) != (first.files, first.invocations)


@pytest.mark.parametrize("seed", range(5))
def test_bounded_pairs_stay_within_their_bound(seed, tmp_path):
    wl = workloads.build("classify-k3", seed, tmp_path)
    for inv in wl.invocations:
        a, b = (ref.parse_sentence(t) for t in inv.argv[1:3])
        assert ref.quantifier_count(a) + ref.quantifier_count(b) <= workloads.CLASSIFY_BOUND
        assert ref.predicates(a) == ref.predicates(b) and len(ref.predicates(a)) == 3
    wide = workloads.build("graph-wide", seed, tmp_path)
    for text in wide.files.values():
        entries = ref.parse_corpus(text)
        assert len(entries) == 12
        assert all(ref.quantifier_count(t) <= 2 for _, t in entries)


def test_generated_relations_are_mixed(tmp_path):
    for name in ("graph-wide", "classify-k3"):
        mix = workloads.build(name, 3, tmp_path).relation_mix()
        assert all(mix[kind] > 0 for kind in ref.RELATION_KINDS), (name, mix)


def test_printer_round_trips_through_the_reference_parser():
    rng = random.Random(0)
    for _ in range(200):
        tree = workloads._quantified(rng, ("P", "Q", "R"), rng.randint(3, 6))
        compound = (rng.choice(("and", "or", "implies")), ("not", tree), tree)
        assert ref.parse_sentence(workloads.show(compound)) == compound


# --- spans -----------------------------------------------------------------------


def test_covered_unions_and_clips_intervals():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (5, 6)], 0, 10) == 3
    assert covered([(1, 4), (2, 6), (3, 5)], 0, 10) == 5
    assert covered([(-5, 2), (8, 20)], 0, 10) == 4
    assert covered([(2, 8), (3, 4)], 0, 10) == 6


def _span(i, parent, start, end, run="r"):
    return Span(i, f"s{i}", run, parent, start, end)


def test_self_time_subtracts_only_direct_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),  # grandchild: inside its parent, not counted again
        _span(3, 0, 3.0, 6.0),  # overlaps span 1
        _span(4, 0, 9.0, 12.0),  # runs past the root's end
        _span(5, 0, 0.0, 10.0, run="other"),  # another run's span with the same ids
    ]
    assert self_time(spans[0], spans) == pytest.approx(10 - 5 - 1)
    assert self_time(spans[1], spans) == pytest.approx(2)
    assert self_time(spans[2], spans) == pytest.approx(1)


def test_tracer_nests_spans_and_disabled_tracer_records_nothing():
    tracer = Tracer()
    tracer.run = "r1"
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent == outer.id and outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert 0 <= self_time(outer, tracer.spans) <= outer.duration
    off = Tracer(enabled=False)
    with off.span("x") as span:
        assert span is None
    assert off.spans == []


def test_tail_keeps_ten_samples_above_it():
    values = [float(v) for v in range(100)]
    assert run.tail(values) == (89.0, 90.0)
    assert run.tail(values[:20]) == (9.0, 50.0)


# --- verdicts -------------------------------------------------------------------


def test_verdict_reads_the_documented_formats():
    dot = (
        "digraph oppositions {\n"
        '  "A" -> "E" [label="c", style=solid, dir=none];\n'
        '  "I" -> "A" [label="s"];\n'
        "}"
    )
    assert verdict.dot_graph(dot) == {frozenset("AE"): "contrary", frozenset("AI"): "subaltern(I->A)"}
    structured = (
        '{"kind": "opposition_graph", "pairs": [{"a": "A", "b": "I", '
        '"relation": "subaltern", "from": "A", "to": "I"}]}'
    )
    assert verdict.structured_graph(structured) == {frozenset("AI"): "subaltern(A->I)"}
    encode = "assignment:\n  A = 1 (universal)\n  O = -1 (existential)\n\n+\nA\n\nverification: matches\n"
    assert verdict.encode_values(encode) == {"A": 1, "O": -1}
    assert verdict.encode_values(encode.replace("matches", "2 mismatches")) is None
    assert verdict.synthesis_rows("A=1 O=-1\nA=2 O=-2\nfound 2\n") == {
        frozenset({("A", 1), ("O", -1)}),
        frozenset({("A", 2), ("O", -2)}),
    }
    assert verdict.synthesis_rows("A=1 O=-1\nfound 2\n") is None
    assert verdict.synthesis_rows("found 0\n") == set()
    assert not verdict.output_matches(("graph", "--format", "structured"), "not json", {})
