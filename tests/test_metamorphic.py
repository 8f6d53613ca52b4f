"""Metamorphic tests: changes to the input that must leave the graph the
same up to relabelling."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oppositions import (
    A_HIGH,
    A_LOW,
    Atom,
    ClauseSystem,
    Not,
    OppositionGraph,
    Quantified,
    SegmentAssignment,
    build_graph,
    decode_graph,
    extend_hexagon,
    make_square_assignment,
    parse_corpus,
    print_sentence,
    subaltern,
)
from oppositions.cli import main
from conftest import HEXAGON_CORPUS, SQUARE_CORPUS, sentence_strategy

NAMES = ("P", "Q", "R")
SYSTEMS = tuple(ClauseSystem)
BOUNDS = st.one_of(st.none(), st.integers(min_value=1, max_value=4))
corpora = st.lists(sentence_strategy(NAMES), min_size=2, max_size=5)


def corpus_text(sentences, labels=None):
    labels = labels or [f"s{i}" for i in range(len(sentences))]
    return "\n".join(f"{label}: {print_sentence(s)}" for label, s in zip(labels, sentences))


def rename(s, names):
    """The sentence with each predicate renamed through ``names``."""
    if isinstance(s, Atom):
        return Atom(names[s.predicate])
    if isinstance(s, Quantified):
        return Quantified(s.quantifier, rename(s.matrix, names))
    if isinstance(s, Not):
        return Not(rename(s.body, names))
    return type(s)(rename(s.left, names), rename(s.right, names))


def relabel(graph, labels):
    """The graph with each node renamed through ``labels``."""
    edges = {}
    for a, b, relation in graph.pairs():
        if relation.source is not None:
            relation = subaltern(labels[relation.source], labels[relation.target])
        edges[frozenset((labels[a], labels[b]))] = relation
    return OppositionGraph(tuple(labels[n] for n in graph.nodes), edges)


class TestOracle:
    @settings(max_examples=40, deadline=None)
    @given(corpora, st.permutations(("P", "Q", "R", "Bird", "Metal")), BOUNDS)
    def test_renaming_predicates(self, sentences, targets, bound):
        names = dict(zip(NAMES, targets))
        renamed = [rename(s, names) for s in sentences]
        assert build_graph(parse_corpus(corpus_text(renamed)), bound) == build_graph(
            parse_corpus(corpus_text(sentences)), bound
        )

    @settings(max_examples=40, deadline=None)
    @given(corpora.flatmap(lambda s: st.tuples(st.just(s), st.permutations(range(len(s))))), BOUNDS)
    def test_permuting_corpus_lines(self, drawn, bound):
        sentences, order = drawn
        labels = [f"s{i}" for i in range(len(sentences))]
        shuffled = corpus_text([sentences[i] for i in order], [labels[i] for i in order])
        assert build_graph(parse_corpus(shuffled), bound) == build_graph(
            parse_corpus(corpus_text(sentences, labels)), bound
        )


def assignments():
    """Square and hexagon assignments, with the clause systems that decode them."""
    square = st.builds(
        lambda q, d, m: make_square_assignment(q, q + d, m),
        st.integers(1, 20),
        st.integers(1, 20),
        st.sampled_from((A_LOW, A_HIGH)),
    )
    return st.one_of(
        st.tuples(square, st.just(ClauseSystem.SQUARE)),
        st.tuples(square.map(extend_hexagon), st.sampled_from(SYSTEMS)),
    )


# the label swap that turns the a-low square into the a-high one
SWAP = {"A": "E", "E": "A", "I": "O", "O": "I", "U": "U", "Y": "Y"}


class TestSegment:
    @settings(max_examples=60, deadline=None)
    @given(assignments(), st.integers(2, 9))
    def test_scaling_by_a_positive_factor(self, drawn, factor):
        e, clauses = drawn
        scaled = SegmentAssignment(e.labels, {k: factor * v for k, v in e.values.items()}, e.roles)
        assert decode_graph(scaled, clauses) == decode_graph(e, clauses)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 20), st.booleans(), st.sampled_from(SYSTEMS))
    def test_swapping_the_universal_map(self, q, d, hexagon, clauses):
        low, high = (make_square_assignment(q, q + d, m) for m in (A_LOW, A_HIGH))
        assume(hexagon or clauses is ClauseSystem.SQUARE)
        if hexagon:
            low, high = extend_hexagon(low), extend_hexagon(high)
        # a-high puts each label's value on its swap partner under a-low
        assert {SWAP[k]: v for k, v in low.values.items()} == dict(high.values)
        assert decode_graph(high, clauses) == relabel(decode_graph(low, clauses), SWAP)

    @pytest.mark.parametrize("corpus", [SQUARE_CORPUS, HEXAGON_CORPUS], ids=["square", "hexagon"])
    def test_swapping_the_universal_map_in_the_cli(self, capsys, tmp_path, corpus):
        path = tmp_path / "input.corpus"
        path.write_text(corpus + "\n", encoding="utf-8")
        outputs = []
        for universal_map in (A_LOW, A_HIGH):
            argv = ["encode", "--corpus", str(path), "--format", "dot", "--map", universal_map]
            outputs.append((main(argv), capsys.readouterr().out))
        # the square and the hexagon are symmetric under the swap, so the
        # decoded graphs print the same
        assert outputs[0] == outputs[1] and outputs[0][0] == 0
