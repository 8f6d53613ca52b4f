import json
import re

import pytest

from oppositions import (
    CONTRADICTORY,
    CONTRARY,
    ClauseSystem,
    OppositionGraph,
    Relation,
    RelationKind,
    Role,
    SegmentAssignment,
    UNCONNECTED,
    build_graph,
    decode_graph,
    extend_hexagon,
    from_structured,
    graph_equal,
    make_square_assignment,
    parse_corpus,
    render_segment,
    subaltern,
    to_dot,
    to_structured,
    verify_against,
)
from oppositions.graph import MAX_SEGMENT_COLUMNS

_EDGE_RE = re.compile(r'^\s*"[^"]+" -> "[^"]+" \[label="[a-z]+"(, [a-z]+=[a-z]+)*\];$')
_NODE_RE = re.compile(r'^\s*"[^"]+";$')


def check_dot_syntax(text):
    """Minimal DOT grammar check for the emitted subset."""
    lines = text.split("\n")
    assert lines[0] == "digraph oppositions {"
    assert lines[-1] == "}"
    for line in lines[1:-1]:
        assert _NODE_RE.match(line) or _EDGE_RE.match(line), line


def square_graph():
    return decode_graph(make_square_assignment(1, 2), ClauseSystem.SQUARE)


def two_node_graph():
    e = SegmentAssignment(
        ("X", "W"), {"X": 1, "W": -1}, {"X": Role.UNIVERSAL, "W": Role.EXISTENTIAL}
    )
    return decode_graph(e, ClauseSystem.SQUARE)


class TestGraphValidation:
    def test_every_pair_required(self):
        with pytest.raises(ValueError, match="every unordered pair"):
            OppositionGraph(("A", "B", "C"), {frozenset(("A", "B")): CONTRADICTORY})

    def test_no_extra_pairs(self):
        edges = {
            frozenset(("A", "B")): CONTRADICTORY,
            frozenset(("A", "C")): CONTRARY,
        }
        with pytest.raises(ValueError):
            OppositionGraph(("A", "B"), edges)

    def test_subaltern_direction_must_stay_in_pair(self):
        with pytest.raises(ValueError, match="direction"):
            OppositionGraph(("A", "B"), {frozenset(("A", "B")): subaltern("A", "C")})

    def test_duplicate_nodes(self):
        with pytest.raises(ValueError, match="unique"):
            OppositionGraph(("A", "A"), {})

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            OppositionGraph(("A",), {})

    def test_relation_validation(self):
        with pytest.raises(ValueError):
            Relation(RelationKind.SUBALTERN)
        with pytest.raises(ValueError):
            Relation(RelationKind.CONTRARY, source="A", target="B")


class TestGraphEqual:
    def test_reflexive(self):
        g = square_graph()
        assert graph_equal(g, g)

    def test_direction_matters(self):
        g = square_graph()
        edges = dict(g.edges)
        edges[frozenset(("A", "I"))] = subaltern("I", "A")
        assert not graph_equal(g, OppositionGraph(g.nodes, edges))

    def test_node_order_does_not_matter(self):
        g = square_graph()
        reordered = OppositionGraph(tuple(reversed(g.nodes)), dict(g.edges))
        assert graph_equal(g, reordered)

    def test_different_nodes(self):
        assert not graph_equal(square_graph(), two_node_graph())


class TestToDot:
    def test_square_counts(self):
        text = to_dot(square_graph())
        assert text.count('";') == 4
        assert text.count("->") == 6
        check_dot_syntax(text)

    def test_hexagon_counts(self):
        g = decode_graph(
            extend_hexagon(make_square_assignment(1, 2)), ClauseSystem.HEXAGON
        )
        text = to_dot(g)
        assert text.count('";') == 6
        assert text.count("->") == 15
        check_dot_syntax(text)

    def test_two_node_contradiction(self):
        text = to_dot(two_node_graph())
        assert text.count("->") == 1
        assert 'label="d"' in text
        check_dot_syntax(text)

    def test_subaltern_is_the_only_arrowed_edge(self):
        for line in to_dot(square_graph()).split("\n"):
            if "->" in line:
                assert ('label="s"' in line) == ("dir=none" not in line)

    def test_edge_styles(self):
        text = to_dot(square_graph())
        assert '"A" -> "O" [label="d", style=dashed, dir=none];' in text
        assert '"A" -> "E" [label="c", style=solid, dir=none];' in text
        assert '"I" -> "O" [label="sc", style=dotted, dir=none];' in text
        assert '"A" -> "I" [label="s"];' in text


    def test_quote_in_label_is_escaped(self):
        g = build_graph(parse_corpus('a"b: A[P]\nc: O[P]'))
        assert to_dot(g).split("\n") == [
            "digraph oppositions {",
            '  "a\\"b";',
            '  "c";',
            '  "a\\"b" -> "c" [label="d", style=dashed, dir=none];',
            "}",
        ]

    def test_label_ending_in_a_backslash_is_refused(self):
        # the label a\ would be written "a\", whose closing quote DOT reads as escaped
        g = build_graph(parse_corpus("a\\: A[P]\nc: O[P]"))
        with pytest.raises(ValueError, match="ends in a backslash"):
            to_dot(g)


class TestStructured:
    def test_graph_document_schema(self):
        document = json.loads(to_structured(square_graph()))
        assert document["schema_version"] == 1
        assert document["kind"] == "opposition_graph"
        assert document["nodes"] == ["A", "E", "I", "O"]
        assert len(document["pairs"]) == 6
        subalterns = [p for p in document["pairs"] if p["relation"] == "subaltern"]
        assert {"a": "A", "b": "I", "relation": "subaltern", "from": "A", "to": "I"} in subalterns

    def test_byte_stable(self):
        g = square_graph()
        assert to_structured(g) == to_structured(square_graph())

    def test_unconnected_pairs_serialized(self):
        edges = {frozenset(("A", "B")): UNCONNECTED}
        document = json.loads(to_structured(OppositionGraph(("A", "B"), edges)))
        assert document["pairs"][0]["relation"] == "unconnected"

    def test_injective_on_graphs(self):
        g = square_graph()
        edges = dict(g.edges)
        edges[frozenset(("A", "I"))] = subaltern("I", "A")
        assert to_structured(g) != to_structured(OppositionGraph(g.nodes, edges))

    def test_round_trip(self):
        g = decode_graph(
            extend_hexagon(make_square_assignment(1, 2)), ClauseSystem.HEXAGON
        )
        assert graph_equal(from_structured(to_structured(g)), g)

    def test_assignment_document(self):
        document = json.loads(to_structured(make_square_assignment(1, 2)))
        assert document["kind"] == "segment_assignment"
        assert document["labels"] == [
            {"label": "A", "value": 1, "role": "universal"},
            {"label": "E", "value": 2, "role": "universal"},
            {"label": "I", "value": -2, "role": "existential"},
            {"label": "O", "value": -1, "role": "existential"},
        ]

    def test_verification_document(self, worked_hexagon, oracle_hexagon):
        report = verify_against(worked_hexagon, ClauseSystem.SQUARE, oracle_hexagon)
        document = json.loads(to_structured(report))
        assert document["kind"] == "verification_report"
        assert document["matches"] is False
        entry = next(
            m for m in document["mismatches"] if (m["a"], m["b"]) == ("A", "U")
        )
        assert entry["decoded"] == {"relation": "contrary"}
        assert entry["semantic"] == {"relation": "subaltern", "from": "A", "to": "U"}

    def test_reader_rejects_other_kinds(self):
        with pytest.raises(ValueError, match="not an opposition graph"):
            from_structured(to_structured(make_square_assignment(1, 2)))

    def test_reader_rejects_unknown_schema_version(self):
        document = json.loads(to_structured(square_graph()))
        document["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            from_structured(json.dumps(document))

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            to_structured(42)


class TestRenderSegment:
    def test_worked_square(self):
        text = render_segment(make_square_assignment(1, 2))
        ticks, labels = text.split("\n")
        assert ticks == "+---+---0---+---+"
        assert labels == "I   O       A   E"

    def test_hexagon_span(self):
        text = render_segment(extend_hexagon(make_square_assignment(1, 2)))
        ticks, labels = text.split("\n")
        assert ticks.count("+") == 6
        assert ticks.count("0") == 1
        assert labels.split() == ["Y", "I", "O", "A", "E", "U"]

    def test_two_label_pair(self):
        e = SegmentAssignment(
            ("X", "W"), {"X": 1, "W": -1}, {"X": Role.UNIVERSAL, "W": Role.EXISTENTIAL}
        )
        ticks, labels = render_segment(e).split("\n")
        assert ticks == "+---0---+"
        assert labels == "W       X"

    def test_columns_proportional_to_values(self):
        e = extend_hexagon(make_square_assignment(1, 2))
        ticks, labels = render_segment(e).split("\n")
        unit = 4
        lo = min(e.values.values())
        for label in e.labels:
            assert labels.index(label) == (e.values[label] - lo) * unit

    def test_width_cap(self):
        # four columns per unit: a span of 2r gives 8r + 1 columns
        widest = (MAX_SEGMENT_COLUMNS - 1) // 8
        ticks, _ = render_segment(make_square_assignment(1, widest)).split("\n")
        assert len(ticks) == 8 * widest + 1 <= MAX_SEGMENT_COLUMNS
        with pytest.raises(ValueError, match="columns wide"):
            render_segment(make_square_assignment(1, widest + 1))

    def test_mirror_symmetry(self):
        ticks, _ = render_segment(make_square_assignment(2, 3)).split("\n")
        assert ticks == ticks[::-1]
