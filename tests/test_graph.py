import json
import re
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


def hexagon_graph():
    return decode_graph(extend_hexagon(make_square_assignment(1, 2)), ClauseSystem.HEXAGON)


# labels from every Unicode scalar value, so that dumps writes its escapes
SCALARS = st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=["Cs"])
SURROGATES = st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)


def has_surrogate(label):
    return any("\ud800" <= c <= "\udfff" for c in label)


@st.composite
def graph_parts(draw):
    """The nodes and relations of a graph of 2 to 6 labels, with any relation,
    either way round, per pair in pair order; in half of them one label
    holds a surrogate."""
    nodes = draw(st.lists(st.text(SCALARS, max_size=3), min_size=2, max_size=6, unique=True))
    if draw(st.booleans()):
        label = st.text(SCALARS | SURROGATES, min_size=1, max_size=3).filter(has_surrogate)
        nodes[draw(st.integers(0, len(nodes) - 1))] = draw(label)
    relations = []
    for pair in combinations(nodes, 2):
        kind = draw(st.sampled_from(RelationKind))
        if kind is RelationKind.SUBALTERN:
            relations.append(subaltern(*draw(st.permutations(pair))))
        else:
            relations.append(Relation(kind))
    return tuple(nodes), tuple(relations)


def value_paths(value, path=()):
    """The path of every value nested in a document, the document itself left out."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    paths = []
    for key, item in items:
        paths.append((*path, key))
        if isinstance(item, (dict, list)):
            paths.extend(value_paths(item, (*path, key)))
    return paths


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: (
        st.lists(children, max_size=3) | st.dictionaries(st.text(), children, max_size=3)
    ),
    max_leaves=8,
)
# values a graph document holds, so that an edit can still give a graph
NEAR_VALUES = st.sampled_from(
    ["A", "E", "I", "O", "U", "Y", "Z", "opposition_graph", "segment_assignment", 0, 1, 2, True,
     1.0, *(kind.value for kind in RelationKind)]
)


def reversed_a_i(g):
    """``g``'s relations with the subalternation of A and I turned round."""
    return [subaltern("I", "A") if (a, b) == ("A", "I") else r for a, b, r in g.pairs()]


def two_node_graph():
    e = SegmentAssignment(
        ("X", "W"), {"X": 1, "W": -1}, {"X": Role.UNIVERSAL, "W": Role.EXISTENTIAL}
    )
    return decode_graph(e, ClauseSystem.SQUARE)


class TestGraphValidation:
    def test_every_pair_required(self):
        with pytest.raises(ValueError, match="every unordered pair"):
            OppositionGraph(("A", "B", "C"), [CONTRADICTORY])

    def test_no_extra_pairs(self):
        with pytest.raises(ValueError, match="every unordered pair"):
            OppositionGraph(("A", "B"), [CONTRADICTORY, CONTRARY])

    def test_subaltern_direction_must_stay_in_pair(self):
        with pytest.raises(ValueError, match="direction"):
            OppositionGraph(("A", "B"), [subaltern("A", "C")])

    @pytest.mark.parametrize("label", ["\ud800\udc00", "a\udfff"], ids=["pair", "lone"])
    def test_surrogate_label_refused(self, label):
        # the structured form writes "\ud800\udc00" as escapes that read back as U+10000
        with pytest.raises(ValueError, match="surrogate"):
            OppositionGraph((label, "b"), [CONTRARY])

    def test_duplicate_nodes(self):
        with pytest.raises(ValueError, match="unique"):
            OppositionGraph(("A", "A"), [])

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            OppositionGraph(("A",), [])

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
        assert not graph_equal(g, OppositionGraph(g.nodes, reversed_a_i(g)))

    def test_node_order_does_not_matter(self):
        g = square_graph()
        nodes = tuple(reversed(g.nodes))
        reordered = OppositionGraph(nodes, [g.relation(a, b) for a, b in combinations(nodes, 2)])
        assert graph_equal(g, reordered)

    def test_different_nodes(self):
        assert not graph_equal(square_graph(), two_node_graph())

    def test_a_non_graph_is_left_to_the_other_operand(self):
        g = square_graph()
        assert g.__eq__(g.relations) is NotImplemented
        assert g != g.relations and g == square_graph()

    def test_repr_names_the_nodes(self):
        assert repr(square_graph()) == "OppositionGraph(nodes=('A', 'E', 'I', 'O'))"


class TestPairOrder:
    """One relation per pair, in ``combinations(nodes, 2)`` order, and
    nothing else kept per pair."""

    @settings(max_examples=300, deadline=None)
    @given(graph_parts(), st.text(SCALARS, max_size=3))
    def test_relation_reads_each_pair_either_way_round(self, parts, unknown):
        nodes, relations = parts
        assume(not any(has_surrogate(node) for node in nodes))
        g = OppositionGraph(nodes, relations)
        assert [(a, b) for a, b, _ in g.pairs()] == list(combinations(nodes, 2))
        for (a, b, relation), given_relation in zip(g.pairs(), relations, strict=True):
            assert g.relation(a, b) is g.relation(b, a) is relation is given_relation
        for node in nodes:
            with pytest.raises(KeyError):
                g.relation(node, node)
            if unknown not in nodes:
                with pytest.raises(KeyError):
                    g.relation(node, unknown)
                with pytest.raises(KeyError):
                    g.relation(unknown, node)

    def test_build_graph_peaks_at_a_few_bytes_per_pair(self):
        # A, E, I and O in turn: a quarter of the pairs are subalterns, each
        # a relation of its own; the rest share the four undirected ones
        sentences = 200
        corpus = parse_corpus("".join(f"s{i}: {'AEIO'[i % 4]}[P]\n" for i in range(sentences)))
        tracemalloc.start()
        try:
            graph = build_graph(corpus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(graph.relations) == sentences * (sentences - 1) // 2
        assert peak / len(graph.relations) < 100


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
        document = json.loads(to_structured(OppositionGraph(("A", "B"), [UNCONNECTED])))
        assert document["pairs"][0]["relation"] == "unconnected"

    def test_injective_on_graphs(self):
        g = square_graph()
        assert to_structured(g) != to_structured(OppositionGraph(g.nodes, reversed_a_i(g)))

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

    @pytest.mark.parametrize("text", ["[]", '"opposition_graph"', "null"])
    def test_reader_refuses_a_document_that_is_no_object(self, text):
        with pytest.raises(ValueError, match="not an opposition graph"):
            from_structured(text)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.pop("pairs"),
            lambda d: d.pop("nodes"),
            lambda d: d["pairs"][0].pop("relation"),
            lambda d: d["pairs"][1].pop("from"),
            lambda d: d["pairs"][0].pop("a"),
            lambda d: d["pairs"][0].update(a=["A"]),
            lambda d: d.update(nodes=[[1], [2]]),
            lambda d: d.update(nodes="AEIO"),
            lambda d: d.update(pairs=[["A", "E", "contrary"]]),
            lambda d: d.update(schema_version=True),
            lambda d: d["pairs"].append({**d["pairs"][0], "relation": "contradictory"}),
            lambda d: d["pairs"][0].update({"from": "A"}),
            lambda d: d["pairs"][0].update({"to": "E"}),
            lambda d: d["pairs"][1].update(note="x"),
            lambda d: d["pairs"][1].update({"from": ["A"]}),
        ],
        ids=[
            "no-pairs", "no-nodes", "no-relation", "no-from", "no-a", "list-label",
            "list-nodes", "string-nodes", "array-pair", "bool-version", "pair-twice",
            "from-on-contrary", "to-on-contrary", "extra-key", "list-from",
        ],
    )
    def test_reader_refuses_a_malformed_document(self, edit):
        document = json.loads(to_structured(square_graph()))
        assert document["pairs"][0] == {"a": "A", "b": "E", "relation": "contrary"}
        assert document["pairs"][1]["relation"] == "subaltern"
        edit(document)
        with pytest.raises(ValueError):
            from_structured(json.dumps(document))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.pop("schema_version"),
            lambda d: d["pairs"].append(d["pairs"][0]),
            lambda d: d["pairs"].reverse(),
            lambda d: d.update(note="x"),
            lambda d: d.update(nodes=[1, 2], pairs=[{"a": 1, "b": 2, "relation": "contrary"}]),
        ],
        ids=["no-version", "pair-repeated", "pairs-reversed", "extra-top-level-key", "int-nodes"],
    )
    def test_reader_refuses_what_the_writer_never_writes(self, edit):
        # each builds a graph, but not one that writes this document back
        document = json.loads(to_structured(square_graph()))
        edit(document)
        with pytest.raises(ValueError, match="as to_structured writes it"):
            from_structured(json.dumps(document))

    def test_reader_quotes_a_long_value_shortened(self):
        # RelationKind's own refusal repeats the whole value
        document = json.loads(to_structured(square_graph()))
        document["pairs"][0]["relation"] = "x" * 10**6
        with pytest.raises(ValueError, match="^not an opposition graph document: ValueError") as err:
            from_structured(json.dumps(document))
        assert "…" in str(err.value) and "is not a valid RelationKind" in str(err.value)
        assert len(str(err.value)) <= len("not an opposition graph document: ") + 200

    def test_reader_refuses_deep_nesting_with_value_error(self):
        # json.loads raises RecursionError here on Python 3.11, which is no ValueError
        with pytest.raises(ValueError):
            from_structured("[" * 100000)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_reads_back_every_graph_it_writes(self, data):
        nodes, relations = data.draw(graph_parts())
        if any(has_surrogate(node) for node in nodes):
            # "\ud800" + "\udc00" would be written as U+10000's escapes
            with pytest.raises(ValueError, match="surrogate"):
                OppositionGraph(nodes, relations)
            return
        g = OppositionGraph(nodes, relations)
        compact = json.dumps(g.to_document(), separators=(",", ":"), ensure_ascii=False)
        for text in (to_structured(g), compact):
            read = from_structured(text)
            assert read == g and read.nodes == g.nodes

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_reader_on_one_edited_value(self, data):
        document = json.loads(to_structured(hexagon_graph()))
        *path, last = data.draw(st.sampled_from(value_paths(document)), label="path")
        parent = document
        for key in path:
            parent = parent[key]
        if data.draw(st.booleans(), label="drop"):
            del parent[last]
        else:
            parent[last] = data.draw(NEAR_VALUES | JSON_VALUES, label="value")
        try:
            read = from_structured(json.dumps(document))
        except ValueError:
            return
        assert to_structured(read) == json.dumps(document, indent=2)

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
