"""Acceptance suite: one test per criterion, exact assertions throughout.

The conftest hook prints one ``[acceptance] <name>: PASS|FAIL`` line per
criterion.  Timed criteria assert their wall-clock budget as well.
"""

import time
from itertools import combinations

from oppositions import (
    A_HIGH,
    A_LOW,
    CONTRADICTORY,
    CONTRARY,
    SUBCONTRARY,
    ClauseSystem,
    REPRESENTATIONS,
    RelationKind,
    Role,
    SegmentAssignment,
    build_graph,
    classify,
    clause_matches,
    decode_graph,
    extend_hexagon,
    graph_equal,
    make_categorical,
    make_square_assignment,
    subaltern,
    synthesize,
    verify_against,
)

SQUARE = ClauseSystem.SQUARE
HEXAGON = ClauseSystem.HEXAGON

SQUARE_EDGES = {
    ("A", "O"): CONTRADICTORY,
    ("E", "I"): CONTRADICTORY,
    ("A", "E"): CONTRARY,
    ("I", "O"): SUBCONTRARY,
    ("A", "I"): subaltern("A", "I"),
    ("E", "O"): subaltern("E", "O"),
}

HEXAGON_EDGES = {
    ("A", "O"): CONTRADICTORY,
    ("E", "I"): CONTRADICTORY,
    ("U", "Y"): CONTRADICTORY,
    ("A", "E"): CONTRARY,
    ("A", "Y"): CONTRARY,
    ("E", "Y"): CONTRARY,
    ("I", "O"): SUBCONTRARY,
    ("I", "U"): SUBCONTRARY,
    ("O", "U"): SUBCONTRARY,
    ("A", "I"): subaltern("A", "I"),
    ("E", "O"): subaltern("E", "O"),
    ("A", "U"): subaltern("A", "U"),
    ("E", "U"): subaltern("E", "U"),
    ("Y", "I"): subaltern("Y", "I"),
    ("Y", "O"): subaltern("Y", "O"),
}

HEXAGON_ROLES = {
    "A": Role.UNIVERSAL,
    "E": Role.UNIVERSAL,
    "I": Role.EXISTENTIAL,
    "O": Role.EXISTENTIAL,
    "U": Role.DISJUNCTION,
    "Y": Role.CONJUNCTION,
}


def assert_graph_is(graph, expected_edges):
    assert len(list(graph.pairs())) == len(expected_edges)
    for (a, b), relation in expected_edges.items():
        assert graph.relation(a, b) == relation, (a, b)


def test_criterion_1_square_reproduction(oracle_square):
    started = time.perf_counter()
    assignment = make_square_assignment(1, 2, A_LOW)
    decoded = decode_graph(assignment, SQUARE)
    assert_graph_is(decoded, SQUARE_EDGES)
    assert verify_against(assignment, SQUARE, oracle_square).matches
    assert time.perf_counter() - started < 1.0


def test_criterion_2_square_construction_generality(oracle_square):
    started = time.perf_counter()
    checked = 0
    for q in range(1, 10):
        for r in range(q + 1, 11):
            for universal_map in (A_LOW, A_HIGH):
                assignment = make_square_assignment(q, r, universal_map)
                assert graph_equal(decode_graph(assignment, SQUARE), oracle_square)
                checked += 1
    assert checked == 90
    assert time.perf_counter() - started < 5.0


def test_criterion_3_hexagon_reproduction(oracle_hexagon):
    started = time.perf_counter()
    assignment = extend_hexagon(make_square_assignment(1, 2, A_LOW))
    assert tuple(sorted(assignment.values.values())) == (-3, -2, -1, 1, 2, 3)
    decoded = decode_graph(assignment, HEXAGON)
    assert_graph_is(decoded, HEXAGON_EDGES)
    assert verify_against(assignment, HEXAGON, oracle_hexagon).matches
    assert time.perf_counter() - started < 5.0


def test_criterion_4_hexagon_negative_result(oracle_hexagon):
    started = time.perf_counter()
    assert synthesize(oracle_hexagon, SQUARE, 6, HEXAGON_ROLES) == []
    assignment = extend_hexagon(make_square_assignment(1, 2, A_LOW))
    report = verify_against(assignment, SQUARE, oracle_hexagon)
    assert not report.matches
    mismatch = next(m for m in report.mismatches if (m.a, m.b) == ("A", "U"))
    assert mismatch.decoded == CONTRARY
    assert time.perf_counter() - started < 30.0


def test_criterion_5_precedence_regression():
    assignment = make_square_assignment(1, 2, A_LOW)
    raw = clause_matches(assignment, SQUARE, "I", "O")
    assert any(relation.kind is RelationKind.SUBALTERN for relation in raw)
    assert decode_graph(assignment, SQUARE).relation("I", "O") == SUBCONTRARY


def test_criterion_6_representation_invariance():
    for form in ("A", "E", "I", "O"):
        for r1, r2 in combinations(REPRESENTATIONS, 2):
            relation = classify(
                make_categorical(form, "P", r1), make_categorical(form, "P", r2), 2
            )
            assert relation.kind is RelationKind.EQUIVALENT, (form, r1, r2)


def test_criterion_7_scale_invariance():
    square_base = decode_graph(make_square_assignment(1, 2), SQUARE)
    hexagon_base = decode_graph(extend_hexagon(make_square_assignment(1, 2)), HEXAGON)
    for k in (2, 3, 5):
        scaled_square = make_square_assignment(k, 2 * k)
        assert graph_equal(decode_graph(scaled_square, SQUARE), square_base)
        scaled_hexagon = extend_hexagon(scaled_square)
        assert graph_equal(decode_graph(scaled_hexagon, HEXAGON), hexagon_base)


def test_criterion_8_oracle_stability(square_corpus, hexagon_corpus):
    square_graphs = [build_graph(square_corpus, bound) for bound in (2, 3, 4)]
    assert graph_equal(square_graphs[0], square_graphs[1])
    assert graph_equal(square_graphs[0], square_graphs[2])
    hexagon_graphs = [build_graph(hexagon_corpus, bound) for bound in (3, 4)]
    assert graph_equal(hexagon_graphs[0], hexagon_graphs[1])


def test_criterion_9_two_point_contradiction():
    for j in (1, 2, 7):
        assignment = SegmentAssignment(
            ("X", "W"),
            {"X": j, "W": -j},
            {"X": Role.UNIVERSAL, "W": Role.EXISTENTIAL},
        )
        graph = decode_graph(assignment, SQUARE)
        assert list(graph.pairs()) == [("X", "W", CONTRADICTORY)]
