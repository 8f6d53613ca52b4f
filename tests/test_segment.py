import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oppositions import segment
from oppositions import (
    A_HIGH,
    A_LOW,
    CONTRADICTORY,
    CONTRARY,
    REPRESENTATIONS,
    SUBCONTRARY,
    And,
    AssignmentError,
    ClauseSystem,
    Corpus,
    Or,
    RelationKind,
    Role,
    SegmentAssignment,
    ShapeError,
    Vocabulary,
    build_graph,
    clause_matches,
    decode_graph,
    extend_hexagon,
    graph_equal,
    infer_role,
    make_categorical,
    make_square_assignment,
    parse_corpus,
    parse_sentence,
    subaltern,
    synthesize,
    verify_against,
)

SQUARE = ClauseSystem.SQUARE
HEXAGON = ClauseSystem.HEXAGON


def values_of(e):
    return {label: e.values[label] for label in e.labels}


def qr_pairs(limit):
    return [(q, r) for q in range(1, limit + 1) for r in range(q + 1, limit + 1)]


class TestMakeSquareAssignment:
    def test_worked_example(self):
        e = make_square_assignment(1, 2, A_LOW)
        assert values_of(e) == {"A": 1, "E": 2, "I": -2, "O": -1}

    def test_other_universal_map(self):
        e = make_square_assignment(1, 2, A_HIGH)
        assert values_of(e) == {"A": 2, "E": 1, "I": -1, "O": -2}

    def test_scaled(self):
        e = make_square_assignment(5, 10)
        assert values_of(e) == {"A": 5, "E": 10, "I": -10, "O": -5}

    def test_roles(self):
        e = make_square_assignment(1, 2)
        assert e.roles["A"] is Role.UNIVERSAL and e.roles["E"] is Role.UNIVERSAL
        assert e.roles["I"] is Role.EXISTENTIAL and e.roles["O"] is Role.EXISTENTIAL

    @pytest.mark.parametrize("q,r", [(2, 2), (0, 1), (-1, 2), (3, 1)])
    def test_bad_magnitudes(self, q, r):
        with pytest.raises(AssignmentError):
            make_square_assignment(q, r)

    def test_bad_map(self):
        with pytest.raises(AssignmentError):
            make_square_assignment(1, 2, "a-middle")

    def test_duplicate_labels(self):
        with pytest.raises(AssignmentError):
            make_square_assignment(1, 2, A_LOW, ("A", "A", "I", "O"))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.sampled_from((A_LOW, A_HIGH)))
    def test_constructor_invariants(self, q, extra, universal_map):
        r = q + extra
        e = make_square_assignment(q, r, universal_map)
        values = list(e.values.values())
        assert len(set(values)) == 4
        assert 0 not in values
        assert {-v for v in values} == set(values)
        for label in e.labels:
            positive = e.values[label] > 0
            assert positive == (e.roles[label] is Role.UNIVERSAL)


class TestAssignmentValidation:
    def test_zero_value_rejected(self):
        with pytest.raises(AssignmentError, match="zero"):
            SegmentAssignment(
                ("X", "W"), {"X": 0, "W": 1}, {"X": Role.UNIVERSAL, "W": Role.UNIVERSAL}
            )

    def test_non_injective_rejected(self):
        with pytest.raises(AssignmentError):
            SegmentAssignment(
                ("X", "W"), {"X": 1, "W": 1}, {"X": Role.UNIVERSAL, "W": Role.UNIVERSAL}
            )

    def test_asymmetric_support_rejected(self):
        with pytest.raises(AssignmentError, match="support"):
            SegmentAssignment(
                ("X", "W"), {"X": 1, "W": -2}, {"X": Role.UNIVERSAL, "W": Role.EXISTENTIAL}
            )

    def test_polarity_role_agreement(self):
        with pytest.raises(AssignmentError, match="role"):
            SegmentAssignment(
                ("X", "W"), {"X": -1, "W": 1}, {"X": Role.UNIVERSAL, "W": Role.EXISTENTIAL}
            )

    def test_unassigned_label(self):
        e = make_square_assignment(1, 2)
        with pytest.raises(AssignmentError, match="not assigned"):
            e.value("U")


class TestSquareClauses:
    def test_contradictory_sum_zero(self, worked_square):
        square = decode_graph(worked_square, SQUARE)
        assert square.relation("A", "O").kind is RelationKind.CONTRADICTORY
        assert square.relation("E", "I").kind is RelationKind.CONTRADICTORY

    def test_contrary_and_subcontrary(self, worked_square):
        square = decode_graph(worked_square, SQUARE)
        assert square.relation("A", "E").kind is RelationKind.CONTRARY
        assert square.relation("I", "O").kind is RelationKind.SUBCONTRARY

    def test_subaltern_toward_negative(self, worked_square):
        square = decode_graph(worked_square, SQUARE)
        assert square.relation("A", "I") == subaltern("A", "I")
        assert square.relation("I", "A") == subaltern("A", "I")
        assert square.relation("E", "O") == subaltern("E", "O")

    def test_same_label_rejected(self, worked_square):
        with pytest.raises(AssignmentError):
            clause_matches(worked_square, SQUARE, "A", "A")

    def test_precedence_suppresses_subaltern_on_subcontrary_pair(self, worked_square):
        square = decode_graph(worked_square, SQUARE)
        raw = clause_matches(worked_square, SQUARE, "I", "O")
        kinds = [relation.kind for relation in raw]
        assert RelationKind.SUBCONTRARY in kinds
        assert RelationKind.SUBALTERN in kinds  # clause 4 over-fires without precedence
        assert square.relation("I", "O").kind is RelationKind.SUBCONTRARY

    def test_mixed_pair_has_single_raw_match(self, worked_square):
        raw = clause_matches(worked_square, SQUARE, "A", "I")
        assert raw == (subaltern("A", "I"),)


class TestExtendHexagon:
    def test_worked_example(self, worked_square):
        h = extend_hexagon(worked_square)
        assert values_of(h) == {"A": 1, "E": 2, "I": -2, "O": -1, "U": 3, "Y": -3}
        assert h.roles["U"] is Role.DISJUNCTION
        assert h.roles["Y"] is Role.CONJUNCTION

    def test_sum_independent_of_universal_map(self):
        h = extend_hexagon(make_square_assignment(1, 2, A_HIGH))
        assert h.values["U"] == 3 and h.values["Y"] == -3

    def test_scaled_sums(self):
        h = extend_hexagon(make_square_assignment(5, 10))
        assert h.values["U"] == 15 and h.values["Y"] == -15

    def test_label_collision(self, worked_square):
        with pytest.raises(AssignmentError):
            extend_hexagon(worked_square, "A", "Y")

    def test_needs_square_shape(self, worked_hexagon):
        with pytest.raises(ShapeError):
            extend_hexagon(worked_hexagon)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 30))
    def test_closure(self, q, extra):
        r = q + extra
        h = extend_hexagon(make_square_assignment(q, r))
        assert h.values["U"] == -h.values["Y"]
        assert abs(h.values["U"]) == q + r
        assert tuple(sorted(h.values.values())) == (-(q + r), -r, -q, q, r, q + r)


class TestHexagonClauses:
    def test_distinct_objects_contradictory(self, worked_hexagon):
        hexagon = decode_graph(worked_hexagon, HEXAGON)
        assert hexagon.relation("U", "Y").kind is RelationKind.CONTRADICTORY

    def test_triples(self, worked_hexagon):
        contrary, subcontrary = segment._triples(worked_hexagon)
        assert contrary == frozenset({"A", "E", "Y"})
        assert subcontrary == frozenset({"I", "O", "U"})

    def test_contrary_pairs_inside_triple(self, worked_hexagon):
        hexagon = decode_graph(worked_hexagon, HEXAGON)
        for pair in (("A", "E"), ("A", "Y"), ("E", "Y")):
            assert hexagon.relation(*pair).kind is RelationKind.CONTRARY

    def test_subcontrary_pairs_inside_triple(self, worked_hexagon):
        hexagon = decode_graph(worked_hexagon, HEXAGON)
        for pair in (("I", "O"), ("I", "U"), ("O", "U")):
            assert hexagon.relation(*pair).kind is RelationKind.SUBCONTRARY

    def test_subalternation_order_rule(self, worked_hexagon):
        hexagon = decode_graph(worked_hexagon, HEXAGON)
        assert hexagon.relation("A", "U") == subaltern("A", "U")
        assert hexagon.relation("Y", "I") == subaltern("Y", "I")
        assert hexagon.relation("A", "I") == subaltern("A", "I")

    def test_raw_subaltern_fires_both_ways_on_negative_pairs(self, worked_hexagon):
        hexagon = decode_graph(worked_hexagon, HEXAGON)
        raw = clause_matches(worked_hexagon, HEXAGON, "Y", "I")
        assert subaltern("Y", "I") in raw
        assert subaltern("I", "Y") in raw
        assert hexagon.relation("Y", "I") == subaltern("Y", "I")


class TestDecodeGraph:
    def test_square_reproduces_oracle(self, worked_square, oracle_square):
        assert graph_equal(decode_graph(worked_square, SQUARE), oracle_square)

    def test_hexagon_reproduces_oracle(self, worked_hexagon, oracle_hexagon):
        assert graph_equal(decode_graph(worked_hexagon, HEXAGON), oracle_hexagon)

    def test_scaled_square_decodes_identically(self, worked_square):
        scaled = make_square_assignment(5, 10)
        assert graph_equal(decode_graph(scaled, SQUARE), decode_graph(worked_square, SQUARE))

    def test_two_label_contradiction(self):
        e = SegmentAssignment(
            ("X", "W"), {"X": 1, "W": -1}, {"X": Role.UNIVERSAL, "W": Role.EXISTENTIAL}
        )
        graph = decode_graph(e, SQUARE)
        assert graph.relation("X", "W").kind is RelationKind.CONTRADICTORY

    def test_hexagon_clauses_require_hexagon_shape(self, worked_square):
        with pytest.raises(ShapeError):
            decode_graph(worked_square, HEXAGON)

    def test_square_clauses_apply_to_hexagon_assignment(self, worked_hexagon):
        graph = decode_graph(worked_hexagon, SQUARE)
        assert graph.relation("A", "U").kind is RelationKind.CONTRARY

    def test_oracle_agreement_across_magnitudes(self, oracle_square):
        for q, r in qr_pairs(10):
            for universal_map in (A_LOW, A_HIGH):
                e = make_square_assignment(q, r, universal_map)
                assert graph_equal(decode_graph(e, SQUARE), oracle_square), (q, r)

    def test_sign_law(self):
        for q, r in qr_pairs(6):
            e = make_square_assignment(q, r)
            for a, b, relation in decode_graph(e, SQUARE).pairs():
                va, vb = e.values[a], e.values[b]
                if relation.kind is RelationKind.CONTRADICTORY:
                    assert va == -vb
                elif relation.kind is RelationKind.CONTRARY:
                    assert va > 0 and vb > 0
                elif relation.kind is RelationKind.SUBCONTRARY:
                    assert va < 0 and vb < 0

    def test_every_pair_gets_exactly_one_relation(self):
        # decoded graphs are complete by construction; check raw matches too
        for q, r in qr_pairs(4):
            for universal_map in (A_LOW, A_HIGH):
                e = make_square_assignment(q, r, universal_map)
                h = extend_hexagon(e)
                for a, b in itertools.combinations(e.labels, 2):
                    assert len(clause_matches(e, SQUARE, a, b)) >= 1
                hexagon = decode_graph(h, HEXAGON)
                for a, b in itertools.combinations(h.labels, 2):
                    assert len(clause_matches(h, HEXAGON, a, b)) >= 1
                    hexagon.relation(a, b)


class TestVerifyAgainst:
    def test_square_matches(self, worked_square, oracle_square):
        report = verify_against(worked_square, SQUARE, oracle_square)
        assert report.matches
        assert report.mismatches == ()

    def test_hexagon_matches(self, worked_hexagon, oracle_hexagon):
        assert verify_against(worked_hexagon, HEXAGON, oracle_hexagon).matches

    def test_square_clauses_fail_on_hexagon(self, worked_hexagon, oracle_hexagon):
        report = verify_against(worked_hexagon, SQUARE, oracle_hexagon)
        assert not report.matches
        by_pair = {(m.a, m.b): m for m in report.mismatches}
        mismatch = by_pair[("A", "U")]
        assert mismatch.decoded.kind is RelationKind.CONTRARY
        assert mismatch.semantic == subaltern("A", "U")
        assert len(report.mismatches) == 8

    def test_label_set_mismatch(self, worked_square, oracle_hexagon):
        with pytest.raises(ValueError):
            verify_against(worked_square, SQUARE, oracle_hexagon)


SQUARE_ROLES = {
    "A": Role.UNIVERSAL,
    "E": Role.UNIVERSAL,
    "I": Role.EXISTENTIAL,
    "O": Role.EXISTENTIAL,
}
HEXAGON_ROLES = SQUARE_ROLES | {"U": Role.DISJUNCTION, "Y": Role.CONJUNCTION}


class TestSynthesize:
    def test_square_bound_two(self, oracle_square):
        # frozen from an exhaustive throwaway enumeration over all 4!
        # injections into {-2,-1,1,2}: exactly two decode to the square
        found = synthesize(oracle_square, SQUARE, 2, SQUARE_ROLES)
        assert [values_of(e) for e in found] == [
            {"A": 1, "E": 2, "I": -2, "O": -1},
            {"A": 2, "E": 1, "I": -1, "O": -2},
        ]

    def test_magnitude_below_one_refused(self, oracle_square):
        with pytest.raises(ValueError, match="^magnitude bound must be at least 1$"):
            synthesize(oracle_square, SQUARE, 0, SQUARE_ROLES)

    def test_hexagon_under_square_clauses_is_empty(self, oracle_hexagon):
        assert synthesize(oracle_hexagon, SQUARE, 6, HEXAGON_ROLES) == []

    def test_hexagon_under_hexagon_clauses(self, oracle_hexagon):
        found = synthesize(oracle_hexagon, HEXAGON, 3, HEXAGON_ROLES)
        assert {"A": 1, "E": 2, "I": -2, "O": -1, "U": 3, "Y": -3} in [
            values_of(e) for e in found
        ]
        assert len(found) == 2

    def test_found_assignments_decode_to_target(self, oracle_hexagon):
        for e in synthesize(oracle_hexagon, HEXAGON, 4, HEXAGON_ROLES):
            assert graph_equal(decode_graph(e, HEXAGON), oracle_hexagon)

    def test_deterministic_order(self, oracle_square):
        first = synthesize(oracle_square, SQUARE, 3, SQUARE_ROLES)
        second = synthesize(oracle_square, SQUARE, 3, SQUARE_ROLES)
        assert [values_of(e) for e in first] == [values_of(e) for e in second]

    def test_insufficient_bound_yields_empty(self, oracle_square):
        assert synthesize(oracle_square, SQUARE, 1, SQUARE_ROLES) == []

    def test_roles_must_cover_labels(self, oracle_square):
        with pytest.raises(ValueError):
            synthesize(oracle_square, SQUARE, 2, {"A": Role.UNIVERSAL})

    def test_unbalanced_polarities_yield_empty(self, oracle_square):
        roles = dict(SQUARE_ROLES, I=Role.UNIVERSAL)
        with pytest.raises(ShapeError):
            synthesize(oracle_square, SQUARE, 4, roles)

    def test_hexagon_clauses_need_hexagon_roles(self, oracle_square):
        with pytest.raises(ShapeError):
            synthesize(oracle_square, HEXAGON, 3, SQUARE_ROLES)

    def test_rejected_candidates_build_nothing(self, monkeypatch, oracle_hexagon):
        # square clauses reject every hexagon candidate
        built = []
        monkeypatch.setattr(SegmentAssignment, "__post_init__", lambda self: built.append(self))
        monkeypatch.setattr("oppositions.segment.OppositionGraph", lambda *args: built.append(args))
        assert synthesize(oracle_hexagon, SQUARE, 6, HEXAGON_ROLES) == []
        assert built == []


# The precedence decoders as first written, one pair at a time and
# independent of the clause tables; frozen here as the reference the
# tables must reproduce.


def _reference_square_matches(e, a, b):
    va, vb = e.value(a), e.value(b)
    matches = []
    if va + vb == 0:
        matches.append(CONTRADICTORY)
    if va > 0 and vb > 0:
        matches.append(CONTRARY)
    if va < 0 and vb < 0:
        matches.append(SUBCONTRARY)
    for sup, sub in ((a, b), (b, a)):
        if e.value(sub) < 0 and e.value(sub) != -e.value(sup):
            matches.append(subaltern(sup, sub))
    return tuple(matches)


def _reference_square_relation(e, a, b):
    return _reference_square_matches(e, a, b)[0]


def _reference_triple(e, member_role, completing):
    triple = frozenset(e.labels_with_role(member_role) + e.labels_with_role(completing))
    if len(triple) == 3 and sum(e.value(label) for label in triple) == 0:
        return triple
    return frozenset()


def _reference_hexagon_relation(e, a, b):
    va, vb = e.value(a), e.value(b)
    if va + vb == 0:
        return CONTRADICTORY
    if {a, b} <= _reference_triple(e, Role.UNIVERSAL, Role.CONJUNCTION):
        return CONTRARY
    if {a, b} <= _reference_triple(e, Role.EXISTENTIAL, Role.DISJUNCTION):
        return SUBCONTRARY
    if (va > 0) != (vb > 0):
        return subaltern(a, b) if va > 0 else subaltern(b, a)
    return subaltern(a, b) if va < vb else subaltern(b, a)


def six_label_candidates(bound):
    """Every hexagon-role assignment on a symmetric support within the
    bound, whether or not the distinct objects are sums."""
    for magnitudes in itertools.combinations(range(1, bound + 1), 3):
        for positive_row in itertools.permutations(magnitudes):
            for negative_row in itertools.permutations(sorted(-m for m in magnitudes)):
                values = dict(zip("AEU", positive_row)) | dict(zip("IOY", negative_row))
                yield SegmentAssignment(tuple("AEIOUY"), values, HEXAGON_ROLES)


class TestAgainstReferenceDecoders:
    @pytest.mark.parametrize(
        "cs,reference",
        [(SQUARE, _reference_square_relation), (HEXAGON, _reference_hexagon_relation)],
        ids=["square", "hexagon"],
    )
    def test_decode_graph(self, cs, reference):
        for e in six_label_candidates(7):
            graph = decode_graph(e, cs)
            for a, b in itertools.combinations(e.labels, 2):
                assert graph.relation(a, b) == reference(e, a, b), (values_of(e), a, b)

    def test_square_clause_matches(self):
        for e in six_label_candidates(7):
            for a, b in itertools.permutations(e.labels, 2):
                assert clause_matches(e, SQUARE, a, b) == _reference_square_matches(
                    e, a, b
                ), (values_of(e), a, b)


# The bounded synthesizer as first written, frozen here as the reference the
# search by permutation pairs must reproduce: every candidate on every support
# is checked against the target, and each that matches is built as a
# SegmentAssignment.  The check decodes pair by pair with the reference
# decoders above, which the tests above hold equal to decode_graph, and stops
# at the first pair that differs; contradictory pairs come first, as they turn
# most candidates away.

POSITIVE_ROLES = (Role.UNIVERSAL, Role.DISJUNCTION)


class _Candidate:
    """Values and roles read as the reference decoders read a
    SegmentAssignment, without building and validating one."""

    __slots__ = ("labels", "values", "roles")
    value = SegmentAssignment.value
    labels_with_role = SegmentAssignment.labels_with_role

    def __init__(self, labels, values, roles):
        self.labels, self.values, self.roles = labels, values, roles


def _reference_synthesize(target, cs, magnitude_bound, roles):
    labels = target.nodes
    positive_labels = tuple(l for l in labels if roles[l] in POSITIVE_ROLES)
    negative_labels = tuple(l for l in labels if roles[l] not in POSITIVE_ROLES)
    sums = ()
    if cs is HEXAGON:
        with_role = {role: [l for l in labels if roles[l] is role] for role in Role}
        sums = (
            (with_role[Role.DISJUNCTION][0], with_role[Role.UNIVERSAL]),
            (with_role[Role.CONJUNCTION][0], with_role[Role.EXISTENTIAL]),
        )
    relation = _reference_square_relation if cs is SQUARE else _reference_hexagon_relation
    # a relation's text names its kind and direction, and compares faster than the record
    pairs = sorted(((a, b, r.text()) for a, b, r in target.pairs()),
                   key=lambda pair: pair[2] != CONTRADICTORY.text())
    found = []
    for magnitudes in itertools.combinations(range(1, magnitude_bound + 1), len(positive_labels)):
        negatives = sorted(-m for m in magnitudes)
        for positive_row in itertools.permutations(magnitudes):
            for negative_row in itertools.permutations(negatives):
                values = dict(zip(positive_labels, positive_row))
                values.update(zip(negative_labels, negative_row))
                if any(values[d] != sum(values[l] for l in of) for d, of in sums):
                    continue
                candidate = _Candidate(labels, values, roles)
                if all(relation(candidate, a, b).text() == text for a, b, text in pairs):
                    found.append(SegmentAssignment(labels, values, dict(roles)))
    return found


@st.composite
def decoded_targets(draw):
    """A clause system and the graph it decodes from a random six-label
    candidate in that system's search space at M <= 7, with the labels in
    a random order; the candidate itself and a bound it fits under."""
    cs = draw(st.sampled_from((SQUARE, HEXAGON)))
    labels = tuple(draw(st.permutations("AEIOUY")))
    if cs is HEXAGON:
        a = draw(st.integers(1, 6))
        e = draw(st.integers(1, 7 - a).filter(lambda v: v != a))
        i, o = draw(st.permutations((-a, -e)))
        values = {"A": a, "E": e, "U": a + e, "I": i, "O": o, "Y": -a - e}
    else:
        magnitudes = draw(st.lists(st.integers(1, 7), min_size=3, max_size=3, unique=True))
        positive = draw(st.permutations(magnitudes))
        negative = draw(st.permutations([-m for m in magnitudes]))
        values = dict(zip("AEU", positive)) | dict(zip("IOY", negative))
    candidate = SegmentAssignment(labels, values, HEXAGON_ROLES)
    bound = draw(st.integers(max(map(abs, values.values())), 7))
    return cs, decode_graph(candidate, cs), candidate, bound


NEGATIVE_ROLES = (Role.EXISTENTIAL, Role.CONJUNCTION)


@st.composite
def square_targets(draw):
    """The graph the square clauses decode from a random candidate over a
    symmetric role map of 2, 4 or 8 labels in a random order, any roles of
    each sign; the candidate itself and a bound up to 6 it fits under."""
    half = draw(st.sampled_from((1, 2, 4)))
    labels = tuple(draw(st.permutations([f"L{i}" for i in range(2 * half)])))
    positive, negative = labels[:half], labels[half:]
    roles = {l: draw(st.sampled_from(POSITIVE_ROLES)) for l in positive}
    roles |= {l: draw(st.sampled_from(NEGATIVE_ROLES)) for l in negative}
    magnitudes = draw(st.lists(st.integers(1, 6), min_size=half, max_size=half, unique=True))
    values = dict(zip(positive, draw(st.permutations(magnitudes))))
    values |= dict(zip(negative, draw(st.permutations([-m for m in magnitudes]))))
    candidate = SegmentAssignment(labels, values, roles)
    bound = draw(st.integers(max(magnitudes), 6))
    return decode_graph(candidate, SQUARE), candidate, bound


class TestAgainstReferenceSynthesize:
    @pytest.mark.parametrize("cs", [SQUARE, HEXAGON], ids=["square", "hexagon"])
    @pytest.mark.parametrize("corpus", ["square", "hexagon"])
    def test_paper_graphs(self, request, cs, corpus):
        target = request.getfixturevalue(f"oracle_{corpus}")
        roles = {label: HEXAGON_ROLES[label] for label in target.nodes}
        for bound in range(1, 11):
            if cs is HEXAGON and corpus == "square":
                with pytest.raises(ShapeError):
                    synthesize(target, cs, bound, roles)
                continue
            found = synthesize(target, cs, bound, roles)
            assert found == _reference_synthesize(target, cs, bound, roles), bound

    @settings(max_examples=25, deadline=None)
    @given(decoded_targets())
    def test_decoded_targets(self, case):
        cs, target, candidate, bound = case
        roles = dict(candidate.roles)
        found = synthesize(target, cs, bound, roles)
        assert found == _reference_synthesize(target, cs, bound, roles)
        assert values_of(candidate) in [values_of(e) for e in found]

    @settings(max_examples=20, deadline=None)
    @given(square_targets())
    def test_square_targets_on_other_role_maps(self, case):
        target, candidate, bound = case
        roles = dict(candidate.roles)
        found = synthesize(target, SQUARE, bound, roles)
        assert found == _reference_synthesize(target, SQUARE, bound, roles)
        assert values_of(candidate) in [values_of(e) for e in found]


@st.composite
def square_or_hexagon_assignments(draw):
    """A square or hexagon assignment, labels in a random order, on a
    random symmetric support up to 20; half the hexagons place each
    distinct object at the sum of its components, so the triple rows fire."""
    roles = draw(st.sampled_from((SQUARE_ROLES, HEXAGON_ROLES)))
    labels = tuple(draw(st.permutations(sorted(roles))))
    if len(roles) == 6 and draw(st.booleans()):
        a, e = draw(st.lists(st.integers(1, 10), min_size=2, max_size=2, unique=True))
        i, o = draw(st.permutations((-a, -e)))
        values = {"A": a, "E": e, "U": a + e, "I": i, "O": o, "Y": -a - e}
        return SegmentAssignment(labels, values, roles)
    positive = [l for l in labels if roles[l] in POSITIVE_ROLES]
    negative = [l for l in labels if roles[l] in NEGATIVE_ROLES]
    size = len(positive)
    magnitudes = draw(st.lists(st.integers(1, 20), min_size=size, max_size=size, unique=True))
    values = dict(zip(positive, magnitudes))
    values |= dict(zip(negative, draw(st.permutations([-m for m in magnitudes]))))
    return SegmentAssignment(labels, values, roles)


class TestDecodeIsFirstClauseMatch:
    """Decoding and clause listing read one row scan: under each clause
    system an assignment's shape allows, every pair, in either order,
    decodes to the first relation ``clause_matches`` lists."""

    @settings(max_examples=200, deadline=None)
    @given(square_or_hexagon_assignments())
    def test_decoded_relation_is_the_first_match(self, e):
        for cs in (SQUARE, HEXAGON) if len(e.labels) == 6 else (SQUARE,):
            graph = decode_graph(e, cs)
            for a, b in itertools.permutations(e.labels, 2):
                first = clause_matches(e, cs, a, b)[0]
                assert graph.relation(a, b) == first, (cs, values_of(e), a, b)


class TestTypeDecision:
    """Each pair of permutations is decoded once, whatever the magnitude."""

    def test_square_refusal_is_flat_in_magnitude(self, monkeypatch, oracle_hexagon):
        fired, calls = segment._fired, []

        def counted(*args):
            calls.append(args)
            return fired(*args)

        monkeypatch.setattr(segment, "_fired", counted)
        counts = []
        for bound in (8, 40):
            calls.clear()
            assert synthesize(oracle_hexagon, SQUARE, bound, HEXAGON_ROLES) == []
            counts.append(len(calls))
        assert counts[0] == counts[1], counts


class TestHexagonClosedForm:
    """Hexagon clauses find the hexagon exactly where A = a, E = e, the
    existentials are their contradictories and the distinct objects their
    sums: 2 * #{a < e, a + e <= M} results (bench/reference.py counts the
    same), in the canonical order."""

    @pytest.mark.parametrize("bound,count", [(16, 112), (24, 264), (40, 760)])
    def test_every_solution_in_canonical_order(self, oracle_hexagon, bound, count):
        expected = [
            {"A": a, "E": e, "I": -e, "O": -a, "U": a + e, "Y": -a - e}
            for a in range(1, bound)
            for e in range(1, bound + 1 - a)
            if a != e
        ]
        # supports by ascending magnitudes, then the rows (A, E, U) and (I, O, Y)
        expected.sort(key=lambda v: (sorted(v[l] for l in "AEU"), [v[l] for l in "AEUIOY"]))
        found = synthesize(oracle_hexagon, HEXAGON, bound, HEXAGON_ROLES)
        assert [values_of(e) for e in found] == expected
        assert len(found) == count


class TestSynthesisCap:
    def test_a_result_at_the_cap_is_listed(self, monkeypatch, oracle_hexagon):
        # two decoding pairs on the two supports (1, 2) and (1, 3) of magnitude 4
        monkeypatch.setattr(segment, "MAX_SOLUTIONS", 4)
        assert len(synthesize(oracle_hexagon, HEXAGON, 4, HEXAGON_ROLES)) == 4

    @pytest.mark.parametrize(
        "target,cs,bound,roles,count",
        [("hexagon", HEXAGON, 4, HEXAGON_ROLES, 4), ("square", SQUARE, 3, SQUARE_ROLES, 6)],
    )
    def test_past_the_cap_raises_before_building(
        self, monkeypatch, oracle_square, oracle_hexagon, target, cs, bound, roles, count
    ):
        graph = {"square": oracle_square, "hexagon": oracle_hexagon}[target]
        assert len(synthesize(graph, cs, bound, roles)) == count
        built = []
        monkeypatch.setattr(segment, "MAX_SOLUTIONS", count - 1)
        monkeypatch.setattr(SegmentAssignment, "__post_init__", lambda self: built.append(self))
        with pytest.raises(ValueError, match=f"{count} assignments .* limit of {count - 1}"):
            synthesize(graph, cs, bound, roles)
        assert built == []

    def test_nothing_to_list_is_no_error(self, monkeypatch, oracle_hexagon):
        monkeypatch.setattr(segment, "MAX_SOLUTIONS", 0)
        assert synthesize(oracle_hexagon, SQUARE, 10**6, HEXAGON_ROLES) == []


def categorical_corpus(lines):
    return parse_corpus("\n".join(lines))


class TestCorpusAssignment:
    @pytest.mark.parametrize("hexagon", [False, True], ids=["square", "hexagon"])
    def test_every_mix_of_representations(self, hexagon):
        expected = make_square_assignment(2, 5, A_HIGH)
        if hexagon:
            expected = extend_hexagon(expected)
        for reps in itertools.product(REPRESENTATIONS, repeat=4):
            forms = {f: make_categorical(f, "P", rep) for f, rep in zip("AEIO", reps)}
            if hexagon:
                forms |= {"U": Or(forms["A"], forms["E"]), "Y": And(forms["I"], forms["O"])}
            corpus = Corpus(tuple(forms.items()), Vocabulary.of("P"))
            assert segment.corpus_assignment(corpus, 2, 5, A_HIGH) == expected, reps

    @pytest.mark.parametrize(
        "lines,message",
        [
            (
                ["A: A[P]", "B: E[P]"],
                "corpus labels ['A', 'B'] are not a categorical square or hexagon",
            ),
            (
                ["A: A[P]", "E: E[Q]", "I: I[P]", "O: O[P]"],
                "encoding expects a corpus over a single predicate",
            ),
            (
                ["A: A[P]", "E: E[P]", "I: I[P]", "O: A[P]"],
                "label O is not the categorical O form over P",
            ),
            (
                ["A: A[P]", "E: E[P]", "I: I[P]", "O: O[P]", "U: E[P] | A[P]", "Y: Y[P]"],
                "label U must be the disjunction of A and E",
            ),
            (
                ["A: A[P]", "E: E[P]", "I: I[P]", "O: O[P]", "U: U[P]", "Y: O[P] & I[P]"],
                "label Y must be the conjunction of I and O",
            ),
        ],
        ids=["labels", "predicates", "form", "disjunction", "conjunction"],
    )
    def test_shape_errors_come_before_magnitudes(self, lines, message):
        with pytest.raises(ShapeError) as raised:
            segment.corpus_assignment(categorical_corpus(lines), 2, 2, "a-middle")
        assert str(raised.value) == message

    def test_magnitudes_are_checked_on_a_good_shape(self, hexagon_corpus):
        with pytest.raises(AssignmentError, match="distinct"):
            segment.corpus_assignment(hexagon_corpus, 2, 2, A_LOW)


class TestCorpusRoles:
    def test_hexagon(self, hexagon_corpus):
        assert segment.corpus_roles(hexagon_corpus) == HEXAGON_ROLES

    def test_first_label_without_a_role_is_named(self):
        corpus = categorical_corpus(["A: A[P]", "C: A[P] -> I[P]", "D: I[P] -> A[P]"])
        with pytest.raises(ShapeError, match="^cannot infer a polarity role for label 'C'$"):
            segment.corpus_roles(corpus)


class TestClauseSystem:
    def test_default_follows_the_disjunction(self):
        assert segment.clause_system(SQUARE_ROLES) is SQUARE
        assert segment.clause_system(HEXAGON_ROLES) is HEXAGON
        assert segment.clause_system({"A": Role.UNIVERSAL, "Y": Role.CONJUNCTION}) is SQUARE

    def test_a_name_overrides_the_default(self):
        assert segment.clause_system(SQUARE_ROLES, "hexagon") is HEXAGON
        assert segment.clause_system(HEXAGON_ROLES, "square") is SQUARE

    def test_encode_default_is_the_shape(self, worked_square, worked_hexagon):
        assert segment.clause_system(worked_square.roles) is SQUARE
        assert segment.clause_system(worked_hexagon.roles) is HEXAGON


class TestInferRole:
    def test_quantified(self):
        assert infer_role(parse_sentence("A[P]")) is Role.UNIVERSAL
        assert infer_role(parse_sentence("O[P]")) is Role.EXISTENTIAL

    def test_negation_dualizes(self):
        assert infer_role(parse_sentence("~forall x. ~P(x)")) is Role.EXISTENTIAL
        assert infer_role(parse_sentence("~exists x. ~P(x)")) is Role.UNIVERSAL
        assert infer_role(parse_sentence("~U[P]")) is Role.CONJUNCTION

    def test_connectives(self):
        assert infer_role(parse_sentence("U[P]")) is Role.DISJUNCTION
        assert infer_role(parse_sentence("Y[P]")) is Role.CONJUNCTION

    def test_implication_has_no_role(self):
        assert infer_role(parse_sentence("A[P] -> I[P]")) is None

    def test_corpus_roles_match_fixtures(self, hexagon_corpus):
        roles = {label: infer_role(s) for label, s in hexagon_corpus.entries}
        assert roles == HEXAGON_ROLES


class TestScaleInvariance:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 15),
        st.integers(1, 15),
        st.integers(2, 5),
        st.sampled_from((A_LOW, A_HIGH)),
    )
    def test_square_decode_is_scale_invariant(self, q, extra, k, universal_map):
        r = q + extra
        base = make_square_assignment(q, r, universal_map)
        scaled = make_square_assignment(k * q, k * r, universal_map)
        assert graph_equal(decode_graph(base, SQUARE), decode_graph(scaled, SQUARE))

    def test_hexagon_decode_is_scale_invariant(self, worked_hexagon):
        for k in (2, 3, 5):
            scaled = extend_hexagon(make_square_assignment(k, 2 * k))
            assert graph_equal(
                decode_graph(scaled, HEXAGON), decode_graph(worked_hexagon, HEXAGON)
            )
