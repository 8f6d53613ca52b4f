"""Integer line-segment encodings of opposition structures.

Labels are assigned distinct nonzero integers on a symmetric support
(every value appears with its negation).  Polarity follows the statement
kind: universal statements and disjunctions sit on the positive side,
existential statements and conjunctions on the negative side.  Relations
are then decoded from sign, sum-to-zero, and order conditions alone.

Two clause systems exist, each one ordered table of rows in ``CLAUSES``.
The square system decides every pair by contradiction (sum zero),
contrariety (both positive), subcontrariety (both negative), and
subalternation (toward the negative member).  The hexagon system
replaces the sign rows for contrariety and subcontrariety with zero-sum
triples completed by a distinct object, and puts an order row for
same-signed pairs before the square's subalternation row.  Decoding
takes the first relation fired, so every pair receives exactly one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, permutations
from typing import Callable, Mapping

from .formula import FORALL, Sentence, And, Not, Or, Quantified
from .graph import (
    CONTRADICTORY,
    CONTRARY,
    SUBCONTRARY,
    OppositionGraph,
    Relation,
    SCHEMA_VERSION,
    graph_equal,
    subaltern,
)


class Role(Enum):
    """Statement kind driving the polarity of the assigned integer."""

    UNIVERSAL = "universal"
    EXISTENTIAL = "existential"
    DISJUNCTION = "disjunction"
    CONJUNCTION = "conjunction"


class Polarity(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


_ROLE_POLARITY = {
    Role.UNIVERSAL: Polarity.POSITIVE,
    Role.DISJUNCTION: Polarity.POSITIVE,
    Role.EXISTENTIAL: Polarity.NEGATIVE,
    Role.CONJUNCTION: Polarity.NEGATIVE,
}

_DUAL_ROLE = {
    Role.UNIVERSAL: Role.EXISTENTIAL,
    Role.EXISTENTIAL: Role.UNIVERSAL,
    Role.DISJUNCTION: Role.CONJUNCTION,
    Role.CONJUNCTION: Role.DISJUNCTION,
}


def role_polarity(role: Role) -> Polarity:
    return _ROLE_POLARITY[role]


def value_polarity(value: int) -> Polarity:
    if value == 0:
        raise ValueError("assigned integers are never zero")
    return Polarity.POSITIVE if value > 0 else Polarity.NEGATIVE


class ClauseSystem(Enum):
    SQUARE = "square"
    HEXAGON = "hexagon"


class AssignmentError(ValueError):
    """A segment assignment violates a construction invariant."""


class ShapeError(ValueError):
    """An assignment does not have the shape an operation requires."""


A_LOW = "a-low"
A_HIGH = "a-high"
UNIVERSAL_MAPS = (A_LOW, A_HIGH)


@dataclass(frozen=True)
class SegmentAssignment:
    """Injective map from labels to nonzero integers on a symmetric support."""

    labels: tuple[str, ...]
    values: Mapping[str, int]
    roles: Mapping[str, Role]

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise AssignmentError("labels must be unique")
        if set(self.values) != set(self.labels) or set(self.roles) != set(self.labels):
            raise AssignmentError("values and roles must cover exactly the labels")
        assigned = list(self.values.values())
        if 0 in assigned:
            raise AssignmentError("assigned integers are never zero")
        if len(set(assigned)) != len(assigned):
            raise AssignmentError("the assignment must be injective")
        if {-v for v in assigned} != set(assigned):
            raise AssignmentError("support must contain the negation of every value")
        for label in self.labels:
            if value_polarity(self.values[label]) is not role_polarity(self.roles[label]):
                raise AssignmentError(
                    f"label {label!r} has role {self.roles[label].value} but value "
                    f"{self.values[label]}"
                )

    def value(self, label: str) -> int:
        try:
            return self.values[label]
        except KeyError:
            raise AssignmentError(f"label {label!r} not assigned") from None

    def role(self, label: str) -> Role:
        return self.roles[label]

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.values.values()))

    def labels_with_role(self, role: Role) -> tuple[str, ...]:
        return tuple(label for label in self.labels if self.roles[label] is role)

    def to_document(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "segment_assignment",
            "labels": [
                {"label": label, "value": self.values[label], "role": self.roles[label].value}
                for label in self.labels
            ],
        }


def make_square_assignment(
    q: int,
    r: int,
    universal_map: str = A_LOW,
    labels: tuple[str, str, str, str] = ("A", "E", "I", "O"),
) -> SegmentAssignment:
    """Assign four labels to {-r, -q, q, r}.

    The two universal labels take q and r, in either order; each
    existential label takes the negation of its contradictory partner,
    which is what makes the contradiction sums come out at zero.
    """
    if q <= 0 or r <= 0:
        raise AssignmentError("q and r must be positive")
    if q == r:
        raise AssignmentError("q and r must be distinct")
    if q > r:
        raise AssignmentError("q must be the smaller magnitude")
    if universal_map not in UNIVERSAL_MAPS:
        raise AssignmentError(f"unknown universal map {universal_map!r}")
    if len(labels) != 4 or len(set(labels)) != 4:
        raise AssignmentError("a square assignment needs four distinct labels")
    la, le, li, lo = labels
    va = q if universal_map == A_LOW else r
    ve = r if universal_map == A_LOW else q
    values = {la: va, le: ve, li: -ve, lo: -va}
    roles = {
        la: Role.UNIVERSAL,
        le: Role.UNIVERSAL,
        li: Role.EXISTENTIAL,
        lo: Role.EXISTENTIAL,
    }
    return SegmentAssignment(labels, values, roles)


def extend_hexagon(
    e: SegmentAssignment, label_u: str = "U", label_y: str = "Y"
) -> SegmentAssignment:
    """Add the two distinct objects: sums of the universal and of the
    existential values.  The support stays symmetric because the two sums
    are negations of each other."""
    universals = e.labels_with_role(Role.UNIVERSAL)
    existentials = e.labels_with_role(Role.EXISTENTIAL)
    if len(e.labels) != 4 or len(universals) != 2 or len(existentials) != 2:
        raise ShapeError("hexagon extension starts from a square assignment")
    if label_u in e.labels or label_y in e.labels or label_u == label_y:
        raise AssignmentError("distinct-object labels collide")
    positive = sum(e.value(label) for label in universals)
    negative = sum(e.value(label) for label in existentials)
    labels = e.labels + (label_u, label_y)
    values = dict(e.values) | {label_u: positive, label_y: negative}
    roles = dict(e.roles) | {label_u: Role.DISJUNCTION, label_y: Role.CONJUNCTION}
    return SegmentAssignment(labels, values, roles)


# --- the clause tables ---


def _zero_sum_triple(e: SegmentAssignment, member_role: Role, completing: Role) -> frozenset:
    members = e.labels_with_role(member_role)
    completer = e.labels_with_role(completing)
    triple = frozenset(members + completer)
    if len(triple) == 3 and sum(e.value(label) for label in triple) == 0:
        return triple
    return frozenset()


def contrary_triple(e: SegmentAssignment) -> frozenset:
    """Universal labels plus the negative distinct object, when they sum
    to zero; pairwise contrary by the hexagon clauses."""
    return _zero_sum_triple(e, Role.UNIVERSAL, Role.CONJUNCTION)


def subcontrary_triple(e: SegmentAssignment) -> frozenset:
    """Existential labels plus the positive distinct object."""
    return _zero_sum_triple(e, Role.EXISTENTIAL, Role.DISJUNCTION)


Triples = tuple[frozenset, frozenset]  # the contrary, then the subcontrary triple
Fired = tuple[Relation, ...]
# One table row: from a pair's labels and values and the assignment's
# triples, the relations the row fires for the pair, in either direction.
Clause = Callable[[str, int, str, int, Triples], Fired]
Rows = tuple[Clause, ...]


def _sum_zero(a: str, va: int, b: str, vb: int, t: Triples) -> Fired:
    return (CONTRADICTORY,) if va + vb == 0 else ()


def _subaltern_by_order(a: str, va: int, b: str, vb: int, t: Triples) -> Fired:
    # same sign: the greater value is the subaltern
    if (va > 0) != (vb > 0):
        return ()
    return (subaltern(a, b),) if vb > va else (subaltern(b, a),)


def _subaltern_toward_negative(a: str, va: int, b: str, vb: int, t: Triples) -> Fired:
    if va + vb == 0:
        return ()
    toward_b = (subaltern(a, b),) if vb < 0 else ()
    return toward_b + (subaltern(b, a),) if va < 0 else toward_b


# Rows in precedence order; each table ends in rows that fire for every
# pair the earlier rows leave over.
CLAUSES: dict[ClauseSystem, Rows] = {
    ClauseSystem.SQUARE: (
        _sum_zero,
        lambda a, va, b, vb, t: (CONTRARY,) if va > 0 and vb > 0 else (),
        lambda a, va, b, vb, t: (SUBCONTRARY,) if va < 0 and vb < 0 else (),
        _subaltern_toward_negative,
    ),
    ClauseSystem.HEXAGON: (
        _sum_zero,
        lambda a, va, b, vb, t: (CONTRARY,) if a in t[0] and b in t[0] else (),
        lambda a, va, b, vb, t: (SUBCONTRARY,) if a in t[1] and b in t[1] else (),
        _subaltern_by_order,
        _subaltern_toward_negative,
    ),
}

_HEXAGON_ROLE_COUNTS = Counter(
    {Role.UNIVERSAL: 2, Role.EXISTENTIAL: 2, Role.DISJUNCTION: 1, Role.CONJUNCTION: 1}
)


def _check_shape(roles: Mapping[str, Role], cs: ClauseSystem) -> None:
    """Raise ShapeError unless the clause system can decode assignments
    with these roles: a symmetric support needs as many positive as
    negative labels, and the hexagon rows need the hexagon's six roles."""
    counts = Counter(roles.values())
    positives = sum(n for r, n in counts.items() if role_polarity(r) is Polarity.POSITIVE)
    if 2 * positives != len(roles):
        raise ShapeError("a symmetric support needs as many positive as negative labels")
    if cs is ClauseSystem.HEXAGON and counts != _HEXAGON_ROLE_COUNTS:
        raise ShapeError(
            "hexagon clauses need two universal and two existential labels "
            "plus one disjunction and one conjunction"
        )


def _rows_and_triples(e: SegmentAssignment, cs: ClauseSystem) -> tuple[Rows, Triples]:
    _check_shape(e.roles, cs)
    return CLAUSES[cs], (contrary_triple(e), subcontrary_triple(e))


def clause_matches(e: SegmentAssignment, cs: ClauseSystem, a: str, b: str) -> Fired:
    """Every relation the rows of ``CLAUSES[cs]`` fire for the pair, in
    table order and without precedence, so a subalternation row can
    appear alongside contrariety or subcontrariety."""
    if a == b:
        raise AssignmentError("relations hold between distinct labels")
    rows, triples = _rows_and_triples(e, cs)
    va, vb = e.value(a), e.value(b)
    return tuple(relation for row in rows for relation in row(a, va, b, vb, triples))


def decode_graph(e: SegmentAssignment, cs: ClauseSystem) -> OppositionGraph:
    """Decode every unordered pair to the first relation fired, scanning
    the rows of ``CLAUSES[cs]`` in order.  The hexagon rows need the two
    distinct objects, so they require the six-label hexagon shape."""
    rows, triples = _rows_and_triples(e, cs)
    edges = {}
    for a, b in combinations(e.labels, 2):
        va, vb = e.values[a], e.values[b]
        for row in rows:
            fired = row(a, va, b, vb, triples)
            if fired:
                edges[frozenset((a, b))] = fired[0]
                break
    return OppositionGraph(e.labels, edges)


# --- verification against the semantic oracle ---


@dataclass(frozen=True)
class Mismatch:
    a: str
    b: str
    decoded: Relation
    semantic: Relation


@dataclass(frozen=True)
class VerificationReport:
    """Pairwise comparison of a decoded graph with a semantic graph."""

    mismatches: tuple[Mismatch, ...]

    @property
    def matches(self) -> bool:
        return not self.mismatches

    def to_document(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "verification_report",
            "matches": self.matches,
            "mismatches": [
                {
                    "a": m.a,
                    "b": m.b,
                    "decoded": m.decoded.entry(),
                    "semantic": m.semantic.entry(),
                }
                for m in self.mismatches
            ],
        }


def verify_against(
    e: SegmentAssignment, cs: ClauseSystem, semantic: OppositionGraph
) -> VerificationReport:
    """Decode the assignment and compare it pairwise with the oracle graph."""
    if set(e.labels) != set(semantic.nodes):
        raise ValueError("assignment and semantic graph label different nodes")
    decoded = decode_graph(e, cs)
    mismatches = tuple(
        Mismatch(a, b, relation, semantic.relation(a, b))
        for a, b, relation in decoded.pairs()
        if relation != semantic.relation(a, b)
    )
    return VerificationReport(mismatches)


# --- bounded synthesis ---


def synthesize(
    target: OppositionGraph,
    cs: ClauseSystem,
    magnitude_bound: int,
    roles: Mapping[str, Role],
) -> list[SegmentAssignment]:
    """Exhaustively search for assignments that decode to the target graph.

    Candidates are all injective maps of the target labels to nonzero
    integers within the magnitude bound, over symmetric supports, with
    each label's polarity fixed by its role; hexagon candidates must
    additionally give each distinct object the sum of its components.
    An empty result is a proof that no encoding exists at this bound;
    roles that admit no candidate at all raise ShapeError instead.
    Results come in a canonical order: supports by ascending magnitude
    tuple, then positive and negative value rows lexicographically.
    """
    if magnitude_bound < 1:
        raise ValueError("magnitude bound must be at least 1")
    labels = target.nodes
    if set(roles) != set(labels):
        raise ValueError("roles must cover exactly the target labels")
    _check_shape(roles, cs)
    positive_labels = tuple(
        l for l in labels if role_polarity(roles[l]) is Polarity.POSITIVE
    )
    negative_labels = tuple(
        l for l in labels if role_polarity(roles[l]) is Polarity.NEGATIVE
    )
    sums = ()  # each distinct object with the labels it must be the sum of
    if cs is ClauseSystem.HEXAGON:
        with_role = {role: [l for l in labels if roles[l] is role] for role in Role}
        sums = (
            (with_role[Role.DISJUNCTION][0], with_role[Role.UNIVERSAL]),
            (with_role[Role.CONJUNCTION][0], with_role[Role.EXISTENTIAL]),
        )

    found: list[SegmentAssignment] = []
    for magnitudes in combinations(range(1, magnitude_bound + 1), len(positive_labels)):
        negatives = sorted(-m for m in magnitudes)
        for positive_row in permutations(magnitudes):
            for negative_row in permutations(negatives):
                values = dict(zip(positive_labels, positive_row))
                values.update(zip(negative_labels, negative_row))
                if any(values[d] != sum(values[l] for l in of) for d, of in sums):
                    continue
                candidate = SegmentAssignment(labels, values, dict(roles))
                if graph_equal(decode_graph(candidate, cs), target):
                    found.append(candidate)
    return found


def infer_role(s: Sentence) -> Role | None:
    """Polarity role of a sentence from its top-level syntax.

    Universal quantifications are universal statements, existential ones
    existential; negation dualizes; disjunctions and conjunctions are the
    distinct-object kinds.  Returns None where no role is derivable
    (implications).
    """
    if isinstance(s, Quantified):
        return Role.UNIVERSAL if s.quantifier == FORALL else Role.EXISTENTIAL
    if isinstance(s, Not):
        inner = infer_role(s.body)
        return None if inner is None else _DUAL_ROLE[inner]
    if isinstance(s, Or):
        return Role.DISJUNCTION
    if isinstance(s, And):
        return Role.CONJUNCTION
    return None
