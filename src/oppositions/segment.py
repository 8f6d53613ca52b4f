"""Integer line-segment encodings of opposition structures.

Labels are assigned distinct nonzero integers on a symmetric support
(every value appears with its negation).  A label's polarity is the sign
of its value, and the statement kind fixes it: universal statements and
disjunctions take positive values, existential statements and
conjunctions negative ones.  Relations are then decoded from sign,
sum-to-zero, and order conditions alone.

Two clause systems exist, each one ordered table of rows in ``CLAUSES``.
The square system decides every pair by contradiction (sum zero),
contrariety (both positive), subcontrariety (both negative), and
subalternation (toward the negative member).  The hexagon system
replaces the sign rows for contrariety and subcontrariety with zero-sum
triples completed by a distinct object, and puts an order row for
same-signed pairs before the square's subalternation row.  Decoding
takes the first relation fired, so every pair receives exactly one;
decoding and synthesis share that one pair scan.

Only this module knows which labels and forms make a categorical square
or hexagon corpus, its sentences' roles, and the clauses roles default to.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from itertools import combinations, permutations
from math import comb
from typing import Callable, Mapping

from .formula import FORALL, REPRESENTATIONS, Sentence, And, Not, Or, Quantified
from .formula import Record, make_categorical
from .graph import (  # A_HIGH, A_LOW and UNIVERSAL_MAPS are re-exported
    A_HIGH,
    A_LOW,
    CONTRADICTORY,
    CONTRARY,
    SUBCONTRARY,
    OppositionGraph,
    Relation,
    SCHEMA_VERSION,
    UNIVERSAL_MAPS,
    subaltern,
)
from .parser import Corpus


class Role(Enum):
    """Statement kind driving the polarity of the assigned integer."""

    UNIVERSAL = "universal"
    EXISTENTIAL = "existential"
    DISJUNCTION = "disjunction"
    CONJUNCTION = "conjunction"


# the roles whose values are positive; the others take negative values
_POSITIVE_ROLES = frozenset({Role.UNIVERSAL, Role.DISJUNCTION})

_DUAL_ROLE = {
    Role.UNIVERSAL: Role.EXISTENTIAL,
    Role.EXISTENTIAL: Role.UNIVERSAL,
    Role.DISJUNCTION: Role.CONJUNCTION,
    Role.CONJUNCTION: Role.DISJUNCTION,
}


class ClauseSystem(Enum):
    SQUARE = "square"
    HEXAGON = "hexagon"


class AssignmentError(ValueError):
    """A segment assignment violates a construction invariant."""


class ShapeError(ValueError):
    """An assignment does not have the shape an operation requires."""


class SegmentAssignment(Record):
    """Injective map from labels to nonzero integers on a symmetric support."""

    __slots__ = ("labels", "values", "roles")
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
            if (self.values[label] > 0) != (self.roles[label] in _POSITIVE_ROLES):
                raise AssignmentError(
                    f"label {label!r} has role {self.roles[label].value} but value "
                    f"{self.values[label]}"
                )

    def value(self, label: str) -> int:
        try:
            return self.values[label]
        except KeyError:
            raise AssignmentError(f"label {label!r} not assigned") from None

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


# --- categorical corpora ---


def corpus_assignment(corpus: Corpus, q: int, r: int, universal_map: str) -> SegmentAssignment:
    """The square assignment of a categorical corpus, extended for a hexagon.

    ShapeError names the first syntactic failure: labels other than A, E,
    I, O (plus U, Y), more than one predicate, a form in none of the three
    quantifier representations, or U not literally A | E or Y not I & O.
    Only then does ``make_square_assignment`` check the magnitudes.
    """
    labels = set(corpus.labels)
    hexagon = labels == set("AEIOUY")
    if not hexagon and labels != set("AEIO"):
        raise ShapeError(f"corpus labels {sorted(labels)} are not a categorical square or hexagon")
    if len(corpus.vocabulary) != 1:
        raise ShapeError("encoding expects a corpus over a single predicate")
    (predicate,) = corpus.vocabulary.predicates
    s = corpus.sentence
    for form in "AEIO":
        if s(form) not in (make_categorical(form, predicate, rep) for rep in REPRESENTATIONS):
            raise ShapeError(f"label {form} is not the categorical {form} form over {predicate}")
    if hexagon and s("U") != Or(s("A"), s("E")):
        raise ShapeError("label U must be the disjunction of A and E")
    if hexagon and s("Y") != And(s("I"), s("O")):
        raise ShapeError("label Y must be the conjunction of I and O")
    square = make_square_assignment(q, r, universal_map)
    return extend_hexagon(square) if hexagon else square


def corpus_roles(corpus: Corpus) -> dict[str, Role]:
    """Each label's ``infer_role``, or ShapeError for the first without one."""
    roles = {label: infer_role(sentence) for label, sentence in corpus.entries}
    missing = [label for label, role in roles.items() if role is None]
    if missing:
        raise ShapeError(f"cannot infer a polarity role for label {missing[0]!r}")
    return roles


def clause_system(roles: Mapping[str, Role], name: str | None = None) -> ClauseSystem:
    """The system ``name``, else the hexagon's if a label is a disjunction."""
    if name is not None:
        return ClauseSystem(name)
    return ClauseSystem.HEXAGON if Role.DISJUNCTION in roles.values() else ClauseSystem.SQUARE


# --- the clause tables ---


Triples = tuple[frozenset, frozenset]  # the contrary, then the subcontrary triple
# each triple's member role and the role of the distinct object completing it
_TRIPLE_ROLES = ((Role.UNIVERSAL, Role.CONJUNCTION), (Role.EXISTENTIAL, Role.DISJUNCTION))


def _triples(e: SegmentAssignment) -> Triples:
    """Each triple of member labels and completing distinct object, or the
    empty set where there are not three such labels summing to zero."""
    triples = []
    for members, completing in _TRIPLE_ROLES:
        triple = frozenset(e.labels_with_role(members) + e.labels_with_role(completing))
        zero_sum = len(triple) == 3 and sum(e.values[label] for label in triple) == 0
        triples.append(triple if zero_sum else frozenset())
    return tuple(triples)


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
# pair the earlier rows leave over.  Every row reads only four facts of a
# pair: the signs, which the roles fix; whether it sums to zero, which the
# matching of positive and negative values fixes, as magnitudes are
# distinct; triple membership, which the roles fix; and the order of values
# with the same sign, which the permutation of each row fixes, as a distinct
# object sits at the sum of its components and so above them.  synthesize
# decides each pair of permutations once on that ground, so a row that
# reads a magnitude has to change the search too.
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
    positives = sum(n for r, n in counts.items() if r in _POSITIVE_ROLES)
    if 2 * positives != len(roles):
        raise ShapeError("a symmetric support needs as many positive as negative labels")
    if cs is ClauseSystem.HEXAGON and counts != _HEXAGON_ROLE_COUNTS:
        raise ShapeError(
            "hexagon clauses need two universal and two existential labels "
            "plus one disjunction and one conjunction"
        )


def clause_matches(e: SegmentAssignment, cs: ClauseSystem, a: str, b: str) -> Fired:
    """Every relation the rows of ``CLAUSES[cs]`` fire for the pair, in
    table order and without precedence, so a subalternation row can
    appear alongside contrariety or subcontrariety."""
    if a == b:
        raise AssignmentError("relations hold between distinct labels")
    _check_shape(e.roles, cs)
    triples = _triples(e)
    va, vb = e.value(a), e.value(b)
    return tuple(relation for row in CLAUSES[cs] for relation in row(a, va, b, vb, triples))


def _decode_pair(rows: Rows, a: str, va: int, b: str, vb: int, triples: Triples) -> Relation:
    """The first relation the rows fire for the pair; the last rows of
    each table fire for every pair the earlier ones leave over."""
    for row in rows:
        fired = row(a, va, b, vb, triples)
        if fired:
            return fired[0]


def decode_graph(e: SegmentAssignment, cs: ClauseSystem) -> OppositionGraph:
    """Decode every unordered pair to the first relation fired, scanning
    the rows of ``CLAUSES[cs]`` in order.  The hexagon rows need the two
    distinct objects, so they require the six-label hexagon shape."""
    _check_shape(e.roles, cs)
    rows, triples = CLAUSES[cs], _triples(e)
    edges = {
        frozenset((a, b)): _decode_pair(rows, a, e.values[a], b, e.values[b], triples)
        for a, b in combinations(e.labels, 2)
    }
    return OppositionGraph(e.labels, edges)


# --- verification against the semantic oracle ---


class Mismatch(Record):
    __slots__ = ("a", "b", "decoded", "semantic")
    a: str
    b: str
    decoded: Relation
    semantic: Relation


class VerificationReport(Record):
    """Pairwise comparison of a decoded graph with a semantic graph."""

    __slots__ = ("mismatches",)
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

MAX_SOLUTIONS = 100_000  # the most assignments one synthesize call holds


def synthesize(
    target: OppositionGraph,
    cs: ClauseSystem,
    magnitude_bound: int,
    roles: Mapping[str, Role],
) -> list[SegmentAssignment]:
    """Every assignment within the magnitude bound that decodes to the target graph.

    Candidates are all injective maps of the target labels to nonzero
    integers within the magnitude bound, over symmetric supports, with
    each label's polarity fixed by its role.  Under hexagon clauses only
    the other labels are free, and each distinct object is placed at the
    sum of its components: magnitudes summing past the bound are skipped.
    A candidate is a support and a pair of permutations, one placing its
    magnitudes on the positive labels and one its negations on the
    negative labels.  The clause rows never read a magnitude (see
    ``CLAUSES``), so each pair of permutations is decoded once, on the
    least magnitudes, and only the pairs that decode to the target are
    built on each support.  When no pair does, the result is empty at
    every bound, and no support is visited; roles that admit no candidate
    at all raise ShapeError instead.  Each decoding pair gives one result
    per admitted support, so the count is known before any is built: past
    ``MAX_SOLUTIONS`` it raises ValueError.  Results come in a canonical
    order: supports by ascending magnitude tuple, then positive and
    negative value rows lexicographically.
    """
    if magnitude_bound < 1:
        raise ValueError("magnitude bound must be at least 1")
    labels = target.nodes
    if set(roles) != set(labels):
        raise ValueError("roles must cover exactly the target labels")
    _check_shape(roles, cs)
    with_role = {role: tuple(l for l in labels if roles[l] is role) for role in Role}
    sums = {}  # each distinct object with the labels it is the sum of
    if cs is ClauseSystem.HEXAGON:
        (u,), (y,) = with_role[Role.DISJUNCTION], with_role[Role.CONJUNCTION]
        sums = {u: with_role[Role.UNIVERSAL], y: with_role[Role.EXISTENTIAL]}
    free = tuple(l for l in labels if l not in sums)
    positive_labels = tuple(l for l in free if roles[l] in _POSITIVE_ROLES)
    negative_labels = tuple(l for l in free if roles[l] not in _POSITIVE_ROLES)
    # the placed sums make both triples sum to zero; the square rows never read them
    triples = tuple(frozenset(with_role[m] + with_role[c]) for m, c in _TRIPLE_ROLES)
    rows, pairs = CLAUSES[cs], tuple(target.pairs())

    # a support's values: permutation p of its magnitudes, q of their ascending negations
    def place(magnitudes: tuple[int, ...], p: tuple[int, ...], q: tuple[int, ...]) -> dict:
        negatives = sorted(-m for m in magnitudes)
        values = {l: magnitudes[i] for l, i in zip(positive_labels, p)}
        values.update({l: negatives[i] for l, i in zip(negative_labels, q)})
        values.update({d: sum(values[l] for l in of) for d, of in sums.items()})
        return values

    # Each pair of permutations is checked on the least support, pair by pair up to
    # the first mismatch, in the order permutations() yields the value rows.
    least = tuple(range(1, len(positive_labels) + 1))
    orders = tuple(permutations(range(len(positive_labels))))
    types = []
    for p in orders:
        for q in orders:
            values = place(least, p, q)
            if all(
                _decode_pair(rows, a, values[a], b, values[b], triples) == relation
                for a, b, relation in pairs
            ):
                types.append((p, q))
    if not types:
        return []
    # hexagon clauses leave two free magnitudes, m1 < m2 with m1 + m2 within the bound
    supports = (magnitude_bound - 1) ** 2 // 4 if sums else comb(magnitude_bound, len(least))
    if (count := len(types) * supports) > MAX_SOLUTIONS:
        raise ValueError(
            f"{count} assignments within magnitude {magnitude_bound} "
            f"pass the limit of {MAX_SOLUTIONS}"
        )
    found: list[SegmentAssignment] = []
    for magnitudes in combinations(range(1, magnitude_bound + 1), len(positive_labels)):
        if sums and sum(magnitudes) > magnitude_bound:
            continue
        found.extend(
            SegmentAssignment(labels, place(magnitudes, p, q), dict(roles)) for p, q in types
        )
    return found


def infer_role(s: Sentence) -> Role | None:
    """Role of a sentence, which fixes the sign of its value, from its top-level syntax.

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
