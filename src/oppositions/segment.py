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
decoding, clause listing and synthesis share that one row scan.

This module holds what ``encode`` and ``synthesize`` share, the search,
and ``synthesize``'s handler.  The construction, decoding and
verification live in ``construction``, which only ``encode`` loads; the
names that moved there are forwarded on first access, so that old imports
keep working.  ``graph`` compiles neither module.
"""

from collections import Counter
from collections.abc import Callable, Iterator, Mapping
from enum import Enum
from itertools import combinations, permutations
from math import comb
from types import SimpleNamespace

from .formula import FORALL, And, Not, Or, Quantified, Record, Sentence
from .graph import OppositionGraph, envelope
from .parser import Corpus
from .semantics import CONTRADICTORY, CONTRARY, SUBCONTRARY, Relation, subaltern


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
        return envelope("segment_assignment", labels=[
            {"label": label, "value": self.values[label], "role": self.roles[label].value}
            for label in self.labels
        ])


# --- a corpus's roles and clauses ---


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


def _fired(rows: Rows, a: str, va: int, b: str, vb: int, triples: Triples) -> Iterator[Relation]:
    """Every relation the rows fire for the pair, lazily and in table
    order; ``clause_matches`` lists them all, and decoding takes the first,
    which exists as each table's last rows fire on every pair left over."""
    for row in rows:
        yield from row(a, va, b, vb, triples)


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
                next(_fired(rows, a, values[a], b, values[b], triples)) == relation
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


def _cmd_synthesize(args: SimpleNamespace) -> tuple[int, str]:
    """``synthesize``'s handler, which ``cli.main`` runs; its CLI imports are
    local, so that the library loads no CLI code."""
    from .cli import EXIT_NO_RESULTS, EXIT_OK
    from .corpus_commands import _corpus_graph, _read_corpus

    corpus = _read_corpus(args.corpus)
    roles = corpus_roles(corpus)
    target = _corpus_graph(corpus, args.bound)
    clauses = clause_system(roles, args.clauses)
    magnitude = args.magnitude if args.magnitude is not None else len(corpus.labels)
    results = synthesize(target, clauses, magnitude, roles)
    code = EXIT_OK if results else EXIT_NO_RESULTS

    if args.format == "structured":
        from .document import dumps
        return code, dumps(envelope(
            "synthesis_result",
            clauses=clauses.value,
            magnitude_bound=magnitude,
            count=len(results),
            assignments=[e.to_document() for e in results],
        ))
    lines = [" ".join(f"{label}={e.values[label]}" for label in e.labels) for e in results]
    return code, "\n".join([*lines, f"found {len(results)}"])


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


# the names that moved to ``construction``, and A_LOW, which
# ``make_square_assignment``'s default names
_MOVED = frozenset({
    "make_square_assignment", "extend_hexagon", "corpus_assignment", "_triples", "clause_matches",
    "decode_graph", "Mismatch", "VerificationReport", "verify_against", "A_LOW",
})


def __getattr__(name: str):
    """A moved name, from ``construction``, loaded on first access (PEP 562)."""
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import construction
    return getattr(construction, name)
