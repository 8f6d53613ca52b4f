"""The square and hexagon construction on a segment, decoded and checked.

``make_square_assignment``, ``extend_hexagon`` and ``corpus_assignment``
build an assignment, ``decode_graph`` and ``verify_against`` check it
against the oracle by the rows of ``segment.CLAUSES``, and
``render_segment`` draws its number line.  Only ``encode`` runs them, and
its handler lives here, so no other command compiles this module.
"""

from itertools import combinations
from types import SimpleNamespace

from .formula import A_LOW, REPRESENTATIONS, UNIVERSAL_MAPS, And, Or, Record, make_categorical
from .graph import OppositionGraph, envelope
from .parser import Corpus
from .segment import _TRIPLE_ROLES, CLAUSES, AssignmentError, ClauseSystem, Fired, Role
from .segment import SegmentAssignment, ShapeError, Triples, _check_shape, _fired, clause_system
from .semantics import Relation

# The widest number line render_segment draws; each column costs about
# twenty bytes while it is built, so a span of 10^9 would need 80 GB.
MAX_SEGMENT_COLUMNS = 100_000


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
    positive = sum(e.value(label) for label in universals)
    negative = sum(e.value(label) for label in existentials)
    labels = e.labels + (label_u, label_y)
    values = dict(e.values) | {label_u: positive, label_y: negative}
    roles = dict(e.roles) | {label_u: Role.DISJUNCTION, label_y: Role.CONJUNCTION}
    return SegmentAssignment(labels, values, roles)


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


def _triples(e: SegmentAssignment) -> Triples:
    """Each triple of member labels and completing distinct object, or the
    empty set where there are not three such labels summing to zero."""
    triples = []
    for members, completing in _TRIPLE_ROLES:
        triple = frozenset(e.labels_with_role(members) + e.labels_with_role(completing))
        zero_sum = len(triple) == 3 and sum(e.values[label] for label in triple) == 0
        triples.append(triple if zero_sum else frozenset())
    return tuple(triples)


def clause_matches(e: SegmentAssignment, cs: ClauseSystem, a: str, b: str) -> Fired:
    """Every relation the rows of ``CLAUSES[cs]`` fire for the pair, in
    table order and without precedence, so a subalternation row can
    appear alongside contrariety or subcontrariety."""
    if a == b:
        raise AssignmentError("relations hold between distinct labels")
    _check_shape(e.roles, cs)
    return tuple(_fired(CLAUSES[cs], a, e.value(a), b, e.value(b), _triples(e)))


def decode_graph(e: SegmentAssignment, cs: ClauseSystem) -> OppositionGraph:
    """Decode every unordered pair to the first relation fired, scanning
    the rows of ``CLAUSES[cs]`` in order.  The hexagon rows need the two
    distinct objects, so they require the six-label hexagon shape."""
    _check_shape(e.roles, cs)
    rows, triples = CLAUSES[cs], _triples(e)
    return OppositionGraph(e.labels, (
        next(_fired(rows, a, e.values[a], b, e.values[b], triples))
        for a, b in combinations(e.labels, 2)
    ))


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
        return envelope("verification_report", matches=self.matches, mismatches=[
            {
                "a": m.a,
                "b": m.b,
                "decoded": m.decoded.entry(),
                "semantic": m.semantic.entry(),
            }
            for m in self.mismatches
        ])


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


def render_segment(assignment) -> str:
    """ASCII number line with each label at the column of its integer.

    Two lines: tick marks for every integer in the span with 0 singled
    out, then the labels at their positions.  A line wider than
    ``MAX_SEGMENT_COLUMNS`` raises ValueError before anything is built.
    """
    values = {label: assignment.values[label] for label in assignment.labels}
    lo = min(values.values())
    hi = max(values.values())
    unit = max(4, max(len(label) for label in values) + 1)
    width = (hi - lo) * unit + 1
    if width > MAX_SEGMENT_COLUMNS:
        raise ValueError(f"the number line would be {width} columns wide, "
                         f"above the limit of {MAX_SEGMENT_COLUMNS}")

    ticks = ["-"] * width
    for v in range(lo, hi + 1):
        ticks[(v - lo) * unit] = "0" if v == 0 else "+"

    labels = [" "] * (width + unit)
    for label in assignment.labels:
        col = (values[label] - lo) * unit
        for i, ch in enumerate(label):
            labels[col + i] = ch

    return "".join(ticks) + "\n" + "".join(labels).rstrip()


def _cmd_encode(args: SimpleNamespace) -> tuple[int, str]:
    """``encode``'s handler, which ``cli.main`` runs; its CLI imports are local,
    so that the library loads no CLI code."""
    from .cli import EXIT_MISMATCH, EXIT_OK
    from .corpus_commands import _corpus_graph, _read_corpus

    corpus = _read_corpus(args.corpus)
    assignment = corpus_assignment(corpus, args.q, args.r, args.universal_map)
    clauses = clause_system(assignment.roles, args.clauses)
    semantic = _corpus_graph(corpus, args.bound)
    report = verify_against(assignment, clauses, semantic)
    code = EXIT_OK if report.matches else EXIT_MISMATCH

    if args.format == "structured":
        from .document import dumps
        return code, dumps(envelope(
            "encoding_report",
            clauses=clauses.value,
            assignment=assignment.to_document(),
            verification=report.to_document(),
        ))
    if args.format == "dot":
        from .dot import to_dot
        return code, to_dot(decode_graph(assignment, clauses))
    lines = ["assignment:"]
    for label in assignment.labels:
        lines.append(f"  {label} = {assignment.values[label]} ({assignment.roles[label].value})")
    lines += ["", render_segment(assignment), ""]
    verdict = f"{len(report.mismatches)} mismatches" if report.mismatches else "matches"
    lines.append(f"verification: {verdict}")
    lines += [f"  {m.a} {m.b} decoded {m.decoded.text()}, semantic {m.semantic.text()}"
              for m in report.mismatches]
    return code, "\n".join(lines)
