"""Oppositions between quantified sentences, by semantics and by integer segments.

The package classifies pairs of monadic first-order sentences into the
classical opposition relations by exhaustive finite-model enumeration,
and encodes the square of oppositions and its hexagonal extension as
assignments of integers on a one-dimensional segment, where the
relations are recovered from sign, sum, and order conditions.
"""

from .formula import (
    FORALL,
    EXISTS,
    FORMS,
    MIXED,
    UNIVERSAL_ONLY,
    EXISTENTIAL_ONLY,
    REPRESENTATIONS,
    Atom,
    And,
    Implies,
    MAnd,
    MImplies,
    MNot,
    MOr,
    Matrix,
    Not,
    Or,
    Quantified,
    Sentence,
    Vocabulary,
    make_categorical,
    print_sentence,
    sentence_predicates,
)
from .parser import Corpus, ParseError, parse_corpus, parse_sentence
from .graph import (
    CONTRADICTORY,
    CONTRARY,
    EQUIVALENT,
    SUBCONTRARY,
    UNCONNECTED,
    OppositionGraph,
    Relation,
    RelationKind,
    from_structured,
    graph_equal,
    render_segment,
    subaltern,
    to_dot,
    to_structured,
)
from .semantics import (
    Evidence,
    Model,
    VocabularyMismatchError,
    build_graph,
    classification_evidence,
    classify,
    default_bound,
    enumerate_models,
    evaluate,
)
from .segment import (
    A_HIGH,
    A_LOW,
    AssignmentError,
    CLAUSES,
    ClauseSystem,
    Mismatch,
    Polarity,
    Role,
    SegmentAssignment,
    ShapeError,
    VerificationReport,
    clause_matches,
    contrary_triple,
    decode_graph,
    extend_hexagon,
    infer_role,
    make_square_assignment,
    subcontrary_triple,
    synthesize,
    verify_against,
)

__version__ = "0.1.0"
