"""Oppositions between quantified sentences, by semantics and by integer segments.

The package classifies pairs of monadic first-order sentences into the
classical opposition relations by checking every truth vector of their
quantifier leaves that a model within the bound realizes, and encodes
the square of oppositions and its hexagonal extension as assignments of
integers on a one-dimensional segment, where the relations are recovered
from sign, sum, and order conditions.
"""

from .formula import (
    FORALL,
    EXISTS,
    REPRESENTATIONS,
    Atom,
    And,
    Implies,
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
    VocabularyMismatchError,
    build_graph,
    classification_evidence,
    classify,
)
from .segment import (
    A_HIGH,
    A_LOW,
    AssignmentError,
    ClauseSystem,
    Role,
    SegmentAssignment,
    ShapeError,
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
