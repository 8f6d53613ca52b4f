"""Oppositions between quantified sentences, by semantics and by integer segments.

The package classifies pairs of monadic first-order sentences into the
classical opposition relations by checking every truth vector of their
quantifier leaves that a model within the bound realizes, and encodes
the square of oppositions and its hexagonal extension as assignments of
integers on a one-dimensional segment, where the relations are recovered
from sign, sum, and order conditions.

Importing the package imports none of its modules: each public name is
loaded from the submodule ``_EXPORTS`` names on first access (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> submodule that defines it
_EXPORTS = {
    "FORALL": "formula",
    "EXISTS": "formula",
    "REPRESENTATIONS": "formula",
    "Atom": "formula",
    "And": "formula",
    "Implies": "formula",
    "Not": "formula",
    "Or": "formula",
    "Quantified": "formula",
    "Sentence": "formula",
    "Vocabulary": "formula",
    "make_categorical": "formula",
    "print_sentence": "formula",
    "sentence_predicates": "formula",
    "A_HIGH": "formula",
    "A_LOW": "formula",
    "Corpus": "parser",
    "ParseError": "parser",
    "parse_corpus": "parser",
    "parse_sentence": "parser",
    "CONTRADICTORY": "semantics",
    "CONTRARY": "semantics",
    "SUBCONTRARY": "semantics",
    "UNCONNECTED": "semantics",
    "Relation": "semantics",
    "RelationKind": "semantics",
    "VocabularyMismatchError": "semantics",
    "build_graph": "semantics",
    "subaltern": "semantics",
    "Evidence": "pairs",
    "classification_evidence": "pairs",
    "classify": "pairs",
    "OppositionGraph": "graph",
    "from_structured": "reader",
    "graph_equal": "graph",
    "render_segment": "construction",
    "to_dot": "dot",
    "to_structured": "document",
    "AssignmentError": "segment",
    "ClauseSystem": "segment",
    "Role": "segment",
    "SegmentAssignment": "segment",
    "ShapeError": "segment",
    "clause_matches": "construction",
    "decode_graph": "construction",
    "extend_hexagon": "construction",
    "infer_role": "segment",
    "make_square_assignment": "construction",
    "synthesize": "segment",
    "verify_against": "construction",
}

__all__ = list(_EXPORTS)
_SUBMODULES = frozenset(_EXPORTS.values())


def __getattr__(name: str):
    if name in _SUBMODULES:  # a submodule not imported yet
        return import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
