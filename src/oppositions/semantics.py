"""Ground-truth classification of oppositions over inhabited-cell patterns.

A *cell* is one truth assignment to the k predicates; a model's *pattern*
is the nonempty set of cells it inhabits.  In the monadic fragment
without equality a sentence's truth depends only on the pattern
(Behmann 1922).  Models of at most n elements have exactly the patterns
of at most n cells, so the bound n keeps those; the default 2^k keeps all
and decides every question.  Each sentence compiles once into a truth
mask with one bit per pattern, and the evidence for a pair is bitwise
algebra on two masks.  One connective fold compiles both levels: a
matrix into a mask over cells from its atoms, and a sentence into a mask
over patterns from its quantified matrices.  Domains are nonempty
throughout; the classical square collapses over the empty domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable

from .formula import (
    FORALL,
    Atom,
    Sentence,
    And,
    Implies,
    Not,
    Or,
    Quantified,
    Vocabulary,
    sentence_predicates,
)
from .graph import (
    CONTRADICTORY,
    CONTRARY,
    EQUIVALENT,
    SUBCONTRARY,
    UNCONNECTED,
    OppositionGraph,
    Relation,
    subaltern,
)
from .parser import Corpus

# The largest table the oracle lays out, in pattern-cell pairs: 2^20
# patterns at k = 4.  The table holds one bit per pair, and one byte per
# pair while it is built; the work of compiling a sentence grows with it.
_MAX_TABLE = 1 << 24


class VocabularyMismatchError(ValueError):
    """A sentence uses predicates outside the vocabulary in force."""


def default_bound(vocab: Vocabulary) -> int:
    """Domain bound 2^k, sound for the monadic fragment without equality."""
    return 2 ** len(vocab)


def _fold(s: Sentence, leaf: Callable[[Sentence], int], full: int) -> int:
    """Mask of a boolean combination of leaves, complemented within ``full``."""
    if isinstance(s, Not):
        return full ^ _fold(s.body, leaf, full)
    if isinstance(s, And):
        return _fold(s.left, leaf, full) & _fold(s.right, leaf, full)
    if isinstance(s, Or):
        return _fold(s.left, leaf, full) | _fold(s.right, leaf, full)
    if isinstance(s, Implies):
        return (full ^ _fold(s.left, leaf, full)) | _fold(s.right, leaf, full)
    return leaf(s)


class _Patterns:
    """The patterns of at most ``max_size`` cells (default 2^k, so all).

    Cell c makes the j-th predicate true iff bit j of c is set.  Patterns
    are numbered by size, then in ``itertools.combinations`` order.
    """

    def __init__(self, vocab: Vocabulary, max_size: int | None):
        if max_size is None:
            max_size = default_bound(vocab)
        if max_size < 1:
            raise ValueError("max_size must be at least 1")
        cells = 1 << len(vocab)
        largest = min(max_size, cells)
        count = 0
        for size in range(1, largest + 1):
            count += comb(cells, size)
            if count * cells > _MAX_TABLE:
                raise ValueError(
                    f"{len(vocab)} predicates at bound {max_size} need at least "
                    f"{count:,} inhabited-cell patterns over {cells:,} cells; the "
                    f"oracle lays out at most {_MAX_TABLE:,} pattern-cell pairs"
                )
        self.all = (1 << count) - 1
        self._atoms = {
            p: sum(1 << c for c in range(cells) if c >> j & 1)
            for j, p in enumerate(vocab.predicates)
        }
        self._full_cells = (1 << cells) - 1
        # one '0'/'1' digit per pattern, the last pattern first
        digits = [bytearray(b"0") * count for _ in range(cells)]
        i = count
        for size in range(1, largest + 1):
            for pattern in combinations(range(cells), size):
                i -= 1
                for c in pattern:
                    digits[c][i] = 49  # ord("1")
        # bit i of _inhabiting[c] says whether pattern i inhabits cell c
        self._inhabiting = [int(d, 2) for d in digits]

    def _atom(self, s: Sentence) -> int:
        """Mask over cells: bit c says whether the atom holds in cell c."""
        if not isinstance(s, Atom):
            raise TypeError(f"not a matrix: {s!r}")
        return self._atoms[s.predicate]

    def _quantified(self, s: Sentence) -> int:
        if not isinstance(s, Quantified):
            raise TypeError(f"not a sentence: {s!r}")
        cells = _fold(s.matrix, self._atom, self._full_cells)
        if s.quantifier == FORALL:
            return self.all ^ self._some(self._full_cells ^ cells)
        return self._some(cells)

    def _some(self, cells: int) -> int:
        """Mask over patterns: those inhabiting at least one of the cells."""
        mask = 0
        for c, inhabiting in enumerate(self._inhabiting):
            if cells >> c & 1:
                mask |= inhabiting
        return mask

    def truth(self, s: Sentence) -> int:
        """Mask over patterns: bit i says whether the sentence holds in pattern i."""
        return _fold(s, self._quantified, self.all)

    def evidence(self, ta: int, tb: int) -> Evidence:
        """The classification flags of two truth masks."""
        return Evidence(ta & tb != 0, ta | tb != self.all, ta & ~tb == 0, tb & ~ta == 0)


@dataclass(frozen=True)
class Evidence:
    """Truth-combination evidence gathered over all patterns in the bound."""

    both_true: bool
    both_false: bool
    first_entails_second: bool
    second_entails_first: bool


def _shared_vocabulary(a: Sentence, b: Sentence, vocab: Vocabulary | None) -> Vocabulary:
    preds_a = sentence_predicates(a)
    preds_b = sentence_predicates(b)
    if vocab is not None:
        missing = [p for p in preds_a + preds_b if p not in vocab]
        if missing:
            raise VocabularyMismatchError(
                f"predicates {sorted(set(missing))} not in the given vocabulary"
            )
        return vocab
    if set(preds_a) != set(preds_b):
        raise VocabularyMismatchError(
            f"sentences use different predicates ({sorted(set(preds_a))} vs "
            f"{sorted(set(preds_b))}); pass an explicit shared vocabulary"
        )
    return Vocabulary(preds_a)


def classification_evidence(
    a: Sentence,
    b: Sentence,
    max_size: int | None = None,
    vocab: Vocabulary | None = None,
) -> Evidence:
    """The four classification flags over every pattern up to the bound."""
    patterns = _Patterns(_shared_vocabulary(a, b, vocab), max_size)
    return patterns.evidence(patterns.truth(a), patterns.truth(b))


def _relation(ev: Evidence, names: tuple[str, str]) -> Relation:
    if ev.first_entails_second and ev.second_entails_first:
        return EQUIVALENT
    if not ev.both_true and not ev.both_false:
        return CONTRADICTORY
    if not ev.both_true:
        return CONTRARY
    if not ev.both_false:
        return SUBCONTRARY
    if ev.first_entails_second:
        return subaltern(names[0], names[1])
    if ev.second_entails_first:
        return subaltern(names[1], names[0])
    return UNCONNECTED


def classify(
    a: Sentence,
    b: Sentence,
    max_size: int | None = None,
    vocab: Vocabulary | None = None,
    names: tuple[str, str] = ("a", "b"),
) -> Relation:
    """Classify the opposition between two sentences.

    Equivalence is checked first: a pair of logical truths (or of
    falsehoods) satisfies the subcontrariety (resp. contrariety) evidence
    as well, and equivalence wins.  Subalternation requires genuine
    one-directional entailment between logically independent sentences,
    so equivalent sentences are never subalterns of each other.
    """
    return _relation(classification_evidence(a, b, max_size, vocab), names)


def build_graph(corpus: Corpus, max_size: int | None = None) -> OppositionGraph:
    """Classify every unordered pair of corpus sentences.

    Each sentence compiles once; a pair then costs one bitwise step.
    """
    if len(corpus) < 2:
        raise ValueError("a corpus needs at least two entries to build a graph")
    patterns = _Patterns(corpus.vocabulary, max_size)
    truths = [(label, patterns.truth(s)) for label, s in corpus.entries]
    edges = {}
    for (la, ta), (lb, tb) in combinations(truths, 2):
        edges[frozenset((la, lb))] = _relation(patterns.evidence(ta, tb), (la, lb))
    return OppositionGraph(corpus.labels, edges)
