"""Ground-truth classification of oppositions over quantifier-leaf vectors.

A *cell* is one truth assignment to the k predicates: cell c makes
predicate j true iff bit j of c is set.  Quantifiers never nest, so a
sentence is a boolean combination of leaves ``∃C`` (some element is in a
cell of C), reading ``∀D`` as ``¬∃(cells − D)``.  A vector of leaf truths
is realizable within n elements iff the cells outside every false leaf
are nonempty and at most n of them hit every true leaf (Behmann 1922,
made tight); these are the bitstrings of Smessaert & Demey (2014).  Each
sentence compiles to a mask with one bit per vector; a pair is classified
by bitwise algebra on two masks.  Domains are nonempty throughout.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable

from .formula import FORALL, Atom, Sentence, And, Implies, Not, Or, Quantified, Record
from .formula import Vocabulary, sentence_predicates
from .graph import CONTRADICTORY, CONTRARY, EQUIVALENT, SUBCONTRARY, UNCONNECTED
from .graph import OppositionGraph, Relation, subaltern
from .parser import Corpus

# The most vector-cell pairs decided; k <= 4 never reaches it (a vector is fixed by
# its set of inhabited cells, so 16 cells give at most 2^16 - 1 vectors).
_LIMIT = 1 << 24


class VocabularyMismatchError(ValueError):
    """A sentence uses predicates outside the vocabulary in force."""


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


def _compile(vocab: Vocabulary, sentences: Iterable[Sentence]) -> tuple[Callable, list[int]]:
    """The leaf function (C of ``∃C``, and whether negated) and the distinct C, in order."""
    cells = 1 << len(vocab)
    if cells > _LIMIT:
        raise ValueError(f"{len(vocab)} predicates give {cells:,} cells, past the "
                         f"oracle's limit of {_LIMIT:,} vector-cell pairs")
    atoms = {}  # cell c is in atom j iff bit j of c is set
    for j, p in enumerate(vocab.predicates):
        mask, width = ((1 << (1 << j)) - 1) << (1 << j), 2 << j  # 2^j clear bits, then 2^j set
        while width < cells:  # double the unit up to 2^k bits
            mask, width = mask | mask << width, 2 * width
        atoms[p] = mask
    full = (1 << cells) - 1

    def atom(s: Sentence) -> int:
        if not isinstance(s, Atom):
            raise TypeError(f"not a matrix: {s!r}")
        return atoms[s.predicate]

    # each leaf's answer by node identity, holding the node so that no other takes its id;
    # hashing a node instead would walk its whole tree again
    memo: dict[int, tuple[Sentence, tuple[int, bool]]] = {}

    def leaf(s: Sentence) -> tuple[int, bool]:
        if id(s) not in memo:
            if not isinstance(s, Quantified):
                raise TypeError(f"not a sentence: {s!r}")
            inside = _fold(s.matrix, atom, full)
            memo[id(s)] = s, (full ^ inside, True) if s.quantifier == FORALL else (inside, False)
        return memo[id(s)][1]

    seen: dict[int, int] = {}
    for s in sentences:  # a fold only to reach every leaf; its mask is dropped
        _fold(s, lambda q: seen.setdefault(leaf(q)[0], 0), 0)
    return leaf, list(seen)


def _realizable(allowed: int, true: tuple[int, ...], bound: int | None) -> bool:
    """Whether at most ``bound`` allowed cells hit every true leaf."""
    if not allowed or not all(c & allowed for c in true):
        return False
    if bound is None or bound >= len(true):
        return True
    # group allowed cells by the true leaves they hit; each pick hits the lowest unhit
    groups = [allowed]
    for c in true:
        groups = [part for g in groups for part in (g & c, g & ~c) if part]
    hits = [sum(1 << j for j, c in enumerate(true) if g & c) for g in groups]
    unhit = {(1 << len(true)) - 1}
    for _ in range(bound):
        unhit = {u & ~h for u in unhit for h in hits if h & u & -u}
        if 0 in unhit:
            return True
    return False


class _Vectors:
    """The leaf vectors realizable in models of at most ``max_size`` elements."""

    def __init__(self, vocab: Vocabulary, sentences: Iterable[Sentence], max_size: int | None):
        if max_size is not None and max_size < 1:
            raise ValueError("max_size must be at least 1")
        self._leaf, leaves = _compile(vocab, sentences)
        cells, count = 1 << len(vocab), 0
        digits = [bytearray() for _ in leaves]  # per leaf, a '0' or '1' per vector
        # set leaves true or false in turn; each surviving choice extends to a vector
        stack = [(0, (1 << cells) - 1, (), 0)]  # next leaf, allowed cells, true leaves, their bits
        while stack:
            i, allowed, true, bits = stack.pop()
            if not _realizable(allowed, true, max_size):
                continue
            if i < len(leaves):
                stack.append((i + 1, allowed & ~leaves[i], true, bits))
                stack.append((i + 1, allowed, true + (leaves[i],), bits | 1 << i))
                continue
            count += 1
            if count * cells > _LIMIT:
                raise ValueError(f"{len(vocab)} predicates give {count:,} or more leaf vectors "
                                 f"over {cells:,} cells, past the oracle's limit of {_LIMIT:,}")
            for j, d in enumerate(digits):
                d.append(48 | bits >> j & 1)  # ord("0") or ord("1")
        self.all = (1 << count) - 1
        self._masks = {}  # over vectors, for each leaf and its negation
        for c, d in zip(leaves, digits):
            self._masks[c, False] = mask = int(d, 2)
            self._masks[c, True] = self.all ^ mask

    def truth(self, s: Sentence) -> int:
        """Mask over vectors: bit v says whether the sentence holds under vector v."""
        return _fold(s, lambda q: self._masks[self._leaf(q)], self.all)

    def evidence(self, ta: int, tb: int) -> Evidence:
        """The classification flags of two truth masks."""
        return Evidence(ta & tb != 0, ta | tb != self.all, ta & ~tb == 0, tb & ~ta == 0)


class Evidence(Record):
    """A pair's four truth-combination flags, over every leaf vector that a
    model within the bound realizes."""

    __slots__ = ("both_true", "both_false", "first_entails_second", "second_entails_first")
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
    """The four classification flags over every model up to the bound."""
    vectors = _Vectors(_shared_vocabulary(a, b, vocab), (a, b), max_size)
    return vectors.evidence(vectors.truth(a), vectors.truth(b))


def exact_bound(sentences: list[Sentence]) -> int:
    """The least bound at which every answer over the sentences is exact."""
    vocab = Vocabulary(tuple({p: 0 for s in sentences for p in sentence_predicates(s)}))
    return min(1 << len(vocab), len(_compile(vocab, sentences)[1]))


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

    The corpus compiles once; a pair then costs one bitwise step.
    """
    if len(corpus) < 2:
        raise ValueError("a corpus needs at least two entries to build a graph")
    vectors = _Vectors(corpus.vocabulary, (s for _, s in corpus.entries), max_size)
    truths = [(label, vectors.truth(s)) for label, s in corpus.entries]
    edges = {}
    for (la, ta), (lb, tb) in combinations(truths, 2):
        edges[frozenset((la, lb))] = _relation(vectors.evidence(ta, tb), (la, lb))
    return OppositionGraph(corpus.labels, edges)
