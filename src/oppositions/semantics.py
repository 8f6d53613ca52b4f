"""Ground-truth classification of oppositions over quantifier-leaf vectors.

A *cell* is one truth assignment to the k predicates: cell c makes
predicate j true iff bit j of c is set.  Quantifiers never nest, so a
sentence is a boolean combination of leaves ``∃C`` (some element is in a
cell of C), reading ``∀D`` as ``¬∃(cells − D)``.  Cells in the same leaves
form a class; a model's vector of leaf truths is the OR of the signatures
(sets of leaves) of the classes it inhabits, so within n elements the
vectors are the ORs of at most n signatures: the bitstrings of Smessaert &
Demey (2014) over the partition the leaves induce.  Each sentence compiles
to a mask with one bit per vector; a pair is classified by bitwise algebra
on two masks.  Domains are nonempty throughout.

The relation types live here, with the oracle that produces them, and
``graph`` imports them; so ``classify`` compiles no graph code, and only
``build_graph`` imports ``graph``, when it builds one.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from enum import Enum
from itertools import combinations

from .formula import FORALL, Atom, Sentence, And, Implies, Not, Or, Quantified, Record
from .formula import Vocabulary, sentence_predicates
from .parser import Corpus

# The most vector-cell pairs decided; k <= 4 never reaches it (a vector is fixed by
# its set of inhabited cells, so 16 cells give at most 2^16 - 1 vectors).
_LIMIT = 1 << 24


class RelationKind(Enum):
    CONTRADICTORY = "contradictory"
    CONTRARY = "contrary"
    SUBCONTRARY = "subcontrary"
    SUBALTERN = "subaltern"
    EQUIVALENT = "equivalent"
    UNCONNECTED = "unconnected"


class Relation(Record):
    """One opposition relation; subalternation carries a direction."""

    __slots__ = ("kind", "source", "target")
    _defaults = {"source": None, "target": None}
    kind: RelationKind
    source: str | None
    target: str | None

    def __post_init__(self) -> None:
        directed = self.kind is RelationKind.SUBALTERN
        if directed and (self.source is None or self.target is None):
            raise ValueError("subaltern relations need a source and a target")
        if not directed and (self.source is not None or self.target is not None):
            raise ValueError(f"{self.kind.value} relations are undirected")

    def text(self) -> str:
        if self.kind is RelationKind.SUBALTERN:
            return f"subaltern({self.source}->{self.target})"
        return self.kind.value

    def entry(self) -> dict[str, str]:
        """The relation's fields in structured documents."""
        entry = {"relation": self.kind.value}
        if self.kind is RelationKind.SUBALTERN:
            entry["from"] = self.source
            entry["to"] = self.target
        return entry


CONTRADICTORY = Relation(RelationKind.CONTRADICTORY)
CONTRARY = Relation(RelationKind.CONTRARY)
SUBCONTRARY = Relation(RelationKind.SUBCONTRARY)
EQUIVALENT = Relation(RelationKind.EQUIVALENT)
UNCONNECTED = Relation(RelationKind.UNCONNECTED)


def subaltern(source: str, target: str) -> Relation:
    """Subalternation directed from superaltern to subaltern."""
    return Relation(RelationKind.SUBALTERN, source, target)


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

    def leaf(s: Sentence) -> tuple[int, bool]:
        if not isinstance(s, Quantified):
            raise TypeError(f"not a sentence: {s!r}")
        inside = _fold(s.matrix, atom, full)
        return (full ^ inside, True) if s.quantifier == FORALL else (inside, False)

    seen: dict[int, int] = {}
    for s in sentences:  # a fold only to reach every leaf; its mask is dropped
        _fold(s, lambda q: seen.setdefault(leaf(q)[0], 0), 0)
    return leaf, list(seen)


def _walk(leaves: list[int], cells: int, one: bool) -> Iterator[int]:
    """Each vector (bit i: leaf i holds) that a model realizes, or with
    ``one`` a one-element model: the signature of a class of cells."""
    stack = [(0, (1 << cells) - 1, (), 0)]  # next leaf, allowed cells, true leaves, their bits
    while stack:  # a choice survives iff some cell is allowed and each true leaf meets one
        i, allowed, true, bits = stack.pop()
        if not allowed or not all(c & allowed for c in true):
            continue
        if i == len(leaves):
            yield bits
        else:  # a false leaf's cells are never allowed; with ``one``, only a true leaf's are
            c = leaves[i]
            stack.append((i + 1, allowed & ~c, true, bits))
            stack.append((i + 1, allowed & c if one else allowed, true + (c,), bits | 1 << i))


def _within(leaves: list[int], cells: int, max_size: int) -> Iterator[int]:
    """Each vector realized within ``max_size`` elements: an OR of at most
    ``max_size`` signatures, found one element more at a time."""
    signatures = []
    for sig in _walk(leaves, cells, True):
        signatures.append(sig)
        yield sig
    seen, layer = set(signatures), signatures
    for _ in range(max_size - 1):
        new = []  # the vectors that need one element more than the last layer's
        for v in layer:
            found = {v | s for s in signatures} - seen
            seen |= found
            new += found
            yield from found
        layer = new


class _Vectors:
    """The leaf vectors realizable within ``max_size`` elements; only a bound below the
    leaves cuts (``exact_bound``).  The closure of class signatures finds them under a cut or
    over at most 16 cells, where its set of vectors stays small; else the unbounded walk does.
    Each vector is one row of leaf digits, and each leaf's mask is read down its column."""

    def __init__(self, vocab: Vocabulary, sentences: Iterable[Sentence], max_size: int | None):
        if max_size is not None and max_size < 1:
            raise ValueError("max_size must be at least 1")
        self._leaf, leaves = _compile(vocab, sentences)
        cells, count, width = 1 << len(vocab), 0, len(leaves)
        layers = len(leaves) if max_size is None else min(max_size, len(leaves))
        closure = cells <= 16 or layers < len(leaves)
        rows = bytearray()  # per vector, its binary digits over the leaves, leaf 0's last
        for bits in _within(leaves, cells, layers) if closure else _walk(leaves, cells, False):
            count += 1
            if count * cells > _LIMIT:  # under a bound, each class alone realizes a vector
                raise ValueError(f"{len(vocab)} predicates give {count:,} or more leaf vectors "
                                 f"over {cells:,} cells, past the oracle's limit of {_LIMIT:,}")
            rows += f"{bits:0{width}b}".encode()
        self.all = (1 << count) - 1
        self._masks = {}  # over vectors, for each leaf and its negation
        for j, c in enumerate(leaves):
            self._masks[c, False] = mask = int(rows[width - 1 - j :: width], 2)
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
            raise VocabularyMismatchError(f"predicates {sorted(set(missing))} not in the "
                                          "given vocabulary")
        return vocab
    if set(preds_a) != set(preds_b):
        raise VocabularyMismatchError("vocabulary mismatch: sentences use different predicates "
                                      f"({sorted(set(preds_a))} vs {sorted(set(preds_b))})")
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
    """min(2^k, distinct leaves), within which every realizable leaf vector is realized, so
    every answer from it on is exact; a smaller bound may be too.  A model keeps its vector
    on one element per class it inhabits, and there are at most 2^k classes.  It also keeps it
    on one element in each true leaf, as no false leaf gains one, and there are at most as many
    true leaves as distinct leaves; a vector with no true leaf needs one element."""
    vocab = Vocabulary(sentence_predicates(*sentences))
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
    so equivalent sentences are never subalterns of each other.  Sentences
    over different predicates raise VocabularyMismatchError unless ``vocab``
    holds the predicates of both.
    """
    return _relation(classification_evidence(a, b, max_size, vocab), names)


def build_graph(corpus: Corpus, max_size: int | None = None) -> OppositionGraph:
    """Classify every unordered pair of corpus sentences.

    The corpus compiles once; a pair then costs one bitwise step.
    """
    from .graph import OppositionGraph
    if len(corpus) < 2:
        raise ValueError("a corpus needs at least two entries to build a graph")
    vectors = _Vectors(corpus.vocabulary, (s for _, s in corpus.entries), max_size)
    truths = [(label, vectors.truth(s)) for label, s in corpus.entries]
    edges = {}
    for (la, ta), (lb, tb) in combinations(truths, 2):
        edges[frozenset((la, lb))] = _relation(vectors.evidence(ta, tb), (la, lb))
    return OppositionGraph(corpus.labels, edges)
