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
``build_graph`` imports ``graph``, when it builds one.  The two-sentence
API, ``classify`` and ``classification_evidence``, lives in ``pairs``,
which only ``classify`` loads, so the corpus commands compile none of it;
its names are forwarded from here on first access, so that old imports
keep working.
"""

from collections.abc import Callable, Iterable, Iterator
from enum import Enum
from itertools import combinations

from .formula import FORALL, Atom, Sentence, And, Implies, Not, Or, Quantified, Record
from .formula import Vocabulary
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
    """Each vector realized within ``max_size`` elements, an OR of at most ``max_size``
    signatures, layer by layer; then, below the leaves, -1 if one layer more is not empty."""
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
    if max_size < len(leaves) and any(v | s not in seen for v in layer for s in signatures):
        yield -1


class _Vectors:
    """The leaf vectors realizable within ``max_size`` elements, and ``cut``: whether one needs
    more.  A model keeps its vector on one element per class it inhabits, of at most 2^k, and
    on one in each true leaf, as no false leaf gains one (on one if none is true); so no bound
    from min(2^k, distinct leaves) on cuts, and the layers stop at the leaves.  Under a bound
    below the leaves or over at most 16 cells, the closure of class signatures finds the vectors,
    and one layer more says if the bound cut (once a layer is empty, so is every later one); else
    the walk does.  Each vector is one row of leaf digits; a leaf's mask is read down its column."""

    def __init__(self, vocab: Vocabulary, sentences: Iterable[Sentence], max_size: int | None):
        if max_size is not None and max_size < 1:
            raise ValueError("max_size must be at least 1")
        self._leaf, leaves = _compile(vocab, sentences)
        cells, count, width, cut = 1 << len(vocab), 0, len(leaves), False
        layers = len(leaves) if max_size is None else min(max_size, len(leaves))
        closure = cells <= 16 or layers < len(leaves)
        rows = bytearray()  # per vector, its binary digits over the leaves, leaf 0's last
        for bits in _within(leaves, cells, layers) if closure else _walk(leaves, cells, False):
            if cut := bits < 0:  # the closure's last word: a vector needs one element more
                break
            count += 1
            if count * cells > _LIMIT:  # under a bound, each class alone realizes a vector
                raise ValueError(f"{len(vocab)} predicates give {count:,} or more leaf vectors "
                                 f"over {cells:,} cells, past the oracle's limit of {_LIMIT:,}")
            rows += f"{bits:0{width}b}".encode()
        self.all, self.cut = (1 << count) - 1, cut
        self._masks = {}  # over vectors, for each leaf and its negation
        for j, c in enumerate(leaves):
            self._masks[c, False] = mask = int(rows[width - 1 - j :: width], 2)
            self._masks[c, True] = self.all ^ mask

    def truth(self, s: Sentence) -> int:
        """Mask over vectors: bit v says whether the sentence holds under vector v."""
        return _fold(s, lambda q: self._masks[self._leaf(q)], self.all)

    def flags(self, ta: int, tb: int) -> tuple[bool, bool, bool, bool]:
        """The classification flags of two truth masks, in ``Evidence``'s field order."""
        return ta & tb != 0, ta | tb != self.all, ta & ~tb == 0, tb & ~ta == 0


def _relation(flags: tuple[bool, bool, bool, bool], names: tuple[str, str]) -> Relation:
    both_true, both_false, first_entails_second, second_entails_first = flags
    if first_entails_second and second_entails_first:
        return EQUIVALENT
    if not both_true and not both_false:
        return CONTRADICTORY
    if not both_true:
        return CONTRARY
    if not both_false:
        return SUBCONTRARY
    if first_entails_second:
        return subaltern(names[0], names[1])
    if second_entails_first:
        return subaltern(names[1], names[0])
    return UNCONNECTED


def pair_relations(corpus: Corpus,
                   max_size: int | None = None) -> tuple[tuple[Relation, ...], bool]:
    """Each pair's relation, in ``combinations(corpus.entries, 2)`` order, from one compile,
    and whether the bound cut, so that an answer may not be exact; with no pair, nothing is
    compiled, and a graph refuses the empty tuple for having fewer than two nodes."""
    if len(corpus.entries) < 2:
        return (), False
    vectors = _Vectors(corpus.vocabulary, (s for _, s in corpus.entries), max_size)
    truths = [(label, vectors.truth(s)) for label, s in corpus.entries]
    return tuple(
        _relation(vectors.flags(ta, tb), (la, lb)) for (la, ta), (lb, tb) in combinations(truths, 2)
    ), vectors.cut


def build_graph(corpus: Corpus, max_size: int | None = None) -> "OppositionGraph":
    """Classify every unordered pair of corpus sentences, compiled once."""
    from .graph import OppositionGraph
    return OppositionGraph(corpus.labels, pair_relations(corpus, max_size)[0])


# the two-sentence API, which moved to ``pairs``
_MOVED = frozenset({"_pair", "Evidence", "classification_evidence", "classify"})


def __getattr__(name: str):
    """A moved name, from ``pairs``, loaded on first access (PEP 562)."""
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import pairs
    return getattr(pairs, name)
