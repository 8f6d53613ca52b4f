"""Independent correctness reference for the benchmark.

Nothing here imports the package under test.  Sentences are read with
this module's own parser for the README grammar (precedence
``~ > & > | > ->``, binary connectives left-associative, a quantifier
body extending as far as possible, ``A[P]``..``Y[P]`` sugar) and decided
by a truth evaluator over the nonempty sets of inhabited predicate
cells.  By Behmann's result for monadic logic without equality, truth
depends only on which of the ``2^k`` cells are inhabited, so the
``2^(2^k) - 1`` nonempty cell sets decide every pair exactly: 15 sets
at ``k = 2``, 255 at ``k = 3``.

The module also holds the paper's square and hexagon graphs and the
closed-form answers for synthesis on the hexagon.
"""

from __future__ import annotations

import re
from itertools import combinations

RELATION_KINDS = (
    "contradictory",
    "contrary",
    "subcontrary",
    "subaltern",
    "equivalent",
    "unconnected",
)

# --- parsing ---------------------------------------------------------------

_TOKEN = re.compile(r"\s*(->|[()\[\].~&|]|[A-Za-z_][A-Za-z0-9_]*)")
_BINARY = (("->", "implies"), ("|", "or"), ("&", "and"))
_QUANTIFIERS = ("forall", "exists")


class ReferenceParseError(ValueError):
    pass


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ReferenceParseError(f"bad character at {pos} in {text!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def _sugar(form: str, pred: str):
    atom = ("atom", pred)
    table = {
        "A": ("forall", atom),
        "E": ("forall", ("not", atom)),
        "I": ("exists", atom),
        "O": ("exists", ("not", atom)),
    }
    if form == "U":
        return ("or", table["A"], table["E"])
    if form == "Y":
        return ("and", table["I"], table["O"])
    return table[form]


class _Reader:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self, ahead: int = 0):
        j = self.i + ahead
        return self.toks[j] if j < len(self.toks) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ReferenceParseError(f"expected {expected!r}, found {tok!r}")
        self.i += 1
        return tok

    # One precedence climber serves both levels; ``unit`` reads the
    # operand below the binary connectives of that level.
    def binary(self, level: int, unit):
        if level == len(_BINARY):
            return unit()
        symbol, tag = _BINARY[level]
        node = self.binary(level + 1, unit)
        while self.peek() == symbol:
            self.take()
            node = (tag, node, self.binary(level + 1, unit))
        return node

    def sentence(self):
        return self.binary(0, self.sentence_unit)

    def sentence_unit(self):
        tok = self.peek()
        if tok == "~":
            self.take()
            return ("not", self.sentence_unit())
        if tok == "(":
            self.take()
            inner = self.sentence()
            self.take(")")
            return inner
        if tok in _QUANTIFIERS:
            self.take()
            var = self.take()
            self.take(".")
            return (tok, self.binary(0, lambda: self.matrix_unit(var)))
        if tok is not None and self.peek(1) == "[":
            self.take()
            self.take("[")
            pred = self.take()
            self.take("]")
            if tok not in "AEIOUY" or len(tok) != 1:
                raise ReferenceParseError(f"unknown sugar {tok!r}")
            return _sugar(tok, pred)
        raise ReferenceParseError(f"expected a sentence, found {tok!r}")

    def matrix_unit(self, var: str):
        tok = self.peek()
        if tok == "~":
            self.take()
            return ("not", self.matrix_unit(var))
        if tok == "(":
            self.take()
            inner = self.binary(0, lambda: self.matrix_unit(var))
            self.take(")")
            return inner
        pred = self.take()
        self.take("(")
        self.take(var)
        self.take(")")
        return ("atom", pred)


def parse_sentence(text: str):
    """Parse one sentence into a nested-tuple tree."""
    reader = _Reader(text)
    tree = reader.sentence()
    if reader.peek() is not None:
        raise ReferenceParseError(f"trailing {reader.peek()!r} in {text!r}")
    return tree


def parse_corpus(text: str) -> list[tuple[str, object]]:
    """``label: sentence`` lines; ``#`` comments and blank lines skipped."""
    entries = []
    for raw in text.split("\n"):
        line = raw.split("#", 1)[0]
        if line.strip():
            label, sentence = line.split(":", 1)
            entries.append((label.strip(), parse_sentence(sentence)))
    return entries


def predicates(tree) -> set[str]:
    if tree[0] == "atom":
        return {tree[1]}
    return set().union(*(predicates(child) for child in tree[1:]))


def quantifier_count(tree) -> int:
    if tree[0] == "atom":
        return 0
    own = 1 if tree[0] in _QUANTIFIERS else 0
    return own + sum(quantifier_count(child) for child in tree[1:])


# --- evaluation over inhabited-cell sets -------------------------------------
#
# A cell is a truth assignment to the k predicates, numbered by its bits.
# A model is a nonempty set of inhabited cells, numbered by its bits over
# the 2^k cells.  A sentence's truth over all models is one integer whose
# bit m is set when the sentence holds in model m (bit 0, the empty set,
# is never set).


def _cell_set(matrix, order: tuple[str, ...]) -> int:
    """Bitmask of the cells that satisfy a quantifier-free matrix."""
    tag = matrix[0]
    full = (1 << (1 << len(order))) - 1
    if tag == "atom":
        j = order.index(matrix[1])
        return sum(1 << c for c in range(1 << len(order)) if c >> j & 1)
    if tag == "not":
        return full & ~_cell_set(matrix[1], order)
    left, right = _cell_set(matrix[1], order), _cell_set(matrix[2], order)
    if tag == "and":
        return left & right
    if tag == "or":
        return left | right
    return (full & ~left) | right


def truth_vector(tree, order: tuple[str, ...]) -> int:
    models = range(1, 1 << (1 << len(order)))
    all_models = sum(1 << m for m in models)
    tag = tree[0]
    if tag in _QUANTIFIERS:
        cells = _cell_set(tree[1], order)
        if tag == "forall":
            return sum(1 << m for m in models if m & ~cells == 0)
        return sum(1 << m for m in models if m & cells)
    if tag == "not":
        return all_models & ~truth_vector(tree[1], order)
    left, right = truth_vector(tree[1], order), truth_vector(tree[2], order)
    if tag == "and":
        return left & right
    if tag == "or":
        return left | right
    return (all_models & ~left) | right


def relation(ta: int, tb: int, order: tuple[str, ...], names=("a", "b")) -> str:
    """Relation text for two truth vectors, in the CLI's wording.

    Equivalence is decided first, then contradiction, contrariety,
    subcontrariety and one-directional entailment, as the definitions in
    the package documentation fix them.
    """
    all_models = sum(1 << m for m in range(1, 1 << (1 << len(order))))
    both_true = ta & tb != 0
    both_false = all_models & ~ta & ~tb != 0
    a_to_b = ta & ~tb == 0
    b_to_a = tb & ~ta == 0
    if a_to_b and b_to_a:
        return "equivalent"
    if not both_true and not both_false:
        return "contradictory"
    if not both_true:
        return "contrary"
    if not both_false:
        return "subcontrary"
    if a_to_b:
        return f"subaltern({names[0]}->{names[1]})"
    if b_to_a:
        return f"subaltern({names[1]}->{names[0]})"
    return "unconnected"


def classify_texts(a: str, b: str) -> str:
    ta, tb = parse_sentence(a), parse_sentence(b)
    order = tuple(sorted(predicates(ta) | predicates(tb)))
    return relation(truth_vector(ta, order), truth_vector(tb, order), order)


def corpus_graph(text: str) -> dict[frozenset, str]:
    """Relation text for every unordered pair of a corpus, keyed by labels."""
    entries = parse_corpus(text)
    order = tuple(sorted(set().union(*(predicates(t) for _, t in entries))))
    vectors = {label: truth_vector(tree, order) for label, tree in entries}
    return {
        frozenset((la, lb)): relation(vectors[la], vectors[lb], order, (la, lb))
        for (la, _), (lb, _) in combinations(entries, 2)
    }


def relation_kind(text: str) -> str:
    return text.split("(", 1)[0]


# --- the paper's graphs --------------------------------------------------------

PAPER_SQUARE = {
    frozenset("AE"): "contrary",
    frozenset("AI"): "subaltern(A->I)",
    frozenset("AO"): "contradictory",
    frozenset("EI"): "contradictory",
    frozenset("EO"): "subaltern(E->O)",
    frozenset("IO"): "subcontrary",
}

# The hexagon adds U = A|E and Y = I&O: A, E, Y pairwise contrary; I, O, U
# pairwise subcontrary; U and Y contradictory; A and E entail U; Y
# entails I and O.
PAPER_HEXAGON = PAPER_SQUARE | {
    frozenset("AU"): "subaltern(A->U)",
    frozenset("EU"): "subaltern(E->U)",
    frozenset("IU"): "subcontrary",
    frozenset("OU"): "subcontrary",
    frozenset("AY"): "contrary",
    frozenset("EY"): "contrary",
    frozenset("IY"): "subaltern(Y->I)",
    frozenset("OY"): "subaltern(Y->O)",
    frozenset("UY"): "contradictory",
}


# --- synthesis on the hexagon ------------------------------------------------


def hexagon_solutions(magnitude: int) -> set[frozenset]:
    """Every assignment the hexagon clauses accept on the paper's hexagon.

    The universal labels take two distinct magnitudes a and e, each
    existential label the negation of its contradictory partner, and the
    distinct objects the sums; all values must stay within the bound.
    """
    return {
        frozenset({("A", a), ("E", e), ("I", -e), ("O", -a), ("U", a + e), ("Y", -a - e)})
        for a in range(1, magnitude + 1)
        for e in range(1, magnitude + 1)
        if a != e and a + e <= magnitude
    }


def hexagon_solution_count(magnitude: int) -> int:
    """``2 * #{(q, r) : 1 <= q < r, q + r <= M}``."""
    return 2 * sum(
        1 for q in range(1, magnitude + 1) for r in range(q + 1, magnitude + 1) if q + r <= magnitude
    )
