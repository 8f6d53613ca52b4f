"""Sentence language for opposition theory.

A sentence is either a single quantifier applied to a quantifier-free
monadic matrix, or a boolean combination of such sentences.  Both levels
share one node family: ``Atom`` and ``Quantified`` are the leaves, and
``Not``, ``And``, ``Or`` and ``Implies`` are the connectives of matrices
and sentences alike.  An atom belongs inside a quantifier and a
quantifier outside one; quantifiers never nest, since the disjunctive
and conjunctive corners of the hexagon only need top-level connectives.
"""

from __future__ import annotations

from dataclasses import dataclass

FORALL = "forall"
EXISTS = "exists"
QUANTIFIERS = (FORALL, EXISTS)

FORMS = ("A", "E", "I", "O", "U", "Y")

MIXED = "mixed"
UNIVERSAL_ONLY = "universal-only"
EXISTENTIAL_ONLY = "existential-only"
REPRESENTATIONS = (MIXED, UNIVERSAL_ONLY, EXISTENTIAL_ONLY)


@dataclass(frozen=True)
class Vocabulary:
    """Ordered collection of unary predicate names."""

    predicates: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.predicates:
            raise ValueError("vocabulary must contain at least one predicate")
        if len(set(self.predicates)) != len(self.predicates):
            raise ValueError("predicate names must be unique")
        for name in self.predicates:
            if not name or not name[0].isupper():
                raise ValueError(f"invalid predicate name: {name!r}")

    def __contains__(self, name: object) -> bool:
        return name in self.predicates

    def __len__(self) -> int:
        return len(self.predicates)

    @classmethod
    def of(cls, *names: str) -> "Vocabulary":
        return cls(tuple(names))


# --- one node family for matrices and sentences ---


class Sentence:
    """A node of a sentence or of the matrix under its quantifier; the
    fieldless base of the six node dataclasses, not one itself."""


@dataclass(frozen=True)
class Atom(Sentence):
    """A predicate applied to the bound variable; a leaf of a matrix."""

    predicate: str


@dataclass(frozen=True)
class Quantified(Sentence):
    """A quantifier over a matrix; a leaf of a sentence."""

    quantifier: str
    matrix: Sentence

    def __post_init__(self) -> None:
        if self.quantifier not in QUANTIFIERS:
            raise ValueError(f"unknown quantifier: {self.quantifier!r}")


@dataclass(frozen=True)
class Not(Sentence):
    body: Sentence


@dataclass(frozen=True)
class And(Sentence):
    left: Sentence
    right: Sentence


@dataclass(frozen=True)
class Or(Sentence):
    left: Sentence
    right: Sentence


@dataclass(frozen=True)
class Implies(Sentence):
    left: Sentence
    right: Sentence


def sentence_predicates(s: Sentence) -> tuple[str, ...]:
    """Predicate names used in a sentence or matrix, in first-occurrence order."""
    if isinstance(s, Atom):
        return (s.predicate,)
    if isinstance(s, Quantified):
        return sentence_predicates(s.matrix)
    if isinstance(s, Not):
        return sentence_predicates(s.body)
    if isinstance(s, (And, Or, Implies)):
        left = sentence_predicates(s.left)
        return left + tuple(p for p in sentence_predicates(s.right) if p not in left)
    raise TypeError(f"not a sentence: {s!r}")


def make_categorical(form: str, predicate: str, representation: str = MIXED) -> Sentence:
    """Build one of the six categorical forms over a unary predicate.

    A and E are the universal affirmative/negative, I and O the
    existential affirmative/negative.  U is the disjunction of A and E,
    Y the conjunction of I and O.  The representation picks between the
    mixed-quantifier wording and the single-quantifier wordings obtained
    through negation.
    """
    if form not in FORMS:
        raise ValueError(f"unknown form tag: {form!r}")
    if representation not in REPRESENTATIONS:
        raise ValueError(f"unknown representation tag: {representation!r}")

    if form == "U":
        return Or(
            make_categorical("A", predicate, representation),
            make_categorical("E", predicate, representation),
        )
    if form == "Y":
        return And(
            make_categorical("I", predicate, representation),
            make_categorical("O", predicate, representation),
        )

    phi = Atom(predicate)
    not_phi = Not(phi)
    if representation == MIXED:
        table = {
            "A": Quantified(FORALL, phi),
            "E": Quantified(FORALL, not_phi),
            "I": Quantified(EXISTS, phi),
            "O": Quantified(EXISTS, not_phi),
        }
    elif representation == UNIVERSAL_ONLY:
        table = {
            "A": Quantified(FORALL, phi),
            "E": Quantified(FORALL, not_phi),
            "I": Not(Quantified(FORALL, not_phi)),
            "O": Not(Quantified(FORALL, phi)),
        }
    else:
        table = {
            "A": Not(Quantified(EXISTS, not_phi)),
            "E": Not(Quantified(EXISTS, phi)),
            "I": Quantified(EXISTS, phi),
            "O": Quantified(EXISTS, not_phi),
        }
    return table[form]


# --- printing ---

# Precedence levels: -> is 1, | is 2, & is 3, ~ is 4, atoms and quantified
# sentences are 5.  Binary connectives are left-associative, so a right
# operand at the same level needs parentheses.  The parser reads the same
# table.

_NOT_LEVEL = 4
BINARY_CONNECTIVES = {And: ("&", 3), Or: ("|", 2), Implies: ("->", 1)}


def _print(s: Sentence, floor: int) -> str:
    if isinstance(s, Atom):
        return f"{s.predicate}(x)"
    if isinstance(s, Quantified):
        text = f"{s.quantifier} x. {_print(s.matrix, 0)}"
        # a quantifier body extends as far as possible, so any operand
        # position requires parentheses
        return f"({text})" if floor > 0 else text
    if isinstance(s, Not):
        return "~" + _print(s.body, _NOT_LEVEL)
    op, level = BINARY_CONNECTIVES[type(s)]
    text = f"{_print(s.left, level)} {op} {_print(s.right, level + 1)}"
    return f"({text})" if level < floor else text


def print_sentence(s: Sentence) -> str:
    """Render a sentence in the concrete syntax accepted by the parser."""
    return _print(s, 0)
