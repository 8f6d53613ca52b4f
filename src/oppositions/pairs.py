"""The two-sentence API, and ``classify``'s handler.

``classify`` and ``classification_evidence`` decide one pair of sentences
with the corpus oracle of ``semantics``, as a corpus of two entries.  Of
the commands only ``classify`` loads this module, so the corpus commands
compile none of it; ``semantics`` forwards these names on first access,
so that old imports keep working.
"""

from collections.abc import Iterator
from types import SimpleNamespace

from .formula import Record, Sentence, Vocabulary, sentence_predicates
from .parser import Corpus, ParseError, parse_sentence
from .semantics import Relation, VocabularyMismatchError, _Vectors, pair_relations


class Evidence(Record):
    """A pair's four truth-combination flags over every leaf vector realized within the bound."""

    __slots__ = ("both_true", "both_false", "first_entails_second", "second_entails_first")
    both_true: bool
    both_false: bool
    first_entails_second: bool
    second_entails_first: bool

    def __iter__(self) -> Iterator[bool]:
        return iter(self._values())  # so ``_relation`` reads it as ``_Vectors.flags``' tuple


def _pair(a: Sentence, b: Sentence, vocab: Vocabulary | None = None,
          names: tuple[str, str] = ("a", "b")) -> Corpus:
    """``a`` and ``b`` as a corpus over ``vocab``, or over their predicates if they share them."""
    preds_a, preds_b = sentence_predicates(a), sentence_predicates(b)
    if vocab is not None:
        missing = [p for p in preds_a + preds_b if p not in vocab]
        if missing:
            raise VocabularyMismatchError(f"predicates {sorted(set(missing))} not in the "
                                          "given vocabulary")
    elif set(preds_a) != set(preds_b):
        raise VocabularyMismatchError("vocabulary mismatch: sentences use different predicates "
                                      f"({sorted(set(preds_a))} vs {sorted(set(preds_b))})")
    return Corpus(((names[0], a), (names[1], b)), Vocabulary(preds_a) if vocab is None else vocab)


def classification_evidence(
    a: Sentence,
    b: Sentence,
    max_size: int | None = None,
    vocab: Vocabulary | None = None,
) -> Evidence:
    """The four classification flags over every model up to the bound."""
    vectors = _Vectors(_pair(a, b, vocab).vocabulary, (a, b), max_size)
    return Evidence(*vectors.flags(vectors.truth(a), vectors.truth(b)))


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
    return pair_relations(_pair(a, b, vocab, names), max_size)[0][0]


def _parse_sentence_arg(text: str, position: str) -> Sentence:
    try:
        return parse_sentence(text)
    except ParseError as err:
        raise ValueError(f"sentence {position}: {err}") from None


def _cmd_classify(args: SimpleNamespace) -> tuple[int, str]:
    """``classify``'s handler, which ``cli.main`` runs; its CLI imports are
    local, so that the library loads no CLI code."""
    from .cli import EXIT_OK, _note_if_cut_short

    a, b = _parse_sentence_arg(args.a, "a"), _parse_sentence_arg(args.b, "b")
    (relation,), cut = pair_relations(_pair(a, b), args.bound)
    _note_if_cut_short(args.bound, cut)
    return EXIT_OK, relation.text()
