import functools
import itertools
import random
from collections import Counter
import tracemalloc
from dataclasses import dataclass
from math import comb
from typing import Iterator, Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oppositions import (
    EXISTS,
    FORALL,
    REPRESENTATIONS,
    And,
    Atom,
    Corpus,
    Evidence,
    Implies,
    Not,
    Or,
    Quantified,
    RelationKind,
    Sentence,
    Vocabulary,
    VocabularyMismatchError,
    build_graph,
    classification_evidence,
    classify,
    graph_equal,
    make_categorical,
    parse_corpus,
    parse_sentence,
    subaltern,
)
from oppositions.formula import FORMS
from oppositions import semantics
from oppositions.formula import sentence_predicates
from oppositions.semantics import _compile, _relation, pair_relations
from conftest import sentence_strategy

VP = Vocabulary.of("P")


def sent(text):
    return parse_sentence(text)


# --- the finite-model enumerator the pattern oracle replaced ---------------
# Frozen here as the differential reference: it walks both sentence trees in
# every model of every size up to the bound.


@dataclass(frozen=True)
class Model:
    """Finite structure: domain {0..n-1} plus an extension per predicate."""

    domain_size: int
    extensions: Mapping[str, frozenset[int]]

    def __post_init__(self) -> None:
        if self.domain_size < 1:
            raise ValueError("domains are nonempty")
        for name, ext in self.extensions.items():
            if not ext <= frozenset(range(self.domain_size)):
                raise ValueError(f"extension of {name!r} outside the domain")


def _subsets(n: int) -> Iterator[frozenset[int]]:
    # binary-counter order: element j present iff bit j is set
    for bits in range(1 << n):
        yield frozenset(i for i in range(n) if bits >> i & 1)


def enumerate_models(vocab: Vocabulary, max_size: int) -> Iterator[Model]:
    """Every model with domain size 1..max_size, in deterministic order."""
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    for n in range(1, max_size + 1):
        for extensions in itertools.product(*(_subsets(n) for _ in vocab.predicates)):
            yield Model(n, dict(zip(vocab.predicates, extensions)))


def _eval_matrix(m: Sentence, model: Model, element: int) -> bool:
    if isinstance(m, Atom):
        try:
            return element in model.extensions[m.predicate]
        except KeyError:
            raise VocabularyMismatchError(
                f"predicate {m.predicate!r} not in the model vocabulary"
            ) from None
    if isinstance(m, Not):
        return not _eval_matrix(m.body, model, element)
    if isinstance(m, And):
        return _eval_matrix(m.left, model, element) and _eval_matrix(m.right, model, element)
    if isinstance(m, Or):
        return _eval_matrix(m.left, model, element) or _eval_matrix(m.right, model, element)
    if isinstance(m, Implies):
        return not _eval_matrix(m.left, model, element) or _eval_matrix(
            m.right, model, element
        )
    raise TypeError(f"not a matrix: {m!r}")


def evaluate(model: Model, s: Sentence) -> bool:
    """Tarskian truth of a closed sentence in a finite model."""
    if isinstance(s, Quantified):
        elements = range(model.domain_size)
        if s.quantifier == FORALL:
            return all(_eval_matrix(s.matrix, model, e) for e in elements)
        return any(_eval_matrix(s.matrix, model, e) for e in elements)
    if isinstance(s, Not):
        return not evaluate(model, s.body)
    if isinstance(s, And):
        return evaluate(model, s.left) and evaluate(model, s.right)
    if isinstance(s, Or):
        return evaluate(model, s.left) or evaluate(model, s.right)
    if isinstance(s, Implies):
        return not evaluate(model, s.left) or evaluate(model, s.right)
    raise TypeError(f"not a sentence: {s!r}")


def reference_evidence(a, b, max_size, vocab):
    both_true = both_false = False
    ab = ba = True
    for model in enumerate_models(vocab, max_size):
        va = evaluate(model, a)
        vb = evaluate(model, b)
        both_true = both_true or (va and vb)
        both_false = both_false or (not va and not vb)
        ab = ab and (vb or not va)
        ba = ba and (va or not vb)
    return Evidence(both_true, both_false, ab, ba)


# --- the pattern oracle the leaf-vector oracle replaced --------------------
# Frozen here as a second differential reference: one bit per inhabited-cell
# pattern of at most ``max_size`` cells.  A table depends only on the
# vocabulary and the bound, so each is laid out once per session.


def _frozen_fold(s, leaf, full):
    if isinstance(s, Not):
        return full ^ _frozen_fold(s.body, leaf, full)
    if isinstance(s, And):
        return _frozen_fold(s.left, leaf, full) & _frozen_fold(s.right, leaf, full)
    if isinstance(s, Or):
        return _frozen_fold(s.left, leaf, full) | _frozen_fold(s.right, leaf, full)
    if isinstance(s, Implies):
        return (full ^ _frozen_fold(s.left, leaf, full)) | _frozen_fold(s.right, leaf, full)
    return leaf(s)


class FrozenPatterns:
    """The patterns of at most ``max_size`` cells (default 2^k, so all)."""

    def __init__(self, vocab, max_size):
        cells = 1 << len(vocab)
        largest = min(max_size or cells, cells)
        count = sum(comb(cells, size) for size in range(1, largest + 1))
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
            for pattern in itertools.combinations(range(cells), size):
                i -= 1
                for c in pattern:
                    digits[c][i] = 49  # ord("1")
        # bit i of _inhabiting[c] says whether pattern i inhabits cell c
        self._inhabiting = [int(d, 2) for d in digits]

    def _atom(self, s):
        return self._atoms[s.predicate]

    def _quantified(self, s):
        cells = _frozen_fold(s.matrix, self._atom, self._full_cells)
        if s.quantifier == FORALL:
            return self.all ^ self._some(self._full_cells ^ cells)
        return self._some(cells)

    def _some(self, cells):
        mask = 0
        for c, inhabiting in enumerate(self._inhabiting):
            if cells >> c & 1:
                mask |= inhabiting
        return mask

    def truth(self, s):
        return _frozen_fold(s, self._quantified, self.all)

    def evidence(self, ta, tb):
        return Evidence(ta & tb != 0, ta | tb != self.all, ta & ~tb == 0, tb & ~ta == 0)


@functools.lru_cache(maxsize=None)
def frozen_patterns(vocab, max_size):
    return FrozenPatterns(vocab, max_size)


def pattern_evidence(a, b, max_size, vocab):
    patterns = frozen_patterns(vocab, max_size)
    return patterns.evidence(patterns.truth(a), patterns.truth(b))


# --- the leaf-vector walk the class-signature closure replaced ------------
# Frozen here as a third differential reference, one that reaches k = 5:
# every node of a bounded walk runs a fresh cover search over groups of the
# allowed cells.  It reads leaves through the live ``_compile``, which the
# enumerator and the pattern table check.


def _frozen_realizable(allowed, true, bound):
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


class FrozenWalk:
    """The leaf vectors the walk kept within ``max_size`` elements."""

    def __init__(self, vocab, sentences, max_size):
        self._leaf, leaves = _compile(vocab, sentences)
        cells, count = 1 << len(vocab), 0
        digits = [bytearray() for _ in leaves]
        stack = [(0, (1 << cells) - 1, (), 0)]  # next leaf, allowed cells, true leaves, their bits
        while stack:
            i, allowed, true, bits = stack.pop()
            if not _frozen_realizable(allowed, true, max_size):
                continue
            if i < len(leaves):
                stack.append((i + 1, allowed & ~leaves[i], true, bits))
                stack.append((i + 1, allowed, true + (leaves[i],), bits | 1 << i))
                continue
            count += 1
            for j, d in enumerate(digits):
                d.append(48 | bits >> j & 1)
        self.all = (1 << count) - 1
        self._masks = {}
        for c, d in zip(leaves, digits):
            self._masks[c, False] = mask = int(d, 2)
            self._masks[c, True] = self.all ^ mask

    def truth(self, s):
        return _frozen_fold(s, lambda q: self._masks[self._leaf(q)], self.all)

    def evidence(self, ta, tb):
        return Evidence(ta & tb != 0, ta | tb != self.all, ta & ~tb == 0, tb & ~ta == 0)


def walk_evidence(a, b, max_size, vocab):
    walk = FrozenWalk(vocab, (a, b), max_size)
    return walk.evidence(walk.truth(a), walk.truth(b))


def cell_matrix(cell, predicates):
    """The matrix that holds of exactly one cell: bit j of it sets predicate j."""
    return " & ".join(f"{'' if cell >> j & 1 else '~'}{p}(x)" for j, p in enumerate(predicates))


class TestEnumeration:
    def test_one_predicate_size_one(self):
        assert sum(1 for _ in enumerate_models(VP, 1)) == 2

    def test_count_formula(self):
        # sum over n of 2^(k*n)
        for names, max_size in [(("P",), 2), (("P",), 3), (("P", "Q"), 1), (("P", "Q"), 2)]:
            vocab = Vocabulary(names)
            expected = sum(2 ** (len(names) * n) for n in range(1, max_size + 1))
            assert sum(1 for _ in enumerate_models(vocab, max_size)) == expected

    def test_two_predicates_size_one(self):
        assert sum(1 for _ in enumerate_models(Vocabulary.of("P", "Q"), 1)) == 4

    def test_deterministic_order(self):
        first = list(enumerate_models(Vocabulary.of("P", "Q"), 2))
        second = list(enumerate_models(Vocabulary.of("P", "Q"), 2))
        assert first == second

    def test_sizes_ascend(self):
        sizes = [m.domain_size for m in enumerate_models(VP, 3)]
        assert sizes == sorted(sizes)

    def test_rejects_zero_bound(self):
        with pytest.raises(ValueError):
            list(enumerate_models(VP, 0))


class TestEvaluate:
    def test_full_extension_satisfies_universal(self):
        m = Model(2, {"P": frozenset({0, 1})})
        assert evaluate(m, sent("forall x. P(x)"))

    def test_mixed_extension(self):
        m = Model(2, {"P": frozenset({0})})
        assert not evaluate(m, sent("forall x. P(x)"))
        assert evaluate(m, sent("exists x. P(x)"))

    def test_empty_extension(self):
        m = Model(1, {"P": frozenset()})
        assert evaluate(m, sent("exists x. ~P(x)"))

    def test_boolean_connectives(self):
        m = Model(2, {"P": frozenset({0})})
        assert evaluate(m, sent("I[P] & O[P]"))
        assert evaluate(m, sent("A[P] -> E[P]"))  # false antecedent
        assert not evaluate(m, sent("~I[P] | A[P]"))

    def test_unknown_predicate(self):
        m = Model(1, {"P": frozenset()})
        with pytest.raises(VocabularyMismatchError):
            evaluate(m, sent("exists x. Q(x)"))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            Model(0, {"P": frozenset()})
        with pytest.raises(ValueError):
            Model(1, {"P": frozenset({3})})


class TestLeafGuards:
    """Atoms and quantifiers share one node family; each level refuses the other's leaf."""

    def test_atom_outside_a_quantifier(self):
        with pytest.raises(TypeError, match="not a sentence"):
            classify(Atom("P"), sent("A[P]"))

    def test_quantifier_inside_a_matrix(self):
        nested = Quantified(FORALL, Quantified(EXISTS, Atom("P")))
        with pytest.raises(TypeError, match="not a matrix"):
            classify(nested, sent("A[P]"))


class TestClassify:
    def test_square_relations(self):
        assert classify(sent("A[P]"), sent("O[P]"), 2).kind is RelationKind.CONTRADICTORY
        assert classify(sent("A[P]"), sent("E[P]"), 2).kind is RelationKind.CONTRARY
        assert classify(sent("I[P]"), sent("O[P]"), 2).kind is RelationKind.SUBCONTRARY
        assert classify(sent("A[P]"), sent("I[P]"), 2) == subaltern("a", "b")

    def test_bound_below_one_refused(self):
        with pytest.raises(ValueError, match="^max_size must be at least 1$"):
            classification_evidence(sent("A[P]"), sent("O[P]"), max_size=0)

    def test_identity_is_equivalent(self):
        for form in FORMS:
            s = make_categorical(form, "P")
            assert classify(s, s, 2).kind is RelationKind.EQUIVALENT

    def test_hexagon_relations_at_bound_three(self):
        assert classify(sent("A[P]"), sent("U[P]"), 3) == subaltern("a", "b")
        assert classify(sent("Y[P]"), sent("I[P]"), 3) == subaltern("a", "b")
        assert classify(sent("U[P]"), sent("Y[P]"), 3).kind is RelationKind.CONTRADICTORY

    def test_default_bound_used_when_omitted(self):
        assert classify(sent("U[P]"), sent("I[P]")).kind is RelationKind.SUBCONTRARY

    def test_unconnected_pair(self):
        vocab = Vocabulary.of("P", "Q")
        relation = classify(sent("A[P]"), sent("O[Q]"), 2, vocab)
        assert relation.kind is RelationKind.UNCONNECTED

    def test_vocabulary_mismatch_without_explicit_vocab(self):
        with pytest.raises(VocabularyMismatchError):
            classify(sent("A[P]"), sent("A[Q]"))

    def test_explicit_vocab_must_cover_sentences(self):
        with pytest.raises(VocabularyMismatchError):
            classify(sent("A[P]"), sent("A[P]"), 2, Vocabulary.of("Q"))

    def test_representation_invariance(self):
        for form in ("A", "E", "I", "O"):
            for r1, r2 in itertools.combinations(REPRESENTATIONS, 2):
                s1 = make_categorical(form, "P", r1)
                s2 = make_categorical(form, "P", r2)
                assert classify(s1, s2, 2).kind is RelationKind.EQUIVALENT, (form, r1, r2)

    def test_degenerate_tautology_pair_is_equivalent(self):
        # both always true: subcontrariety evidence also holds, equivalence wins
        taut = sent("I[P] | O[P]")
        assert classify(taut, sent("A[P] | O[P]"), 2).kind is RelationKind.EQUIVALENT

    def test_degenerate_contradiction_pair_is_equivalent(self):
        falsum = sent("A[P] & O[P]")
        assert classify(falsum, sent("E[P] & I[P]"), 2).kind is RelationKind.EQUIVALENT


SMALL = sentence_strategy(("P",))


class TestClassifyProperties:
    @settings(max_examples=60, deadline=None)
    @given(SMALL, SMALL)
    def test_symmetry(self, a, b):
        forward = classify(a, b, 2, VP)
        backward = classify(b, a, 2, VP)
        if forward.kind is RelationKind.SUBALTERN:
            assert backward == subaltern(
                "b" if forward.source == "a" else "a",
                "b" if forward.target == "a" else "a",
            )
        else:
            assert forward == backward

    @settings(max_examples=60, deadline=None)
    @given(SMALL, SMALL)
    def test_exactly_one_tag_condition(self, a, b):
        ev = classification_evidence(a, b, 2, VP)
        conditions = [
            ev.first_entails_second and ev.second_entails_first,
            not ev.both_true and not ev.both_false,
            not ev.both_true and ev.both_false
            and not (ev.first_entails_second and ev.second_entails_first),
            ev.both_true and not ev.both_false
            and not (ev.first_entails_second and ev.second_entails_first),
            ev.both_true and ev.both_false
            and ev.first_entails_second != ev.second_entails_first,
            ev.both_true and ev.both_false
            and not ev.first_entails_second and not ev.second_entails_first,
        ]
        assert sum(conditions) == 1

    @settings(max_examples=60, deadline=None)
    @given(SMALL, SMALL)
    def test_contradiction_law(self, a, b):
        is_contradictory = classify(a, b, 2, VP).kind is RelationKind.CONTRADICTORY
        negation_equivalent = classify(a, Not(b), 2, VP).kind is RelationKind.EQUIVALENT
        assert is_contradictory == negation_equivalent

    @settings(max_examples=40, deadline=None)
    @given(SMALL, SMALL, st.integers(min_value=1, max_value=3))
    def test_monotone_evidence(self, a, b, bound):
        at_n = classification_evidence(a, b, bound, VP)
        at_next = classification_evidence(a, b, bound + 1, VP)
        # witnesses only accumulate; entailments only break
        assert at_next.both_true >= at_n.both_true
        assert at_next.both_false >= at_n.both_false
        assert at_next.first_entails_second <= at_n.first_entails_second
        assert at_next.second_entails_first <= at_n.second_entails_first


class TestBuildGraph:
    def test_square_graph_shape(self, oracle_square):
        counts = Counter(relation.kind for _, _, relation in oracle_square.pairs())
        assert counts[RelationKind.CONTRADICTORY] == 2
        assert counts[RelationKind.CONTRARY] == 1
        assert counts[RelationKind.SUBCONTRARY] == 1
        assert counts[RelationKind.SUBALTERN] == 2
        assert oracle_square.relation("A", "I") == subaltern("A", "I")
        assert oracle_square.relation("E", "O") == subaltern("E", "O")

    def test_hexagon_graph_shape(self, oracle_hexagon):
        counts = Counter(relation.kind for _, _, relation in oracle_hexagon.pairs())
        assert counts[RelationKind.CONTRADICTORY] == 3
        assert counts[RelationKind.CONTRARY] == 3
        assert counts[RelationKind.SUBCONTRARY] == 3
        assert counts[RelationKind.SUBALTERN] == 6
        for pair in (("A", "E"), ("A", "Y"), ("E", "Y")):
            assert oracle_hexagon.relation(*pair).kind is RelationKind.CONTRARY
        for pair in (("I", "O"), ("I", "U"), ("O", "U")):
            assert oracle_hexagon.relation(*pair).kind is RelationKind.SUBCONTRARY
        for source, target in [
            ("A", "I"), ("E", "O"), ("A", "U"), ("E", "U"), ("Y", "I"), ("Y", "O"),
        ]:
            assert oracle_hexagon.relation(source, target) == subaltern(source, target)

    def test_equivalent_pair_corpus(self):
        corpus = parse_corpus("A: A[P]\nA-copy: forall x. P(x)")
        graph = build_graph(corpus, 2)
        assert graph.relation("A", "A-copy").kind is RelationKind.EQUIVALENT

    def test_single_entry_rejected(self):
        corpus = parse_corpus("A: A[P]")
        with pytest.raises(ValueError):
            build_graph(corpus)

    def test_stability_across_bounds(self, square_corpus, oracle_square):
        for bound in (3, 4):
            assert graph_equal(build_graph(square_corpus, bound), oracle_square)


K1 = sentence_strategy(("P",))
K2 = sentence_strategy(("P", "Q"))
K3 = sentence_strategy(("P", "Q", "R"))
K4 = sentence_strategy(("P", "Q", "R", "S"))


class TestAgainstReferenceEnumerator:
    """The pattern oracle answers exactly as the model enumerator, bound by bound."""

    @staticmethod
    def check(a, b, vocab, bounds):
        for bound in bounds:
            assert classification_evidence(a, b, bound, vocab) == reference_evidence(
                a, b, bound, vocab
            ), bound

    @settings(max_examples=60, deadline=None)
    @given(K1, K1)
    def test_one_predicate_every_bound(self, a, b):
        self.check(a, b, VP, range(1, 3))

    @settings(max_examples=100, deadline=None)
    @given(K2, K2)
    def test_two_predicates_every_bound(self, a, b):
        self.check(a, b, Vocabulary.of("P", "Q"), range(1, 5))

    @settings(max_examples=60, deadline=None)
    @given(K3, K3)
    def test_three_predicates_small_bounds(self, a, b):
        self.check(a, b, Vocabulary.of("P", "Q", "R"), range(1, 4))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(K2, min_size=2, max_size=4), st.integers(min_value=1, max_value=4))
    def test_graph_agrees_with_pairwise_classify(self, sentences, bound):
        vocab = Vocabulary.of("P", "Q")
        labels = [f"s{i}" for i in range(len(sentences))]
        graph = build_graph(Corpus(tuple(zip(labels, sentences)), vocab), bound)
        for (la, a), (lb, b) in itertools.combinations(zip(labels, sentences), 2):
            assert graph.relation(la, lb) == classify(a, b, bound, vocab, names=(la, lb))


class TestAgainstFrozenPatterns:
    """The leaf-vector oracle answers exactly as the pattern oracle it
    replaced, at every bound up to 2^k."""

    @staticmethod
    def check(a, b, vocab):
        for bound in range(1, (1 << len(vocab)) + 1):
            assert classification_evidence(a, b, bound, vocab) == pattern_evidence(
                a, b, bound, vocab
            ), bound
        assert classification_evidence(a, b, None, vocab) == pattern_evidence(
            a, b, None, vocab
        )

    @settings(max_examples=60, deadline=None)
    @given(K1, K1)
    def test_one_predicate(self, a, b):
        self.check(a, b, VP)

    @settings(max_examples=60, deadline=None)
    @given(K2, K2)
    def test_two_predicates(self, a, b):
        self.check(a, b, Vocabulary.of("P", "Q"))

    @settings(max_examples=40, deadline=None)
    @given(K3, K3)
    def test_three_predicates(self, a, b):
        self.check(a, b, Vocabulary.of("P", "Q", "R"))

    @settings(max_examples=25, deadline=None)
    @given(K4, K4)
    def test_four_predicates(self, a, b):
        self.check(a, b, Vocabulary.of("P", "Q", "R", "S"))

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from((("P",), ("P", "Q"), ("P", "Q", "R"))).flatmap(
            lambda names: st.tuples(
                st.just(Vocabulary(names)),
                st.lists(sentence_strategy(names), min_size=2, max_size=5),
                st.integers(min_value=1, max_value=1 << len(names)),
            )
        )
    )
    def test_graph_over_the_whole_corpus(self, drawn):
        vocab, sentences, bound = drawn
        labels = [f"s{i}" for i in range(len(sentences))]
        graph = build_graph(Corpus(tuple(zip(labels, sentences)), vocab), bound)
        for (la, a), (lb, b) in itertools.combinations(zip(labels, sentences), 2):
            expected = _relation(pattern_evidence(a, b, bound, vocab), (la, lb))
            assert graph.relation(la, lb) == expected


class TestAgainstFrozenWalk:
    """The class-signature oracle answers exactly as the walk it replaced,
    at every bound up to 2^k and with none, and at k = 5, which the pattern
    table cannot reach."""

    @staticmethod
    def check(a, b, vocab, bounds):
        for bound in bounds:
            assert classification_evidence(a, b, bound, vocab) == walk_evidence(
                a, b, bound, vocab
            ), bound

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from((("P",), ("P", "Q"), ("P", "Q", "R"))).flatmap(
            lambda names: st.tuples(
                st.just(Vocabulary(names)), sentence_strategy(names), sentence_strategy(names)
            )
        )
    )
    def test_pairs(self, drawn):
        vocab, a, b = drawn
        self.check(a, b, vocab, [*range(1, (1 << len(vocab)) + 1), None])

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from((("P",), ("P", "Q"), ("P", "Q", "R"))).flatmap(
            lambda names: st.tuples(
                st.just(Vocabulary(names)),
                st.lists(sentence_strategy(names), min_size=2, max_size=5),
            )
        )
    )
    def test_corpora(self, drawn):
        vocab, sentences = drawn
        labels = [f"s{i}" for i in range(len(sentences))]
        corpus = Corpus(tuple(zip(labels, sentences)), vocab)
        for bound in [*range(1, (1 << len(vocab)) + 1), None]:
            graph = build_graph(corpus, bound)
            walk = FrozenWalk(vocab, sentences, bound)
            truths = [walk.truth(s) for s in sentences]
            for (i, ta), (j, tb) in itertools.combinations(enumerate(truths), 2):
                expected = _relation(walk.evidence(ta, tb), (labels[i], labels[j]))
                assert graph.relation(labels[i], labels[j]) == expected, bound

    # with no bound, inputs over at most 16 cells take the closure, not the walk
    UP_TO_FOUR = st.sampled_from((("P",), ("P", "Q"), ("P", "Q", "R"), ("P", "Q", "R", "S")))

    @settings(max_examples=60, deadline=None)
    @given(
        UP_TO_FOUR.flatmap(
            lambda names: st.tuples(
                st.just(Vocabulary(names)), sentence_strategy(names), sentence_strategy(names)
            )
        )
    )
    def test_unbounded_pairs_up_to_four_predicates(self, drawn):
        vocab, a, b = drawn
        self.check(a, b, vocab, [None])

    @settings(max_examples=30, deadline=None)
    @given(
        UP_TO_FOUR.flatmap(
            lambda names: st.tuples(
                st.just(Vocabulary(names)),
                st.lists(sentence_strategy(names), min_size=2, max_size=6),
            )
        )
    )
    def test_unbounded_corpora_up_to_four_predicates(self, drawn):
        vocab, sentences = drawn
        labels = [f"s{i}" for i in range(len(sentences))]
        graph = build_graph(Corpus(tuple(zip(labels, sentences)), vocab))
        walk = FrozenWalk(vocab, sentences, None)
        truths = [walk.truth(s) for s in sentences]
        for (i, ta), (j, tb) in itertools.combinations(enumerate(truths), 2):
            expected = _relation(walk.evidence(ta, tb), (labels[i], labels[j]))
            assert graph.relation(labels[i], labels[j]) == expected

    FIVE = ("P", "Q", "R", "S", "T")

    @pytest.mark.parametrize("seed", range(12))
    def test_five_predicates(self, seed):
        # 6 to 8 leaves, each some element in one of 1 to 3 named cells, split
        # between a conjunction and a disjunction
        rng = random.Random(seed)
        leaves = [
            "(exists x. " + " | ".join(
                f"({cell_matrix(c, self.FIVE)})" for c in rng.sample(range(32), rng.randint(1, 3))
            ) + ")"
            for _ in range(rng.randint(6, 8))
        ]
        half = rng.randint(1, len(leaves) - 1)
        a, b = sent(" & ".join(leaves[:half])), sent(" | ".join(leaves[half:]))
        self.check(a, b, Vocabulary(self.FIVE), [*range(1, 7), None])


class TestBoundedClosure:
    """Within n elements the vectors are the ORs of at most n class
    signatures: grown one element at a time from the newest layer only."""

    THREE = ("P", "Q", "R")

    @pytest.mark.parametrize("n", range(1, 8))
    def test_one_element_per_single_cell_leaf(self, n):
        # a inhabits n + 1 named cells, so it holds first with n + 1 elements;
        # a layer that ORs more than one signature onto the last one, or stops
        # one short or one long, moves that threshold
        a = sent(" & ".join(f"(exists x. {cell_matrix(c, self.THREE)})" for c in range(n + 1)))
        b, vocab = sent("exists x. P(x)"), Vocabulary(self.THREE)
        for bound in range(1, 9):
            assert classification_evidence(a, b, bound, vocab) == pattern_evidence(
                a, b, bound, vocab
            ), bound

    def test_a_cut_bound_walks_only_the_classes(self, monkeypatch):
        # 14 single-cell leaves over 32 cells: with no bound the walk yields
        # 2^14 + 2^7 vectors; within 2 elements the closure needs only the 16
        # classes, where keeping the walk's vectors would cost 2^k-fold more
        # as the leaves grow (2^32 nodes at 32 leaves)
        walked = []

        def counting(leaves, cells, one):
            for bits in walk(leaves, cells, one):
                walked.append(one)
                yield bits

        walk = semantics._walk
        monkeypatch.setattr(semantics, "_walk", counting)
        five = TestAgainstFrozenWalk.FIVE
        a = sent(" & ".join(f"(exists x. {cell_matrix(c, five)})" for c in range(14)))
        b, vocab = sent("exists x. P(x)"), Vocabulary(five)
        # within 2 elements a never holds; with 14, its cell 1 makes b hold
        assert classify(a, b, 2, vocab).kind is RelationKind.CONTRARY
        # the 14 single cells, and the other 18 split by P
        assert walked == [True] * 16
        walked.clear()
        assert classify(a, b, None, vocab) == subaltern("a", "b")
        assert len(walked) == (1 << 14) + (1 << 7) and not any(walked)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_no_bound_walks_every_vector_only_past_four_predicates(self, monkeypatch, k):
        # k existential leaves and one universal: up to 16 cells the closure
        # walks only the classes, and from 32 cells the walk yields every vector
        walked = []

        def spying(leaves, cells, one):
            walked.append(one)
            return walk(leaves, cells, one)

        walk = semantics._walk
        monkeypatch.setattr(semantics, "_walk", spying)
        names = TestAgainstFrozenWalk.FIVE[:k]
        a = sent(" & ".join(f"(exists x. {p}(x))" for p in names))
        b = sent(f"forall x. {' | '.join(f'{p}(x)' for p in names)}")
        assert classification_evidence(a, b) == walk_evidence(a, b, None, Vocabulary(names))
        assert walked == ([False] if k == 5 else [True])

    def test_the_least_exact_bound_can_be_below_the_leaves(self):
        # four leaves, so min(2^k, leaves) is 4; but one element in P & ~Q and
        # one in P & Q already make every leaf true, so a third element adds no
        # vector, and only bound 1 cuts
        a = sent("(exists x. P(x)) & (exists x. Q(x)) & (exists x. P(x) & Q(x))")
        b = sent("exists x. P(x) & ~Q(x)")
        vocab = Vocabulary.of("P", "Q")
        assert len(_compile(vocab, [a, b])[1]) == 4
        pair = Corpus((("a", a), ("b", b)), vocab)
        assert [pair_relations(pair, bound)[1] for bound in (1, 2, 3, 4)] == [True] + [False] * 3
        for bound in (2, 3, 4):
            assert classification_evidence(a, b, bound) == classification_evidence(a, b)


PAIRS_UP_TO_FOUR = TestAgainstFrozenWalk.UP_TO_FOUR.flatmap(
    lambda names: st.tuples(
        st.just(Vocabulary(names)), sentence_strategy(names), sentence_strategy(names)
    )
)


class TestCut:
    """``cut`` says whether some leaf vector needs more elements than the bound,
    so an answer without it is exact.  The sentences' own predicates fix k,
    while the vocabulary may hold more."""

    @settings(max_examples=80, deadline=None)
    @given(PAIRS_UP_TO_FOUR, st.integers(1, 6))
    def test_pairs(self, drawn, bound):
        vocab, a, b = drawn
        pair = Corpus((("a", a), ("b", b)), vocab)
        relations, cut = pair_relations(pair, bound)
        bounded = semantics._Vectors(vocab, (a, b), bound)
        unbounded = semantics._Vectors(vocab, (a, b), None)
        assert bounded.cut is cut and not unbounded.cut
        assert cut is (unbounded.all != bounded.all)
        if not cut:
            assert relations == pair_relations(pair)[0]
            assert classification_evidence(a, b, bound, vocab) == classification_evidence(
                a, b, None, vocab
            )

    @settings(max_examples=40, deadline=None)
    @given(
        TestAgainstFrozenWalk.UP_TO_FOUR.flatmap(
            lambda names: st.tuples(
                st.just(Vocabulary(names)),
                st.lists(sentence_strategy(names), min_size=2, max_size=6),
            )
        ),
        st.integers(1, 6),
    )
    def test_corpora(self, drawn, bound):
        vocab, sentences = drawn
        corpus = Corpus(tuple((f"s{i}", s) for i, s in enumerate(sentences)), vocab)
        relations, cut = pair_relations(corpus, bound)
        unbounded = semantics._Vectors(vocab, sentences, None)
        assert cut is (unbounded.all != semantics._Vectors(vocab, sentences, bound).all)
        if not cut:
            assert relations == pair_relations(corpus)[0]
            assert build_graph(corpus, bound) == build_graph(corpus), bound

    @settings(max_examples=80, deadline=None)
    @given(PAIRS_UP_TO_FOUR, st.integers(0, 2))
    def test_never_from_min_classes_and_leaves(self, drawn, extra):
        # at most 2^k classes, or one element per true leaf, realize a vector
        vocab, a, b = drawn
        k, leaves = len(sentence_predicates(a, b)), len(_compile(vocab, (a, b))[1])
        bound = min(1 << k, leaves) + extra
        assert not pair_relations(Corpus((("a", a), ("b", b)), vocab), bound)[1], bound
        assert classification_evidence(a, b, bound, vocab) == classification_evidence(
            a, b, None, vocab
        ), bound


class TestDefaultBoundExact:
    """Default-bound answers at k = 3, 4, 5 and 8, derived by hand."""

    def test_three_predicates_contradictory(self):
        a = sent("forall x. P(x) & Q(x) -> R(x)")
        b = sent("exists x. P(x) & Q(x) & ~R(x)")
        assert classify(a, b).kind is RelationKind.CONTRADICTORY

    def test_four_predicates_contradictory(self):
        a = sent("forall x. P(x) & Q(x) -> R(x) | S(x)")
        b = sent("exists x. P(x) & Q(x) & ~R(x) & ~S(x)")
        assert classify(a, b).kind is RelationKind.CONTRADICTORY

    def test_three_predicate_graph(self):
        corpus = parse_corpus(
            "all: forall x. P(x) -> Q(x)\n"
            "allr: forall x. P(x) -> Q(x) & R(x)\n"
            "some: exists x. P(x) & ~Q(x)\n"
            "other: exists x. ~P(x) | Q(x)\n"
        )
        graph = build_graph(corpus)
        # allr strengthens all; all forces some element to be ~P or Q
        assert graph.relation("allr", "all") == subaltern("allr", "all")
        assert graph.relation("all", "other") == subaltern("all", "other")
        assert graph.relation("allr", "other") == subaltern("allr", "other")
        assert graph.relation("all", "some").kind is RelationKind.CONTRADICTORY
        # all P are Q and R, yet some P is not Q: never both; both fail if some P lacks R
        assert graph.relation("allr", "some").kind is RelationKind.CONTRARY
        # every element is either P & ~Q or not
        assert graph.relation("some", "other").kind is RelationKind.SUBCONTRARY

    FIVE = ("P", "Q", "R", "S", "T")
    EIGHT = tuple(f"P{i}" for i in range(1, 9))

    @staticmethod
    def conj(names, negated=()):
        return " & ".join(f"~{p}(x)" if p in negated else f"{p}(x)" for p in names)

    def test_five_predicates(self):
        lhs, rhs = self.conj(self.FIVE[:2]), " | ".join(f"{p}(x)" for p in self.FIVE[2:])
        every = sent(f"forall x. {lhs} -> {rhs}")
        counter = sent(f"exists x. {self.conj(self.FIVE, self.FIVE[2:])}")
        assert classify(every, counter).kind is RelationKind.CONTRADICTORY
        # the universal denies exactly the counterexample's cell
        assert classify(every, Not(counter)).kind is RelationKind.EQUIVALENT
        # some element has all five, or some element lacks one: at least one holds
        all_five = f"exists x. {self.conj(self.FIVE)}"
        assert classify(sent(all_five), sent(f"exists x. ~({self.conj(self.FIVE)})")).kind is (
            RelationKind.SUBCONTRARY
        )
        # P & Q and R | S | T share no predicate, so neither constrains the other
        vocab = Vocabulary(self.FIVE)
        relation = classify(sent("exists x. P(x) & Q(x)"), sent(f"forall x. {rhs}"), vocab=vocab)
        assert relation.kind is RelationKind.UNCONNECTED

    def test_eight_predicates(self):
        p1, rest = self.EIGHT[0], self.EIGHT[1:]
        lhs, rhs = self.conj(self.EIGHT[:4]), " | ".join(f"{p}(x)" for p in self.EIGHT[4:])
        every = sent(f"forall x. {lhs} -> {rhs}")
        counter = sent(f"exists x. {self.conj(self.EIGHT, self.EIGHT[4:])}")
        assert classify(every, counter).kind is RelationKind.CONTRADICTORY
        # every P1 has all seven others, yet some P1 lacks all of them: never
        # both; both fail when some P1 has P2 alone
        strong = sent(f"forall x. {p1}(x) -> {self.conj(rest)}")
        lacking = sent(f"exists x. {self.conj(self.EIGHT, rest)}")
        assert classify(strong, lacking).kind is RelationKind.CONTRARY
        # every P1 is P2, and some P1 has P3..P8, so that element has all
        # eight; the converse fails when another P1 lacks P2
        but_p2 = self.conj(self.EIGHT[:1] + self.EIGHT[2:])
        both = sent(f"(forall x. {p1}(x) -> P2(x)) & (exists x. {but_p2})")
        all_eight = sent(f"exists x. {self.conj(self.EIGHT)}")
        assert classify(both, all_eight) == subaltern("a", "b")


class TestPatternLimit:
    """The oracle's one limit, on realizable leaf vectors times cells, which
    replaced the pattern table's limit and refuses nothing that one admitted."""

    A5 = "forall x. P(x) & Q(x) -> R(x) | S(x) | T(x)"
    O5 = "exists x. P(x) & Q(x) & ~R(x) & ~S(x) & ~T(x)"
    WIDE = " | ".join(f"P{i}(x)" for i in range(13))
    TWELVE = [f"P{i}" for i in range(12)]

    @pytest.mark.parametrize(
        "a,b,message",
        [
            # 2^25 cells: refused before a single 2^25-bit atom mask is built
            (
                "forall x. " + " & ".join(f"P{i}(x)" for i in range(25)),
                "exists x. " + " & ".join(f"P{i}(x)" for i in range(25)),
                "25 predicates give 33,554,432 cells, past",
            ),
            # twelve free leaves give 4,096 vectors over 4,096 cells, and the
            # all-twelve leaf splits one of them: refused as the walk grows
            (
                " & ".join(f"(exists x. {p}(x))" for p in TWELVE),
                "exists x. " + " & ".join(f"{p}(x)" for p in TWELVE),
                "12 predicates give 4,097 or more leaf vectors over 4,096 cells",
            ),
        ],
        ids=["too-many-cells", "too-many-vectors"],
    )
    def test_refused_before_allocating(self, a, b, message):
        a, b = sent(a), sent(b)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message) as info:
                classify(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "\n" not in str(info.value)
        assert peak < 100_000

    def test_bounded_refused_before_allocating(self):
        # sixteen free leaves split the 65,536 cells into as many classes, and
        # each class is a vector of its own even at bound 1: refused at the
        # 257th class found, before the other cells are ever split apart
        a = sent(" & ".join(f"(exists x. P{i}(x))" for i in range(16)))
        b = sent("exists x. " + " & ".join(f"P{i}(x)" for i in range(16)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="16 predicates give 257 or more leaf vectors "
                               "over 65,536 cells, past") as info:
                classify(a, b, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "\n" not in str(info.value)
        assert peak < 1_000_000

    def test_five_predicates_at_the_default_bound(self):
        # 2^32 - 1 inhabited-cell patterns over 32 cells, but one leaf and two vectors
        assert classify(sent(self.A5), sent(self.O5)).kind is RelationKind.CONTRADICTORY

    def test_thirteen_predicates(self):
        # 8,192 cells, and 8,192 patterns even at bound 1.  In a one-element
        # model the element is in some P_i or in none, so both hold or both
        # fail; a second element lets only the existential hold.
        a, b = sent(f"forall x. {self.WIDE}"), sent(f"exists x. {self.WIDE}")
        assert classify(a, b, 1).kind is RelationKind.EQUIVALENT
        assert classify(a, b, 2) == subaltern("a", "b")
        assert classify(a, b) == subaltern("a", "b")

    def test_small_bound_still_answers(self):
        # 41,448 patterns of at most 4 of the 32 cells
        assert classify(sent(self.A5), sent(self.O5), 4).kind is RelationKind.CONTRADICTORY


class TestAtomMasks:
    """The atom masks built by doubling one unit equal the string formula
    they replaced, which spelled out all 2^k digits of each mask."""

    @staticmethod
    def spelled_out(k, j):
        return int(("1" * (1 << j) + "0" * (1 << j)) * ((1 << k) >> (j + 1)), 2)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_equal_to_the_string_formula(self, k):
        predicates = tuple(f"P{j}" for j in range(k))
        leaf, _ = _compile(Vocabulary(predicates), [])
        for j, p in enumerate(predicates):
            assert leaf(Quantified(EXISTS, Atom(p))) == (self.spelled_out(k, j), False), (k, j)
