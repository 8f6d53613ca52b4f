import pytest

from oppositions import (
    EXISTS,
    FORALL,
    MIXED,
    REPRESENTATIONS,
    UNIVERSAL_ONLY,
    EXISTENTIAL_ONLY,
    Atom,
    And,
    MNot,
    Not,
    Or,
    Quantified,
    Vocabulary,
    make_categorical,
    print_sentence,
    sentence_predicates,
)

P = Atom("P")


class TestMakeCategorical:
    def test_a_mixed_is_universal_affirmative(self):
        assert make_categorical("A", "P", MIXED) == Quantified(FORALL, P)

    def test_i_universal_only_is_negated_universal(self):
        assert make_categorical("I", "P", UNIVERSAL_ONLY) == Not(
            Quantified(FORALL, MNot(P))
        )

    def test_y_mixed_is_conjunction_of_i_and_o(self):
        expected = And(Quantified(EXISTS, P), Quantified(EXISTS, MNot(P)))
        assert make_categorical("Y", "P", MIXED) == expected

    def test_mixed_table(self):
        assert make_categorical("E", "P") == Quantified(FORALL, MNot(P))
        assert make_categorical("I", "P") == Quantified(EXISTS, P)
        assert make_categorical("O", "P") == Quantified(EXISTS, MNot(P))

    def test_existential_only_table(self):
        assert make_categorical("A", "P", EXISTENTIAL_ONLY) == Not(
            Quantified(EXISTS, MNot(P))
        )
        assert make_categorical("E", "P", EXISTENTIAL_ONLY) == Not(Quantified(EXISTS, P))

    @pytest.mark.parametrize("rep", REPRESENTATIONS)
    def test_u_is_syntactically_a_or_e(self, rep):
        assert make_categorical("U", "P", rep) == Or(
            make_categorical("A", "P", rep), make_categorical("E", "P", rep)
        )

    @pytest.mark.parametrize("rep", REPRESENTATIONS)
    def test_y_is_syntactically_i_and_o(self, rep):
        assert make_categorical("Y", "P", rep) == And(
            make_categorical("I", "P", rep), make_categorical("O", "P", rep)
        )

    def test_representations_are_distinct_trees(self):
        # interdefinability is a semantic fact, not a syntactic identity
        assert make_categorical("I", "P", MIXED) != make_categorical(
            "I", "P", UNIVERSAL_ONLY
        )

    def test_unknown_form_tag(self):
        with pytest.raises(ValueError, match="form tag"):
            make_categorical("B", "P")

    def test_unknown_representation_tag(self):
        with pytest.raises(ValueError, match="representation"):
            make_categorical("A", "P", "dual")


class TestPrinting:
    def test_plain_universal(self):
        assert print_sentence(Quantified(FORALL, P)) == "forall x. P(x)"

    def test_negated_quantifier_is_parenthesized(self):
        assert print_sentence(Not(Quantified(EXISTS, P))) == "~(exists x. P(x))"

    def test_conjunction_of_quantified(self):
        s = And(make_categorical("A", "P"), make_categorical("E", "P"))
        assert print_sentence(s) == "(forall x. P(x)) & (forall x. ~P(x))"

    def test_matrix_negation_needs_no_parens(self):
        assert print_sentence(make_categorical("O", "P")) == "exists x. ~P(x)"


class TestVocabulary:
    def test_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Vocabulary(())

    def test_names_unique(self):
        with pytest.raises(ValueError):
            Vocabulary(("P", "P"))

    def test_membership(self):
        vocab = Vocabulary.of("P", "Q")
        assert "P" in vocab and "R" not in vocab

    def test_predicate_order_is_first_occurrence(self):
        s = And(make_categorical("A", "Q"), make_categorical("I", "P"))
        assert sentence_predicates(s) == ("Q", "P")
