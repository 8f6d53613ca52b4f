import copy
import dataclasses
import pickle

import pytest

from oppositions import (
    EXISTS,
    FORALL,
    REPRESENTATIONS,
    Atom,
    And,
    Implies,
    Not,
    Or,
    Quantified,
    Vocabulary,
    make_categorical,
    print_sentence,
    sentence_predicates,
)
from oppositions.formula import EXISTENTIAL_ONLY, FORMS, MIXED, UNIVERSAL_ONLY, Sentence
from oppositions.graph import Relation, RelationKind, subaltern
from oppositions.parser import parse_corpus
from oppositions.segment import Mismatch, Role, SegmentAssignment, VerificationReport
from oppositions.segment import make_square_assignment
from oppositions.semantics import Evidence

P = Atom("P")


class TestMakeCategorical:
    def test_a_mixed_is_universal_affirmative(self):
        assert make_categorical("A", "P", MIXED) == Quantified(FORALL, P)

    def test_i_universal_only_is_negated_universal(self):
        assert make_categorical("I", "P", UNIVERSAL_ONLY) == Not(
            Quantified(FORALL, Not(P))
        )

    def test_y_mixed_is_conjunction_of_i_and_o(self):
        expected = And(Quantified(EXISTS, P), Quantified(EXISTS, Not(P)))
        assert make_categorical("Y", "P", MIXED) == expected

    def test_mixed_table(self):
        assert make_categorical("E", "P") == Quantified(FORALL, Not(P))
        assert make_categorical("I", "P") == Quantified(EXISTS, P)
        assert make_categorical("O", "P") == Quantified(EXISTS, Not(P))

    def test_existential_only_table(self):
        assert make_categorical("A", "P", EXISTENTIAL_ONLY) == Not(
            Quantified(EXISTS, Not(P))
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


# --- the three wordings as make_categorical once spelled them out, frozen ---


def frozen_categorical(form, predicate, representation):
    if form == "U":
        return Or(*(frozen_categorical(f, predicate, representation) for f in "AE"))
    if form == "Y":
        return And(*(frozen_categorical(f, predicate, representation) for f in "IO"))
    phi = Atom(predicate)
    not_phi = Not(phi)
    return {
        MIXED: {
            "A": Quantified(FORALL, phi),
            "E": Quantified(FORALL, not_phi),
            "I": Quantified(EXISTS, phi),
            "O": Quantified(EXISTS, not_phi),
        },
        UNIVERSAL_ONLY: {
            "A": Quantified(FORALL, phi),
            "E": Quantified(FORALL, not_phi),
            "I": Not(Quantified(FORALL, not_phi)),
            "O": Not(Quantified(FORALL, phi)),
        },
        EXISTENTIAL_ONLY: {
            "A": Not(Quantified(EXISTS, not_phi)),
            "E": Not(Quantified(EXISTS, phi)),
            "I": Quantified(EXISTS, phi),
            "O": Quantified(EXISTS, not_phi),
        },
    }[representation][form]


class TestAgainstFrozenTables:
    """The single-quantifier wordings derived by duality are, node for
    node, the trees the three spelled-out tables gave."""

    @pytest.mark.parametrize("predicate", ["P", "Q"])
    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    @pytest.mark.parametrize("form", FORMS)
    def test_same_tree(self, form, representation, predicate):
        expected = frozen_categorical(form, predicate, representation)
        assert make_categorical(form, predicate, representation) == expected


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


# --- records: the value classes behind sentences, corpora and reports ---

Q = Atom("Q")
MISMATCH = Mismatch("A", "U", Relation(RelationKind.CONTRARY), subaltern("A", "U"))

# One record of every record class, built afresh on each call, next to the
# repr that the frozen dataclass it replaced printed.
RECORDS = {
    "Vocabulary": (
        lambda: Vocabulary(("P", "Q")),
        "Vocabulary(predicates=('P', 'Q'))",
    ),
    "Atom": (lambda: Atom("P"), "Atom(predicate='P')"),
    "Quantified": (
        lambda: Quantified(FORALL, Not(P)),
        "Quantified(quantifier='forall', matrix=Not(body=Atom(predicate='P')))",
    ),
    "Not": (
        lambda: Not(Quantified(EXISTS, P)),
        "Not(body=Quantified(quantifier='exists', matrix=Atom(predicate='P')))",
    ),
    "And": (lambda: And(P, Q), "And(left=Atom(predicate='P'), right=Atom(predicate='Q'))"),
    "Or": (lambda: Or(P, Q), "Or(left=Atom(predicate='P'), right=Atom(predicate='Q'))"),
    "Implies": (
        lambda: Implies(P, Q),
        "Implies(left=Atom(predicate='P'), right=Atom(predicate='Q'))",
    ),
    "Corpus": (
        lambda: parse_corpus("A: A[P]\nO: O[P]"),
        "Corpus(entries=(('A', Quantified(quantifier='forall', matrix=Atom(predicate='P'))), "
        "('O', Quantified(quantifier='exists', matrix=Not(body=Atom(predicate='P'))))), "
        "vocabulary=Vocabulary(predicates=('P',)))",
    ),
    "Relation": (
        lambda: Relation(RelationKind.CONTRARY),
        "Relation(kind=<RelationKind.CONTRARY: 'contrary'>, source=None, target=None)",
    ),
    "Relation-subaltern": (
        lambda: Relation(RelationKind.SUBALTERN, "A", "I"),
        "Relation(kind=<RelationKind.SUBALTERN: 'subaltern'>, source='A', target='I')",
    ),
    "Evidence": (
        lambda: Evidence(True, False, True, False),
        "Evidence(both_true=True, both_false=False, first_entails_second=True, "
        "second_entails_first=False)",
    ),
    "SegmentAssignment": (
        lambda: make_square_assignment(1, 2),
        "SegmentAssignment(labels=('A', 'E', 'I', 'O'), "
        "values={'A': 1, 'E': 2, 'I': -2, 'O': -1}, "
        "roles={'A': <Role.UNIVERSAL: 'universal'>, 'E': <Role.UNIVERSAL: 'universal'>, "
        "'I': <Role.EXISTENTIAL: 'existential'>, 'O': <Role.EXISTENTIAL: 'existential'>})",
    ),
    "Mismatch": (
        lambda: Mismatch("A", "U", Relation(RelationKind.CONTRARY), subaltern("A", "U")),
        "Mismatch(a='A', b='U', "
        "decoded=Relation(kind=<RelationKind.CONTRARY: 'contrary'>, source=None, target=None), "
        "semantic=Relation(kind=<RelationKind.SUBALTERN: 'subaltern'>, source='A', target='U'))",
    ),
    "VerificationReport": (
        lambda: VerificationReport((MISMATCH,)),
        "VerificationReport(mismatches=(Mismatch(a='A', b='U', "
        "decoded=Relation(kind=<RelationKind.CONTRARY: 'contrary'>, source=None, target=None), "
        "semantic=Relation(kind=<RelationKind.SUBALTERN: 'subaltern'>, source='A', target='U'"
        ")),))",
    ),
}
MAKERS = [make for make, _ in RECORDS.values()]
# a segment assignment holds dicts, so like its dataclass it has no hash
HASHABLE = [make for name, (make, _) in RECORDS.items() if name != "SegmentAssignment"]


def field_values(record) -> dict:
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


class TestRecord:
    @pytest.mark.parametrize("make,text", RECORDS.values(), ids=RECORDS)
    def test_repr_is_the_dataclass_repr(self, make, text):
        assert repr(make()) == text

    @pytest.mark.parametrize("make", MAKERS, ids=RECORDS)
    def test_equal_by_value_and_keyword_built_alike(self, make):
        record = make()
        assert record == make()
        assert not record != make()
        assert type(record)(**field_values(record)) == record
        assert type(record)(*field_values(record).values()) == record

    @pytest.mark.parametrize("make", HASHABLE)
    def test_equal_values_hash_equally(self, make):
        assert hash(make()) == hash(make())
        assert len({make(), make()}) == 1

    def test_segment_assignment_has_no_hash(self):
        with pytest.raises(TypeError):
            hash(make_square_assignment(1, 2))

    def test_equality_needs_the_same_class(self):
        assert And(P, Q) != Or(P, Q)
        assert Or(P, Q) != Implies(P, Q)
        assert And(P, Q) != And(Q, P)
        assert Atom("P") != ("P",)
        assert len({And(P, Q), Or(P, Q), Implies(P, Q)}) == 3

    def test_defaults_and_wrong_fields(self):
        assert Relation(RelationKind.EQUIVALENT) == Relation(kind=RelationKind.EQUIVALENT)
        assert Relation(RelationKind.SUBALTERN, target="I", source="A") == subaltern("A", "I")
        for build in (
            lambda: And(P),
            lambda: And(P, Q, P),
            lambda: And(P, left=P),
            lambda: Atom(name="P"),
            lambda: Relation(),
        ):
            with pytest.raises(TypeError):
                build()

    @pytest.mark.parametrize("make", MAKERS, ids=RECORDS)
    def test_assignment_and_deletion_raise(self, make):
        record = make()
        name = dataclasses.fields(record)[0].name
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, name) is before

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Vocabulary(()),
            lambda: Vocabulary(("P", "P")),
            lambda: Vocabulary(("p",)),
            lambda: Quantified("some", P),
            lambda: Relation(RelationKind.SUBALTERN, "A"),
            lambda: Relation(RelationKind.CONTRARY, "A", "E"),
            lambda: SegmentAssignment(("A", "A"), {"A": 1}, {"A": Role.UNIVERSAL}),
            lambda: SegmentAssignment(("A",), {"A": 1}, {}),
            lambda: SegmentAssignment(("A", "O"), {"A": 0, "O": 0},
                                      {"A": Role.UNIVERSAL, "O": Role.EXISTENTIAL}),
            lambda: SegmentAssignment(("A", "O"), {"A": 1, "O": 1},
                                      {"A": Role.UNIVERSAL, "O": Role.EXISTENTIAL}),
            lambda: SegmentAssignment(("A", "O"), {"A": 1, "O": -2},
                                      {"A": Role.UNIVERSAL, "O": Role.EXISTENTIAL}),
            lambda: SegmentAssignment(("A", "O"), {"A": -1, "O": 1},
                                      {"A": Role.UNIVERSAL, "O": Role.EXISTENTIAL}),
        ],
        ids=[
            "empty-vocabulary", "repeated-predicate", "lowercase-predicate",
            "unknown-quantifier", "subaltern-without-target", "directed-contrary",
            "repeated-label", "uncovered-role", "zero", "not-injective", "not-symmetric",
            "sign-against-role",
        ],
    )
    def test_post_init_checks_raise_value_error(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize(
        "round_trip",
        [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    @pytest.mark.parametrize("make", MAKERS, ids=RECORDS)
    def test_pickle_and_copy_round_trip(self, make, round_trip):
        record = make()
        twin = round_trip(record)
        assert type(twin) is type(record)
        assert twin == record
        assert repr(twin) == repr(record)

    def test_corpus_caches_its_label_index(self):
        corpus = parse_corpus("A: A[P]\nO: O[P]")
        assert corpus.sentence("O") == make_categorical("O", "P")
        assert corpus == parse_corpus("A: A[P]\nO: O[P]")
        assert copy.deepcopy(corpus).sentence("A") == make_categorical("A", "P")


class TestDataclassIntrospection:
    """Records answer ``dataclasses``'s field queries, which counters over
    sentence trees (such as the benchmark's node count) walk."""

    @pytest.mark.parametrize("make", MAKERS, ids=RECORDS)
    def test_every_record_is_a_dataclass_instance(self, make):
        record = make()
        assert dataclasses.is_dataclass(record)
        shown = ", ".join(f"{name}={value!r}" for name, value in field_values(record).items())
        assert repr(record) == f"{type(record).__qualname__}({shown})"

    def test_fields_keep_names_order_and_defaults(self):
        assert [f.name for f in dataclasses.fields(And)] == ["left", "right"]
        kind, source, target = dataclasses.fields(Relation)
        assert kind.default is dataclasses.MISSING
        assert source.default is None and target.default is None
        assert not dataclasses.is_dataclass(Sentence)

    def test_asdict_and_node_count_of_a_nested_sentence(self):
        y = make_categorical("Y", "P")
        assert dataclasses.asdict(y) == {
            "left": {"quantifier": EXISTS, "matrix": {"predicate": "P"}},
            "right": {"quantifier": EXISTS, "matrix": {"body": {"predicate": "P"}}},
        }

        def nodes(node) -> int:
            return 1 + sum(
                nodes(child)
                for child in (getattr(node, f.name) for f in dataclasses.fields(node))
                if dataclasses.is_dataclass(child)
            )

        assert nodes(y) == 6
        assert dataclasses.replace(y, right=Q) == And(y.left, Q)
