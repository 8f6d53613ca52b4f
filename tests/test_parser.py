import re
import string
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oppositions import (
    EXISTS,
    FORALL,
    Atom,
    And,
    Implies,
    Not,
    Or,
    ParseError,
    Quantified,
    make_categorical,
    parse_corpus,
    parse_sentence,
    print_sentence,
    sentence_predicates,
)
from oppositions.parser import MAX_DEPTH, _tokenize
from conftest import sentence_strategy

P = Atom("P")
Q = Atom("Q")


class TestSentences:
    def test_sugar_expands_to_mixed_representation(self):
        assert parse_sentence("A[P]") == Quantified(FORALL, P)

    def test_negated_universal(self):
        assert parse_sentence("~forall x. ~P(x)") == Not(Quantified(FORALL, Not(P)))

    def test_u_sugar(self):
        assert parse_sentence("U[P]") == Or(
            Quantified(FORALL, P), Quantified(FORALL, Not(P))
        )

    def test_all_sugar_tags(self):
        for form in "AEIOUY":
            assert parse_sentence(f"{form}[P]") == make_categorical(form, "P")

    def test_quantifier_body_extends_maximally(self):
        assert parse_sentence("forall x. P(x) & Q(x)") == Quantified(
            FORALL, And(P, Q)
        )

    def test_matrix_precedence(self):
        # & binds tighter than |
        assert parse_sentence("exists x. P(x) | Q(x) & P(x)") == Quantified(
            EXISTS, Or(P, And(Q, P))
        )

    def test_sentence_precedence(self):
        s = parse_sentence("~A[P] & E[P] | I[P]")
        a, e, i = (make_categorical(f, "P") for f in "AEI")
        assert s == Or(And(Not(a), e), i)

    def test_binary_connectives_left_associative(self):
        a, e, i = (make_categorical(f, "P") for f in "AEI")
        assert parse_sentence("A[P] -> E[P] -> I[P]") == Implies(Implies(a, e), i)
        assert parse_sentence("A[P] & E[P] & I[P]") == And(And(a, e), i)

    def test_parentheses_override(self):
        a, e, i = (make_categorical(f, "P") for f in "AEI")
        assert parse_sentence("A[P] -> (E[P] -> I[P])") == Implies(a, Implies(e, i))

    def test_any_lowercase_variable_accepted(self):
        assert parse_sentence("forall v. P(v)") == Quantified(FORALL, P)


class TestSentenceErrors:
    def test_unknown_sugar_tag(self):
        with pytest.raises(ParseError, match="unknown sugar tag"):
            parse_sentence("B[P]")

    def test_free_variable_in_matrix(self):
        with pytest.raises(ParseError, match="free variable 'y'") as err:
            parse_sentence("forall x. P(y)")
        assert err.value.line == 1
        assert err.value.col == 13

    def test_atom_outside_quantifier(self):
        with pytest.raises(ParseError, match="free"):
            parse_sentence("P(x)")

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_sentence("A[P] E[P]")

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_sentence("A[P] @ E[P]")

    def test_missing_dot(self):
        with pytest.raises(ParseError, match="expected '.'"):
            parse_sentence("forall x P(x)")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_sentence("A[P] &")
        assert err.value.line == 1
        assert err.value.col == 7

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse_sentence("(A[P] & E[P]")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("forall", "1:7: unexpected end of input"),
            ("forall X. P(x)", "1:8: expected a variable, found 'X'"),
            ("forall x. P(.)", "1:13: expected a variable, found '.'"),
            ("A[p]", "1:3: expected a predicate name, found 'p'"),
        ],
    )
    def test_refusal_message_and_position(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_sentence(text)
        assert str(err.value) == message


def nested(shape, depth, leaf):
    """``leaf`` under ``depth`` levels of one shape; the crossing token's symbol."""
    if shape == "negation":
        return "~" * depth + leaf, "~"
    if shape == "parentheses":
        return "(" * depth + leaf + ")" * depth, "("
    return " & ".join([leaf] * (depth + 1)), "&"


class TestNestingLimit:
    SHAPES = ("negation", "parentheses", "conjunction")
    LEVELS = [("", "A[P]"), ("forall x. ", "P(x)")]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("prefix,leaf", LEVELS, ids=["sentence", "matrix"])
    def test_limit_parses_and_round_trips(self, shape, prefix, leaf):
        text, _ = nested(shape, MAX_DEPTH, leaf)
        tree = parse_sentence(prefix + text)
        assert sentence_predicates(tree) == ("P",)
        assert parse_sentence(print_sentence(tree)) == tree

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("prefix,leaf", LEVELS, ids=["sentence", "matrix"])
    def test_past_limit_fails_at_crossing_token(self, shape, prefix, leaf):
        text, symbol = nested(shape, MAX_DEPTH + 1, leaf)
        text = prefix + text
        col = 0
        for _ in range(MAX_DEPTH + 1):
            col = text.index(symbol, col) + 1
        with pytest.raises(ParseError, match=f"nesting deeper than {MAX_DEPTH}") as err:
            parse_sentence(text)
        assert (err.value.line, err.value.col) == (1, col)

    # the connectives each sugar tag expands to: U, Y two; E, O one
    @pytest.mark.parametrize("tag,inside", [*zip("AIEOUY", (0, 0, 1, 1, 2, 2))])
    def test_sugar_counts_its_expansion(self, tag, inside):
        negations = MAX_DEPTH - inside
        tree = parse_sentence("~" * negations + f"{tag}[P]")
        assert parse_sentence(print_sentence(tree)) == tree
        with pytest.raises(ParseError, match=f"nesting deeper than {MAX_DEPTH}") as err:
            parse_sentence("~" * (negations + 1) + f"{tag}[P]")
        # the sugar tag crosses the limit unless a negation already did
        assert (err.value.line, err.value.col) == (1, min(negations + 2, MAX_DEPTH + 1))

    def test_parentheses_count_apart_from_connectives(self):
        tree = parse_sentence("(~" * MAX_DEPTH + "A[P]" + ")" * MAX_DEPTH)
        assert parse_sentence(print_sentence(tree)) == tree

    def test_deep_right_operand_counts_for_later_connectives(self):
        chain, _ = nested("conjunction", MAX_DEPTH - 1, "A[P]")
        parse_sentence(f"A[P] & ({chain})")
        with pytest.raises(ParseError, match="nesting") as err:
            parse_sentence(f"A[P] & ({chain}) & A[P]")
        assert err.value.col == len(f"A[P] & ({chain}) ") + 1

    def test_connectives_count_across_the_quantifier(self):
        chain, _ = nested("conjunction", MAX_DEPTH, "P(x)")
        with pytest.raises(ParseError, match="nesting") as err:
            parse_sentence("~forall x. " + chain)
        assert err.value.col == len("~forall x. " + chain) - len("& P(x)") + 1


class TestCorpus:
    def test_two_entries(self):
        corpus = parse_corpus("A: A[P]\nO: O[P]")
        assert corpus.labels == ("A", "O")
        assert corpus.sentence("A") == make_categorical("A", "P")

    def test_duplicate_label(self):
        with pytest.raises(ParseError, match="duplicate label"):
            parse_corpus("A: A[P]\nA: E[P]")

    def test_hexagon_corpus(self):
        corpus = parse_corpus("\n".join(f"{f}: {f}[P]" for f in "AEIOUY"))
        assert len(corpus) == 6
        assert corpus.vocabulary.predicates == ("P",)

    def test_comments_and_blank_lines(self):
        text = "# header\n\nA: A[P]  # trailing note\n\nO: O[P]\n"
        corpus = parse_corpus(text)
        assert corpus.labels == ("A", "O")

    def test_crlf_accepted(self):
        corpus = parse_corpus("A: A[P]\r\nO: O[P]\r\n")
        assert corpus.labels == ("A", "O")

    def test_hyphenated_label(self):
        corpus = parse_corpus("A: A[P]\nA-copy: A[P]")
        assert corpus.labels == ("A", "A-copy")

    def test_error_reports_corpus_line(self):
        with pytest.raises(ParseError) as err:
            parse_corpus("A: A[P]\nE: E[P]\nI: B[P]")
        assert err.value.line == 3

    def test_error_column_offset_by_label(self):
        with pytest.raises(ParseError) as err:
            parse_corpus("Alpha: forall x. P(y)")
        assert err.value.line == 1
        assert err.value.col == 20

    def test_label_with_whitespace_rejected(self):
        with pytest.raises(ParseError, match="invalid label"):
            parse_corpus("two words: A[P]")

    @pytest.mark.parametrize("label", ["\udcffB", "B\x07"], ids=["surrogate", "control"])
    def test_unprintable_label_rejected(self, label):
        with pytest.raises(ParseError, match="invalid label") as err:
            parse_corpus(f"A: A[P]\n{label}: A[P]")
        assert err.value.line == 2

    def test_one_leading_byte_order_mark_is_dropped(self):
        assert parse_corpus("\ufeffA: A[P]\nO: O[P]") == parse_corpus("A: A[P]\nO: O[P]")
        with pytest.raises(ParseError, match="invalid label") as err:
            parse_corpus("\ufeff\ufeffA: A[P]\nO: O[P]")
        assert (err.value.line, err.value.col) == (1, 1)

    def test_missing_colon(self):
        with pytest.raises(ParseError, match="label"):
            parse_corpus("just a sentence")

    def test_empty_corpus_rejected(self):
        with pytest.raises(ParseError, match="no entries"):
            parse_corpus("# only comments\n\n")

    def test_vocabulary_first_occurrence_order(self):
        corpus = parse_corpus("Q1: A[Q]\nP1: A[P]")
        assert corpus.vocabulary.predicates == ("Q", "P")


class TestRoundTrip:
    @given(sentence_strategy())
    def test_parse_inverts_print(self, sentence):
        assert parse_sentence(print_sentence(sentence)) == sentence

    @pytest.mark.parametrize(
        "text",
        [
            "A[P]",
            "forall x. P(x) & ~Q(x)",
            "~(exists x. P(x)) -> U[P]",
            "(A[P] | E[Q]) & ~Y[P]",
            "exists x. (P(x) -> Q(x)) | P(x)",
        ],
    )
    def test_print_of_parse_reparses_identically(self, text):
        tree = parse_sentence(text)
        assert parse_sentence(print_sentence(tree)) == tree


# --- the regular-expression tokenizer that _tokenize replaced, frozen as the reference ---

FROZEN_TOKEN_RE = re.compile(r"->|[()\[\].~&|]|[A-Za-z_][A-Za-z0-9_]*")


def frozen_tokenize(text, line, col_offset):
    tokens = []
    for lineno, raw in enumerate(text.split("\n"), start=line):
        offset = col_offset if lineno == line else 0
        pos = 0
        while pos < len(raw):
            if raw[pos].isspace():
                pos += 1
                continue
            m = FROZEN_TOKEN_RE.match(raw, pos)
            if m is None:
                raise ParseError(f"unexpected character {raw[pos]!r}", lineno, offset + pos + 1)
            tokens.append((m.group(), lineno, offset + pos + 1))
            pos = m.end()
    return tokens


def tokens_or_error(tokenize, text, line, col_offset):
    try:
        return tokenize(text, line, col_offset)
    except ParseError as err:
        return err.message, err.line, err.col


# the token characters, the two of "->", whitespace, and three that no token
# holds: a non-ASCII letter, a non-ASCII space and a non-ASCII digit
TOKEN_TEXT = st.text(
    alphabet=string.ascii_letters + string.digits + "_()[].~&|->" + " \t\n" + "é\u00a0\u0663"
)


class TestAgainstFrozenTokenizer:
    @settings(max_examples=500)
    @given(TOKEN_TEXT, st.integers(1, 3), st.integers(0, 3))
    def test_same_tokens_or_error(self, text, line, col_offset):
        expected = tokens_or_error(frozen_tokenize, text, line, col_offset)
        assert tokens_or_error(_tokenize, text, line, col_offset) == expected

    @pytest.mark.parametrize("text,count", [("P" * 200_000, 1), ("P(x) " * 40_000, 160_000)],
                             ids=["one-identifier", "many-tokens"])
    def test_time_is_linear_in_the_input(self, text, count):
        start = time.perf_counter()
        assert len(_tokenize(text, 1, 0)) == count
        assert time.perf_counter() - start < 1
