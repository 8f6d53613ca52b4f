"""Concrete syntax for sentences and corpora.

Sentence grammar (precedence ~ > & > | > ->, binary connectives
left-associative)::

    sentence := sentence ('->' | '|' | '&') sentence
              | '~' sentence
              | '(' sentence ')'
              | ('forall' | 'exists') VAR '.' matrix
              | TAG '[' PREDICATE ']'          # A,E,I,O,U,Y sugar
    matrix   := the same connectives over atoms PREDICATE '(' VAR ')'

One grammar parses both levels; its leaves are quantified sentences and
sugar outside a quantifier, atoms of the bound variable inside one.  The
quantifier body extends as far as possible.  Sugar tags expand at parse
time through the mixed representation, so later stages only ever see
plain sentences.  Parentheses may nest at most ``MAX_DEPTH`` deep, and
at most ``MAX_DEPTH`` connectives may sit above any atom or quantifier,
so the parser and every recursive walk over a parsed tree stay shallow;
a sugar tag counts the connectives of its expansion.

Corpus files are line oriented: one ``label: sentence`` entry per line,
``#`` starts a comment, blank lines are skipped.  A label is printable
and has no whitespace.
"""

from __future__ import annotations

import re

from .formula import (
    BINARY_CONNECTIVES,
    EXISTS,
    FORALL,
    FORMS,
    Atom,
    Sentence,
    Not,
    Quantified,
    Record,
    Vocabulary,
    make_categorical,
    sentence_predicates,
)


MAX_DEPTH = 100

# binary connectives by symbol: precedence level and node
_BINARY = {op: (level, node) for node, (op, level) in BINARY_CONNECTIVES.items()}


class ParseError(Exception):
    """Syntax error carrying a 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Corpus(Record):
    """Ordered labelled sentences over a shared inferred vocabulary."""

    __slots__ = ("entries", "vocabulary")
    entries: tuple[tuple[str, Sentence], ...]
    vocabulary: Vocabulary

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.entries)

    def sentence(self, label: str) -> Sentence:
        return dict(self.entries)[label]

    def __len__(self) -> int:
        return len(self.entries)


_TOKEN_RE = re.compile(r"->|[()\[\].~&|]|[A-Za-z_][A-Za-z0-9_]*")


def _tokenize(text: str, line: int, col_offset: int) -> list[tuple[str, int, int]]:
    """Tokens as ``(text, line, col)``, with a 1-based line and column."""
    tokens = []
    for lineno, raw in enumerate(text.split("\n"), start=line):
        offset = col_offset if lineno == line else 0
        pos = 0
        while pos < len(raw):
            if raw[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(raw, pos)
            if m is None:
                raise ParseError(f"unexpected character {raw[pos]!r}", lineno, offset + pos + 1)
            tokens.append((m.group(), lineno, offset + pos + 1))
            pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, line: int = 1, col_offset: int = 0):
        self.tokens = _tokenize(text, line, col_offset)
        self.pos = 0
        self.parens = self.depth = self.reach = 0
        lines = text.split("\n")
        self.end_line = line + len(lines) - 1
        self.end_col = (col_offset if len(lines) == 1 else 0) + len(lines[-1]) + 1

    def peek(self) -> tuple[str, int, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> tuple[str, int, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.end_line, self.end_col)
        self.pos += 1
        return tok

    def expect(self, text: str) -> tuple[str, int, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {text!r}", self.end_line, self.end_col)
        if tok[0] != text:
            raise ParseError(f"expected {text!r}, found {tok[0]!r}", *tok[1:])
        self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        if tok is None:
            return ParseError(message, self.end_line, self.end_col)
        return ParseError(message, *tok[1:])

    # One grammar serves both levels: ``var`` is the bound variable inside a
    # quantifier body, or None outside one.  ``parens`` counts the open
    # parentheses and ``depth`` the connectives around the token being
    # read; ``reach`` is the most connectives around any leaf of the
    # subtree parsed last.

    def sentence(self) -> Sentence:
        return self._binary(1, None)

    def _deeper(self, level: int, tok: tuple[str, int, int]) -> int:
        if level > MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", *tok[1:])
        return level

    def _binary(self, floor: int, var: str | None) -> Sentence:
        """Connectives of precedence ``floor`` and above, left-associative."""
        result = self._unary(var)
        while (tok := self.peek()) is not None and _BINARY.get(tok[0], (0,))[0] >= floor:
            level, node = _BINARY[tok[0]]
            self.advance()
            # the operator puts everything parsed so far one level deeper
            reach = self._deeper(self.reach + 1, tok)
            self.depth += 1
            result = node(result, self._binary(level + 1, var))
            self.depth -= 1
            self.reach = max(reach, self.reach)
        return result

    def _unary(self, var: str | None) -> Sentence:
        tok = self.peek()
        if tok is not None and tok[0] == "~":
            self.advance()
            self.depth = self._deeper(self.depth + 1, tok)
            body = self._unary(var)
            self.depth -= 1
            return Not(body)
        return self._primary(var)

    def _primary(self, var: str | None) -> Sentence:
        expected = "a sentence" if var is None else "an atom"
        tok = self.peek()
        if tok is None:
            raise self.fail(f"expected {expected}")
        text = tok[0]
        if text == "(":
            self.advance()
            self.parens = self._deeper(self.parens + 1, tok)
            inner = self._binary(1, var)
            self.parens -= 1
            self.expect(")")
            return inner
        self.reach = self.depth
        if var is not None:
            if text[0].isupper():
                self.advance()
                self.expect("(")
                name, line, col = self.advance()
                if not name[0].isalpha():
                    raise ParseError(f"expected a variable, found {name!r}", line, col)
                if name != var:
                    raise ParseError(f"free variable {name!r}", line, col)
                self.expect(")")
                return Atom(text)
        elif text in (FORALL, EXISTS):
            self.advance()
            bound = self._variable()
            self.expect(".")
            return Quantified(text, self._binary(1, bound))
        elif text[0].isalpha():
            after = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            if after is not None and after[0] == "[":
                if text not in FORMS:
                    raise ParseError(f"unknown sugar tag {text!r}", *tok[1:])
                self.advance()
                self.advance()
                pred = self._predicate_name()
                self.expect("]")
                sugar = make_categorical(text, pred)
                # the expansion's own connectives sit above its leaves too
                self.reach = self._deeper(self.depth + _connectives(sugar), tok)
                return sugar
            if after is not None and after[0] == "(":
                raise ParseError(
                    f"atom {text!r} outside a quantifier leaves its variable free", *tok[1:]
                )
        raise self.fail(f"expected {expected}, found {text!r}")

    def _variable(self) -> str:
        text, line, col = self.advance()
        if not text[0].isalpha() or not text[0].islower() or text in (FORALL, EXISTS):
            raise ParseError(f"expected a variable, found {text!r}", line, col)
        return text

    def _predicate_name(self) -> str:
        text, line, col = self.advance()
        if not text[0].isalpha() or not text[0].isupper():
            raise ParseError(f"expected a predicate name, found {text!r}", line, col)
        return text


def _connectives(s: Sentence) -> int:
    """The most connectives above any leaf of a sugar expansion, counted
    across its quantifiers."""
    if isinstance(s, Atom):
        return 0
    if isinstance(s, Quantified):
        return _connectives(s.matrix)
    if isinstance(s, Not):
        return 1 + _connectives(s.body)
    return 1 + max(_connectives(s.left), _connectives(s.right))


def parse_sentence(text: str, *, line: int = 1, col_offset: int = 0) -> Sentence:
    """Parse a single sentence; raises ParseError with position on failure."""
    parser = _Parser(text, line=line, col_offset=col_offset)
    result = parser.sentence()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"unexpected trailing input {tok[0]!r}", *tok[1:])
    return result


def parse_corpus(text: str) -> Corpus:
    """Parse a labelled corpus; vocabulary is inferred from the sentences."""
    entries: list[tuple[str, Sentence]] = []
    seen: set[str] = set()
    predicates: list[str] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        cut = raw.find("#")
        content = raw if cut < 0 else raw[:cut]
        if not content.strip():
            continue
        if ":" not in content:
            raise ParseError("expected 'label: sentence'", lineno, 1)
        label_part, sentence_part = content.split(":", 1)
        label = label_part.strip()
        if not label or not label.isprintable() or any(ch.isspace() for ch in label):
            raise ParseError(f"invalid label {label_part.strip()!r}", lineno, 1)
        if label in seen:
            raise ParseError(f"duplicate label {label!r}", lineno, 1)
        seen.add(label)
        sentence = parse_sentence(
            sentence_part, line=lineno, col_offset=len(label_part) + 1
        )
        entries.append((label, sentence))
        for pred in sentence_predicates(sentence):
            if pred not in predicates:
                predicates.append(pred)
    if not entries:
        raise ParseError("corpus has no entries", 1, 1)
    return Corpus(tuple(entries), Vocabulary(tuple(predicates)))
