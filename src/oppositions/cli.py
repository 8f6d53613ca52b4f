"""Command-line interface.

Subcommands: ``classify`` a pair of sentences, ``graph`` a corpus,
``encode`` a categorical corpus on an integer segment, and
``synthesize`` encodings for a corpus by exhaustive search.

Exit codes: 0 success; 1 synthesis found nothing (a meaningful negative
result); 2 parse or input error; 3 vocabulary mismatch; 4 a corpus or
roles of a shape the command or its clauses cannot take; 5 verification
mismatch.  Stdout carries only payload; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .formula import (
    REPRESENTATIONS,
    Sentence,
    And,
    Or,
    make_categorical,
)
from .graph import (
    OppositionGraph,
    SCHEMA_VERSION,
    render_segment,
    to_dot,
    to_structured,
)
from .parser import Corpus, ParseError, parse_corpus, parse_sentence
from .segment import (
    A_LOW,
    ClauseSystem,
    Role,
    SegmentAssignment,
    ShapeError,
    UNIVERSAL_MAPS,
    decode_graph,
    extend_hexagon,
    infer_role,
    make_square_assignment,
    synthesize,
    verify_against,
)
from .semantics import VocabularyMismatchError, build_graph, classify, default_bound

EXIT_OK = 0
EXIT_NO_RESULTS = 1
EXIT_PARSE = 2
EXIT_VOCAB = 3
EXIT_SHAPE = 4
EXIT_MISMATCH = 5


class _CliError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oppositions",
        description=(
            "Classify logical oppositions between sentences and work with "
            "integer line-segment encodings of the square and hexagon of "
            "oppositions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    classify_p = sub.add_parser(
        "classify", help="classify the opposition between two sentences"
    )
    classify_p.add_argument("a", help="first sentence, e.g. 'A[P]' or 'forall x. P(x)'")
    classify_p.add_argument("b", help="second sentence")
    classify_p.add_argument(
        "--bound", type=int, default=None, help="domain-size bound (default 2^k)"
    )

    graph_p = sub.add_parser("graph", help="build the opposition graph of a corpus")
    _add_corpus_arg(graph_p)
    graph_p.add_argument("--bound", type=int, default=None)
    graph_p.add_argument(
        "--format", choices=("structured", "dot", "text"), default="text"
    )

    encode_p = sub.add_parser(
        "encode", help="encode a categorical square or hexagon corpus on a segment"
    )
    _add_corpus_arg(encode_p)
    encode_p.add_argument("--clauses", choices=("square", "hexagon"), default=None)
    encode_p.add_argument("--q", type=int, default=1, help="smaller universal magnitude")
    encode_p.add_argument("--r", type=int, default=2, help="larger universal magnitude")
    encode_p.add_argument(
        "--map",
        dest="universal_map",
        choices=UNIVERSAL_MAPS,
        default=A_LOW,
        help="whether label A takes the smaller or larger magnitude",
    )
    encode_p.add_argument("--bound", type=int, default=None)
    encode_p.add_argument(
        "--format", choices=("structured", "dot", "text"), default="text"
    )

    synth_p = sub.add_parser(
        "synthesize", help="search for segment encodings of a corpus graph"
    )
    _add_corpus_arg(synth_p)
    synth_p.add_argument("--clauses", choices=("square", "hexagon"), default=None)
    synth_p.add_argument(
        "--magnitude", type=int, default=None, help="search bound on |value|"
    )
    synth_p.add_argument("--bound", type=int, default=None)
    synth_p.add_argument("--format", choices=("structured", "text"), default="text")

    return parser


def _add_corpus_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--corpus",
        required=True,
        help="corpus file of 'label: sentence' lines, or '-' for stdin",
    )


def _read_corpus(path: str) -> Corpus:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as err:
            raise _CliError(f"cannot read corpus: {err}", EXIT_PARSE) from None
    try:
        return parse_corpus(text)
    except ParseError as err:
        raise _CliError(f"corpus {path}: {err}", EXIT_PARSE) from None


def _parse_sentence_arg(text: str, position: str) -> Sentence:
    try:
        return parse_sentence(text)
    except ParseError as err:
        raise _CliError(f"sentence {position}: {err}", EXIT_PARSE) from None


def _detect_shape(corpus: Corpus) -> tuple[str, str]:
    """Return ('square'|'hexagon', predicate) or raise with exit code 4.

    Detection is syntactic: the labels must be A,E,I,O (optionally plus
    U,Y), each categorical form must match one of its three quantifier
    representations over a single shared predicate, U must literally be
    the disjunction of A and E, and Y the conjunction of I and O.
    """
    labels = set(corpus.labels)
    if labels == {"A", "E", "I", "O"}:
        shape = "square"
    elif labels == {"A", "E", "I", "O", "U", "Y"}:
        shape = "hexagon"
    else:
        raise _CliError(
            f"corpus labels {sorted(labels)} are not a categorical square or hexagon",
            EXIT_SHAPE,
        )
    if len(corpus.vocabulary) != 1:
        raise _CliError(
            "encoding expects a corpus over a single predicate", EXIT_SHAPE
        )
    predicate = corpus.vocabulary.predicates[0]
    for form in ("A", "E", "I", "O"):
        sentence = corpus.sentence(form)
        if not any(
            sentence == make_categorical(form, predicate, rep) for rep in REPRESENTATIONS
        ):
            raise _CliError(
                f"label {form} is not the categorical {form} form over {predicate}",
                EXIT_SHAPE,
            )
    if shape == "hexagon":
        if corpus.sentence("U") != Or(corpus.sentence("A"), corpus.sentence("E")):
            raise _CliError("label U must be the disjunction of A and E", EXIT_SHAPE)
        if corpus.sentence("Y") != And(corpus.sentence("I"), corpus.sentence("O")):
            raise _CliError("label Y must be the conjunction of I and O", EXIT_SHAPE)
    return shape, predicate


def _corpus_roles(corpus: Corpus) -> dict[str, Role]:
    roles = {}
    for label, sentence in corpus.entries:
        role = infer_role(sentence)
        if role is None:
            raise _CliError(
                f"cannot infer a polarity role for label {label!r}", EXIT_SHAPE
            )
        roles[label] = role
    return roles


def _clause_system(flag: str | None, fallback: ClauseSystem) -> ClauseSystem:
    if flag is None:
        return fallback
    return ClauseSystem(flag)


def _relation_line(a: str, b: str, relation) -> str:
    return f"{a} {b} {relation.text()}"


def _cmd_classify(args: argparse.Namespace) -> int:
    a = _parse_sentence_arg(args.a, "a")
    b = _parse_sentence_arg(args.b, "b")
    try:
        relation = classify(a, b, args.bound)
    except VocabularyMismatchError as err:
        raise _CliError(str(err), EXIT_VOCAB) from None
    print(relation.text())
    return EXIT_OK


def _graph_text(graph: OppositionGraph) -> str:
    return "\n".join(_relation_line(a, b, rel) for a, b, rel in graph.pairs())


def _cmd_graph(args: argparse.Namespace) -> int:
    corpus = _read_corpus(args.corpus)
    try:
        graph = build_graph(corpus, args.bound)
    except ValueError as err:
        raise _CliError(str(err), EXIT_PARSE) from None
    if args.format == "structured":
        print(to_structured(graph))
    elif args.format == "dot":
        print(to_dot(graph))
    else:
        print(_graph_text(graph))
    return EXIT_OK


def _assignment_text(e: SegmentAssignment) -> str:
    lines = ["assignment:"]
    for label in e.labels:
        lines.append(f"  {label} = {e.values[label]} ({e.roles[label].value})")
    return "\n".join(lines)


def _cmd_encode(args: argparse.Namespace) -> int:
    corpus = _read_corpus(args.corpus)
    shape, _ = _detect_shape(corpus)
    square_labels = ("A", "E", "I", "O")
    try:
        assignment = make_square_assignment(args.q, args.r, args.universal_map, square_labels)
        if shape == "hexagon":
            assignment = extend_hexagon(assignment, "U", "Y")
    except ValueError as err:
        raise _CliError(str(err), EXIT_PARSE) from None
    clauses = _clause_system(
        args.clauses,
        ClauseSystem.HEXAGON if shape == "hexagon" else ClauseSystem.SQUARE,
    )
    semantic = build_graph(corpus, args.bound)
    report = verify_against(assignment, clauses, semantic)

    if args.format == "structured":
        document = {
            "schema_version": SCHEMA_VERSION,
            "kind": "encoding_report",
            "clauses": clauses.value,
            "assignment": assignment.to_document(),
            "verification": report.to_document(),
        }
        print(json.dumps(document, indent=2))
    elif args.format == "dot":
        print(to_dot(decode_graph(assignment, clauses)))
    else:
        print(_assignment_text(assignment))
        print()
        print(render_segment(assignment))
        print()
        if report.matches:
            print("verification: matches")
        else:
            print(f"verification: {len(report.mismatches)} mismatches")
            for m in report.mismatches:
                print(
                    f"  {m.a} {m.b} decoded {m.decoded.text()}, "
                    f"semantic {m.semantic.text()}"
                )
    return EXIT_OK if report.matches else EXIT_MISMATCH


def _cmd_synthesize(args: argparse.Namespace) -> int:
    corpus = _read_corpus(args.corpus)
    roles = _corpus_roles(corpus)
    try:
        target = build_graph(corpus, args.bound)
    except ValueError as err:
        raise _CliError(str(err), EXIT_PARSE) from None
    has_hexagon_roles = Role.DISJUNCTION in roles.values()
    clauses = _clause_system(
        args.clauses, ClauseSystem.HEXAGON if has_hexagon_roles else ClauseSystem.SQUARE
    )
    magnitude = args.magnitude if args.magnitude is not None else len(corpus.labels)
    results = synthesize(target, clauses, magnitude, roles)

    if args.format == "structured":
        document = {
            "schema_version": SCHEMA_VERSION,
            "kind": "synthesis_result",
            "clauses": clauses.value,
            "magnitude_bound": magnitude,
            "count": len(results),
            "assignments": [e.to_document() for e in results],
        }
        print(json.dumps(document, indent=2))
    else:
        for e in results:
            print(" ".join(f"{label}={e.values[label]}" for label in e.labels))
        print(f"found {len(results)}")
    return EXIT_OK if results else EXIT_NO_RESULTS


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    handlers = {
        "classify": _cmd_classify,
        "graph": _cmd_graph,
        "encode": _cmd_encode,
        "synthesize": _cmd_synthesize,
    }
    try:
        return handlers[args.command](args)
    except _CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except ShapeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SHAPE


if __name__ == "__main__":
    sys.exit(main())
