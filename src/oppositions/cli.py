"""Command-line interface.

Subcommands: ``classify`` a pair of sentences, ``graph`` a corpus,
``encode`` a categorical corpus on an integer segment, and
``synthesize`` every encoding of a corpus within a magnitude bound.
This module parses arguments and prints; ``segment`` decides a corpus's
shape, its roles and the default clauses.  The library and the input
readers refuse with ``ValueError``, and ``main`` alone maps a refusal to
its exit code.

Each subcommand imports only the modules it runs: ``encode`` and
``synthesize`` import ``segment``, and ``json`` loads only for structured
output, so ``classify`` and ``graph`` never compile either.  No command
imports ``dataclasses``: records derive from ``formula.Record``.

Exit codes: 0 success; 1 synthesis found nothing (a meaningful negative
result); 2 parse or input error, an ``encode`` number line wider than
``graph.MAX_SEGMENT_COLUMNS``, a ``graph --format dot`` label ending in
a backslash, or more synthesis results than ``segment.MAX_SOLUTIONS``;
3 vocabulary mismatch (``VocabularyMismatchError``); 4 a corpus or roles
of a shape the command or its clauses cannot take (``segment.ShapeError``);
5 verification mismatch; 70 (EX_SOFTWARE) an exception other than
``ValueError`` escaped, which is a bug; 141 (128 + SIGPIPE) stdout closed
before the payload was written, as under ``| head -1``, with nothing on
stderr.  Stdout carries only payload; diagnostics go to stderr, as does
a ``note:`` on an inexact ``--bound``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .formula import Sentence
from .graph import (
    A_LOW,
    OppositionGraph,
    SCHEMA_VERSION,
    UNIVERSAL_MAPS,
    render_segment,
    to_dot,
    to_structured,
)
from .parser import Corpus, ParseError, parse_corpus, parse_sentence
from .semantics import VocabularyMismatchError, build_graph, classify, exact_bound

EXIT_OK = 0
EXIT_NO_RESULTS = 1
EXIT_PARSE = 2
EXIT_VOCAB = 3
EXIT_SHAPE = 4
EXIT_MISMATCH = 5
EXIT_INTERNAL = 70
EXIT_BROKEN_PIPE = 141


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
        "--bound", type=_positive_int, default=None, help="domain-size bound (default: exact)"
    )

    graph_p = sub.add_parser("graph", help="build the opposition graph of a corpus")
    _add_corpus_arg(graph_p)
    graph_p.add_argument("--bound", type=_positive_int, default=None)
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
    encode_p.add_argument("--bound", type=_positive_int, default=None)
    encode_p.add_argument(
        "--format", choices=("structured", "dot", "text"), default="text"
    )

    synth_p = sub.add_parser(
        "synthesize", help="search for segment encodings of a corpus graph"
    )
    _add_corpus_arg(synth_p)
    synth_p.add_argument("--clauses", choices=("square", "hexagon"), default=None)
    synth_p.add_argument(
        "--magnitude", type=_positive_int, default=None, help="search bound on |value|"
    )
    synth_p.add_argument("--bound", type=_positive_int, default=None)
    synth_p.add_argument("--format", choices=("structured", "text"), default="text")

    return parser


def _add_corpus_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--corpus",
        required=True,
        help="corpus file of 'label: sentence' lines, or '-' for stdin",
    )


def _read_corpus(path: str) -> Corpus:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ValueError(f"cannot read corpus: {err}") from None
    try:
        return parse_corpus(text)
    except ParseError as err:
        raise ValueError(f"corpus {path}: {err}") from None


def _parse_sentence_arg(text: str, position: str) -> Sentence:
    try:
        return parse_sentence(text)
    except ParseError as err:
        raise ValueError(f"sentence {position}: {err}") from None


def _note_if_cut_short(bound: int | None, sentences: list[Sentence]) -> None:
    if bound is not None and bound < (exact := exact_bound(sentences)):
        print(f"note: --bound {bound} is below {exact}, the least exact bound", file=sys.stderr)


def _corpus_graph(corpus: Corpus, bound: int | None) -> OppositionGraph:
    graph = build_graph(corpus, bound)
    _note_if_cut_short(bound, [s for _, s in corpus.entries])
    return graph


def _cmd_classify(args: argparse.Namespace) -> int:
    a = _parse_sentence_arg(args.a, "a")
    b = _parse_sentence_arg(args.b, "b")
    relation = classify(a, b, args.bound)
    _note_if_cut_short(args.bound, [a, b])
    print(relation.text())
    return EXIT_OK


def _cmd_graph(args: argparse.Namespace) -> int:
    graph = _corpus_graph(_read_corpus(args.corpus), args.bound)
    if args.format == "structured":
        print(to_structured(graph))
    elif args.format == "dot":
        print(to_dot(graph))  # a label ending in a backslash raises before printing
    else:
        print("\n".join(f"{a} {b} {rel.text()}" for a, b, rel in graph.pairs()))
    return EXIT_OK


def _assignment_text(e) -> str:
    lines = ["assignment:"]
    for label in e.labels:
        lines.append(f"  {label} = {e.values[label]} ({e.roles[label].value})")
    return "\n".join(lines)


def _cmd_encode(args: argparse.Namespace) -> int:
    from . import segment

    corpus = _read_corpus(args.corpus)
    assignment = segment.corpus_assignment(corpus, args.q, args.r, args.universal_map)
    clauses = segment.clause_system(assignment.roles, args.clauses)
    semantic = _corpus_graph(corpus, args.bound)
    report = segment.verify_against(assignment, clauses, semantic)

    if args.format == "structured":
        import json
        document = {
            "schema_version": SCHEMA_VERSION,
            "kind": "encoding_report",
            "clauses": clauses.value,
            "assignment": assignment.to_document(),
            "verification": report.to_document(),
        }
        print(json.dumps(document, indent=2))
    elif args.format == "dot":
        print(to_dot(segment.decode_graph(assignment, clauses)))
    else:
        line = render_segment(assignment)  # a refusal comes before anything is printed
        print(_assignment_text(assignment))
        print()
        print(line)
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
    from . import segment

    corpus = _read_corpus(args.corpus)
    roles = segment.corpus_roles(corpus)
    target = _corpus_graph(corpus, args.bound)
    clauses = segment.clause_system(roles, args.clauses)
    magnitude = args.magnitude if args.magnitude is not None else len(corpus.labels)
    results = segment.synthesize(target, clauses, magnitude, roles)

    if args.format == "structured":
        import json
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
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull, so that the flush
        # at interpreter exit has nowhere left to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ValueError as err:  # a refusal of the input, by the library or a reader
        print(f"error: {err}", file=sys.stderr)
        if isinstance(err, VocabularyMismatchError):
            return EXIT_VOCAB
        # only encode and synthesize load segment, and only they can raise ShapeError
        segment = sys.modules.get(f"{__package__}.segment")
        if segment is not None and isinstance(err, segment.ShapeError):
            return EXIT_SHAPE
        return EXIT_PARSE
    except Exception as err:  # the last resort: a bug, never a traceback
        print(f"internal error: {err!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
