"""Command-line interface.

Subcommands: ``classify`` a pair of sentences, ``graph`` a corpus,
``encode`` a categorical corpus on an integer segment, and
``synthesize`` every encoding of a corpus within a magnitude bound.
This module parses arguments and prints; ``segment`` decides a corpus's
shape, its roles and the default clauses.  One table, ``COMMANDS``, gives
each command's positionals, flags and handler, and ``parse_args``, ``-h``
and ``main`` read it.  The argument parser, the library and the input
readers refuse with ``ValueError``, and ``main`` alone maps a refusal to
its exit code.

Each subcommand imports only the modules it runs: ``encode`` and
``synthesize`` import ``segment``, and ``json`` loads only for structured
output, so ``classify`` and ``graph`` never compile either.  No command
imports ``argparse`` (with ``gettext`` and ``locale``) or ``dataclasses``:
records derive from ``formula.Record``.

Exit codes: 0 success, or ``-h`` anywhere; 1 synthesis found nothing (a
meaningful negative result); 2 an argument, parse or input error, a
character stdout's encoding cannot carry, an ``encode`` number line wider
than ``graph.MAX_SEGMENT_COLUMNS``, a ``graph --format dot`` label ending
in a backslash, or more synthesis results than ``segment.MAX_SOLUTIONS``;
3 vocabulary mismatch (``VocabularyMismatchError``); 4 a corpus or roles
of a shape the command or its clauses cannot take (``segment.ShapeError``);
5 verification mismatch; 70 (EX_SOFTWARE) an exception other than
``ValueError`` escaped, which is a bug; 141 (128 + SIGPIPE) stdout closed
before the payload was written, as under ``| head -1``, with nothing on
stderr.  Stdout carries only payload; diagnostics go to stderr, as does
a ``note:`` on an inexact ``--bound``.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
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


def _cmd_classify(args: SimpleNamespace) -> int:
    a = _parse_sentence_arg(args.a, "a")
    b = _parse_sentence_arg(args.b, "b")
    relation = classify(a, b, args.bound)
    _note_if_cut_short(args.bound, [a, b])
    print(relation.text())
    return EXIT_OK


def _cmd_graph(args: SimpleNamespace) -> int:
    graph = _corpus_graph(_read_corpus(args.corpus), args.bound)
    if args.format == "structured":
        print(to_structured(graph))
    elif args.format == "dot":
        print(to_dot(graph))  # a label ending in a backslash raises before printing
    else:
        print("\n".join(f"{a} {b} {rel.text()}" for a, b, rel in graph.pairs()))
    return EXIT_OK


def _cmd_encode(args: SimpleNamespace) -> int:
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
        print("assignment:")
        for label in assignment.labels:
            print(f"  {label} = {assignment.values[label]} ({assignment.roles[label].value})")
        print(f"\n{line}\n")
        if report.matches:
            print("verification: matches")
        else:
            print(f"verification: {len(report.mismatches)} mismatches")
            for m in report.mismatches:
                print(f"  {m.a} {m.b} decoded {m.decoded.text()}, semantic {m.semantic.text()}")
    return EXIT_OK if report.matches else EXIT_MISMATCH


def _cmd_synthesize(args: SimpleNamespace) -> int:
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


def _positive_int(text: str) -> int:
    if (value := int(text)) < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


# command -> (help, positionals, flags, handler); a flag is (name, destination,
# converter or tuple of choices, default), and is required if its default is _REQUIRED
_REQUIRED = object()
_BOUND = ("--bound", "bound", _positive_int, None)
_CORPUS = ("--corpus", "corpus", str, _REQUIRED)
_CLAUSES = ("--clauses", "clauses", ("square", "hexagon"), None)
_FORMAT = ("--format", "format", ("structured", "dot", "text"), "text")
COMMANDS = {
    "classify": ("classify the opposition between two sentences", ("a", "b"), (_BOUND,),
                 _cmd_classify),
    "graph": ("build the opposition graph of a corpus", (), (_CORPUS, _BOUND, _FORMAT),
              _cmd_graph),
    "encode": ("encode a categorical square or hexagon corpus on a segment", (), (
        _CORPUS, _CLAUSES, ("--q", "q", int, 1), ("--r", "r", int, 2),
        ("--map", "universal_map", UNIVERSAL_MAPS, A_LOW), _BOUND, _FORMAT,
    ), _cmd_encode),
    "synthesize": ("search for segment encodings of a corpus graph", (), (
        _CORPUS, _CLAUSES, ("--magnitude", "magnitude", _positive_int, None), _BOUND,
        ("--format", "format", ("structured", "text"), "text"),
    ), _cmd_synthesize),
}
_METAVARS = {str: "PATH|-", int: "INT", _positive_int: "N"}


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The command and each destination of ``argv``; raises ValueError on
    any refusal.  A flag's value may follow it or an ``=``, and may begin
    with one ``-``; the last of a repeated flag wins."""
    if not argv or argv[0] not in COMMANDS:
        found = f"unknown command {argv[0]!r}" if argv else "no command"
        raise ValueError(f"{found}; choose from {', '.join(COMMANDS)}")
    command, rest = argv[0], iter(argv[1:])
    _, names, rows, _ = COMMANDS[command]
    flags = {row[0]: row for row in rows}
    values = {dest: default for _, dest, _, default in rows}
    positionals = []
    for arg in rest:
        if not arg.startswith("--"):
            positionals.append(arg)
            continue
        flag, equals, text = arg.partition("=")
        if flag not in flags:
            raise ValueError(f"{command} has no flag {flag}")
        if not equals and ((text := next(rest, None)) is None or text.startswith("--")):
            raise ValueError(f"argument {flag}: expected a value")
        _, dest, kind, _ = flags[flag]
        if isinstance(kind, tuple) and text not in kind:
            raise ValueError(f"argument {flag}: invalid choice {text!r}, not {'|'.join(kind)}")
        try:
            values[dest] = text if isinstance(kind, tuple) else kind(text)
        except ValueError as err:
            raise ValueError(f"argument {flag}: {err}") from None
    if len(positionals) != len(names):
        raise ValueError(f"{command} takes {len(names)} positionals, got {len(positionals)}")
    for flag, dest, _, _ in rows:
        if values[dest] is _REQUIRED:
            raise ValueError(f"argument {flag} is required")
    return SimpleNamespace(command=command, **dict(zip(names, positionals)), **values)


def usage(command: str) -> str:
    """The ``-h`` text: a command's synopsis and help, or every command's."""
    lines = ["usage:"]
    for name in [command] if command in COMMANDS else COMMANDS:
        summary, names, rows, _ = COMMANDS[name]
        words = ["oppositions", name, *(n.upper() for n in names)]
        for flag, _, kind, default in rows:
            metavar = "|".join(kind) if isinstance(kind, tuple) else _METAVARS[kind]
            words.append(f"{flag} {metavar}" if default is _REQUIRED else f"[{flag} {metavar}]")
        lines += ["  " + " ".join(words), f"      {summary}"]
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if "-h" in argv or "--help" in argv:
            print(usage(argv[0]))
            code = EXIT_OK
        else:
            args = parse_args(argv)
            code = COMMANDS[args.command][3](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull, so that the flush
        # at interpreter exit has nowhere left to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except UnicodeEncodeError as err:  # a ValueError that the output, not the input, raised
        text = err.object[err.start : err.end]
        print(f"error: stdout's encoding {err.encoding} cannot write {text!r}", file=sys.stderr)
        return EXIT_PARSE
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
