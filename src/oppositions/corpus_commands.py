"""The corpus commands: ``graph``, ``encode`` and ``synthesize``.

``cli.main`` imports this module only to run one of them, so ``classify``
compiles none of it.  Each handler is named after its command, reads its
corpus, and returns its exit code and payload for ``main`` to write; the
exit codes and the cut-short note are ``cli``'s.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .cli import EXIT_MISMATCH, EXIT_NO_RESULTS, EXIT_OK, _note_if_cut_short
from .graph import OppositionGraph
from .parser import Corpus, ParseError, parse_corpus
from .semantics import pair_relations


def _read_corpus(path: str) -> Corpus:
    if path == "-" and sys.stdin is None:  # fd 0 was closed before start
        raise ValueError("cannot read corpus: stdin is closed")
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


def _corpus_graph(corpus: Corpus, bound: int | None) -> OppositionGraph:
    relations, cut = pair_relations(corpus, bound)
    graph = OppositionGraph(corpus.labels, relations)
    _note_if_cut_short(bound, cut)
    return graph


def graph(args: SimpleNamespace) -> tuple[int, str]:
    graph = _corpus_graph(_read_corpus(args.corpus), args.bound)
    if args.format == "structured":
        from .document import to_structured
        return EXIT_OK, to_structured(graph)
    if args.format == "dot":
        from .graph import to_dot
        return EXIT_OK, to_dot(graph)
    return EXIT_OK, "\n".join(f"{a} {b} {rel.text()}" for a, b, rel in graph.pairs())


def encode(args: SimpleNamespace) -> tuple[int, str]:
    from .construction import corpus_assignment, decode_graph, render_segment, verify_against
    from .graph import envelope, to_dot
    from .segment import clause_system

    corpus = _read_corpus(args.corpus)
    assignment = corpus_assignment(corpus, args.q, args.r, args.universal_map)
    clauses = clause_system(assignment.roles, args.clauses)
    semantic = _corpus_graph(corpus, args.bound)
    report = verify_against(assignment, clauses, semantic)
    code = EXIT_OK if report.matches else EXIT_MISMATCH

    if args.format == "structured":
        from .document import dumps
        return code, dumps(envelope(
            "encoding_report",
            clauses=clauses.value,
            assignment=assignment.to_document(),
            verification=report.to_document(),
        ))
    if args.format == "dot":
        return code, to_dot(decode_graph(assignment, clauses))
    lines = ["assignment:"]
    for label in assignment.labels:
        lines.append(f"  {label} = {assignment.values[label]} ({assignment.roles[label].value})")
    lines += ["", render_segment(assignment), ""]
    verdict = f"{len(report.mismatches)} mismatches" if report.mismatches else "matches"
    lines.append(f"verification: {verdict}")
    lines += [f"  {m.a} {m.b} decoded {m.decoded.text()}, semantic {m.semantic.text()}"
              for m in report.mismatches]
    return code, "\n".join(lines)


def synthesize(args: SimpleNamespace) -> tuple[int, str]:
    from . import segment
    from .graph import envelope

    corpus = _read_corpus(args.corpus)
    roles = segment.corpus_roles(corpus)
    target = _corpus_graph(corpus, args.bound)
    clauses = segment.clause_system(roles, args.clauses)
    magnitude = args.magnitude if args.magnitude is not None else len(corpus.labels)
    results = segment.synthesize(target, clauses, magnitude, roles)
    code = EXIT_OK if results else EXIT_NO_RESULTS

    if args.format == "structured":
        from .document import dumps
        return code, dumps(envelope(
            "synthesis_result",
            clauses=clauses.value,
            magnitude_bound=magnitude,
            count=len(results),
            assignments=[e.to_document() for e in results],
        ))
    lines = [" ".join(f"{label}={e.values[label]}" for label in e.labels) for e in results]
    return code, "\n".join([*lines, f"found {len(results)}"])
