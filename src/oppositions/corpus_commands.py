"""The corpus commands' readers, and ``graph``'s handler.

``_read_corpus`` and ``_corpus_graph`` read a corpus and build its graph
for ``graph``, ``encode`` and ``synthesize``.  The handlers of the last
two live in ``construction`` and ``segment``, which only their commands
load, so ``graph`` compiles neither.  ``cli.main`` imports this module
only to run a corpus command, so ``classify`` compiles none of it.  A
handler returns its exit code and payload for ``main`` to write; the
exit codes and the cut-short note are ``cli``'s.
"""

import sys
from types import SimpleNamespace

from .cli import EXIT_OK, _note_if_cut_short
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


def _cmd_graph(args: SimpleNamespace) -> tuple[int, str]:
    graph = _corpus_graph(_read_corpus(args.corpus), args.bound)
    if args.format == "structured":
        from .document import to_structured
        return EXIT_OK, to_structured(graph)
    if args.format == "dot":
        from .dot import to_dot
        return EXIT_OK, to_dot(graph)
    return EXIT_OK, "\n".join(f"{a} {b} {rel.text()}" for a, b, rel in graph.pairs())
