"""In-process replay of the CLI handlers, with a span around each layer call.

Each handler here calls the same public functions, in the same order, as
the ``oppositions`` CLI handler of the same name; the CLI's private shape
check and argument parsing are left to ``cli.main``, which the traced run
times separately.  Counts are attached to a span after it closes, so
counting is charged to the tracing overhead, not to the layer.

Importing this module imports the package under test; the benchmark does
so only for the traced run.
"""

from __future__ import annotations

import io
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, is_dataclass
from math import comb, factorial
from time import perf_counter

from oppositions import cli
from oppositions.formula import sentence_predicates
from oppositions.graph import render_segment, to_dot, to_structured
from oppositions.parser import parse_corpus, parse_sentence
from oppositions.segment import (
    ClauseSystem,
    Role,
    decode_graph,
    extend_hexagon,
    infer_role,
    make_square_assignment,
    synthesize,
    verify_against,
)
from oppositions.semantics import build_graph, classify


def _option(argv, flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _int_option(argv, flag: str):
    value = _option(argv, flag)
    return None if value is None else int(value)


def ast_nodes(node) -> int:
    """Nodes of a sentence tree, counted over its dataclass fields."""
    return 1 + sum(
        ast_nodes(child)
        for child in (getattr(node, f.name) for f in fields(node))
        if is_dataclass(child)
    )


def model_space(k: int, bound: int) -> int:
    """Models the enumerator scans for one pair: sum of 2^(n*k), n <= bound."""
    return sum(2 ** (n * k) for n in range(1, bound + 1))


def candidate_space(labels: int, magnitude: int) -> int:
    """Candidates the bounded synthesizer tries: C(M, n/2) * ((n/2)!)^2."""
    half = labels // 2
    return comb(magnitude, half) * factorial(half) ** 2


def _parse_corpus(argv, tracer):
    with open(_option(argv, "--corpus"), encoding="utf-8") as handle:
        text = handle.read()
    with tracer.span("parser.parse_corpus") as span:
        corpus = parse_corpus(text)
    if span:
        span.counts.update(
            sentences=len(corpus),
            ast_nodes=sum(ast_nodes(s) for _, s in corpus.entries),
            predicates=len(corpus.vocabulary),
        )
    return corpus


def _build_graph(corpus, bound, tracer):
    with tracer.span("semantics.build_graph") as span:
        graph = build_graph(corpus, bound)
    if span:
        k = len(corpus.vocabulary)
        pairs = comb(len(corpus), 2)
        span.counts.update(pairs=pairs, model_space=pairs * model_space(k, bound or 2**k))
    return graph


def _emit(name: str, render, *args, tracer):
    with tracer.span(name) as span:
        text = render(*args)
    if span:
        span.counts["bytes"] = len(text.encode())
    return text


def _classify(argv, tracer) -> int:
    sentences = []
    for text in argv[1:3]:
        with tracer.span("parser.parse_sentence") as span:
            sentences.append(parse_sentence(text))
        if span:
            s = sentences[-1]
            span.counts.update(
                sentences=1, ast_nodes=ast_nodes(s), predicates=len(sentence_predicates(s))
            )
    bound = _int_option(argv, "--bound")
    with tracer.span("semantics.classify") as span:
        classify(sentences[0], sentences[1], bound)
    if span:
        k = len(sentence_predicates(sentences[0]))
        span.counts.update(pairs=1, model_space=model_space(k, bound or 2**k))
    return 0


def _graph(argv, tracer) -> int:
    corpus = _parse_corpus(argv, tracer)
    graph = _build_graph(corpus, _int_option(argv, "--bound"), tracer)
    fmt = _option(argv, "--format", "text")
    if fmt == "structured":
        _emit("graph.to_structured", to_structured, graph, tracer=tracer)
    elif fmt == "dot":
        _emit("graph.to_dot", to_dot, graph, tracer=tracer)
    return 0


def _encode(argv, tracer) -> int:
    corpus = _parse_corpus(argv, tracer)
    hexagon = set(corpus.labels) == set("AEIOUY")
    q, r = _int_option(argv, "--q") or 1, _int_option(argv, "--r") or 2
    with tracer.span("segment.make_square_assignment"):
        assignment = make_square_assignment(q, r, _option(argv, "--map", "a-low"), tuple("AEIO"))
    if hexagon:
        with tracer.span("segment.extend_hexagon"):
            assignment = extend_hexagon(assignment, "U", "Y")
    clauses = ClauseSystem(_option(argv, "--clauses", "hexagon" if hexagon else "square"))
    semantic = _build_graph(corpus, _int_option(argv, "--bound"), tracer)
    with tracer.span("segment.verify_against"):
        report = verify_against(assignment, clauses, semantic)
    fmt = _option(argv, "--format", "text")
    if fmt == "dot":
        with tracer.span("segment.decode_graph"):
            decoded = decode_graph(assignment, clauses)
        _emit("graph.to_dot", to_dot, decoded, tracer=tracer)
    elif fmt == "text":
        _emit("graph.render_segment", render_segment, assignment, tracer=tracer)
    return 0 if report.matches else 5


def _synthesize(argv, tracer) -> int:
    corpus = _parse_corpus(argv, tracer)
    with tracer.span("segment.infer_role"):
        roles = {label: infer_role(s) for label, s in corpus.entries}
    target = _build_graph(corpus, _int_option(argv, "--bound"), tracer)
    fallback = "hexagon" if Role.DISJUNCTION in roles.values() else "square"
    clauses = ClauseSystem(_option(argv, "--clauses", fallback))
    magnitude = _int_option(argv, "--magnitude") or len(corpus)
    with tracer.span("segment.synthesize") as span:
        results = synthesize(target, clauses, magnitude, roles)
    if span:
        span.counts.update(
            solutions=len(results), candidate_space=candidate_space(len(corpus), magnitude)
        )
    return 0 if results else 1


_HANDLERS = {
    "classify": _classify,
    "graph": _graph,
    "encode": _encode,
    "synthesize": _synthesize,
}


def replay(argv, tracer) -> int:
    """Run one invocation's layer calls in-process; returns its exit code."""
    with tracer.span("cli.replay"):
        return _HANDLERS[argv[0]](argv, tracer)


def run_main(argv) -> tuple[int, str, float]:
    """``cli.main`` in-process: exit code, stdout and wall seconds."""
    out = io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue(), perf_counter() - start


# --- per-layer metrics from spans ----------------------------------------------

_GROUPS = {
    "parser": ("parser.parse_sentence", "parser.parse_corpus"),
    "semantics": ("semantics.build_graph", "semantics.classify"),
    "build_graph": ("semantics.build_graph",),
    "classify": ("semantics.classify",),
    "synthesize": ("segment.synthesize",),
    "decode": ("segment.decode_graph",),
    "verify": ("segment.verify_against",),
    "emit": ("graph.to_structured", "graph.to_dot", "graph.render_segment"),
}


def layer_metrics(own, probe) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics from the workload's spans.

    A layer the workload's commands never call is measured on the probe
    spans instead, so that every metric is measured in every traced run;
    the second result names those layers.  Times are medians per call,
    counts means per call, and rates totals over totals.
    """
    from_probe = []

    def pick(group):
        names = _GROUPS[group]
        spans = [s for s in own if s.name in names]
        if not spans:
            from_probe.append(group)
            spans = [s for s in probe if s.name in names]
        return spans

    def median_s(spans):
        return statistics.median(s.duration for s in spans)

    def total(spans, key):
        return sum(s.counts[key] for s in spans)

    m: dict[str, tuple[float, str]] = {}
    parse = pick("parser")
    m["parser.parse_s"] = (median_s(parse), "s")
    m["parser.sentences"] = (total(parse, "sentences") / len(parse), "count")
    m["parser.sentences_per_s"] = (
        total(parse, "sentences") / sum(s.duration for s in parse),
        "1/s",
    )
    m["formula.ast_nodes"] = (total(parse, "ast_nodes") / len(parse), "count")
    m["formula.predicates"] = (max(s.counts["predicates"] for s in parse), "count")

    semantic = pick("semantics")
    m["semantics.build_graph_s"] = (median_s(pick("build_graph")), "s")
    m["semantics.classify_p50_s"] = (median_s(pick("classify")), "s")
    m["semantics.pairs"] = (total(semantic, "pairs") / len(semantic), "count")
    m["semantics.pairs_per_s"] = (
        total(semantic, "pairs") / sum(s.duration for s in semantic),
        "1/s",
    )
    m["semantics.model_space"] = (total(semantic, "model_space") / len(semantic), "count")

    synth = pick("synthesize")
    m["segment.synthesize_s"] = (median_s(synth), "s")
    m["segment.solutions"] = (total(synth, "solutions") / len(synth), "count")
    m["segment.candidate_space"] = (total(synth, "candidate_space") / len(synth), "count")
    m["segment.solution_yield"] = (
        total(synth, "solutions") / total(synth, "candidate_space"),
        "ratio",
    )
    m["segment.decode_s"] = (median_s(pick("decode")), "s")
    m["segment.verify_s"] = (median_s(pick("verify")), "s")

    emit = pick("emit")
    m["graph.emit_s"] = (median_s(emit), "s")
    m["graph.emit_bytes"] = (total(emit, "bytes") / len(emit), "bytes")
    return m, from_probe
