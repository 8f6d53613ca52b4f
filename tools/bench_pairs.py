"""Paired benchmark runs of two revisions, written to one JSON file.

Run from the root of a git checkout::

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --out BENCH_<n>.json

Each revision is exported with ``git archive`` into its own directory, so
the runs see committed files only.  For every workload and each of the ten
pairs, ``bench/run.py --trace 0`` runs once on each side with the same seed
for the ``run_seconds`` that ``BENCHMARK.json`` fixes, and the side that
runs first alternates from pair to pair, so a drift of the machine's speed
falls on both sides alike.  Seed ``s`` is used for pair
``s - seed_start``.  After the pairs, each seed gets one ``--trace 1``
run per side, in the same alternating order, and these ten runs per side
give the per-layer metrics, ``cli.import_s`` among them.

The output holds, per workload and end-to-end metric, each side's runs,
median and quartiles, and the number of pairs the change won (strictly
better than the parent in the same pair), next to the bound from
``BENCHMARK.json``; the seconds behind ``verdict_p50_x`` and each side's
per-layer metrics the same way, as median, quartiles and runs; the
seeds, each side's ``src/`` line count in all and per module, the lines
that ``classify`` loads and the lines and AST nodes that each command in
``WORKLOAD_COMMANDS`` loads, each side's in-process oracle seconds on
seeded inputs no workload reaches, with the graph's bytes per pair on a
large corpus (``oracle_s``), and the machine facts
``bench/run.py`` reports.
Children run with ``PYTHONDONTWRITEBYTECODE=1``, so every CLI call
compiles what it imports.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path.cwd()
SIDES = ("parent", "change")
PAIRS = 10  # the fewest pairs a claimed gain is judged on
TRACE_SECONDS = 5  # the per-layer numbers are context; the claims rest on the pairs
# the seconds behind verdict_p50_x: the CLI's median and a bare interpreter's
BASES = ("verdict_p50_s", "bare_interpreter_p50_s")


def export(rev: str, dest: Path) -> str:
    """Write the committed files of ``rev`` under ``dest``; return its commit."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True, cwd=ROOT,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], check=True, capture_output=True, cwd=ROOT
    ).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def module_lines(tree: Path) -> dict[str, int]:
    """Lines of each ``src/oppositions/*.py`` in an exported tree, counted as
    ``bench/run.py`` counts ``src_lines``: one per newline."""
    package = tree / "src" / "oppositions"
    return {path.name: path.read_bytes().count(b"\n") for path in sorted(package.glob("*.py"))}


def nodes(path: Path) -> int:
    """AST nodes of a module, as ``ast.walk`` yields them from the parsed
    file: ``compile`` takes time in proportion to them, and docstrings and
    comments add few or none."""
    return sum(1 for _ in ast.walk(ast.parse(path.read_bytes())))


SQUARE = "A: A[P]\nE: E[P]\nI: I[P]\nO: O[P]\n"
HEXAGON = SQUARE + "U: U[P]\nY: Y[P]\n"
# the command that each workload times, the README's encode, which
# cli-readme times among others, and graph's DOT output, as (corpus text or
# None, arguments); which modules a command loads does not depend on its
# inputs' size
WORKLOAD_COMMANDS = {
    "classify-k3": (None, ("classify", "A[P]", "O[P]")),
    "graph-wide": (SQUARE, ("graph", "--format", "structured")),
    "graph-dot": (SQUARE, ("graph", "--format", "dot")),
    "synth-hexagon": (HEXAGON, ("synthesize", "--clauses", "hexagon", "--magnitude", "16")),
    "readme-encode": (HEXAGON, ("encode", "--q", "1", "--r", "2")),
}


def command_path_files(tree: Path, corpus: str | None, argv: tuple[str, ...]) -> set[str]:
    """The files of the package modules that ``python -m oppositions``
    loads in an exported tree to run ``argv``, with ``--corpus`` holding
    ``corpus`` unless it is None; ``__main__.py`` is included.  ``-v``
    names every module the run executes; ``-X importtime`` misses one that
    ``importlib`` loads, as the package's ``__getattr__`` loads ``segment``
    for ``cli``'s ``from . import segment``.  ``__main__`` runs without an
    import."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-corpus-") as tmp:
        if corpus is not None:
            path = Path(tmp) / "input.corpus"
            path.write_text(corpus, encoding="utf-8")
            argv = (*argv, "--corpus", str(path))
        done = subprocess.run(
            [sys.executable, "-v", "-m", "oppositions", *argv],
            check=True, capture_output=True, text=True, cwd=tree, env=env,
        )
    names = {line.split("'")[1] for line in done.stderr.splitlines() if line.startswith("import '")}
    return {"__main__.py"} | {
        ("__init__" if name == "oppositions" else name.removeprefix("oppositions.")) + ".py"
        for name in names
        if name.split(".")[0] == "oppositions"
    }


def command_path_lines(tree: Path, corpus: str | None, argv: tuple[str, ...]) -> int:
    """Lines of the modules ``command_path_files`` names, each counted as
    ``module_lines`` counts it."""
    lines = module_lines(tree)
    return sum(lines[file] for file in command_path_files(tree, corpus, argv))


def command_path_nodes(tree: Path, corpus: str | None, argv: tuple[str, ...]) -> int:
    """AST nodes of the modules ``command_path_files`` names, by ``nodes``."""
    package = tree / "src" / "oppositions"
    return sum(nodes(package / file) for file in command_path_files(tree, corpus, argv))


def classify_path_lines(tree: Path) -> int:
    """Lines that ``classify 'A[P]' 'O[P]'`` loads, as ``command_path_lines``
    counts them."""
    return command_path_lines(tree, *WORKLOAD_COMMANDS["classify-k3"])


def oracle_corpus(seed: int = 1, sentences: int = 60, leaves: int = 3) -> str:
    """A seeded k = 4 corpus: each sentence joins ``leaves`` leaves by & or |,
    each leaf is forall or exists of a matrix up to 3 deep over P, Q, R and
    S, and 30% of atoms, subformulas and joins are negated."""
    rng = random.Random(seed)

    def matrix(depth: int) -> str:
        if depth == 0 or rng.random() < 0.3:
            text = f"{rng.choice('PQRS')}(x)"
        else:
            text = f"({matrix(depth - 1)} {rng.choice(('&', '|', '->'))} {matrix(depth - 1)})"
        return f"~{text}" if rng.random() < 0.3 else text

    def leaf() -> str:
        return f"({rng.choice(('forall', 'exists'))} x. {matrix(3)})"

    lines = []
    for i in range(sentences):
        text = leaf()
        for _ in range(leaves - 1):
            text = f"({text} {rng.choice('&|')} {leaf()})"
            if rng.random() < 0.3:
                text = f"~{text}"
        lines.append(f"s{i}: {text}\n")
    return "".join(lines)


def wide_pair(seed: int = 1, leaves: int = 16, predicates: int = 5) -> tuple[str, str]:
    """A seeded pair with ``leaves`` distinct leaves over P0, P1, ...: each says
    that some element lies in one of three named cells; the first half are
    joined by & into one sentence and the rest by | into the other."""
    rng = random.Random(seed)
    names = [f"P{j}" for j in range(predicates)]
    chosen = set()
    while len(chosen) < leaves:
        chosen.add(tuple(sorted(rng.sample(range(1 << predicates), 3))))

    def cell(c: int) -> str:
        literals = (f"{'' if c >> j & 1 else '~'}{p}(x)" for j, p in enumerate(names))
        return f"({' & '.join(literals)})"

    parts = [f"(exists x. {' | '.join(cell(c) for c in cells)})" for cells in sorted(chosen)]
    return " & ".join(parts[: leaves // 2]), " | ".join(parts[leaves // 2 :])


def aeio_corpus(sentences: int) -> str:
    """``A[P]``, ``E[P]``, ``I[P]`` and ``O[P]`` in turn, labelled ``s0``, ``s1``, ...:
    one leaf, so the oracle is trivial and the graph's own cost per pair shows."""
    return "".join(f"s{i}: {'AEIO'[i % 4]}[P]\n" for i in range(sentences))


ORACLE_BOUNDS = (None, 2, 5, 8)  # build_graph's bounds on the 60 x 3 corpus
ORACLE_PAIR_BOUND = 5  # classify's bound on the wide pair
ORACLE_REPEATS = 3
ORACLE_LARGE = 120  # sentences of the larger corpus, which build_graph takes with no bound
ORACLE_AEIO = 500  # sentences of the A/E/I/O corpus, whose graph's memory is traced
# reads the inputs as JSON on stdin; writes the best time of each call, and a
# digest of each graph built with no bound, as JSON
ORACLE_CHILD = """
import hashlib, json, sys, time, tracemalloc
from oppositions import build_graph, classify, parse_corpus, parse_sentence
spec = json.load(sys.stdin)
digests = {}

def best(call):
    times = []
    for _ in range(spec["repeats"]):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return min(times), result

def unbounded(key, corpus):
    seconds, graph = best(lambda: build_graph(corpus, None))
    text = "\\n".join(f"{a} {b} {r.text()}" for a, b, r in graph.pairs())
    digests[key] = hashlib.sha256(text.encode()).hexdigest()
    return seconds

corpus = parse_corpus(spec["corpus"])
a, b = (parse_sentence(text) for text in spec["pair"])

def at(n):
    return unbounded("60x3", corpus) if n is None else best(lambda: build_graph(corpus, n))[0]

graph = {str(n).lower(): at(n) for n in spec["bounds"]}
pair = best(lambda: classify(a, b, spec["pair_bound"]))[0]
large = {"none": unbounded("120x3", parse_corpus(spec["large_corpus"]))}
aeio = parse_corpus(spec["aeio_corpus"])
seconds = best(lambda: build_graph(aeio, None))[0]
tracemalloc.start()
build_graph(aeio, None)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
aeio_row = {"seconds": seconds, "peak_bytes_per_pair": peak / spec["aeio_pairs"]}
json.dump({"build_graph_60x3": graph, "classify_wide_pair": pair, "build_graph_120x3": large,
           "build_graph_500_aeio": aeio_row, "graph_sha256": digests}, sys.stdout)
"""


def oracle_s(tree: Path) -> dict:
    """The oracle's in-process seconds in an exported tree, best of
    ``ORACLE_REPEATS`` in one child: ``build_graph`` on ``oracle_corpus()``
    at each of ``ORACLE_BOUNDS`` (keyed ``none``, ``2``, ...) and
    ``classify`` on ``wide_pair()`` at ``ORACLE_PAIR_BOUND``; then
    ``build_graph`` with no bound on the ``ORACLE_LARGE`` × 3 corpus of the
    same seed (keyed ``none``), and on ``aeio_corpus(ORACLE_AEIO)``, keyed
    ``seconds``, next to the ``tracemalloc`` peak of one more call over its
    pairs (``peak_bytes_per_pair``).
    ``graph_sha256`` holds a digest of each graph built with no bound, over
    its text lines, so two revisions' graphs can be compared.  The child
    calls only ``parse_corpus``, ``parse_sentence``, ``build_graph``,
    ``classify``, a graph's ``pairs`` and a relation's ``text``, so any
    revision of the package since those two names runs it."""
    spec = {
        "corpus": oracle_corpus(), "pair": wide_pair(), "bounds": ORACLE_BOUNDS,
        "pair_bound": ORACLE_PAIR_BOUND, "repeats": ORACLE_REPEATS,
        "large_corpus": oracle_corpus(sentences=ORACLE_LARGE),
        "aeio_corpus": aeio_corpus(ORACLE_AEIO), "aeio_pairs": ORACLE_AEIO * (ORACLE_AEIO - 1) // 2,
    }
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", ORACLE_CHILD], input=json.dumps(spec),
        check=True, capture_output=True, text=True, cwd=tree, env=env,
    )
    return json.loads(done.stdout)


def order(i: int) -> tuple[str, ...]:
    """The sides of pair ``i`` in the order they run: the parent first in
    even pairs, the change first in odd ones."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One ``bench/run.py`` run in ``tree``: its result line and its context."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True, cwd=tree, env=env,
    )
    *_, context_line, result_line = done.stdout.splitlines()
    return json.loads(result_line), json.loads(context_line)["context"]


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def traced_summary(results: list[dict]) -> dict:
    """Each metric of one side's traced runs, as ``summary`` gives it."""
    return {
        name: summary([r["metrics"][name]["value"] for r in results])
        for name in results[0]["metrics"]
    }


def compare(spec: dict, runs: dict[str, list[dict]]) -> dict:
    """Both sides of one end-to-end metric, and the pairs the change won."""
    name = spec["name"]
    values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
    sign = -1 if spec["better"] == "lower" else 1
    won = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        **{side: summary(values[side]) for side in SIDES},
        "pairs_won": won,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--change", default="HEAD", help="revision under test")
    parser.add_argument("--seed-start", type=int, default=1)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    seeds = list(range(args.seed_start, args.seed_start + PAIRS))
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        commits = {side: export(getattr(args, side), trees[side]) for side in SIDES}
        modules = {side: module_lines(trees[side]) for side in SIDES}
        command_path = {
            side: {w: command_path_lines(trees[side], *c) for w, c in WORKLOAD_COMMANDS.items()}
            for side in SIDES
        }
        command_nodes = {
            side: {w: command_path_nodes(trees[side], *c) for w, c in WORKLOAD_COMMANDS.items()}
            for side in SIDES
        }
        classify_path = {side: command_path[side]["classify-k3"] for side in SIDES}
        oracle = {side: oracle_s(trees[side]) for side in SIDES}
        report = {
            "schema_version": 1,
            "kind": "bench_pairs",
            "commits": commits,
            "seconds": seconds,
            "seeds": seeds,
            "workloads": {},
        }
        facts = {}
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            bases = {side: {key: [] for key in BASES} for side in SIDES}
            first = []
            for i, seed in enumerate(seeds):
                first.append(order(i)[0])
                for side in order(i):
                    result, context = bench(trees[side], workload, seed, seconds, 0)
                    runs[side].append(result)
                    for key in BASES:
                        bases[side][key].append(context[key])
                    facts[side] = context
                print(f"{workload} seed {seed} done", file=sys.stderr)
            traced = {side: [] for side in SIDES}
            for i, seed in enumerate(seeds):
                for side in order(i):
                    traced[side].append(bench(trees[side], workload, seed, TRACE_SECONDS, 1)[0])
            print(f"{workload} traced runs done", file=sys.stderr)
            report["workloads"][workload] = {
                "first": first,
                "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
                "metrics": {s["name"]: compare(s, runs) for s in benchmark["end_to_end"]},
                "bases": {
                    side: {key: summary(values) for key, values in bases[side].items()}
                    for side in SIDES
                },
                "traced": {side: traced_summary(traced[side]) for side in SIDES},
            }
    report["src_lines"] = {side: facts[side]["src_lines"] for side in SIDES}
    report["module_lines"] = modules
    report["classify_path_lines"] = classify_path
    report["command_path_lines"] = command_path
    report["command_path_nodes"] = command_nodes
    report["oracle_s"] = oracle
    report["machine"] = {k: facts["change"][k] for k in ("nproc", "cpus_usable", "python")}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
