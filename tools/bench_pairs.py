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
seeds, each side's ``src/`` line count and the machine facts
``bench/run.py`` reports.  Children run with
``PYTHONDONTWRITEBYTECODE=1``, so every CLI call compiles what it imports.
"""

from __future__ import annotations

import argparse
import io
import json
import os
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
    report["machine"] = {k: facts["change"][k] for k in ("nproc", "cpus_usable", "python")}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
