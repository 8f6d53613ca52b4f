"""Benchmark of the ``oppositions`` CLI: time to verdict, checked.

Run from the root of a source checkout::

    python3 bench/run.py --workload graph-wide --seed 1 --seconds 20 --trace 0

One client drives the CLI as a subprocess in a closed loop, one child at a
time, over a seeded workload, and checks every verdict against the
independent reference in ``reference.py``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced in-process run.  The last line of stdout is one JSON object; see
``bench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import verdict
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "bench"

SETUP_REPEATS = 4
BARE_RUNS = 5
IMPORT_RUNS = 5
# The default bound at k = 3 is 8 domain elements, minutes per pair today.
DEFAULT_BOUND_K3_LIMIT = 3.0


@dataclass
class Sample:
    seconds: float
    decided: bool
    correct: bool
    bare: float = 0.0  # a bare interpreter start measured right after the invocation

    @property
    def relative(self) -> float:
        return self.seconds / self.bare


def cli_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_cli(inv: workloads.Invocation, limit: float) -> Sample:
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "oppositions", *inv.argv],
            capture_output=True,
            text=True,
            timeout=limit,
            env=cli_env(),
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return Sample(perf_counter() - start, False, False)
    elapsed = perf_counter() - start
    decided = proc.returncode == inv.expected_exit
    correct = decided and verdict.output_matches(inv.argv, proc.stdout, inv.expected)
    return Sample(elapsed, decided, correct)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest order statistic with at least ten samples above it.

    Returns the value and its percentile (the share of samples at or
    below it).  With fewer than eleven samples it is the minimum.
    """
    ordered = sorted(values)
    j = max(len(ordered) - 11, 0)
    return ordered[j], 100.0 * (j + 1) / len(ordered)


def _python_seconds(code: str) -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, env=cli_env(), cwd=ROOT)
    return perf_counter() - start


def facts() -> dict:
    """Context recorded next to the numbers; none of it is gated."""
    src_files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _git_head(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def _git_head() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# --- end-to-end run ---------------------------------------------------------


def timed_run(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    setups, warm = [], []

    def set_up() -> workloads.Workload:
        start = perf_counter()
        wl = workloads.build(name, seed, workdir)
        warm.append(run_cli(wl.invocations[0], wl.time_limit))
        setups.append(perf_counter() - start)
        return wl

    wl = set_up()
    # Whole cycles only, so every run holds each invocation equally often
    # and its median and tail sit at the same place in the cost mix.  The
    # set-up is repeated at even times through the run, so its median does
    # not hang on how fast the machine happened to be in its first second.
    samples: list[Sample] = []
    start = perf_counter()
    while True:
        for inv in wl.invocations:
            sample = run_cli(inv, wl.time_limit)
            sample.bare = _python_seconds("pass")
            samples.append(sample)
        elapsed = perf_counter() - start
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            wl = set_up()
            elapsed = perf_counter() - start
        cycles = len(samples) // len(wl.invocations)
        if elapsed * (cycles + 1) / cycles > seconds:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    times = [s.seconds for s in samples]
    relative = [s.relative for s in samples]
    tail_value, tail_pct = tail(relative)
    attempted = len(samples)
    decided = sum(s.decided for s in samples)
    correct = sum(s.correct for s in samples)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verdict_p50_x": (statistics.median(relative), "x"),
        "verdict_tail_x": (tail_value, "x"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        "decided_share": (decided / attempted, "ratio"),
        "correct_share": (correct / attempted, "ratio"),
    }
    context = {
        "verdict_tail_percentile": tail_pct,
        "verdict_samples": attempted,
        "verdict_p50_s": statistics.median(times),
        "verdict_tail_s": tail(times)[0],
        "bare_interpreter_p50_s": statistics.median(s.bare for s in samples),
        "invocations_per_cycle": len(wl.invocations),
        "cycles": attempted // len(wl.invocations),
        "time_limit_s": wl.time_limit,
        "setup_runs_s": setups,
    }
    return {
        "correct": correct == attempted and all(w.correct for w in warm),
        "attempted": attempted,
        "failed": attempted - correct,
        "metrics": metrics,
        "context": context,
        "samples_s": [(s.seconds, s.bare) for s in samples],
    }


# --- traced run -------------------------------------------------------------------


def traced_run(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import replay
    from spans import Tracer, covered

    start = perf_counter()
    wl = workloads.build(name, seed, workdir)
    replay.replay(wl.invocations[0].argv, Tracer(enabled=False))  # warm-up

    import_code = (
        "import time, sys; t = time.perf_counter(); import oppositions.cli; "
        "sys.stdout.write(repr(time.perf_counter() - t))"
    )
    imports = []
    for _ in range(IMPORT_RUNS):
        child = subprocess.run(
            [sys.executable, "-c", import_code],
            check=True, capture_output=True, text=True, env=cli_env(), cwd=ROOT,
        )
        imports.append(float(child.stdout))
    a, b = wl.k3_pair
    probe_start = perf_counter()
    try:
        subprocess.run(
            [sys.executable, "-m", "oppositions", "classify", a, b],
            capture_output=True, timeout=DEFAULT_BOUND_K3_LIMIT, env=cli_env(), cwd=ROOT,
        )
        k3_timed_out = 0
    except subprocess.TimeoutExpired:
        k3_timed_out = 1
    k3_seconds = perf_counter() - probe_start

    tracer = Tracer()
    untraced = Tracer(enabled=False)
    rows = []  # one per replayed invocation

    def replay_one(run_id: str, inv) -> dict:
        tracer.run = run_id
        order = (tracer, untraced) if len(rows) % 2 == 0 else (untraced, tracer)
        walls = {}
        for t in order:
            t0 = perf_counter()
            code = replay.replay(inv.argv, t)
            walls[t.enabled] = perf_counter() - t0
        main_code, stdout, main_s = replay.run_main(inv.argv)
        root = next(s for s in reversed(tracer.spans) if s.run == run_id and s.parent is None)
        kids = [(s.start, s.end) for s in tracer.spans if s.run == run_id and s.parent == root.id]
        ok = code == main_code == inv.expected_exit and verdict.output_matches(
            inv.argv, stdout, inv.expected
        )
        return {
            "traced": walls[True],
            "untraced": walls[False],
            "main": main_s,
            "self": main_s - covered(kids, root.start, root.end),
            "correct": ok,
        }

    deadline = start + seconds
    while not rows or perf_counter() < deadline:
        i = len(rows)
        rows.append(replay_one(f"{name}-{i}", wl.invocations[i % len(wl.invocations)]))
    own_spans = list(tracer.spans)
    probe_rows = []
    if name != "cli-readme":
        probe = workloads.build("cli-readme", seed, workdir / "probe")
        probe_rows = [replay_one(f"probe-{i}", inv) for i, inv in enumerate(probe.invocations)]
    probe_spans = tracer.spans[len(own_spans):]

    layer, from_probe = replay.layer_metrics(own_spans, probe_spans)
    metrics = dict(layer)
    for kind, count in wl.relation_mix().items():
        metrics[f"semantics.relation_mix.{kind}"] = (count, "count")
    metrics["semantics.default_bound_k3_s"] = (k3_seconds, "s")
    metrics["semantics.default_bound_k3_timed_out"] = (k3_timed_out, "count")
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["cli.main_s"] = (statistics.median(r["main"] for r in rows), "s")
    metrics["cli.self_s"] = (statistics.median(r["self"] for r in rows), "s")
    metrics["trace.overhead_s"] = (statistics.median(r["traced"] - r["untraced"] for r in rows), "s")

    OUT.mkdir(parents=True, exist_ok=True)
    span_file = OUT / f"{name}-seed{seed}-spans.jsonl"
    tracer.write(span_file)
    checked = rows + probe_rows
    correct = sum(r["correct"] for r in checked)
    context = {
        "bare_interpreter_p50_s": statistics.median(
            _python_seconds("pass") for _ in range(BARE_RUNS)
        ),
        "replayed_invocations": len(rows),
        "layers_measured_on_readme_probe": from_probe,
        "computed_metrics": [
            "semantics.model_space",
            "segment.candidate_space",
            "segment.solution_yield",
        ],
        "default_bound_k3_limit_s": DEFAULT_BOUND_K3_LIMIT,
        "default_bound_k3_pair": [a, b],
        "spans": str(span_file.relative_to(ROOT)),
        "span_count": len(tracer.spans),
    }
    return {
        "correct": correct == len(checked),
        "attempted": len(checked),
        "failed": len(checked) - correct,
        "metrics": metrics,
        "context": context,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oppositions" / "cli.py").is_file():
        print(f"error: no oppositions sources under {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / "inputs" / f"{args.workload}-seed{args.seed}"
    run = traced_run if args.trace else timed_run
    result = run(args.workload, args.seed, args.seconds, workdir)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **result.pop("context"),
        **facts(),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    result["metrics"] = metrics
    samples = result.pop("samples_s", None)

    OUT.mkdir(parents=True, exist_ok=True)
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(
        json.dumps({**result, "context": context, "samples_s": samples}, indent=2) + "\n"
    )
    for key, metric in metrics.items():
        print(f"{key:40s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
