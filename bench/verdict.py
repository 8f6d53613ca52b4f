"""Read the CLI's stdout back and compare it with the reference answer.

The formats are the ones the README documents: the relation text of
``classify``, the structured JSON and DOT graphs, the ``L = v (role)``
lines and ``verification:`` line of ``encode``, and the ``L=v`` rows and
``found N`` line of ``synthesize``.
"""

from __future__ import annotations

import json
import re

_DOT_EDGE = re.compile(r'^\s*"([^"]+)" -> "([^"]+)" \[label="(\w+)"')
_DOT_KIND = {
    "d": "contradictory",
    "c": "contrary",
    "sc": "subcontrary",
    "e": "equivalent",
    "u": "unconnected",
}
_ASSIGNMENT_LINE = re.compile(r"^\s+(\S+) = (-?\d+) \(\w+\)$")


def _option(argv, flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def structured_graph(stdout: str) -> dict[frozenset, str]:
    document = json.loads(stdout)
    if document.get("kind") != "opposition_graph":
        raise ValueError("not an opposition graph")
    graph = {}
    for pair in document["pairs"]:
        text = pair["relation"]
        if text == "subaltern":
            text = f"subaltern({pair['from']}->{pair['to']})"
        graph[frozenset((pair["a"], pair["b"]))] = text
    return graph


def dot_graph(stdout: str) -> dict[frozenset, str]:
    graph = {}
    for line in stdout.splitlines():
        m = _DOT_EDGE.match(line)
        if m:
            a, b, code = m.groups()
            text = f"subaltern({a}->{b})" if code == "s" else _DOT_KIND[code]
            graph[frozenset((a, b))] = text
    return graph


def encode_values(stdout: str) -> dict[str, int] | None:
    """The assignment of ``encode``'s text output, or None unless it verifies."""
    lines = stdout.splitlines()
    if "verification: matches" not in lines:
        return None
    values = {}
    for line in lines:
        m = _ASSIGNMENT_LINE.match(line)
        if m:
            values[m.group(1)] = int(m.group(2))
    return values


def synthesis_rows(stdout: str) -> set[frozenset] | None:
    """The assignments ``synthesize`` printed, or None if the count line disagrees."""
    lines = stdout.splitlines()
    if not lines or not lines[-1].startswith("found "):
        return None
    rows = {
        frozenset((label, int(value)) for label, value in (cell.split("=") for cell in line.split()))
        for line in lines[:-1]
    }
    return rows if int(lines[-1].split()[1]) == len(rows) == len(lines) - 1 else None


def output_matches(argv, stdout: str, expected) -> bool:
    """Whether stdout carries the expected answer for this invocation."""
    command = argv[0]
    try:
        if command == "classify":
            return stdout.strip() == expected
        if command == "synthesize":
            return synthesis_rows(stdout) == expected
        fmt = _option(argv, "--format", "text")
        if fmt == "structured":
            return structured_graph(stdout) == expected
        if fmt == "dot":
            return dot_graph(stdout) == expected
        if command == "encode":
            return encode_values(stdout) == expected
    except (ValueError, KeyError, IndexError):
        return False
    raise ValueError(f"no checker for {' '.join(argv)}")
