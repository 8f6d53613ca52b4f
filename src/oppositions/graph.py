"""Opposition-graph data model, comparison, and emitters.

An opposition graph is a complete relation-labelled graph: every
unordered pair of distinct nodes carries exactly one relation.
Emitters produce canonical JSON (schema_version 1), DOT text, and an
ASCII rendering of integer segment assignments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Any, Iterator, Mapping

SCHEMA_VERSION = 1


class RelationKind(Enum):
    CONTRADICTORY = "contradictory"
    CONTRARY = "contrary"
    SUBCONTRARY = "subcontrary"
    SUBALTERN = "subaltern"
    EQUIVALENT = "equivalent"
    UNCONNECTED = "unconnected"


# DOT edge conventions: subalternation is the only arrowed relation.
_DOT_CODE = {
    RelationKind.CONTRADICTORY: "d",
    RelationKind.CONTRARY: "c",
    RelationKind.SUBCONTRARY: "sc",
    RelationKind.SUBALTERN: "s",
    RelationKind.EQUIVALENT: "e",
    RelationKind.UNCONNECTED: "u",
}
_DOT_ATTRS = {
    RelationKind.CONTRADICTORY: ', style=dashed, dir=none',
    RelationKind.CONTRARY: ', style=solid, dir=none',
    RelationKind.SUBCONTRARY: ', style=dotted, dir=none',
    RelationKind.SUBALTERN: "",
    RelationKind.EQUIVALENT: ', style=bold, dir=none',
    RelationKind.UNCONNECTED: ', color=gray, dir=none',
}


@dataclass(frozen=True)
class Relation:
    """One opposition relation; subalternation carries a direction."""

    kind: RelationKind
    source: str | None = None
    target: str | None = None

    def __post_init__(self) -> None:
        directed = self.kind is RelationKind.SUBALTERN
        if directed and (self.source is None or self.target is None):
            raise ValueError("subaltern relations need a source and a target")
        if not directed and (self.source is not None or self.target is not None):
            raise ValueError(f"{self.kind.value} relations are undirected")

    def text(self) -> str:
        if self.kind is RelationKind.SUBALTERN:
            return f"subaltern({self.source}->{self.target})"
        return self.kind.value

    def entry(self) -> dict[str, str]:
        """The relation's fields in structured documents."""
        entry = {"relation": self.kind.value}
        if self.kind is RelationKind.SUBALTERN:
            entry["from"] = self.source
            entry["to"] = self.target
        return entry


CONTRADICTORY = Relation(RelationKind.CONTRADICTORY)
CONTRARY = Relation(RelationKind.CONTRARY)
SUBCONTRARY = Relation(RelationKind.SUBCONTRARY)
EQUIVALENT = Relation(RelationKind.EQUIVALENT)
UNCONNECTED = Relation(RelationKind.UNCONNECTED)


def subaltern(source: str, target: str) -> Relation:
    """Subalternation directed from superaltern to subaltern."""
    return Relation(RelationKind.SUBALTERN, source, target)


class OppositionGraph:
    """Complete relation-labelled graph over an ordered node set."""

    def __init__(self, nodes: tuple[str, ...], edges: Mapping[frozenset, Relation]):
        nodes = tuple(nodes)
        if len(set(nodes)) != len(nodes):
            raise ValueError("node labels must be unique")
        if len(nodes) < 2:
            raise ValueError("an opposition graph needs at least two nodes")
        edges = dict(edges)
        expected = {frozenset(pair) for pair in combinations(nodes, 2)}
        if set(edges) != expected:
            raise ValueError("graph must label every unordered pair of distinct nodes")
        for pair, relation in edges.items():
            if relation.kind is RelationKind.SUBALTERN and {
                relation.source,
                relation.target,
            } != set(pair):
                raise ValueError(f"subaltern direction outside pair {set(pair)}")
        self.nodes = nodes
        self.edges = edges

    def relation(self, a: str, b: str) -> Relation:
        return self.edges[frozenset((a, b))]

    def pairs(self) -> Iterator[tuple[str, str, Relation]]:
        """Pairs with their relations, in node order."""
        for a, b in combinations(self.nodes, 2):
            yield a, b, self.relation(a, b)

    def kind_counts(self) -> dict[RelationKind, int]:
        counts = {kind: 0 for kind in RelationKind}
        for _, _, relation in self.pairs():
            counts[relation.kind] += 1
        return counts

    def to_document(self) -> dict[str, Any]:
        pairs = [{"a": a, "b": b, **relation.entry()} for a, b, relation in self.pairs()]
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "opposition_graph",
            "nodes": list(self.nodes),
            "pairs": pairs,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OppositionGraph):
            return NotImplemented
        return graph_equal(self, other)

    def __repr__(self) -> str:
        return f"OppositionGraph(nodes={self.nodes!r})"


def graph_equal(g1: OppositionGraph, g2: OppositionGraph) -> bool:
    """Same node set and identical relation, direction included, per pair."""
    if set(g1.nodes) != set(g2.nodes):
        return False
    return all(relation == g2.relation(a, b) for a, b, relation in g1.pairs())


def to_dot(g: OppositionGraph) -> str:
    """Render the graph as DOT, one edge per unordered pair."""
    lines = ["digraph oppositions {"]
    for node in g.nodes:
        lines.append(f'  "{node}";')
    for a, b, relation in g.pairs():
        if relation.kind is RelationKind.SUBALTERN:
            a, b = relation.source, relation.target
        label = _DOT_CODE[relation.kind]
        lines.append(f'  "{a}" -> "{b}" [label="{label}"{_DOT_ATTRS[relation.kind]}];')
    lines.append("}")
    return "\n".join(lines)


def to_structured(obj: Any) -> str:
    """Canonical JSON for graphs, segment assignments, and verification reports.

    Byte-stable: identical inputs always serialize to identical text.
    """
    document = getattr(obj, "to_document", None)
    if document is None:
        raise TypeError(f"no structured form for {type(obj).__name__}")
    return json.dumps(document(), indent=2)


def from_structured(text: str) -> OppositionGraph:
    """Read an opposition graph back from its structured form."""
    document = json.loads(text)
    if document.get("kind") != "opposition_graph":
        raise ValueError(f"not an opposition graph document: {document.get('kind')!r}")
    if document.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version: {document.get('schema_version')!r}")
    edges = {}
    for entry in document["pairs"]:
        kind = RelationKind(entry["relation"])
        if kind is RelationKind.SUBALTERN:
            relation = subaltern(entry["from"], entry["to"])
        else:
            relation = Relation(kind)
        edges[frozenset((entry["a"], entry["b"]))] = relation
    return OppositionGraph(tuple(document["nodes"]), edges)


def render_segment(assignment) -> str:
    """ASCII number line with each label at the column of its integer.

    Two lines: tick marks for every integer in the span with 0 singled
    out, then the labels at their positions.
    """
    values = {label: assignment.values[label] for label in assignment.labels}
    lo = min(values.values())
    hi = max(values.values())
    unit = max(4, max(len(label) for label in values) + 1)
    width = (hi - lo) * unit + 1

    ticks = ["-"] * width
    for v in range(lo, hi + 1):
        ticks[(v - lo) * unit] = "0" if v == 0 else "+"

    labels = [" "] * (width + unit)
    for label in assignment.labels:
        col = (values[label] - lo) * unit
        for i, ch in enumerate(label):
            labels[col + i] = ch

    return "".join(ticks) + "\n" + "".join(labels).rstrip()
