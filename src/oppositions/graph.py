"""Opposition-graph data model, comparison, and emitters.

An opposition graph is a complete relation-labelled graph: every
unordered pair of distinct nodes carries exactly one relation.
Emitters produce canonical JSON (schema_version 1), DOT text, and an
ASCII rendering of integer segment assignments.  The relations
themselves, ``Relation`` and ``RelationKind``, are defined in
``semantics``, the oracle that produces them, so that ``classify``,
which prints one relation and builds no graph, never loads this module.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from itertools import combinations

from .semantics import Relation, RelationKind

SCHEMA_VERSION = 1

# The widest number line render_segment draws; each column costs about
# twenty bytes while it is built, so a span of 10^9 would need 80 GB.
MAX_SEGMENT_COLUMNS = 100_000


def envelope(kind: str, **fields: object) -> dict[str, object]:
    """A structured document: ``schema_version`` and ``kind``, then ``fields`` in order."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **fields}


# DOT edge label and attributes: subalternation is the only arrowed relation.
_DOT = {
    RelationKind.CONTRADICTORY: ("d", ", style=dashed, dir=none"),
    RelationKind.CONTRARY: ("c", ", style=solid, dir=none"),
    RelationKind.SUBCONTRARY: ("sc", ", style=dotted, dir=none"),
    RelationKind.SUBALTERN: ("s", ""),
    RelationKind.EQUIVALENT: ("e", ", style=bold, dir=none"),
    RelationKind.UNCONNECTED: ("u", ", color=gray, dir=none"),
}


class OppositionGraph:
    """Complete relation-labelled graph over an ordered node set.

    No label may hold a surrogate code point: UTF-8 cannot carry one, and
    the structured form's ``\\ud800\\udc00`` reads back as U+10000.
    """

    def __init__(self, nodes: tuple[str, ...], edges: Mapping[frozenset, Relation]):
        nodes = tuple(nodes)
        if len(set(nodes)) != len(nodes):
            raise ValueError("node labels must be unique")
        if len(nodes) < 2:
            raise ValueError("an opposition graph needs at least two nodes")
        if any(isinstance(n, str) and any("\ud800" <= c <= "\udfff" for c in n) for n in nodes):
            raise ValueError("a node label holds a surrogate code point, which UTF-8 cannot carry")
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

    def to_document(self) -> dict[str, object]:
        pairs = [{"a": a, "b": b, **relation.entry()} for a, b, relation in self.pairs()]
        return envelope("opposition_graph", nodes=list(self.nodes), pairs=pairs)

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
    """Render the graph as DOT, one edge per unordered pair; a ``"`` in a
    label is written ``\\"``, the one escape of a DOT quoted ID.  A label
    that ends in ``\\`` would escape its closing quote, so it raises
    ValueError."""
    for node in g.nodes:
        if node.endswith("\\"):
            raise ValueError(f"DOT cannot quote the label {node}: it ends in a backslash")
    quoted = {node: '"' + node.replace('"', '\\"') + '"' for node in g.nodes}
    lines = ["digraph oppositions {"]
    for node in g.nodes:
        lines.append(f"  {quoted[node]};")
    for a, b, relation in g.pairs():
        if relation.kind is RelationKind.SUBALTERN:
            a, b = relation.source, relation.target
        label, attributes = _DOT[relation.kind]
        lines.append(f'  {quoted[a]} -> {quoted[b]} [label="{label}"{attributes}];')
    lines.append("}")
    return "\n".join(lines)


def to_structured(obj: object) -> str:
    """Canonical JSON for graphs, segment assignments, and verification reports.

    Byte-stable: the text is byte for byte ``json.dumps(document, indent=2)``,
    written by ``document.dumps`` so that no command imports ``json``.
    """
    from .document import dumps
    document = getattr(obj, "to_document", None)
    if document is None:
        raise TypeError(f"no structured form for {type(obj).__name__}")
    return dumps(document())


def from_structured(text: str) -> OppositionGraph:
    """Read back a graph that ``to_structured`` wrote, or raise ValueError.

    It accepts exactly what the writer writes, in any JSON layout: the
    graph built from ``nodes`` and ``pairs`` must write the document back,
    with string nodes and an ``int`` schema_version (``True == 1``).  A
    refusal quotes at most 200 characters of its cause.
    """
    import json
    try:
        document = json.loads(text)
        edges = {frozenset((e["a"], e["b"])): _entry_relation(e) for e in document["pairs"]}
        graph = OppositionGraph(tuple(document["nodes"]), edges)
        written = graph.to_document() == document and type(document["schema_version"]) is int
    except (KeyError, TypeError, ValueError, RecursionError) as err:
        found = repr(err)  # an Enum's refusal, say, repeats the whole value
        if len(found) > 200:
            found = found[:149] + "…" + found[-50:]
        raise ValueError(f"not an opposition graph document: {found}") from None
    if not written or not all(isinstance(node, str) for node in graph.nodes):
        raise ValueError(f"not a schema_version {SCHEMA_VERSION} graph as to_structured writes it")
    return graph


def _entry_relation(entry: dict) -> Relation:
    """A pair entry's relation, read back from ``Relation.entry``'s fields."""
    return Relation(RelationKind(entry["relation"]), entry.get("from"), entry.get("to"))


def render_segment(assignment) -> str:
    """ASCII number line with each label at the column of its integer.

    Two lines: tick marks for every integer in the span with 0 singled
    out, then the labels at their positions.  A line wider than
    ``MAX_SEGMENT_COLUMNS`` raises ValueError before anything is built.
    """
    values = {label: assignment.values[label] for label in assignment.labels}
    lo = min(values.values())
    hi = max(values.values())
    unit = max(4, max(len(label) for label in values) + 1)
    width = (hi - lo) * unit + 1
    if width > MAX_SEGMENT_COLUMNS:
        raise ValueError(f"the number line would be {width} columns wide, "
                         f"above the limit of {MAX_SEGMENT_COLUMNS}")

    ticks = ["-"] * width
    for v in range(lo, hi + 1):
        ticks[(v - lo) * unit] = "0" if v == 0 else "+"

    labels = [" "] * (width + unit)
    for label in assignment.labels:
        col = (values[label] - lo) * unit
        for i, ch in enumerate(label):
            labels[col + i] = ch

    return "".join(ticks) + "\n" + "".join(labels).rstrip()
