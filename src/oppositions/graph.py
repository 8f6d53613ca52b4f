"""Opposition-graph data model and comparison.

An opposition graph is a complete relation-labelled graph: every
unordered pair of distinct nodes carries exactly one relation, held in
one tuple in ``combinations(nodes, 2)`` order.  ``envelope`` starts every
structured document, whose canonical JSON (schema_version 1) ``document``
writes and ``reader`` reads; ``dot`` writes DOT, and ``construction``
draws segment assignments.  Each loads only for the commands that run it,
so ``graph --format structured`` compiles neither DOT nor the reader.
Names that moved out are forwarded on first access, so that old imports
keep working.  The relations, ``Relation`` and ``RelationKind``, are defined
in ``semantics``, the oracle that produces them, so that ``classify``,
which prints one relation and builds no graph, never loads this module.
"""

from collections.abc import Iterable, Iterator
from importlib import import_module
from itertools import combinations

from .semantics import Relation, RelationKind

SCHEMA_VERSION = 1


def envelope(kind: str, **fields: object) -> dict[str, object]:
    """A structured document: ``schema_version`` and ``kind``, then ``fields`` in order."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **fields}


class OppositionGraph:
    """Complete relation-labelled graph over an ordered node set.

    ``relations`` holds one relation per pair, in ``combinations(nodes, 2)``
    order, and nothing else is kept per pair.  No label may hold a surrogate:
    UTF-8 cannot carry one, and a structured ``\\ud800\\udc00`` reads as U+10000.
    """

    def __init__(self, nodes: tuple[str, ...], relations: Iterable[Relation]):
        nodes, relations = tuple(nodes), tuple(relations)
        self._position = {node: i for i, node in enumerate(nodes)}
        if len(self._position) != len(nodes):
            raise ValueError("node labels must be unique")
        if len(nodes) < 2:
            raise ValueError("an opposition graph needs at least two nodes")
        if any(isinstance(n, str) and any("\ud800" <= c <= "\udfff" for c in n) for n in nodes):
            raise ValueError("a node label holds a surrogate code point, which UTF-8 cannot carry")
        if len(relations) != len(nodes) * (len(nodes) - 1) // 2:
            raise ValueError("graph must label every unordered pair of distinct nodes")
        for (a, b), r in zip(combinations(nodes, 2), relations):
            if r.kind is RelationKind.SUBALTERN and {r.source, r.target} != {a, b}:
                raise ValueError(f"subaltern direction outside pair {({a, b})}")
        self.nodes, self.relations = nodes, relations

    def relation(self, a: str, b: str) -> Relation:
        """Either way round; KeyError for an unknown label or ``a == b``."""
        i, j = sorted((self._position[a], self._position[b]))
        if i == j:
            raise KeyError(a)
        return self.relations[i * (2 * len(self.nodes) - i - 3) // 2 + j - 1]

    def pairs(self) -> Iterator[tuple[str, str, Relation]]:
        """Pairs with their relations, in node order."""
        return ((a, b, r) for (a, b), r in zip(combinations(self.nodes, 2), self.relations))

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


# each name that moved out, with the module that now defines it
_MOVED = {
    "to_dot": "dot",
    "to_structured": "document",
    "from_structured": "reader",
    "render_segment": "construction",
    "MAX_SEGMENT_COLUMNS": "construction",
}


def __getattr__(name: str):
    """A moved name, from its new module, loaded on first access (PEP 562)."""
    module = _MOVED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __package__), name)
