"""Reading a graph back from the structured text that ``document`` writes.

Only callers of ``from_structured`` load this module, so no command
imports ``json``.
"""

import json
from itertools import combinations

from .graph import SCHEMA_VERSION, OppositionGraph
from .semantics import Relation, RelationKind


def from_structured(text: str) -> OppositionGraph:
    """Read back a graph that ``to_structured`` wrote, or raise ValueError.

    It accepts exactly what the writer writes, in any JSON layout: the
    graph built from ``nodes`` and ``pairs`` must write the document back,
    with string nodes and an ``int`` schema_version (``True == 1``).  A
    refusal quotes at most 200 characters of its cause.
    """
    try:
        document = json.loads(text)
        nodes, entries = tuple(document["nodes"]), document["pairs"]
        written = [(e["a"], e["b"]) for e in entries] == list(combinations(nodes, 2))
        if written:  # else a pair out of the writer's order could be read as another pair
            graph = OppositionGraph(nodes, map(_entry_relation, entries))
            written = graph.to_document() == document and type(document["schema_version"]) is int
    except (KeyError, TypeError, ValueError, RecursionError) as err:
        found = repr(err)  # an Enum's refusal, say, repeats the whole value
        if len(found) > 200:
            found = found[:149] + "…" + found[-50:]
        raise ValueError(f"not an opposition graph document: {found}") from None
    if not written or not all(isinstance(node, str) for node in nodes):
        raise ValueError(f"not a schema_version {SCHEMA_VERSION} graph as to_structured writes it")
    return graph


def _entry_relation(entry: dict) -> Relation:
    """A pair entry's relation, read back from ``Relation.entry``'s fields."""
    return Relation(RelationKind(entry["relation"]), entry.get("from"), entry.get("to"))
