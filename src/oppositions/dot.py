"""The DOT emitter, which only ``--format dot`` loads."""

from .graph import OppositionGraph
from .semantics import RelationKind

# DOT edge label and attributes: subalternation is the only arrowed relation.
_DOT = {
    RelationKind.CONTRADICTORY: ("d", ", style=dashed, dir=none"),
    RelationKind.CONTRARY: ("c", ", style=solid, dir=none"),
    RelationKind.SUBCONTRARY: ("sc", ", style=dotted, dir=none"),
    RelationKind.SUBALTERN: ("s", ""),
    RelationKind.EQUIVALENT: ("e", ", style=bold, dir=none"),
    RelationKind.UNCONNECTED: ("u", ", color=gray, dir=none"),
}


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
