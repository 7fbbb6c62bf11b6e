"""API usage graph: object nodes and the data dependencies between them.

Object nodes are one per tracked object use (distinct variables of the same
type stay distinct and carry an ordinal); each carries the fields it reads
and the methods it invokes, with multiplicities, so matching can weigh
repeated accesses. A constructor call counts as the method ``<init>``.
Dependency edges connect consumer objects to the producers they were fed.

The parser emits the nodes and edges directly, as ``SourceUnit.objects``
and ``SourceUnit.dependencies``; this module wraps them as a graph and
renders it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import GraphUnavailable
from .model import DependencyEdge, GraphObject, ParseStatus, SourceUnit


@dataclass(frozen=True)
class ApiUsageGraph:
    objects: tuple[GraphObject, ...]
    dependencies: tuple[DependencyEdge, ...]

    def __post_init__(self) -> None:
        for edge in self.dependencies:
            if edge.consumer == edge.producer:
                raise ValueError("data dependency must connect distinct objects")

    def to_dict(self) -> dict:
        """Canonical form: nodes sorted by type name, edges lexicographically."""
        nodes = [
            {
                "type_name": o.type_name,
                "ordinal": o.ordinal,
                "variable_name": o.variable_name,
                "fields": {name: count for name, count in o.fields},
                "methods": {name: count for name, count in o.methods},
            }
            for o in sorted(self.objects, key=lambda o: (o.type_name, o.ordinal))
        ]
        edges = sorted(
            (
                self.objects[e.consumer].label,
                self.objects[e.producer].label,
                e.access_point,
            )
            for e in self.dependencies
        )
        return {
            "objects": nodes,
            "dependencies": [
                {"consumer": c, "producer": p, "access_point": a} for c, p, a in edges
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_dot(self) -> str:
        lines = ["digraph usage {", "  rankdir=LR;"]
        for obj in sorted(self.objects, key=lambda o: (o.type_name, o.ordinal)):
            oid = f"obj_{obj.type_name.replace('.', '_')}_{obj.ordinal}"
            label = obj.simple_type if not obj.variable_name else f"{obj.simple_type}\\n{obj.variable_name}"
            lines.append(f'  {oid} [shape=box, label="{label}"];')
            for name, _ in list(obj.methods) + list(obj.fields):
                mid = f"{oid}_{_dot_safe(name)}"
                lines.append(f'  {mid} [shape=ellipse, label="{name}"];')
                lines.append(f"  {oid} -> {mid};")
        for edge in self.dependencies:
            c = self.objects[edge.consumer]
            p = self.objects[edge.producer]
            cid = f"obj_{c.type_name.replace('.', '_')}_{c.ordinal}"
            pid = f"obj_{p.type_name.replace('.', '_')}_{p.ordinal}"
            label = f' [style=dashed, label="{edge.access_point}"]' if edge.access_point else " [style=dashed]"
            lines.append(f"  {cid} -> {pid}{label};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _dot_safe(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name)


def extract_usage_graph(unit: SourceUnit) -> ApiUsageGraph:
    """Usage graph of a parsed unit; raises :class:`GraphUnavailable` when
    the unit could not be parsed."""
    if unit.parse_status is ParseStatus.FAILED:
        raise GraphUnavailable("cannot build a usage graph from a failed parse")
    return ApiUsageGraph(objects=unit.objects, dependencies=unit.dependencies)
