"""API usage graph: object nodes and the data dependencies between them.

Object nodes are one per tracked object use (distinct variables of the same
type stay distinct and carry an ordinal); each carries the fields it reads
and the methods it invokes, with multiplicities, so matching can weigh
repeated accesses. A constructor call counts as the method ``<init>``.
Dependency edges connect consumer objects to the producers they were fed.

The parser emits the nodes and edges directly, as ``SourceUnit.objects``
and ``SourceUnit.dependencies``; this module wraps them as a graph and
renders it. What :mod:`catchrec.structural` reads of one graph (each
object's :class:`ObjectAccess`, the classes of objects with equal type name,
fields and methods, the common denominator of their fractions, the edge
groups, the labels) is derived on first use and kept with the graph, so a
context scored against a whole pool derives it once.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import GraphUnavailable
from .model import DependencyEdge, GraphObject, ParseStatus, SourceUnit


class ObjectAccess(NamedTuple):
    """One object's type and accesses as structural matching reads them."""

    type_name: str
    qualified: bool
    simple_type: str
    fields: dict[str, int]  # name -> multiplicity, in the object's order
    field_total: int
    methods: dict[str, int]
    method_total: int


@dataclass(frozen=True)
class ApiUsageGraph:
    objects: tuple[GraphObject, ...]
    dependencies: tuple[DependencyEdge, ...]

    def __post_init__(self) -> None:
        for edge in self.dependencies:
            if edge.consumer == edge.producer:
                raise ValueError("data dependency must connect distinct objects")

    @functools.cached_property
    def access(self) -> tuple[ObjectAccess, ...]:
        """Each object's :class:`ObjectAccess`, in object order."""
        views = []
        for o in self.objects:
            fields, methods = dict(o.fields), dict(o.methods)
            views.append(ObjectAccess(
                o.type_name, o.qualified, o.simple_type,
                fields, sum(fields.values()), methods, sum(methods.values()),
            ))
        return tuple(views)

    @functools.cached_property
    def access_classes(self) -> tuple[tuple[ObjectAccess, ...], tuple[int, ...]]:
        """The :attr:`access` views of the classes of objects with equal type
        name, fields and methods, in order of first occurrence, and each
        object's class index. Against any candidate, objects of one class
        have equal partners with equal fractions; they are not
        interchangeable in general, since their dependency edges may
        differ."""
        first: dict[tuple, int] = {}
        views: list[ObjectAccess] = []
        of = []
        for o, view in zip(self.objects, self.access):
            key = (o.type_name, o.fields, o.methods)
            if key not in first:
                first[key] = len(views)
                views.append(view)
            of.append(first[key])
        return tuple(views), tuple(of)

    @functools.cached_property
    def access_scale(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """The least common multiple of the objects' nonzero field and method
        totals (1 when no object has an access), and for each of the
        :attr:`access_classes` that multiple over its field and over its
        method total (0 for a total of 0): a fraction of a class's accesses
        times the multiple is a count times the class's factor."""
        views, _class_of = self.access_classes
        scale = math.lcm(*{t for view in views for t in (view.field_total, view.method_total) if t})
        return scale, tuple(
            (scale // view.field_total if view.field_total else 0,
             scale // view.method_total if view.method_total else 0)
            for view in views
        )

    @functools.cached_property
    def edge_groups(self) -> dict[tuple[int, int], list[str]]:
        """The access points of the dependency edges by (consumer, producer),
        in edge order."""
        groups: dict[tuple[int, int], list[str]] = {}
        for edge in self.dependencies:
            groups.setdefault((edge.consumer, edge.producer), []).append(edge.access_point)
        return groups

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(o.label for o in self.objects)

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
