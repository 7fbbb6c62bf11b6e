"""Structural relevance between two units via usage-graph matching.

The score adds four components over the matched object pairs: number of
matched objects, field-access overlap, method-invocation overlap (each
normalized by the context object's own access counts), and matched data
dependencies weighted 1.0 when the access point agrees and 0.5 when only
the endpoints do.

Object pairing is the one underspecified step: when both graphs are small
the implementation enumerates every injective type-compatible assignment
and keeps the best-scoring one (ties resolved toward declaration order);
for larger graphs it falls back to a greedy per-object choice and marks the
report as non-exhaustive so the approximation is visible downstream.

Pairings are scored from per-pair tables built once per candidate: the
field and method fractions of every type-compatible object pair, and the
candidate's dependency edges indexed by their endpoints. The search and the
final report use the same table and the same scoring function, and the
fractions are summed in pairing order. Both graphs come from the two units'
:class:`~catchrec.lexical.PreparedUnit`; a unit whose parse failed has none,
and scoring it raises :class:`~catchrec.errors.StructureUnavailable`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import StructureUnavailable
from .graph import ApiUsageGraph, DependencyEdge, GraphObject
from .lexical import PreparedUnit
from .model import Weights

# Exhaustive pairing is used while the assignment space stays below this.
_MAX_ASSIGNMENTS = 20_000


@dataclass(frozen=True)
class StructuralWeights(Weights):
    object_match: float = 1.0      # per matched object
    field_match: float = 1.0       # per summed field-access fraction
    method_match: float = 1.0      # per summed method-invocation fraction
    dependency_match: float = 1.0  # per summed dependency weight


@dataclass(frozen=True)
class MatchReport:
    matched_objects: int
    pairings: tuple[tuple[int, int], ...]       # (context index, candidate index)
    field_fractions: tuple[float, ...]          # aligned with pairings
    method_fractions: tuple[float, ...]
    dependency_matches: tuple[tuple[DependencyEdge, float], ...]
    raw: float
    exhaustive: bool
    context_labels: tuple[str, ...] = field(compare=False)
    candidate_labels: tuple[str, ...] = field(compare=False)

    @property
    def field_total(self) -> float:
        return sum(self.field_fractions)

    @property
    def method_total(self) -> float:
        return sum(self.method_fractions)

    @property
    def dependency_total(self) -> float:
        return sum(weight for _edge, weight in self.dependency_matches)

    def to_dict(self) -> dict:
        return {
            "matched_objects": self.matched_objects,
            "pairings": [
                {
                    "context": self.context_labels[c],
                    "candidate": self.candidate_labels[k],
                    "field_fraction": self.field_fractions[i],
                    "method_fraction": self.method_fractions[i],
                }
                for i, (c, k) in enumerate(self.pairings)
            ],
            "dependency_matches": [
                {
                    "consumer": self.context_labels[e.consumer],
                    "producer": self.context_labels[e.producer],
                    "access_point": e.access_point,
                    "weight": w,
                }
                for e, w in self.dependency_matches
            ],
            "field_total": self.field_total,
            "method_total": self.method_total,
            "dependency_total": self.dependency_total,
            "raw": self.raw,
            "exhaustive": self.exhaustive,
        }


def types_match(a: GraphObject, b: GraphObject) -> bool:
    """Qualified names must agree exactly; a simple name matches either."""
    if "." in a.type_name and "." in b.type_name:
        return a.type_name == b.type_name
    return a.simple_type == b.simple_type


def _overlap(context_counts, candidate_counts) -> tuple[int, int]:
    """(matched, total) of context accesses covered by the candidate."""
    total = sum(context_counts.values())
    matched = sum(
        min(count, candidate_counts.get(name, 0))
        for name, count in context_counts.items()
    )
    return matched, total


@dataclass(frozen=True)
class _PairTable:
    """What every pairing of two graphs is scored from, computed once per
    (context, candidate) pair of graphs: for each type-compatible object
    pair its member-overlap counts and its field and method fractions, and
    the candidate's dependency edges by their endpoints."""

    context: ApiUsageGraph
    candidate: ApiUsageGraph
    # candidate indices type-compatible with each context object, in order
    compatible: tuple[tuple[int, ...], ...]
    # (context index, candidate index) -> matched field + method accesses
    overlap: dict[tuple[int, int], int]
    field_fractions: dict[tuple[int, int], float]
    method_fractions: dict[tuple[int, int], float]
    # (consumer, producer) -> ((edge index, access point), ...) in edge order
    candidate_edges: dict[tuple[int, int], tuple[tuple[int, str], ...]]


def _pair_table(context: ApiUsageGraph, candidate: ApiUsageGraph) -> _PairTable:
    cand_fields = [dict(o.fields) for o in candidate.objects]
    cand_methods = [dict(o.methods) for o in candidate.objects]
    compatible = []
    overlap: dict[tuple[int, int], int] = {}
    field_fractions: dict[tuple[int, int], float] = {}
    method_fractions: dict[tuple[int, int], float] = {}
    for ci, ctx_obj in enumerate(context.objects):
        ctx_fields, ctx_methods = dict(ctx_obj.fields), dict(ctx_obj.methods)
        partners = tuple(
            ki for ki, cand_obj in enumerate(candidate.objects) if types_match(ctx_obj, cand_obj)
        )
        compatible.append(partners)
        for ki in partners:
            fm, ft = _overlap(ctx_fields, cand_fields[ki])
            mm, mt = _overlap(ctx_methods, cand_methods[ki])
            overlap[ci, ki] = fm + mm
            # objects without accesses contribute zero instead of dividing by zero
            field_fractions[ci, ki] = fm / ft if ft else 0.0
            method_fractions[ci, ki] = mm / mt if mt else 0.0
    edges: dict[tuple[int, int], list[tuple[int, str]]] = {}
    for idx, edge in enumerate(candidate.dependencies):
        edges.setdefault((edge.consumer, edge.producer), []).append((idx, edge.access_point))
    return _PairTable(
        context=context,
        candidate=candidate,
        compatible=tuple(compatible),
        overlap=overlap,
        field_fractions=field_fractions,
        method_fractions=method_fractions,
        candidate_edges={ends: tuple(found) for ends, found in edges.items()},
    )


def _dependency_matches(
    pairings: list[tuple[int, int]], table: _PairTable
) -> list[tuple[DependencyEdge, float]]:
    """Context dependency edges whose paired endpoints are also connected in
    the candidate; 1.0 for an equal access point, 0.5 otherwise. Each
    candidate edge backs at most one context edge, exact matches first."""
    context_edges = table.context.dependencies
    if not context_edges or not table.candidate_edges:
        return []
    paired = dict(pairings)
    backing = []  # per context edge: candidate edges between its paired endpoints
    for edge in context_edges:
        cc = paired.get(edge.consumer)
        cp = paired.get(edge.producer)
        found = () if cc is None or cp is None else table.candidate_edges.get((cc, cp), ())
        backing.append(found)
    used: set[int] = set()
    matches: dict[int, float] = {}  # context edge position -> weight
    for pos, (edge, found) in enumerate(zip(context_edges, backing)):  # exact matches first
        for idx, access_point in found:
            if idx not in used and access_point == edge.access_point:
                used.add(idx)
                matches[pos] = 1.0
                break
    for pos, found in enumerate(backing):
        if pos in matches:
            continue
        for idx, _access_point in found:
            if idx not in used:
                used.add(idx)
                matches[pos] = 0.5
                break

    return [(edge, matches[pos]) for pos, edge in enumerate(context_edges) if pos in matches]


def _score_pairing(
    pairings: list[tuple[int, int]], table: _PairTable, weights: StructuralWeights
) -> tuple[float, list[float], list[float], list[tuple[DependencyEdge, float]]]:
    """Raw score of one pairing and its parts; fractions are summed in
    pairing order."""
    fam = [table.field_fractions[pair] for pair in pairings]
    mim = [table.method_fractions[pair] for pair in pairings]
    deps = _dependency_matches(pairings, table)
    raw = (
        weights.object_match * len(pairings)
        + weights.field_match * sum(fam)
        + weights.method_match * sum(mim)
        + weights.dependency_match * sum(w for _e, w in deps)
    )
    return raw, fam, mim, deps


def _assignment_space(table: _PairTable) -> int:
    space = 1
    for partners in table.compatible:
        space *= len(partners) + 1
        if space > _MAX_ASSIGNMENTS:
            break
    return space


def _enumerate_pairings(table: _PairTable) -> list[list[tuple[int, int]]]:
    """Every injective type-compatible assignment, in an order that prefers
    pairing over skipping and earlier-declared candidates over later ones."""
    results: list[list[tuple[int, int]]] = []
    compat = table.compatible

    def recurse(ci: int, used: set[int], acc: list[tuple[int, int]]) -> None:
        if ci == len(compat):
            results.append(list(acc))
            return
        for ki in compat[ci]:
            if ki in used:
                continue
            acc.append((ci, ki))
            used.add(ki)
            recurse(ci + 1, used, acc)
            used.remove(ki)
            acc.pop()
        recurse(ci + 1, used, acc)  # leave this context object unpaired

    recurse(0, set(), [])
    return results


def _greedy_pairing(table: _PairTable) -> list[tuple[int, int]]:
    """Declaration-order greedy pick maximizing raw member-overlap counts."""
    used: set[int] = set()
    pairing: list[tuple[int, int]] = []
    for ci, partners in enumerate(table.compatible):
        best: tuple[int, int] | None = None  # (overlap, candidate index)
        for ki in partners:
            if ki in used:
                continue
            score = table.overlap[ci, ki]
            if best is None or score > best[0]:
                best = (score, ki)
        if best is not None:
            pairing.append((ci, best[1]))
            used.add(best[1])
    return pairing


def _best_pairing(
    table: _PairTable, weights: StructuralWeights
) -> tuple[list[tuple[int, int]], bool]:
    if _assignment_space(table) > _MAX_ASSIGNMENTS:
        return _greedy_pairing(table), False
    # max keeps the first of equal keys: enumeration order breaks ties
    best = max(
        _enumerate_pairings(table),
        key=lambda p: (_score_pairing(p, table, weights)[0], len(p)),
    )
    return best, True


def structural_score(
    context: PreparedUnit,
    candidate: PreparedUnit,
    weights: StructuralWeights | None = None,
) -> MatchReport:
    """Full structural relevance between two prepared units."""
    if context.graph is None or candidate.graph is None:
        raise StructureUnavailable("structural scoring needs two parsed units")
    weights = weights or StructuralWeights()
    table = _pair_table(context.graph, candidate.graph)
    pairing, exhaustive = _best_pairing(table, weights)
    raw, fam, mim, deps = _score_pairing(pairing, table, weights)
    return MatchReport(
        matched_objects=len(pairing),
        pairings=tuple(pairing),
        field_fractions=tuple(fam),
        method_fractions=tuple(mim),
        dependency_matches=tuple(deps),
        raw=raw,
        exhaustive=exhaustive,
        context_labels=tuple(o.label for o in table.context.objects),
        candidate_labels=tuple(o.label for o in table.candidate.objects),
    )
