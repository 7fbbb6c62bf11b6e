"""Structural relevance between two units via usage-graph matching.

The score adds four components over the matched object pairs: number of
matched objects, field-access overlap, method-invocation overlap (each
normalized by the context object's own access counts), and matched data
dependencies weighted 1.0 when the access point agrees and 0.5 when only
the endpoints do.

Object pairing is the one underspecified step: while the assignment space
is at most 20,000, a depth-first branch-and-bound search finds the best
injective type-compatible assignment, holding one pairing and a copy of
the best so far (ties resolved toward declaration order). It visits only
context objects that have a partner, each of which at least doubles the
space, so its recursion is under 15 deep whatever the graph size. For
larger spaces it falls back to a greedy per-object choice and marks the
report as non-exhaustive so the approximation is visible downstream.

Pairings are scored from a table built once per candidate: for each
context object, a record of its type-compatible candidate objects with the
field and method fractions and the matched access count of each pair, and
both graphs' dependency edges grouped by endpoints ``(consumer, producer)``.
One rule weighs the edges of one context group against the candidate edges
between its partners: equal access points first, then half weight, each
candidate edge used once. A pairing is injective, so no two groups share a
candidate edge and each group is weighed on its own. The report's
dependency matches are the rule's weights for the chosen pairing, in
context-edge order.

The search scores each leaf from running sums, not from scratch: each
level carries the pairing size, the field- and method-fraction sums (added
in pairing order) and a dependency total, to which each group's total under
the rule is added once both its endpoints are paired. Its weights are all
1.0 or 0.5, so the total is exact in any order and a leaf's key is the very
float the report's scoring returns, which runs once, on the chosen pairing.
A subtree is pruned when its bound (the partial score, plus each remaining
object's best object, field and method term, plus each open group's best
total) is below the best score by more than a rounding margin, so pruning
never changes which pairing wins. Both graphs come from the two units'
:class:`~catchrec.lexical.PreparedUnit`; a unit whose parse failed has none,
and scoring it raises :class:`~catchrec.errors.StructureUnavailable`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import StructureUnavailable
from .graph import ApiUsageGraph, DependencyEdge, GraphObject
from .lexical import PreparedUnit
from .model import Weights

# Exhaustive pairing is used while the assignment space stays below this.
_MAX_ASSIGNMENTS = 20_000
# The search prunes a subtree only when its bound is below the best raw
# score by more than this fraction of that score (or of 1.0 if larger):
# far above the rounding error of the sums, far below any real difference.
_PRUNE_SLACK = 1e-9


@dataclass(frozen=True)
class StructuralWeights(Weights):
    object_match: float = 1.0      # per matched object
    field_match: float = 1.0       # per summed field-access fraction
    method_match: float = 1.0      # per summed method-invocation fraction
    dependency_match: float = 1.0  # per summed dependency weight


@dataclass(frozen=True)
class MatchReport:
    pairings: tuple[tuple[int, int], ...]       # (context index, candidate index)
    field_fractions: tuple[float, ...]          # aligned with pairings
    method_fractions: tuple[float, ...]
    dependency_matches: tuple[tuple[DependencyEdge, float], ...]
    raw: float
    exhaustive: bool
    context_labels: tuple[str, ...] = field(compare=False)
    candidate_labels: tuple[str, ...] = field(compare=False)

    @property
    def matched_objects(self) -> int:
        return len(self.pairings)

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


# candidate index -> (field fraction, method fraction, matched field and
# method accesses) for the type-compatible candidate objects of one context
# object, in declaration order
_Partners = dict[int, tuple[float, float, int]]


@dataclass(frozen=True)
class _PairTable:
    """What every pairing of two graphs is scored from, computed once per
    (context, candidate) pair of graphs: the partner record of each context
    object, and both graphs' dependency edges grouped by their endpoints."""

    context: ApiUsageGraph
    candidate: ApiUsageGraph
    partners: tuple[_Partners, ...]
    context_edges: dict[tuple[int, int], list[str]]
    candidate_edges: dict[tuple[int, int], list[str]]


def _edge_groups(graph: ApiUsageGraph) -> dict[tuple[int, int], list[str]]:
    """The access points of a graph's dependency edges by (consumer,
    producer), in edge order."""
    groups: dict[tuple[int, int], list[str]] = {}
    for edge in graph.dependencies:
        groups.setdefault((edge.consumer, edge.producer), []).append(edge.access_point)
    return groups


def _pair_table(context: ApiUsageGraph, candidate: ApiUsageGraph) -> _PairTable:
    cand_fields = [dict(o.fields) for o in candidate.objects]
    cand_methods = [dict(o.methods) for o in candidate.objects]
    partners = []
    for ctx_obj in context.objects:
        ctx_fields, ctx_methods = dict(ctx_obj.fields), dict(ctx_obj.methods)
        record: _Partners = {}
        for ki, cand_obj in enumerate(candidate.objects):
            if types_match(ctx_obj, cand_obj):
                fm, ft = _overlap(ctx_fields, cand_fields[ki])
                mm, mt = _overlap(ctx_methods, cand_methods[ki])
                # objects without accesses contribute zero instead of dividing by zero
                record[ki] = (fm / ft if ft else 0.0, mm / mt if mt else 0.0, fm + mm)
        partners.append(record)
    return _PairTable(
        context, candidate, tuple(partners), _edge_groups(context), _edge_groups(candidate)
    )


def _dependency_weights(context_points: list[str], candidate_points: list[str]) -> list[float]:
    """The dependency rule for one context endpoint group: the weight of each
    of its edges, given the access points of the candidate edges between its
    partners. Each candidate edge backs at most one context edge: an equal
    access point first, for 1.0, then any edge left, for 0.5, in edge order."""
    left = list(candidate_points)
    weights = []
    for point in context_points:
        exact = point in left
        if exact:
            left.remove(point)
        weights.append(1.0 if exact else 0.0)
    spare = len(left)
    for pos, weight in enumerate(weights):
        if spare and not weight:
            weights[pos], spare = 0.5, spare - 1
    return weights


def _score_pairing(
    pairings: list[tuple[int, int]], table: _PairTable, weights: StructuralWeights
) -> tuple[float, list[float], list[float], list[tuple[DependencyEdge, float]]]:
    """Raw score of one pairing and its parts; fractions are summed in
    pairing order, and the dependency matches are in context-edge order."""
    fam = [table.partners[c][k][0] for c, k in pairings]
    mim = [table.partners[c][k][1] for c, k in pairings]
    paired = dict(pairings)
    group_weights = {
        (c, p): iter(_dependency_weights(
            points, table.candidate_edges.get((paired.get(c), paired.get(p)), [])
        ))
        for (c, p), points in table.context_edges.items()
    }
    deps = []
    for edge in table.context.dependencies:
        weight = next(group_weights[edge.consumer, edge.producer])
        if weight:
            deps.append((edge, weight))
    raw = (
        weights.object_match * len(pairings)
        + weights.field_match * sum(fam)
        + weights.method_match * sum(mim)
        + weights.dependency_match * sum(w for _e, w in deps)
    )
    return raw, fam, mim, deps


def _assignment_space(table: _PairTable) -> int:
    space = 1
    for record in table.partners:
        space *= len(record) + 1
        if space > _MAX_ASSIGNMENTS:
            break
    return space


def _greedy_pairing(table: _PairTable) -> list[tuple[int, int]]:
    """Declaration-order greedy pick maximizing raw member-overlap counts;
    of equal overlaps the earlier-declared candidate wins."""
    used: set[int] = set()
    pairing: list[tuple[int, int]] = []
    for ci, record in enumerate(table.partners):
        free = [ki for ki in record if ki not in used]
        if free:
            best = max(free, key=lambda ki: record[ki][2])
            pairing.append((ci, best))
            used.add(best)
    return pairing


# (context consumer, context producer, {(candidate consumer, candidate
# producer): the group's dependency total under that pair of partners})
_Group = tuple[int, int, dict[tuple[int, int], float]]


def _dependency_groups(table: _PairTable) -> list[_Group]:
    """For each context endpoint group, its dependency total under each pair
    of partners that has candidate edges between them."""
    groups = []
    for (c, p), points in table.context_edges.items():
        terms = {
            (kc, kp): sum(_dependency_weights(points, found))
            for (kc, kp), found in table.candidate_edges.items()
            if kc in table.partners[c] and kp in table.partners[p]
        }
        if terms:
            groups.append((c, p, terms))
    return groups


def _best_pairing(
    table: _PairTable, weights: StructuralWeights
) -> tuple[list[tuple[int, int]], bool]:
    if _assignment_space(table) > _MAX_ASSIGNMENTS:
        return _greedy_pairing(table), False
    wo, wf, wm, wd = (
        weights.object_match, weights.field_match, weights.method_match, weights.dependency_match
    )
    # An object without a partner can only stay unpaired, so the search
    # skips it; each object it visits at least doubles the assignment
    # space, which bounds the recursion by log2(_MAX_ASSIGNMENTS).
    visits = [(ci, record) for ci, record in enumerate(table.partners) if record]
    # Each dependency group is scored at the depth of its later endpoint;
    # bound[d] is the most the objects and groups still open at depth d can
    # add: each object's best object, field and method term, and each
    # group's best total over its pairs of partners. bound[0] stays 0.0,
    # since the root is entered before any leaf sets a cutoff.
    closing: list[list[_Group]] = [[] for _ in visits]
    bound = [0.0] * (len(visits) + 1)
    groups = _dependency_groups(table)
    if groups:
        depth = {ci: d for d, (ci, _record) in enumerate(visits)}
        for c, p, terms in groups:
            d = max(depth[c], depth[p])
            closing[d].append((c, p, terms))
            bound[d] += wd * max(terms.values())
    for d in range(len(visits) - 1, 0, -1):
        top = 0.0
        for ff, mf, _matched in visits[d][1].values():
            unary = wo + wf * ff + wm * mf
            if unary > top:
                top = unary
        bound[d] += bound[d + 1] + top
    partner: list[int | None] = [None] * len(table.partners)
    used: set[int] = set()
    best: list[tuple[int, int]] = []
    best_raw, best_n, cutoff = -math.inf, -1, -math.inf

    def search(d: int, n: int, fsum: float, msum: float, dep: float) -> None:
        """Leaves in order of pairing before skipping, earlier-declared
        candidates first. The sums run in pairing order, so a leaf's raw is
        the float :func:`_score_pairing` returns; only a strictly greater
        (raw, size) key replaces the best, so the first of equal keys wins.
        A subtree whose bound falls below the cutoff holds no such key."""
        nonlocal best, best_raw, best_n, cutoff
        raw = wo * n + wf * fsum + wm * msum + wd * dep
        if d == len(visits):
            if raw > best_raw or (raw == best_raw and n > best_n):
                # visits run in context order, so this is the pairing order
                best = [(ci, ki) for ci, ki in enumerate(partner) if ki is not None]
                best_raw, best_n = raw, n
                cutoff = raw - _PRUNE_SLACK * max(1.0, raw)
            return
        if raw + bound[d] < cutoff:
            return
        ci, record = visits[d]
        for ki, (ff, mf, _matched) in record.items():
            if ki not in used:
                used.add(ki)
                partner[ci] = ki
                gain = 0.0
                for c, p, terms in closing[d]:
                    gain += terms.get((partner[c], partner[p]), 0.0)
                search(d + 1, n + 1, fsum + ff, msum + mf, dep + gain)
                partner[ci] = None
                used.remove(ki)
        search(d + 1, n, fsum, msum, dep)  # leave this context object unpaired

    search(0, 0, 0, 0, 0)
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
        pairings=tuple(pairing),
        field_fractions=tuple(fam),
        method_fractions=tuple(mim),
        dependency_matches=tuple(deps),
        raw=raw,
        exhaustive=exhaustive,
        context_labels=tuple(o.label for o in table.context.objects),
        candidate_labels=tuple(o.label for o in table.candidate.objects),
    )
