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

The search scores each leaf from running sums, not from scratch: each
level carries the pairing size, the field- and method-fraction sums (added
in pairing order) and a dependency total. The dependency term splits by
context endpoint group ``(consumer, producer)``: a pairing is injective, so
a candidate edge can back only one group, and each group's term is fixed
once both its endpoints are paired. Its weights are all 1.0 or 0.5, so the
total is exact in any order and a leaf's key is the very float the report's
scoring returns. A subtree is pruned when its bound (the partial score,
plus each remaining object's best object, field and method term, plus each
open group's best term) is below the best score by more than a rounding
margin, so pruning never changes which pairing wins.

Pairings are scored from per-pair tables built once per candidate: the
field and method fractions of every type-compatible object pair, and the
candidate's dependency edges indexed by their endpoints. The search and the
final report read the same table, and the report's scoring function runs
once, on the chosen pairing. Both graphs come from the two units'
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


def _greedy_pairing(table: _PairTable) -> list[tuple[int, int]]:
    """Declaration-order greedy pick maximizing raw member-overlap counts;
    of equal overlaps the earlier-declared candidate wins."""
    used: set[int] = set()
    pairing: list[tuple[int, int]] = []
    for ci, partners in enumerate(table.compatible):
        free = [ki for ki in partners if ki not in used]
        if free:
            best = max(free, key=lambda ki: table.overlap[ci, ki])
            pairing.append((ci, best))
            used.add(best)
    return pairing


# (context consumer, context producer, {(candidate consumer, candidate
# producer): the group's dependency weight under that pair of partners})
_Group = tuple[int, int, dict[tuple[int, int], float]]


def _dependency_groups(table: _PairTable) -> list[_Group]:
    """The dependency total of :func:`_dependency_matches` split by context
    endpoint group: for each context ``(consumer, producer)`` with edges, the
    weight its edges get from each compatible candidate endpoint pair that
    has edges. A pairing is injective, so a candidate edge can back only the
    one group whose endpoints are paired to its own, and the greedy rule
    (exact access points first, then half weight) gives each group this
    total on its own: the exact matches, plus half of the edges left on the
    smaller side. The weights are all 1.0 or 0.5, so the group terms sum to
    the same float in any order."""
    if not table.context.dependencies or not table.candidate_edges:
        return []
    points: dict[tuple[int, int], list[str]] = {}
    for edge in table.context.dependencies:
        points.setdefault((edge.consumer, edge.producer), []).append(edge.access_point)
    compatible = [set(partners) for partners in table.compatible]
    groups = []
    for (c, p), context_points in points.items():
        terms: dict[tuple[int, int], float] = {}
        for (kc, kp), found in table.candidate_edges.items():
            if kc in compatible[c] and kp in compatible[p]:
                candidate_points = [access_point for _idx, access_point in found]
                exact = sum(
                    min(context_points.count(ap), candidate_points.count(ap))
                    for ap in set(context_points)
                )
                terms[kc, kp] = exact + 0.5 * (min(len(context_points), len(found)) - exact)
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
    field_fractions, method_fractions = table.field_fractions, table.method_fractions
    # An object without a partner can only stay unpaired, so the search
    # skips it; each object it visits at least doubles the assignment
    # space, which bounds the recursion by log2(_MAX_ASSIGNMENTS).
    visits = [(ci, partners) for ci, partners in enumerate(table.compatible) if partners]
    # Each dependency group is scored at the depth of its later endpoint;
    # bound[d] is the most the objects and groups still open at depth d can
    # add: each object's best object, field and method term, and each
    # group's best term over compatible partner pairs. bound[0] stays 0.0,
    # since the root is entered before any leaf sets a cutoff.
    closing: list[list[_Group]] = [[] for _ in visits]
    bound = [0.0] * (len(visits) + 1)
    groups = _dependency_groups(table)
    if groups:
        depth = {ci: d for d, (ci, _partners) in enumerate(visits)}
        for c, p, terms in groups:
            d = max(depth[c], depth[p])
            closing[d].append((c, p, terms))
            bound[d] += wd * max(terms.values())
    for d in range(len(visits) - 1, 0, -1):
        ci, partners = visits[d]
        top = 0.0
        for ki in partners:
            unary = wo + wf * field_fractions[ci, ki] + wm * method_fractions[ci, ki]
            if unary > top:
                top = unary
        bound[d] += bound[d + 1] + top
    partner: list[int | None] = [None] * len(table.compatible)
    acc: list[tuple[int, int]] = []
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
                best, best_raw, best_n = list(acc), raw, n
                cutoff = raw - _PRUNE_SLACK * max(1.0, raw)
            return
        if raw + bound[d] < cutoff:
            return
        ci, partners = visits[d]
        for ki in partners:
            if ki not in used:
                acc.append((ci, ki))
                used.add(ki)
                partner[ci] = ki
                gain = 0.0
                for c, p, terms in closing[d]:
                    gain += terms.get((partner[c], partner[p]), 0.0)
                search(
                    d + 1, n + 1, fsum + field_fractions[ci, ki],
                    msum + method_fractions[ci, ki], dep + gain,
                )
                partner[ci] = None
                used.remove(ki)
                acc.pop()
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
