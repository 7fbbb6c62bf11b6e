"""Structural relevance between two units via usage-graph matching.

The score adds four components over the matched object pairs: number of
matched objects, field-access overlap, method-invocation overlap (each
normalized by the context object's own access counts), and matched data
dependencies weighted 1.0 when the access point agrees and 0.5 when only
the endpoints do.

Object pairing is the one underspecified step: while the assignment space
is at most 20,000, a depth-first branch-and-bound search finds the best
injective type-compatible assignment by an exact key, holding one pairing
and a copy of the best so far (of equal raw scores the larger pairing
wins, then the first in depth-first order). It visits only context
objects that have a partner, each of which at least doubles the space,
so its recursion is under 15 deep whatever the graph size. For larger
spaces it falls back to a greedy per-object choice and marks the report
as non-exhaustive so the approximation is visible downstream.

Pairings are scored from a table built once per candidate: for each
context object, a record of its type-compatible candidate objects with the
field and method fractions, the matched access count and the field and
method overlaps scaled to whole numbers of each pair, read with both
graphs' dependency edges grouped by endpoints ``(consumer, producer)``.
Context objects of equal type name, fields and methods form a class and
share one record, built once per class; no record is mutated. The
context's side of every table (the classes, each class's field and method
maps with their totals, whether its type name is qualified and its simple
type, the least common multiple of the totals, the edge groups and the
labels) is kept with its graph, so it is built once per context, however
many candidates are scored against it; a table builds only the
candidate's side, once per candidate object.
One rule weighs the edges of one context group against the candidate edges
between its partners: equal access points first, then half weight, each
candidate edge used once. A pairing is injective, so no two groups share a
candidate edge and each group is weighed on its own. The report's
dependency matches are the rule's weights for the chosen pairing, in
context-edge order.

The search keys each leaf by its raw score times one whole number: twice
the least common multiple of the context's access totals, times the
common denominator of the four weights (each float is a binary fraction,
:attr:`StructuralWeights.exact`). Every field and method fraction, every
dependency total (a sum of 1.0s and 0.5s) and every weight then scales to
a whole number, so the key is exact and does not depend on the order its
terms are added in. Each level carries the pairing size and the key, to
which each group's term is added once both its endpoints are paired. A
subtree is pruned exactly when its bound (the partial key, plus each
remaining object's best pair term, plus each open group's best term) and
its largest possible size are at most the best key and size, so pruning
never changes which pairing wins. As the key is order-free, objects of one
class that are no endpoint of a dependency group with terms are
interchangeable, and the search visits one ordering of them: their
partners increase in candidate order, and unpaired ones come last.

Each level also carries the field- and method-fraction sums, added in
pairing order, so the best leaf's raw is the very float
:func:`_score_pairing` returns for its pairing; the report takes it as its
``raw``, so an exhaustive table is never scored a second time. A table in
which no context object has a partner is not searched at all.

A report holds the chosen pairing, its fractions (read from the table), its
raw score and whether the search was exhaustive. Its dependency matches and
both graphs' labels are derived from the two graphs when first read, which
in a ranked pool happens only for the candidates shown. Both graphs come
from the two units' :class:`~catchrec.lexical.PreparedUnit`; a unit whose
parse failed has none, and scoring it raises
:class:`~catchrec.errors.StructureUnavailable`.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import repeat

from .errors import StructureUnavailable
from .graph import ApiUsageGraph, DependencyEdge
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

    @functools.cached_property
    def exact(self) -> tuple[int, int, int, int]:
        """The four weights as whole numbers over their least common
        denominator, in field order: a float is a binary fraction, so these
        are the weights scaled by one positive factor, with no rounding."""
        ratios = [
            weight.as_integer_ratio()
            for weight in (self.object_match, self.field_match, self.method_match, self.dependency_match)
        ]
        denominator = math.lcm(*(q for _p, q in ratios))
        return tuple(p * (denominator // q) for p, q in ratios)


# one instance, so that its exact weights are derived once
_DEFAULT_WEIGHTS = StructuralWeights()


@dataclass(frozen=True, eq=False)
class MatchReport:
    """The chosen pairing of two graphs and its scores. The dependency
    matches and the labels are derived from ``context`` and ``candidate`` on
    first read. Two reports are equal when their pairings, fractions,
    dependency matches, raw score and exhaustive flag are; labels and graphs
    are not compared."""

    pairings: tuple[tuple[int, int], ...]       # (context index, candidate index)
    field_fractions: tuple[float, ...]          # aligned with pairings
    method_fractions: tuple[float, ...]
    raw: float
    exhaustive: bool
    context: ApiUsageGraph = field(repr=False)
    candidate: ApiUsageGraph = field(repr=False)

    @functools.cached_property
    def dependency_matches(self) -> tuple[tuple[DependencyEdge, float], ...]:
        return tuple(_dependency_matches(self.pairings, self.context, self.candidate))

    @property
    def context_labels(self) -> tuple[str, ...]:
        return self.context.labels

    @property
    def candidate_labels(self) -> tuple[str, ...]:
        return self.candidate.labels

    def _key(self) -> tuple:
        return (
            self.pairings, self.field_fractions, self.method_fractions,
            self.dependency_matches, self.raw, self.exhaustive,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchReport):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash((self.pairings, self.raw, self.exhaustive))

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


# candidate index -> (field fraction, method fraction, matched field and
# method accesses, matched field and matched method accesses each times the
# context object's factor in ``access_scale``) for the type-compatible
# candidate objects of one context object, in declaration order
_Partners = dict[int, tuple[float, float, int, int, int]]


@dataclass(frozen=True)
class _PairTable:
    """What every pairing of two graphs is scored from, computed once per
    (context, candidate) pair of graphs: the partner record of each context
    object, one record shared by the objects of a class. The dependency
    edges grouped by their endpoints are each graph's ``edge_groups``."""

    context: ApiUsageGraph
    candidate: ApiUsageGraph
    partners: tuple[_Partners, ...]


def _pair_table(context: ApiUsageGraph, candidate: ApiUsageGraph) -> _PairTable:
    """Types match when both are qualified and equal, or else when their
    simple types are equal; a field or method fraction is the part of the
    context object's accesses the candidate object covers, and the scaled
    overlaps are that fraction times the context's ``access_scale``, as
    whole numbers. The context's side is its graph's
    :attr:`~catchrec.graph.ApiUsageGraph.access_classes`: one record is
    built per class and shared by its objects. Each candidate object's side
    is read once per table."""
    cand_access = [
        (o.type_name, o.qualified, o.simple_type, dict(o.fields), dict(o.methods))
        for o in candidate.objects
    ]
    views, class_of = context.access_classes
    _scale, factors = context.access_scale
    records = []
    for (type_name, qualified, simple, fields, ft, methods, mt), (fq, mq) in zip(views, factors):
        record: _Partners = {}
        for ki, (k_type, k_qualified, k_simple, k_fields, k_methods) in enumerate(cand_access):
            # equal qualified names have equal simple names
            if k_simple == simple and (k_type == type_name or not (qualified and k_qualified)):
                fm = sum(map(min, fields.values(), map(k_fields.get, fields, repeat(0))))
                mm = sum(map(min, methods.values(), map(k_methods.get, methods, repeat(0))))
                # objects without accesses contribute zero instead of dividing by zero
                record[ki] = (fm / ft if ft else 0.0, mm / mt if mt else 0.0, fm + mm, fm * fq, mm * mq)
        records.append(record)
    return _PairTable(context, candidate, tuple(map(records.__getitem__, class_of)))


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


def _dependency_matches(
    pairings: Iterable[tuple[int, int]], context: ApiUsageGraph, candidate: ApiUsageGraph
) -> list[tuple[DependencyEdge, float]]:
    """The context edges a pairing matches, with their weights under the
    rule, in context-edge order."""
    paired = dict(pairings)
    candidate_edges = candidate.edge_groups
    group_weights = {
        (c, p): iter(_dependency_weights(
            points, candidate_edges.get((paired.get(c), paired.get(p)), [])
        ))
        for (c, p), points in context.edge_groups.items()
    }
    deps = []
    for edge in context.dependencies:
        weight = next(group_weights[edge.consumer, edge.producer])
        if weight:
            deps.append((edge, weight))
    return deps


def _summed(fractions: Iterable[float]) -> float:
    """The fractions added one by one in their order (which ``sum`` does
    not promise for floats from Python 3.12 on)."""
    return functools.reduce(operator.add, fractions, 0)


def _score_pairing(
    pairings: list[tuple[int, int]], table: _PairTable, weights: StructuralWeights
) -> tuple[float, list[float], list[float], list[tuple[DependencyEdge, float]]]:
    """Raw score of one pairing and its parts; fractions are summed in
    pairing order, and the dependency matches are in context-edge order."""
    fam = [table.partners[c][k][0] for c, k in pairings]
    mim = [table.partners[c][k][1] for c, k in pairings]
    deps = _dependency_matches(pairings, table.context, table.candidate)
    raw = (
        weights.object_match * len(pairings)
        + weights.field_match * _summed(fam)
        + weights.method_match * _summed(mim)
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
    candidate_edges = table.candidate.edge_groups
    for (c, p), points in table.context.edge_groups.items():
        terms = {
            (kc, kp): sum(_dependency_weights(points, found))
            for (kc, kp), found in candidate_edges.items()
            if kc in table.partners[c] and kp in table.partners[p]
        }
        if terms:
            groups.append((c, p, terms))
    return groups


def _best_pairing(
    table: _PairTable, weights: StructuralWeights
) -> tuple[list[tuple[int, int]], float, bool]:
    """The chosen pairing, its raw score as :func:`_score_pairing` returns
    it, and whether the search was exhaustive."""
    if _assignment_space(table) > _MAX_ASSIGNMENTS:
        greedy = _greedy_pairing(table)
        return greedy, _score_pairing(greedy, table, weights)[0], False
    # An object without a partner can only stay unpaired, so the search
    # skips it; each object it visits at least doubles the assignment
    # space, which bounds the recursion by log2(_MAX_ASSIGNMENTS).
    visits = [(ci, record) for ci, record in enumerate(table.partners) if record]
    if not visits:
        # only the empty pairing, which matches no edge and scores 0.0
        return [], 0.0, True
    size = len(visits)
    # The exact key is the raw score times twice the context's scale and
    # the weights' common denominator: a whole number, whatever the order
    # of its terms. A pair's term is ko + kf * scaled fields + km * scaled
    # methods; a group's is twice its total (a sum of 1.0s and 0.5s) times
    # kd.
    scale, _factors = table.context.access_scale
    eo, ef, em, ed = weights.exact
    ko, kf, km, kd = 2 * scale * eo, 2 * ef, 2 * em, scale * ed
    # Each dependency group is scored at the depth of its later endpoint;
    # bound[d] is the most the objects and groups still open at depth d can
    # add to the key: each object's best pair term, and each group's best
    # term over its pairs of partners. bound[0] stays 0, since the root is
    # entered before any leaf sets a best key.
    closing: list[list[_Group]] = [[] for _ in visits]
    bound = [0] * (size + 1)
    groups = _dependency_groups(table)
    if groups:
        depth = {ci: d for d, (ci, _record) in enumerate(visits)}
        for c, p, terms in groups:
            d = max(depth[c], depth[p])
            exact = {pair: int(2 * total) * kd for pair, total in terms.items()}
            closing[d].append((c, p, exact))
            bound[d] += max(exact.values())
    for d in range(size - 1, 0, -1):
        top = 0
        for _ff, _mf, _matched, fs, ms in visits[d][1].values():
            term = ko + kf * fs + km * ms
            if term > top:
                top = term
        bound[d] += bound[d + 1] + top
    # earlier[d] is the last object before visit d's of the same class, when
    # neither is an endpoint of a group
    earlier: list[int | None] = [None] * size
    views, class_of = table.context.access_classes
    if len(views) < len(class_of):
        ends = {end for c, p, _terms in groups for end in (c, p)}
        last: dict[int, int] = {}
        for d, (ci, _record) in enumerate(visits):
            if ci not in ends:
                earlier[d] = last.get(class_of[ci])
                last[class_of[ci]] = ci
    partner: list[int | None] = [None] * len(table.partners)
    used: set[int] = set()
    best: list[tuple[int, int]] = []
    best_key, best_n, best_sums = -1, -1, (0, 0)

    def search(d: int, n: int, key: int, fsum: float, msum: float) -> None:
        """Leaves in order of pairing before skipping, earlier-declared
        candidates first, each keyed by its exact raw and its size. A
        subtree whose bound and most pairs are at most the best key and
        size holds no greater leaf and is pruned; only a greater leaf
        replaces the best, so the first of equal leaves wins. The fraction
        sums run in pairing order, for the report's raw.

        An object with an earlier one of its class takes only candidates
        after that one's partner, and none if that one stayed unpaired. Both
        have one record and no dependency term, so swapping their partners
        keeps every leaf's key and size: each leaf skipped has an equal one
        earlier in this order, and the first best leaf is never skipped."""
        nonlocal best, best_key, best_n, best_sums
        top = key + bound[d]
        if top < best_key or (top == best_key and n + size - d <= best_n):
            return
        if d == size:
            # visits run in context order, so this is the pairing order
            best = [(ci, ki) for ci, ki in enumerate(partner) if ki is not None]
            best_key, best_n, best_sums = key, n, (fsum, msum)
            return
        ci, record = visits[d]
        before = earlier[d]
        low = -1 if before is None else partner[before]
        if low is not None:
            for ki, (ff, mf, _matched, fs, ms) in record.items():
                if ki > low and ki not in used:
                    used.add(ki)
                    partner[ci] = ki
                    gain = ko + kf * fs + km * ms
                    for c, p, terms in closing[d]:
                        gain += terms.get((partner[c], partner[p]), 0)
                    search(d + 1, n + 1, key + gain, fsum + ff, msum + mf)
                    partner[ci] = None
                    used.remove(ki)
        search(d + 1, n, key, fsum, msum)  # leave this context object unpaired

    search(0, 0, 0, 0, 0)
    # search refers to itself, a cycle that only the cyclic collector would
    # free; breaking it frees the table's search state at once
    del search
    dep = 0.0
    if groups:
        paired = dict(best)
        for c, p, terms in groups:
            dep += terms.get((paired.get(c), paired.get(p)), 0.0)
    fsum, msum = best_sums
    raw = (
        weights.object_match * best_n + weights.field_match * fsum
        + weights.method_match * msum + weights.dependency_match * dep
    )
    return best, raw, True


def structural_score(
    context: PreparedUnit,
    candidate: PreparedUnit,
    weights: StructuralWeights | None = None,
) -> MatchReport:
    """Full structural relevance between two prepared units."""
    if context.graph is None or candidate.graph is None:
        raise StructureUnavailable("structural scoring needs two parsed units")
    weights = weights or _DEFAULT_WEIGHTS
    table = _pair_table(context.graph, candidate.graph)
    pairing, raw, exhaustive = _best_pairing(table, weights)
    partners = table.partners
    return MatchReport(
        pairings=tuple(pairing),
        field_fractions=tuple(partners[c][k][0] for c, k in pairing),
        method_fractions=tuple(partners[c][k][1] for c, k in pairing),
        raw=raw,
        exhaustive=exhaustive,
        context=context.graph,
        candidate=candidate.graph,
    )
