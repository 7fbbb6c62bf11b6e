"""Structural relevance between two units via usage-graph matching.

The score adds four components over the matched object pairs: number of
matched objects, field-access overlap, method-invocation overlap (each
normalized by the context object's own access counts), and matched data
dependencies weighted 1.0 when the access point agrees and 0.5 when only
the endpoints do.

Object pairing is the one underspecified step: a depth-first
branch-and-bound search finds the best injective type-compatible
assignment by an exact key, holding one pairing and a copy of the best so
far (of equal raw scores the larger pairing wins, then the first in
depth-first order). It visits only context objects that have a partner,
and runs as one loop over an explicit stack, so its depth is not bounded
by Python's recursion limit. It counts the nodes that pass its prune test
and stops after ``_MAX_NODES`` of them, returning its best leaf so far;
``exhaustive`` tells whether it ended within that budget.

Pairings are scored from a table built once per candidate: for each
context object, a record of its type-compatible candidate objects with the
field and method fractions and the field and method overlaps scaled to
whole numbers of each pair, read with both graphs' dependency edges
grouped by endpoints ``(consumer, producer)``.
Context objects of equal type name, fields and methods form a class and
share one record, built once per class; no record is mutated. The
context's side of every table (the classes, each class's field and method
maps with their totals, whether its type name is qualified and its simple
type, the least common multiple of the totals, the edge groups and the
labels) is kept with its graph, so it is built once per context, however
many candidates are scored against it. A table builds only the
candidate's side: candidate objects of equal type name, fields and
methods form a class too, and each record's cell is computed once per
candidate class and shared by its objects. The table keeps each candidate
object's class.
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
remaining object's best pair term, with at most k objects of a class that
has k partners counted, plus each open group's best term) and its largest
possible size are at most the best key and size, so pruning never changes
which pairing wins; an open node is tested again whenever the search
returns to it. As the key is order-free, objects of one
class that are no endpoint of a dependency group with terms are
interchangeable, on either side. The search visits one ordering of such
context objects (their partners increase in candidate order, and unpaired
ones come last), and offers a context object only the first unused
member of such a candidate class. Swapping two such objects' partners, or
a partner for an unused twin, keeps a leaf's key and size and gives an
equal leaf that comes earlier in depth-first order; so the first best leaf
keeps both rules, and they never change the winner.

Each level also carries the field- and method-fraction sums, added in
pairing order, so the best leaf's raw is the very float that the tests'
reference scorer of one pairing returns for it; the report takes it as its
``raw``, so the chosen pairing is never scored a second time, whether or
not the search ended within its budget. A table in which no context object
has a partner is not searched at all.

A report holds the chosen pairing, its fractions (read from the table), its
raw score and whether the search was exhaustive. Its dependency matches and
both graphs' labels are derived from the two graphs when first read, which
in a ranked pool happens only for the candidates shown. Both graphs come
from the two units' :class:`~catchrec.lexical.PreparedUnit`; a unit whose
parse failed has none, and scoring it raises
:class:`~catchrec.errors.StructureUnavailable`.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import repeat

from .errors import StructureUnavailable
from .graph import ApiUsageGraph, DependencyEdge
from .lexical import PreparedUnit
from .model import Weights, summed

# A pairing search stops after this many nodes that pass its prune test.
_MAX_NODES = 20_000


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
        return summed(self.field_fractions)

    @property
    def method_total(self) -> float:
        return summed(self.method_fractions)

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
# matched method accesses each times the context object's factor in
# ``access_scale``) for the type-compatible candidate objects of one context
# object, in declaration order
_Partners = dict[int, tuple[float, float, int, int]]


@dataclass(frozen=True)
class _PairTable:
    """What every pairing of two graphs is scored from, computed once per
    (context, candidate) pair of graphs: the partner record of each context
    object, one record shared by the objects of a class, and each candidate
    object's class index (equal type name, fields and methods, numbered in
    order of first occurrence), left empty when no record holds two objects
    of one class, as the search then needs none. The dependency edges
    grouped by their endpoints are each graph's ``edge_groups``."""

    context: ApiUsageGraph
    candidate: ApiUsageGraph
    partners: tuple[_Partners, ...]
    candidate_classes: tuple[int, ...]


def _pair_table(context: ApiUsageGraph, candidate: ApiUsageGraph) -> _PairTable:
    """Types match when both are qualified and equal, or else when their
    simple types are equal; a field or method fraction is the part of the
    context object's accesses the candidate object covers, and the scaled
    overlaps are that fraction times the context's ``access_scale``, as
    whole numbers. The context's side is its graph's
    :attr:`~catchrec.graph.ApiUsageGraph.access_classes`: one record is
    built per class and shared by its objects. The candidate's side is read
    once per class of candidate objects, one column each, and a record's
    cell for a column is shared by the column's objects."""
    column_of: dict[tuple, int] = {}
    columns = []
    classes = []
    for o in candidate.objects:
        key = (o.type_name, o.fields, o.methods)
        j = column_of.setdefault(key, len(columns))
        if j == len(columns):
            columns.append((o.type_name, o.qualified, o.simple_type, dict(o.fields), dict(o.methods)))
        classes.append(j)
    views, class_of = context.access_classes
    _scale, factors = context.access_scale
    twins = len(columns) < len(classes)
    shared = False  # whether a record holds two objects of one class
    records = []
    for (type_name, qualified, simple, fields, ft, methods, mt), (fq, mq) in zip(views, factors):
        # column index -> cell; without twins a column's index is its object's
        cells: _Partners = {}
        for j, (k_type, k_qualified, k_simple, k_fields, k_methods) in enumerate(columns):
            # equal qualified names have equal simple names
            if k_simple == simple and (k_type == type_name or not (qualified and k_qualified)):
                fm = sum(map(min, fields.values(), map(k_fields.get, fields, repeat(0))))
                mm = sum(map(min, methods.values(), map(k_methods.get, methods, repeat(0))))
                # objects without accesses contribute zero instead of dividing by zero
                cells[j] = (fm / ft if ft else 0.0, mm / mt if mt else 0.0, fm * fq, mm * mq)
        if twins and cells:
            record = {ki: cells[j] for ki, j in enumerate(classes) if j in cells}
            shared = shared or len(record) > len(cells)
            cells = record
        records.append(cells)
    return _PairTable(
        context, candidate, tuple(map(records.__getitem__, class_of)), tuple(classes) if shared else ()
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


# (context consumer, context producer, {(candidate consumer, candidate
# producer): twice the group's dependency total under that pair of
# partners, a whole number since the rule's weights are 1.0s and 0.5s})
_Group = tuple[int, int, dict[tuple[int, int], int]]


def _dependency_groups(table: _PairTable) -> list[_Group]:
    """For each context endpoint group, twice its dependency total under
    each pair of partners that has candidate edges between them. The total
    depends only on the two lists of access points, so it is computed once
    per distinct candidate list of a group. The terms depend only on the
    group's two partner records and its access points, so groups with the
    same records (one shared by a class) and points share one dict, which
    no reader changes."""
    groups = []
    by_points: dict[tuple[str, ...], list[tuple[int, int]]] = {}
    shared: dict[tuple[int, int, tuple[str, ...]], dict[tuple[int, int], int]] = {}
    for (c, p), points in table.context.edge_groups.items():
        consumers, producers = table.partners[c], table.partners[p]
        if not (consumers and producers):
            continue
        key = (id(consumers), id(producers), tuple(points))
        terms = shared.get(key)
        if terms is None:
            if not by_points:
                # the candidate endpoint pairs by their edges' access points
                for pair, found in table.candidate.edge_groups.items():
                    by_points.setdefault(tuple(found), []).append(pair)
            terms = shared[key] = {}
            for found, pairs in by_points.items():
                total = None
                for pair in pairs:
                    if pair[0] in consumers and pair[1] in producers:
                        if total is None:
                            total = int(2 * sum(_dependency_weights(points, found)))
                        terms[pair] = total
        if terms:
            groups.append((c, p, terms))
    return groups


def _best_pairing(
    table: _PairTable, weights: StructuralWeights
) -> tuple[list[tuple[int, int]], float, bool]:
    """The chosen pairing, its raw score as the tests' reference scorer of
    one pairing gives it, and whether the search ended within
    ``_MAX_NODES`` nodes.

    Leaves come in order of pairing before skipping, earlier-declared
    candidates first, each keyed by its exact raw and its size. A subtree
    whose bound and most pairs are at most the best key and size holds no
    greater leaf and is pruned; only a greater leaf replaces the best, so
    the first of equal leaves wins. The fraction sums run in pairing order,
    for the report's raw.

    A context object with an earlier one of its class takes only
    candidates after that one's partner, and none if that one stayed
    unpaired; a candidate object with an earlier one of its class is taken
    only once that one is. Context objects that are an endpoint of a group
    with terms, and candidate classes with an endpoint of a group's terms,
    keep every choice.

    The loop holds the open nodes on a stack by depth. Returning to an open
    node, it tests the node's bound again against the best leaf found
    since, and it counts each node that passes the prune test; past
    ``_MAX_NODES`` of them it stops and returns its best leaf so far."""
    # An object without a partner can only stay unpaired, so the search
    # skips it.
    visited = [ci for ci, record in enumerate(table.partners) if record]
    if not visited:
        # only the empty pairing, which matches no edge and scores 0.0
        return [], 0.0, True
    size = len(visited)
    # The exact key is the raw score times twice the context's scale and
    # the weights' common denominator: a whole number, whatever the order
    # of its terms. A pair's term is ko + kf * scaled fields + km * scaled
    # methods; a group's is its term from _dependency_groups (twice its
    # total) times kd.
    scale, _factors = table.context.access_scale
    eo, ef, em, ed = weights.exact
    ko, kf, km, kd = 2 * scale * eo, 2 * ef, 2 * em, scale * ed
    # Each dependency group is scored at the depth of its later endpoint,
    # where its best term over its pairs of partners joins the bound.
    groups = _dependency_groups(table)
    # groups share terms dicts, so each distinct one is read once
    distinct = {id(terms): terms for _c, _p, terms in groups}
    closing: list[tuple[_Group, ...]] = [()] * size
    closing_bound = [0] * size
    ends: set[int] = set()
    if groups:
        depth = {ci: d for d, ci in enumerate(visited)}
        best_term = {key: max(terms.values()) * kd for key, terms in distinct.items()}
        for c, p, terms in groups:
            d = max(depth[c], depth[p])
            closing[d] += ((c, p, terms),)
            closing_bound[d] += best_term[id(terms)]
            ends.update((c, p))
    # levels[d] is what the loop reads of visit d: its object, its record
    # and partners, its closing groups, and the bound and most pairs at its
    # depth and below it. A bound is the most the objects and groups still
    # open at a depth can add to the key, and most the most pairs those
    # objects can add: each group's best term and each open object's best
    # pair term, except that the objects of a class with k partners pair at
    # most k of them. before[d] is the last object before visit d's of its
    # class when neither is an endpoint of a group's terms: such objects
    # are held to their class's order, and leaving one unpaired leaves the
    # later ones unpaired too, so the test of its unpaired child takes what
    # they add (the last two entries of its level) off the bound and the
    # most pairs below it.
    views, class_of = table.context.access_classes
    by_class: dict[int, tuple[list[int], int]] = {}  # partners, best pair term
    levels: list[tuple] = [()] * size
    before: list[int | None] = [None] * size
    later = [0] * len(views)
    later_held = [0] * len(views)
    next_held = [0] * len(views)  # depth of the class's next held visit
    closed = pairs = pair_terms = below = most_below = 0
    for d in range(size - 1, -1, -1):
        ci = visited[d]
        j = class_of[ci]
        record = table.partners[ci]
        choice = by_class.get(j)
        if choice is None:
            top = 0
            for _ff, _mf, fs, ms in record.values():
                gain = ko + kf * fs + km * ms
                if gain > top:
                    top = gain
            choice = by_class[j] = (list(record), top)
        kis, top = choice
        closed += closing_bound[d]
        count = later[j]
        lost = 0
        if ci not in ends:
            held = later_held[j]
            if held:
                before[next_held[j]] = ci
                lost = min(count, len(kis)) - min(count - held, len(kis))
            later_held[j], next_held[j] = held + 1, d
        later[j] = count + 1
        if count < len(kis):
            pairs, pair_terms = pairs + 1, pair_terms + top
        here, most_here = closed + pair_terms, pairs
        levels[d] = (
            ci, record, kis, closing[d], here, most_here, below, most_below, lost * top, lost,
        )
        below, most_below = here, most_here
    # A candidate object is free while it is untaken and, in a class with no
    # endpoint of a group's terms, the first untaken object of its class.
    # after[ki] is the next object of such a class, else the spare last slot
    # of ``free``, which no search reads.
    classes = table.candidate_classes
    count = len(table.candidate.objects)
    free = [True] * (count + 1)
    after = [count] * count
    if classes:
        joined = set().union(*map(dict.keys, distinct.values()))
        bound_classes = {classes[k] for pair in joined for k in pair}
        last: dict[int, int] = {}
        for ki, j in enumerate(classes):
            if j not in bound_classes:
                if j in last:
                    after[last[j]] = ki
                    free[ki] = False
                last[j] = ki
    partner: list[int | None] = [None] * len(table.partners)
    # the best leaf's partners; the empty pairing, the last leaf, keys
    # (0, 0), and no other leaf does
    best = partner.copy()
    best_key, best_n, best_sums = 0, 0, (0, 0)
    # The open nodes' (pairs, key, fraction sums) by depth, and the position
    # of each one's next choice in its level's partners; the position past
    # the last leaves the object unpaired. d is the deepest open node's
    # depth, and the root is the first node.
    states: list[tuple[int, int, float, float]] = [(0, 0, 0, 0)] * size
    at = [0] * size
    nodes = 1
    exhaustive = nodes <= _MAX_NODES
    d = 0 if exhaustive else -1
    while d >= 0:
        ci, record, kis, closes, here, most_here, below, most_below, lost, lost_pairs = levels[d]
        ki = partner[ci]
        if ki is not None:
            partner[ci] = None
            free[ki], free[after[ki]] = True, False
        n, key, fsum, msum = states[d]
        top = key + here
        if top < best_key or (top == best_key and n + most_here <= best_n):
            # a leaf found since this node was entered is as good as any in it
            d -= 1
            continue
        count = len(kis)
        i = at[d]
        if not i and before[d] is not None:
            # partners increase in candidate order, none after an unpaired twin
            low = partner[before[d]]
            i = count if low is None else bisect.bisect(kis, low)
        left = n + most_below
        while i < count:
            ki = kis[i]
            i += 1
            if free[ki]:
                ff, mf, fs, ms = record[ki]
                term = ko + kf * fs + km * ms
                partner[ci] = ki
                for c, p, terms in closes:
                    term += terms.get((partner[c], partner[p]), 0) * kd
                top = key + term + below
                if top > best_key or (top == best_key and left >= best_n):
                    free[ki], free[after[ki]] = False, True
                    at[d] = i
                    child = (n + 1, key + term, fsum + ff, msum + mf)
                    break
                partner[ci] = None
        else:
            top = key + below - lost
            if i > count or top < best_key or (top == best_key and left - lost_pairs <= best_n):
                d -= 1
                continue
            at[d] = i + 1
            child = states[d]  # leave this context object unpaired
        nodes += 1
        if nodes > _MAX_NODES:
            exhaustive = False
            break
        if d + 1 < size:
            d += 1
            states[d], at[d] = child, 0
        else:
            best = partner.copy()
            best_n, best_key, *best_sums = child
    halves = 0
    for c, p, terms in groups:
        halves += terms.get((best[c], best[p]), 0)
    fsum, msum = best_sums
    raw = (
        weights.object_match * best_n + weights.field_match * fsum
        + weights.method_match * msum + weights.dependency_match * (halves / 2)
    )
    # visits run in context order, so this is the pairing order
    return [(ci, ki) for ci, ki in enumerate(best) if ki is not None], raw, exhaustive


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
