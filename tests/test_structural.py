"""Structural scoring tests, backed by an independent brute-force scorer
that enumerates every injective type-compatible pairing from scratch."""

import functools
import itertools
import math
import operator
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from catchrec import extract_usage_graph, parse, prepare, structural, structural_score
from catchrec.errors import StructureUnavailable
from catchrec.graph import ApiUsageGraph, DependencyEdge, GraphObject
from catchrec.lexical import PreparedUnit
from catchrec.model import summed
from catchrec.structural import (
    StructuralWeights,
    _best_pairing,
    _dependency_groups,
    _dependency_matches,
    _pair_table,
    _PairTable,
)


# --- the one-pairing scorer the search's raw is held to ----------------------


def _score_pairing(pairings, table, weights):
    """Raw score of one pairing and its parts, the reference the search's
    raw is held to: fractions are summed in pairing order, and the
    dependency matches are in context-edge order."""
    fam = [table.partners[c][k][0] for c, k in pairings]
    mim = [table.partners[c][k][1] for c, k in pairings]
    deps = _dependency_matches(pairings, table.context, table.candidate)
    raw = (
        weights.object_match * len(pairings)
        + weights.field_match * summed(fam)
        + weights.method_match * summed(mim)
        + weights.dependency_match * sum(w for _e, w in deps)
    )
    return raw, fam, mim, deps


# --- independent reference implementation (test-side oracle) ---------------


def _ref_types_match(a, b):
    if "." in a.type_name and "." in b.type_name:
        return a.type_name == b.type_name
    return a.type_name.rsplit(".", 1)[-1] == b.type_name.rsplit(".", 1)[-1]


def _ref_fraction(ctx_counts, cand_counts):
    total = sum(ctx_counts.values())
    if not total:
        return 0.0
    hit = sum(min(c, cand_counts.get(name, 0)) for name, c in ctx_counts.items())
    return hit / total


def _ref_dependency_weights(pairing, ctx, cand):
    """Two passes over the whole graph, exact access points first, each
    candidate edge used once: context edge position -> weight, for the
    edges that match."""
    paired = dict(pairing)
    used: set[int] = set()
    weights: dict[int, float] = {}  # context edge position -> weight
    for pos, edge in enumerate(ctx.dependencies):
        cc, cp = paired.get(edge.consumer), paired.get(edge.producer)
        if cc is None or cp is None:
            continue
        for idx, cedge in enumerate(cand.dependencies):
            if idx in used or cedge.consumer != cc or cedge.producer != cp:
                continue
            if cedge.access_point == edge.access_point:
                used.add(idx)
                weights[pos] = 1.0
                break
    for pos, edge in enumerate(ctx.dependencies):
        if pos in weights:
            continue
        cc, cp = paired.get(edge.consumer), paired.get(edge.producer)
        if cc is None or cp is None:
            continue
        for idx, cedge in enumerate(cand.dependencies):
            if idx in used or cedge.consumer != cc or cedge.producer != cp:
                continue
            used.add(idx)
            weights[pos] = 0.5
            break
    return weights


def _ref_dependency_total(pairing, ctx, cand):
    return sum(_ref_dependency_weights(pairing, ctx, cand).values())


def _ref_score(pairing, ctx, cand, w):
    """The raw score with the fractions added one by one in pairing order
    (``sum`` compensates float sums from Python 3.12 on)."""
    fam = functools.reduce(operator.add, (
        _ref_fraction(dict(ctx.objects[c].fields), dict(cand.objects[k].fields))
        for c, k in pairing
    ), 0)
    mim = functools.reduce(operator.add, (
        _ref_fraction(dict(ctx.objects[c].methods), dict(cand.objects[k].methods))
        for c, k in pairing
    ), 0)
    ddm = _ref_dependency_total(pairing, ctx, cand)
    return (
        w.object_match * len(pairing)
        + w.field_match * fam
        + w.method_match * mim
        + w.dependency_match * ddm
    )


def _ref_best_score(ctx, cand, w):
    """Exhaustive maximum over all injective type-compatible pairings."""
    n = len(ctx.objects)
    best = 0.0
    cand_indices = list(range(len(cand.objects)))
    for r in range(0, min(n, len(cand_indices)) + 1):
        for ctx_subset in itertools.combinations(range(n), r):
            for cand_perm in itertools.permutations(cand_indices, r):
                pairing = list(zip(ctx_subset, cand_perm))
                if all(
                    _ref_types_match(ctx.objects[c], cand.objects[k]) for c, k in pairing
                ):
                    best = max(best, _ref_score(pairing, ctx, cand, w))
    return best


def _enumerate_pairings(table):
    """Every injective type-compatible assignment of the table, in an order
    that prefers pairing over skipping and earlier-declared candidates over
    later ones (the order the search must break ties in)."""
    results = []
    partners = table.partners

    def recurse(ci, used, acc):
        if ci == len(partners):
            results.append(list(acc))
            return
        for ki in partners[ci]:
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


def _assignments(table):
    """How many assignments the table's records span, each context object
    taking one of its partners or none, injective or not: an upper bound on
    the number of pairings :func:`_enumerate_pairings` lists."""
    return math.prod(len(record) + 1 for record in table.partners)


def _random_graph(rng, max_objects=4, types=("A", "B", "C"), max_deps=3):
    members = ["f", "g", "h"]
    fields = ["x", "y"]
    objs = []
    counts = {}
    for _ in range(rng.randint(1, max_objects)):
        t = rng.choice(types)
        ordinal = counts.get(t, 0)
        counts[t] = ordinal + 1
        objs.append(
            GraphObject(
                type_name=t,
                ordinal=ordinal,
                variable_name=f"v{len(objs)}",
                fields=tuple(
                    sorted((f, rng.randint(1, 2)) for f in rng.sample(fields, rng.randint(0, 2)))
                ),
                methods=tuple(
                    sorted((m, rng.randint(1, 2)) for m in rng.sample(members, rng.randint(0, 3)))
                ),
            )
        )
    deps = set()
    for _ in range(rng.randint(0, max_deps)):
        if len(objs) < 2:
            break
        c, p = rng.sample(range(len(objs)), 2)
        deps.add(DependencyEdge(c, p, rng.choice(["", "f", "g"])))
    return ApiUsageGraph(objects=tuple(objs), dependencies=tuple(sorted(deps, key=lambda e: (e.consumer, e.producer, e.access_point))))


# --- fixture-driven checks --------------------------------------------------


def test_listing_pair_structural_vector(listing1, listing2):
    report = structural_score(prepare(listing1), prepare(listing2))
    assert report.matched_objects == 2
    assert report.field_total == 0.0
    assert report.method_total == 1.0
    assert report.dependency_total == 0.0
    assert report.raw == 3.0
    assert report.exhaustive


def test_matched_types_are_url_and_connection(listing1, listing2):
    report = structural_score(prepare(listing1), prepare(listing2))
    ctx = extract_usage_graph(listing1)
    cand = extract_usage_graph(listing2)
    matched = {
        (ctx.objects[c].type_name, cand.objects[k].type_name) for c, k in report.pairings
    }
    assert matched == {("URL", "URL"), ("HttpURLConnection", "HttpURLConnection")}


def test_identity_matches_every_object(listing2):
    report = structural_score(prepare(listing2), prepare(listing2))
    assert report.matched_objects == len(listing2.objects)
    assert all(w == 1.0 for _e, w in report.dependency_matches)
    assert len(report.dependency_matches) == len(listing2.dependencies)


def test_duplicate_types_pair_up_to_multiset():
    ctx = parse("A a1 = new A(); A a2 = new A(); B b = new B();")
    cand = parse("A a = new A(); B b1 = new B(); B b2 = new B();")
    report = structural_score(prepare(ctx), prepare(cand))
    assert report.matched_objects == 2  # one A and one B


def test_field_access_fraction_hand_count():
    ctx = parse("A a = make(); int p = a.x; int q = a.x; int r = a.y;")
    cand = parse("A a = make(); int m = a.x; int n = a.y; int o = a.z;")
    report = structural_score(prepare(ctx), prepare(cand))
    assert report.pairings == ((0, 0),)
    assert report.field_fractions == (pytest.approx(2 / 3),)


def test_field_fraction_zero_without_context_accesses(listing1, listing2):
    report = structural_score(prepare(listing1), prepare(listing2))
    assert list(report.field_fractions) == [0.0, 0.0]


def test_method_invocation_fraction_hand_count():
    ctx = parse("A a = make(); a.f(); a.g();")
    cand = parse("A a = make(); a.f();")
    report = structural_score(prepare(ctx), prepare(cand))
    assert report.pairings == ((0, 0),)
    assert report.method_fractions == (pytest.approx(1 / 2),)


def test_constructor_counts_as_init_invocation():
    ctx = parse("A a = new A();")
    cand = parse("A a = new A(); a.extra();")
    report = structural_score(prepare(ctx), prepare(cand))
    assert report.method_total == 1.0  # <init> matched, context total is 1


def test_partial_dependency_match_weight():
    ctx = parse("A a = new A(); B b = new B(a.f());")
    cand = parse("A a = new A(); B b = new B(a.g());")
    matches = structural_score(prepare(ctx), prepare(cand)).dependency_matches
    assert [w for _e, w in matches] == [0.5]


def test_exact_dependency_preferred_over_partial():
    ctx = parse("A a = new A(); B b = new B(a.f());")
    cand = parse("A a = new A(); B b = new B(a.f()); b.use(a.g());")
    matches = structural_score(prepare(ctx), prepare(cand)).dependency_matches
    assert [w for _e, w in matches] == [1.0]


def test_candidate_edge_used_at_most_once():
    ctx = parse("A a = new A(); B b = new B(); b.p(a.f()); b.q(a.f());")
    cand = parse("A a = new A(); B b = new B(); b.p(a.f());")
    # context has edges (B->A,"f") from two call sites; they dedupe to one
    assert len(ctx.dependencies) == 1
    matches = structural_score(prepare(ctx), prepare(cand)).dependency_matches
    assert [w for _e, w in matches] == [1.0]


def test_score_against_empty_unit(listing1):
    report = structural_score(prepare(listing1), prepare(parse("")))
    assert report.raw == 0.0
    assert report.matched_objects == 0


def test_structure_unavailable_on_failed_parse(listing1):
    failed = parse("} catch }")
    with pytest.raises(StructureUnavailable):
        structural_score(prepare(listing1), prepare(failed))
    with pytest.raises(StructureUnavailable):
        structural_score(prepare(failed), prepare(listing1))


def test_raw_recomputes_exactly(listing1, listing2):
    w = StructuralWeights(1.25, 0.5, 2.0, 0.75)
    report = structural_score(prepare(listing1), prepare(listing2), w)
    recomputed = (
        w.object_match * report.matched_objects
        + w.field_match * sum(report.field_fractions)
        + w.method_match * sum(report.method_fractions)
        + w.dependency_match * sum(weight for _e, weight in report.dependency_matches)
    )
    assert report.raw == recomputed


def test_monotonicity_adding_matched_invocation():
    ctx = parse("A a = make(); a.f(); a.g();")
    weaker = parse("A a = make(); a.f();")
    stronger = parse("A a = make(); a.f(); a.g();")
    assert structural_score(prepare(ctx), prepare(stronger)).raw >= structural_score(prepare(ctx), prepare(weaker)).raw


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        StructuralWeights(object_match=-0.1)


def test_brute_force_equivalence_on_small_graphs():
    rng = random.Random(20240117)
    w = StructuralWeights()
    for _ in range(120):
        ctx = _random_graph(rng)
        cand = _random_graph(rng)
        mine = _score_via_module(ctx, cand, w)
        reference = _ref_best_score(ctx, cand, w)
        assert mine == pytest.approx(reference), (ctx, cand)


def _score_via_module(ctx, cand, w):
    table = _pair_table(ctx, cand)
    pairing, raw, exhaustive = _best_pairing(table, w)
    assert exhaustive
    assert raw == _score_pairing(pairing, table, w)[0]
    return raw


_WEIGHTINGS = (
    StructuralWeights(),
    StructuralWeights(1.25, 0.5, 2.0, 0.75),
    StructuralWeights(0.1, 0.3, 0.7, 0.9),
    # with zero weights many pairings tie on raw and the pairing size decides
    StructuralWeights(0, 0, 1, 1),
    StructuralWeights(0, 0, 0, 0),
    StructuralWeights(0, 1, 0, 0.5),
)


def test_table_pairing_matches_per_pairing_scan():
    """The table-driven search picks the pairing a scan of every enumerated
    pairing, scored from scratch per pairing, picks: same pairing (first
    best key in enumeration order), bit-identical raw, and the same weight
    on each context edge as the whole-graph dependency rule."""
    rng = random.Random(20240119)
    for trial in range(300):
        ctx = _random_graph(rng, max_objects=5, types=["A", "B"], max_deps=5)
        cand = _random_graph(rng, max_objects=5, types=["A", "B"], max_deps=5)
        w = _WEIGHTINGS[trial % len(_WEIGHTINGS)]
        table = _pair_table(ctx, cand)
        scan_best, scan_key = None, None
        for pairing in _enumerate_pairings(table):
            key = (_ref_score(pairing, ctx, cand, w), len(pairing))
            if scan_key is None or key > scan_key:
                scan_best, scan_key = pairing, key
        pairing, searched, exhaustive = _best_pairing(table, w)
        assert exhaustive
        assert pairing == scan_best, (ctx, cand)
        raw, fam, mim, deps = _score_pairing(pairing, table, w)
        assert raw == searched == scan_key[0], (ctx, cand)
        expected = _ref_dependency_weights(pairing, ctx, cand)
        assert deps == [(ctx.dependencies[pos], weight) for pos, weight in sorted(expected.items())]
        assert fam == [
            _ref_fraction(dict(ctx.objects[c].fields), dict(cand.objects[k].fields))
            for c, k in pairing
        ]
        assert mim == [
            _ref_fraction(dict(ctx.objects[c].methods), dict(cand.objects[k].methods))
            for c, k in pairing
        ]


def test_identity_upper_bound_on_random_graphs():
    rng = random.Random(7)
    w = StructuralWeights()
    for _ in range(60):
        u = _random_graph(rng, max_objects=5)
        v = _random_graph(rng, max_objects=5)
        self_score = _score_via_module(u, u, w)
        cross_score = _score_via_module(u, v, w)
        assert self_score >= cross_score


def _members(names):
    return st.dictionaries(st.sampled_from(names), st.integers(1, 2)).map(
        lambda counts: tuple(sorted(counts.items()))
    )


@st.composite
def _graphs(draw, types, min_objects=0, max_objects=5):
    """Up to five objects (by default) over few types and members, so equal scores and
    objects of one class (equal type, fields and methods) are common; a
    type the other side lacks gives partnerless objects; edges may repeat
    endpoints and access points."""
    objects = tuple(
        GraphObject(
            draw(st.sampled_from(types)), i, f"v{i}", draw(_members("xy")), draw(_members("fg"))
        )
        for i in range(draw(st.integers(min_objects, max_objects)))
    )
    dependencies = ()
    if len(objects) > 1:
        ends = st.lists(st.integers(0, len(objects) - 1), min_size=2, max_size=2, unique=True)
        edge = st.builds(lambda e, ap: DependencyEdge(*e, ap), ends, st.sampled_from(("", "f", "g")))
        dependencies = tuple(draw(st.lists(edge, max_size=6)))
    return ApiUsageGraph(objects=objects, dependencies=dependencies)


def _exact_ref_scores(pairings, ctx, cand, w):
    """The raw score of each pairing as an exact rational: each fraction a
    ratio of the reference counts, each dependency weight and each weight
    the rational its float is."""

    def fraction(ctx_counts, cand_counts):
        total = sum(ctx_counts.values())
        hit = sum(min(c, cand_counts.get(name, 0)) for name, c in ctx_counts.items())
        return Fraction(hit, total) if total else Fraction(0)

    @functools.cache
    def unary(c, k):
        return (
            Fraction(w.object_match)
            + Fraction(w.field_match) * fraction(dict(ctx.objects[c].fields), dict(cand.objects[k].fields))
            + Fraction(w.method_match) * fraction(dict(ctx.objects[c].methods), dict(cand.objects[k].methods))
        )

    wd = Fraction(w.dependency_match)
    return [
        sum(itertools.starmap(unary, pairing), Fraction(0))
        + wd * sum(map(Fraction, _ref_dependency_weights(pairing, ctx, cand).values()), Fraction(0))
        for pairing in pairings
    ]


def _orders_agree(keys):
    """Whether two keys of each enumerated pairing order the pairings alike:
    sorted by the first, the second never falls, and it ties exactly where
    the first does."""
    ranked = sorted(keys)
    return all(
        (a[0] == b[0]) == (a[1] == b[1]) and a[1] <= b[1] for a, b in zip(ranked, ranked[1:])
    )


def _assert_first_exact_best(ctx, cand, w):
    """The search returns the first pairing of greatest (exact raw, size) in
    enumeration order, with :func:`_score_pairing`'s raw to the bit; where
    the float raw orders the pairings as the exact one does, that is also
    the first pairing of greatest (float raw, size)."""
    table = _pair_table(ctx, cand)
    pairing, raw, exhaustive = _best_pairing(table, w)
    assert exhaustive
    pairings = _enumerate_pairings(table)
    exact = list(zip(_exact_ref_scores(pairings, ctx, cand, w), map(len, pairings)))
    floats = [(_score_pairing(p, table, w)[0], len(p)) for p in pairings]
    assert pairing == pairings[exact.index(max(exact))]
    assert raw.hex() == float(_score_pairing(pairing, table, w)[0]).hex()
    if _orders_agree(list(zip(exact, floats))):
        assert pairing == pairings[floats.index(max(floats))]


@settings(max_examples=150, deadline=None)
@given(
    ctx=_graphs(("A", "B", "p.A", "C")),
    cand=_graphs(("A", "B", "q.A", "D")),
    w=st.sampled_from(_WEIGHTINGS),
)
def test_search_keeps_the_first_best_enumerated_pairing(ctx, cand, w):
    """The depth-first search returns exactly the pairing that ``max`` over
    the full enumeration returns, keyed by (exact raw, pairing size); five
    objects a side stay below the switch."""
    _assert_first_exact_best(ctx, cand, w)


@st.composite
def _copied_sides(draw, types):
    """A context and a candidate graph of six to eight objects each, every
    object a copy (equal type, fields and methods, its own ordinal and
    name) of one of two or three drawn objects, so most objects have
    interchangeable twins on both sides; up to four dependency edges a side
    make some twins endpoints and leave others free."""
    originals = [
        (draw(st.sampled_from(types)), draw(_members("xy")), draw(_members("fg")))
        for _ in range(draw(st.integers(2, 3)))
    ]
    sides = []
    for _side in range(2):
        drawn = draw(st.lists(st.sampled_from(originals), min_size=6, max_size=8))
        objects = tuple(GraphObject(t, i, f"v{i}", f, m) for i, (t, f, m) in enumerate(drawn))
        ends = st.lists(st.integers(0, len(objects) - 1), min_size=2, max_size=2, unique=True)
        edge = st.builds(lambda e, ap: DependencyEdge(*e, ap), ends, st.sampled_from(("", "f")))
        sides.append(ApiUsageGraph(objects=objects, dependencies=tuple(draw(st.lists(edge, max_size=4)))))
    return sides


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(sides=_copied_sides(("A", "B", "C", "p.A", "q.A")), w=st.sampled_from(_WEIGHTINGS))
def test_search_keeps_the_first_exact_best_among_copied_objects(sides, w):
    """With classes of several interchangeable objects, which the search
    visits in one order only, it still returns the first pairing of
    greatest (exact raw, size) of the full enumeration; tables past 5,000
    assignments are left out to keep the enumeration short."""
    ctx, cand = sides
    assume(_assignments(_pair_table(ctx, cand)) <= 5_000)
    _assert_first_exact_best(ctx, cand, w)


def _copy(graph):
    return ApiUsageGraph(objects=graph.objects, dependencies=graph.dependencies)


def _unit(graph):
    return PreparedUnit(texts=(), subtokens=Counter(), graph=graph, quality=None)


@settings(max_examples=100, deadline=None)
@given(
    ctx=_graphs(("A", "p.A", "q.A", "B", "p.B")),
    cands=st.lists(_graphs(("A", "p.A", "q.A", "B", "r.B")), min_size=2, max_size=5),
)
def test_one_context_side_serves_every_candidate(ctx, cands):
    """One context graph, whose side is built once and kept, scored against
    several candidates mixing qualified and simple type names: each table
    and report equals one built from fresh copies of both graphs, and the
    partners are the reference type rule's, with the reference fractions."""
    context = _unit(ctx)
    for cand in cands:
        table = _pair_table(ctx, cand)
        assert table == _pair_table(_copy(ctx), _copy(cand))
        for c, record in enumerate(table.partners):
            ctx_obj = ctx.objects[c]
            assert list(record) == [
                k for k, cand_obj in enumerate(cand.objects) if _ref_types_match(ctx_obj, cand_obj)
            ]
            for k, (ff, mf, _fs, _ms) in record.items():
                assert ff == _ref_fraction(dict(ctx_obj.fields), dict(cand.objects[k].fields))
                assert mf == _ref_fraction(dict(ctx_obj.methods), dict(cand.objects[k].methods))
        report = structural_score(context, _unit(cand))
        assert report.to_dict() == structural_score(_unit(_copy(ctx)), _unit(_copy(cand))).to_dict()
    assert "access" in vars(ctx)
    assert not any("access" in vars(cand) for cand in cands)


@settings(max_examples=150, deadline=None)
@given(ctx=_graphs(("A", "B", "p.A")), cand=_graphs(("A", "B", "q.A")))
def test_dependency_groups_sum_to_the_dependency_total(ctx, cand):
    """For every pairing, the per-group terms the search adds up, each
    twice a group's total as a whole number, are twice the reference
    two-pass total over the whole graph, and half of them is the same
    float."""
    table = _pair_table(ctx, cand)
    groups = _dependency_groups(table)
    for pairing in _enumerate_pairings(table):
        paired = dict(pairing)
        halves = 0
        for c, p, terms in groups:
            assert all(isinstance(term, int) for term in terms.values())
            halves += terms.get((paired.get(c), paired.get(p)), 0)
        assert halves / 2 == _ref_dependency_total(pairing, ctx, cand), pairing


def test_equal_raw_goes_to_the_larger_pairing_past_a_pruned_subtree():
    """With every weight zero each pairing scores 0.0, so the pairing size
    decides; the first leaf pairs a1 with c1 and starves a2, and only a
    later subtree of equal raw holds the pairing of both."""
    ctx = ApiUsageGraph(
        objects=(GraphObject("A", 0, "a1", (), ()), GraphObject("p.A", 0, "a2", (), ())),
        dependencies=(),
    )
    cand = ApiUsageGraph(
        objects=(GraphObject("A", 0, "c1", (), ()), GraphObject("q.A", 0, "c2", (), ())),
        dependencies=(),
    )
    pairing, _raw, exhaustive = _best_pairing(_pair_table(ctx, cand), StructuralWeights(0, 0, 0, 0))
    assert exhaustive
    assert pairing == [(0, 1), (1, 0)]


def test_structural_score_scores_one_pairing(listing2, monkeypatch):
    """The search keys its leaves from running sums and the report takes the
    best key as its raw, so no shipped code scores a pairing in full; the
    report derives its dependency detail once, when it is first read."""
    derived = []

    def derive_spy(pairings, context, candidate):
        derived.append(tuple(pairings))
        return _dependency_matches(pairings, context, candidate)

    assert not hasattr(structural, "_score_pairing")
    monkeypatch.setattr(structural, "_dependency_matches", derive_spy)
    report = structural_score(prepare(listing2), prepare(listing2))
    assert report.exhaustive
    assert derived == []
    for _ in range(2):
        assert report.to_dict()["dependency_total"] == report.dependency_total
    assert derived == [report.pairings]
    assert report.matched_objects == len(listing2.objects) > 2


def _per_object_partners(ctx, cand):
    """Partner records built object by object from both graphs, each
    fraction as the part of the context object's accesses covered, and each
    scaled overlap as that fraction times the least common multiple of the
    context objects' access totals."""
    totals = [sum(dict(members).values()) for o in ctx.objects for members in (o.fields, o.methods)]
    scale = math.lcm(*filter(None, totals))
    records = []
    for c_obj in ctx.objects:
        record = {}
        for k, k_obj in enumerate(cand.objects):
            if _ref_types_match(c_obj, k_obj):
                fields, methods = dict(c_obj.fields), dict(c_obj.methods)
                k_fields, k_methods = dict(k_obj.fields), dict(k_obj.methods)
                fm = sum(min(n, k_fields.get(name, 0)) for name, n in fields.items())
                mm = sum(min(n, k_methods.get(name, 0)) for name, n in methods.items())
                ft, mt = sum(fields.values()), sum(methods.values())
                record[k] = (
                    fm / ft if ft else 0.0, mm / mt if mt else 0.0,
                    int(Fraction(fm, ft or 1) * scale), int(Fraction(mm, mt or 1) * scale),
                )
        records.append(record)
    return tuple(records)


@st.composite
def _graphs_with_repeats(draw, types):
    """A :func:`_graphs` graph plus copies of some of its objects under new
    ordinals and names, so that most classes have several objects."""
    graph = draw(_graphs(types))
    objects = list(graph.objects)
    if objects:
        for i in draw(st.lists(st.integers(0, len(objects) - 1), max_size=4)):
            o = objects[i]
            objects.append(GraphObject(o.type_name, len(objects), f"w{len(objects)}", o.fields, o.methods))
    return ApiUsageGraph(objects=tuple(objects), dependencies=graph.dependencies)


@settings(max_examples=150, deadline=None)
@given(ctx=_graphs_with_repeats(("A", "B", "p.A")), cand=_graphs(("A", "B", "q.A")))
def test_class_shared_records_equal_per_object_records(ctx, cand):
    """One record per class of equal type name, fields and methods, shared
    by its objects, equals the record built for each object on its own."""
    table = _pair_table(ctx, cand)
    assert table.partners == _per_object_partners(ctx, cand)
    views, class_of = ctx.access_classes
    assert len(class_of) == len(ctx.objects)
    for c, o in enumerate(ctx.objects):
        first = class_of.index(class_of[c])
        same = (o.type_name, o.fields, o.methods) == (
            ctx.objects[first].type_name, ctx.objects[first].fields, ctx.objects[first].methods
        )
        assert same
        assert table.partners[c] is table.partners[first]
        assert views[class_of[c]] == ctx.access[first]
    assert len(views) == len({(o.type_name, o.fields, o.methods) for o in ctx.objects})


# six to eight objects of one type a side span at least 7**6 assignments
_LARGE = _graphs(("A",), min_objects=6, max_objects=8)


@settings(max_examples=150, deadline=None)
@given(
    sides=st.one_of(st.tuples(_graphs(("A", "B")), _graphs(("A", "B"))), st.tuples(_LARGE, _LARGE)),
    w=st.sampled_from(_WEIGHTINGS),
)
def test_report_raw_is_the_search_key(sides, w):
    """For small and large tables alike, the raw the report takes from the
    search is the very float a full scoring of the chosen pairing returns,
    and the dependency matches the report derives when read are that
    scoring's; the report holds no pair table."""
    ctx, cand = sides
    table = _pair_table(ctx, cand)
    pairing, raw, exhaustive = _best_pairing(table, w)
    full, fam, mim, deps = _score_pairing(pairing, table, w)
    assert raw.hex() == float(full).hex()
    report = structural_score(_unit(ctx), _unit(cand), w)
    assert report.raw.hex() == raw.hex()
    assert report.exhaustive is exhaustive
    assert report.pairings == tuple(pairing)
    assert (report.field_fractions, report.method_fractions) == (tuple(fam), tuple(mim))
    assert not any(isinstance(value, _PairTable) for value in vars(report).values())
    assert report.dependency_matches == tuple(deps)


def _two_objects(*access_points):
    return ApiUsageGraph(
        objects=(GraphObject("A", 0, "a", (), ()), GraphObject("B", 0, "b", (), ())),
        dependencies=tuple(DependencyEdge(1, 0, point) for point in access_points),
    )


@settings(max_examples=150, deadline=None)
@given(
    ctx=_graphs(("A", "B")),
    cands=st.lists(_graphs(("A", "B")), min_size=2, max_size=2),
    relabel=st.booleans(),
)
# one exact match against two half matches: equal pairings, fractions and
# raw, but other dependency matches
@example(ctx=_two_objects("f", "g"), cands=[_two_objects("f"), _two_objects("x", "y")], relabel=False)
def test_reports_compare_by_their_scores_not_their_labels(ctx, cands, relabel):
    """Two reports are equal exactly when their pairings, fractions,
    dependency matches, raw and exhaustive flag are; labels are not
    compared, so a candidate renumbered under new ordinals scores equal."""
    first, second = (structural_score(_unit(ctx), _unit(cand)) for cand in cands)

    def compared(report):
        return (
            report.pairings, report.field_fractions, report.method_fractions,
            report.dependency_matches, report.raw, report.exhaustive,
        )

    assert (first == second) is (compared(first) == compared(second))
    if first == second:
        assert hash(first) == hash(second)

    def renamed(graph):
        return ApiUsageGraph(
            objects=tuple(
                GraphObject(o.type_name, o.ordinal + 7 * relabel, "r", o.fields, o.methods)
                for o in graph.objects
            ),
            dependencies=graph.dependencies,
        )

    again = structural_score(_unit(renamed(ctx)), _unit(renamed(cands[0])))
    assert again == first and hash(again) == hash(first)
    if relabel:
        assert again.context_labels != first.context_labels or not ctx.objects
        assert again.candidate_labels != first.candidate_labels or not cands[0].objects


def _searched_within(monkeypatch, nodes, table, w):
    """The pairing search's result with its node budget set to ``nodes``:
    it reads ``exhaustive`` exactly when the search needed at most that many
    nodes that pass its prune test."""
    monkeypatch.setattr(structural, "_MAX_NODES", nodes)
    try:
        return _best_pairing(table, w)
    finally:
        monkeypatch.undo()


def _nodes_needed(monkeypatch, table, w):
    """The least node budget within which the search ends."""
    low, high = 0, 1
    while not _searched_within(monkeypatch, high, table, w)[2]:
        low, high = high + 1, 2 * high
    while low < high:
        middle = (low + high) // 2
        if _searched_within(monkeypatch, middle, table, w)[2]:
            high = middle
        else:
            low = middle + 1
    return low


def _canonical_nodes(ctx, cand):
    """The nodes of the search tree the two class rules leave, pruning
    aside, for graphs without dependency edges: at each context object with
    a partner, one child per candidate it may take, then one leaving it
    unpaired. An object takes only candidates after the partner of the last
    earlier object of its class, and none if that one stayed unpaired; of
    equal candidate objects it is offered only the first unused one."""
    assert not ctx.dependencies and not cand.dependencies
    table = _pair_table(ctx, cand)
    visits = [c for c, record in enumerate(table.partners) if record]

    def same(graph, a, b):
        x, y = graph.objects[a], graph.objects[b]
        return (x.type_name, x.fields, x.methods) == (y.type_name, y.fields, y.methods)

    def walk(d, partner, used):
        if d == len(visits):
            return 1
        c = visits[d]
        twins = [e for e in visits[:d] if same(ctx, e, c)]
        low = partner[twins[-1]] if twins else -1
        nodes = 1 + walk(d + 1, {**partner, c: None}, used)
        if low is not None:
            for k in table.partners[c]:
                first_unused = all(j in used for j in range(k) if same(cand, j, k))
                if k > low and k not in used and first_unused:
                    nodes += walk(d + 1, {**partner, c: k}, used | {k})
        return nodes

    return walk(0, {}, frozenset())


def _one_class_against(objects, covered):
    """``objects`` context objects of one class, each calling f, g and h,
    against one candidate of their type per entry of ``covered``, which
    names the methods that candidate calls."""
    methods = (("f", 1), ("g", 1), ("h", 1))
    ctx = ApiUsageGraph(
        objects=tuple(GraphObject("A", i, f"a{i}", (), methods) for i in range(objects)),
        dependencies=(),
    )
    cand = ApiUsageGraph(
        objects=tuple(
            GraphObject("A", i, f"c{i}", (), tuple((m, 1) for m in names))
            for i, names in enumerate(covered)
        ),
        dependencies=(),
    )
    return ctx, cand


def _two_classes_against_twins(first, second, twins):
    """``first`` context objects calling f, then ``second`` calling f, g and
    h, all of one type, against ``twins`` equal candidates calling f and g:
    the two classes compete for the same candidates."""
    ctx = ApiUsageGraph(
        objects=tuple(
            GraphObject("A", i, f"a{i}", (), (("f", 1),) if i < first else (("f", 1), ("g", 1), ("h", 1)))
            for i in range(first + second)
        ),
        dependencies=(),
    )
    return ctx, _one_class_against(0, [("f", "g")] * twins)[1]


# every subset of the three methods, from none to all
_COVERED = ((), ("f",), ("g",), ("f", "g"), ("h",), ("f", "h"), ("g", "h"), ("f", "g", "h"))


@pytest.mark.parametrize(
    "sides, space, canonical, needed",
    [
        (_one_class_against(4, _COVERED), 6_561, 303, 59),
        (_one_class_against(8, (("f",), ("g",))), 6_561, 32, 9),
        (_two_classes_against_twins(4, 4, 5), 6**8, 75, 17),
    ],
    ids=["4-against-8", "8-against-2", "two-classes"],
)
def test_search_visits_one_ordering_of_a_class(sides, space, canonical, needed, monkeypatch):
    """The search enters only canonical prefixes: at depth d, the first j
    objects of a class paired with increasing candidates and the rest
    unpaired. The first two tables span 9**4 = 3**8 = 6,561 assignments,
    of which the canonical tree keeps the sum over d <= objects and
    j <= min(d, k) of C(k, j) nodes for k candidates (303 and 32); with its
    budget at the canonical count the search still ends within it. Pruning
    keeps it far below: with the default weights it needs at most the
    counts given (59, 9 and 17). A search that tries other orderings of a
    class (96 on the first table, 20 on the third), lets an object pair
    after an unpaired twin (20 on the third) or orders each object after
    the first of its class instead of the last (71 and 20) needs more, and
    so does one whose bound for leaving an object unpaired still counts
    its later twins (14 on the second, 26 on the third)."""
    ctx, cand = sides
    table = _pair_table(ctx, cand)
    assert _assignments(table) == space
    assert _canonical_nodes(ctx, cand) == canonical
    for w in _WEIGHTINGS:
        _pairing, _raw, exhaustive = _searched_within(monkeypatch, canonical, table, w)
        assert exhaustive, w
        _assert_first_exact_best(ctx, cand, w)
    assert _nodes_needed(monkeypatch, table, StructuralWeights()) <= needed


def _distinct_against_twins(objects, twins):
    """``objects`` context objects of one type, each of its own class (they
    call different subsets of f, g and h), against ``twins`` equal
    candidates calling f and g."""
    ctx = ApiUsageGraph(
        objects=tuple(
            GraphObject("A", i, f"a{i}", (), tuple((m, 1) for m in _COVERED[-1 - i]))
            for i in range(objects)
        ),
        dependencies=(),
    )
    return ctx, _one_class_against(0, [("f", "g")] * twins)[1]


@pytest.mark.parametrize(
    "sides, canonical",
    [
        (_one_class_against(6, [("f", "g")] * 4), 25),
        (_one_class_against(4, [("f", "g")] * 6), 15),
        (_distinct_against_twins(6, 4), 119),
        (_distinct_against_twins(8, 4), 381),
    ],
    ids=["one-class-6-against-4", "one-class-4-against-6", "distinct-6-against-4", "distinct-8-against-4"],
)
def test_search_takes_the_first_unused_of_twin_candidates(sides, canonical, monkeypatch):
    """Against equal candidates the search offers an object only the first
    unused one, so at depth d the paired objects hold the first twins. One
    context class of m objects against k twins keeps one node per
    (d, j <= min(d, k)); m objects of their own classes keep, per depth d,
    one node per set of at most k paired objects. With its budget at that
    canonical count the search ends within it, and returns the first exact
    best pairing; a search that offers every unused twin needs 244 and 823
    nodes or more on the last two tables, past their counts."""
    ctx, cand = sides
    table = _pair_table(ctx, cand)
    assert _canonical_nodes(ctx, cand) == canonical
    m, k = len(ctx.objects), len(cand.objects)
    if len({o.methods for o in ctx.objects}) == 1:
        assert canonical == sum(min(d, k) + 1 for d in range(m + 1))
    else:
        assert canonical == sum(math.comb(d, j) for d in range(m + 1) for j in range(min(d, k) + 1))
    for w in _WEIGHTINGS:
        pairing, _raw, exhaustive = _searched_within(monkeypatch, canonical, table, w)
        assert exhaustive, w
        if len({o.methods for o in ctx.objects}) == 1:
            assert pairing == [(i, i) for i in range(min(m, k))]
        _assert_first_exact_best(ctx, cand, w)


@pytest.mark.parametrize("nodes", [0, 1, 5, 40, 400])
def test_a_search_past_its_budget_keeps_a_valid_pairing(nodes, monkeypatch):
    """With a node budget far below what the table needs, the report reads
    ``exhaustive: false`` and holds the best pairing found so far: injective,
    type-compatible, with :func:`_score_pairing`'s raw to the bit. The table
    (eight objects a side, with dependency edges) needs 1,656 nodes."""
    rng = random.Random(3009)
    ctx = _random_graph(rng, max_objects=8, types=("A", "B"), max_deps=6)
    cand = _random_graph(rng, max_objects=8, types=("A", "B"), max_deps=6)
    monkeypatch.setattr(structural, "_MAX_NODES", nodes)
    report = structural_score(_unit(ctx), _unit(cand))
    assert report.exhaustive is False
    assert report.to_dict()["exhaustive"] is False
    table = _pair_table(ctx, cand)
    contexts = [c for c, _k in report.pairings]
    partners = [k for _c, k in report.pairings]
    assert contexts == sorted(set(contexts)) and len(set(partners)) == len(partners)
    assert all(k in table.partners[c] for c, k in report.pairings)
    raw, *_rest = _score_pairing(list(report.pairings), table, StructuralWeights())
    assert report.raw.hex() == float(raw).hex()


def _chain(n, access_point):
    """n objects of one type and one class, each fed by the one before."""
    return ApiUsageGraph(
        objects=tuple(GraphObject("A", i, f"a{i}", (), (("f", 1),)) for i in range(n)),
        dependencies=tuple(DependencyEdge(i, i - 1, access_point) for i in range(1, n)),
    )


def test_1200_objects_a_side_score_without_recursion():
    """A search 1,200 objects deep runs as a loop, not as recursion, so a
    table far deeper than the recursion limit still scores exhaustively."""
    twins = _one_class_against(1200, [("f", "g")] * 1200)
    report = structural_score(_unit(twins[0]), _unit(twins[1]))
    assert report.exhaustive and report.pairings == tuple((i, i) for i in range(1200))


def test_a_chain_against_a_chain_with_other_access_points():
    """Every object is compatible with every candidate and every group has a
    term for every candidate edge, but the identity pairing meets the bound
    (each edge at half weight), so the search ends at once after it."""
    report = structural_score(_unit(_chain(200, "f")), _unit(_chain(200, "g")))
    assert report.exhaustive
    assert report.pairings == tuple((i, i) for i in range(200))
    assert report.dependency_total == 199 * 0.5


def test_the_totals_add_their_fractions_in_order():
    """Ten fractions of 0.1 added one by one make 0.9999999999999999, where
    a compensated sum (``sum`` from Python 3.12 on) makes 1.0; the printed
    totals are the in-order ones on every version."""
    graph = _chain(10, "f")
    report = structural.MatchReport(
        pairings=tuple((i, i) for i in range(10)), field_fractions=(0.1,) * 10,
        method_fractions=(0.1,) * 10, raw=0.0, exhaustive=True, context=graph, candidate=graph,
    )
    assert report.field_total == report.method_total == 0.9999999999999999
    assert report.to_dict()["field_total"] == 0.9999999999999999


def test_a_1200_chain_against_other_access_points_holds_one_terms_dict():
    """Every context group of the chain has the same two partner records and
    access points, so all share one terms dict of the 1,199 candidate
    edges: the call's peak stays far below the 44 MiB that a dict per
    group, 1,199 of them each of 1,199 terms, reached."""
    context, candidate = _unit(_chain(1200, "f")), _unit(_chain(1200, "g"))
    groups = _dependency_groups(_pair_table(context.graph, candidate.graph))
    assert len(groups) == 1199 and len({id(terms) for _c, _p, terms in groups}) == 1
    assert len(groups[0][2]) == 1199
    tracemalloc.start()
    try:
        report = structural_score(context, candidate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert report.exhaustive and report.pairings == tuple((i, i) for i in range(1200))
    assert report.dependency_total == 1199 * 0.5


def test_a_dependency_endpoint_is_not_held_to_its_class_order():
    """a1 and a2 are one class, but only a2 feeds b; the candidate's edge
    runs from d to c1, so the best pairing gives c1 to a2 and c2 to a1,
    against the candidate order of their class."""
    ctx = ApiUsageGraph(
        objects=(
            GraphObject("A", 0, "a1", (), (("f", 1),)),
            GraphObject("A", 1, "a2", (), (("f", 1),)),
            GraphObject("B", 0, "b", (), ()),
        ),
        dependencies=(DependencyEdge(2, 1, "f"),),
    )
    cand = ApiUsageGraph(
        objects=(
            GraphObject("A", 0, "c1", (), (("f", 1),)),
            GraphObject("A", 1, "c2", (), (("f", 1),)),
            GraphObject("B", 0, "d", (), ()),
        ),
        dependencies=(DependencyEdge(2, 0, "f"),),
    )
    for w in _WEIGHTINGS:
        pairing, _raw, exhaustive = _best_pairing(_pair_table(ctx, cand), w)
        assert exhaustive
        if w.dependency_match:
            assert pairing == [(0, 1), (1, 0), (2, 2)], w
        _assert_first_exact_best(ctx, cand, w)


def test_leaving_an_object_unpaired_frees_no_endpoint_twin_from_the_bound():
    """a1, a2 and a3 are one class, and only a3 feeds b. One candidate of
    their type, c1, feeds d, so the best pairing leaves a1 and a2 unpaired
    and gives c1 to a3. When a1 is left unpaired the class order keeps a2
    unpaired too, but not a3, so the bound of that subtree still counts a3;
    a bound that took a3 off as well would prune the best pairing."""
    ctx = ApiUsageGraph(
        objects=(
            GraphObject("A", 0, "a1", (), (("f", 1),)),
            GraphObject("A", 1, "a2", (), (("f", 1),)),
            GraphObject("A", 2, "a3", (), (("f", 1),)),
            GraphObject("B", 0, "b", (), ()),
        ),
        dependencies=(DependencyEdge(3, 2, "f"),),
    )
    cand = ApiUsageGraph(
        objects=(GraphObject("A", 0, "c1", (), (("f", 1),)), GraphObject("B", 0, "d", (), ())),
        dependencies=(DependencyEdge(1, 0, "f"),),
    )
    for w in _WEIGHTINGS:
        pairing, _raw, exhaustive = _best_pairing(_pair_table(ctx, cand), w)
        assert exhaustive
        if w.dependency_match:
            assert pairing == [(2, 0), (3, 1)], w
        _assert_first_exact_best(ctx, cand, w)


def test_an_exact_tie_goes_to_the_first_pairing_whatever_the_rounding():
    """c1 covers two of the context object's three field accesses and two of
    its six method calls, c2 all three fields and no call: both pairings
    score exactly 2, but in floats 1 + 2/3 + 1/3 rounds to
    1.9999999999999998. The exact key ties them, so the first, c1, wins,
    and the report's raw is its float."""
    ctx = ApiUsageGraph(
        objects=(GraphObject("A", 0, "a", (("x", 1), ("y", 2)), (("f", 2), ("g", 2), ("h", 2))),),
        dependencies=(),
    )
    cand = ApiUsageGraph(
        objects=(
            GraphObject("A", 0, "c1", (("x", 1), ("y", 1)), (("f", 1), ("g", 1))),
            GraphObject("A", 1, "c2", (("x", 1), ("y", 2)), ()),
        ),
        dependencies=(),
    )
    report = structural_score(_unit(ctx), _unit(cand))
    assert report.pairings == ((0, 0),)
    assert report.raw == 1 + 2 / 3 + 1 / 3 == 1.9999999999999998
    assert _exact_ref_scores([[(0, 0)], [(0, 1)]], ctx, cand, StructuralWeights()) == [2, 2]
    _assert_first_exact_best(ctx, cand, StructuralWeights())


_EXTREME_WEIGHTS = (0, 5e-324, 0.1, 1e6)


def _weights_with(position, value):
    weights = [1.0] * 4
    weights[position] = value
    return StructuralWeights(*weights)


@pytest.mark.parametrize("value", _EXTREME_WEIGHTS)
@pytest.mark.parametrize("position", range(4))
def test_extreme_weights_keep_the_exact_pairing_and_the_float_raw(position, value):
    """At the edges of what the weight check admits, on each sub-weight,
    the report holds the exact oracle's pairing and the raw
    :func:`_score_pairing` gives it. A subnormal weight's ratio has a
    denominator of 2**1074, which the key carries exactly."""
    w = _weights_with(position, value)
    rng = random.Random(20261020 + position)
    graphs = [
        (_random_graph(rng, max_objects=5, types=["A", "B"], max_deps=5),
         _random_graph(rng, max_objects=5, types=["A", "B"], max_deps=5))
        for _ in range(25)
    ]
    graphs.append(_one_class_against(4, _COVERED))
    for ctx, cand in graphs:
        table = _pair_table(ctx, cand)
        pairings = _enumerate_pairings(table)
        exact = list(zip(_exact_ref_scores(pairings, ctx, cand, w), map(len, pairings)))
        expected = pairings[exact.index(max(exact))]
        report = structural_score(_unit(ctx), _unit(cand), w)
        assert report.exhaustive
        assert list(report.pairings) == expected, (ctx, cand)
        assert report.raw.hex() == float(_score_pairing(expected, table, w)[0]).hex()
