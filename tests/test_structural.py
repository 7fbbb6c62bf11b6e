"""Structural scoring tests, backed by an independent brute-force scorer
that enumerates every injective type-compatible pairing from scratch."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catchrec import extract_usage_graph, parse, prepare, structural, structural_score
from catchrec.errors import StructureUnavailable
from catchrec.graph import ApiUsageGraph, DependencyEdge, GraphObject
from catchrec.structural import (
    StructuralWeights,
    _best_pairing,
    _dependency_groups,
    _greedy_pairing,
    _pair_table,
    _score_pairing,
)


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
    fam = sum(
        _ref_fraction(dict(ctx.objects[c].fields), dict(cand.objects[k].fields))
        for c, k in pairing
    )
    mim = sum(
        _ref_fraction(dict(ctx.objects[c].methods), dict(cand.objects[k].methods))
        for c, k in pairing
    )
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
    pairing, exhaustive = _best_pairing(table, w)
    assert exhaustive
    raw, _f, _m, _d = _score_pairing(pairing, table, w)
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
        pairing, exhaustive = _best_pairing(table, w)
        assert exhaustive
        assert pairing == scan_best, (ctx, cand)
        raw, fam, mim, deps = _score_pairing(pairing, table, w)
        assert raw == scan_key[0], (ctx, cand)
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


def test_greedy_divergence_is_visible_not_silent():
    """The greedy fallback can pick a worse pairing than enumeration; when it
    does, the exhaustive flag is the tell. This constructs such a case."""
    ctx = ApiUsageGraph(
        objects=(
            GraphObject("A", 0, "a1", (), (("f", 1),)),
            GraphObject("A", 1, "a2", (), (("f", 1), ("g", 1))),
        ),
        dependencies=(),
    )
    cand = ApiUsageGraph(
        objects=(
            GraphObject("A", 0, "c1", (), (("f", 1), ("g", 1))),
            GraphObject("A", 1, "c2", (), (("f", 1),)),
        ),
        dependencies=(),
    )
    w = StructuralWeights()
    table = _pair_table(ctx, cand)
    greedy = _greedy_pairing(table)
    greedy_raw, *_rest = _score_pairing(greedy, table, w)
    best_raw = _score_via_module(ctx, cand, w)
    assert greedy_raw < best_raw  # a1 grabs c1 greedily, starving a2


def _same_type_objects(n):
    return prepare(parse(" ".join(f"A a{i} = new A(); a{i}.f{i % 2}();" for i in range(n))))


@pytest.mark.parametrize("n, exhaustive", [(5, False), (4, True)])
def test_exhaustive_flag_tells_the_greedy_fallback(n, exhaustive):
    """n context objects of one type against 8 candidates span 9**n
    assignments: 9**5 = 59,049 is past the switch, 9**4 = 6,561 is not."""
    ctx, cand = _same_type_objects(n), _same_type_objects(8)
    report = structural_score(ctx, cand)
    assert report.exhaustive is exhaustive
    assert report.to_dict()["exhaustive"] is exhaustive
    if not exhaustive:
        greedy = _greedy_pairing(_pair_table(ctx.graph, cand.graph))
        assert report.pairings == tuple(greedy)


def _members(names):
    return st.dictionaries(st.sampled_from(names), st.integers(1, 2)).map(
        lambda counts: tuple(sorted(counts.items()))
    )


@st.composite
def _graphs(draw, types):
    """Up to five objects over few types and members, so equal scores are
    common; a type the other side lacks gives partnerless objects; edges
    may repeat endpoints and access points."""
    objects = tuple(
        GraphObject(
            draw(st.sampled_from(types)), i, f"v{i}", draw(_members("xy")), draw(_members("fg"))
        )
        for i in range(draw(st.integers(0, 5)))
    )
    dependencies = ()
    if len(objects) > 1:
        ends = st.lists(st.integers(0, len(objects) - 1), min_size=2, max_size=2, unique=True)
        edge = st.builds(lambda e, ap: DependencyEdge(*e, ap), ends, st.sampled_from(("", "f", "g")))
        dependencies = tuple(draw(st.lists(edge, max_size=6)))
    return ApiUsageGraph(objects=objects, dependencies=dependencies)


@settings(max_examples=150, deadline=None)
@given(
    ctx=_graphs(("A", "B", "p.A", "C")),
    cand=_graphs(("A", "B", "q.A", "D")),
    w=st.sampled_from(_WEIGHTINGS),
)
def test_search_keeps_the_first_best_enumerated_pairing(ctx, cand, w):
    """The depth-first search returns exactly the pairing that ``max`` over
    the full enumeration returns, keyed by (raw, pairing size)."""
    table = _pair_table(ctx, cand)
    pairing, exhaustive = _best_pairing(table, w)
    assert exhaustive  # five objects a side stay below the switch
    assert pairing == max(
        _enumerate_pairings(table), key=lambda p: (_score_pairing(p, table, w)[0], len(p))
    )


@settings(max_examples=150, deadline=None)
@given(ctx=_graphs(("A", "B", "p.A")), cand=_graphs(("A", "B", "q.A")))
def test_dependency_groups_sum_to_the_dependency_total(ctx, cand):
    """For every pairing, the per-group terms the search adds up equal the
    reference two-pass total over the whole graph, as the same float."""
    table = _pair_table(ctx, cand)
    groups = _dependency_groups(table)
    for pairing in _enumerate_pairings(table):
        paired = dict(pairing)
        by_groups = 0.0
        for c, p, terms in groups:
            by_groups += terms.get((paired.get(c), paired.get(p)), 0.0)
        assert by_groups == _ref_dependency_total(pairing, ctx, cand), pairing


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
    pairing, exhaustive = _best_pairing(_pair_table(ctx, cand), StructuralWeights(0, 0, 0, 0))
    assert exhaustive
    assert pairing == [(0, 1), (1, 0)]


def test_structural_score_scores_one_pairing(listing2, monkeypatch):
    """The search keys its leaves from running sums; the full scoring runs
    once, for the report."""
    calls = []

    def spy(pairings, table, weights):
        calls.append(list(pairings))
        return _score_pairing(pairings, table, weights)

    monkeypatch.setattr(structural, "_score_pairing", spy)
    report = structural_score(prepare(listing2), prepare(listing2))
    assert calls == [list(report.pairings)]
    assert report.matched_objects == len(listing2.objects) > 2


def test_greedy_picks_the_earlier_of_equal_overlaps():
    ctx = ApiUsageGraph(
        objects=(
            GraphObject("A", 0, "a1", (), (("f", 1), ("g", 1))),
            GraphObject("A", 1, "a2", (), (("f", 1),)),
        ),
        dependencies=(),
    )
    cand = ApiUsageGraph(
        objects=(
            GraphObject("A", 0, "c1", (), (("f", 1),)),
            GraphObject("A", 1, "c2", (), (("f", 1), ("g", 1))),
            GraphObject("A", 2, "c3", (), (("g", 1), ("f", 1))),
            GraphObject("A", 3, "c4", (), (("f", 1),)),
        ),
        dependencies=(),
    )
    # a1 ties c2 and c3 at two and takes c2; a2 ties c1, c3 and c4 at one
    assert _greedy_pairing(_pair_table(ctx, cand)) == [(0, 1), (1, 0)]
