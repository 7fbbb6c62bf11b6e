import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catchrec import (
    LexicalWeights,
    QualityWeights,
    StructuralWeights,
    WeightConfig,
    load_weights,
    parse,
    rank,
)
from catchrec.corpus import Candidate, LocalOrigin
from catchrec.errors import ConfigError, EmptyPool
from catchrec.model import MAX_WEIGHT
from catchrec.ranking import (
    RawComponents,
    TopLevelWeights,
    explain,
    fuse,
    normalize_pool,
)


def test_normalize_linear_map():
    assert normalize_pool([1.0, 3.0, 5.0]) == [0.0, 0.5, 1.0]


def test_normalize_degenerate_pool():
    assert normalize_pool([2.0, 2.0, 2.0]) == [0.5, 0.5, 0.5]


def test_normalize_endpoints():
    assert normalize_pool([0.0, 10.0]) == [0.0, 1.0]


def test_normalize_empty_pool():
    with pytest.raises(EmptyPool):
        normalize_pool([])
    with pytest.raises(EmptyPool):
        fuse([], TopLevelWeights())


def _raws(values, ids=None):
    ids = ids or [f"c{i}" for i in range(len(values))]
    return [
        RawComponents(cid, s, l, q)
        for cid, (s, l, q) in zip(ids, values)
    ]


def test_fuse_hand_computed_three_candidates():
    # structural raws: 4, 2, 0 -> norms 1, .5, 0
    # lexical raws:    1, 1, 0 -> norms 1, 1, 0
    # quality raws:    0, 3, 6 -> norms 0, .5, 1
    raws = _raws([(4, 1, 0), (2, 1, 3), (0, 0, 6)])
    weights = TopLevelWeights(structural=2.0, lexical=1.0, quality=0.5)
    ranked = {b.candidate_id: b for b in fuse(raws, weights)}
    assert ranked["c0"].total == pytest.approx(2 * 1 + 1 * 1 + 0.5 * 0)
    assert ranked["c1"].total == pytest.approx(2 * 0.5 + 1 * 1 + 0.5 * 0.5)
    assert ranked["c2"].total == pytest.approx(2 * 0 + 1 * 0 + 0.5 * 1)
    assert [b.candidate_id for b in sorted(ranked.values(), key=lambda b: b.rank)] == [
        "c0", "c1", "c2",
    ]


def test_ranks_form_permutation():
    raws = _raws([(1, 2, 3), (3, 2, 1), (2, 2, 2), (0, 0, 0)])
    ranked = fuse(raws, TopLevelWeights())
    assert sorted(b.rank for b in ranked) == [1, 2, 3, 4]


def test_ties_break_by_candidate_id():
    raws = _raws([(1, 1, 1), (1, 1, 1)], ids=["zulu", "alpha"])
    ranked = fuse(raws, TopLevelWeights())
    assert [b.candidate_id for b in ranked] == ["alpha", "zulu"]


def test_scaling_weights_preserves_permutation():
    rng = random.Random(99)
    for _ in range(25):
        raws = _raws(
            [
                (rng.uniform(0, 5), rng.uniform(0, 2), rng.uniform(0, 4))
                for _ in range(rng.randint(2, 8))
            ]
        )
        base = TopLevelWeights(1.3, 0.8, 1.1)
        scale = rng.uniform(0.01, 50)
        scaled = TopLevelWeights(1.3 * scale, 0.8 * scale, 1.1 * scale)
        assert [b.candidate_id for b in fuse(raws, base)] == [
            b.candidate_id for b in fuse(raws, scaled)
        ]


def test_monotonicity_in_raw_component():
    rng = random.Random(5)
    for _ in range(40):
        values = [
            [rng.uniform(0, 5), rng.uniform(0, 2), rng.uniform(0, 4)]
            for _ in range(4)
        ]
        target = rng.randrange(4)
        component = rng.randrange(3)
        column = [row[component] for row in values]
        if values[target][component] >= max(column):
            continue  # already at the pool max; normalization may not move
        before = {b.candidate_id: b.total for b in fuse(_raws(list(map(tuple, values))), TopLevelWeights())}
        values[target][component] += rng.uniform(0.01, 0.5)
        after = {b.candidate_id: b.total for b in fuse(_raws(list(map(tuple, values))), TopLevelWeights())}
        cid = f"c{target}"
        assert after[cid] >= before[cid] - 1e-12


def test_normalized_components_span_unit_interval():
    rng = random.Random(31)
    for _ in range(20):
        raws = _raws(
            [
                (rng.uniform(0, 5), rng.uniform(0, 2), rng.uniform(0, 4))
                for _ in range(rng.randint(2, 9))
            ]
        )
        ranked = fuse(raws, TopLevelWeights())
        for attr, raw_attr in (
            ("structural_norm", "structural_raw"),
            ("lexical_norm", "lexical_raw"),
            ("quality_norm", "quality_raw"),
        ):
            norms = [getattr(b, attr) for b in ranked]
            assert all(0.0 <= n <= 1.0 for n in norms)
            if len({getattr(b, raw_attr) for b in ranked}) > 1:
                assert min(norms) == 0.0 and max(norms) == 1.0


def test_identity_candidate_ranks_first(listing1):
    pool = [
        Candidate.from_origin(LocalOrigin("self.java"), listing1.raw_text),
        Candidate.from_origin(LocalOrigin("other.java"), "A a = new A(); a.go();"),
        Candidate.from_origin(LocalOrigin("third.java"), "int x = compute();"),
    ]
    top = rank(listing1, pool, k=3)
    by_id = {c.id: c.origin.path for c in pool}
    assert by_id[top[0].candidate_id] == "self.java"


def test_rank_pool_fixture(listing1, rank_pool, pool_names):
    ranked = rank(listing1, rank_pool, k=5)
    assert pool_names[ranked[0].candidate_id] == "listing2.java"
    assert len(ranked) == 5


def test_rank_k_truncates(listing1, rank_pool):
    assert len(rank(listing1, rank_pool, k=2)) == 2
    assert len(rank(listing1, rank_pool, k=50)) == len(rank_pool)


def test_rank_requires_candidates(listing1):
    with pytest.raises(EmptyPool):
        rank(listing1, [], k=5)
    with pytest.raises(ValueError):
        rank(listing1, [Candidate.from_origin(LocalOrigin("a"), "int x;")], k=0)


def test_failed_candidate_scored_with_zero_structure(listing1):
    pool = [
        Candidate.from_origin(LocalOrigin("broken.java"), "} catch (IOException e) {\n  url.retry();\n}"),
        Candidate.from_origin(LocalOrigin("fine.java"), "URL u = new URL(s); u.openConnection();"),
    ]
    ranked = rank(listing1, pool, k=2)
    by_path = {c.id: c.origin.path for c in pool}
    broken = next(b for b in ranked if by_path[b.candidate_id] == "broken.java")
    assert not broken.structure_available
    assert broken.structural_raw == 0.0
    assert broken.lexical_raw > 0.0  # tokens still score


def test_empty_and_failed_candidates_are_flagged(listing1):
    empty = Candidate.from_origin(LocalOrigin("empty.java"), "")
    broken = Candidate.from_origin(LocalOrigin("broken.java"), "} catch (IOException e) {}")
    ranked = {b.candidate_id: b for b in rank(listing1, [empty, broken], k=2)}
    assert not ranked[empty.id].quality_available
    assert ranked[empty.id].quality_raw == 0.0
    assert "quality component unavailable (no code lines); scored 0" in explain(ranked[empty.id])
    assert "structural component unavailable (parse failed); scored 0" in explain(ranked[broken.id])


def test_failed_context_zeroes_all_structural(rank_pool):
    broken_context = parse("} catch }")
    ranked = rank(broken_context, rank_pool, k=5)
    assert all(not b.structure_available for b in ranked)
    assert all(b.structural_raw == 0.0 for b in ranked)


def test_explain_mentions_all_nine_metrics(listing1, rank_pool):
    text = explain(rank(listing1, rank_pool, k=1)[0])
    for name in (
        "object_match", "field_match", "method_match", "dependency_match",
        "cosine", "clone_ratio", "readability", "handler_actions", "handler_ratio",
        "total",
    ):
        assert name in text


def test_breakdown_json_round_trip(listing1, rank_pool):
    breakdown = rank(listing1, rank_pool, k=1)[0]
    payload = breakdown.to_dict()
    assert json.loads(json.dumps(payload)) == payload


def test_rank_deterministic(listing1, rank_pool):
    first = [b.candidate_id for b in rank(listing1, rank_pool, k=5)]
    second = [b.candidate_id for b in rank(listing1, rank_pool, k=5)]
    assert first == second


# ---------------------------------------------------------------------------
# Weight config files
# ---------------------------------------------------------------------------


def test_default_top_level_weights():
    weights = TopLevelWeights()
    assert (weights.structural, weights.lexical, weights.quality) == (
        1.2787, 1.0152, 1.1588,
    )


def test_load_weights_round_trip(tmp_path):
    path = tmp_path / "weights.json"
    payload = {
        "alpha": 1.0, "beta": 2.0, "gamma": 0.5, "delta": 0.25,
        "lambda": 1.5, "sigma": 0.75,
        "mu": 1.0, "epsilon": 2.0, "kappa": 3.0,
        "w_str": 1.1, "w_lex": 0.9, "w_ehc": 1.3,
    }
    path.write_text(json.dumps(payload))
    assert load_weights(path) == WeightConfig(
        structural=StructuralWeights(
            object_match=1.0, field_match=2.0, method_match=0.5, dependency_match=0.25
        ),
        lexical=LexicalWeights(cosine=1.5, clone=0.75),
        quality=QualityWeights(readability=1.0, handler_actions=2.0, handler_ratio=3.0),
        top_level=TopLevelWeights(structural=1.1, lexical=0.9, quality=1.3),
    )


def test_partial_weight_file_keeps_defaults(tmp_path):
    path = tmp_path / "weights.json"
    path.write_text('{"w_str": 2.0}')
    config = load_weights(path)
    assert config.top_level.structural == 2.0
    assert config.top_level.lexical == 1.0152
    assert config.structural.object_match == 1.0


def test_unknown_weight_key_is_an_error(tmp_path):
    path = tmp_path / "weights.json"
    path.write_text('{"w_странный": 1.0}')
    with pytest.raises(ConfigError):
        load_weights(path)


def test_invalid_weight_values_rejected(tmp_path):
    path = tmp_path / "weights.json"
    path.write_text('{"w_str": -1.0}')
    with pytest.raises(ConfigError):
        load_weights(path)
    path.write_text('{"w_str": true}')
    with pytest.raises(ConfigError):
        load_weights(path)
    path.write_text("not json")
    with pytest.raises(ConfigError):
        load_weights(path)


@pytest.mark.parametrize(
    "text", ["[1]", '{"wstr": 1.0}', '{"w_str": "1"}', '{"w_str": -1.0}', "not json"]
)
def test_weight_config_errors_name_the_file(tmp_path, text):
    path = tmp_path / "weights.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as excinfo:
        load_weights(path)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize(
    "text",
    ['{"w_lex": NaN}', '{"alpha": Infinity}', '{"sigma": -Infinity}', '{"mu": 1e400}',
     '{"kappa": 1' + "0" * 400 + "}"],
)
def test_non_finite_weight_values_rejected(tmp_path, text):
    path = tmp_path / "weights.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="finite"):
        load_weights(path)


@pytest.mark.parametrize(
    "weights", [StructuralWeights, LexicalWeights, QualityWeights, TopLevelWeights]
)
@pytest.mark.parametrize(
    "value",
    [math.nan, math.inf, -math.inf, True, pytest.param("2", id="str-2"), None,
     pytest.param(10**400, id="10**400")],
)
def test_weight_dataclasses_reject_non_finite(weights, value):
    name = next(iter(weights.__dataclass_fields__))
    with pytest.raises(ValueError, match="finite"):
        weights(**{name: value})


@pytest.mark.parametrize(
    "weights", [StructuralWeights, LexicalWeights, QualityWeights, TopLevelWeights]
)
def test_weight_dataclasses_cap_weights_at_max_weight(weights):
    name = next(iter(weights.__dataclass_fields__))
    assert getattr(weights(**{name: MAX_WEIGHT}), name) == 1e6
    assert getattr(weights(**{name: 10**6}), name) == 1e6
    for value in (math.nextafter(MAX_WEIGHT, math.inf), 10**6 + 1, 1e308):
        with pytest.raises(ValueError, match="at most 1,000,000"):
            weights(**{name: value})


def _as_json(rows) -> str:
    return json.dumps([b.to_dict() for b in rows], sort_keys=True)


def _equivalence_pool(fixtures_dir, rank_pool):
    extra = [
        Candidate.from_origin(LocalOrigin(path.name), path.read_text())
        for path in sorted((fixtures_dir / "corpus-listing2").glob("*.java"))
    ]
    return list(rank_pool) + extra


_BROKEN_CONTEXT = "} catch (IOException e) { in.close(); }"
_DIGEST_CONFIGS = {
    "default": WeightConfig(),
    "custom": WeightConfig(
        structural=StructuralWeights(1.25, 0.5, 2.0, 0.75), lexical=LexicalWeights(0.3, 1.7)
    ),
}


@pytest.mark.parametrize("context_name", ["listing1.java", "corpus-listing2/long.java", "broken"])
@pytest.mark.parametrize("config_name", list(_DIGEST_CONFIGS))
def test_rank_output_matches_recorded_digests(fixtures_dir, rank_pool, context_name, config_name):
    # SHA-256 of the whole-pool ranking JSON, recorded when only the context
    # was prepared and each scorer rebuilt the candidate's side itself.
    expected = json.loads((fixtures_dir / "rank_output_digests.json").read_text())
    if context_name == "broken":
        context = parse(_BROKEN_CONTEXT)
    else:
        context = parse((fixtures_dir / context_name).read_text())
    pool = _equivalence_pool(fixtures_dir, rank_pool)
    ranked = rank(context, pool, _DIGEST_CONFIGS[config_name], k=len(pool))
    digest = hashlib.sha256(_as_json(ranked).encode("utf-8")).hexdigest()
    assert digest == expected[context_name][config_name]


@pytest.fixture(scope="module")
def tie_pool(fixtures_dir):
    """Every pool fixture under a distinct id, three of them twice (equal
    text, so equal totals broken only by id), and a candidate whose parse
    fails."""
    pool = [
        Candidate.from_origin(LocalOrigin(path.relative_to(fixtures_dir).as_posix()), path.read_text())
        for folder in ("rankpool", "corpus-listing2")
        for path in sorted((fixtures_dir / folder).glob("*.java"))
    ]
    pool += [
        Candidate.from_origin(LocalOrigin(f"copy-{c.origin.path}"), c.source_text) for c in pool[:3]
    ]
    pool.append(Candidate.from_origin(LocalOrigin("broken.java"), "} catch }"))
    return pool


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rank_ignores_pool_order(fixtures_dir, tie_pool, data):
    context_text = data.draw(
        st.sampled_from([(fixtures_dir / "listing1.java").read_text(), _BROKEN_CONTEXT])
    )
    context = parse(context_text)
    chosen = sorted(data.draw(st.sets(st.integers(0, len(tie_pool) - 1), min_size=1)))
    pool = [tie_pool[i] for i in chosen]
    shuffled = data.draw(st.permutations(pool))
    k = data.draw(st.integers(1, len(pool)))
    assert _as_json(rank(context, shuffled, k=k)) == _as_json(rank(context, pool, k=k))


def test_weight_config_defaults():
    config = WeightConfig()
    assert config.structural.object_match == 1.0
    assert config.lexical.clone == 1.0
    assert config.quality.readability == 1.0
