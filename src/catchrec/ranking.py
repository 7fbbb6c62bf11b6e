"""Candidate scoring, pool normalization, and top-K ranking.

Every candidate gets three raw component scores against the context. Each
component is min-max normalized over the whole pool (a constant component
maps everyone to the neutral 0.5), fused with the top-level weights, and the
pool is sorted by the fused total with candidate ids breaking ties so that
identical pools always rank identically.

Candidates whose structure cannot be analyzed stay in the pool with a zero
structural component and a flag: the token-based components exist exactly
to keep non-parseable code rankable.

The structural and lexical scorers read both sides through
:func:`catchrec.lexical.prepare`: :func:`rank` prepares the context once per
call, and :func:`score_candidate` prepares each candidate once for both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, EmptyPool, EmptyUnit, StructureUnavailable, read_input
from .lexical import LexicalReport, LexicalWeights, PreparedUnit, lexical_score, prepare
from .model import SourceUnit, Weights, check_weight
from .quality import QualityReport, QualityWeights, quality_score
from .structural import MatchReport, StructuralWeights, structural_score

DEFAULT_TOP_K = 15


@dataclass(frozen=True)
class TopLevelWeights(Weights):
    structural: float = 1.2787
    lexical: float = 1.0152
    quality: float = 1.1588


@dataclass(frozen=True)
class WeightConfig:
    structural: StructuralWeights = field(default_factory=StructuralWeights)
    lexical: LexicalWeights = field(default_factory=LexicalWeights)
    quality: QualityWeights = field(default_factory=QualityWeights)
    top_level: TopLevelWeights = field(default_factory=TopLevelWeights)


# Config-file key -> (section, attribute). Key names are part of the file
# format; unknown keys are an error, never silently ignored.
_CONFIG_KEYS: dict[str, tuple[str, str]] = {
    "alpha": ("structural", "object_match"),
    "beta": ("structural", "field_match"),
    "gamma": ("structural", "method_match"),
    "delta": ("structural", "dependency_match"),
    "lambda": ("lexical", "cosine"),
    "sigma": ("lexical", "clone"),
    "mu": ("quality", "readability"),
    "epsilon": ("quality", "handler_actions"),
    "kappa": ("quality", "handler_ratio"),
    "w_str": ("top_level", "structural"),
    "w_lex": ("top_level", "lexical"),
    "w_ehc": ("top_level", "quality"),
}


def load_weights(path: str | Path) -> WeightConfig:
    """Weight config from a JSON file of ``key: number`` entries; keys not in
    the documented set raise :class:`ConfigError`. Every error names the file."""
    data = read_input(path, "weight config", json.loads)
    if not isinstance(data, dict):
        raise ConfigError(f"weight config {path}: must be a JSON object")
    sections: dict[str, dict[str, float]] = {
        "structural": {}, "lexical": {}, "quality": {}, "top_level": {}
    }
    for key, value in data.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"weight config {path}: unknown weight config key: {key!r}")
        try:
            weight = check_weight(f"weight {key!r}", value)
        except ValueError as exc:
            raise ConfigError(f"weight config {path}: {exc}") from exc
        section, attr = _CONFIG_KEYS[key]
        sections[section][attr] = weight
    return WeightConfig(
        structural=StructuralWeights(**sections["structural"]),
        lexical=LexicalWeights(**sections["lexical"]),
        quality=QualityWeights(**sections["quality"]),
        top_level=TopLevelWeights(**sections["top_level"]),
    )


def normalize_pool(values: list[float]) -> list[float]:
    """Min-max normalization over the pool; a constant pool maps to 0.5."""
    if not values:
        raise EmptyPool("cannot normalize an empty pool")
    lo, hi = min(values), max(values)
    if lo == hi:
        return [0.5] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


@dataclass(frozen=True)
class RawComponents:
    candidate_id: str
    structural_raw: float
    lexical_raw: float
    quality_raw: float
    structure_available: bool = True
    quality_available: bool = True
    match: MatchReport | None = None
    lexical: LexicalReport | None = None
    quality: QualityReport | None = None


@dataclass(frozen=True, kw_only=True)
class ScoreBreakdown(RawComponents):
    structural_norm: float
    lexical_norm: float
    quality_norm: float
    total: float
    rank: int

    def to_dict(self) -> dict:
        return {
            "candidate_id": self.candidate_id,
            "structural_raw": self.structural_raw,
            "lexical_raw": self.lexical_raw,
            "quality_raw": self.quality_raw,
            "structural_norm": self.structural_norm,
            "lexical_norm": self.lexical_norm,
            "quality_norm": self.quality_norm,
            "total": self.total,
            "rank": self.rank,
            "structure_available": self.structure_available,
            "quality_available": self.quality_available,
            "match": self.match.to_dict() if self.match else None,
            "lexical": self.lexical.to_dict() if self.lexical else None,
            "quality": self.quality.to_dict() if self.quality else None,
        }


def fuse(raws: list[RawComponents], weights: TopLevelWeights) -> list[ScoreBreakdown]:
    """Normalize each component over the pool, combine, sort, and rank."""
    if not raws:
        raise EmptyPool("cannot rank an empty pool")
    structural_norm = normalize_pool([r.structural_raw for r in raws])
    lexical_norm = normalize_pool([r.lexical_raw for r in raws])
    quality_norm = normalize_pool([r.quality_raw for r in raws])

    scored = []
    for i, r in enumerate(raws):
        total = (
            weights.structural * structural_norm[i]
            + weights.lexical * lexical_norm[i]
            + weights.quality * quality_norm[i]
        )
        scored.append((r, structural_norm[i], lexical_norm[i], quality_norm[i], total))

    scored.sort(key=lambda row: (-row[4], row[0].candidate_id))
    return [
        ScoreBreakdown(
            **vars(r),
            structural_norm=s_norm,
            lexical_norm=l_norm,
            quality_norm=q_norm,
            total=total,
            rank=position,
        )
        for position, (r, s_norm, l_norm, q_norm, total) in enumerate(scored, 1)
    ]


def score_candidate(
    context: PreparedUnit,
    candidate_id: str,
    candidate: SourceUnit,
    config: WeightConfig,
) -> RawComponents:
    """Raw component scores for one candidate; structural and quality
    failures degrade to zero components instead of dropping the candidate.
    The candidate is prepared once for both the structural and the lexical
    scorer."""
    prepared = prepare(candidate)
    try:
        match = structural_score(context, prepared, config.structural)
        structural_raw, structure_available = match.raw, True
    except StructureUnavailable:
        match, structural_raw, structure_available = None, 0.0, False

    lex = lexical_score(context, prepared, config.lexical)

    try:
        qual = quality_score(candidate, config.quality)
        quality_raw, quality_available = qual.raw, True
    except EmptyUnit:
        qual, quality_raw, quality_available = None, 0.0, False

    return RawComponents(
        candidate_id=candidate_id,
        structural_raw=structural_raw,
        lexical_raw=lex.raw,
        quality_raw=quality_raw,
        structure_available=structure_available,
        quality_available=quality_available,
        match=match,
        lexical=lex,
        quality=qual,
    )


def rank(
    context: SourceUnit,
    candidates: list,
    config: WeightConfig | None = None,
    k: int = DEFAULT_TOP_K,
) -> list[ScoreBreakdown]:
    """Top-``k`` candidates for the context, with full breakdowns.

    ``candidates`` is a list of objects with ``id`` and ``unit`` attributes
    (see :class:`catchrec.corpus.Candidate`).
    """
    if not candidates:
        raise EmptyPool("cannot rank an empty pool")
    if k < 1:
        raise ValueError("k must be at least 1")
    config = config or WeightConfig()
    prepared = prepare(context)  # once per call, not per candidate
    raws = [
        score_candidate(prepared, cand.id, cand.unit, config) for cand in candidates
    ]
    return fuse(raws, config.top_level)[: min(k, len(raws))]


_METRIC_ROWS = (
    ("object_match", lambda b: b.match.matched_objects if b.match else 0.0),
    ("field_match", lambda b: b.match.field_total if b.match else 0.0),
    ("method_match", lambda b: b.match.method_total if b.match else 0.0),
    ("dependency_match", lambda b: b.match.dependency_total if b.match else 0.0),
    ("cosine", lambda b: b.lexical.cosine if b.lexical else 0.0),
    ("clone_ratio", lambda b: b.lexical.clone_ratio if b.lexical else 0.0),
    ("readability", lambda b: b.quality.readability if b.quality else 0.0),
    ("handler_actions", lambda b: b.quality.handler_actions if b.quality else 0.0),
    ("handler_ratio", lambda b: b.quality.handler_ratio if b.quality else 0.0),
)


def explain(breakdown: ScoreBreakdown) -> str:
    """Human-readable report: all nine metrics, three components, total."""
    lines = [f"candidate {breakdown.candidate_id} (rank {breakdown.rank})"]
    for name, getter in _METRIC_ROWS:
        lines.append(f"  {name:<18} {getter(breakdown):10.4f}")
    lines.append(
        f"  {'structural':<18} {breakdown.structural_raw:10.4f}"
        f"  (normalized {breakdown.structural_norm:.4f})"
    )
    lines.append(
        f"  {'lexical':<18} {breakdown.lexical_raw:10.4f}"
        f"  (normalized {breakdown.lexical_norm:.4f})"
    )
    lines.append(
        f"  {'quality':<18} {breakdown.quality_raw:10.4f}"
        f"  (normalized {breakdown.quality_norm:.4f})"
    )
    if not breakdown.structure_available:
        lines.append("  structural component unavailable (parse failed); scored 0")
    lines.append(f"  {'total':<18} {breakdown.total:10.4f}")
    return "\n".join(lines)
