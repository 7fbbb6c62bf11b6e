"""Offline evaluation harness: precision, average precision, recall, and
handled-case counts per cutoff against a committed oracle.

Cases and the oracle live in JSON files (schemas in ``docs/eval.md``); each
case runs the full pipeline (query formulation, corpus ingestion, ranking)
and per-case failures are recorded and scored as zero rather than aborting
the run. Recall is pooled across cases: total relevant retrieved over total
relevant known.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .corpus import ingest_local
from .errors import CatchrecError, read_input
from .parser import parse_file
from .query import ExceptionKnowledgeBase, formulate_query
from .ranking import WeightConfig, rank

logger = logging.getLogger(__name__)

DEFAULT_KS = (5, 10, 15)


@dataclass(frozen=True)
class CaseSpec:
    case_id: str
    context_path: str
    corpus_dir: str
    exception_name: str | None = None


@dataclass(frozen=True)
class Oracle:
    relevant: dict[str, frozenset[str]]

    @classmethod
    def from_file(cls, path: str | Path) -> "Oracle":
        """Oracle file: ``{case_id: [candidate id, ...], ...}``; any other
        shape raises one :class:`ConfigError` naming the file."""

        def relevant(text: str) -> dict[str, frozenset[str]]:
            sets = {}
            for case, ids in json.loads(text).items():
                if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
                    raise TypeError(f"case {case!r} must map to a list of candidate ids")
                sets[case] = frozenset(ids)
            return sets

        return cls(read_input(path, "oracle", relevant))

    def for_case(self, case_id: str) -> frozenset[str]:
        return self.relevant.get(case_id, frozenset())


def load_cases(path: str | Path) -> list[CaseSpec]:
    """Case file: ``{"cases": [{case_id, context_path, corpus_dir,
    exception_name?}, ...]}``; paths are resolved against the file's
    directory so fixtures stay relocatable. Any other shape raises one
    :class:`ConfigError` naming the file."""
    base = Path(path).parent

    def cases(text: str) -> list[CaseSpec]:
        specs = []
        seen: set[str] = set()
        for entry in json.loads(text)["cases"]:
            fields = (entry["case_id"], entry["context_path"], entry["corpus_dir"])
            exception_name = entry.get("exception_name")
            if not all(isinstance(f, str) for f in fields) or not isinstance(
                exception_name, (str, type(None))
            ):
                raise TypeError(
                    "case_id, context_path and corpus_dir must be strings, "
                    "exception_name a string or null"
                )
            case_id, context_path, corpus_dir = fields
            if case_id in seen:
                raise ValueError(f"duplicate case id: {case_id}")
            seen.add(case_id)
            specs.append(
                CaseSpec(
                    case_id=case_id,
                    context_path=str(base / context_path),
                    corpus_dir=str(base / corpus_dir),
                    exception_name=exception_name,
                )
            )
        return specs

    return read_input(path, "case file", cases)


# ---------------------------------------------------------------------------
# Rank-list metrics
# ---------------------------------------------------------------------------


def precision_at_list(ranked_ids: list[str], relevant: frozenset[str] | set[str], k: int) -> float:
    """Relevant fraction of the top-k (denominator capped by list length)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    top = ranked_ids[:k]
    if not top:
        return 0.0
    hits = sum(1 for cid in top if cid in relevant)
    return hits / len(top)


def average_precision_at_k(
    ranked_ids: list[str], relevant: frozenset[str] | set[str], k: int
) -> float:
    """Mean precision at each relevant hit within the top-k; 0 without hits.
    The denominator is the number of hits within k, so a single early hit is
    not diluted by unretrieved relevant items."""
    if k < 1:
        raise ValueError("k must be at least 1")
    precisions = []
    hits = 0
    for position, cid in enumerate(ranked_ids[:k], 1):
        if cid in relevant:
            hits += 1
            precisions.append(hits / position)
    if not precisions:
        return 0.0
    return sum(precisions) / len(precisions)


def recall_overall(retrieved_relevant: int, total_relevant: int) -> float:
    """Pooled recall: all relevant retrieved over all relevant known."""
    if total_relevant == 0:
        return 0.0
    return retrieved_relevant / total_relevant


# ---------------------------------------------------------------------------
# Full evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    ranked_ids: tuple[str, ...]
    relevant: frozenset[str]
    query: str | None = None
    error: str | None = None


@dataclass(frozen=True)
class KMetrics:
    mean_precision: float
    mean_average_precision: float
    recall: float
    handled_cases: int            # cases with at least one relevant hit in top-K
    retrieved_relevant: int       # pooled relevant hits in top-K
    handled_fraction: float       # handled_cases / number of cases

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EvalReport:
    ks: tuple[int, ...]
    n_cases: int
    total_relevant: int
    per_k: dict[int, KMetrics]
    per_case: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "ks": list(self.ks),
            "n_cases": self.n_cases,
            "total_relevant": self.total_relevant,
            "per_k": {str(k): m.to_dict() for k, m in sorted(self.per_k.items())},
            "per_case": {cid: self.per_case[cid] for cid in sorted(self.per_case)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        """Cutoff-per-column table of all five metrics."""
        ks = sorted(self.per_k)
        header = f"{'Metric':<22}" + "".join(f"Top {k:<8}" for k in ks)
        rows = [header, "-" * len(header)]
        fmt = [
            ("MP", lambda m: f"{m.mean_precision:.2%}"),
            ("MAPK", lambda m: f"{m.mean_average_precision:.2%}"),
            ("TEH", lambda m: f"{m.handled_cases}({m.retrieved_relevant})"),
            ("PEH", lambda m: f"{m.handled_fraction:.2%}"),
            ("Recall", lambda m: f"{m.recall:.2%}"),
        ]
        for name, render in fmt:
            rows.append(f"{name:<22}" + "".join(f"{render(self.per_k[k]):<12}" for k in ks))
        rows.append(f"cases: {self.n_cases}, relevant: {self.total_relevant}")
        return "\n".join(rows) + "\n"


def run_case(
    case: CaseSpec,
    oracle: Oracle,
    config: WeightConfig,
    kb: ExceptionKnowledgeBase,
    max_k: int,
) -> CaseResult:
    relevant = oracle.for_case(case.case_id)
    try:
        context = parse_file(case.context_path)
        query = formulate_query(context, kb, case.exception_name)
        candidates = ingest_local(case.corpus_dir, query)
        breakdowns = rank(context, candidates, config, k=max_k)
        return CaseResult(
            case_id=case.case_id,
            ranked_ids=tuple(b.candidate_id for b in breakdowns),
            relevant=relevant,
            query=query.rendered,
        )
    except (CatchrecError, OSError, ValueError) as exc:
        logger.warning("case %s failed: %s", case.case_id, exc)
        return CaseResult(
            case_id=case.case_id,
            ranked_ids=(),
            relevant=relevant,
            error=f"{type(exc).__name__}: {exc}",
        )


def evaluate(
    cases: list[CaseSpec],
    oracle: Oracle,
    config: WeightConfig | None = None,
    ks: tuple[int, ...] = DEFAULT_KS,
) -> EvalReport:
    """Run the full pipeline for every case and aggregate all metrics at
    each distinct cutoff in ``ks``."""
    if not cases:
        raise ValueError("no cases to evaluate")
    if not ks or any(k < 1 for k in ks):
        raise ValueError("cutoffs must be positive")
    ks = tuple(sorted(set(ks)))
    config = config or WeightConfig()
    kb = ExceptionKnowledgeBase.bundled()
    max_k = max(ks)

    results = sorted(
        (run_case(c, oracle, config, kb, max_k) for c in cases),
        key=lambda r: r.case_id,
    )

    for result in results:
        if not result.relevant:
            logger.warning(
                "case %s has no relevant examples in the oracle", result.case_id
            )

    total_relevant = sum(len(r.relevant) for r in results)
    case_aps = [
        {k: average_precision_at_k(list(r.ranked_ids), r.relevant, k) for k in ks}
        for r in results
    ]
    per_k: dict[int, KMetrics] = {}
    for k in ks:
        precisions = [precision_at_list(list(r.ranked_ids), r.relevant, k) for r in results]
        aps = [ap[k] for ap in case_aps]
        hit_counts = [
            sum(1 for cid in r.ranked_ids[:k] if cid in r.relevant) for r in results
        ]
        handled = sum(1 for count in hit_counts if count > 0)
        retrieved = sum(hit_counts)
        per_k[k] = KMetrics(
            mean_precision=sum(precisions) / len(results),
            mean_average_precision=sum(aps) / len(results),
            recall=recall_overall(retrieved, total_relevant),
            handled_cases=handled,
            retrieved_relevant=retrieved,
            handled_fraction=handled / len(results),
        )

    per_case = {
        r.case_id: {
            "query": r.query,
            "error": r.error,
            "ranked_ids": list(r.ranked_ids),
            "relevant": sorted(r.relevant),
            "average_precision": {str(k): value for k, value in ap.items()},
        }
        for r, ap in zip(results, case_aps)
    }

    return EvalReport(
        ks=ks,
        n_cases=len(results),
        total_relevant=total_relevant,
        per_k=per_k,
        per_case=per_case,
    )
