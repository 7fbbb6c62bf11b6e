"""catchrec: recommends exception-handling code examples for a context
fragment by combining usage-graph matching, token similarity, and handler
quality metrics, with an offline evaluation harness."""

from .corpus import Candidate, fetch_remote, ingest_local
from .evaluation import EvalReport, Oracle, evaluate, load_cases
from .graph import ApiUsageGraph, extract_usage_graph
from .lexical import LexicalReport, LexicalWeights, PreparedUnit, lexical_score, prepare
from .model import ParseStatus, SourceUnit
from .parser import parse
from .quality import QualityReport, QualityWeights, quality_score
from .query import ExceptionKnowledgeBase, SearchQuery, formulate_query
from .ranking import (
    ScoreBreakdown,
    TopLevelWeights,
    WeightConfig,
    explain,
    load_weights,
    rank,
)
from .structural import MatchReport, StructuralWeights, structural_score

__version__ = "0.1.0"

__all__ = [
    "ApiUsageGraph",
    "Candidate",
    "EvalReport",
    "ExceptionKnowledgeBase",
    "LexicalReport",
    "LexicalWeights",
    "MatchReport",
    "Oracle",
    "ParseStatus",
    "PreparedUnit",
    "QualityReport",
    "QualityWeights",
    "ScoreBreakdown",
    "SearchQuery",
    "SourceUnit",
    "StructuralWeights",
    "TopLevelWeights",
    "WeightConfig",
    "evaluate",
    "explain",
    "extract_usage_graph",
    "fetch_remote",
    "formulate_query",
    "ingest_local",
    "lexical_score",
    "load_cases",
    "load_weights",
    "parse",
    "prepare",
    "quality_score",
    "rank",
    "structural_score",
    "__version__",
]
