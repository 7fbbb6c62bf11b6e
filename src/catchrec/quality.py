"""Quality estimate for the exception handlers in a code example.

Three ingredients: a readability proxy, the average number of meaningful
statements per catch clause, and the share of the code devoted to handling.
The readability score is a fixed, documented feature combination (see
``docs/readability.md`` for the exact transforms), not a trained model:
its absolute values are package-specific, its monotone behaviour is the
contract (longer lines and denser parentheses always lower it).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import compress, repeat
from operator import is_

from .errors import EmptyUnit
from .lexer import TokenKind
from .model import HandlerInfo, SourceUnit, Weights

# (feature weight, zero point) pairs documented in docs/readability.md.
_WEIGHT_AVG_LINE = 0.25
_WEIGHT_MAX_LINE = 0.15
_WEIGHT_IDENT = 0.15
_WEIGHT_COMMENTS = 0.15
_WEIGHT_PARENS = 0.20
_WEIGHT_BLANKS = 0.10

_AVG_LINE_ZERO = 100.0   # chars at which the average-line feature bottoms out
_MAX_LINE_ZERO = 160.0
_IDENT_ZERO = 24.0       # average identifier length scoring zero
_COMMENT_FULL = 0.25     # comment-line density earning full credit
_PAREN_ZERO = 8.0        # parens per non-blank line scoring zero
_BLANK_FULL = 0.10       # blank-line density earning full credit


@dataclass(frozen=True)
class QualityWeights(Weights):
    readability: float = 1.0
    handler_actions: float = 1.0
    handler_ratio: float = 1.0


@dataclass(frozen=True)
class QualityReport:
    readability: float
    handler_actions: float
    handler_ratio: float
    raw: float

    def to_dict(self) -> dict:
        return asdict(self)


def _clamp(x: float) -> float:
    return max(0.0, min(1.0, x))


def readability(unit: SourceUnit) -> float:
    """Deterministic readability proxy in [0, 1]; 0 for empty input."""
    lines = unit.raw_text.splitlines()
    nonblank = list(filter(str.strip, lines))
    if not nonblank:
        return 0.0

    avg_line = sum(map(len, nonblank)) / len(nonblank)
    max_line = max(map(len, lines))
    names = list(compress(unit.texts, map(is_, unit.kinds, repeat(TokenKind.IDENTIFIER))))
    avg_ident = sum(map(len, names)) / len(names) if names else 0.0
    comment_density = len(unit.comment_lines) / len(lines)
    paren_density = (unit.raw_text.count("(") + unit.raw_text.count(")")) / len(nonblank)
    blank_density = (len(lines) - len(nonblank)) / len(lines)

    score = (
        _WEIGHT_AVG_LINE * _clamp(1.0 - avg_line / _AVG_LINE_ZERO)
        + _WEIGHT_MAX_LINE * _clamp(1.0 - max_line / _MAX_LINE_ZERO)
        + _WEIGHT_IDENT * _clamp(1.0 - avg_ident / _IDENT_ZERO)
        + _WEIGHT_COMMENTS * _clamp(comment_density / _COMMENT_FULL)
        + _WEIGHT_PARENS * _clamp(1.0 - paren_density / _PAREN_ZERO)
        + _WEIGHT_BLANKS * _clamp(blank_density / _BLANK_FULL)
    )
    return _clamp(score)


def average_handler_actions(handlers: HandlerInfo) -> float:
    """Mean count of significant statements per catch clause; 0 without
    catches. Stack-trace prints and console writes never count."""
    if not handlers.catch_clauses:
        return 0.0
    total = sum(c.significant_count for c in handlers.catch_clauses)
    return total / len(handlers.catch_clauses)


def handler_to_code_ratio(unit: SourceUnit) -> float:
    """Share of the unit's code lines that belong to catch/finally blocks."""
    if unit.sloc == 0:
        raise EmptyUnit("handler-to-code ratio needs at least one code line")
    return unit.handlers.handler_sloc / unit.sloc


def quality_score(unit: SourceUnit, weights: QualityWeights | None = None) -> QualityReport:
    """Weighted fusion of the three quality metrics."""
    weights = weights or QualityWeights()
    ra = readability(unit)
    aha = average_handler_actions(unit.handlers)
    hcr = handler_to_code_ratio(unit)
    return QualityReport(
        readability=ra,
        handler_actions=aha,
        handler_ratio=hcr,
        raw=weights.readability * ra
        + weights.handler_actions * aha
        + weights.handler_ratio * hcr,
    )
