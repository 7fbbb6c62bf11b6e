"""The context side of scoring, prepared once per query.

Ranking scores every candidate of a pool against the same context. What the
scorers need from the context alone is computed here once and passed to
them: the significant-token texts for the clone measure, the subtoken
frequency vector and its norm for the cosine measure, and the usage graph
for structural matching (``None`` when the context could not be parsed).

The token selection lives here too, because both sides of the lexical
measures use it: only identifiers, keywords and literals are significant
(punctuation and operators carry no naming signal), and the cosine vector
counts lowercase subtokens, identifiers split at underscores and camel-case
boundaries.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from .graph import ApiUsageGraph, extract_usage_graph
from .lexer import Token, TokenKind
from .model import ParseStatus, SourceUnit

SIGNIFICANT_KINDS = frozenset(
    {TokenKind.IDENTIFIER, TokenKind.KEYWORD, TokenKind.LITERAL}
)

_CAMEL = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")


def significant_tokens(unit: SourceUnit) -> list[Token]:
    """Identifiers, keywords, and literals of the unit, in order."""
    return [t for t in unit.tokens if t.kind in SIGNIFICANT_KINDS]


def subtokens(token: Token) -> list[str]:
    """Lowercase subtokens for the cosine vector; identifiers split at
    underscores and camel-case boundaries, other tokens pass through."""
    if token.kind is not TokenKind.IDENTIFIER:
        return [token.text]
    parts: list[str] = []
    for chunk in re.split(r"[_$]+", token.text):
        parts.extend(m.group(0).lower() for m in _CAMEL.finditer(chunk))
    return parts or [token.text.lower()]


def subtoken_vector(tokens: Iterable[Token]) -> tuple[Counter, float]:
    """Subtoken frequency vector of the tokens and its Euclidean norm."""
    vector = Counter(s for t in tokens for s in subtokens(t))
    return vector, math.sqrt(sum(c * c for c in vector.values()))


@dataclass(frozen=True, eq=False)
class PreparedContext:
    """Everything the scorers read from the context."""

    texts: tuple[str, ...]       # significant-token texts, in order
    subtokens: Counter           # subtoken frequency vector
    norm: float                  # Euclidean norm of ``subtokens``
    graph: ApiUsageGraph | None  # None when the parse failed


def prepare_context(unit: SourceUnit) -> PreparedContext:
    """Compute the context side of every measure once."""
    tokens = significant_tokens(unit)
    vector, norm = subtoken_vector(tokens)
    graph = None if unit.parse_status is ParseStatus.FAILED else extract_usage_graph(unit)
    return PreparedContext(
        texts=tuple(t.text for t in tokens), subtokens=vector, norm=norm, graph=graph
    )
