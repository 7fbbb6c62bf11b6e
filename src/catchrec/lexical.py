"""Token-level relevance (cosine content similarity plus a clone measure)
and the prepared form of a unit that the lexical and structural scorers
read.

Both measures run on the significant tokens only (identifiers, keywords,
literals; punctuation and operators carry no naming signal and are dropped).
They look at different granularities on purpose:

* The cosine measure is bag-of-words content similarity, so identifiers are
  broken into lowercase subtokens first (``web_service_url`` and
  ``WEB_SERVICE_URL`` then share mass), the usual vectorization for code
  retrieval, and the one that reproduces the expected similarity levels on
  the reference fixtures.
* The clone measure compares the literal token sequences: the length of the
  longest common subsequence normalized by the context's token count. No
  splitting, case-sensitive: clones are about verbatim reuse. Note the
  asymmetry: only the context length normalizes the ratio. The LCS is
  computed bit-parallel over Python integers (Allison & Dix 1986; Hyyrö
  2004), exactly and with no cap on the length of either sequence.

Context and candidate are the same kind of thing, a parsed fragment, so both
reach the scorers as a :class:`PreparedUnit` from :func:`prepare`: the
significant-token texts, the subtoken vector and its norm, and the usage
graph that :mod:`catchrec.structural` matches (``None`` for a failed parse).
Ranking prepares the context once per query and each candidate once, with
one subtoken memo (identifier text to its parts) shared by the whole call.
:func:`prepare` reads the scan's ``texts`` and ``kinds`` tuples, as every
stage does; only :func:`significant_tokens` builds :class:`Token` values.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from typing import NamedTuple

from .graph import ApiUsageGraph, extract_usage_graph
from .lexer import TokenKind
from .model import ParseStatus, SourceUnit, Weights

SIGNIFICANT_KINDS = frozenset(
    {TokenKind.IDENTIFIER, TokenKind.KEYWORD, TokenKind.LITERAL}
)

# Read in the loop of ``prepare``, where an identity test against a module
# global is cheaper than hashing an Enum member for ``SIGNIFICANT_KINDS``.
_IDENTIFIER, _OPERATOR, _PUNCTUATION = (
    TokenKind.IDENTIFIER, TokenKind.OPERATOR, TokenKind.PUNCTUATION
)

_CAMEL = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")


class Token(NamedTuple):
    """One position of a scan. Only :func:`significant_tokens` builds one; it
    stays because the benchmark's tokenizer test reads each item's ``.text``."""

    text: str
    kind: TokenKind
    line: int


def significant_tokens(unit: SourceUnit) -> list[Token]:
    """Identifiers, keywords, and literals of the unit, in order."""
    tokens = map(Token, unit.texts, unit.kinds, unit.lines)
    return [t for t in tokens if t.kind in SIGNIFICANT_KINDS]


def _identifier_parts(text: str) -> list[str]:
    """Lowercase subtokens of an identifier, split at ``_``, ``$`` and camel case."""
    parts = [m.group(0).lower() for m in _CAMEL.finditer(text)]
    return parts or [text.lower()]


@dataclass(frozen=True, eq=False)
class PreparedUnit:
    """Everything the scorers read from one unit, context or candidate."""

    texts: tuple[str, ...]       # significant-token texts, in order
    subtokens: Counter           # subtoken frequency vector
    norm: float                  # Euclidean norm of ``subtokens``
    graph: ApiUsageGraph | None  # None when the parse failed


def prepare(unit: SourceUnit, memo: dict[str, list[str]] | None = None) -> PreparedUnit:
    """Compute one unit's side of every measure. ``memo`` maps identifier
    texts to their :func:`_identifier_parts`; units prepared with one memo
    split each distinct identifier once. Keywords and literals count whole."""
    if memo is None:
        memo = {}
    texts: list[str] = []
    parts: list[str] = []
    for text, kind in zip(unit.texts, unit.kinds):
        if kind is _PUNCTUATION or kind is _OPERATOR:
            continue
        texts.append(text)
        if kind is _IDENTIFIER:
            split = memo.get(text)
            if split is None:
                split = memo[text] = _identifier_parts(text)
            parts += split
        else:
            parts.append(text)
    vector = Counter(parts)
    graph = None if unit.parse_status is ParseStatus.FAILED else extract_usage_graph(unit)
    return PreparedUnit(
        texts=tuple(texts),
        subtokens=vector,
        norm=math.sqrt(sum(c * c for c in vector.values())),
        graph=graph,
    )


@dataclass(frozen=True)
class LexicalWeights(Weights):
    cosine: float = 1.0
    clone: float = 1.0


@dataclass(frozen=True)
class LexicalReport:
    cosine: float
    clone_ratio: float
    lcs_length: int
    context_token_count: int
    raw: float

    def to_dict(self) -> dict:
        return asdict(self)


def cosine_similarity(context: PreparedUnit, candidate: PreparedUnit) -> float:
    """Cosine of the subtoken frequency vectors; 0 when either is empty."""
    u, v = context.subtokens, candidate.subtokens
    if not u or not v:
        return 0.0
    dot = sum(count * v[name] for name, count in u.items() if name in v)
    return dot / (context.norm * candidate.norm)


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length, bit-parallel (Allison & Dix 1986;
    Hyyrö 2004, "Bit-parallel LCS-length computation revisited").

    Bit ``i`` of ``v`` stands for item ``i`` of the longer sequence; a zero
    bit marks a step of the LCS row. Each item of the shorter sequence that
    occurs in the longer one updates the whole row with a few operations on
    ``len(longer)``-bit integers; other items leave the row unchanged. Exact
    for any lengths; O(len(a) * len(b) / w) word operations.
    """
    if len(a) < len(b):
        a, b = b, a
    matches: dict[str, int] = {}
    for i, x in enumerate(a):
        matches[x] = matches.get(x, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for y in b:
        m = matches.get(y)
        if m is not None:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def clone_measure(context: PreparedUnit, candidate: PreparedUnit) -> tuple[int, float]:
    """(LCS length, LCS length / context token count); exact token text."""
    length = lcs_length(context.texts, candidate.texts)
    ratio = length / len(context.texts) if context.texts else 0.0
    return length, ratio


def lexical_score(
    context: PreparedUnit,
    candidate: PreparedUnit,
    weights: LexicalWeights | None = None,
) -> LexicalReport:
    """Weighted fusion of the two measures; works on any unit, parsed or not,
    because tokens always exist."""
    weights = weights or LexicalWeights()
    cos = cosine_similarity(context, candidate)
    length, ratio = clone_measure(context, candidate)
    return LexicalReport(
        cosine=cos,
        clone_ratio=ratio,
        lcs_length=length,
        context_token_count=len(context.texts),
        raw=weights.cosine * cos + weights.clone * ratio,
    )
