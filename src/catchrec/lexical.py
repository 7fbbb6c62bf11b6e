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
  2004), exactly and with no cap on the length of either sequence. The
  bits stand for the context's tokens, whose match masks are built once
  per context (:attr:`PreparedUnit.masks`), not once per candidate.

Context and candidate are the same kind of thing, a parsed fragment, so both
reach the scorers as a :class:`PreparedUnit` from :func:`prepare`, the one
analysed form of a unit: the significant-token texts, the subtoken vector
and its norm, the usage graph that :mod:`catchrec.structural` matches
(``None`` for a failed parse) and the weight-free quality metrics (``None``
for a unit without a code line). A candidate is prepared once, by the
corpus filter or from a cache entry's stored analyses. The subtoken vector
is a function of the texts alone, :func:`subtoken_vector`, which both
:func:`prepare` and the stored analyses' reader call, so a stored record
holds only the texts; a process splits each distinct word once, since
:func:`_identifier_parts` is cached. :func:`prepare` reads the scan's
``texts`` and ``kinds`` tuples, as every stage does; only
:func:`significant_tokens` builds :class:`Token` values.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

from .errors import EmptyUnit
from .graph import ApiUsageGraph, extract_usage_graph
from .lexer import WORD_START, TokenKind
from .model import ParseStatus, SourceUnit, Weights
from .quality import QualityParts, quality_parts

SIGNIFICANT_KINDS = frozenset(
    {TokenKind.IDENTIFIER, TokenKind.KEYWORD, TokenKind.LITERAL}
)

# Read in the loop of ``prepare``, where an identity test against a module
# global is cheaper than hashing an Enum member for ``SIGNIFICANT_KINDS``.
_OPERATOR, _PUNCTUATION = TokenKind.OPERATOR, TokenKind.PUNCTUATION

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


@functools.cache
def _identifier_parts(text: str) -> tuple[str, ...]:
    """Lowercase subtokens of an identifier, split at ``_``, ``$`` and camel case."""
    parts = tuple(m.group(0).lower() for m in _CAMEL.finditer(text))
    return parts or (text.lower(),)


@dataclass(frozen=True, eq=False)
class PreparedUnit:
    """Everything the scorers read from one unit, context or candidate."""

    texts: tuple[str, ...]        # significant-token texts, in order
    subtokens: Counter            # subtoken frequency vector
    graph: ApiUsageGraph | None   # None when the parse failed
    quality: QualityParts | None  # None for a unit without a code line

    @functools.cached_property
    def norm(self) -> float:
        """Euclidean norm of ``subtokens``: the square root of an integer sum."""
        counts = self.subtokens.values()
        return math.sqrt(sum(map(operator.mul, counts, counts)))

    @functools.cached_property
    def masks(self) -> dict[str, int]:
        """The :func:`match_masks` of ``texts``; read on the context only."""
        return match_masks(self.texts)


def subtoken_vector(texts: Sequence[str]) -> Counter:
    """The subtoken frequency vector of significant-token texts, none of
    them empty, counted in order: an identifier counts by its
    :func:`_identifier_parts`, a keyword or literal whole.

    A text's kind is the one :func:`~catchrec.lexer.scan` gives it: a word
    starts with a :data:`~catchrec.lexer.WORD_START` character, a literal
    with any other. Every keyword, ``true``, ``false`` and ``null`` is one
    lowercase word whose only part is itself, so every word counts by its
    parts, and only words reach the split cache: literal texts are many
    and seldom repeat."""
    parts: list[str] = []
    for text in texts:
        if text[0] in WORD_START:
            parts += _identifier_parts(text)
        else:
            parts.append(text)
    return Counter(parts)


def prepare(unit: SourceUnit) -> PreparedUnit:
    """Compute one unit's side of every measure; the subtoken vector is the
    :func:`subtoken_vector` of the significant-token texts."""
    texts = tuple([
        text for text, kind in zip(unit.texts, unit.kinds)
        if kind is not _PUNCTUATION and kind is not _OPERATOR
    ])
    graph = None if unit.parse_status is ParseStatus.FAILED else extract_usage_graph(unit)
    try:
        quality = quality_parts(unit)
    except EmptyUnit:
        quality = None
    return PreparedUnit(texts=texts, subtokens=subtoken_vector(texts), graph=graph, quality=quality)


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
        return {
            "cosine": self.cosine,
            "clone_ratio": self.clone_ratio,
            "lcs_length": self.lcs_length,
            "context_token_count": self.context_token_count,
            "raw": self.raw,
        }


def cosine_similarity(context: PreparedUnit, candidate: PreparedUnit) -> float:
    """Cosine of the subtoken frequency vectors; 0 when either is empty.
    The dot product, a sum of whole numbers, runs over the shorter vector."""
    u, v = context.subtokens, candidate.subtokens
    if not u or not v:
        return 0.0
    if len(v) < len(u):
        u, v = v, u
    dot = sum(map(operator.mul, u.values(), map(v.get, u, repeat(0))))
    return dot / (context.norm * candidate.norm)


def match_masks(a: Sequence[str]) -> dict[str, int]:
    """Each distinct item of ``a`` -> the integer whose bit ``i`` is set
    where item ``i`` of ``a`` equals it."""
    masks: dict[str, int] = {}
    for i, x in enumerate(a):
        masks[x] = masks.get(x, 0) | (1 << i)
    return masks


def lcs_length(a: Sequence[str], b: Sequence[str], *, masks: dict[str, int] | None = None) -> int:
    """Longest common subsequence length, bit-parallel (Allison & Dix 1986;
    Hyyrö 2004, "Bit-parallel LCS-length computation revisited").

    Bit ``i`` of ``v`` stands for item ``i`` of ``a``, whichever sequence is
    longer (the LCS length is symmetric); a zero bit marks a step of the LCS
    row. Each item of ``b`` that occurs in ``a`` updates the whole row with
    a few operations on ``len(a)``-bit integers; other items leave the row
    unchanged. ``masks`` is :func:`match_masks` of ``a``, built here when
    not given: :func:`clone_measure` passes the context's, built once. Exact
    for any lengths; O(len(a) * len(b) / w) word operations.
    """
    if masks is None:
        masks = match_masks(a)
    full = (1 << len(a)) - 1
    v = full
    for m in filter(None, map(masks.get, b)):
        u = v & m
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def clone_measure(context: PreparedUnit, candidate: PreparedUnit) -> tuple[int, float]:
    """(LCS length, LCS length / context token count); exact token text."""
    length = lcs_length(context.texts, candidate.texts, masks=context.masks)
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
