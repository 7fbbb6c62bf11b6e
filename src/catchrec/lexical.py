"""Token-level relevance: cosine content similarity plus a clone measure.

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

The context side of both measures (token texts, subtoken vector and norm)
comes from a :class:`~catchrec.context.PreparedContext`, computed once per
query by the caller or, given a plain unit or token list, on the spot.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .context import (  # the token helpers stay importable from here
    SIGNIFICANT_KINDS,  # noqa: F401
    PreparedContext,
    prepare_context,
    significant_tokens,
    subtoken_vector,
    subtokens,  # noqa: F401
)
from .lexer import Token
from .model import SourceUnit


@dataclass(frozen=True)
class LexicalWeights:
    cosine: float = 1.0
    clone: float = 1.0

    def __post_init__(self) -> None:
        for name in ("cosine", "clone"):
            if not math.isfinite(getattr(self, name)) or getattr(self, name) < 0:
                raise ValueError(f"{name} must be finite and non-negative")


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


def cosine_similarity(
    context: Sequence[Token] | PreparedContext, candidate_tokens: Sequence[Token]
) -> float:
    """Cosine of the subtoken frequency vectors; 0 when either is empty.
    The context is its significant tokens or the prepared context."""
    if isinstance(context, PreparedContext):
        u, norm_u = context.subtokens, context.norm
    else:
        u, norm_u = subtoken_vector(context)
    v, norm_v = subtoken_vector(candidate_tokens)
    if not u or not v:
        return 0.0
    dot = sum(count * v[name] for name, count in u.items() if name in v)
    return dot / (norm_u * norm_v)


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


def clone_measure(
    context: Sequence[Token] | PreparedContext, candidate_tokens: Sequence[Token]
) -> tuple[int, float]:
    """(LCS length, LCS length / context token count); exact token text.
    The context is its significant tokens or the prepared context."""
    if isinstance(context, PreparedContext):
        context_texts: Sequence[str] = context.texts
    else:
        context_texts = [t.text for t in context]
    length = lcs_length(context_texts, [t.text for t in candidate_tokens])
    ratio = length / len(context_texts) if context_texts else 0.0
    return length, ratio


def lexical_score(
    context: SourceUnit | PreparedContext,
    candidate: SourceUnit,
    weights: LexicalWeights | None = None,
) -> LexicalReport:
    """Weighted fusion of the two measures; works on any unit, parsed or not,
    because tokens always exist. A plain context unit is prepared here."""
    if not isinstance(context, PreparedContext):
        context = prepare_context(context)
    weights = weights or LexicalWeights()
    cand = significant_tokens(candidate)
    cos = cosine_similarity(context, cand)
    length, ratio = clone_measure(context, cand)
    return LexicalReport(
        cosine=cos,
        clone_ratio=ratio,
        lcs_length=length,
        context_token_count=len(context.texts),
        raw=weights.cosine * cos + weights.clone * ratio,
    )
