"""Reference computations the benchmark checks catchrec's outputs against.

Everything here is written from the documented definitions (README,
``docs/corpus.md``, ``docs/eval.md``) and shares no code with the package:
a Java tokenizer for significant tokens, an LCS, min-max pool fusion, the
retrieval metrics, candidate ids and the remote-cache key.
"""

from __future__ import annotations

import hashlib
import re

# Documented default top-level weights (structural, lexical, quality).
DEFAULT_WEIGHTS = (1.2787, 1.0152, 1.1588)

_TOKEN = re.compile(
    r"""
    (?P<space>\s+)
  | (?P<line_comment>//[^\n]*)
  | (?P<block_comment>/\*.*?(?:\*/|\Z))
  | (?P<string>"(?:\\.|[^"\\\n])*"?)
  | (?P<char>'(?:\\.|[^'\\\n])*'?)
  | (?P<number>\.?[0-9][0-9a-zA-Z_.]*)
  | (?P<word>[A-Za-z_$][A-Za-z0-9_$]*)
  | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)
_SIGNIFICANT = frozenset({"string", "char", "number", "word"})


def java_tokens(text: str) -> list[tuple[str, str]]:
    """(kind, text) for every token of ``text``; comments and blanks dropped."""
    return [
        (m.lastgroup, m.group())
        for m in _TOKEN.finditer(text)
        if m.lastgroup not in ("space", "line_comment", "block_comment")
    ]


def significant_texts(text: str) -> list[str]:
    """Identifiers, keywords and literals, in order: the clone measure's
    alphabet as the README defines it."""
    return [tok for kind, tok in java_tokens(text) if kind in _SIGNIFICANT]


def brackets_balance(text: str) -> bool:
    """Every ``(``, ``[`` and ``{`` outside comments and literals is closed
    in order."""
    pairs = {")": "(", "]": "[", "}": "{"}
    stack: list[str] = []
    for kind, tok in java_tokens(text):
        if kind != "other":
            continue
        if tok in "([{":
            stack.append(tok)
        elif tok in pairs:
            if not stack or stack.pop() != pairs[tok]:
                return False
    return not stack


def lcs(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length by the full dynamic-programming
    table."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) - 1, -1, -1):
        row, below = table[i], table[i + 1]
        for j in range(len(b) - 1, -1, -1):
            row[j] = below[j + 1] + 1 if a[i] == b[j] else max(below[j], row[j + 1])
    return table[0][0]


def minmax(values: list[float]) -> list[float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.5] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def fuse(rows: list[dict], weights=DEFAULT_WEIGHTS) -> list[tuple[str, float]]:
    """(id, total) of a whole pool in rank order: each raw component min-max
    normalized over the pool, weighted, summed; ties broken by id."""
    s = minmax([r["structural_raw"] for r in rows])
    l = minmax([r["lexical_raw"] for r in rows])
    q = minmax([r["quality_raw"] for r in rows])
    totals = [
        (r["candidate_id"], weights[0] * s[i] + weights[1] * l[i] + weights[2] * q[i])
        for i, r in enumerate(rows)
    ]
    return sorted(totals, key=lambda t: (-t[1], t[0]))


def precision(ranked: list[str], relevant: set[str], k: int) -> float:
    top = ranked[:k]
    return sum(1 for c in top if c in relevant) / len(top) if top else 0.0


def average_precision(ranked: list[str], relevant: set[str], k: int) -> float:
    """Mean of the precision at each relevant position within the top k."""
    hits, total = 0, 0.0
    for pos, cid in enumerate(ranked[:k], 1):
        if cid in relevant:
            hits += 1
            total += hits / pos
    return total / hits if hits else 0.0


def evaluation_metrics(
    ranked: dict[str, list[str]], oracle: dict[str, list[str]], ks: list[int]
) -> dict[str, dict[str, float]]:
    """``per_k`` of an evaluation report, recomputed from ranked ids."""
    cases = sorted(ranked)
    total_relevant = sum(len(oracle.get(c, ())) for c in cases)
    out = {}
    for k in ks:
        hits = [sum(1 for cid in ranked[c][:k] if cid in set(oracle.get(c, ()))) for c in cases]
        handled = sum(1 for h in hits if h)
        out[str(k)] = {
            "mean_precision": sum(precision(ranked[c], set(oracle.get(c, ())), k) for c in cases)
            / len(cases),
            "mean_average_precision": sum(
                average_precision(ranked[c], set(oracle.get(c, ())), k) for c in cases
            )
            / len(cases),
            "recall": sum(hits) / total_relevant if total_relevant else 0.0,
            "handled_cases": handled,
            "retrieved_relevant": sum(hits),
            "handled_fraction": handled / len(cases),
        }
    return out


def _short_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def remote_id(repo: str, path: str) -> str:
    return _short_hash(f"remote:{repo}:{path}")


def local_id(relative_path: str) -> str:
    return _short_hash(f"local:{relative_path}")


def cache_key(rendered_query: str, orgs: list[str], limit: int) -> str:
    return _short_hash(f"{rendered_query}|{','.join(sorted(orgs))}|{limit}")
