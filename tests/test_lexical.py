import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catchrec import lexical_score, parse, prepare
from catchrec.lexer import TokenKind
from catchrec.lexical import (
    LexicalWeights,
    _identifier_parts,
    clone_measure,
    cosine_similarity,
    lcs_length,
    significant_tokens,
)


def idents(*texts):
    return prepare(parse(" ".join(texts)))


def exhaustive_lcs(a, b):
    """Oracle: longest subsequence of `a` that is also a subsequence of `b`."""
    best = 0
    for r in range(len(a), best, -1):
        for combo in itertools.combinations(a, r):
            it = iter(b)
            if all(x in it for x in combo):
                return r
    return best


def test_significant_tokens_drop_punctuation_and_operators():
    unit = parse("url.openConnection()")
    assert [t.text for t in significant_tokens(unit)] == ["url", "openConnection"]
    unit = parse("a = b + c;")
    assert [t.text for t in significant_tokens(unit)] == ["a", "b", "c"]


def test_significant_tokens_empty():
    assert significant_tokens(parse("")) == []


def test_listing1_significant_token_count_golden(listing1):
    # Frozen from a hand lex of the fixture: 11 identifiers + 3 keywords.
    assert len(significant_tokens(listing1)) == 14


def test_subtoken_splitting():
    assert _identifier_parts("HttpURLConnection") == ["http", "url", "connection"]
    assert _identifier_parts("web_service_url") == ["web", "service", "url"]
    assert _identifier_parts("HTTP_OK") == ["http", "ok"]
    assert _identifier_parts("getInputStream") == ["get", "input", "stream"]
    assert _identifier_parts("utf8Name") == ["utf8", "name"]
    assert _identifier_parts("__init__") == ["init"]
    assert _identifier_parts("$x_Y") == ["x", "y"]
    assert _identifier_parts("A_B$cD") == ["a", "b", "c", "d"]
    assert _identifier_parts("_") == ["_"]
    # keywords and literals count whole, unsplit and in their own case
    vector = prepare(parse('try { get("GET"); } finally { }')).subtokens
    assert vector == Counter(["try", "get", '"GET"', "finally"])


def test_cosine_identity():
    toks = idents("alpha", "beta", "alpha")
    assert cosine_similarity(toks, toks) == pytest.approx(1.0)


def test_cosine_disjoint():
    assert cosine_similarity(idents("alpha", "beta"), idents("gamma", "delta")) == 0.0


def test_cosine_hand_computed():
    # {a:1, b:1} vs {a:1} -> 1 / sqrt(2)
    value = cosine_similarity(idents("a", "b"), idents("a"))
    assert value == pytest.approx(1 / math.sqrt(2))


def test_cosine_empty_inputs():
    assert cosine_similarity(idents(), idents("a")) == 0.0
    assert cosine_similarity(idents("a"), idents()) == 0.0


def test_cosine_symmetry():
    u = idents("load", "parse", "load", "emit")
    v = idents("parse", "emit", "emit")
    assert cosine_similarity(u, v) == pytest.approx(cosine_similarity(v, u))


def test_cosine_bounds_random():
    rng = random.Random(11)
    vocab = ["alpha", "beta", "gamma", "delta", "Epsilon_Zeta"]
    for _ in range(100):
        u = idents(*(rng.choice(vocab) for _ in range(rng.randint(0, 8))))
        v = idents(*(rng.choice(vocab) for _ in range(rng.randint(0, 8))))
        value = cosine_similarity(u, v)
        assert 0.0 <= value <= 1.0 + 1e-12


def test_clone_identity():
    toks = idents("a", "b", "c")
    length, ratio = clone_measure(toks, toks)
    assert (length, ratio) == (3, 1.0)


def test_clone_hand_enumerated():
    # all subsequences of [a, b, c] checked against [a, c, d]: best is (a, c)
    ctx, cand = idents("a", "b", "c"), idents("a", "c", "d")
    assert exhaustive_lcs(["a", "b", "c"], ["a", "c", "d"]) == 2
    length, ratio = clone_measure(ctx, cand)
    assert length == 2
    assert ratio == pytest.approx(2 / 3)


def test_clone_empty_context():
    assert clone_measure(idents(), idents("a")) == (0, 0.0)


def test_clone_is_asymmetric():
    ctx, cand = idents("a", "b"), idents("a", "b", "c", "d")
    assert clone_measure(ctx, cand)[1] == pytest.approx(1.0)
    assert clone_measure(cand, ctx)[1] == pytest.approx(0.5)


def test_clone_normalizes_by_exact_tokens_not_subtokens():
    # camel variants are distinct tokens for the clone measure
    ctx = idents("readLine", "close")
    cand = idents("read_line", "close")
    length, ratio = clone_measure(ctx, cand)
    assert (length, ratio) == (1, 0.5)


def test_lcs_dp_matches_exhaustive_oracle():
    rng = random.Random(20240118)
    vocab = list("abcdef")
    for _ in range(60):
        n = rng.randint(0, 12)
        m = rng.randint(0, 24 - n)
        a = [rng.choice(vocab) for _ in range(n)]
        b = [rng.choice(vocab) for _ in range(m)]
        assert lcs_length(a, b) == exhaustive_lcs(a, b), (a, b)


def dp_lcs(a, b):
    """Oracle: the textbook two-row dynamic program, O(len(a)*len(b))."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


_token_lists = st.integers(1, 8).flatmap(
    lambda k: st.tuples(
        st.lists(st.sampled_from("abcdefgh"[:k]), max_size=300),
        st.lists(st.sampled_from("abcdefgh"[:k]), max_size=300),
    )
)


# Lengths of 64 and 128 bits cross machine-word sizes of the row integer.
@example((list("ab" * 32), list("ba" * 32)))
@example((list("abc" * 43), list("a" * 65 + "b" * 64)))
@example((list("a") * 129, list("a") * 300))
@example((list("abcdefgh" * 37), list("hgfedcba" * 37)))
@settings(max_examples=150, deadline=None)
@given(_token_lists)
def test_lcs_matches_dp_oracle(pair):
    a, b = pair
    expected = dp_lcs(a, b)
    assert lcs_length(a, b) == expected
    assert lcs_length(b, a) == expected


def test_shuffle_changes_clone_not_cosine():
    ctx = idents("open", "read", "close", "flush")
    ordered = idents("open", "read", "close", "flush", "retry")
    shuffled = idents("flush", "close", "read", "open", "retry")
    assert cosine_similarity(ctx, ordered) == pytest.approx(
        cosine_similarity(ctx, shuffled)
    )
    assert clone_measure(ctx, shuffled)[1] < clone_measure(ctx, ordered)[1]


_FRAGMENT_PIECES = st.sampled_from(
    ["getInputStream", "HTTP_OK", "web_service_url", "utf8Name", "__init__", "$x_Y",
     "_", "url", "URL", "a", "try", "catch", "new", "null", "true", '"GET"', "'c'",
     "0x1F", "1.5e-3", "(", ")", "{", "}", ";", ".", "=", "+", "->", "::", " ", "\n",
     "// note\n", "é"]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_FRAGMENT_PIECES, max_size=30).map(" ".join), min_size=1, max_size=5))
def test_prepare_with_a_shared_memo_equals_prepare_alone(fragments):
    """One memo shared by several units changes nothing; both equal the
    significant tokens and their subtokens counted in order."""
    memo: dict = {}
    for text in fragments:
        unit = parse(text)
        shared, alone = prepare(unit, memo), prepare(unit)
        significant = significant_tokens(unit)
        assert shared.texts == alone.texts == tuple(t.text for t in significant)
        expected = list(Counter(
            part
            for t in significant
            for part in (_identifier_parts(t.text) if t.kind is TokenKind.IDENTIFIER else [t.text])
        ).items())
        assert list(shared.subtokens.items()) == list(alone.subtokens.items()) == expected
        assert shared.norm == alone.norm


def test_lexical_score_identity():
    unit = parse("A a = new A(); a.go();")
    report = lexical_score(prepare(unit), prepare(unit))
    assert report.cosine == pytest.approx(1.0)
    assert report.clone_ratio == pytest.approx(1.0)
    assert report.raw == pytest.approx(2.0)


def test_lexical_score_empty_context():
    report = lexical_score(prepare(parse("")), prepare(parse("A a = new A();")))
    assert report.raw == 0.0
    assert report.context_token_count == 0


def test_lexical_score_listing_pair(listing1, listing2):
    report = lexical_score(prepare(listing1), prepare(listing2))
    assert report.cosine == pytest.approx(0.6771, abs=5e-4)
    assert report.lcs_length == 10
    assert report.context_token_count == 14
    assert report.clone_ratio == pytest.approx(10 / 14)


def test_lexical_score_weights():
    unit = parse("A a = new A(); a.go();")
    report = lexical_score(prepare(unit), prepare(unit), LexicalWeights(cosine=2.0, clone=3.0))
    assert report.raw == pytest.approx(5.0)
    assert report.raw == pytest.approx(2.0 * report.cosine + 3.0 * report.clone_ratio)


def test_lexical_score_survives_failed_parse(listing1):
    broken = parse("} catch }")
    report = lexical_score(prepare(listing1), prepare(broken))
    assert report.raw >= 0.0  # tokens always exist, scoring never raises


def test_clone_has_no_length_cap(caplog):
    # The context's tokens sit past position 20,000 of the candidate, where a
    # length cap on the candidate would cut them off.
    import logging

    context = parse("Reader in = open(path); in.close();")
    filler = "int z = 0;\n" * 7000  # 3 significant tokens each
    candidate = parse(filler + context.raw_text)
    context_texts = [t.text for t in significant_tokens(context)]
    candidate_texts = [t.text for t in significant_tokens(candidate)]
    assert len(candidate_texts) > 21_000
    assert candidate_texts[-len(context_texts):] == context_texts
    with caplog.at_level(logging.WARNING):
        report = lexical_score(prepare(context), prepare(candidate))
    assert report.clone_ratio == 1.0
    assert report.lcs_length == len(context_texts)
    assert not caplog.messages


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        LexicalWeights(cosine=-1.0)
