import json
import threading
import time
import urllib.parse
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catchrec import ParseStatus, SearchQuery, WeightConfig, ingest_local, rank
from catchrec import corpus as corpus_mod
from catchrec import parser as parser_mod
from catchrec.corpus import (
    MAX_SLOC,
    MIN_SLOC,
    Candidate,
    Exclusion,
    LocalOrigin,
    RemoteOrigin,
    apply_filter_detailed,
    candidate_id,
    fetch_remote,
)
from catchrec.errors import AuthMissing, NetworkFailure, RateLimited
from catchrec.lexer import Token, TokenKind

QUERY = SearchQuery("IOException", "URL")


@pytest.fixture()
def corpus_dir(fixtures_dir) -> Path:
    return fixtures_dir / "corpus-listing2"


def test_ingest_keeps_the_listing(corpus_dir):
    kept = ingest_local(corpus_dir, QUERY)
    names = {c.origin.path for c in kept}
    assert "listing2.java" in names


def test_ingest_filters_by_rule(corpus_dir):
    kept = ingest_local(corpus_dir, QUERY)
    names = {c.origin.path for c in kept}
    assert "plain.java" not in names       # no try/catch
    assert "unrelated.java" not in names   # never mentions IOException
    assert "tiny.java" not in names        # below the sloc floor
    assert "long.java" not in names        # above the sloc ceiling


def test_reading_the_unit_keeps_candidates_equal():
    a, b = (Candidate.from_origin(LocalOrigin("a.java"), "int x;") for _ in range(2))
    assert a.unit.tokens
    assert a == b
    assert "unit" not in repr(a) and "scanned" not in repr(a)


def test_exclusion_reasons(corpus_dir):
    candidates = [
        Candidate.from_origin(LocalOrigin(p.name), p.read_text())
        for p in sorted(corpus_dir.glob("*.java"))
    ]
    kept, excluded = apply_filter_detailed(candidates, QUERY)
    reasons = { {c.id: c.origin.path for c in candidates}[e.candidate_id]: e.reason
                for e in excluded }
    assert reasons == {
        "plain.java": "no-handler",
        "unrelated.java": "no-exception-mention",
        "tiny.java": "too-short",
        "long.java": "too-long",
    }
    assert [c.origin.path for c in kept] == ["listing2.java"]


def _one_file_per_rule(corpus_dir) -> list[Candidate]:
    """The listing, one file for each rule with a query, and an unlexable one."""
    candidates = [
        Candidate.from_origin(LocalOrigin(p.name), p.read_text())
        for p in sorted(corpus_dir.glob("*.java"))
    ]
    return candidates + [Candidate.from_origin(LocalOrigin("blank.java"), "// only\n")]


def _spy_front_end(monkeypatch) -> tuple[list[str], list[str]]:
    """The texts passed to ``scan`` (by the corpus or inside ``parse``) and
    to ``parse``, in call order."""
    scanned: list[str] = []
    parsed: list[str] = []
    scan, parse = corpus_mod.scan, corpus_mod.parse

    def spy_scan(text):
        scanned.append(text)
        return scan(text)

    def spy_parse(text, *args):
        parsed.append(text)
        return parse(text, *args)

    monkeypatch.setattr(corpus_mod, "scan", spy_scan)
    monkeypatch.setattr(parser_mod, "scan", spy_scan)
    monkeypatch.setattr(corpus_mod, "parse", spy_parse)
    return scanned, parsed


def test_filter_scans_each_candidate_once_and_parses_only_the_kept(
    corpus_dir, listing1, monkeypatch
):
    candidates = _one_file_per_rule(corpus_dir)
    scanned, parsed = _spy_front_end(monkeypatch)
    kept, excluded = apply_filter_detailed(candidates, QUERY)
    assert sorted(e.reason for e in excluded) == [
        "no-exception-mention", "no-handler", "too-long", "too-short", "unlexable",
    ]
    assert parsed == []
    rank(listing1, kept, WeightConfig())
    assert scanned == [c.source_text for c in candidates]
    assert parsed == [c.source_text for c in kept] == [(corpus_dir / "listing2.java").read_text()]


def test_no_filter_still_parses_every_lexable_candidate(corpus_dir, listing1, monkeypatch):
    candidates = _one_file_per_rule(corpus_dir)
    scanned, parsed = _spy_front_end(monkeypatch)
    kept, excluded = apply_filter_detailed(candidates, None)
    assert [e.reason for e in excluded] == ["unlexable"]
    rank(listing1, kept, WeightConfig())
    assert scanned == [c.source_text for c in candidates]
    assert parsed == [c.source_text for c in candidates[:-1]]


_LONG_BODY = "".join(f"  a{i}();\n" for i in range(MAX_SLOC))


@pytest.mark.parametrize(
    "text, reason",
    [
        ("/* nothing */ // here\n", "unlexable"),
        ("int x;", "no-handler"),  # also no mention and too short
        ("try { a(); } catch (E e) { }", "no-exception-mention"),  # also too short
        ("try { a(); } catch (IOException e) { }", "too-short"),
        ("} try {\n a();\n} catch (IOException e) {\n}", None),  # Failed parse, kept
        ("}\ntry { a(); }\n", "no-exception-mention"),  # Failed parse
        ("try {\n" + _LONG_BODY + "} catch (IOException e) {\n}\n", "too-long"),
        (") try {\n" + _LONG_BODY + "} catch (IOException e) {\n}\n", "too-long"),
        ('a("try { } catch (IOException e) { }");\nb();\nc();\n', "no-handler"),
        ("// try { } catch (IOException e) { }\na();\nb();\nc();\n", "no-handler"),
        ("/* try */ a();\n/* catch */ b();\nc(IOException);\n", "no-handler"),
        ('try {\n  a("IOException");\n} catch (E e) {\n}\n', "no-exception-mention"),
    ],
    ids=[
        "unlexable", "no-handler", "no-mention", "too-short", "failed-kept",
        "failed-no-mention", "too-long", "failed-too-long", "handler-in-string",
        "handler-in-line-comment", "handler-in-block-comments", "mention-in-string",
    ],
)
def test_first_failing_rule_names_the_exclusion(text, reason):
    cand = Candidate.from_origin(LocalOrigin("x.java"), text)
    _kept, excluded = apply_filter_detailed([cand], QUERY)
    assert [e.reason for e in excluded] == ([reason] if reason else [])


def test_ingest_and_rank_build_no_token(monkeypatch, fixtures_dir, listing1):
    """The ranking path reads the scan's parallel tuples; a ``Token`` is
    only built for display."""
    built = []
    post_init = Token.__post_init__

    def counting(self):
        built.append(self.text)
        post_init(self)

    monkeypatch.setattr(Token, "__post_init__", counting)
    kept = ingest_local(fixtures_dir / "rankpool", QUERY)
    assert kept
    rank(listing1, kept, WeightConfig())
    assert built == []
    Token("x", TokenKind.IDENTIFIER)
    assert built == ["x"]  # the wrapper does count a built token


def test_empty_directory(tmp_path):
    assert ingest_local(tmp_path, QUERY) == []


def test_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest_local(tmp_path / "nope", QUERY)


def test_filter_soundness(corpus_dir):
    for cand in ingest_local(corpus_dir, QUERY):
        unit = cand.unit
        assert unit.handlers.try_blocks >= 1 or unit.handlers.catch_clauses
        assert any(t.text == QUERY.exception_name for t in unit.tokens)
        assert MIN_SLOC <= unit.sloc <= MAX_SLOC


def test_failed_parse_with_handler_stays_in_pool():
    text = (
        "}\ntry {\n  URL u = new URL(s);\n  u.openStream().read();\n"
        "} catch (IOException e) {\n  log.warn(e);\n}\n"
    )
    cand = Candidate.from_origin(LocalOrigin("broken.java"), text)
    assert cand.unit.parse_status is ParseStatus.FAILED
    kept, excluded = apply_filter_detailed([cand], QUERY)
    assert excluded == []
    assert kept == [cand]


_JAVA_PIECES = st.sampled_from(
    ["try", "catch", "finally", "tryAgain", "{", "}", "(", ")", ";", " ", "\n",
     "e", "IOException", "a.f()", "//", "/*", "*/", '"', "catch (E e)", "try {"]
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=80), st.lists(_JAVA_PIECES, max_size=30).map("".join)))
def test_handler_filter_agrees_with_parsed_handlers(text):
    """Wherever the parse succeeds, the keyword test of the filter drops
    exactly the units without a parsed try block or catch clause."""
    cand = Candidate.from_origin(LocalOrigin("x.java"), text)
    unit = cand.unit
    assume(unit.tokens and unit.parse_status is not ParseStatus.FAILED)
    _kept, excluded = apply_filter_detailed([cand], QUERY)
    dropped = [e.reason for e in excluded] == ["no-handler"]
    assert dropped == (unit.handlers.try_blocks == 0 and not unit.handlers.catch_clauses)


def test_ingest_order_and_ids_deterministic(corpus_dir):
    first = ingest_local(corpus_dir, QUERY)
    second = ingest_local(corpus_dir, QUERY)
    assert [c.id for c in first] == [c.id for c in second]
    assert [c.id for c in first] == sorted(c.id for c in first)


def test_candidate_id_is_stable_hash_of_origin():
    a = candidate_id(LocalOrigin("x/y.java"))
    assert a == candidate_id(LocalOrigin("x/y.java"))
    assert a != candidate_id(LocalOrigin("x/z.java"))
    assert a != candidate_id(RemoteOrigin("org/repo", "x/y.java", "http://..."))
    assert len(a) == 16


def test_filter_without_query_drops_only_unlexable():
    code = Candidate.from_origin(LocalOrigin("a.java"), "int x;")
    comment = Candidate.from_origin(LocalOrigin("b.java"), "// nothing but a comment\n")
    kept, excluded = apply_filter_detailed([code, comment], None)
    assert kept == [code]
    assert excluded == [Exclusion(comment.id, "unlexable")]


def test_unreadable_file_skipped(tmp_path, caplog):
    good = tmp_path / "good.java"
    good.write_text("try { go(); } catch (IOException e) { log(e); }\nint pad = 1;\nint more = 2;\n")
    bad = tmp_path / "bad.java"
    bad.write_bytes(b"\xff\xfe\x00broken\x00")
    import logging

    with caplog.at_level(logging.WARNING):
        kept = ingest_local(tmp_path, QUERY)
    assert [c.origin.path for c in kept] == ["good.java"]
    assert any("unreadable" in m for m in caplog.messages)


# ---------------------------------------------------------------------------
# Remote search client
# ---------------------------------------------------------------------------

SEARCH_PAYLOAD = {
    "items": [
        {
            "url": "https://api.example/fetch/one",
            "path": "src/One.java",
            "html_url": "https://example/one",
            "repository": {"full_name": "apache/demo"},
        },
        {
            "url": "https://api.example/fetch/two",
            "path": "src/Two.java",
            "html_url": "https://example/two",
            "repository": {"full_name": "apache/demo"},
        },
    ]
}

FILE_BODIES = {
    "https://api.example/fetch/one": b"try { a(); } catch (IOException e) { one(e); }",
    "https://api.example/fetch/two": b"try { b(); } catch (IOException e) { two(e); }",
}


def fake_transport(url, headers):
    if url.startswith("https://api.github.com/search/code"):
        return 200, json.dumps(SEARCH_PAYLOAD).encode()
    if url in FILE_BODIES:
        return 200, FILE_BODIES[url]
    return 404, b"not found"


def test_fetch_remote_downloads_and_caches(tmp_path):
    out = fetch_remote(
        QUERY, ["apache"], limit=5, cache_dir=tmp_path, token="t", transport=fake_transport
    )
    assert len(out) == 2
    assert {c.origin.path for c in out} == {"src/One.java", "src/Two.java"}
    manifests = list(tmp_path.rglob("manifest.json"))
    assert len(manifests) == 1
    manifest = json.loads(manifests[0].read_text())
    assert manifest["complete"] is True
    assert len(manifest["candidates"]) == 2


def test_fetch_remote_warm_cache_uses_no_network(tmp_path):
    fetch_remote(QUERY, ["apache"], limit=5, cache_dir=tmp_path, token="t", transport=fake_transport)
    manifest_path = next(tmp_path.rglob("manifest.json"))
    before = manifest_path.read_bytes()

    def exploding_transport(url, headers):  # any call means the cache missed
        raise AssertionError(f"unexpected network call: {url}")

    replay = fetch_remote(
        QUERY, ["apache"], limit=5, cache_dir=tmp_path, token=None, transport=exploding_transport
    )
    assert [c.id for c in replay] == sorted(c.id for c in replay)
    assert {c.source_text for c in replay} == {
        body.decode() for body in FILE_BODIES.values()
    }
    assert manifest_path.read_bytes() == before


def test_fetch_remote_limit_zero(tmp_path):
    assert fetch_remote(QUERY, ["apache"], limit=0, cache_dir=tmp_path) == []


def test_fetch_remote_limit_honored(tmp_path):
    out = fetch_remote(
        QUERY, ["apache"], limit=1, cache_dir=tmp_path, token="t", transport=fake_transport
    )
    assert len(out) == 1
    manifest = json.loads(next(tmp_path.rglob("manifest.json")).read_text())
    assert len(manifest["candidates"]) <= 1


def test_fetch_remote_result_does_not_depend_on_org_order(tmp_path):
    def per_org(url, headers):
        if url.startswith("https://api.github.com/search/code"):
            org = urllib.parse.parse_qs(urllib.parse.urlsplit(url).query)["q"][0].rsplit(":", 1)[1]
            item = {
                "url": f"https://api.example/fetch/{org}",
                "path": "R.java",
                "repository": {"full_name": f"{org}/r"},
            }
            return 200, json.dumps({"items": [item]}).encode()
        return 200, b"try { a(); } catch (IOException e) { b(e); }"

    def repos(orgs, cache_dir, transport=per_org):
        out = fetch_remote(
            QUERY, orgs, limit=1, cache_dir=cache_dir, token="t", transport=transport
        )
        return [c.origin.repo for c in out]

    def exploding_transport(url, headers):  # any call means the cache missed
        raise AssertionError(url)

    assert repos(["a", "b"], tmp_path / "ab") == repos(["b", "a"], tmp_path / "ba") == ["a/r"]
    assert repos(["a", "b"], tmp_path / "ba", exploding_transport) == ["a/r"]


def _paged_search(totals, searches):
    """A transport whose search holds ``totals[org]`` results per org and
    serves them as the search API does: ``per_page`` capped at 100, pages
    counted from 1, at most 1,000 results a search. Each search URL is
    appended to ``searches``."""

    def transport(url, headers):
        if not url.startswith(corpus_mod.SEARCH_ENDPOINT):
            return 200, b"try { a(); } catch (IOException e) { b(e); }"
        searches.append(url)
        params = urllib.parse.parse_qs(urllib.parse.urlsplit(url).query)
        org = params["q"][0].rsplit(":", 1)[1]
        per_page = min(int(params["per_page"][0]), 100)
        page = int(params.get("page", ["1"])[0])
        stop = min(page * per_page, totals[org], 1000)
        items = [
            {
                "url": f"https://api.example/fetch/{org}/{k}",
                "path": f"F{k}.java",
                "repository": {"full_name": f"{org}/r"},
            }
            for k in range((page - 1) * per_page, stop)
        ]
        return 200, json.dumps({"items": items}).encode()

    return transport


def _search_pages(searches):
    """The org, page and ``per_page`` of each search URL."""
    pages = []
    for url in searches:
        params = urllib.parse.parse_qs(urllib.parse.urlsplit(url).query)
        org = params["q"][0].rsplit(":", 1)[1]
        pages.append((org, params.get("page", ["1"])[0], params["per_page"][0]))
    return pages


def test_fetch_remote_pages_past_one_hundred(tmp_path):
    searches = []
    out = fetch_remote(
        QUERY, ["apache"], limit=150, cache_dir=tmp_path, token="t",
        transport=_paged_search({"apache": 250}, searches),
    )
    assert len(out) == 150
    assert _search_pages(searches) == [("apache", "1", "100"), ("apache", "2", "100")]
    manifest = json.loads(next(tmp_path.rglob("manifest.json")).read_text())
    assert manifest["complete"] is True
    assert len(manifest["candidates"]) == 150


def test_fetch_remote_moves_to_the_next_org_when_one_runs_out_mid_page(tmp_path):
    searches = []
    out = fetch_remote(
        QUERY, ["b", "a"], limit=300, cache_dir=tmp_path, token="t",
        transport=_paged_search({"a": 130, "b": 250}, searches),
    )
    assert _search_pages(searches) == [
        ("a", "1", "100"), ("a", "2", "100"), ("b", "1", "100"), ("b", "2", "100"),
    ]
    repos = [c.origin.repo for c in out]
    assert (repos.count("a/r"), repos.count("b/r")) == (130, 170)


def test_fetch_remote_stops_paging_at_the_search_result_cap(tmp_path):
    searches = []
    out = fetch_remote(
        QUERY, ["apache"], limit=1500, cache_dir=tmp_path, token="t",
        transport=_paged_search({"apache": 5000}, searches),
    )
    assert len(out) == 1000
    assert [page for _, page, _ in _search_pages(searches)] == [str(k) for k in range(1, 11)]


def test_fetch_remote_asks_one_page_per_org_up_to_one_hundred(tmp_path):
    searches = []
    fetch_remote(
        QUERY, ["apache"], limit=70, cache_dir=tmp_path, token="t",
        transport=_paged_search({"apache": 250}, searches),
    )
    q = f"{QUERY.rendered} language:java org:apache"
    assert searches == [
        f"{corpus_mod.SEARCH_ENDPOINT}?{urllib.parse.urlencode({'q': q, 'per_page': 70})}"
    ]


def test_fetch_remote_requires_token(tmp_path, monkeypatch):
    monkeypatch.delenv("GITHUB_TOKEN", raising=False)
    with pytest.raises(AuthMissing):
        fetch_remote(QUERY, ["apache"], limit=5, cache_dir=tmp_path, transport=fake_transport)


def test_fetch_remote_rate_limited_backs_off(tmp_path):
    sleeps: list[float] = []
    calls = {"n": 0}

    def limited(url, headers):
        calls["n"] += 1
        return 403, b"slow down"

    with pytest.raises(RateLimited):
        fetch_remote(
            QUERY,
            ["apache"],
            limit=5,
            cache_dir=tmp_path,
            token="t",
            transport=limited,
            sleeper=sleeps.append,
        )
    assert sleeps == [1.0, 2.0, 4.0]  # bounded exponential backoff
    assert calls["n"] == 4


def _fetch_rate_limited_on_eclipse(tmp_path):
    def flaky(url, headers):
        if "eclipse" in url:  # the query string is percent-encoded
            return 403, b"slow down"
        return fake_transport(url, headers)

    return fetch_remote(
        QUERY,
        ["apache", "eclipse"],
        limit=5,
        cache_dir=tmp_path,
        token="t",
        transport=flaky,
        sleeper=lambda _d: None,
    )


def test_fetch_remote_partial_on_mid_run_rate_limit(tmp_path):
    out = _fetch_rate_limited_on_eclipse(tmp_path)
    assert len(out) == 2  # apache results survive
    manifest = json.loads(next(tmp_path.rglob("manifest.json")).read_text())
    assert manifest["complete"] is False


def test_fetch_remote_refetches_partial_cache_with_token(tmp_path):
    _fetch_rate_limited_on_eclipse(tmp_path)
    calls: list[str] = []

    def counting(url, headers):
        calls.append(url)
        return fake_transport(url, headers)

    out = fetch_remote(
        QUERY, ["apache", "eclipse"], limit=5, cache_dir=tmp_path, token="t", transport=counting
    )
    assert calls
    assert len(out) == 2
    manifest = json.loads(next(tmp_path.rglob("manifest.json")).read_text())
    assert manifest["complete"] is True


def test_fetch_remote_replays_partial_cache_without_token(tmp_path, monkeypatch):
    _fetch_rate_limited_on_eclipse(tmp_path)
    monkeypatch.delenv("GITHUB_TOKEN", raising=False)
    manifest_path = next(tmp_path.rglob("manifest.json"))
    before = manifest_path.read_bytes()

    def exploding_transport(url, headers):
        raise AssertionError(f"unexpected network call: {url}")

    out = fetch_remote(
        QUERY, ["apache", "eclipse"], limit=5, cache_dir=tmp_path, transport=exploding_transport
    )
    assert len(out) == 2
    assert manifest_path.read_bytes() == before


def test_refetch_removes_cached_files_the_manifest_drops(tmp_path):
    def failing(suffix):
        def transport(url, headers):
            return (404, b"gone") if url.endswith(suffix) else fake_transport(url, headers)

        return transport

    for suffix in ("/two", "/one"):  # the first fetch is partial, so the second refetches
        fetch_remote(
            QUERY, ["apache"], limit=5, cache_dir=tmp_path, token="t", transport=failing(suffix)
        )
    manifest_path = next(tmp_path.rglob("manifest.json"))
    listed = [entry["file"] for entry in json.loads(manifest_path.read_text())["candidates"]]
    files_dir = manifest_path.parent / "files"
    assert len(listed) == 1
    assert sorted(p.name for p in files_dir.iterdir()) == listed
    assert len(ingest_local(files_dir, None)) == 1


def test_fetch_remote_skips_a_download_that_fails(tmp_path, caplog):
    def failing(url, headers):
        if url.endswith("/two"):
            raise NetworkFailure("connection reset")
        return fake_transport(url, headers)

    with caplog.at_level("WARNING"):
        out = fetch_remote(
            QUERY, ["apache"], limit=5, cache_dir=tmp_path, token="t", transport=failing
        )
    assert [c.origin.path for c in out] == ["src/One.java"]
    assert [m for m in caplog.messages if m.startswith("skipping")] == [
        "skipping src/Two.java: connection reset"
    ]
    assert json.loads(next(tmp_path.rglob("manifest.json")).read_text())["complete"] is False


def test_fetch_remote_downloads_one_file_at_a_time_in_search_order(tmp_path, caplog):
    names = ["e", "b", "f", "a", "d", "c"]  # the search's order, not a sorted one
    payload = {
        "items": [
            {"url": f"https://api.example/fetch/{name}", "path": f"src/{name}.java"}
            for name in names
        ]
    }
    downloads: list[str] = []
    overlapping: list[str] = []
    running = 0

    def recording(url, headers):
        nonlocal running
        if url.startswith(corpus_mod.SEARCH_ENDPOINT):
            return 200, json.dumps(payload).encode()
        if running:
            overlapping.append(url)
        running += 1
        downloads.append(url)
        try:
            time.sleep(0.005)  # time enough for a concurrent download to start
            if url.endswith("/f"):
                raise NetworkFailure("connection reset")
            if url.endswith("/d"):
                return 404, b"not found"
            return 200, FILE_BODIES["https://api.example/fetch/one"]
        finally:
            running -= 1

    with caplog.at_level("WARNING"):
        out = fetch_remote(
            QUERY, ["apache"], limit=10, cache_dir=tmp_path, token="t", transport=recording
        )
    assert downloads == [item["url"] for item in payload["items"]]
    assert overlapping == []
    assert [m for m in caplog.messages if m.startswith("skipping")] == [
        "skipping src/f.java: connection reset",
        "skipping src/d.java: HTTP 404",
    ]
    assert sorted(c.origin.path for c in out) == [f"src/{name}.java" for name in "abce"]


def test_fetch_remote_starts_no_thread(tmp_path, monkeypatch):
    def refuse(thread):
        raise AssertionError(f"fetch_remote started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    out = fetch_remote(
        QUERY, ["apache"], limit=5, cache_dir=tmp_path, token="t", transport=fake_transport
    )
    assert len(out) == 2


def test_fetch_remote_server_error_is_network_failure(tmp_path):
    def broken(url, headers):
        return 500, b"boom"

    with pytest.raises(NetworkFailure):
        fetch_remote(
            QUERY, ["apache"], limit=5, cache_dir=tmp_path, token="t", transport=broken
        )


def test_fetch_remote_auth_rejection(tmp_path):
    def rejected(url, headers):
        return 401, b"bad token"

    with pytest.raises(AuthMissing):
        fetch_remote(
            QUERY, ["apache"], limit=5, cache_dir=tmp_path, token="t", transport=rejected
        )
