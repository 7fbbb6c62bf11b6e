import io
import json
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from catchrec import ParseStatus, SearchQuery, WeightConfig, ingest_local, parse, rank
from catchrec import corpus as corpus_mod
from catchrec import parser as parser_mod
from catchrec.corpus import (
    MAX_SLOC,
    MIN_SLOC,
    Candidate,
    LocalOrigin,
    RemoteOrigin,
    apply_filter_detailed,
    candidate_id,
    exclusion,
    fetch_remote,
)
from catchrec.errors import AuthMissing, NetworkFailure, RateLimited
from catchrec.lexer import KEYWORDS, SYMBOLS, WORD_LITERALS, WORD_START, TokenKind, scan
from catchrec import lexical as lexical_mod

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


def test_a_record_keeps_candidates_equal():
    a, b = (Candidate.from_origin(LocalOrigin("a.java"), "int x;") for _ in range(2))
    assert apply_filter_detailed([a], None) == ([a], [])
    assert a.record.prepared.texts and b.record is None
    assert a == b
    assert "record" not in repr(a)


def test_exclusion_reasons(corpus_dir):
    candidates = [
        Candidate.from_origin(LocalOrigin(p.name), p.read_text())
        for p in sorted(corpus_dir.glob("*.java"))
    ]
    kept, dropped = apply_filter_detailed(candidates, QUERY)
    reasons = {c.origin.path: exclusion(c.record, QUERY) for c in dropped}
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


def test_filter_scans_each_candidate_once_and_parses_each_lexable_one_once(
    corpus_dir, listing1, monkeypatch
):
    candidates = _one_file_per_rule(corpus_dir)
    scanned, parsed = _spy_front_end(monkeypatch)
    kept, dropped = apply_filter_detailed(candidates, QUERY)
    assert [exclusion(c.record, QUERY) for c in dropped] == [
        "too-long", "no-handler", "too-short", "no-exception-mention", "unlexable",
    ]
    assert [c.source_text for c in kept] == [(corpus_dir / "listing2.java").read_text()]
    # a record is made whatever the query, so a dropped lexable file is parsed too
    assert parsed == [c.source_text for c in candidates[:-1]]
    rank(listing1, kept, WeightConfig())  # reads the filter's prepared forms
    assert scanned == [c.source_text for c in candidates]
    assert parsed == [c.source_text for c in candidates[:-1]]


def test_no_filter_still_parses_every_lexable_candidate(corpus_dir, listing1, monkeypatch):
    candidates = _one_file_per_rule(corpus_dir)
    scanned, parsed = _spy_front_end(monkeypatch)
    kept, dropped = apply_filter_detailed(candidates, None)
    assert dropped == candidates[-1:] and exclusion(dropped[0].record, None) == "unlexable"
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
    kept, dropped = apply_filter_detailed([cand], QUERY)
    assert (kept, dropped) == (([cand], []) if reason is None else ([], [cand]))
    assert exclusion(cand.record, QUERY) == reason


def test_ingest_and_rank_build_no_token(monkeypatch, fixtures_dir, listing1):
    """The ranking path reads the scan's parallel tuples; it never calls
    ``significant_tokens``, the only function that builds a ``Token``."""

    def refuse(unit):
        raise AssertionError("ranking built a Token")

    monkeypatch.setattr(lexical_mod, "significant_tokens", refuse)
    kept = ingest_local(fixtures_dir / "rankpool", QUERY)
    assert kept
    assert rank(listing1, kept, WeightConfig())


def test_empty_directory(tmp_path):
    assert ingest_local(tmp_path, QUERY) == []


def test_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest_local(tmp_path / "nope", QUERY)


def test_filter_soundness(corpus_dir):
    for cand in ingest_local(corpus_dir, QUERY):
        unit = parse(cand.source_text)
        assert unit.handlers.try_blocks >= 1 or unit.handlers.catch_clauses
        assert QUERY.exception_name in unit.texts
        assert MIN_SLOC <= unit.sloc <= MAX_SLOC


def test_failed_parse_with_handler_stays_in_pool():
    text = (
        "}\ntry {\n  URL u = new URL(s);\n  u.openStream().read();\n"
        "} catch (IOException e) {\n  log.warn(e);\n}\n"
    )
    cand = Candidate.from_origin(LocalOrigin("broken.java"), text)
    assert parse(text).parse_status is ParseStatus.FAILED
    assert apply_filter_detailed([cand], QUERY) == ([cand], [])
    assert cand.record.prepared.graph is None


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
    unit = parse(text)
    assume(unit.texts and unit.parse_status is not ParseStatus.FAILED)
    _kept, dropped = apply_filter_detailed([cand], QUERY)
    no_handler = dropped == [cand] and exclusion(cand.record, QUERY) == "no-handler"
    assert no_handler == (unit.handlers.try_blocks == 0 and not unit.handlers.catch_clauses)


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
    assert apply_filter_detailed([code, comment], None) == ([code], [comment])
    assert exclusion(comment.record, None) == "unlexable"


def _tree_of_every_walk_case(root: Path) -> None:
    """Dotfiles, names that sort apart from their joined paths, a symlinked
    directory and file, a dangling link, a directory named ``x.java`` and an
    unreadable subdirectory (unreadable only when not run as root)."""
    text = "try { go(); } catch (IOException e) { log(e); }\nURL u = null;\nint more = 2;\n"
    for rel in ("a/b.java", "a-b/x.java", "a.java", "a b/c.java", ".hidden.java", ".java",
                ".dot/d.java", "deep/er/est/e.java", "upper/F.JAVA", "upper/G.Java", "notes.txt",
                "javafile", "locked/l.java", "target/t.java"):
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    (root / "x.java").mkdir()
    (root / "x.java" / "inner.java").write_text(text)
    (root / "linked").symlink_to(root / "target", target_is_directory=True)
    (root / "linked.java").symlink_to(root / "target", target_is_directory=True)
    (root / "alias.java").symlink_to(root / "a.java")
    (root / "dangling.java").symlink_to(root / "missing.java")
    (root / "locked").chmod(0)


def test_the_walk_finds_what_sorted_rglob_finds(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    _tree_of_every_walk_case(root)
    try:
        walked = corpus_mod._java_files(str(root))
        expected = sorted(root.rglob("*.java"))
    finally:
        (root / "locked").chmod(0o755)
    assert [path for _parts, path in walked] == [str(p) for p in expected]
    assert [parts for parts, _path in walked] == [p.relative_to(root).parts for p in expected]
    names = [p.relative_to(root).as_posix() for p in expected]
    assert names.index("a/b.java") < names.index("a-b/x.java")
    assert {".hidden.java", ".java", ".dot/d.java", "x.java", "x.java/inner.java"} <= set(names)
    assert not any(name.startswith("linked/") for name in names)


def test_ingest_tries_every_walked_path_and_warns_for_what_it_cannot_read(tmp_path, caplog):
    import logging

    root = tmp_path / "corpus"
    root.mkdir()
    _tree_of_every_walk_case(root)
    (root / "locked").chmod(0o755)
    with caplog.at_level(logging.WARNING):
        kept = ingest_local(root, QUERY)
    unreadable = {"x.java", "linked.java", "dangling.java"}
    expected = [p.relative_to(root).as_posix() for p in sorted(root.rglob("*.java"))]
    assert sorted(c.origin.path for c in kept) == sorted(set(expected) - unreadable)
    warned = [m for m in caplog.messages if m.startswith("skipping unreadable corpus file")]
    assert [m.split()[4].rstrip(":") for m in warned] == [str(root / rel) for rel in sorted(unreadable)]


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


def test_fetch_remote_uses_each_org_once(tmp_path):
    def fetch(orgs, cache_dir):
        requests = []

        def transport(url, headers):
            requests.append(url)
            return fake_transport(url, headers)

        out = fetch_remote(QUERY, orgs, limit=5, cache_dir=cache_dir, token="t", transport=transport)
        return [c.id for c in out], requests

    twice = fetch(["apache", "apache"], tmp_path / "twice")
    assert twice == fetch(["apache"], tmp_path / "once")
    assert len(twice[1]) == 3  # one search, then each of its two files
    (manifest,) = (tmp_path / "twice").rglob("manifest.json")
    assert json.loads(manifest.read_text())["orgs"] == ["apache"]
    # either list reads the other's cache entry
    assert fetch(["apache"], tmp_path / "twice") == (twice[0], [])
    assert fetch(["apache", "apache"], tmp_path / "once") == (twice[0], [])


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


def _rate_limited_download(suffix, answers, requests):
    """A transport that records each URL in ``requests``, answers the
    download ending in ``suffix`` with the statuses of ``answers`` in turn
    (the last one repeating), and every other request as ``fake_transport``
    does."""
    answers = iter(answers)
    status = None

    def transport(url, headers):
        nonlocal status
        requests.append(url)
        if url.endswith(suffix):
            status = next(answers, status)
            return status, FILE_BODIES[url]
        return fake_transport(url, headers)

    return transport


def test_fetch_remote_retries_a_rate_limited_download(tmp_path):
    sleeps: list[float] = []
    requests: list[str] = []
    out = fetch_remote(
        QUERY, ["apache"], limit=5, cache_dir=tmp_path, token="t",
        transport=_rate_limited_download("/two", [429, 200], requests), sleeper=sleeps.append,
    )
    assert {c.origin.path for c in out} == {"src/One.java", "src/Two.java"}
    assert requests.count("https://api.example/fetch/two") == 2
    assert sleeps == [1.0]
    assert json.loads(next(tmp_path.rglob("manifest.json")).read_text())["complete"] is True


def test_fetch_remote_stops_downloading_when_still_rate_limited(tmp_path, caplog):
    sleeps: list[float] = []
    requests: list[str] = []
    with caplog.at_level("WARNING"):
        out = fetch_remote(
            QUERY, ["apache"], limit=5, cache_dir=tmp_path, token="t",
            transport=_rate_limited_download("/one", [429], requests), sleeper=sleeps.append,
        )
    assert out == []
    # four attempts at the first file, and the second is never asked for
    assert requests[1:] == ["https://api.example/fetch/one"] * 4
    assert sleeps == [1.0, 2.0, 4.0]
    assert [m for m in caplog.messages if m.startswith("stopping")] == [
        "stopping downloads at src/One.java: still rate-limited after 4 attempts"
    ]
    assert json.loads(next(tmp_path.rglob("manifest.json")).read_text())["complete"] is False


def test_fetch_remote_keeps_the_files_downloaded_before_a_rate_limit(tmp_path):
    out = fetch_remote(
        QUERY, ["apache"], limit=5, cache_dir=tmp_path, token="t",
        transport=_rate_limited_download("/two", [429], []), sleeper=lambda _d: None,
    )
    assert [c.origin.path for c in out] == ["src/One.java"]
    manifest_path = next(tmp_path.rglob("manifest.json"))
    manifest = json.loads(manifest_path.read_text())
    assert manifest["complete"] is False
    assert [e["path"] for e in manifest["candidates"]] == ["src/One.java"]
    assert len(list((manifest_path.parent / "files").iterdir())) == 1


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


URL = "https://api.example/fetch/one"


class _Response:
    status = 200

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self):
        return b"class A {}"


@pytest.mark.parametrize(
    "outcome, want",
    [
        (_Response(), (200, b"class A {}")),
        (urllib.error.HTTPError(URL, 404, "Not Found", None, io.BytesIO(b"gone")), (404, b"gone")),
        (urllib.error.URLError("no route to host"), None),
        (ConnectionResetError("reset by peer"), None),
    ],
    ids=["answer", "http-error", "url-error", "os-error"],
)
def test_default_transport(monkeypatch, outcome, want):
    seen = []

    def urlopen(request, timeout):
        seen.append((request.full_url, request.get_header("Authorization"), timeout))
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    if want is None:
        with pytest.raises(NetworkFailure, match=f"request to {URL} failed"):
            corpus_mod._default_transport(URL, {"Authorization": "Bearer t"})
    else:
        assert corpus_mod._default_transport(URL, {"Authorization": "Bearer t"}) == want
    assert seen == [(URL, "Bearer t", 30)]


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


# ---------------------------------------------------------------------------
# Cache writes and stored analyses
# ---------------------------------------------------------------------------


def test_fetch_remote_writes_past_a_stale_manifest_tmp_directory(tmp_path):
    entry = tmp_path / corpus_mod._cache_key(QUERY, ["apache"], 5)
    (entry / "manifest.tmp").mkdir(parents=True)
    out = fetch_remote(QUERY, ["apache"], limit=5, cache_dir=tmp_path, token="t", transport=fake_transport)
    assert len(out) == 2
    assert json.loads((entry / "manifest.json").read_text())["complete"] is True
    # no temporary file is left beside the manifest
    assert sorted(p.name for p in entry.iterdir()) == ["files", "manifest.json", "manifest.tmp"]


def test_write_atomic_removes_its_temporary_file_on_failure(tmp_path, monkeypatch):
    target = tmp_path / "manifest.json"
    target.write_text("old\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(corpus_mod.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        corpus_mod._write_atomic(target, "new\n")
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
    assert target.read_text() == "old\n"


def test_write_atomic_gives_the_file_the_usual_mode(tmp_path):
    corpus_mod._write_atomic(tmp_path / "a.json", "{}\n")
    (tmp_path / "b.json").write_text("{}\n")
    assert (tmp_path / "a.json").stat().st_mode == (tmp_path / "b.json").stat().st_mode


def _analysis_files(cache_dir: Path) -> list[Path]:
    return sorted(cache_dir.rglob(corpus_mod.ANALYSIS_FILE))


def test_only_a_warm_replay_reads_or_writes_the_analysis_file(tmp_path):
    def fetch():
        return fetch_remote(
            QUERY, ["apache"], limit=5, cache_dir=tmp_path, token="t", transport=fake_transport
        )

    cold = fetch()  # a cold fetch analyses nothing
    assert _analysis_files(tmp_path) == [] and all(c.record is None for c in cold)
    warm = fetch()
    assert len(_analysis_files(tmp_path)) == 1
    assert all(c.record is not None for c in warm)
    files_dir = next(tmp_path.rglob("files"))
    ingest_local(files_dir, QUERY)
    assert sorted(p.name for p in files_dir.iterdir()) == sorted(f"{c.id}.java" for c in warm)
    assert len(_analysis_files(tmp_path)) == 1


def test_a_stored_record_reads_back_as_the_computed_analysis(corpus_dir):
    candidates = _one_file_per_rule(corpus_dir) + [
        Candidate.from_origin(LocalOrigin("broken.java"), "}\ntry { a(); }\ncatch (IOException e) { b(); }\n"),
        Candidate.from_origin(LocalOrigin("marks.java"), "{ } ;\n( ) ;\n"),
    ]
    records = [corpus_mod.judge(c.source_text) for c in candidates]
    for record in records:
        stored = json.loads(json.dumps(corpus_mod._record_json(record)))
        assert ("analysis" in stored) == (record.prepared is not None) == (stored["sloc"] > 0)
        loaded = corpus_mod._record_from_json(stored)
        assert loaded.sloc == record.sloc
        want, got = record.prepared, loaded.prepared
        if want is None:
            assert got is None
            continue
        assert got.texts == want.texts
        assert list(got.subtokens.items()) == list(want.subtokens.items())
        assert got.norm == want.norm
        assert got.graph == want.graph
        assert got.quality == want.quality
    # every lexable file is prepared, whatever the filter would say of it
    assert [r.prepared is not None for r in records] == [True] * 5 + [False] + [True] * 2
    # a parsed unit's graph and a failed parse's null graph both go round
    assert sorted({r.prepared.graph is None for r in records if r.prepared}) == [False, True]
    # only punctuation: lexable, with code lines, but no significant token
    assert records[-1].sloc == 2 and records[-1].prepared.texts == ()


def _kind_rule_vector(text: str) -> list[tuple[str, int]]:
    """The subtoken vector by the scan's own kinds: an identifier token by
    its uncached parts, any other significant token whole, in order."""
    scanned = scan(text)
    split = lexical_mod._identifier_parts.__wrapped__
    return list(Counter(
        part
        for t, kind in zip(scanned.texts, scanned.kinds)
        if kind in lexical_mod.SIGNIFICANT_KINDS
        for part in (split(t) if kind is TokenKind.IDENTIFIER else [t])
    ).items())


def test_the_vector_read_back_from_texts_is_the_one_prepare_counts():
    """For every distinct seed-1 text of the three bench workloads, contexts
    and pool files: the vector a stored record's texts give back equals the
    one :func:`prepare` counted, items in order, and both equal the vector
    counted by the scan's token kinds."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import generate

    fixtures = Path(__file__).resolve().parent / "fixtures"
    texts = {}
    for name in ("fragment-70", "whole-method-70", "paper-eval-65"):
        for case in generate.build(name, 1, fixtures).cases:
            texts.update(dict.fromkeys([case.context, *(f.text for f in case.pool)]))
    assert len(texts) > 2000
    for text in texts:
        record = corpus_mod.judge(text)
        if record.prepared is None:
            continue
        stored = json.loads(json.dumps(corpus_mod._record_json(record)))
        assert "subtokens" not in stored["analysis"]
        loaded = corpus_mod._record_from_json(stored).prepared
        want = list(record.prepared.subtokens.items())
        assert list(loaded.subtokens.items()) == want == _kind_rule_vector(text)


def test_every_keyword_and_word_literal_is_its_own_one_part():
    """subtoken_vector splits every word, so a keyword, true, false and
    null count whole only because each is its own one part."""
    for word in KEYWORDS | WORD_LITERALS:
        assert word[0] in WORD_START
        assert lexical_mod._identifier_parts.__wrapped__(word) == (word,)
        assert scan(word).kinds[0] is not TokenKind.IDENTIFIER


def test_the_fingerprint_is_computed_once_per_process():
    first = corpus_mod.analysis_fingerprint()
    assert corpus_mod.analysis_fingerprint() is first
    assert len(first) == 64


def test_the_fingerprint_reads_every_module_of_the_package(monkeypatch):
    read = []
    read_bytes = Path.read_bytes

    def spy(path):
        read.append(path.name)
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", spy)
    assert corpus_mod.analysis_fingerprint.__wrapped__() == corpus_mod.analysis_fingerprint()
    package = Path(corpus_mod.__file__).parent
    assert read == sorted(p.name for p in package.glob("*.py"))
    assert {"cli.py", "ranking.py", "structural.py"} <= set(read)


def test_the_filter_reads_the_record_not_the_text():
    text = "try {\n  u.openStream();\n} catch (IOException e) {\n  log(e);\n}\n"
    cand = Candidate.from_origin(LocalOrigin("a.java"), text)
    assert apply_filter_detailed([cand], QUERY) == ([cand], [])
    # a record that says otherwise than the text, to tell which one is read
    record = cand.record = corpus_mod.judge("int x;\nint y;\nint z;\n")
    for query, verdict in ((QUERY, ([], [cand])), (None, ([cand], []))):
        assert apply_filter_detailed([cand], query) == verdict
        assert cand.record is record
    assert exclusion(record, QUERY) == "no-handler"
    assert exclusion(corpus_mod.Record(0, None), None) == "unlexable"


def _oracle_reason(text: str, query: SearchQuery | None) -> str | None:
    """The filter's rule as it read a scan before records were query-free:
    the token texts of every kind and the scan's code lines."""
    scanned = scan(text)
    texts = scanned.texts
    if not texts:
        return "unlexable"
    if query is None:
        return None
    if "try" not in texts and "catch" not in texts:
        return "no-handler"
    if query.exception_name not in texts:
        return "no-exception-mention"
    sloc = len(scanned.code_lines)
    if sloc < MIN_SLOC:
        return "too-short"
    if sloc > MAX_SLOC:
        return "too-long"
    return None


_ORACLE_PIECES = st.sampled_from(
    ["try", "catch", "finally", "tryAgain", "{", "}", "(", ")", ";", "+", "==", "@", " ", "\n",
     "e", "IOException", "Exception", "a.f()", "42", "null", "'c'", '"try"', '"IOException"',
     "// try IOException\n", "/* catch */", "/* IOException\n */", '"catch (IOException e)"']
)
_COMMENTS = st.sampled_from(["// try { } catch (IOException e)\n", "/* IOException */", "/* a\n b */", " ", "\n"])
_MARKS = st.sampled_from(sorted(SYMBOLS - {"/", "/="}) + [" ", "\n"])
_HANDLER_LINE = "try { a(); } catch (IOException e) { b(); }"


def _lines(n: int, filler: str = "c();") -> str:
    """A text of ``n`` code lines that passes every rule but the line bounds."""
    return "\n".join([_HANDLER_LINE] + [filler] * (n - 1)) + "\n"


@st.composite
def _oracle_text(draw) -> str:
    """A text of one of the kinds the two rules could tell apart."""
    arm = draw(st.sampled_from(["any", "pieces", "comments", "marks", "lines"]))
    if arm == "any":
        return draw(st.text(max_size=60))
    if arm == "pieces":
        return "".join(draw(st.lists(_ORACLE_PIECES, max_size=40)))
    if arm == "comments":
        return "".join(draw(st.lists(_COMMENTS, min_size=1, max_size=6)))
    if arm == "marks":
        return "".join(draw(st.lists(_MARKS, min_size=1, max_size=12)))
    lines = draw(st.sampled_from([1, 2, 3, 4, 299, 300, 301, 302]))
    return _lines(lines, draw(st.sampled_from(["c();", "/* */ c();", '"try";'])))


_NAMES = st.one_of(
    st.just("IOException"),  # the name the generated handlers catch
    st.sampled_from(["Exception", "E", "e", "try", "catch", "null", "42", "'c'",
                     '"IOException"', "a.f()", "IO Exception"]),
    st.text(min_size=1, max_size=12).filter(lambda name: name not in SYMBOLS),
)
_QUERIES = st.none() | st.builds(SearchQuery, _NAMES, st.just("URL"))


@settings(max_examples=500, deadline=None)
@given(_oracle_text(), _QUERIES)
@example(_lines(MIN_SLOC - 1), QUERY)
@example(_lines(MIN_SLOC), QUERY)
@example(_lines(MAX_SLOC), QUERY)
@example(_lines(MAX_SLOC + 1), QUERY)
def test_a_stored_record_gives_the_reason_the_scan_gave(text, query):
    """Whatever the text and the query, the reason read from a record that
    went through a pack equals the reason the scan rule gives."""
    stored = json.loads(json.dumps(corpus_mod._record_json(corpus_mod.judge(text))))
    assert exclusion(corpus_mod._record_from_json(stored), query) == _oracle_reason(text, query)

