"""Candidate-example corpus: local directory ingestion and an optional
remote code-search client with an on-disk cache.

Local ingestion is the reproducible path used by all tests. The remote
client talks to the GitHub code-search API, bounded-retries on rate limits,
and caches every result set keyed by (query, orgs, limit) so a warm cache
replays byte-identically with zero network traffic. The transport is
injectable for tests.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .errors import AuthMissing, ConfigError, NetworkFailure, RateLimited, read_input
from .lexer import ScanResult, scan
from .model import SourceUnit
from .parser import parse
from .query import SearchQuery

logger = logging.getLogger(__name__)

SEARCH_ENDPOINT = "https://api.github.com/search/code"
TOKEN_ENV_VAR = "GITHUB_TOKEN"
_MAX_ATTEMPTS = 4
_BACKOFF_BASE = 1.0
_MAX_PER_PAGE = 100  # the search API's cap on ``per_page``
_MAX_RESULTS = 1000  # the search API returns at most this many results per search
DEFAULT_LIMIT = 70
DEFAULT_CACHE_DIR = ".catchrec-cache"

# transport(url, headers) -> (status code, body bytes)
Transport = Callable[[str, dict[str, str]], tuple[int, bytes]]


@dataclass(frozen=True)
class LocalOrigin:
    path: str  # relative to the ingested directory

    def key(self) -> str:
        return f"local:{self.path}"


@dataclass(frozen=True)
class RemoteOrigin:
    repo: str
    path: str
    url: str

    def key(self) -> str:
        return f"remote:{self.repo}:{self.path}"


def candidate_id(origin: LocalOrigin | RemoteOrigin) -> str:
    return hashlib.sha256(origin.key().encode("utf-8")).hexdigest()[:16]


@dataclass
class Candidate:
    id: str
    origin: LocalOrigin | RemoteOrigin
    source_text: str

    @classmethod
    def from_origin(cls, origin: LocalOrigin | RemoteOrigin, source_text: str) -> "Candidate":
        return cls(id=candidate_id(origin), origin=origin, source_text=source_text)

    @functools.cached_property
    def scanned(self) -> ScanResult:
        return scan(self.source_text)

    @functools.cached_property
    def unit(self) -> SourceUnit:
        return parse(self.source_text, self.scanned)


MIN_SLOC = 3
MAX_SLOC = 300


@dataclass(frozen=True)
class Exclusion:
    candidate_id: str
    reason: str  # unlexable | no-handler | no-exception-mention | too-short | too-long


def apply_filter_detailed(
    candidates: list[Candidate], query: SearchQuery | None
) -> tuple[list[Candidate], list[Exclusion]]:
    """Order-preserving filter; every drop is recorded with a reason code.
    With a query every rule applies; with ``None`` only candidates without a
    token are dropped."""
    kept: list[Candidate] = []
    excluded: list[Exclusion] = []
    for cand in candidates:
        reason = _exclusion_reason(cand, query)
        if reason is None:
            kept.append(cand)
        else:
            excluded.append(Exclusion(cand.id, reason))
    return kept, excluded


def _exclusion_reason(cand: Candidate, query: SearchQuery | None) -> str | None:
    """Judged on the scan alone, so a dropped candidate is never parsed."""
    texts = cand.scanned.texts
    if not texts:
        return "unlexable"
    if query is None:
        return None
    # A token test rather than the parsed handlers, so that a candidate whose
    # parse failed (and so carries no handler structure) is still kept. Only
    # a keyword token has the text try or catch.
    if "try" not in texts and "catch" not in texts:
        return "no-handler"
    if query.exception_name not in texts:
        return "no-exception-mention"
    sloc = len(cand.scanned.code_lines)
    if sloc < MIN_SLOC:
        return "too-short"
    if sloc > MAX_SLOC:
        return "too-long"
    return None


def ingest_local(directory: str | Path, query: SearchQuery | None) -> list[Candidate]:
    """Load every ``.java`` file under ``directory`` that passes the filter
    for ``query`` (see :func:`apply_filter_detailed`), in id order.
    Unreadable files are skipped with a diagnostic, not fatal."""
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")

    candidates: list[Candidate] = []
    for path in sorted(root.rglob("*.java")):
        rel = path.relative_to(root).as_posix()
        try:
            text = read_input(path, "corpus file", str)
        except ConfigError as exc:
            logger.warning("skipping unreadable corpus file %s: %s", path, exc.__cause__)
            continue
        candidates.append(Candidate.from_origin(LocalOrigin(rel), text))

    kept, excluded = apply_filter_detailed(candidates, query)
    for exc in excluded:
        logger.debug("filtered out %s: %s", exc.candidate_id, exc.reason)
    return sorted(kept, key=lambda c: c.id)


# ---------------------------------------------------------------------------
# Remote search client with on-disk cache
# ---------------------------------------------------------------------------


def _default_transport(url: str, headers: dict[str, str]) -> tuple[int, bytes]:
    request = urllib.request.Request(url, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()
    except (urllib.error.URLError, OSError) as exc:
        raise NetworkFailure(f"request to {url} failed: {exc}") from exc


def _cache_key(query: SearchQuery, orgs: list[str], limit: int) -> str:
    raw = f"{query.rendered}|{','.join(sorted(orgs))}|{limit}"
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]


def cache_paths(cache_dir: Path, key: str) -> tuple[Path, Path]:
    base = cache_dir / key
    return base / "manifest.json", base / "files"


def _load_cached(cache_dir: Path, key: str) -> tuple[list[Candidate] | None, bool]:
    """The cached candidates (``None`` when nothing is cached) and whether
    the manifest marks them ``complete``."""
    manifest_path, files_dir = cache_paths(cache_dir, key)
    if not manifest_path.is_file():
        return None, False

    def cached(text: str) -> tuple[list[Candidate], bool]:
        manifest = json.loads(text)
        candidates = []
        for entry in manifest["candidates"]:
            origin = RemoteOrigin(entry["repo"], entry["path"], entry["url"])
            cid = candidate_id(origin)
            if entry["id"] != cid or entry["file"] != f"{cid}.java":
                raise ValueError(f"entry {entry['id']!r}: id or file does not match its origin")
            source = read_input(files_dir / entry["file"], "cached file", str)
            candidates.append(Candidate(id=cid, origin=origin, source_text=source))
        return candidates, manifest.get("complete") is True

    return read_input(manifest_path, "cache manifest", cached)


def _write_cache(
    cache_dir: Path,
    key: str,
    query: SearchQuery,
    orgs: list[str],
    limit: int,
    candidates: list[Candidate],
    complete: bool,
) -> None:
    manifest_path, files_dir = cache_paths(cache_dir, key)
    files_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for cand in sorted(candidates, key=lambda c: c.id):
        origin = cand.origin
        assert isinstance(origin, RemoteOrigin)
        filename = f"{cand.id}.java"
        (files_dir / filename).write_text(cand.source_text, encoding="utf-8")
        entries.append(
            {
                "id": cand.id,
                "repo": origin.repo,
                "path": origin.path,
                "url": origin.url,
                "file": filename,
            }
        )
    manifest = {
        "query": query.rendered,
        "orgs": sorted(orgs),
        "limit": limit,
        "complete": complete,
        "candidates": entries,
    }
    tmp = manifest_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    tmp.replace(manifest_path)
    for stale in {p.name for p in files_dir.glob("*.java")} - {e["file"] for e in entries}:
        (files_dir / stale).unlink()


def _request(
    url: str, headers: dict[str, str], transport: Transport, sleeper: Callable[[float], None]
) -> tuple[int, bytes]:
    """The status and body of one search or download. An answer of 403 or
    429 is asked again after 1 s, 2 s, then 4 s; a fourth one raises
    :class:`RateLimited`."""
    for attempt in range(_MAX_ATTEMPTS):
        status, body = transport(url, headers)
        if status not in (403, 429):
            return status, body
        if attempt < _MAX_ATTEMPTS - 1:
            delay = _BACKOFF_BASE * (2**attempt)
            logger.warning("rate limited (%d); retrying in %.0fs", status, delay)
            sleeper(delay)
    raise RateLimited(f"still rate-limited after {_MAX_ATTEMPTS} attempts")


def _search_items(
    url: str, headers: dict[str, str], transport: Transport, sleeper: Callable[[float], None]
) -> list[dict]:
    """The ``items`` of one search response. A body that is not a UTF-8 JSON
    object with a list of items, each an object with a string ``url`` (and
    an object ``repository`` if any), raises :class:`NetworkFailure` naming
    the URL."""
    status, body = _request(url, headers, transport, sleeper)
    if status == 401:
        raise AuthMissing("the search API rejected the auth token")
    if status >= 400:
        raise NetworkFailure(f"search API returned HTTP {status} for {url}")
    try:
        items = json.loads(body.decode("utf-8"))["items"]
    except (ValueError, TypeError, KeyError, RecursionError) as exc:
        raise NetworkFailure(
            f"malformed search response from {url}: {type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(items, list) or not all(
        isinstance(item, dict)
        and isinstance(item.get("url"), str)
        and isinstance(item.get("repository", {}), dict)
        for item in items
    ):
        raise NetworkFailure(f"malformed search response from {url}: bad items")
    return items


def fetch_remote(
    query: SearchQuery,
    orgs: list[str],
    limit: int = DEFAULT_LIMIT,
    cache_dir: str | Path = DEFAULT_CACHE_DIR,
    token: str | None = None,
    transport: Transport | None = None,
    sleeper: Callable[[float], None] = time.sleep,
) -> list[Candidate]:
    """Code-search results for the query, scoped to ``orgs`` (searched in
    sorted order, as the cache key lists them), at most ``limit`` files. A
    warm cache is served without any network traffic; a rate-limited run
    returns the partial set it managed to download, and that partial cache
    is fetched again on a later run that has a token."""
    if limit <= 0:
        return []
    cache_dir = Path(cache_dir)
    key = _cache_key(query, orgs, limit)
    token = token or os.environ.get(TOKEN_ENV_VAR)
    cached, complete = _load_cached(cache_dir, key)
    if cached is not None and (complete or not token):
        return sorted(cached, key=lambda c: c.id)
    if not token:
        raise AuthMissing(f"set {TOKEN_ENV_VAR} to use remote search")
    transport = transport or _default_transport
    headers = {
        "Authorization": f"Bearer {token}",
        "Accept": "application/vnd.github+json",
        "User-Agent": "catchrec",
    }

    items: list[dict] = []
    complete = True
    per_page = min(limit, _MAX_PER_PAGE)
    try:
        for org in sorted(orgs):
            if len(items) >= limit:
                break
            q = f"{query.rendered} language:java org:{org}"
            page = 1
            while True:
                params = {"q": q, "per_page": per_page}
                if page > 1:
                    params["page"] = page
                url = f"{SEARCH_ENDPOINT}?{urllib.parse.urlencode(params)}"
                found = _search_items(url, headers, transport, sleeper)
                items.extend(found[: limit - len(items)])
                # the next page only after a full one, while items are
                # missing and it starts within the results a search returns
                if len(found) < per_page or len(items) >= limit or page * per_page >= _MAX_RESULTS:
                    break
                page += 1
    except RateLimited:
        if not items:
            raise
        complete = False
        logger.warning("rate limited mid-search; continuing with %d items", len(items))

    raw_headers = dict(headers)
    raw_headers["Accept"] = "application/vnd.github.raw+json"

    # one download at a time, in search-result order, as GitHub asks of
    # REST clients to stay under its secondary rate limits
    candidates: list[Candidate] = []
    seen_ids: set[str] = set()
    for item in items:
        origin = RemoteOrigin(
            repo=item.get("repository", {}).get("full_name", ""),
            path=item.get("path", ""),
            url=item.get("html_url", ""),
        )
        try:
            status, body = _request(item["url"], raw_headers, transport, sleeper)
            if status >= 400:
                raise NetworkFailure(f"HTTP {status}")
        except RateLimited as exc:
            logger.warning("stopping downloads at %s: %s", origin.path, exc)
            complete = False
            break
        except NetworkFailure as exc:
            logger.warning("skipping %s: %s", origin.path, exc)
            complete = False
            continue
        candidate = Candidate.from_origin(origin, body.decode("utf-8", errors="replace"))
        if candidate.id not in seen_ids:
            seen_ids.add(candidate.id)
            candidates.append(candidate)

    _write_cache(cache_dir, key, query, orgs, limit, candidates, complete)
    return sorted(candidates, key=lambda c: c.id)
