"""Candidate-example corpus: local directory ingestion and an optional
remote code-search client with an on-disk cache.

Local ingestion is the reproducible path used by all tests. The remote
client talks to the GitHub code-search API, bounded-retries on rate limits,
and caches every result set keyed by (query, orgs, limit) so a warm cache
replays byte-identically with zero network traffic. The transport is
injectable for tests.

A candidate's text is analysed in one place, :func:`judge`, whatever the
query: its scan gives its code-line count, and a lexable text is parsed from
that scan and prepared (a :class:`~catchrec.lexical.PreparedUnit`, the form
ranking reads). The result is the text's :class:`Record`, and the filter's
reason under any query is :func:`exclusion` of it. Records are stored by
the SHA-256 of their text, one pack per corpus location: a cache entry's
``analysis.json``, or a local directory's pack under the cache directory's
``local/``. So a rerun scans and parses none of the files it has seen. The
packs' format lives in this module alone. A pack stores a record's texts,
not its subtoken vector: the reader derives that by the rule ``prepare``
follows, :func:`~catchrec.lexical.subtoken_vector`.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import logging
import math
import os
import sys
import tempfile
import time
import unicodedata
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import AuthMissing, ConfigError, NetworkFailure, RateLimited, read_input
from .graph import ApiUsageGraph
from .lexer import scan
from .lexical import PreparedUnit, prepare, subtoken_vector
from .model import DependencyEdge, GraphObject
from .parser import parse
from .quality import QualityParts
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


@dataclass(frozen=True)
class Record:
    """What :func:`judge` found of one candidate text, whatever the query:
    its code-line count and, for a lexable text (one with a token, so with a
    code line), its prepared form. A store keeps one per distinct text."""

    sloc: int
    prepared: PreparedUnit | None  # None exactly when ``sloc`` is 0


@dataclass
class Candidate:
    id: str
    origin: LocalOrigin | RemoteOrigin
    source_text: str
    # set by the filter or from a store (see ``judge``)
    record: Record | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_origin(cls, origin: LocalOrigin | RemoteOrigin, source_text: str) -> "Candidate":
        return cls(id=candidate_id(origin), origin=origin, source_text=source_text)

    def prepared(self) -> PreparedUnit:
        """The record's prepared form, else one prepared now from the text."""
        if self.record is not None and self.record.prepared is not None:
            return self.record.prepared
        return prepare(parse(self.source_text))


MIN_SLOC = 3
MAX_SLOC = 300


def judge(text: str) -> Record:
    """The :class:`Record` of a candidate's text: the text is scanned once,
    and a lexable one is parsed from that scan and prepared."""
    scanned = scan(text)
    if not scanned.texts:
        return Record(0, None)
    return Record(len(scanned.code_lines), prepare(parse(text, scanned)))


def exclusion(record: Record, query: SearchQuery | None) -> str | None:
    """The filter's reason code for a candidate of ``record`` under
    ``query``, or ``None`` when it is kept. The prepared texts hold every
    identifier, keyword and literal token, so every ``try``, ``catch`` and
    exception name (see :class:`~catchrec.query.SearchQuery`)."""
    prepared = record.prepared
    if prepared is None:
        return "unlexable"
    if query is None:
        return None
    # A token test rather than the parsed handlers, so that a candidate whose
    # parse failed (and so carries no handler structure) is still kept. Only
    # a keyword token has the text try or catch.
    texts = prepared.texts
    if "try" not in texts and "catch" not in texts:
        return "no-handler"
    if query.exception_name not in texts:
        return "no-exception-mention"
    if record.sloc < MIN_SLOC:
        return "too-short"
    if record.sloc > MAX_SLOC:
        return "too-long"
    return None


def apply_filter_detailed(
    candidates: list[Candidate], query: SearchQuery | None
) -> tuple[list[Candidate], list[Candidate]]:
    """The kept and the dropped candidates, each in input order; a dropped
    one's reason is :func:`exclusion` of its record under ``query``. With a
    query every rule applies; with ``None`` only candidates without a token
    are dropped. A candidate without a record gets one from :func:`judge`."""
    kept: list[Candidate] = []
    dropped: list[Candidate] = []
    for cand in candidates:
        if cand.record is None:
            cand.record = judge(cand.source_text)
        (kept if exclusion(cand.record, query) is None else dropped).append(cand)
    return kept, dropped


def local_store(cache_dir: str | Path, corpora: list[str]) -> Path | None:
    """The directory of the local packs under ``cache_dir``, made if it is
    missing, for runs over the ``corpora`` directories. ``None``, with one
    warning, when it cannot be made or would lie inside one of them, since
    catchrec never writes into a corpus."""
    store = Path(cache_dir) / LOCAL_DIR
    resolved = store.resolve()
    inside = [c for c in corpora if resolved.is_relative_to(Path(c).resolve())]
    if inside:
        logger.warning("not storing the analyses of %s inside it, in %s", inside[0], store)
        return None
    try:
        store.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        logger.warning("cannot store the analyses in %s: %s", store, exc)
        return None
    return store


def _java_files(root: str) -> list[tuple[tuple[str, ...], str]]:
    """(path parts below ``root``, path) of every entry under ``root`` whose
    name ends in ``.java``, dotfiles and directories included, ordered by
    parts: the set and order ``sorted(Path(root).rglob("*.java"))`` gives on
    POSIX. A symlinked directory is not entered, and a directory that cannot
    be listed is skipped."""
    found = []
    stack: list[tuple[str, tuple[str, ...]]] = [(root, ())]
    while stack:
        directory, prefix = stack.pop()
        try:
            with os.scandir(directory) as entries:
                listed = list(entries)
        except OSError:
            continue
        for entry in listed:
            parts = (*prefix, entry.name)
            if entry.name.endswith(".java"):
                found.append((parts, entry.path))
            try:
                if entry.is_dir(follow_symlinks=False):
                    stack.append((entry.path, parts))
            except OSError:
                pass
    found.sort()
    return found


def ingest_local(
    directory: str | Path, query: SearchQuery | None, store: Path | None = None
) -> list[Candidate]:
    """Load every ``.java`` file under ``directory`` that passes the filter
    for ``query`` (see :func:`apply_filter_detailed`), in id order.
    Unreadable files are skipped with a diagnostic, not fatal. With a
    ``store`` (see :func:`local_store`) the files' records come from and go
    to the directory's pack there (see :func:`_attach_records`)."""
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")

    candidates: list[Candidate] = []
    for parts, path in _java_files(str(root)):
        try:
            text = read_input(path, "corpus file", str)
        except ConfigError as exc:
            logger.warning("skipping unreadable corpus file %s: %s", root.joinpath(*parts), exc.__cause__)
            continue
        candidates.append(Candidate.from_origin(LocalOrigin("/".join(parts)), text))

    if store is not None:
        key = hashlib.sha256(str(root.resolve()).encode("utf-8")).hexdigest()[:16]
        _attach_records(store / f"{key}.json", candidates)
    kept, dropped = apply_filter_detailed(candidates, query)
    for cand in dropped:
        logger.debug("filtered out %s: %s", cand.id, exclusion(cand.record, query))
    return sorted(kept, key=lambda c: c.id)


# ---------------------------------------------------------------------------
# Remote search client with on-disk cache
# ---------------------------------------------------------------------------


def _default_transport(url: str, headers: dict[str, str]) -> tuple[int, bytes]:
    # imported here, not at the top: the network stack (http.client, ssl,
    # socket, email) loads on the first request, never on a warm or local run
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()
    except (urllib.error.URLError, OSError) as exc:
        raise NetworkFailure(f"request to {url} failed: {exc}") from exc


def _cache_key(query: SearchQuery, orgs: list[str], limit: int) -> str:
    """The entry name for ``orgs``, distinct and sorted."""
    raw = f"{query.rendered}|{','.join(orgs)}|{limit}"
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

    # a string path per file, not a Path join: the file name is checked first
    files_prefix = f"{files_dir}{os.sep}"

    def cached(text: str) -> tuple[list[Candidate], bool]:
        manifest = json.loads(text)
        candidates = []
        for entry in manifest["candidates"]:
            origin = RemoteOrigin(entry["repo"], entry["path"], entry["url"])
            cid = candidate_id(origin)
            if entry["id"] != cid or entry["file"] != f"{cid}.java":
                raise ValueError(f"entry {entry['id']!r}: id or file does not match its origin")
            source = read_input(files_prefix + entry["file"], "cached file", str)
            candidates.append(Candidate(id=cid, origin=origin, source_text=source))
        return candidates, manifest.get("complete") is True

    return read_input(manifest_path, "cache manifest", cached)


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file of a unique name
    in the same directory, so readers see the old file or the new one and
    two writers never share a temporary file; it is removed on failure."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        # mkstemp creates the file for its owner alone; give it the mode
        # that any other file written here gets
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with open(fd, "w", encoding="utf-8") as out:
            out.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


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
        "orgs": orgs,
        "limit": limit,
        "complete": complete,
        "candidates": entries,
    }
    _write_atomic(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    for stale in {p.name for p in files_dir.glob("*.java")} - {e["file"] for e in entries}:
        (files_dir / stale).unlink()


# ---------------------------------------------------------------------------
# Stored analyses: one pack of records per corpus location, a cache entry's
# ``<cache_dir>/<key>/analysis.json`` or a local directory's
# ``<cache_dir>/local/<16 hex of its resolved path>.json``
# ---------------------------------------------------------------------------

ANALYSIS_FILE = "analysis.json"
LOCAL_DIR = "local"


@functools.cache
def analysis_fingerprint() -> str:
    """SHA-256 of the source of every module of the package, the Python
    minor version and the Unicode database version: changing any of them
    retires every stored record."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.read_bytes())
    digest.update(f"{sys.version_info[:2]} {unicodedata.unidata_version}".encode())
    return digest.hexdigest()


def _record_json(record: Record) -> dict:
    entry: dict = {"sloc": record.sloc}
    prepared = record.prepared
    if prepared is not None:
        graph = prepared.graph
        entry["analysis"] = {
            "texts": prepared.texts,
            "graph": None if graph is None else {
                "objects": [
                    [o.type_name, o.ordinal, o.variable_name, dict(o.fields), dict(o.methods)]
                    for o in graph.objects
                ],
                "dependencies": [[e.consumer, e.producer, e.access_point] for e in graph.dependencies],
            },
            "quality": prepared.quality,
        }
    return entry


def _of(kind: type, value):
    """``value`` if its type is exactly ``kind`` (so no bool passes as an int)."""
    if type(value) is not kind:
        raise TypeError(f"{kind.__name__} expected, not {type(value).__name__}")
    return value


def _all_of(kind: type, values):
    """``values`` if each of them is exactly a ``kind``."""
    if not set(map(type, values)) <= {kind}:
        raise TypeError(f"{kind.__name__} items expected")
    return values


def _counts(counts) -> tuple[tuple[str, int], ...]:
    """The (name, count) pairs of a JSON object of counts, in its order."""
    pairs = tuple(_of(dict, counts).items())
    if pairs:  # most objects have no field, so an empty one builds no set
        _all_of(int, counts.values())
    return pairs


def _graph_from_json(raw) -> ApiUsageGraph:
    objects = []
    for type_name, ordinal, variable, fields, methods in _of(list, raw["objects"]):
        if type(type_name) is not str or type(ordinal) is not int or type(variable) is not str:
            raise TypeError("object row of other types")
        objects.append(GraphObject(type_name, ordinal, variable, _counts(fields), _counts(methods)))
    indices = range(len(objects))
    edges = []
    for consumer, producer, access_point in _of(list, raw["dependencies"]):
        if _of(int, consumer) not in indices or _of(int, producer) not in indices:
            raise ValueError("dependency endpoint out of range")
        edges.append(DependencyEdge(consumer, producer, _of(str, access_point)))
    return ApiUsageGraph(tuple(objects), tuple(edges))


def _record_from_json(entry) -> Record:
    """The record a pack entry holds; raises ``ValueError``, ``TypeError``
    or ``KeyError`` for one of any other shape."""
    sloc = _of(int, _of(dict, entry)["sloc"])
    if sloc < 0:
        raise ValueError("negative line count")
    if sloc == 0:
        return Record(0, None)
    raw = _of(dict, entry["analysis"])
    texts = _all_of(str, _of(list, raw["texts"]))
    if "" in texts:  # no token has an empty text
        raise ValueError("empty token text")
    # a lexable text has a code line, so its quality metrics
    quality = QualityParts(*_all_of(float, _of(list, raw["quality"])))
    if not all(map(math.isfinite, quality)):
        raise ValueError("quality metric not finite")
    graph = None if raw["graph"] is None else _graph_from_json(_of(dict, raw["graph"]))
    return Record(sloc, PreparedUnit(tuple(texts), subtoken_vector(texts), graph, quality))


def _stored_records(path: Path) -> dict:
    """The pack's entries by text digest; none when it is missing,
    unreadable, malformed or written by other analysing code."""
    try:
        stored = json.loads(path.read_text(encoding="utf-8"))
        if stored["fingerprint"] == analysis_fingerprint():
            return _of(dict, stored["records"])
        logger.debug("%s was written by other analysing code", path)
    except FileNotFoundError:
        pass
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        logger.debug("ignoring %s: %s: %s", path, type(exc).__name__, exc)
    return {}


def _attach_records(path: Path, candidates: list[Candidate]) -> None:
    """Give each candidate its :class:`Record`: the one the pack at ``path``
    holds for the SHA-256 of its text when the pack's fingerprint matches
    this code, else one from :func:`judge`. The pack is rewritten when any
    record was judged now or it holds a record of no candidate's text."""
    stored = _stored_records(path)
    records: dict[str, Record] = {}
    judged = False
    for cand in candidates:
        digest = hashlib.sha256(cand.source_text.encode("utf-8")).hexdigest()
        record = records.get(digest)
        if record is None and digest in stored:
            try:
                record = _record_from_json(stored[digest])
            except (ValueError, TypeError, KeyError) as exc:
                logger.debug("re-analysing %s: %s: %s", cand.id, type(exc).__name__, exc)
        if record is None:
            record = judge(cand.source_text)
            judged = True
        cand.record = records[digest] = record
    if not judged and stored.keys() == records.keys():
        return
    # one record at a time, so the encoder never holds the pieces of them all
    entries = ",".join(
        f'"{digest}":{json.dumps(_record_json(record), separators=(",", ":"))}'
        for digest, record in records.items()
    )
    text = f'{{"fingerprint":"{analysis_fingerprint()}","records":{{{entries}}}}}\n'
    try:
        _write_atomic(path, text)
    except OSError as exc:
        logger.warning("cannot store the analyses in %s: %s", path, exc)


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
    """Code-search results for the query, scoped to ``orgs`` (each searched
    once, in sorted order, as the cache key lists them), at most ``limit``
    files. A warm cache is served without any network traffic; a
    rate-limited run returns the partial set it managed to download, and
    that partial cache is fetched again on a later run that has a token.
    Each candidate a warm cache serves carries its :class:`Record`, from the
    entry's ``analysis.json`` where usable (see :func:`_attach_records`)."""
    if limit <= 0:
        return []
    cache_dir = Path(cache_dir)
    orgs = sorted(set(orgs))
    key = _cache_key(query, orgs, limit)
    token = token or os.environ.get(TOKEN_ENV_VAR)
    cached, complete = _load_cached(cache_dir, key)
    if cached is not None and (complete or not token):
        cached.sort(key=lambda c: c.id)
        _attach_records(cache_dir / key / ANALYSIS_FILE, cached)
        return cached
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
        for org in orgs:
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
