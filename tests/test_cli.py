import contextlib
import copy
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catchrec import cli
from catchrec.corpus import LocalOrigin, candidate_id
from catchrec.ranking import _CONFIG_KEYS

DEEP = b"[" * 200_000 + b"]" * 200_000  # far deeper than any recursion limit


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture()
def listing1_path(fixtures_dir):
    return str(fixtures_dir / "listing1.java")


@pytest.fixture()
def listing2_path(fixtures_dir):
    return str(fixtures_dir / "listing2.java")


def test_analyze_graph_json(run, listing2_path):
    code, out, _err = run("analyze", listing2_path, "--emit", "graph", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["objects"]) == 4


def test_analyze_graph_dot(run, listing2_path):
    code, out, _err = run("analyze", listing2_path, "--emit", "graph")
    assert code == 0
    assert out.startswith("digraph")


def test_analyze_graph_output_matches_recorded_digests(run, fixtures_dir):
    """``analyze --emit graph`` in JSON and in DOT, and ``--emit tokens``,
    ``--emit handlers`` and ``--emit quality`` in JSON and in text, for
    every fixture, are byte for byte the recorded output (kept as SHA-256
    digests)."""
    expected = json.loads((fixtures_dir / "graph_output_digests.json").read_text())
    paths = sorted(fixtures_dir.rglob("*.java"))
    assert [p.relative_to(fixtures_dir).as_posix() for p in paths] == sorted(expected)
    for path in paths:
        digests = {}
        for name, emit, fmt in (
            ("json", "graph", "json"),
            ("dot", "graph", "text"),
            ("tokens", "tokens", "json"),
            ("tokens-text", "tokens", "text"),
            ("handlers", "handlers", "json"),
            ("handlers-text", "handlers", "text"),
            ("quality", "quality", "json"),
            ("quality-text", "quality", "text"),
        ):
            code, out, _err = run("analyze", str(path), "--emit", emit, "--format", fmt)
            assert code == 0
            digests[name] = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digests == expected[path.relative_to(fixtures_dir).as_posix()], path


def test_analyze_tokens_empty_file(run, tmp_path):
    empty = tmp_path / "empty.java"
    empty.write_text("")
    code, out, _err = run("analyze", str(empty), "--emit", "tokens", "--format", "json")
    assert code == 0
    assert json.loads(out) == []


def test_analyze_quality_reports_handler_actions(run, listing2_path):
    code, out, _err = run("analyze", listing2_path, "--emit", "quality", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["handler_actions"] == pytest.approx(5 / 3)


def test_analyze_handlers(run, listing2_path):
    code, out, _err = run("analyze", listing2_path, "--emit", "handlers")
    assert code == 0
    assert "try blocks: 1" in out
    assert "MalformedURLException" in out


def test_analyze_graph_failed_parse_exits_2(run, tmp_path):
    broken = tmp_path / "broken.java"
    broken.write_text("} catch }")
    code, _out, err = run("analyze", str(broken), "--emit", "graph")
    assert code == 2
    assert "usage graph" in err


def test_query_listing1(run, listing1_path):
    code, out, _err = run("query", listing1_path)
    assert code == 0
    assert out.strip() == "IOException URL"


def test_query_explicit_override(run, listing1_path):
    code, out, _err = run("query", listing1_path, "--exception", "SQLException")
    assert code == 0
    assert out.strip() == "SQLException URL"


@pytest.mark.parametrize("override", ["", "  "], ids=["empty", "blank"])
def test_query_empty_exception_override_exits_2(run, listing1_path, override):
    code, out, err = run("query", listing1_path, "--exception", override)
    assert code == 2
    assert out == ""
    assert "does not look like an exception type" in err


def test_query_object_free_file_fails(run, tmp_path):
    plain = tmp_path / "plain.java"
    plain.write_text("int x = 1;")
    code, _out, err = run("query", str(plain))
    assert code == 2
    assert "API objects" in err


def test_recommend_ranks_listing2_first(run, listing1_path, fixtures_dir, pool_names):
    code, out, _err = run(
        "recommend", listing1_path,
        "--corpus", str(fixtures_dir / "rankpool"),
        "--no-filter", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert pool_names[payload[0]["candidate_id"]] == "listing2.java"
    assert len(payload) == 5


def test_recommend_with_default_filter(run, listing1_path, fixtures_dir, pool_names):
    code, out, _err = run(
        "recommend", listing1_path, "--corpus", str(fixtures_dir / "rankpool"),
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert pool_names[payload[0]["candidate_id"]] == "listing2.java"


def test_recommend_top_one(run, listing1_path, fixtures_dir):
    code, out, _err = run(
        "recommend", listing1_path, "--corpus", str(fixtures_dir / "rankpool"),
        "--no-filter", "--top", "1", "--format", "json",
    )
    assert code == 0
    assert len(json.loads(out)) == 1


def test_recommend_text_mode_carries_query(run, listing1_path, fixtures_dir):
    code, out, _err = run(
        "recommend", listing1_path, "--corpus", str(fixtures_dir / "rankpool"), "--no-filter"
    )
    assert code == 0
    assert out.startswith("query: IOException URL")
    assert "handler_actions" in out


def test_recommend_qualified_exception_override_ranks_like_the_simple_one(
    run, listing1_path, fixtures_dir
):
    ranked = []
    for override in ("IOException", "java.io.IOException"):
        code, out, _err = run(
            "recommend", listing1_path, "--corpus", str(fixtures_dir),
            "--exception", override, "--format", "json",
        )
        assert code == 0
        ranked.append([entry["candidate_id"] for entry in json.loads(out)])
    assert ranked[0] and ranked[0] == ranked[1]


def test_recommend_context_with_1200_tracked_objects(run, fixtures_dir, tmp_path):
    """Objects without a type-compatible partner add no pairing recursion."""
    context = tmp_path / "big.java"
    context.write_text(
        "URL url = new URL(s);\n" + "".join(f"new T{i}().run{i}();\n" for i in range(1200))
    )
    code, out, err = run(
        "recommend", str(context), "--corpus", str(fixtures_dir / "rankpool"),
        "--format", "json",
    )
    assert (code, err) == (0, "")
    matches = [entry["match"] for entry in json.loads(out) if entry["match"]]
    assert matches and all(match["exhaustive"] for match in matches)


def test_recommend_empty_corpus_fails(run, listing1_path, tmp_path):
    code, _out, err = run("recommend", listing1_path, "--corpus", str(tmp_path))
    assert code == 2
    assert "no candidates" in err


def test_recommend_json_deterministic(run, listing1_path, fixtures_dir):
    args = (
        "recommend", listing1_path, "--corpus", str(fixtures_dir / "rankpool"),
        "--no-filter", "--format", "json",
    )
    _code, first, _ = run(*args)
    _code, second, _ = run(*args)
    assert first == second


def test_recommend_filter_settings(run, listing1_path, tmp_path):
    files = {
        "pass.java": "try {\n  new URL(s).openStream();\n} catch (IOException e) {\n  log(e);\n}\n",
        "plain.java": "URL u = new URL(s);\nu.openStream();\nint x = 1;\n",
        "comment.java": "// nothing but a comment\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    names = {candidate_id(LocalOrigin(name)): name for name in files}

    def ranked(*flags):
        code, out, _err = run(
            "recommend", listing1_path, "--corpus", str(tmp_path), "--format", "json", *flags
        )
        assert code == 0
        return {names[b["candidate_id"]] for b in json.loads(out)}

    assert ranked() == {"pass.java"}
    assert ranked("--no-filter") == {"pass.java", "plain.java"}


@pytest.mark.parametrize(
    "option, content",
    [
        ("--config", b"\xff\xfe{}"),
        ("--config", b'{"w_lex": %s}' % DEEP),
        ("--kb", b"\xff\xfeURL\topenStream\tIOException\n"),
        ("--kb", b"URL\topenStream\n"),
        ("file", b"\xff\xfeclass A {}"),
    ],
    ids=["config-not-utf8", "config-deep", "kb-not-utf8", "kb-two-columns", "context-not-utf8"],
)
def test_recommend_unreadable_input_file_exits_2(
    run, listing1_path, fixtures_dir, tmp_path, option, content
):
    bad = tmp_path / "input"
    bad.write_bytes(content)
    context, extra = (str(bad), ()) if option == "file" else (listing1_path, (option, str(bad)))
    code, out, err = run(
        "recommend", context, "--corpus", str(fixtures_dir / "rankpool"), *extra
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert str(bad) in err


def test_recommend_weight_config(run, listing1_path, fixtures_dir, tmp_path):
    config = tmp_path / "weights.json"
    config.write_text('{"w_str": 1.0, "w_lex": 1.0, "w_ehc": 1.0}')
    code, out, _err = run(
        "recommend", listing1_path, "--corpus", str(fixtures_dir / "rankpool"),
        "--no-filter", "--config", str(config), "--format", "json",
    )
    assert code == 0
    assert len(json.loads(out)) == 5


def test_recommend_picks_up_default_config_location(
    run, listing1_path, fixtures_dir, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "catchrec-weights.json").write_text('{"nonsense": 1.0}')
    code, _out, err = run(
        "recommend", listing1_path, "--corpus", str(fixtures_dir / "rankpool"), "--no-filter"
    )
    assert code == 2  # proves the default file was read
    assert "unknown weight config key" in err


def test_recommend_bad_config_key(run, listing1_path, fixtures_dir, tmp_path):
    config = tmp_path / "weights.json"
    config.write_text('{"wstr": 1.0}')
    code, _out, err = run(
        "recommend", listing1_path, "--corpus", str(fixtures_dir / "rankpool"),
        "--config", str(config),
    )
    assert code == 2
    assert "unknown weight config key" in err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_recommend_non_finite_config_weight(
    run, listing1_path, fixtures_dir, tmp_path, value
):
    config = tmp_path / "weights.json"
    config.write_text('{"w_lex": %s}' % value)
    code, out, err = run(
        "recommend", listing1_path, "--corpus", str(fixtures_dir / "rankpool"),
        "--no-filter", "--config", str(config),
    )
    assert code == 2
    assert out == ""
    assert err == (
        f"catchrec: weight config {config}: weight 'w_lex' must be a finite non-negative number\n"
    )


def test_recommend_weight_above_the_cap(run, listing1_path, fixtures_dir, tmp_path):
    """Finite weights near the float maximum overflowed the scores to
    Infinity and the normalized and fused scores to NaN."""
    config = tmp_path / "weights.json"
    config.write_text('{"alpha": 1e308, "beta": 1e308}')
    code, out, err = run(
        "recommend", listing1_path, "--corpus", str(fixtures_dir / "rankpool"),
        "--format", "json", "--config", str(config),
    )
    assert code == 2
    assert out == ""
    assert err == f"catchrec: weight config {config}: weight 'alpha' must be at most 1,000,000\n"


def test_recommend_every_weight_at_the_cap_stays_finite(
    run, listing1_path, fixtures_dir, tmp_path
):
    config = tmp_path / "weights.json"
    config.write_text(json.dumps({key: 1e6 for key in _CONFIG_KEYS}))
    code, out, _err = run(
        "recommend", listing1_path, "--corpus", str(fixtures_dir / "rankpool"),
        "--format", "json", "--config", str(config),
    )
    assert code == 0
    rows = json.loads(out)
    assert rows
    for row in rows:
        for key in ("structural_raw", "structural_norm", "lexical_raw", "lexical_norm",
                    "quality_raw", "quality_norm", "total"):
            assert math.isfinite(row[key]), (row["candidate_id"], key)


def test_evaluate_cli(run, tmp_path):
    from test_evaluation import build_suite

    cases_path, oracle_path = build_suite(tmp_path)
    code, out, _err = run(
        "evaluate", "--cases", str(cases_path), "--oracle", str(oracle_path), "--ks", "1,2"
    )
    assert code == 0
    assert "MP" in out and "Top 1" in out and "Top 2" in out


def test_evaluate_cli_json(run, tmp_path):
    from test_evaluation import build_suite

    cases_path, oracle_path = build_suite(tmp_path)
    code, out, _err = run(
        "evaluate", "--cases", str(cases_path), "--oracle", str(oracle_path),
        "--ks", "5", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ks"] == [5]


def test_evaluate_missing_oracle(run, tmp_path):
    from test_evaluation import build_suite

    cases_path, _oracle = build_suite(tmp_path)
    code, out, err = run(
        "evaluate", "--cases", str(cases_path), "--oracle", str(tmp_path / "missing.json")
    )
    assert code == 2
    assert out == ""  # no partial report
    assert err


def _first_case(cases, **changes):
    """The first case with fields changed; a field set to None is dropped."""
    entry = {**cases["cases"][0], **changes}
    return {"cases": [{k: v for k, v in entry.items() if v is not None}]}


@pytest.mark.parametrize(
    "which, corrupt",
    [
        ("cases", lambda cases: {}),
        ("cases", lambda cases: []),
        ("cases", lambda cases: _first_case(cases, case_id=None)),
        ("cases", lambda cases: _first_case(cases, context_path=5)),
        ("cases", lambda cases: _first_case(cases, exception_name=5)),
        ("cases", lambda cases: {"cases": cases["cases"][:1] * 2}),
        ("cases", lambda cases: b'{"cases": %s}' % DEEP),
        ("oracle", lambda oracle: ["x"]),
        ("oracle", lambda oracle: {"c1": 5}),
        ("oracle", lambda oracle: b"\xff\xfe{}"),
        ("oracle", lambda oracle: b'{"case_a": %s}' % DEEP),
    ],
    ids=[
        "cases-empty-object", "cases-list", "entry-without-case-id", "context-path-number",
        "exception-name-number", "duplicate-case-id", "cases-deep", "oracle-list",
        "oracle-ids-number", "oracle-not-utf8", "oracle-deep",
    ],
)
def test_evaluate_malformed_suite_file_exits_2(run, tmp_path, which, corrupt):
    from test_evaluation import build_suite

    paths = dict(zip(("cases", "oracle"), build_suite(tmp_path)))
    bad = paths[which]
    content = corrupt(json.loads(bad.read_text()))
    if isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(json.dumps(content))
    code, out, err = run("evaluate", "--cases", str(paths["cases"]), "--oracle", str(paths["oracle"]))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert str(bad) in err


def test_fetch_writes_corpus(run, tmp_path, monkeypatch):
    from test_corpus import fake_transport

    monkeypatch.setattr("catchrec.corpus._default_transport", fake_transport)
    monkeypatch.setenv("GITHUB_TOKEN", "token")
    code, out, _err = run(
        "fetch", "--query", "IOException URL", "--orgs", "apache", "--limit", "5",
        "--out", str(tmp_path / "cache"),
    )
    assert code == 0
    assert "fetched 2 candidates" in out
    manifest = json.loads(next((tmp_path / "cache").rglob("manifest.json")).read_text())
    assert len(manifest["candidates"]) <= 5


def test_fetch_warm_cache_skips_network(run, tmp_path, monkeypatch):
    from test_corpus import fake_transport

    monkeypatch.setattr("catchrec.corpus._default_transport", fake_transport)
    monkeypatch.setenv("GITHUB_TOKEN", "token")
    out_dir = str(tmp_path / "cache")
    run("fetch", "--query", "IOException URL", "--orgs", "apache", "--limit", "5", "--out", out_dir)

    def explode(url, headers):
        raise AssertionError("network call on warm cache")

    monkeypatch.setattr("catchrec.corpus._default_transport", explode)
    monkeypatch.delenv("GITHUB_TOKEN")
    code, out, _err = run(
        "fetch", "--query", "IOException URL", "--orgs", "apache", "--limit", "5", "--out", out_dir
    )
    assert code == 0
    assert "fetched 2 candidates" in out


def _drop_repo(manifest):
    entries = [{k: v for k, v in e.items() if k != "repo"} for e in manifest["candidates"]]
    return {**manifest, "candidates": entries}


@pytest.mark.parametrize(
    "corrupt", [_drop_repo, lambda m: [m]], ids=["entry-missing-repo", "manifest-is-a-list"]
)
def test_fetch_bad_manifest_exits_2(run, tmp_path, monkeypatch, corrupt):
    from test_corpus import fake_transport

    monkeypatch.setattr("catchrec.corpus._default_transport", fake_transport)
    monkeypatch.setenv("GITHUB_TOKEN", "token")
    argv = ("fetch", "--query", "IOException URL", "--orgs", "apache", "--limit", "5",
            "--out", str(tmp_path / "cache"))
    assert run(*argv)[0] == 0
    manifest_path = next((tmp_path / "cache").rglob("manifest.json"))
    manifest_path.write_text(json.dumps(corrupt(json.loads(manifest_path.read_text()))))
    code, out, err = run(*argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert str(manifest_path) in err


def _first_entry(**changes):
    def corrupt(manifest):
        entries = [{**manifest["candidates"][0], **changes}, *manifest["candidates"][1:]]
        return {**manifest, "candidates": entries}

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        _first_entry(file="../../../outside/Secret.java"),
        _first_entry(id="x"),
        lambda m: b"\xff\xfe" + json.dumps(m).encode(),
        lambda m: b'{"candidates": %s}' % DEEP,
    ],
    ids=["file-outside-cache", "id-not-from-origin", "manifest-not-utf8", "manifest-deep"],
)
def test_recommend_untrusted_manifest_exits_2(
    run, tmp_path, monkeypatch, listing1_path, corrupt
):
    from test_corpus import fake_transport

    monkeypatch.setattr("catchrec.corpus._default_transport", fake_transport)
    monkeypatch.setenv("GITHUB_TOKEN", "token")
    (tmp_path / "outside").mkdir()
    (tmp_path / "outside" / "Secret.java").write_text("try { s(); } catch (E e) { t(e); }")
    argv = ("recommend", listing1_path, "--remote", "--no-filter", "--orgs", "apache",
            "--limit", "5", "--cache-dir", str(tmp_path / "cache"))
    assert run(*argv)[0] == 0
    manifest_path = next((tmp_path / "cache").rglob("manifest.json"))
    content = corrupt(json.loads(manifest_path.read_text()))
    if isinstance(content, bytes):
        manifest_path.write_bytes(content)
    else:
        manifest_path.write_text(json.dumps(content))
    code, out, err = run(*argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert str(manifest_path) in err


def test_recommend_non_utf8_cached_file_names_it(run, tmp_path, monkeypatch, listing1_path):
    from test_corpus import fake_transport

    monkeypatch.setattr("catchrec.corpus._default_transport", fake_transport)
    monkeypatch.setenv("GITHUB_TOKEN", "token")
    argv = ("recommend", listing1_path, "--remote", "--no-filter", "--orgs", "apache",
            "--limit", "5", "--cache-dir", str(tmp_path / "cache"))
    assert run(*argv)[0] == 0
    cached = sorted((tmp_path / "cache").rglob("files/*.java"))[0]
    cached.write_bytes(b"\xff\xfe" + cached.read_bytes())
    code, out, err = run(*argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert str(cached) in err
    assert "manifest" not in err


@pytest.mark.parametrize(
    "body",
    [
        b"\xff\xfe",
        b"not json",
        b"[]",
        b'{"items": "x"}',
        b'{"items": [5]}',
        b'{"items": [{"path": "a"}]}',
        b'{"items": [{"url": "u", "repository": "r"}]}',
        b'{"items": %s}' % DEEP,
    ],
    ids=["not-utf8", "not-json", "list", "items-string", "item-number", "item-without-url",
         "repository-string", "body-deep"],
)
def test_fetch_malformed_search_response_exits_3(run, tmp_path, monkeypatch, body):
    monkeypatch.setattr("catchrec.corpus._default_transport", lambda url, headers: (200, body))
    monkeypatch.setenv("GITHUB_TOKEN", "token")
    code, out, err = run(
        "fetch", "--query", "IOException URL", "--orgs", "apache", "--out", str(tmp_path)
    )
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "malformed search response from https://api.github.com/search/code?" in err


def test_fetch_without_token_exits_3(run, tmp_path, monkeypatch):
    monkeypatch.delenv("GITHUB_TOKEN", raising=False)
    code, _out, err = run(
        "fetch", "--query", "IOException URL", "--orgs", "apache", "--out", str(tmp_path)
    )
    assert code == 3
    assert "GITHUB_TOKEN" in err


def test_fetch_malformed_query(run, tmp_path, monkeypatch):
    monkeypatch.setenv("GITHUB_TOKEN", "token")
    code, _out, err = run(
        "fetch", "--query", "JustOneTerm", "--orgs", "apache", "--out", str(tmp_path)
    )
    assert code == 2
    assert "two terms" in err


def test_usage_error_exits_1(run):
    code, _out, _err = run("recommend")  # missing required arguments
    assert code == 1


@pytest.mark.parametrize(
    "option",
    [
        ("recommend", "--top", "0"),
        ("recommend", "--top", "-3"),
        ("evaluate", "--ks", "5,x"),
        ("evaluate", "--ks", "0"),
        ("evaluate", "--ks", ","),
        ("remote", "--limit", "-5"),
        ("remote", "--limit", "0"),
        ("fetch", "--limit", "0"),
    ],
    ids=[
        "top-0", "top-negative", "ks-not-int", "ks-0", "ks-empty",
        "remote-limit-negative", "remote-limit-0", "fetch-limit-0",
    ],
)
def test_out_of_range_top_or_ks_is_a_usage_error(
    run, listing1_path, fixtures_dir, tmp_path, option
):
    command, flag, value = option
    suite = fixtures_dir / "evalsuite"
    cache = str(tmp_path / "cache")
    argv = {
        "recommend": ["recommend", listing1_path, "--corpus", str(fixtures_dir / "rankpool")],
        "remote": ["recommend", listing1_path, "--remote", "--cache-dir", cache],
        "evaluate": [
            "evaluate", "--cases", str(suite / "cases.json"), "--oracle", str(suite / "oracle.json"),
        ],
        "fetch": ["fetch", "--query", "IOException URL", "--orgs", "apache", "--out", cache],
    }[command]
    code, out, err = run(*argv, flag, value)
    assert code == 1
    assert "usage:" in err
    assert out == ""
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("token", ["token", None], ids=["with-token", "without-token"])
@pytest.mark.parametrize("orgs", [",", " , ,", ""], ids=["comma", "blanks", "empty"])
@pytest.mark.parametrize("command", ["fetch", "remote"])
def test_orgs_naming_no_org_is_a_usage_error(
    run, listing1_path, tmp_path, monkeypatch, command, orgs, token
):
    def explode(url, headers):
        raise AssertionError("network call for an empty org list")

    monkeypatch.setattr("catchrec.corpus._default_transport", explode)
    if token is None:
        monkeypatch.delenv("GITHUB_TOKEN", raising=False)
    else:
        monkeypatch.setenv("GITHUB_TOKEN", token)
    cache = str(tmp_path / "cache")
    argv = {
        "fetch": ["fetch", "--query", "SQLException Connection", "--out", cache],
        "remote": ["recommend", listing1_path, "--remote", "--cache-dir", cache],
    }[command]
    code, out, err = run(*argv, "--orgs", orgs)
    assert code == 1
    assert "usage:" in err
    assert "no organization named" in err
    assert "GITHUB_TOKEN" not in err
    assert out == ""
    assert not (tmp_path / "cache").exists()


def test_orgs_are_stripped_and_blanks_dropped(run, tmp_path, monkeypatch):
    from test_corpus import fake_transport

    monkeypatch.setattr("catchrec.corpus._default_transport", fake_transport)
    monkeypatch.setenv("GITHUB_TOKEN", "token")
    code, out, _err = run(
        "fetch", "--query", "IOException URL", "--orgs", " apache , ,", "--limit", "5",
        "--out", str(tmp_path / "cache"),
    )
    assert code == 0
    assert "fetched 2 candidates" in out
    manifest = json.loads(next((tmp_path / "cache").rglob("manifest.json")).read_text())
    assert manifest["orgs"] == ["apache"]


def test_unknown_command_exits_1(run):
    assert run("frobnicate")[0] == 1


def test_console_script_entry_point(listing1_path):
    result = subprocess.run(
        [sys.executable, "-m", "catchrec.cli", "query", listing1_path],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "IOException URL"


def test_query_reads_stdin(listing1_path):
    result = subprocess.run(
        [sys.executable, "-m", "catchrec.cli", "query", "-"],
        input=Path(listing1_path).read_text(),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "IOException URL"


# ---------------------------------------------------------------------------
# Property: no input file makes the CLI raise
# ---------------------------------------------------------------------------

# Each input file (a glob under the inputs directory) and the command that reads it.
_READERS = {
    "weights.json": ["recommend", "{root}/context.java", "--corpus", "{root}/rankpool",
                     "--no-filter", "--config", "{root}/weights.json"],
    "kb.tsv": ["query", "{root}/context.java", "--kb", "{root}/kb.tsv"],
    "cases.json": ["evaluate", "--cases", "{root}/cases.json", "--oracle", "{root}/oracle.json"],
    "oracle.json": ["evaluate", "--cases", "{root}/cases.json", "--oracle", "{root}/oracle.json"],
    "cache/*/manifest.json": ["recommend", "{root}/context.java", "--remote", "--no-filter",
                              "--orgs", "apache", "--limit", "5", "--cache-dir", "{root}/cache"],
}
_READERS["cache/*/files/*.java"] = _READERS["cache/*/manifest.json"]

# Generated strings hold no "/" or ".", so a generated corpus_dir can name
# neither the root nor a parent directory and send a case over the file system.
_TEXT = st.text(st.characters(exclude_characters="/."), max_size=8)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=10,
)
_HOLE = "\0hole"  # a placeholder that no valid input file holds


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, fixtures_dir):
    """A directory of valid input files, one for each entry of ``_READERS``."""
    from test_corpus import fake_transport
    from test_evaluation import build_suite

    root = tmp_path_factory.mktemp("inputs")
    build_suite(root)
    shutil.copy(fixtures_dir / "listing1.java", root / "context.java")
    shutil.copytree(fixtures_dir / "rankpool", root / "rankpool")
    (root / "weights.json").write_text('{"alpha": 0.3, "w_str": 1.0, "w_lex": 2.0, "w_ehc": 0.5}')
    (root / "kb.tsv").write_text(
        "# type\tmethod\texceptions\nURL\t<init>\tMalformedURLException\n"
        "URL\topenConnection\tIOException\nHttpURLConnection\tgetInputStream\tIOException\n"
    )
    argv = [arg.format(root=root) for arg in _READERS["cache/*/manifest.json"]]
    with mock.patch("catchrec.corpus._default_transport", fake_transport), mock.patch.dict(
        os.environ, {"GITHUB_TOKEN": "token"}
    ), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return root


def _slots(doc, path=()):
    """The key path of every value in a JSON document, the root first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _slots(value, (*path, key))


def _put(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@st.composite
def _mutated(draw, valid: bytes) -> bytes:
    """``valid`` with a few bytes replaced, inserted or deleted, or with a
    generated JSON value or brackets nested up to 200,000 deep in place of
    one of its JSON values (inserted anywhere, if it is not JSON)."""
    arm = draw(st.sampled_from(["bytes", "json", "deep"]))
    if arm == "bytes":
        data = bytearray(valid)
        for _ in range(draw(st.integers(1, 4))):
            pos = draw(st.integers(0, len(data)))
            op = draw(st.sampled_from(["replace", "insert", "delete"]))
            new = b"" if op == "delete" else bytes([draw(st.integers(0, 255))])
            data[pos : pos + (op != "insert")] = new
        return bytes(data)
    if arm == "json":
        payload = json.dumps(draw(_JSON)).encode()
    else:
        depth = draw(st.sampled_from([1, 1_000, 200_000]))
        payload = b"[" * depth + b"]" * depth
    try:
        doc = json.loads(valid)
    except ValueError:  # the knowledge base and Java files
        pos = draw(st.integers(0, len(valid)))
        return valid[:pos] + payload + valid[pos:]
    path = draw(st.sampled_from(list(_slots(doc))))
    return json.dumps(_put(doc, path, _HOLE)).encode().replace(json.dumps(_HOLE).encode(), payload)


@pytest.mark.parametrize("target", list(_READERS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_cli_survives_mutated_input_files(inputs, target, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = shutil.copytree(inputs, Path(tmp) / "inputs")
        path = sorted(root.glob(target))[0]
        path.write_bytes(data.draw(_mutated(path.read_bytes())))
        out, err = io.StringIO(), io.StringIO()
        no_token = mock.patch.dict(os.environ, {"GITHUB_TOKEN": ""})  # so nothing is fetched
        with no_token, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([arg.format(root=root) for arg in _READERS[target]])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert code == 0 or out.getvalue() == ""
