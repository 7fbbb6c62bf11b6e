"""Command-line interface: analyze, query, recommend, evaluate, fetch.

Exit codes are a stable contract: 0 success, 1 usage error, 2 pipeline
error, 3 network or auth error. Text and JSON output modes carry the same
numeric values.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import corpus as corpus_mod
from .errors import CatchrecError, CorpusError
from .evaluation import DEFAULT_KS, Oracle, evaluate, load_cases
from .graph import extract_usage_graph
from .model import SourceUnit
from .parser import parse, parse_file
from .quality import quality_score
from .query import ExceptionKnowledgeBase, SearchQuery, formulate_query
from .ranking import DEFAULT_TOP_K, WeightConfig, explain, load_weights, rank

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PIPELINE = 2
EXIT_NETWORK = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors, not 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"not an integer of at least 1: {text!r}")
    return value


def _cutoffs(text: str) -> tuple[int, ...]:
    return tuple(_positive_int(k) for k in text.split(","))


def _org_list(text: str) -> list[str]:
    orgs = [o.strip() for o in text.split(",") if o.strip()]
    if not orgs:
        raise argparse.ArgumentTypeError(f"no organization named: {text!r}")
    return orgs


DEFAULT_CONFIG_NAME = "catchrec-weights.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="catchrec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="inspect one source file")
    analyze.add_argument("file")
    analyze.add_argument(
        "--emit",
        choices=["graph", "tokens", "handlers", "quality"],
        default="graph",
    )
    analyze.add_argument("--format", choices=["text", "json"], default="text")

    query = sub.add_parser("query", help="formulate the search query for a context file")
    query.add_argument("file")
    query.add_argument("--exception", help="explicit exception name override")
    query.add_argument("--kb", help="knowledge base TSV path")

    recommend = sub.add_parser("recommend", help="rank examples against a context file")
    recommend.add_argument("file")
    source = recommend.add_mutually_exclusive_group(required=True)
    source.add_argument("--corpus", help="local corpus directory")
    source.add_argument("--remote", action="store_true", help="search remotely")
    recommend.add_argument("--exception", help="explicit exception name override")
    recommend.add_argument("--top", type=_positive_int, default=DEFAULT_TOP_K)
    recommend.add_argument(
        "--config",
        help=f"weight config JSON path (default: ./{DEFAULT_CONFIG_NAME} when present)",
    )
    recommend.add_argument("--kb", help="knowledge base TSV path")
    recommend.add_argument("--format", choices=["text", "json"], default="text")
    recommend.add_argument("--orgs", type=_org_list, default="apache,eclipse,facebook,twitter")
    recommend.add_argument("--limit", type=_positive_int, default=corpus_mod.DEFAULT_LIMIT)
    recommend.add_argument("--cache-dir", default=corpus_mod.DEFAULT_CACHE_DIR)
    recommend.add_argument("--no-filter", action="store_true", help="rank the raw corpus")

    ev = sub.add_parser("evaluate", help="run the evaluation harness")
    ev.add_argument("--cases", required=True)
    ev.add_argument("--oracle", required=True)
    ev.add_argument("--ks", type=_cutoffs, default=DEFAULT_KS)
    ev.add_argument(
        "--config",
        help=f"weight config JSON path (default: ./{DEFAULT_CONFIG_NAME} when present)",
    )
    ev.add_argument("--format", choices=["text", "json"], default="text")

    fetch = sub.add_parser("fetch", help="build a cached corpus from remote search")
    fetch.add_argument("--query", required=True, help='two terms: "<exception> <class>"')
    fetch.add_argument("--orgs", type=_org_list, required=True)
    fetch.add_argument("--limit", type=_positive_int, default=corpus_mod.DEFAULT_LIMIT)
    fetch.add_argument("--out", required=True, help="cache directory")

    return parser


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _load_unit(path: str) -> SourceUnit:
    return parse(sys.stdin.read()) if path == "-" else parse_file(path)


def _load_kb(path: str | None) -> ExceptionKnowledgeBase:
    return ExceptionKnowledgeBase.from_file(path) if path else ExceptionKnowledgeBase.bundled()


def _load_config(path: str | None) -> WeightConfig:
    if path:
        return load_weights(path)
    default = Path(DEFAULT_CONFIG_NAME)
    if default.is_file():
        return load_weights(default)
    return WeightConfig()


def _cmd_analyze(args) -> int:
    unit = _load_unit(args.file)
    if args.emit == "tokens":
        rows = zip(unit.texts, unit.kinds, unit.lines)
        tokens = [{"text": t, "kind": k.value, "line": n} for t, k, n in rows]
        if args.format == "json":
            _emit_json(tokens)
        else:
            for t in tokens:
                print(f"{t['line']:>4}  {t['kind']:<12} {t['text']}")
        return EXIT_OK
    if args.emit == "graph":
        graph = extract_usage_graph(unit)
        print(graph.to_json() if args.format == "json" else graph.to_dot(), end="")
        return EXIT_OK
    if args.emit == "handlers":
        payload = {**asdict(unit.handlers), "sloc": unit.sloc}
        for row, clause in zip(payload["catch_clauses"], unit.handlers.catch_clauses):
            row["significant_statements"] = clause.significant_count
        if args.format == "json":
            _emit_json(payload)
        else:
            print(
                f"try blocks: {payload['try_blocks']}, "
                f"finally blocks: {payload['finally_blocks']}, "
                f"handler sloc: {payload['handler_sloc']}/{payload['sloc']}"
            )
            for i, clause in enumerate(payload["catch_clauses"], 1):
                types = " | ".join(clause["exception_types"])
                print(f"catch {i}: {types} ({clause['significant_statements']} significant)")
        return EXIT_OK
    report = quality_score(unit)
    if args.format == "json":
        _emit_json(report.to_dict())
    else:
        print(f"readability      {report.readability:.4f}")
        print(f"handler_actions  {report.handler_actions:.4f}")
        print(f"handler_ratio    {report.handler_ratio:.4f}")
        print(f"raw              {report.raw:.4f}")
    return EXIT_OK


def _cmd_query(args) -> int:
    unit = _load_unit(args.file)
    query = formulate_query(unit, _load_kb(args.kb), args.exception)
    print(query.rendered)
    return EXIT_OK


def _parse_query_string(raw: str) -> SearchQuery:
    terms = raw.split()
    if len(terms) != 2:
        raise CatchrecError('query must be two terms: "<exception> <class>"')
    return SearchQuery(exception_name=terms[0], dominant_class=terms[1])


def _cmd_recommend(args) -> int:
    unit = _load_unit(args.file)
    kb = _load_kb(args.kb)
    config = _load_config(args.config)
    query = formulate_query(unit, kb, args.exception)
    filter_query = None if args.no_filter else query
    if args.corpus:
        candidates = corpus_mod.ingest_local(args.corpus, filter_query)
    else:
        fetched = corpus_mod.fetch_remote(
            query,
            orgs=args.orgs,
            limit=args.limit,
            cache_dir=args.cache_dir,
        )
        candidates, _excluded = corpus_mod.apply_filter_detailed(fetched, filter_query)
    if not candidates:
        raise CatchrecError("no candidates survived corpus construction")
    breakdowns = rank(unit, candidates, config, k=args.top)
    if args.format == "json":
        _emit_json([b.to_dict() for b in breakdowns])
    else:
        print(f"query: {query.rendered}")
        for b in breakdowns:
            print(explain(b))
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    cases = load_cases(args.cases)
    oracle = Oracle.from_file(args.oracle)
    report = evaluate(cases, oracle, _load_config(args.config), ks=args.ks)
    if args.format == "json":
        print(report.to_json(), end="")
    else:
        print(report.to_text(), end="")
    return EXIT_OK


def _cmd_fetch(args) -> int:
    query = _parse_query_string(args.query)
    candidates = corpus_mod.fetch_remote(
        query, orgs=args.orgs, limit=args.limit, cache_dir=args.out
    )
    print(f"fetched {len(candidates)} candidates into {args.out}")
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "query": _cmd_query,
    "recommend": _cmd_recommend,
    "evaluate": _cmd_evaluate,
    "fetch": _cmd_fetch,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except CorpusError as exc:
        print(f"catchrec: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except (CatchrecError, OSError, ValueError) as exc:
        print(f"catchrec: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
