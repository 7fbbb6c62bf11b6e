"""Spans around calls into catchrec's layers, recorded from outside.

``Tracer.install`` replaces each public function named in ``TARGETS`` by a
wrapper in every ``catchrec`` module that refers to it, so calls between
modules are caught as well; ``uninstall`` puts the originals back. A span
records its name, start, end, parent span and operation id. Spans are kept
in memory per thread; a span opened on a worker thread with nothing open on
it takes as parent the innermost span open on the main thread, which is the
call that started the workers (``evaluate``, ``fetch_remote``).
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass

# (layer span name, module, public function)
TARGETS = (
    ("lexer.scan", "catchrec.lexer", "scan"),
    ("parser.parse", "catchrec.parser", "parse"),
    ("graph.extract", "catchrec.graph", "extract_usage_graph"),
    ("query.formulate", "catchrec.query", "formulate_query"),
    ("lexical.score", "catchrec.lexical", "lexical_score"),
    ("lexical.cosine", "catchrec.lexical", "cosine_similarity"),
    ("lexical.lcs", "catchrec.lexical", "lcs_length"),
    ("structural.score", "catchrec.structural", "structural_score"),
    ("quality.score", "catchrec.quality", "quality_score"),
    ("ranking.rank", "catchrec.ranking", "rank"),
    ("ranking.fuse", "catchrec.ranking", "fuse"),
    ("corpus.fetch", "catchrec.corpus", "fetch_remote"),
    ("corpus.ingest", "catchrec.corpus", "ingest_local"),
    ("corpus.filter", "catchrec.corpus", "apply_filter_detailed"),
    ("evaluation.evaluate", "catchrec.evaluation", "evaluate"),
    ("evaluation.case", "catchrec.evaluation", "run_case"),
    ("cli.main", "catchrec.cli", "main"),
)


@dataclass
class Span:
    name: str
    sid: int
    parent: int | None
    op: object
    start: float
    end: float = 0.0
    count: int = 0  # work the call did: LCS cells, files filtered, a non-exhaustive pairing

    @property
    def duration(self) -> float:
        return self.end - self.start


def _work(name: str, args: tuple, result) -> int:
    if name == "lexical.lcs":
        return len(args[0]) * len(args[1])
    if name == "corpus.filter":
        return len(args[0])
    if name == "structural.score":
        return 0 if result.exhaustive else 1
    return 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: object = None
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.main_thread().ident
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {n: m for n, m in list(sys.modules.items()) if n == "catchrec" or n.startswith("catchrec.")}
        self.absent = []
        for name, module_name, attr in TARGETS:
            original = getattr(modules.get(module_name), attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stacks.setdefault(threading.get_ident(), [])
            if stack:
                parent = stack[-1].sid
            else:
                main = tracer._stacks.get(tracer._main)
                parent = main[-1].sid if main else None
            span = Span(name, next(tracer._ids), parent, tracer.op, time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                span.count = _work(name, args, result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = s.duration - covered
    return out


def layer_metrics(tracer: Tracer, ops: list[object], setups: list[object]) -> dict[str, tuple[float, str]]:
    """Per-operation layer figures over the spans of ``ops``; set-up figures
    are per set-up, over the spans of ``setups``."""
    own = self_times(tracer.spans)
    op_set = set(ops)
    n = max(len(ops), 1)
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        if s.op in op_set:
            by_name.setdefault(s.name, []).append(s)

    def ms(name: str, self_time: bool = False) -> tuple[float, str]:
        spans = by_name.get(name, [])
        total = sum(own[s.sid] if self_time else s.duration for s in spans)
        return 1000.0 * total / n, "ms"

    def per_op(name: str, field: str = "calls") -> tuple[float, str]:
        spans = by_name.get(name, [])
        return (len(spans) if field == "calls" else sum(s.count for s in spans)) / n, "count"

    fills = [
        sum(s.duration for s in tracer.spans if s.op == setup and s.name == "corpus.fetch")
        for setup in setups
    ]
    cases = [s.duration for s in by_name.get("evaluation.case", [])]
    return {
        "lexer.scan_ms": ms("lexer.scan"),
        "parser.parse_ms": ms("parser.parse", self_time=True),
        "parser.calls": per_op("parser.parse"),
        "lexical.lcs_ms": ms("lexical.lcs"),
        "lexical.lcs_cells": per_op("lexical.lcs", "work"),
        "lexical.cosine_ms": ms("lexical.cosine"),
        "lexical.score_ms": ms("lexical.score", self_time=True),
        "structural.score_ms": ms("structural.score", self_time=True),
        "structural.calls": per_op("structural.score"),
        "structural.nonexhaustive": per_op("structural.score", "work"),
        "graph.extract_ms": ms("graph.extract"),
        "graph.calls": per_op("graph.extract"),
        "corpus.fill_ms": (1000.0 * statistics.median(fills) if fills else 0.0, "ms"),
        "corpus.replay_ms": ms("corpus.fetch"),
        "cli.main_ms": ms("cli.main", self_time=True),
        "corpus.ingest_ms": ms("corpus.ingest", self_time=True),
        "corpus.filter_ms": ms("corpus.filter", self_time=True),
        "corpus.files": per_op("corpus.filter", "work"),
        "evaluation.evaluate_ms": ms("evaluation.evaluate", self_time=True),
        "evaluation.case_ms_p50": (1000.0 * statistics.median(cases) if cases else 0.0, "ms"),
        "query.formulate_ms": ms("query.formulate"),
        "quality.score_ms": ms("quality.score"),
        "ranking.rank_ms": ms("ranking.rank", self_time=True),
        "ranking.fuse_ms": ms("ranking.fuse"),
    }
