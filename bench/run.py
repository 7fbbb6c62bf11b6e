"""catchrec benchmark: one workload, one process, every output checked.

    python3 bench/run.py --workload fragment-70 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The program is imported from ``src/``;
the inputs are generated from ``--seed`` and the committed fixtures under
``tests/fixtures``. The run works in a fresh directory under
``.bench_work/`` (no ``catchrec-weights.json`` there, so the CLI uses its
default weights) and removes it at the end.

Set-up, timed as ``setup_s``: import ``catchrec``, load the bundled
knowledge base, formulate every context's query and fill the remote-search
cache for it through ``corpus.fetch_remote`` with an in-process transport
that serves the generated files. It is repeated into a fresh cache, at
least ``SETUP_MIN_REPEATS`` times and for ``SETUP_MIN_SECONDS``, and the
median is reported.

Then each context is checked once, untimed, and the operations are timed in
whole rounds (every context once, in order) until ``--seconds`` have passed.
Every timing is calibrated against the host's speed (``calibration.py``).
With ``--trace 1`` half of the time is run untraced and half traced, and the
layer figures plus the tracing overhead are reported instead of the
end-to-end metrics. The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import urllib.parse
from pathlib import Path

import checks
import generate
import oracles
from calibration import FILE_REFERENCE_MS, REFERENCE_MS, Clock
from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

# Set-up is repeated at least this many times, and until this much time has
# gone into it, so that a short set-up gets more samples for its median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
TOP = 15
EVAL_KS = [5, 10, 15]
CACHE = ".catchrec-cache"


class Tally:
    """Outcome of the timed operations."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # calibrated seconds
        self.wall: list[float] = []
        self.candidates = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, timing: tuple[float, float], candidates: int, problems: list[str],
               crashed: bool = False) -> None:
        """``timing`` is (wall, calibrated) seconds."""
        self.attempted += 1
        if problems or crashed:
            self.failed += 1
            self.problems += problems
            return
        self.wall.append(timing[0])
        self.latencies.append(timing[1])
        self.candidates += candidates

    @property
    def correct(self) -> bool:
        """No output was wrong; an operation that crashed is failed but
        produced no wrong output."""
        return not self.problems


def make_transport(workload):
    """In-process stand-in for the code-search API, serving the generated
    pools: one search per (query, org), one body per file url."""
    items: dict[tuple[str, str], list[dict]] = {}
    bodies: dict[str, bytes] = {}
    for case in workload.cases:
        for f in case.pool:
            url = f"https://api.github.com/repos/{f.repo}/contents/{f.path}"
            bodies[url] = f.text.encode("utf-8")
            items.setdefault((case.query, f.org), []).append(
                {"repository": {"full_name": f.repo}, "path": f.path,
                 "html_url": f"https://github.com/{f.repo}/blob/main/{f.path}", "url": url}
            )

    def transport(url: str, headers: dict[str, str]) -> tuple[int, bytes]:
        if url in bodies:
            return 200, bodies[url]
        params = urllib.parse.parse_qs(urllib.parse.urlsplit(url).query)
        q = params.get("q", [""])[0]
        query, _, org = q.partition(" language:java org:")
        found = items.get((query, org), [])[: int(params.get("per_page", ["30"])[0])]
        return 200, json.dumps({"total_count": len(found), "items": found}).encode("utf-8")

    return transport


def _purge_catchrec() -> None:
    for name in [n for n in sys.modules if n == "catchrec" or n.startswith("catchrec.")]:
        del sys.modules[name]


def fill(catchrec, workload, transport, cache_dir: str) -> dict[str, str]:
    """Formulate each context's query and fill the remote-search cache for
    it; returns the rendered queries by case."""
    kb = catchrec.ExceptionKnowledgeBase.bundled()
    queries = {}
    for case in workload.cases:
        query = catchrec.formulate_query(catchrec.parse(case.context), kb)
        catchrec.fetch_remote(query, workload.orgs, limit=workload.limit, cache_dir=cache_dir,
                              token="offline", transport=transport)
        queries[case.name] = query.rendered
    return queries


def _set_up_once(workload, transport, tracer):
    catchrec = importlib.import_module("catchrec")
    cli = importlib.import_module("catchrec.cli")
    if tracer:
        tracer.install()
    return cli, fill(catchrec, workload, transport, CACHE)


def set_up(workload, transport, clock, tracer=None):
    """Import, load the knowledge base and fill the cache, each time into a
    fresh cache and after dropping the ``catchrec`` modules, repeatedly (see
    ``SETUP_MIN_REPEATS``); returns the CLI module of the last import, the
    (wall, calibrated) seconds of each set-up and the queries formulated."""
    timings: list[tuple[float, float]] = []
    with clock.sampling_files(Path("clock-files")):
        while len(timings) < SETUP_MIN_REPEATS or sum(w for w, _ in timings) < SETUP_MIN_SECONDS:
            shutil.rmtree(CACHE, ignore_errors=True)
            if tracer:
                tracer.uninstall()
                tracer.op = ("setup", len(timings))
            _purge_catchrec()
            gc.collect()  # each set-up starts from the same heap
            (cli, queries), wall, calibrated = clock.time(_set_up_once, workload, transport, tracer)
            timings.append((wall, calibrated))
            if tracer:
                tracer.op = None
    return cli, timings, queries


def checked(check, *args) -> list[str]:
    """Problems a check reports; an output the check cannot even read is
    one problem, not a crash of the benchmark."""
    try:
        return check(*args)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def invoke(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class RecommendRunner:
    """fragment-70 and whole-method-70: one operation is
    ``recommend <context> --remote --top 15 --format json``."""

    def __init__(self, workload, cli, queries, clock):
        self.workload, self.cli, self.clock = workload, cli, clock
        self.paths = {}
        self.prefix: dict[str, list[dict]] = {}
        self.first: dict[str, str] = {}
        self.context_problems: dict[str, list[str]] = {}
        for case in workload.cases:
            path = Path("contexts") / f"{case.name}.java"
            path.parent.mkdir(exist_ok=True)
            path.write_text(case.context, encoding="utf-8")
            self.paths[case.name] = str(path)
        self.queries = queries

    def verify(self) -> None:
        """Untimed: the query, and the ranking of the whole pool."""
        for case in self.workload.cases:
            problems = checks.check_query(case, self.queries.get(case.name, ""))
            code, out = invoke(self.cli, ["query", self.paths[case.name]])
            problems += checks.check_query(case, out.strip()) if code == 0 else [f"{case.name}: query exit {code}"]
            code, out = invoke(self.cli, ["recommend", self.paths[case.name], "--remote",
                                             "--top", str(len(case.pool)), "--format", "json"])
            rows = []
            if code != 0:
                problems.append(f"{case.name}: recommend exit {code}")
            else:
                rows = checked(json.loads, out)
                problems += checked(checks.check_full_ranking, case, rows) if isinstance(rows, list) else rows
            self.prefix[case.name] = rows[:TOP] if isinstance(rows, list) else []
            self.context_problems[case.name] = problems

    def round(self, tally: Tally, tracer=None) -> None:
        for case in self.workload.cases:
            if tracer:
                tracer.op = (case.name, tally.attempted)
            try:
                (code, out), *timing = self.clock.time(
                    invoke, self.cli, ["recommend", self.paths[case.name], "--remote", "--top", str(TOP),
                                       "--format", "json"])
            except Exception:  # a traceback out of main() is a failed operation
                traceback.print_exc()
                tally.record((0.0, 0.0), 0, [], crashed=True)
                continue
            finally:
                if tracer:
                    tracer.op = None
            if code != 0:
                tally.record(timing, 0, [], crashed=True)
                continue
            problems = list(self.context_problems[case.name])
            first = self.first.setdefault(case.name, out)
            if out != first:
                problems.append(f"{case.name}: output differs from the first request")
            elif checked(json.loads, out) != self.prefix[case.name]:
                problems.append(f"{case.name}: top {TOP} is not the head of the whole-pool ranking")
            tally.record(timing, len(case.kept), problems)


class EvaluateRunner:
    """paper-eval-65: one operation is ``evaluate --format json`` over every
    case, the corpora being the cache's ``files/`` directories."""

    def __init__(self, workload, cli, queries, clock):
        self.workload, self.cli, self.queries, self.clock = workload, cli, queries, clock
        Path("contexts").mkdir(exist_ok=True)
        cases = []
        for case in workload.cases:
            ctx = Path("contexts") / f"{case.name}.java"
            ctx.write_text(case.context, encoding="utf-8")
            key = oracles.cache_key(case.query, workload.orgs, workload.limit)
            cases.append({"case_id": case.name, "context_path": str(ctx),
                          "corpus_dir": f"{CACHE}/{key}/files"})
        Path("cases.json").write_text(json.dumps({"cases": cases}, indent=2), encoding="utf-8")
        oracle = {c.name: sorted(f.local_id for f in c.relevant) for c in workload.cases}
        Path("oracle.json").write_text(json.dumps(oracle, indent=2), encoding="utf-8")
        self.kept = sum(len(c.kept) for c in workload.cases)
        self.first: str | None = None
        self.setup_problems: list[str] = []

    def verify(self) -> None:
        """The queries formulated in set-up; the report is checked in full
        on the first timed run, and later runs must repeat it byte for byte."""
        self.setup_problems = [
            p for case in self.workload.cases for p in checks.check_query(case, self.queries.get(case.name, ""))
        ]

    def round(self, tally: Tally, tracer=None) -> None:
        if tracer:
            tracer.op = ("evaluate", tally.attempted)
        try:
            (code, out), *timing = self.clock.time(
                invoke, self.cli, ["evaluate", "--cases", "cases.json", "--oracle", "oracle.json",
                                   "--ks", ",".join(map(str, EVAL_KS)), "--format", "json"])
        except Exception:  # a traceback out of main() is a failed operation
            traceback.print_exc()
            tally.record((0.0, 0.0), 0, [], crashed=True)
            return
        finally:
            if tracer:
                tracer.op = None
        if code != 0:
            tally.record(timing, 0, [], crashed=True)
            return
        problems = list(self.setup_problems)
        if self.first is None:
            self.first = out
            problems += checked(lambda: checks.check_evaluation(self.workload, json.loads(out), EVAL_KS))
        elif out != self.first:
            problems.append("evaluation report differs from the first run")
        tally.record(timing, self.kept, problems)


def timed_rounds(runner, budget: float, tracer=None) -> Tally:
    tally = Tally()
    start = time.perf_counter()
    while True:
        runner.round(tally, tracer)
        if time.perf_counter() - start >= budget:
            return tally


def write_spans(tracer, path: Path) -> None:
    """One JSON object per span: name, id, parent id, operation, start and
    end in seconds, and the work count."""
    path.parent.mkdir(exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as out:
        for s in tracer.spans:
            out.write(json.dumps({"name": s.name, "id": s.sid, "parent": s.parent, "op": s.op,
                                  "start": s.start, "end": s.end, "count": s.count}) + "\n")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _latency_line(label: str, seconds: list[float]) -> str:
    line = f"{label} median {1000 * statistics.median(seconds):.3f} ms"
    if len(seconds) >= 2:
        line += f", 90th percentile {1000 * statistics.quantiles(seconds, n=10)[-1]:.3f} ms"
    return line + f" over {len(seconds)} operations"


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = generate.build(workload_name, seed, FIXTURES)
    transport = make_transport(workload)
    tracer = Tracer() if trace else None
    with Clock() as clock:
        cli, setups, queries = set_up(workload, transport, clock, tracer)
        if tracer:
            tracer.uninstall()
        runner_cls = EvaluateRunner if workload_name == "paper-eval-65" else RecommendRunner
        runner = runner_cls(workload, cli, queries, clock)
        runner.verify()
        if trace:
            plain = timed_rounds(runner, seconds / 2)
            tracer.install()
            tally = timed_rounds(runner, seconds / 2, tracer)
            tracer.uninstall()
        else:
            tally = timed_rounds(runner, seconds)
    speed = statistics.fmean(clock.samples)

    if not trace:
        lat = tally.latencies
        if lat:
            # For reference only: the percentile is no tail at these sample
            # counts, and wall times carry the host's drift.
            print("# " + _latency_line("calibrated latency", lat))
            print("# " + _latency_line("wall latency", tally.wall))
            print(f"# wall set-up median {statistics.median(w for w, _ in setups):.4f} s over {len(setups)}; "
                  f"reference mean {speed:.4f} ms over {len(clock.samples)} samples, against {REFERENCE_MS} ms; "
                  f"file reference mean {statistics.fmean(clock.file_samples):.4f} ms over "
                  f"{len(clock.file_samples)} samples, against {FILE_REFERENCE_MS} ms")
        metrics = {
            "latency_p50_ms": _metric(1000 * statistics.median(lat) if lat else 0.0, "ms"),
            "candidates_per_s": _metric(tally.candidates / sum(lat) if lat else 0.0, "1/s"),
            "setup_s": _metric(statistics.median(c for _, c in setups), "s"),
            "peak_rss_mib": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        ops = sorted({s.op for s in tracer.spans if s.op is not None and s.op[0] != "setup"})
        setup_ops = [("setup", rep) for rep in range(len(setups))]
        metrics = {name: _metric(v * REFERENCE_MS / speed if u == "ms" else v, u)
                   for name, (v, u) in layer_metrics(tracer, ops, setup_ops).items()}
        overhead = 0.0
        if plain.latencies and tally.latencies:
            overhead = 100.0 * (statistics.median(tally.latencies) / statistics.median(plain.latencies) - 1)
        metrics["trace.overhead_pct"] = _metric(overhead, "%")
        if tracer.absent:
            print(f"# absent layers (public name not found): {', '.join(tracer.absent)}")
        write_spans(tracer, RESULTS / f"trace-{workload_name}-{seed}.jsonl.gz")
        tally.attempted += plain.attempted
        tally.failed += plain.failed
        tally.problems += plain.problems
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=generate.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "catchrec" / "__init__.py").is_file() or not FIXTURES.is_dir():
        print(f"bench: no catchrec sources under {SRC} or fixtures under {FIXTURES}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # Without a token, a request that misses the cache stops with an auth
    # error before any network access.
    os.environ.pop("GITHUB_TOKEN", None)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
