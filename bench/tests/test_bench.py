"""Tests of the benchmark's own reference computations and output checks.

    PYTHONPATH=src python -m pytest -q bench/tests

The oracles are compared with brute force on small inputs. Each check is
then fed a real catchrec output, which must pass, and a corrupted copy,
which must make the operation count as failed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import itertools
import json
import random
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import generate  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import calibration  # noqa: E402
from calibration import Clock  # noqa: E402

import catchrec  # noqa: E402
import catchrec.cli  # noqa: E402


def _brute_lcs(a: list[str], b: list[str]) -> int:
    for size in range(min(len(a), len(b)), 0, -1):
        subs = set(itertools.combinations(b, size))
        if any(c in subs for c in itertools.combinations(a, size)):
            return size
    return 0


def test_lcs_matches_brute_force():
    rng = random.Random(7)
    for _ in range(300):
        a = [rng.choice("abc") for _ in range(rng.randint(0, 7))]
        b = [rng.choice("abcd") for _ in range(rng.randint(0, 7))]
        assert oracles.lcs(a, b) == _brute_lcs(a, b)


def _brute_ap(ranked: list[str], relevant: set[str], k: int) -> float:
    positions = [i for i in range(1, min(k, len(ranked)) + 1) if ranked[i - 1] in relevant]
    if not positions:
        return 0.0
    return sum(
        len([j for j in positions if j <= p]) / p for p in positions
    ) / len(positions)


def test_retrieval_metrics_match_brute_force():
    rng = random.Random(11)
    ids = [f"id{i}" for i in range(8)]
    for _ in range(200):
        ranked = {c: rng.sample(ids, rng.randint(0, 8)) for c in ("a", "b", "c")}
        oracle = {c: sorted(rng.sample(ids, rng.randint(0, 4))) for c in ranked}
        got = oracles.evaluation_metrics(ranked, oracle, [1, 3, 5])
        for k in (1, 3, 5):
            top = {c: ranked[c][:k] for c in ranked}
            hits = {c: len([i for i in top[c] if i in oracle[c]]) for c in ranked}
            total = sum(len(v) for v in oracle.values())
            m = got[str(k)]
            assert m["mean_precision"] == pytest.approx(
                sum(hits[c] / len(top[c]) if top[c] else 0.0 for c in ranked) / 3, abs=1e-12)
            assert m["mean_average_precision"] == pytest.approx(
                sum(_brute_ap(ranked[c], set(oracle[c]), k) for c in ranked) / 3, abs=1e-12)
            assert m["recall"] == pytest.approx(sum(hits.values()) / total if total else 0.0, abs=1e-12)
            assert m["handled_cases"] == len([c for c in ranked if hits[c]])
            assert m["retrieved_relevant"] == sum(hits.values())


def test_tokenizer_matches_documented_significant_tokens():
    from catchrec.lexical import significant_tokens

    for path in sorted((BENCH.parent / "tests" / "fixtures").rglob("*.java")):
        text = path.read_text(encoding="utf-8")
        expected = [t.text for t in significant_tokens(catchrec.parse(text))]
        assert oracles.significant_texts(text) == expected, path.name



def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_clock_scales_user_time_by_the_reference():
    clock = Clock()

    def step_on_a_host_at_half_speed():
        _busy(0.05)
        clock.samples.append(2 * calibration.REFERENCE_MS)

    _, wall, calibrated = clock.time(step_on_a_host_at_half_speed)
    assert calibrated == pytest.approx(wall / 2, rel=0.1)


def test_clock_samples_while_entered_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with Clock() as clock:
        _busy(10 * calibration.PERIOD_S)
    assert len(clock.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is before

# ---------------------------------------------------------------------------
# Checks on real outputs and on corrupted copies
# ---------------------------------------------------------------------------


class _Corrupting:
    """A CLI whose ``recommend``/``evaluate`` output passes through ``edit``."""

    def __init__(self, edit):
        self.edit = edit

    def main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = catchrec.cli.main(argv)
        text = out.getvalue()
        if argv[0] in ("recommend", "evaluate"):
            text = self.edit(argv, text)
        sys.stdout.write(text)
        return code


@functools.cache
def _built(name: str) -> generate.Workload:
    return generate.build(name, 3, BENCH.parent / "tests" / "fixtures")


def _workload(name: str, cases: int) -> generate.Workload:
    return dataclasses.replace(_built(name), cases=_built(name).cases[:cases])


@pytest.fixture
def fragment(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GITHUB_TOKEN", raising=False)
    wl = _workload("fragment-70", 1)
    queries = run.fill(catchrec, wl, run.make_transport(wl), run.CACHE)
    return wl, queries


def _recommend_failures(fragment, edit) -> run.Tally:
    wl, queries = fragment
    runner = run.RecommendRunner(wl, _Corrupting(edit), queries, Clock())
    runner.verify()
    tally = run.Tally()
    runner.round(tally)
    return tally


def _edit_rows(edit):
    def apply(argv, text):
        rows = json.loads(text)
        edit(rows)
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    return apply


def test_real_recommend_output_passes(fragment):
    tally = _recommend_failures(fragment, lambda argv, text: text)
    assert (tally.attempted, tally.failed, tally.correct) == (1, 0, True)


def test_swapped_ranked_ids_fail(fragment):
    def swap(rows):
        rows[0]["candidate_id"], rows[1]["candidate_id"] = rows[1]["candidate_id"], rows[0]["candidate_id"]

    tally = _recommend_failures(fragment, _edit_rows(swap))
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)


def test_clone_ratio_one_token_off_fails(fragment):
    wl, _ = fragment
    verbatim = wl.cases[0].verbatim.id

    def one_off(rows):
        for row in rows:
            if row["candidate_id"] == verbatim:
                lex = row["lexical"]
                lex["lcs_length"] -= 1
                lex["clone_ratio"] = lex["lcs_length"] / lex["context_token_count"]

    tally = _recommend_failures(fragment, _edit_rows(one_off))
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)


def test_ranked_drop_file_fails(fragment):
    wl, _ = fragment
    dropped = wl.cases[0].dropped[0].id

    def plant(rows):
        rows[-1]["candidate_id"] = dropped

    assert _recommend_failures(fragment, _edit_rows(plant)).failed == 1


@pytest.fixture
def evaluation(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GITHUB_TOKEN", raising=False)
    wl = _workload("paper-eval-65", 2)
    queries = run.fill(catchrec, wl, run.make_transport(wl), run.CACHE)
    return wl, queries


def _evaluate_failures(evaluation, edit) -> run.Tally:
    wl, queries = evaluation
    runner = run.EvaluateRunner(wl, _Corrupting(edit), queries, Clock())
    runner.verify()
    tally = run.Tally()
    runner.round(tally)
    return tally


def test_real_evaluation_report_passes(evaluation):
    tally = _evaluate_failures(evaluation, lambda argv, text: text)
    assert (tally.attempted, tally.failed, tally.correct) == (1, 0, True)


def test_changed_average_precision_fails(evaluation):
    def change(argv, text):
        report = json.loads(text)
        entry = next(iter(report["per_case"].values()))
        entry["average_precision"]["5"] += 0.01
        return json.dumps(report)

    tally = _evaluate_failures(evaluation, change)
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)


def test_case_error_fails(evaluation):
    def error(argv, text):
        report = json.loads(text)
        next(iter(report["per_case"].values()))["error"] = "ValueError: corrupt"
        return json.dumps(report)

    assert _evaluate_failures(evaluation, error).failed == 1
