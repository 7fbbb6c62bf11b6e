import json
import logging
import random

import pytest

from catchrec import Oracle, evaluate, load_cases
from catchrec.errors import CatchrecError
from catchrec.evaluation import (
    CaseSpec,
    average_precision_at_k,
    precision_at_list,
    recall_overall,
)

# ---------------------------------------------------------------------------
# Rank-list metrics against brute-force counters
# ---------------------------------------------------------------------------


def brute_precision(ranked, relevant, k):
    top = ranked[:k]
    return (len([r for r in top if r in relevant]) / len(top)) if top else 0.0


def brute_ap(ranked, relevant, k):
    values = []
    for i in range(len(ranked[:k])):
        if ranked[i] in relevant:
            values.append(brute_precision(ranked, relevant, i + 1))
    return sum(values) / len(values) if values else 0.0


def test_precision_examples():
    assert precision_at_list(["a", "b", "c", "d", "e"], {"a", "d"}, 5) == pytest.approx(0.4)
    assert precision_at_list(["a", "b"], {"a", "b"}, 2) == 1.0
    assert precision_at_list(["a", "b"], {"a", "b"}, 5) == 1.0  # denominator caps at list length
    assert precision_at_list([], {"a"}, 3) == 0.0


def test_precision_rejects_bad_k():
    with pytest.raises(ValueError):
        precision_at_list(["a"], {"a"}, 0)
    with pytest.raises(ValueError):
        average_precision_at_k(["a"], {"a"}, 0)


def test_average_precision_worked_example():
    # relevance pattern [1, 0, 1] with k=3: (1/1 + 2/3) / 2
    value = average_precision_at_k(["r1", "x", "r2"], {"r1", "r2"}, 3)
    assert value == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-9)


def test_average_precision_first_hit_only():
    assert average_precision_at_k(["r", "x", "y", "z", "w"], {"r"}, 5) == 1.0


def test_average_precision_no_hits():
    assert average_precision_at_k(["x", "y"], {"r"}, 5) == 0.0


def test_metrics_match_brute_force_randomized():
    rng = random.Random(424242)
    ids = [f"d{i}" for i in range(10)]
    for _ in range(200):
        ranked = rng.sample(ids, rng.randint(0, 10))
        relevant = set(rng.sample(ids, rng.randint(0, 10)))
        for k in range(1, 11):
            assert precision_at_list(ranked, relevant, k) == pytest.approx(
                brute_precision(ranked, relevant, k)
            )
            assert average_precision_at_k(ranked, relevant, k) == pytest.approx(
                brute_ap(ranked, relevant, k)
            )


def test_recall_pooled_arithmetic():
    assert recall_overall(135, 176) == pytest.approx(0.76705, abs=5e-6)
    assert recall_overall(0, 176) == 0.0
    assert recall_overall(0, 0) == 0.0


# ---------------------------------------------------------------------------
# Whole-pipeline evaluation on a synthetic three-case suite
# ---------------------------------------------------------------------------

RELEVANT_READER = """\
FileReader reader = new FileReader(path);
try {
    int c = reader.read();
    use(c);
} catch (FileNotFoundException missing) {
    Log.warn("missing file " + path, missing);
    notifyUser(missing.getMessage());
} finally {
    reader.close();
}
"""

OTHER_READER = """\
FileReader in = new FileReader(name);
try {
    process(in.read());
} catch (FileNotFoundException gone) {
    recover(gone);
}
"""

READER_DISTRACTOR = """\
Socket peer = new Socket(host, port);
try {
    peer.getOutputStream();
} catch (FileNotFoundException impossible) {
    drop(impossible);
}
"""


def build_suite(tmp_path):
    contexts = tmp_path / "contexts"
    contexts.mkdir()
    (contexts / "reader.java").write_text(
        "FileReader reader = new FileReader(path);\n"
        "try {\n    reader.read();\n} catch (FileNotFoundException e) { }\n"
    )
    (contexts / "url.java").write_text(
        "URL url = new URL(address);\n"
        "try {\n    url.openConnection();\n} catch (Exception e) { }\n"
    )
    (contexts / "socket.java").write_text(
        "Socket link = new Socket(host, port);\n"
        "try {\n    link.getInputStream();\n} catch (Exception e) { }\n"
    )

    corpora = {
        "case_a": {
            "a_good.java": RELEVANT_READER,
            "a_other.java": OTHER_READER,
            "a_noise.java": READER_DISTRACTOR,
        },
        "case_b": {
            # the context itself is planted, so the top hit is guaranteed
            "b_self.java": (contexts / "url.java").read_text().replace("Exception", "IOException"),
            "b_noise.java": "try { x(); } catch (IOException e) { quiet(e); }\nint pad = 1;\nint more = 2;\n",
        },
        "case_c": {
            "c_one.java": "Socket s = new Socket(h, p);\ntry {\n    s.getInputStream();\n} catch (IOException e) {\n    Log.warn(\"io\", e);\n    retry(s);\n}\n",
            "c_two.java": "try { connect(); } catch (IOException e) { abort(e); }\nint pad = 1;\nint more = 2;\n",
        },
    }
    for case_id, files in corpora.items():
        case_dir = tmp_path / "corpus" / case_id
        case_dir.mkdir(parents=True)
        for name, text in files.items():
            (case_dir / name).write_text(text)

    cases = {
        "cases": [
            {"case_id": "case_a", "context_path": "contexts/reader.java", "corpus_dir": "corpus/case_a"},
            {"case_id": "case_b", "context_path": "contexts/url.java", "corpus_dir": "corpus/case_b"},
            {
                "case_id": "case_c",
                "context_path": "contexts/socket.java",
                "corpus_dir": "corpus/case_c",
                "exception_name": "IOException",
            },
        ]
    }
    (tmp_path / "cases.json").write_text(json.dumps(cases, indent=2))

    from catchrec.corpus import LocalOrigin, candidate_id

    oracle = {
        "case_a": [candidate_id(LocalOrigin("a_good.java")), candidate_id(LocalOrigin("a_other.java"))],
        "case_b": [candidate_id(LocalOrigin("b_self.java"))],
        "case_c": [candidate_id(LocalOrigin("c_one.java"))],
    }
    (tmp_path / "oracle.json").write_text(json.dumps(oracle, indent=2))
    return tmp_path / "cases.json", tmp_path / "oracle.json"


def test_synthetic_suite_matches_brute_force(tmp_path):
    cases_path, oracle_path = build_suite(tmp_path)
    cases = load_cases(cases_path)
    oracle = Oracle.from_file(oracle_path)
    report = evaluate(cases, oracle, ks=(1, 2, 3))

    assert report.n_cases == 3
    assert report.total_relevant == 4
    for case in report.per_case.values():
        assert case["error"] is None

    # independent recomputation from the reported rank lists
    for k in (1, 2, 3):
        metrics = report.per_k[k]
        rows = [
            (case["ranked_ids"], set(case["relevant"]))
            for case in report.per_case.values()
        ]
        mp = sum(brute_precision(r, rel, k) for r, rel in rows) / 3
        mapk = sum(brute_ap(r, rel, k) for r, rel in rows) / 3
        retrieved = sum(len([x for x in r[:k] if x in rel]) for r, rel in rows)
        handled = sum(1 for r, rel in rows if any(x in rel for x in r[:k]))
        assert metrics.mean_precision == pytest.approx(mp)
        assert metrics.mean_average_precision == pytest.approx(mapk)
        assert metrics.retrieved_relevant == retrieved
        assert metrics.handled_cases == handled
        assert metrics.recall == pytest.approx(retrieved / 4)
        assert metrics.handled_fraction == pytest.approx(handled / 3)


def test_identity_plants_guarantee_full_peh(tmp_path):
    cases_path, oracle_path = build_suite(tmp_path)
    cases = [c for c in load_cases(cases_path) if c.case_id == "case_b"]
    oracle = Oracle.from_file(oracle_path)
    report = evaluate(cases, oracle, ks=(1, 2))
    for k in (1, 2):
        assert report.per_k[k].handled_fraction == 1.0


def test_teh_and_recall_monotone_in_k(tmp_path):
    cases_path, oracle_path = build_suite(tmp_path)
    report = evaluate(load_cases(cases_path), Oracle.from_file(oracle_path), ks=(1, 2, 3))
    handled = [report.per_k[k].handled_cases for k in (1, 2, 3)]
    recall = [report.per_k[k].recall for k in (1, 2, 3)]
    assert handled == sorted(handled)
    assert recall == sorted(recall)


def test_case_failure_recorded_and_run_continues(tmp_path):
    cases_path, oracle_path = build_suite(tmp_path)
    cases = load_cases(cases_path)
    cases.append(
        CaseSpec(case_id="case_missing", context_path=str(tmp_path / "gone.java"), corpus_dir=str(tmp_path))
    )
    report = evaluate(cases, Oracle.from_file(oracle_path), ks=(1,))
    assert report.n_cases == 4
    assert report.per_case["case_missing"]["error"] is not None
    assert report.per_case["case_missing"]["ranked_ids"] == []
    assert report.per_case["case_a"]["error"] is None


def test_unreadable_context_error_names_the_file(tmp_path):
    cases_path, oracle_path = build_suite(tmp_path)
    context = tmp_path / "contexts" / "url.java"
    context.write_bytes(b"\xff\xfe" + context.read_bytes())
    report = evaluate(load_cases(cases_path), Oracle.from_file(oracle_path), ks=(1,))
    assert str(context) in report.per_case["case_b"]["error"]
    assert report.per_case["case_b"]["ranked_ids"] == []
    assert report.per_case["case_a"]["error"] is None


def test_empty_oracle_set_warns(tmp_path, caplog):
    cases_path, _oracle_path = build_suite(tmp_path)
    cases = [c for c in load_cases(cases_path) if c.case_id == "case_a"]
    empty_oracle = Oracle({})
    with caplog.at_level(logging.WARNING):
        report = evaluate(cases, empty_oracle, ks=(1,))
    assert any("no relevant examples" in m for m in caplog.messages)
    assert report.per_k[1].recall == 0.0
    assert 0.0 <= report.per_k[1].mean_precision <= 1.0


def test_empty_exception_name_fails_the_case(tmp_path):
    cases_path, oracle_path = build_suite(tmp_path)
    payload = json.loads(cases_path.read_text())
    payload["cases"][2]["exception_name"] = ""
    cases_path.write_text(json.dumps(payload))
    report = evaluate(load_cases(cases_path), Oracle.from_file(oracle_path), ks=(1,))
    assert report.per_case["case_c"]["error"].startswith("UnknownException:")
    assert report.per_case["case_c"]["ranked_ids"] == []


def test_load_cases_rejects_duplicates(tmp_path):
    payload = {
        "cases": [
            {"case_id": "x", "context_path": "a.java", "corpus_dir": "d"},
            {"case_id": "x", "context_path": "b.java", "corpus_dir": "d"},
        ]
    }
    path = tmp_path / "cases.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(CatchrecError, match="duplicate case id: x") as excinfo:
        load_cases(path)
    assert str(path) in str(excinfo.value)


def test_report_serializations(tmp_path):
    cases_path, oracle_path = build_suite(tmp_path)
    report = evaluate(load_cases(cases_path), Oracle.from_file(oracle_path), ks=(1, 3))
    payload = json.loads(report.to_json())
    assert payload["ks"] == [1, 3]
    assert set(payload["per_k"]) == {"1", "3"}
    text = report.to_text()
    assert "MP" in text and "MAPK" in text and "TEH" in text and "PEH" in text and "Recall" in text


def test_repeated_cutoffs_count_once(tmp_path):
    cases_path, oracle_path = build_suite(tmp_path)
    cases, oracle = load_cases(cases_path), Oracle.from_file(oracle_path)
    report = evaluate(cases, oracle, ks=(3, 1, 3, 1))
    assert report.ks == (1, 3)
    assert report.to_json() == evaluate(cases, oracle, ks=(1, 3)).to_json()


def test_report_json_deterministic(tmp_path):
    cases_path, oracle_path = build_suite(tmp_path)
    cases, oracle = load_cases(cases_path), Oracle.from_file(oracle_path)
    assert evaluate(cases, oracle).to_json() == evaluate(cases, oracle).to_json()


def test_evaluate_validates_inputs(tmp_path):
    with pytest.raises(ValueError):
        evaluate([], Oracle({}))
    cases_path, oracle_path = build_suite(tmp_path)
    with pytest.raises(ValueError):
        evaluate(load_cases(cases_path), Oracle.from_file(oracle_path), ks=())
