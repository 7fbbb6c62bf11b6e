"""Every before/after bench record at the repository root (``BENCH_*.json``)
parses and says what it compares, how it was run and what it claims."""

import json
from pathlib import Path

import pytest

RECORDS = sorted((Path(__file__).resolve().parent.parent).glob("BENCH_*.json"))


def test_bench_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_bench_record_names_parent_claim_command_and_results(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    for key in ("parent_commit", "claim", "command", "end_to_end"):
        assert record.get(key), key
    workload, metric = record["claim"]["workload"], record["claim"]["metric"]
    assert metric in record["end_to_end"][workload]["metrics"]
