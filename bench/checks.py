"""Output checks. Each returns a list of problems; an empty list passes.

The expected values come from the generator's plan (what it built into the
inputs) and from the reference computations in ``oracles``, never from a
stored copy of an earlier output.
"""

from __future__ import annotations

from generate import Case, Workload
from oracles import average_precision, evaluation_metrics, fuse, lcs, significant_texts

FUSION_TOLERANCE = 1e-9
METRIC_TOLERANCE = 1e-12
LCS_CHECKED = 3  # top-ranked candidates whose LCS is recomputed


def check_query(case: Case, rendered: str) -> list[str]:
    if rendered != case.query:
        return [f"{case.name}: query {rendered!r}, planted {case.query!r}"]
    return []


def check_full_ranking(case: Case, rows: list[dict]) -> list[str]:
    """Checks on a ranking of the whole filtered pool (``k`` >= pool size)."""
    problems = []
    ids = [r["candidate_id"] for r in rows]
    kept = {f.id for f in case.kept}
    if len(rows) != len(kept):
        problems.append(f"{case.name}: {len(rows)} candidates ranked, {len(kept)} planted to pass the filter")
    ranked_drops = sorted({f.id for f in case.dropped} & set(ids))
    if ranked_drops:
        problems.append(f"{case.name}: planted drop files ranked: {ranked_drops}")
    if set(ids) - kept - set(ranked_drops):
        problems.append(f"{case.name}: ranked ids that are not in the pool")
    if not rows:
        return problems + [f"{case.name}: empty ranking"]

    for pos, (row, (fid, total)) in enumerate(zip(rows, fuse(rows)), 1):
        if row["candidate_id"] != fid or row["rank"] != pos:
            problems.append(f"{case.name}: rank {pos} holds {row['candidate_id']} (rank field {row['rank']}), fusion gives {fid}")
            break
        if abs(row["total"] - total) > FUSION_TOLERANCE:
            problems.append(f"{case.name}: total of {fid} is {row['total']}, fusion gives {total}")
            break

    context = significant_texts(case.context)
    by_id = {r["candidate_id"]: r for r in rows}
    verbatim = by_id.get(case.verbatim.id)
    if verbatim is None:
        problems.append(f"{case.name}: the verbatim candidate is not ranked")
    else:
        lex = verbatim["lexical"]
        if lex["clone_ratio"] != 1.0 or lex["lcs_length"] != len(context) or lex["context_token_count"] != len(context):
            problems.append(
                f"{case.name}: verbatim candidate has clone ratio {lex['clone_ratio']}, LCS "
                f"{lex['lcs_length']} over {lex['context_token_count']}; the context has {len(context)} tokens"
            )
    texts = {f.id: f.text for f in case.pool}
    for row in rows[:LCS_CHECKED]:
        own = lcs(context, significant_texts(texts.get(row["candidate_id"], "")))
        if row["lexical"]["lcs_length"] != own:
            problems.append(f"{case.name}: LCS of {row['candidate_id']} is {row['lexical']['lcs_length']}, recomputed {own}")
    return problems


def check_evaluation(workload: Workload, report: dict, ks: list[int]) -> list[str]:
    """Checks on an ``evaluate --format json`` report of the whole workload."""
    problems = []
    oracle = {c.name: sorted(f.local_id for f in c.relevant) for c in workload.cases}
    per_case = report.get("per_case", {})
    if sorted(per_case) != sorted(oracle) or report.get("n_cases") != len(oracle):
        return [f"report covers cases {sorted(per_case)[:3]}..., expected {len(oracle)} cases"]
    if report.get("total_relevant") != sum(len(v) for v in oracle.values()):
        problems.append(f"total_relevant {report.get('total_relevant')}")
    ranked = {}
    for case in workload.cases:
        entry = per_case[case.name]
        ranked[case.name] = entry["ranked_ids"]
        if entry["error"] is not None:
            problems.append(f"{case.name}: error {entry['error']}")
        problems += check_query(case, entry["query"])
        if entry["relevant"] != oracle[case.name]:
            problems.append(f"{case.name}: relevant ids differ from the oracle")
        if {f.local_id for f in case.dropped} & set(entry["ranked_ids"]):
            problems.append(f"{case.name}: planted drop files ranked")
        if len(entry["ranked_ids"]) != min(max(ks), len(case.kept)):
            problems.append(f"{case.name}: {len(entry['ranked_ids'])} ranked ids")
        for k in ks:
            own = average_precision(entry["ranked_ids"], set(oracle[case.name]), k)
            if abs(entry["average_precision"][str(k)] - own) > METRIC_TOLERANCE:
                problems.append(f"{case.name}: AP@{k} {entry['average_precision'][str(k)]}, recomputed {own}")
    expected = evaluation_metrics(ranked, oracle, ks)
    for k, metrics in expected.items():
        got = report["per_k"].get(k, {})
        for name, value in metrics.items():
            if name not in got or abs(got[name] - value) > METRIC_TOLERANCE:
                problems.append(f"per_k[{k}].{name} is {got.get(name)}, recomputed {value}")
    return problems
