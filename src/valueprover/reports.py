"""Evaluation reports: per-theorem rows plus recomputable aggregates.

A report is one row per (theorem, strategy) with the search outcome, a
per-strategy aggregate block, and matched-pair comparisons restricted to
the theorems both strategies of a pair proved. Rows are written as a
tab-separated file and the aggregates as JSON; both are deterministic, so
timing is deliberately left out of the files.
"""

from __future__ import annotations

import json
import os
from itertools import combinations

__all__ = [
    "ROW_FIELDS",
    "build_summary",
    "matched_pair_stats",
    "rows_to_tsv",
    "write_report",
]

ROW_FIELDS = (
    "theorem_id",
    "strategy",
    "status",
    "proof",
    "proof_length",
    "nodes_expanded",
    "tactic_executions",
)


def _proved_rows(rows: list[dict], strategy: str) -> dict[str, dict]:
    return {r["theorem_id"]: r for r in rows if r["strategy"] == strategy and r["status"] == "proved"}


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def strategy_aggregates(rows: list[dict], strategy: str) -> dict:
    mine = [r for r in rows if r["strategy"] == strategy]
    proved = [r for r in mine if r["status"] == "proved"]
    return {
        "strategy": strategy,
        "theorems": len(mine),
        "proved": len(proved),
        "proved_pct": 100.0 * len(proved) / len(mine) if mine else 0.0,
        "mean_proof_length": _mean([r["proof_length"] for r in proved]),
        "mean_nodes_expanded": _mean([r["nodes_expanded"] for r in proved]),
    }


def matched_pair_stats(rows: list[dict], strategy_a: str, strategy_b: str) -> dict:
    """Comparison restricted to theorems proved by BOTH strategies."""
    a_rows = _proved_rows(rows, strategy_a)
    b_rows = _proved_rows(rows, strategy_b)
    common = sorted(set(a_rows) & set(b_rows))
    shorter = equal = longer = 0
    for theorem_id in common:
        la = a_rows[theorem_id]["proof_length"]
        lb = b_rows[theorem_id]["proof_length"]
        if la < lb:
            shorter += 1
        elif la == lb:
            equal += 1
        else:
            longer += 1
    return {
        "strategy_a": strategy_a,
        "strategy_b": strategy_b,
        "both_proved": len(common),
        "a_shorter": shorter,
        "equal_length": equal,
        "a_longer": longer,
        "mean_length_a": _mean([a_rows[t]["proof_length"] for t in common]),
        "mean_length_b": _mean([b_rows[t]["proof_length"] for t in common]),
        "mean_nodes_a": _mean([a_rows[t]["nodes_expanded"] for t in common]),
        "mean_nodes_b": _mean([b_rows[t]["nodes_expanded"] for t in common]),
    }


def build_summary(rows: list[dict], strategies: list[str]) -> dict:
    summary = {
        "strategies": {s: strategy_aggregates(rows, s) for s in strategies},
        "matched_pairs": {},
    }
    for a, b in combinations(strategies, 2):
        summary["matched_pairs"][f"{a}_vs_{b}"] = matched_pair_stats(rows, a, b)
    if len(strategies) >= 2:
        proved_sets = [set(_proved_rows(rows, s)) for s in strategies]
        summary["union_proved"] = len(set.union(*proved_sets))
    return summary


def rows_to_tsv(rows: list[dict]) -> str:
    lines = ["\t".join(ROW_FIELDS)]
    for row in rows:
        lines.append("\t".join(_cell(row[field]) for field in ROW_FIELDS))
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    return "" if value is None else str(value)


def write_report(out_dir: str, rows: list[dict], strategies: list[str]) -> dict:
    """Write rows.tsv and summary.json under out_dir; returns the summary."""
    os.makedirs(out_dir, exist_ok=True)
    summary = build_summary(rows, strategies)
    with open(os.path.join(out_dir, "rows.tsv"), "w", encoding="utf-8") as fh:
        fh.write(rows_to_tsv(rows))
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return summary
