from test_cli import rows_from_tsv
from valueprover.reports import (
    build_summary,
    matched_pair_stats,
    rows_to_tsv,
    strategy_aggregates,
)


def row(theorem_id, strategy, status, length=None, nodes=0):
    return {
        "theorem_id": theorem_id,
        "strategy": strategy,
        "status": status,
        "proof": "x" if status == "proved" else None,
        "proof_length": length,
        "nodes_expanded": nodes,
        "tactic_executions": nodes * 2,
    }


ROWS = [
    row("t1", "astar", "proved", 2, 2),
    row("t2", "astar", "proved", 7, 8),
    row("t3", "astar", "exhausted"),
    row("t1", "dfs", "proved", 3, 4),
    row("t2", "dfs", "proved", 7, 7),
    row("t3", "dfs", "proved", 5, 5),
]


def test_strategy_aggregates():
    agg = strategy_aggregates(ROWS, "astar")
    assert agg["theorems"] == 3 and agg["proved"] == 2
    assert agg["proved_pct"] == (200.0 / 3)
    assert agg["mean_proof_length"] == 4.5
    assert agg["mean_nodes_expanded"] == 5.0


def test_matched_pairs_restrict_to_both_proved():
    stats = matched_pair_stats(ROWS, "astar", "dfs")
    assert stats["both_proved"] == 2  # t3 is only proved by dfs
    assert stats["a_shorter"] == 1 and stats["equal_length"] == 1 and stats["a_longer"] == 0
    assert stats["mean_length_a"] == 4.5 and stats["mean_length_b"] == 5.0


def test_union_of_proved():
    summary = build_summary(ROWS, ["astar", "dfs"])
    assert summary["union_proved"] == 3


def test_tsv_round_trip():
    text = rows_to_tsv(ROWS)
    assert rows_from_tsv(text) == ROWS
    assert rows_from_tsv(rows_to_tsv([])) == []
