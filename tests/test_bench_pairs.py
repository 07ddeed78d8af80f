"""scripts/bench_pairs.py's aggregation, fed canned ``bench/run.py`` result
lines; no benchmark runs."""

from __future__ import annotations

import json

import pytest

from scripts import bench_pairs


def _result_line(rank_s: float, ratio: float, failed: int = 0) -> str:
    return json.dumps({"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": {
        "rank_s": {"value": rank_s, "unit": "s"},
        "ranking.unique_rank_ratio": {"value": ratio, "unit": "ratio"},
    }})


def _runs(values: list[tuple[float, float]]) -> list[dict]:
    order = bench_pairs.interleaved(len(values) // 2)
    return [{"side": side, "result": bench_pairs.parse_result(
                f"[weekly_refresh] progress\n{_result_line(*pair)}\n\n")}
            for side, pair in zip(order, values)]


def test_runs_alternate_parent_change_change_parent():
    assert bench_pairs.interleaved(3) == ["parent", "change", "change", "parent",
                                          "parent", "change"]


def test_summary_gives_medians_quartile_ranges_and_pair_wins():
    # Runs P C | C P | P C | C P.  rank_s is better lower: the change wins
    # pairs 1, 2 and 4.  The ratio is better higher: it wins pair 3 alone.
    runs = _runs([(1.0, 0.5), (0.8, 0.4), (0.95, 0.4), (1.2, 0.5),
                  (0.9, 0.5), (1.0, 0.6), (0.85, 0.5), (1.1, 0.5)])
    summary = bench_pairs.summarize(runs, frozenset({"ranking.unique_rank_ratio"}))
    rank = summary["rank_s"]
    assert rank["parent_median"] == pytest.approx(1.05)
    assert rank["change_median"] == pytest.approx(0.9)
    # statistics.quantiles' default (exclusive) quartiles of four values
    assert rank["parent_iqr"] == pytest.approx(1.175 - 0.925)
    assert rank["change_iqr"] == pytest.approx(0.9875 - 0.8125)
    assert rank["change_wins"] == "3/4"
    assert rank["relative"] == pytest.approx((0.9 - 1.05) / 1.05)
    ratio = summary["ranking.unique_rank_ratio"]
    assert ratio["change_wins"] == "1/4"
    assert (ratio["parent_median"], ratio["change_median"]) == (0.5, pytest.approx(0.45))


def test_a_workload_prefixed_metric_keeps_its_direction():
    runs = [{"side": side, "result": {"metrics": {
                "wide_intel.profiles.resolved_ratio": {"value": value, "unit": "ratio"}}}}
            for side, value in [("parent", 0.5), ("change", 0.9)]]
    summary = bench_pairs.summarize(runs, frozenset({"profiles.resolved_ratio"}))
    assert summary["wide_intel.profiles.resolved_ratio"]["change_wins"] == "1/1"
    assert summary["wide_intel.profiles.resolved_ratio"]["parent_iqr"] == 0.0


def test_directions_come_from_the_benchmark_declaration():
    higher = bench_pairs.higher_is_better()
    assert "ranking.unique_rank_ratio" in higher and "rank_s" not in higher


@pytest.mark.parametrize("stdout", ["", "\n\n", "[year_deep] no result\n", "[1, 2]\n"])
def test_a_run_without_a_result_line_is_refused(stdout):
    with pytest.raises(ValueError):
        bench_pairs.parse_result(stdout)


def test_trees_of_which_one_holds_a_bytecode_cache_are_refused(tmp_path, capsys):
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("", encoding="utf-8")
    (tmp_path / "parent" / "src" / "threatrank" / "__pycache__").mkdir(parents=True)
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                          "--workload", "weekly_refresh", "--pairs", "1"])
    assert exit_info.value.code == 2
    assert "bytecode cache" in capsys.readouterr().err
