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


def test_summary_marks_each_bounded_metric_over_its_bound_and_totals_operations():
    # setup_s is 30% worse against a 25% bound, rank_s 20% worse inside it;
    # the better-higher ratio fell 10% against a 5% bound, and the
    # better-higher hits rose 50%, which is no worsening.  The bound of a
    # metric no run reports marks nothing, and an unbounded metric has no mark.
    def result(setup_s, rank_s, ratio, hits, attempted, failed):
        values = {"setup_s": setup_s, "rank_s": rank_s, "ranking.unique_rank_ratio": ratio,
                  "hits": hits, "ranking.rank_s": rank_s}
        return {"attempted": attempted, "failed": failed,
                "metrics": {name: {"value": value, "unit": "s"} for name, value in values.items()}}

    runs = [{"side": "parent", "result": result(1.0, 1.0, 0.5, 2.0, 40, 0)},
            {"side": "change", "result": result(1.3, 1.2, 0.45, 3.0, 41, 1)},
            {"side": "change", "result": result(1.3, 1.2, 0.45, 3.0, 39, 2)},
            {"side": "parent", "result": result(1.0, 1.0, 0.5, 2.0, 40, 0)}]
    bounds = {"setup_s": 0.25, "rank_s": 0.25, "ranking.unique_rank_ratio": 0.05, "hits": 0.05,
              "out_mb": 0.05}
    summary = bench_pairs.summarize(runs, frozenset({"ranking.unique_rank_ratio", "hits"}),
                                    bounds)
    assert {name: entry.get("over_bound") for name, entry in summary.items()} == {
        "setup_s": True, "rank_s": False, "ranking.unique_rank_ratio": True, "hits": False,
        "ranking.rank_s": None}
    assert bench_pairs.operations(runs) == {"parent": {"attempted": 80, "failed": 0},
                                            "change": {"attempted": 80, "failed": 3}}


def test_bounds_come_from_the_benchmark_declaration_under_both_names():
    bounds = bench_pairs.end_to_end_bounds()
    assert bounds["setup_s"] == bounds["year_deep.setup_s"] == 0.25
    assert bounds["out_mb"] == bounds["wide_intel.out_mb"] == 0.05
    assert "ranking.rank_s" not in bounds and "year_deep.ranking.rank_s" not in bounds


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


# A stand-in for a tree's bench/run.py: it prints the tree it lives in, then
# one result line saying where it ran and with what arguments.
_STUB_RUN = '''\
import json, os, sys
from pathlib import Path

tree = Path(__file__).resolve().parents[1]
print(tree)
rank_s = {"parent": 1.0, "change": 0.9}[tree.name]
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "cwd": os.getcwd(),
                  "tree": str(tree), "argv": sys.argv[1:],
                  "metrics": {"rank_s": {"value": rank_s, "unit": "s"}}}))
'''


def test_main_runs_each_tree_in_its_own_directory_and_writes_every_series(tmp_path):
    trees = {}
    for side in ("parent", "change"):
        trees[side] = tmp_path / side
        (trees[side] / "bench").mkdir(parents=True)
        (trees[side] / "bench" / "run.py").write_text(_STUB_RUN, encoding="utf-8")
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([
        str(trees["parent"]), str(trees["change"]), "--workload", "weekly_refresh",
        "--pairs", "2", "--seconds", "5", "--also", "year_deep=1", "--held-out-seed", "2",
        "--held-out-pairs", "1", "--traced-pairs", "1", "--change", "a stub change",
        "--parent-commit", "0123abc", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert list(report) == ["change", "parent_commit", "machine", "command", "order", "runs",
                            "summary", "held_out_seed", "traced", "also"]
    assert (report["change"], report["parent_commit"]) == ("a stub change", "0123abc")
    assert report["order"] == ["parent", "change", "change", "parent"]
    assert report["summary"]["rank_s"]["change_wins"] == "2/2"
    assert report["summary"]["rank_s"]["over_bound"] is False
    assert report["summary"]["operations"] == {"parent": {"attempted": 2, "failed": 0},
                                               "change": {"attempted": 2, "failed": 0}}
    series = {("weekly_refresh", "1", "0"): report,
              ("year_deep", "1", "0"): report["also"]["year_deep"],
              ("weekly_refresh", "2", "0"): report["held_out_seed"],
              ("weekly_refresh", "1", "1"): report["traced"]}
    assert list(report["also"]) == ["year_deep"]
    for (workload, seed, trace), run_series in series.items():
        assert run_series["command"] == (f"python3 bench/run.py --workload {workload} "
                                         f"--seed {seed} --seconds 5 --trace {trace}")
        assert [run["side"] for run in run_series["runs"]] == run_series["order"]
        for run in run_series["runs"]:
            result, tree = run["result"], str(trees[run["side"]])
            assert (result["cwd"], result["tree"]) == (tree, tree)
            assert result["argv"] == run_series["command"].split()[2:]
