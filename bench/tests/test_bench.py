"""Tests of the benchmark itself, on tiny corpora.

Run from the repository root: ``python -m pytest -q bench/tests``.
"""

from __future__ import annotations

import csv
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from corpus import PRIMARY_ORG, WORKLOADS, generate  # noqa: E402
from layers import PER_LAYER, refresh_metrics  # noqa: E402
from oracle import check_outputs  # noqa: E402
from run import Runner, _commands  # noqa: E402

from threatrank import cli  # noqa: E402

TINY = {
    "many_orgs": replace(WORKLOADS["wide_intel"], weeks=3, query_weeks=3, orgs=3,
                         items_per_org=8, unresolved_per_org=1, versions=2, extra_cpes=10,
                         applicable_per_week=6, noise_per_week=3, groups=12,
                         filler_sentences=1, cwes=8, capecs=8, techniques=8),
    "one_week": replace(WORKLOADS["weekly_refresh"], weeks=4, query_weeks=1, orgs=2,
                        items_per_org=6, unresolved_per_org=1, versions=2, extra_cpes=10,
                        applicable_per_week=5, noise_per_week=5, groups=6,
                        filler_sentences=1, cwes=6, capecs=6, techniques=6),
}


def _pipeline(tmp_path: Path, shape, seed: int = 3):
    corpus = generate("tiny", seed, tmp_path / "corpus", shape=shape)
    for _stage, label, args in _commands(corpus):
        assert cli.main(args) == 0, label
    return corpus


def _failed(results) -> set[str]:
    return {name for name, ok, _ in results if not ok}


@pytest.fixture(scope="module", params=sorted(TINY))
def finished(request, tmp_path_factory):
    return _pipeline(tmp_path_factory.mktemp(request.param), TINY[request.param])


def test_oracle_passes_on_current_code(finished):
    results = check_outputs(finished, finished.out_dir)
    assert len(results) >= 15
    assert _failed(results) == set()


def _mutated(corpus, tmp_path: Path, edit) -> Path:
    out = tmp_path / "mutant"
    shutil.copytree(corpus.out_dir, out)
    path = out / f"ranked_{PRIMARY_ORG}_apt_threat.csv"
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return out


def test_oracle_rejects_two_swapped_rows(finished, tmp_path):
    def swap(rows):
        # Two rows of one week with different scores: first and last.
        week = [i for i, row in enumerate(rows) if row[2] == rows[1][2]]
        first, last = week[0], week[-1]
        assert rows[first][5] != rows[last][5]
        rows[first][3:], rows[last][3:] = rows[last][3:], rows[first][3:]
    failed = _failed(check_outputs(finished, _mutated(finished, tmp_path, swap)))
    assert {"order.apt_threat", "model.apt_threat"} <= failed


def test_oracle_rejects_one_altered_score(finished, tmp_path):
    def alter(rows):
        rows[1][5] = str(int(float(rows[1][5])) % 6 + 1)
    failed = _failed(check_outputs(finished, _mutated(finished, tmp_path, alter)))
    assert {"score_sum.apt_threat", "model.apt_threat"} <= failed


def test_one_seed_gives_identical_inputs(tmp_path):
    shape = TINY["many_orgs"]
    first = generate("tiny", 7, tmp_path / "a", shape=shape)
    again = generate("tiny", 7, tmp_path / "b", shape=shape)
    other = generate("tiny", 8, tmp_path / "c", shape=shape)
    assert first.input_sha256 == again.input_sha256
    assert first.input_sha256 != other.input_sha256
    assert first.sizes == other.sizes


def test_traced_refresh_reports_every_layer_metric(tmp_path):
    corpus = generate("tiny", 5, tmp_path / "corpus", shape=TINY["many_orgs"])
    work = tmp_path / "work"
    work.mkdir()
    refresh = Runner(ROOT, corpus, work).refresh(0, traced=True)
    assert refresh.failed == []
    metrics = refresh_metrics(refresh.spans)
    assert set(metrics) == set(PER_LAYER) - {"trace_overhead_s"}
    assert metrics["kgraph.load_calls"] == 6
    assert metrics["ranking.rank_calls"] > 0
    assert 0 < metrics["ranking.unique_rank_ratio"] < 1
    assert _failed(check_outputs(corpus, corpus.out_dir)) == set()
