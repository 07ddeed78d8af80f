"""``errors.output_file`` writes a file whole or not at all, and names the
target of a write that fails."""

from __future__ import annotations

import os
import re
import stat

import pytest

from threatrank.errors import DataError, output_file, write_csv


def test_a_directory_target_is_a_data_error_naming_it(tmp_path):
    target = tmp_path / "graph.jsonl"
    target.mkdir()
    with pytest.raises(DataError, match=f"^{re.escape(str(target))}: cannot write: "):
        with output_file(target) as fh:
            fh.write("line\n")
    assert target.is_dir() and not any(target.iterdir())
    assert os.listdir(tmp_path) == ["graph.jsonl"]  # no temporary file left


def test_an_exception_in_the_block_leaves_the_earlier_file(tmp_path):
    target = tmp_path / "ranked.csv"
    target.write_bytes(b"earlier,run\n")
    raised = ValueError("not a number")
    with pytest.raises(ValueError) as caught:
        with output_file(target) as fh:
            fh.write("half,")
            raise raised
    assert caught.value is raised
    assert target.read_bytes() == b"earlier,run\n"
    assert os.listdir(tmp_path) == ["ranked.csv"]


def test_the_file_gets_the_mode_a_plain_open_gives(tmp_path):
    umask = os.umask(0o022)  # under which mkstemp's 0600 and open's 0644 differ
    try:
        with open(tmp_path / "plain.csv", "w"):
            pass
        write_csv(tmp_path / "written.csv", ["a"], [[1]])
    finally:
        os.umask(umask)
    mode = stat.S_IMODE((tmp_path / "plain.csv").stat().st_mode)
    assert stat.S_IMODE((tmp_path / "written.csv").stat().st_mode) == mode == 0o644


def test_a_missing_parent_directory_is_made(tmp_path):
    target = tmp_path / "out" / "run" / "cost.csv"
    write_csv(target, ["org", "cost"], [["ODU", "1.50"], ["a,b", 'say "hi"']])
    assert target.read_bytes() == b'org,cost\nODU,1.50\n"a,b","say ""hi"""\n'
    assert os.listdir(target.parent) == ["cost.csv"]
