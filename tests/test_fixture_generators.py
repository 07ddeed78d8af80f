"""The committed fixtures are exactly what their generator scripts write, so a
change to the snapshot writer or the record types cannot drift them unseen."""

from __future__ import annotations

import pytest

from scripts import gen_case_study_fixture, gen_synthetic_corpus


@pytest.mark.parametrize("generator", [gen_case_study_fixture, gen_synthetic_corpus],
                         ids=["case_study", "synthetic52"])
def test_generator_rewrites_its_fixture_byte_identically(generator, tmp_path, monkeypatch):
    committed = generator.OUT_DIR
    monkeypatch.setattr(generator, "OUT_DIR", tmp_path)
    generator.main()

    def files(root):
        # out/ holds a run's outputs, which are not part of the fixture
        return {str(p.relative_to(root)): p for p in root.rglob("*")
                if p.is_file() and p.relative_to(root).parts[0] != "out"}

    written, expected = files(tmp_path), files(committed)
    assert sorted(written) == sorted(expected)
    for name, path in written.items():
        assert path.read_bytes() == expected[name].read_bytes(), name
