"""The docs checker: every cited ``NAME.md`` must exist."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_docs.py"
_spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def test_citation_pattern_finds_bare_and_pathed_documents():
    found = check_docs.CITATION_RE.findall(
        "see EXPERIMENTS.md and docs/ARCHITECTURE.md, not https://host/x/README.md"
    )
    assert found == ["EXPERIMENTS.md", "docs/ARCHITECTURE.md"]


def test_missing_citation_is_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "PRESENT.md").write_text("# present\n")
    source = tmp_path / "module.py"
    source.write_text('"""See docs/PRESENT.md and PRESENT.md, then MISSING.md."""\n')
    problems = check_docs.check_citations(source, {"PRESENT.md"})
    assert problems == ["module.py:1: cites missing MISSING.md"]


def test_tree_cites_only_existing_documents():
    assert check_docs.main(["README.md", "docs", "src", "benchmarks"]) == 0
