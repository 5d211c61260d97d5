#!/usr/bin/env python3
"""Documentation link checker (used by the CI docs/lint step).

Scans the repo's markdown files for relative links and verifies every
target exists.  External links (http/https/mailto) and pure anchors are
skipped; a ``path#anchor`` link is checked for the path only.

Every ``NAME.md`` (or ``path/NAME.md``) cited in a ``.py`` or ``.md``
file under the given paths must exist too -- relative to the repo root or
to the citing file, or, for a bare name, anywhere in the repo -- so a
comment cannot point readers at a document that is not there.

Additionally cross-checks the "Static analysis" section of
``docs/ARCHITECTURE.md`` against the live ``repro.lint`` rule registry,
in both directions: every registered rule id must be documented, and
every documented rule id must exist in the registry.

Usage::

    python scripts/check_docs.py [file_or_dir ...]   # defaults to README.md docs/
    python scripts/check_docs.py README.md docs src benchmarks   # what CI runs
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown inline links: [text](target) -- excludes images handled the same.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")


def collect_files(arguments: list[str], suffixes: tuple[str, ...]) -> list[Path]:
    files: list[Path] = []
    for argument in arguments:
        path = (REPO_ROOT / argument).resolve()
        if path.is_dir():
            files.extend(sorted(p for p in path.rglob("*") if p.suffix in suffixes))
        elif path.exists():
            if path.suffix in suffixes:
                files.append(path)
        else:
            print(f"error: no such file or directory: {argument}", file=sys.stderr)
            sys.exit(2)
    return files


def check_file(markdown: Path) -> list[str]:
    problems = []
    text = markdown.read_text(encoding="utf-8")
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(SKIP_PREFIXES):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (markdown.parent / relative).resolve()
        if not resolved.exists():
            problems.append(f"{markdown.relative_to(REPO_ROOT)}: broken link -> {target}")
    return problems


#: A cited markdown document: ``NAME.md`` or ``dir/NAME.md``, not part of a
#: longer path or URL (the look-behind rejects a preceding ``/`` or name).
CITATION_RE = re.compile(r"(?<![\w/.-])((?:[\w.-]+/)*[\w-]+\.md)\b")


def check_citations(source: Path, doc_names: set[str]) -> list[str]:
    problems = []
    for number, line in enumerate(source.read_text(encoding="utf-8").splitlines(), 1):
        for cited in CITATION_RE.findall(line):
            if cited in doc_names:
                continue
            if not ((REPO_ROOT / cited).exists() or (source.parent / cited).exists()):
                problems.append(
                    f"{source.relative_to(REPO_ROOT)}:{number}: cites missing {cited}"
                )
    return problems


#: Backticked tokens that look like lint rule ids: lowercase kebab-case
#: with at least one hyphen (filters out paths, module names and CLI
#: flags, which carry dots, slashes or leading dashes).
RULE_ID_RE = re.compile(r"`([a-z][a-z0-9]*(?:-[a-z0-9]+)+)`")

ARCHITECTURE_MD = REPO_ROOT / "docs" / "ARCHITECTURE.md"
STATIC_ANALYSIS_HEADING = "## Static analysis"


def static_analysis_section(text: str) -> str | None:
    """The body of ARCHITECTURE.md's "Static analysis" section, if present."""
    start = text.find(STATIC_ANALYSIS_HEADING)
    if start == -1:
        return None
    body_start = start + len(STATIC_ANALYSIS_HEADING)
    end = text.find("\n## ", body_start)
    return text[body_start:] if end == -1 else text[body_start:end]


def check_lint_rule_docs() -> list[str]:
    """Cross-check documented rule ids against the live rule registry."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.lint.rules import RULES
    finally:
        sys.path.pop(0)

    if not ARCHITECTURE_MD.exists():
        return [f"{ARCHITECTURE_MD.relative_to(REPO_ROOT)}: file missing"]
    section = static_analysis_section(ARCHITECTURE_MD.read_text(encoding="utf-8"))
    if section is None:
        return [
            f"{ARCHITECTURE_MD.relative_to(REPO_ROOT)}: "
            f'no "{STATIC_ANALYSIS_HEADING}" section (rule catalogue lives there)'
        ]

    documented = {token for token in RULE_ID_RE.findall(section) if token in RULES}
    doc_only = {
        token
        for token in RULE_ID_RE.findall(section)
        # Hyphenated backticked tokens in the rule-catalogue table column
        # must be real rule ids; elsewhere in the section prose they may
        # be ordinary hyphenated identifiers, so only the table is strict.
        if token not in RULES
        and any(
            line.lstrip().startswith(f"| `{token}`")
            for line in section.splitlines()
        )
    }
    problems = []
    for rule_id in sorted(set(RULES) - documented):
        problems.append(
            f"docs/ARCHITECTURE.md: lint rule `{rule_id}` is registered in "
            "repro.lint.rules.RULES but missing from the Static analysis section"
        )
    for token in sorted(doc_only):
        problems.append(
            f"docs/ARCHITECTURE.md: Static analysis section documents `{token}` "
            "but repro.lint.rules.RULES has no such rule"
        )
    return problems


def main(arguments: list[str]) -> int:
    arguments = arguments or ["README.md", "docs"]
    files = collect_files(arguments, (".md",))
    problems = [problem for markdown in files for problem in check_file(markdown)]
    doc_names = {p.name for p in REPO_ROOT.rglob("*.md") if ".git" not in p.parts}
    for source in collect_files(arguments, (".md", ".py")):
        problems.extend(check_citations(source, doc_names))
    problems.extend(check_lint_rule_docs())
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"checked {len(files)} markdown file(s): "
          f"{'OK' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
