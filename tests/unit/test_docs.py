"""The docs tree is part of the contract: links resolve, coverage holds.

Two invariants, both cheap enough for tier-1:

* every relative markdown link in ``README.md`` and ``docs/*.md`` points
  at a file that exists (same check the CI ``docs`` job runs via
  ``tools/check_doc_links.py``);
* every module named in the README architecture diagram has a
  corresponding section in ``docs/architecture.md`` — the walkthrough may
  not silently fall behind the code layout.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

sys.path.insert(0, str(ROOT / "tools"))
from check_doc_links import broken_links, doc_files  # noqa: E402

# the packages the README architecture diagram names (plus the substrate
# and harness packages it references in prose)
DIAGRAM_MODULES = [
    "session",
    "ingest",
    "xmltree",
    "patterns",
    "summary",
    "views",
    "containment",
    "canonical",
    "rewriting",
    "planning",
    "algebra",
    "workloads",
    "experiments",
    "service",
]

EXPECTED_DOCS = [
    "index.md",
    "api.md",
    "architecture.md",
    "cost-model.md",
    "containment.md",
    "benchmarks.md",
    "execution.md",
    "indexes.md",
    "ingestion.md",
    "service.md",
]


def test_docs_tree_is_complete():
    names = {path.name for path in doc_files(ROOT)}
    assert "README.md" in names
    for expected in EXPECTED_DOCS:
        assert expected in names, f"docs/{expected} is missing"


def test_all_relative_links_resolve():
    offenders = broken_links(ROOT)
    assert not offenders, f"broken doc links: {offenders}"


def test_architecture_doc_covers_every_diagram_module():
    text = (ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    headings = [line for line in text.splitlines() if line.startswith("#")]
    for module in DIAGRAM_MODULES:
        assert any(module in heading for heading in headings), (
            f"docs/architecture.md has no section heading covering {module!r}"
        )
    for package in sorted(
        p.name for p in (ROOT / "src" / "repro").iterdir() if p.is_dir()
    ):
        if package.startswith("__"):
            continue
        assert package in DIAGRAM_MODULES, (
            f"package {package!r} exists but is not in the documented module "
            f"list — extend DIAGRAM_MODULES and docs/architecture.md"
        )


def test_readme_links_into_the_docs_tree():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for target in ["docs/api.md", "docs/architecture.md", "docs/cost-model.md",
                   "docs/containment.md", "docs/benchmarks.md",
                   "docs/execution.md", "docs/indexes.md",
                   "docs/ingestion.md", "docs/service.md",
                   "bench/README.md"]:
        assert target in readme, f"README does not link {target}"
