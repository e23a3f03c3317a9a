"""Tier-1 doctest runner for the public API surface.

The entry points of the pipeline — ``Database``, ``Rewriter``,
``ViewCatalog``, ``Planner``, ``PlanExecutor`` — carry executable ``>>>``
examples in their docstrings (they double as the quick-start snippets the
docs link to).  This module runs them on every tier-1 invocation; the CI
``docs`` job additionally runs ``pytest --doctest-modules`` over the same
list, derived from :data:`DOCTEST_MODULES` below by
``tools/doctest_modules.py`` — this list is the single source of truth
(``test_doctest_tool_emits_this_list`` keeps the tool honest).
"""

from __future__ import annotations

import doctest
import pathlib
import subprocess
import sys

import pytest

import repro.algebra.columnar
import repro.algebra.execution
import repro.ingest.changelog
import repro.ingest.streaming
import repro.planning.planner
import repro.rewriting.rewriter
import repro.service.metrics
import repro.service.models
import repro.service.server
import repro.service.tracing
import repro.session.database
import repro.session.explain
import repro.views.catalog
import repro.views.indexes

DOCTEST_MODULES = [
    repro.algebra.columnar,
    repro.algebra.execution,
    repro.ingest.changelog,
    repro.ingest.streaming,
    repro.planning.planner,
    repro.rewriting.rewriter,
    repro.service.metrics,
    repro.service.models,
    repro.service.server,
    repro.service.tracing,
    repro.session.database,
    repro.session.explain,
    repro.views.catalog,
    repro.views.indexes,
]
"""The curated doctest list — the CI docs job derives its
``--doctest-modules`` arguments from it through ``tools/doctest_modules.py``."""


@pytest.mark.parametrize("module", DOCTEST_MODULES, ids=lambda m: m.__name__)
def test_public_api_doctests(module):
    results = doctest.testmod(module, optionflags=doctest.NORMALIZE_WHITESPACE)
    assert results.attempted > 0, (
        f"{module.__name__} is on the curated doctest list but carries no "
        f">>> examples — the public-API docstring contract is broken"
    )
    assert results.failed == 0, f"{results.failed} doctest(s) failed in {module.__name__}"


def test_doctest_tool_emits_this_list():
    """The CI docs job's list generator must track :data:`DOCTEST_MODULES`."""
    root = pathlib.Path(__file__).resolve().parent.parent.parent
    probe = subprocess.run(
        [sys.executable, str(root / "tools" / "doctest_modules.py")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert probe.returncode == 0, probe.stderr
    expected = [
        pathlib.Path(module.__file__).resolve().relative_to(root).as_posix()
        for module in DOCTEST_MODULES
    ]
    assert probe.stdout.split() == expected, (
        "tools/doctest_modules.py and DOCTEST_MODULES have drifted apart"
    )
