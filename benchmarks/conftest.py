"""Shared fixtures for the paper-figure harnesses (one per paper artefact).

Everything under benchmarks/ belongs to tier-2: the collection hook below
stamps the ``bench`` and ``slow`` markers on every item (belt and braces on
top of the per-file ``pytestmark``), and the tier-1 configuration in
pyproject.toml (``testpaths = ["tests"]`` plus ``-m 'not bench and not
slow'``) keeps them out of a bare ``pytest -x -q``.  Run them explicitly::

    pytest benchmarks -m bench
"""

from __future__ import annotations

import pytest

from repro import build_summary
from repro.workloads.dblp import generate_dblp_document
from repro.workloads.xmark import generate_xmark_document, xmark_query_patterns


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.bench)
        item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def xmark_summary_bench():
    """The XMark summary shared by the Figure 13 / 15 benchmarks."""
    return build_summary(generate_xmark_document(scale=1.5, seed=548, name="xmark-bench"))


@pytest.fixture(scope="session")
def dblp_summary_bench():
    """The DBLP'05 summary used by the Figure 14 benchmark."""
    return build_summary(generate_dblp_document("2005", scale=2.0, seed=5, name="dblp-bench"))


@pytest.fixture(scope="session")
def xmark_queries_bench():
    """The 20 XMark query patterns."""
    return xmark_query_patterns()
