"""Value-index builds and probes, counted by wrapping the two index calls.

``Database.stats()["indexes"]["built"]`` reads how many indexes a
session's extents hold; a lifecycle test also wants to know how often an
index was *built* and *probed*.  The :func:`index_counts` fixture wraps
:func:`repro.views.indexes.build_index` (a build is a call that returns an
index, not ``None``) and :meth:`repro.views.indexes.OrderedIndex.probe` for
the test's duration and returns the live :class:`IndexCounts`.
"""

from __future__ import annotations

import pytest

from repro.views import indexes

__all__ = ["IndexCounts", "index_counts"]


class IndexCounts:
    """Indexes built and probes served since the fixture started."""

    def __init__(self) -> None:
        self.builds = 0
        self.probes = 0


@pytest.fixture()
def index_counts(monkeypatch) -> IndexCounts:
    counts = IndexCounts()
    build, probe = indexes.build_index, indexes.OrderedIndex.probe

    def counted_build(values):
        index = build(values)
        counts.builds += index is not None
        return index

    def counted_probe(self, formula):
        counts.probes += 1
        return probe(self, formula)

    monkeypatch.setattr(indexes, "build_index", counted_build)
    monkeypatch.setattr(indexes.OrderedIndex, "probe", counted_probe)
    return counts
