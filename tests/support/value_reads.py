"""Column value reads, counted by wrapping ``_ColumnSource.values``.

A relation backed by its batch answers ``len``, ``repr`` and its schema
without reading a value; the :func:`value_reads` fixture wraps
:meth:`repro.algebra.columnar._ColumnSource.values` for the test's
duration and returns the live list of sources read, one entry per call (a
gather's read reads its parent too).
"""

from __future__ import annotations

import pytest

from repro.algebra.columnar import _ColumnSource

__all__ = ["value_reads"]


@pytest.fixture()
def value_reads(monkeypatch) -> list:
    reads: list = []
    values = _ColumnSource.values

    def counted(source):
        reads.append(source)
        return values(source)

    monkeypatch.setattr(_ColumnSource, "values", counted)
    return reads
