"""Fresh-build references for the planner's statistics.

A live write moves :class:`~repro.summary.statistics.Statistics` by
difference — path counts from the summary delta, column counters from the
extent splices.  :func:`assert_statistics_equal_a_fresh_build` holds such
statistics to two references:

* ``Statistics.with_annotated_views`` built fresh over the same summary and
  views: every field equal (path and label counts, the integer sums and
  the averages, view rows, sort columns, column entries and counters), and
  every ``column_selectivity`` answer the cost model can ask equal;
* :func:`column_entry_oracle`, the row-wise count the counters replaced,
  over each materialised extent's rows.
"""

from __future__ import annotations

from typing import Optional

from repro.patterns.predicates import ValueFormula
from repro.summary.statistics import Statistics
from repro.views.catalog import ViewCatalog
from repro.xmltree.node import XMLNode
from support.formulas import between

__all__ = [
    "assert_statistics_equal_a_fresh_build",
    "column_entry_oracle",
    "probe_formulas",
]

_BUCKETS = 16
_COMMON_LIMIT = 64


def column_entry_oracle(cells) -> Optional[dict]:
    """One column's statistics entry, counted row by row from its cells."""
    rows = 0
    counts: dict = {}
    numbers: Optional[list[float]] = []
    for value in cells:
        rows += 1
        if isinstance(value, XMLNode):
            value = value.value
        if value is None:
            continue
        if not isinstance(value, (bool, int, float, str)):
            return None
        counts[value] = counts.get(value, 0) + 1
        if isinstance(value, str):
            numbers = None
        elif numbers is not None:
            numbers.append(float(value))
    entry: dict = {"sampled": rows, "non_null": sum(counts.values()), "distinct": len(counts)}
    if len(counts) <= _COMMON_LIMIT:
        entry["common"] = counts
    elif numbers:
        low, high = min(numbers), max(numbers)
        buckets = [0] * _BUCKETS
        if high > low:
            width = (high - low) / _BUCKETS
            for number in numbers:
                buckets[min(int((number - low) / width), _BUCKETS - 1)] += 1
        else:
            buckets[0] = len(numbers)
        entry["numeric"] = {"min": low, "max": high, "counts": buckets}
    return entry


def probe_formulas(entry: dict) -> list[ValueFormula]:
    """Point, range and string predicates spread over one column entry."""
    formulas = [ValueFormula.eq("zz"), ValueFormula.gt("a"), ValueFormula.true()]
    for value in list(entry.get("common", {}))[:6]:
        formulas += [ValueFormula.eq(value), ValueFormula.le(value)]
    numeric = entry.get("numeric")
    if numeric is not None:
        low, high = numeric["min"], numeric["max"]
        middle = (low + high) / 2
        formulas += [
            ValueFormula.eq(low),
            ValueFormula.gt(middle),
            between(low, middle),
            ValueFormula.lt(low - 1),
        ]
    return formulas


def assert_statistics_equal_a_fresh_build(statistics: Statistics, summary, views) -> None:
    """``statistics`` equals a fresh build over ``summary`` and ``views``."""
    fresh = ViewCatalog(summary, views).statistics()
    live_fields, fresh_fields = dict(vars(statistics)), dict(vars(fresh))
    assert live_fields.pop("_summary") is fresh_fields.pop("_summary") is summary
    live_counts = live_fields.pop("_view_counts")
    fresh_counts = fresh_fields.pop("_view_counts")
    assert live_fields.keys() == fresh_fields.keys()
    for name, value in fresh_fields.items():
        assert live_fields[name] == value, name
    assert live_counts.keys() == fresh_counts.keys()
    for name, columns in fresh_counts.items():
        assert [_counters(c) for c in live_counts[name]] == [_counters(c) for c in columns], name
    for view in views:
        if not view.is_materialized:
            continue
        relation = view.relation
        for position, column in enumerate(relation.columns):
            expected = column_entry_oracle(row[position] for row in relation.rows)
            entry = statistics.view_column_stats(view.name, column.name)
            assert entry == expected, (view.name, column.name)
            for formula in probe_formulas(entry or {}):
                assert statistics.column_selectivity(
                    view.name, column.name, formula
                ) == fresh.column_selectivity(view.name, column.name, formula), (
                    view.name, column.name, formula.to_text(),
                )


def _counters(counts) -> tuple:
    return counts.rows, counts.non_null, counts.foreign, counts.strings, counts.values
