"""Predicate pushdown: the transform fires, and statistics calibrate it.

Row identity of pushed-down plans (index probes vs. the scan-and-filter
oracle) is asserted on every paper-workload plan by
``test_executor_ab.py``; this file holds the two contracts that are about
the *planner*:

* **the transform actually fires** — selective equality queries must plan
  as index scans (visible in ``EXPLAIN`` as ``access=index``);
* **histograms shrink the estimate gap** (calibrated
  ``selection_selectivity``) — on a selective fig13 query, the
  histogram-backed estimate must sit strictly closer to the measured
  selectivity than the flat constant it replaces.
"""

from __future__ import annotations

import pytest

from repro import Database, build_summary, parse_parenthesized
from repro.patterns.predicates import ValueFormula
from repro.planning.cost import CostModel
from repro.views.catalog import ViewCatalog
from support.formulas import between


# --------------------------------------------------------------------------- #
# the transform fires on selective queries
# --------------------------------------------------------------------------- #
@pytest.fixture()
def selective_db():
    document = parse_parenthesized(
        "site("
        + " ".join(f'item(name="n{i % 40}" qty="{i % 4}")' for i in range(200))
        + ")"
    )
    db = Database(document)
    db.create_view("site(/item(/name[ID,V]))", name="names")
    db.create_view("site(/item(/qty[ID,V]))", name="quantities")
    return db


def test_selective_equality_plans_as_index_scan(selective_db, index_counts):
    report = selective_db.explain(
        'site(/item(/name[ID,V]{v="n7"}))', analyze=True
    )
    assert any(entry.access_path == "index" for entry in report.operators), (
        f"a selective equality must choose the index path:\n{report.to_text()}"
    )
    assert "access=index" in report.to_text()
    assert report.actual_rows == 5
    assert index_counts.probes >= 1 and index_counts.builds == 1
    assert selective_db.stats()["indexes"] == {"built": 1}

    result = selective_db.query('site(/item(/name[ID,V]{v="n7"}))')
    assert len(result) == 5


def test_equality_and_range_probes_serve_pushed_selections(selective_db, index_counts):
    # qty: 4 distinct values probed for one; names: 40 distinct strings,
    # probed with a range — the one index kind answers both
    eq = selective_db.query("site(/item(/qty[ID,V]{v=2}))")
    rng = selective_db.query('site(/item(/name[ID,V]{v>="n38"}))')
    assert len(eq) == 50
    # lexicographic: "n38", "n39", "n4", "n5", ..., "n9" → 2 + 6 labels
    assert len(rng) == 8 * 5
    assert index_counts.probes >= 2


# --------------------------------------------------------------------------- #
# histogram-backed selectivity (satellite: calibrated estimates)
# --------------------------------------------------------------------------- #
def _unwrapped(values):
    from repro.xmltree.node import XMLNode

    return [value.value if isinstance(value, XMLNode) else value for value in values]


def _gap(model, view_name, column, values, formula):
    """(flat-constant gap, statistics-informed gap) against measured truth."""
    matching = sum(
        1 for value in values if value is not None and formula.evaluate(value)
    )
    actual = matching / max(len(values), 1)
    flat = model.selection_selectivity(formula)
    informed = model.selection_selectivity(formula, view_name, column)
    return abs(flat - actual), abs(informed - actual)


def test_fig13_selectivity_estimates_shrink_the_gap(xmark_workload):
    views = xmark_workload.views
    model = CostModel(ViewCatalog(xmark_workload.summary, views).statistics())

    # the fig13 views' largest string value column (the keyword extent):
    # a selective equality on a real document value
    view = max(
        (v for v in views if any(c.kind == "V" for c in v.relation.columns)),
        key=lambda v: len(v.relation),
    )
    column = next(c.name for c in view.relation.columns if c.kind == "V")
    position = view.relation.column_index(column)
    values = _unwrapped(row[position] for row in view.relation.rows)
    strings = [value for value in values if isinstance(value, str)]
    assert strings, "the chosen fig13 extent has no string values"
    target = max(set(strings), key=strings.count)

    flat_gap, informed_gap = _gap(
        model, view.name, column, values, ValueFormula.eq(target)
    )
    assert informed_gap < flat_gap, (
        f"per-column statistics must beat the flat constant on a fig13 "
        f"selective query over {view.name}.{column} "
        f"(flat gap {flat_gap:.4f}, informed gap {informed_gap:.4f})"
    )


def test_histogram_range_estimates_shrink_the_gap():
    # a numeric column past the common-value limit exercises the equi-width
    # histogram path (fig13 extents are too small to leave the exact table)
    document = parse_parenthesized(
        "site(" + " ".join(f"item(qty={i})" for i in range(500)) + ")"
    )
    db = Database(document)
    db.create_view("site(/item(/qty[ID,V]))", name="quantities")
    model = CostModel(ViewCatalog(build_summary(document), db.views).statistics())

    entry = model.statistics.view_column_stats("quantities", "V1")
    assert entry is not None and "numeric" in entry, (
        "500 distinct values must be summarised as a histogram"
    )

    view = db.views["quantities"]
    position = view.relation.column_index("V1")
    values = _unwrapped(row[position] for row in view.relation.rows)
    for formula in (ValueFormula.gt(475), between(100, 120)):
        flat_gap, informed_gap = _gap(model, "quantities", "V1", values, formula)
        assert informed_gap < flat_gap, (
            f"histogram estimate must beat the flat constant on "
            f"{formula.to_text()!r} (flat {flat_gap:.4f}, informed {informed_gap:.4f})"
        )
