"""Prop. 3.7's verdicts and supplier slots are pinned on the paper's pools.

``RewritingSearch._suppliers_feasible`` reads both facts off the initial
candidates in one pass: the per-(return node, attribute) supplier bitmasks
``_slots_of`` that ``_lacks_supplier`` and ``_cannot_cover`` prune with,
and the seed's single-node feasibility verdict.  For all 20 XMark query
patterns, on the 73 seed tag views alone and on the 173-view Figure 15 pool
(seed views plus 100 random ones), both must equal the ones recorded in
``tests/corpus/supplier_slots.json`` (Q7, Q13 and Q16 are infeasible on
both).  The file was recorded from the search that still consulted two
catalog side-indexes with a per-node fallback scan; regenerate it only with
a change that is meant to move a verdict or a slot.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.fig13 import xmark_summary
from repro.experiments.fig15 import fig15_views
from repro.rewriting.algorithm import RewritingSearch
from repro.views.catalog import ViewCatalog
from repro.workloads.xmark import xmark_query_patterns

PINNED = json.loads(
    (Path(__file__).resolve().parent.parent / "corpus" / "supplier_slots.json").read_text()
)
RANDOM_VIEWS = {"seed": 0, "fig15": 100}


@pytest.mark.parametrize("pool", sorted(RANDOM_VIEWS))
def test_verdicts_and_slots_match_the_pinned_ones(pool):
    summary = xmark_summary()
    catalog = ViewCatalog(
        summary, fig15_views(summary, random_view_count=RANDOM_VIEWS[pool])
    )
    assert len(catalog) == 73 + RANDOM_VIEWS[pool]
    queries = xmark_query_patterns()
    found = {}
    for name in PINNED[pool]:
        search = RewritingSearch(queries[name], catalog)
        feasible = search._suppliers_feasible(search._setup())
        found[name] = {
            "all_slots": search._all_slots if feasible else 0,
            "feasible": feasible,
            "slots": search._slots_of if feasible else {},
        }
    assert found == PINNED[pool]
    assert sorted(q for q, row in found.items() if not row["feasible"]) == [
        "Q13", "Q16", "Q7",
    ]
