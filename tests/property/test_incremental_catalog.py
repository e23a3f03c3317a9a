"""Property: incremental view DDL is indistinguishable from a rebuild.

Any interleaving of ``create_view`` / ``drop_view`` on a :class:`Database`
must leave the patched :class:`ViewCatalog` *index-identical* to a catalog
built from scratch over the surviving views — same name/position map, same
summary-path and attribute inverted indexes, same statistics —
and rewriting any query over the patched catalog must produce the same
rewritings the fresh catalog produces.  Meanwhile the patched catalog may
never have built more entries than one per ``create`` (the incremental
contract: survivors are patched around, not rebuilt).
"""

from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, parse_pattern
from repro.rewriting.rewriter import Rewriter
from repro.views.catalog import ViewCatalog

_ALIAS = re.compile(r"[@#]\d+")

VIEW_POOL = [
    ("v_item", "site(//item[ID](/name[V]))"),
    ("v_keyword", "site(//keyword[ID,V])"),
    ("v_listitem", "site(//listitem[ID])"),
    ("v_mail", "site(//mail[ID])"),
    ("v_name", "site(//name[ID,V])"),
    ("v_descr", "site(//description[ID])"),
]

QUERY = "site(//item[ID](/name[V]))"


def _fingerprint(outcome):
    return sorted(
        (tuple(r.views_used), r.is_union, _ALIAS.sub("@N", r.plan.describe()))
        for r in outcome.rewritings
    )


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=len(VIEW_POOL) - 1), max_size=24))
def test_any_ddl_interleaving_matches_fresh_rebuild(auction_summary, ops):
    database = Database.from_summary(auction_summary)
    assert database.catalog is not None  # build before the DDL starts
    database.catalog.statistics()  # exercise incremental stats maintenance too
    creates = 0
    for slot in ops:
        name, pattern = VIEW_POOL[slot]
        if name in database.views:
            database.drop_view(name)
        else:
            database.create_view(pattern, name=name, materialize=False)
            creates += 1

    patched = database.catalog
    fresh = ViewCatalog(auction_summary, list(database.views))

    # 1. index identity, structure by structure
    assert patched._by_name == fresh._by_name
    assert patched._by_related_path == fresh._by_related_path
    assert [v.name for v in patched.views] == [v.name for v in fresh.views]

    # 2. statistics identity over the surviving views
    patched_stats = patched.statistics()
    fresh_stats = fresh.statistics()
    for view in database.views:
        assert patched_stats.view_rows(view.name) == fresh_stats.view_rows(view.name)

    # 3. the incremental contract: one entry build per create, never more
    assert patched.entry_build_count == creates

    # 4. rewriting equivalence: patched and fresh catalogs answer alike
    query = parse_pattern(QUERY, name="q")
    patched_outcome = database.rewrite(query)
    fresh_outcome = Rewriter(fresh.summary, fresh.views).rewrite(query)
    assert _fingerprint(patched_outcome) == _fingerprint(fresh_outcome)
