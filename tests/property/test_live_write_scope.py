"""A write costs what it changes: extents, plans and column caches.

Three scopes of one principle, each held to a reference:

* **Extents.**  A :class:`~hypothesis.stateful.RuleBasedStateMachine`
  drives inserts, deletes and view DDL against twin sessions — the
  :class:`~repro.Database` under test and ``support.rebuild_oracle.
  RebuildOracle``, which re-materialises everything after every step.  Its
  view pool is what ``test_live_maintenance`` lacks: *leaf-pinned* views on
  labels that are strict ancestors of the insert points (rows the delta
  now leaves alone), one of them with content cells, one with a value
  predicate on the pin, and a chain with a node *below* an ancestor pin,
  which must still recompute the ancestor's run.
* **Plans.**  After every step each pool query answered through the plan
  cache equals a cache-less ``planner.plan`` + execute — rows *and* the
  costed plan, so a hit was re-priced under the write's statistics — and
  ``views.version`` moved exactly when a definition could have changed;
  and every executor memo entry on a cached plan that a read would take
  equals a fresh run over the current extents (``support.memo_oracle``).
* **Column caches.**  After every step the cached column batch of every
  extent — values, Dewey keys, dedup keys — equals a fresh transpose of its
  rows; the invariant itself warms the caches the next delta splices.
* **Statistics.**  After every step the catalog's statistics — moved by the
  summary delta and the extent splices, never rebuilt — equal a fresh
  build over the same summary and views, field by field, and answer every
  selectivity probe alike (``support.statistics_oracle``).

The deterministic cases below the machine pin what a random walk cannot
promise to visit: flat miss counters, the two kinds of definition change,
the foreign-kind and empty-extent splices, the identifier text a write
carries over for the service's encoder, and the statistics' edges — a
column crossing the common-value limit, a histogram edge moving, a string
in a numeric column, an ID entering an empty column, the rematerialising
fallback.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import (
    Database,
    RewritingError,
    XMLNode,
    build_summary,
    decode_subtree,
    encode_subtree,
    evaluate_pattern,
    parse_parenthesized,
    parse_pattern,
)
from repro.algebra import PlanExecutor, Relation
from repro.algebra.columnar import ColumnBatch, _ColumnSource
from repro.errors import ReproError
from repro.rewriting import RewritingConfig
from repro.views.indexes import index_for_source
from repro.xmltree.ids import DeweyID

from support.memo_oracle import assert_plan_cache_derived
from support.rebuild_oracle import RebuildOracle, normalize
from support.statistics_oracle import assert_statistics_equal_a_fresh_build

DOC_TEXT = (
    "site("
    '  regions="all"('
    '    asia="east"(item(name="pen" quantity=2 description(text="blue"))'
    '                item(name="ink"))'
    '    europe="west"(item(name="nib" quantity=7)))'
    "  people("
    + " ".join(f'person(name="p{n}" age={20 + n})' for n in range(8))
    + "))"
)
# people outweighs regions on purpose: the one chain below with a node under
# an ancestor pin re-evaluates regions' subtree, which must stay under the
# half-document gate for that path (not the rematerialising fallback) to run

# deterministic searches: no wall-clock budget, no unions
CONFIG = RewritingConfig(
    max_rewritings=2, max_plan_size=3, enable_unions=False, time_budget_seconds=None
)

BASE_VIEWS = [
    ("v_item", "site(//item[ID])"),
    ("v_name", "site(//name[ID,V])"),
    ("v_quantity", "site(//quantity[ID,V])"),
    ("v_keyword", "site(//keyword[ID,V])"),  # starts empty
]
# what this file is about; toggled by the machine
SCOPE_VIEWS = [
    ("v_regions", "site(//regions[ID,V])"),
    ("v_regions_content", "site(//regions[ID,C])"),
    ('v_asia_east', 'site(//asia[ID,V]{v="east"})'),
    ("v_regions_names", "site(//regions[ID](//name[V]))"),
]
LEAF_PINNED = ("v_regions", "v_regions_content", "v_asia_east")

QUERY_POOL = [
    "site(//item[ID](/name[V]))",
    "site(//name[ID,V])",
    "site(//item[ID](/quantity[V]))",
]

_PARENT_PATHS = frozenset(
    {"/site/regions/asia", "/site/regions/europe", "/site/people"}
)

# count-only shapes (labels the summary already has under items), values of
# mixed atom kinds on purpose; the last two add a path to the summary
SUBTREE_SHAPES = [
    lambda n: XMLNode("item", None, [XMLNode("name", f"gadget-{n}")]),
    lambda n: XMLNode("item", None, [XMLNode("name", n), XMLNode("quantity", n)]),
    lambda n: XMLNode("item", None, [XMLNode("name"), XMLNode("quantity", f"q{n}")]),
    lambda n: XMLNode("keyword", f"kw-{n}"),
    lambda n: XMLNode("item", None, [XMLNode("name", f"n{n}"), XMLNode("keyword", n)]),
]


def _shape_and_flags(summary):
    return {node.path: (node.strong, node.one_to_one) for node in summary.iter_nodes()}


def _plan_text(choice) -> str:
    """Every costed alternative, generated alias numbers removed."""
    return "\n--\n".join(
        re.sub(r"[@#]\d+", "", planned.describe()) for planned in choice.alternatives
    )


def _or_error(call, error):
    try:
        return call()
    except error as exc:
        return type(exc).__name__


def _classes(keys: list) -> list[int]:
    return [keys.index(key) for key in keys]


def assert_batch_is_a_fresh_transpose(batch) -> None:
    """A batch's cached vectors equal ones built from its rows alone, and
    the batch keeps no rows: each read of them is a fresh transpose."""
    relation = batch.to_relation()
    assert batch.row_count == len(relation.rows)
    assert batch.to_relation() is not relation
    for position in range(len(relation.columns)):
        fresh = _ColumnSource(values=[row[position] for row in relation.rows])
        assert batch.values(position) == fresh.values()
        assert _or_error(
            lambda: batch.dewey_keys(position), ReproError
        ) == _or_error(fresh.dewey_keys, ReproError)
        # dedup keys are compared as the equivalence they induce: a column
        # that was mixed before a splice may keep ``_hashable`` keys where a
        # fresh one would alias its component tuples
        assert _classes(batch.row_keys(position)) == _classes(fresh.row_keys())


def assert_cache_matches_cacheless_planner(db) -> None:
    """Every pool query through the plan cache == ``planner.plan`` + execute."""
    for text in QUERY_POOL:
        pattern = parse_pattern(text, name="q")
        fresh = db.planner.plan(pattern)
        if not fresh.found:
            with pytest.raises(RewritingError):
                db.plan_query(text)
            continue
        served = db.plan_query(text)
        assert _plan_text(served) == _plan_text(fresh)
        assert served.data_version == db.views.data_version
        expected = PlanExecutor(db.views).execute(fresh.best.plan_operator)
        assert normalize(db.query(text)) == normalize(expected)


def assert_statistics_followed(db) -> None:
    """The catalog's statistics == a fresh build over the session's state."""
    assert_statistics_equal_a_fresh_build(db.catalog.statistics(), db.summary, db.views)


class LiveWriteScopeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sut = Database(parse_parenthesized(DOC_TEXT, name="twin"), config=CONFIG)
        self.oracle = RebuildOracle(parse_parenthesized(DOC_TEXT, name="twin"))
        for name, pattern in BASE_VIEWS + SCOPE_VIEWS:
            for db in (self.sut, self.oracle):
                db.create_view(pattern, name=name)
        self.serial = 0

    def teardown(self):
        self.sut.close()
        self.oracle.close()

    # ------------------------------------------------------------------ #
    def _mutate(self, call):
        """Run one document mutation on both twins; check the two counters."""
        views = self.sut.views
        before = (views.version, views.data_version)
        shape = _shape_and_flags(self.sut.summary)
        leaf_pinned = {
            name: views[name].extent for name in LEAF_PINNED if name in views
        }
        results = [call(db) for db in (self.sut, self.oracle)]
        assert views.data_version == before[1] + 1
        definitions_changed = _shape_and_flags(self.sut.summary) != shape
        assert views.version == before[0] + definitions_changed
        return results, leaf_pinned

    @rule(parent_slot=st.integers(min_value=0), shape=st.integers(min_value=0))
    def insert(self, parent_slot, shape):
        parents = [
            str(node.dewey)
            for node in self.sut.document.iter_nodes()
            if node.path in _PARENT_PATHS
        ]
        if not parents:
            return
        parent = parents[parent_slot % len(parents)]
        self.serial += 1
        proto = encode_subtree(SUBTREE_SHAPES[shape % len(SUBTREE_SHAPES)](self.serial))
        inserted, leaf_pinned = self._mutate(
            lambda db: db.insert_subtree(parent, decode_subtree(proto))
        )
        assert str(inserted[0].dewey) == str(inserted[1].dewey)
        # the insert points lie strictly below every leaf-pinned pin: the
        # extents must come through as the very same objects
        for name, extent in leaf_pinned.items():
            assert self.sut.views[name].extent is extent

    @rule(victim_slot=st.integers(min_value=0))
    def delete(self, victim_slot):
        # anything below the containers: they are the insert points, and
        # the leaf-pinned views are pinned on them and on their parent
        victims = [
            str(node.dewey)
            for node in self.sut.document.iter_nodes()
            if node.path.count("/") > 3 or node.path.startswith("/site/people/")
        ]
        if not victims:
            return
        victim = victims[victim_slot % len(victims)]
        self._mutate(lambda db: db.delete_subtree(victim))

    @rule(view_slot=st.integers(min_value=0, max_value=len(SCOPE_VIEWS) - 1))
    def toggle_view(self, view_slot):
        name, pattern = SCOPE_VIEWS[view_slot]
        views = self.sut.views
        before = (views.version, views.data_version)
        for db in (self.sut, self.oracle):
            if name in db.views:
                db.drop_view(name)
            else:
                db.create_view(pattern, name=name)
        # a plan is never served across a definition change
        assert (views.version, views.data_version) == (before[0] + 1, before[1] + 1)

    # ------------------------------------------------------------------ #
    @invariant()
    def extents_equal_the_rebuild_oracle(self):
        assert set(self.sut.views.names) == set(self.oracle.views.names)
        for view in self.sut.views:
            twin = self.oracle.views[view.name]
            assert normalize(view.relation) == normalize(twin.relation)

    @invariant()
    def cached_plans_equal_the_cacheless_planner(self):
        assert_cache_matches_cacheless_planner(self.sut)

    @invariant()
    def column_caches_equal_a_fresh_transpose(self):
        for view in self.sut.views:
            assert_batch_is_a_fresh_transpose(view.extent)

    @invariant()
    def memo_entries_equal_a_fresh_run(self):
        assert_plan_cache_derived(self.sut)

    @invariant()
    def statistics_equal_a_fresh_build(self):
        assert_statistics_followed(self.sut)


TestLiveWriteScope = LiveWriteScopeMachine.TestCase
# every step costs three cache-less searches and an oracle rebuild; the
# nightly ``thorough`` profile draws these at random
TestLiveWriteScope.settings = settings(
    max_examples=12, stateful_step_count=6, deadline=None
)


# --------------------------------------------------------------------------- #
# deterministic cases
# --------------------------------------------------------------------------- #
@pytest.fixture()
def db():
    database = Database(parse_parenthesized(DOC_TEXT, name="live"), config=CONFIG)
    for name, pattern in BASE_VIEWS + SCOPE_VIEWS:
        database.create_view(pattern, name=name)
    for text in QUERY_POOL:
        database.query(text)
    yield database
    database.close()


def _asia(db):
    return db.document.nodes_on_path("/site/regions/asia")[0]


def test_a_count_only_write_keeps_every_plan_and_every_search(db):
    versions = (db.views.version, db.views.data_version)
    before = db.plan_cache.info()
    searches = db.rewriter.search_totals["searches"]
    node = db.insert_subtree(_asia(db), SUBTREE_SHAPES[1](1))
    assert (db.views.version, db.views.data_version) == (versions[0], versions[1] + 1)
    sizes = [len(db.query(text)) for text in QUERY_POOL]
    db.delete_subtree(node)
    assert [len(db.query(text)) + 1 for text in QUERY_POOL] == sizes
    after = db.plan_cache.info()
    assert after["misses"] == before["misses"]
    assert after["hits"] == before["hits"] + 2 * len(QUERY_POOL)
    assert after["invalidations"] == before["invalidations"]
    assert db.rewriter.search_totals["searches"] == searches


def test_a_hit_ranked_before_the_write_is_repriced_after_it(db):
    text = QUERY_POOL[0]
    stale = db.plan_query(text)
    assert db.plan_query(text) is stale, "no write: the very same choice"
    db.insert_subtree(_asia(db), SUBTREE_SHAPES[0](1))
    served = db.plan_query(text)
    assert served is not stale and served.data_version == db.views.data_version
    assert served.statistics is stale.statistics, "no search ran"
    assert _plan_text(served) == _plan_text(db.planner.plan(parse_pattern(text, name="q")))
    assert _plan_text(served) != _plan_text(stale), "one more item row: new estimates"
    assert db.plan_query(text) is served, "the re-ranked choice was stored back"


def test_prepared_queries_follow_the_same_two_counters(db):
    prepared = db.prepare(QUERY_POOL[0])
    stale = prepared.choice
    db.insert_subtree(_asia(db), SUBTREE_SHAPES[0](1))
    assert len(prepared.run()) == 4
    assert prepared.times_planned == 1 and prepared.choice is not stale
    assert prepared.choice.data_version == db.views.data_version
    db.insert_subtree(_asia(db), XMLNode("annex", "new label"))
    assert len(prepared.run()) == 4
    assert prepared.times_planned == 2, "a shape-changing insert re-plans"


def test_a_shape_changing_insert_misses(db):
    version = db.views.version
    misses = db.plan_cache.info()["misses"]
    # a new label under an existing path: the summary gains a node
    db.insert_subtree(_asia(db), XMLNode("annex", "new label"))
    assert db.views.version == version + 1
    assert_cache_matches_cacheless_planner(db)
    assert db.plan_cache.info()["misses"] == misses + len(QUERY_POOL)
    assert db.plan_cache.info()["invalidations"] == 1


def test_a_flag_changing_delete_misses(db):
    # every item has a name (a strong edge); take the name of one away and
    # the edge weakens without any path appearing or disappearing
    assert db.summary.node_by_path("/site/regions/asia/item/name").strong
    version = db.views.version
    misses = db.plan_cache.info()["misses"]
    ink_name = db.document.nodes_on_path("/site/regions/asia/item/name")[1]
    db.delete_subtree(ink_name)
    assert not db.summary.node_by_path("/site/regions/asia/item/name").strong
    assert _shape_and_flags(db.summary).keys() == _shape_and_flags(
        build_summary(db.document)
    ).keys()
    assert db.views.version == version + 1
    assert_cache_matches_cacheless_planner(db)
    assert db.plan_cache.info()["misses"] == misses + len(QUERY_POOL)


def test_a_rebuilt_summary_counts_as_a_definition_change():
    document = parse_parenthesized(DOC_TEXT, name="live")
    summary = build_summary(document)
    summary._instance_counts = None  # a summary handed over without counters
    with Database(document, summary=summary, config=CONFIG) as database:
        database.create_view("site(//name[ID,V])", name="v_name")
        names = len(database.query("site(//name[ID,V])"))
        version = database.views.version
        database.insert_subtree(_asia(database), SUBTREE_SHAPES[0](1))
        assert database.maintenance_stats["summary_rebuilt"] == 1
        assert database.views.version == version + 1
        assert len(database.query("site(//name[ID,V])")) == names + 1
        assert database.plan_cache.info()["hits"] == 0


def test_rows_pinned_at_an_ancestor_of_the_change(db):
    """Leaf-pinned: left alone.  A node below the pin: the run is recomputed."""
    kept = {name: db.views[name].extent for name in LEAF_PINNED}
    below = db.views["v_regions_names"].extent
    db.insert_subtree(_asia(db), SUBTREE_SHAPES[0](1))
    for name in LEAF_PINNED:
        assert db.views[name].extent is kept[name]
    # //regions[ID](//name[V]) is pinned at regions, a strict ancestor of
    # the insert point, and gains a row for the new item's name
    assert db.views["v_regions_names"].extent.row_count == below.row_count + 1
    assert db.maintenance_stats["rematerialized"] == 0


def test_published_content_follows_a_write_below_an_unchanged_row(db):
    # a content cell is the live node: the row is the same object after the
    # write, its subtree is not — and a batch answered after the write,
    # searched again, shows the new subtree
    query = "site(//regions[ID,C])"
    queries = [query, "site(//regions[ID,V])"]
    first = normalize(db.query_many(queries)[0])
    db.insert_subtree(_asia(db), SUBTREE_SHAPES[0](9))
    db.plan_cache.clear()
    second = db.query_many(queries)[0]
    assert normalize(second) != first
    direct = evaluate_pattern(parse_pattern(query, name="q"), db.document)
    assert normalize(second) == normalize(direct)


def test_the_first_scan_after_a_write_finds_spliced_vectors(db):
    view = db.views["v_name"]
    batch = view.extent
    batch.dewey_keys(0), batch.row_keys(0), batch.row_keys(1)
    assert index_for_source(batch.source(1)) is not None
    db.insert_subtree(_asia(db), SUBTREE_SHAPES[1](7))  # an int under //name
    spliced = view.extent  # made by the delta, not by a read
    assert spliced is not batch and spliced.row_count == batch.row_count + 1
    id_source, value_source = spliced.source(0), spliced.source(1)
    assert id_source._keys is not None and id_source._row_keys is id_source._keys
    assert value_source._row_keys is value_source._values
    assert value_source.index is None, "a value index is positional: not carried over"
    assert 7 in spliced.values(1) and "pen" in spliced.values(1)
    assert_batch_is_a_fresh_transpose(spliced)


def test_an_empty_extent_takes_its_first_rows_by_splice(db):
    view = db.views["v_keyword"]
    assert len(view.relation) == 0
    empty = view.extent
    empty.row_keys(0), empty.row_keys(1)
    db.insert_subtree(_asia(db), SUBTREE_SHAPES[3](1))
    assert len(view.relation) == 1
    spliced = view.extent
    # an empty column keys as an ID column; "kw-1" is foreign to that rule,
    # so the dedup cache is dropped and rebuilt rather than guessed
    assert spliced.source(0)._row_keys is spliced.source(0)._keys is not None
    assert spliced.source(1)._row_keys is None
    assert_batch_is_a_fresh_transpose(spliced)


def _id_sources(batch) -> list:
    """The identifier columns of an extent's batch, as their sources."""
    return [
        batch.source(position)
        for position in range(len(batch.columns))
        if {type(value) for value in batch.values(position)} <= {DeweyID, type(None)}
    ]


def _extent_batches(db) -> dict:
    return {name: db.views[name].extent for name in db.views.names}


def _assert_dewey_text_spliced(db, before: dict) -> dict:
    """Every identifier column of every extent the write spliced arrives
    with its text, and the text is each identifier's ``str``."""
    after = _extent_batches(db)
    spliced = [name for name in after if after[name] is not before[name]]
    assert spliced, "the write spliced some extent"
    for name in spliced:
        for source in _id_sources(after[name]):
            assert source._text is not None, f"{name}: the text was dropped, not spliced"
            assert source.dewey_text() == [
                None if value is None else str(value) for value in source.values()
            ]
    return after


def test_dewey_text_follows_the_splice(db):
    before = _extent_batches(db)
    for batch in before.values():
        for source in _id_sources(batch):
            source.dewey_text()
    node = db.insert_subtree(_asia(db), SUBTREE_SHAPES[1](3))
    before = _assert_dewey_text_spliced(db, before)
    db.delete_subtree(node)
    _assert_dewey_text_spliced(db, before)
    assert str(DeweyID((1, 12, 3))) == "1.12.3"


def _identified(components) -> XMLNode:
    node = XMLNode("n")
    node.dewey = DeweyID(components)
    return node


@pytest.mark.parametrize(
    "old, cells",
    [
        ([DeweyID((1, 1)), None], ["1.2"]),  # ID-keyed column, an atom arrives
        (["a", 1, None], [DeweyID((1, 2))]),  # atom-keyed column, an ID arrives
        # ... or an ID and the node it identifies, which dedup as one
        (["a", 1, None], [DeweyID((1, 2)), _identified((1, 2))]),
        ([DeweyID((1, 1))], [_identified((1, 1))]),
        ([DeweyID((1, 1)), "a"], [DeweyID((1, 2))]),  # already mixed: _hashable lane
        ([DeweyID((1, 1)), "a"], [XMLNode("n")]),
    ],
)
def test_a_foreign_replacement_cell_never_yields_wrong_keys(old, cells):
    relation = Relation(["X"], rows=[(value,) for value in old])
    batch = ColumnBatch.from_relation(relation)
    batch.row_keys(0)
    _or_error(lambda: batch.dewey_keys(0), ReproError)
    patched = batch.spliced([(1, len(old), [(cell,) for cell in cells])])
    assert patched.values(0) == [old[0]] + cells
    assert_batch_is_a_fresh_transpose(patched)


# --------------------------------------------------------------------------- #
# statistics follow the splice: the edges a random walk may miss
# --------------------------------------------------------------------------- #
def _quantities(values) -> Database:
    """One asia item per value, and the views over their quantities."""
    items = " ".join(f"item(quantity={value})" for value in values)
    database = Database(
        parse_parenthesized(f"site(regions(asia({items})))", name="numeric"), config=CONFIG
    )
    database.create_view("site(//quantity[ID,V])", name="v_quantity")
    database.create_view("site(//quantity[ID,V]{v>1000})", name="v_large")
    database.catalog.statistics()  # built before the writes, so it follows them
    return database


def _write(db, value) -> XMLNode:
    """Insert one item with this quantity; judge the statistics after it."""
    asia = _asia(db)
    node = db.insert_subtree(asia, XMLNode("item", None, [XMLNode("quantity", value)]))
    assert_statistics_followed(db)
    return node


def _erase(db, node) -> None:
    db.delete_subtree(node)
    assert_statistics_followed(db)


def _entry(db, view="v_quantity", column="V1"):
    return db.catalog.statistics().view_column_stats(view, column)


def _kind(entry) -> str:
    return "common" if "common" in entry else "numeric" if "numeric" in entry else "neither"


def test_a_column_crosses_the_common_value_limit_and_back():
    db = _quantities(range(62))
    assert _kind(_entry(db)) == "common"
    kinds = []
    nodes = []
    for value in (100, 101, 102, 103):
        nodes.append(_write(db, value))
        kinds.append(_kind(_entry(db)))
    assert kinds == ["common", "common", "numeric", "numeric"]  # 64 distinct is common
    for node in reversed(nodes):
        _erase(db, node)
    assert _kind(_entry(db)) == "common"
    assert db.maintenance_stats["statistics_reobserved"] == 0
    db.close()


def test_histogram_edges_move_with_the_extreme_rows():
    db = _quantities(range(70))
    assert _entry(db)["numeric"]["min"] == 0.0
    inside = _write(db, 33.5)  # kept by bucket: no edge moves
    above = _write(db, 500)  # a new max: re-derived
    assert _entry(db)["numeric"]["max"] == 500.0
    minimum = next(
        node.parent for node in db.document.nodes_on_path("/site/regions/asia/item/quantity")
        if node.value == 0
    )
    _erase(db, minimum)  # the only min row
    assert _entry(db)["numeric"]["min"] == 1.0
    _erase(db, above)
    _erase(db, inside)
    assert _entry(db)["numeric"]["max"] == 69.0
    assert db.maintenance_stats["statistics_reobserved"] == 0
    db.close()


def test_a_string_lands_in_a_numeric_column_and_leaves():
    db = _quantities(range(70))
    node = _write(db, "many")
    assert _kind(_entry(db)) == "neither"
    _erase(db, node)
    assert _kind(_entry(db)) == "numeric"
    db.close()


def test_an_identifier_enters_an_empty_column_and_leaves():
    db = _quantities(range(10))
    assert _entry(db, "v_large", "ID1") == {
        "sampled": 0, "non_null": 0, "distinct": 0, "common": {}
    }
    node = _write(db, 5000)
    assert _entry(db, "v_large", "ID1") is None  # a Dewey ID is no atom
    _erase(db, node)
    assert _entry(db, "v_large", "ID1") is not None
    assert db.maintenance_stats["statistics_reobserved"] == 0
    db.close()


def test_a_rematerialised_view_is_reobserved(db):
    db.create_view("site(//item[ID](/name[V], /quantity[V]))", name="v_branching")
    db.catalog.statistics()
    spliced = db.maintenance_stats["statistics_spliced"]
    node = db.insert_subtree(_asia(db), SUBTREE_SHAPES[1](1))
    assert db.maintenance_stats["rematerialized"] == 1
    assert db.maintenance_stats["statistics_reobserved"] == 1
    assert db.maintenance_stats["statistics_spliced"] > spliced
    assert_statistics_followed(db)
    db.delete_subtree(node)
    assert db.maintenance_stats["statistics_reobserved"] == 2
    assert_statistics_followed(db)


def test_the_bench_shaped_cycle_never_reobserves():
    """An asia item in, then out, over the seed tag views of an XMark document."""
    from repro.workloads import seed_tag_views
    from repro.workloads.xmark import generate_xmark_document

    document = generate_xmark_document(scale=1.0, seed=548, name="xmark-live")
    with Database(document, config=CONFIG) as database:
        for pattern in seed_tag_views(database.summary):
            database.create_view(pattern, name=pattern.name)
        database.catalog.statistics()
        version = database.views.version
        asia = _asia(database)
        for _ in range(2):
            node = database.insert_subtree(asia, asia.children[0].copy())
            assert_statistics_followed(database)
            database.delete_subtree(node)
            assert_statistics_followed(database)
        assert database.views.version == version
        stats = database.maintenance_stats
        assert stats["statistics_reobserved"] == 0
        assert stats["statistics_spliced"] > 0 and stats["rematerialized"] == 0


def test_a_loaded_session_keeps_following(db, tmp_path):
    db.save(tmp_path / "live.db")
    with Database.load(tmp_path / "live.db") as loaded:
        node = loaded.insert_subtree(_asia(loaded), SUBTREE_SHAPES[1](1))
        assert_statistics_followed(loaded)
        loaded.delete_subtree(node)
        assert_statistics_followed(loaded)
        assert loaded.maintenance_stats["statistics_reobserved"] == 0
        assert loaded.maintenance_stats["statistics_spliced"] > 0
