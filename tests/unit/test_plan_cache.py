"""The fingerprint-keyed plan cache behind ``Database.query``.

Contract under test: repeated unprepared queries skip the rewriting search
(observable through the hit counter and through the rewriter), results are
identical to the uncached path, and any *definition* change — view DDL, a
document mutation that changes the summary's shape or flags — invalidates
the whole cache before a stale plan can run, while a write that only moves
counts keeps it (``tests/property/test_live_write_scope.py`` holds the
served plans to a cache-less planner).
"""

from __future__ import annotations

import pytest

from repro import Database, XMLNode, parse_parenthesized, parse_pattern
from repro.errors import PatternParseError, RewritingError


@pytest.fixture()
def database():
    document = parse_parenthesized(
        'site(item(name="pen") item(name="ink") item(name="pad"))'
    )
    db = Database(document)
    db.create_view("site(//item[ID,V])", name="items")
    db.create_view("site(//name[ID,V])", name="names")
    return db


def test_repeated_queries_hit_the_cache(database):
    first = database.query("site(//item[ID,V])")
    assert database.plan_cache.info()["misses"] == 1
    second = database.query("site(//item[ID,V])")
    info = database.plan_cache.info()
    assert info["hits"] == 1 and info["size"] == 1
    assert first.same_contents(second)
    assert first.rows == second.rows, "cached plan must be the same plan"


def test_cache_key_is_canonical_not_textual(database):
    database.query("site(//item[ID,V])", name="first-name")
    # different pattern *name*, same canonical structure: must hit
    database.query("site(//item[ID,V])", name="second-name")
    assert database.plan_cache.hits == 1
    # structurally different query: must miss
    database.query("site(//name[ID,V])")
    assert database.plan_cache.misses == 2


def test_cached_query_skips_the_rewriting_search(database, monkeypatch):
    database.query("site(//item[ID,V])")
    def exploding_rewrite(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("a cache hit must not re-run the rewriting search")
    monkeypatch.setattr(database.rewriter, "rewrite", exploding_rewrite)
    result = database.query("site(//item[ID,V])")
    assert len(result) == 3


@pytest.mark.parametrize("analyze", [False, True])
def test_explain_of_a_cached_query_searches_nothing(database, monkeypatch, analyze):
    database.query("site(//item[ID,V])")
    calls = []
    original = database.rewriter.rewrite
    monkeypatch.setattr(
        database.rewriter, "rewrite", lambda *args: calls.append(args) or original(*args)
    )
    report = database.explain("site(//item[ID,V])", analyze=analyze)
    assert calls == [], "explain plans through the plan cache"
    assert database.plan_cache.hits == 1
    assert "items" in str(report)


def test_view_ddl_invalidates_the_cache(database):
    baseline = database.query("site(//item[ID,V])")
    database.create_view("site(//price[ID,V])", name="prices")
    result = database.query("site(//item[ID,V])")
    info = database.plan_cache.info()
    assert info["invalidations"] == 1
    assert info["hits"] == 0 and info["misses"] == 2
    assert result.same_contents(baseline)


def test_only_definition_changes_move_the_version_the_cache_keys_on(database):
    views = database.views
    database.query("site(//item[ID,V])")
    seen = (views.version, views.data_version)

    def moved():
        nonlocal seen
        before, seen = seen, (views.version, views.data_version)
        return seen[0] - before[0], seen[1] - before[1]

    database.create_view("site(//price[ID,V])", name="prices")
    assert moved() == (1, 1)
    database.drop_view("prices")
    assert moved() == (1, 1)
    database.query("site(//item[ID,V])")
    # one more item with a name: counts only — the plan survives, and reads
    # the new extent because it scans the view by name
    item = database.insert_subtree(
        database.document.root, XMLNode("item", None, [XMLNode("name", "nib")])
    )
    assert moved() == (0, 1)
    assert len(database.query("site(//item[ID,V])")) == 4
    assert database.plan_cache.info()["hits"] == 1
    # a label the summary has not seen: a rewriting may appear or go
    database.insert_subtree(item, XMLNode("price", 3))
    assert moved() == (1, 1)
    # the last price goes and takes its path along
    database.delete_subtree(item.children[-1])
    assert moved() == (1, 1)
    assert len(database.query("site(//item[ID,V])")) == 4
    assert database.plan_cache.info()["hits"] == 1, "flushed: planned afresh"


def test_dropping_a_view_never_serves_its_plan(database):
    database.query("site(//item[ID,V])")  # cached plan scans 'items'
    database.drop_view("items")
    with pytest.raises(RewritingError, match="no equivalent rewriting"):
        database.query("site(//item[ID,V])")


def test_failed_queries_are_not_cached():
    document = parse_parenthesized('site(item(price=3) item(price=5))')
    db = Database(document)
    db.create_view("site(//item[ID])", name="items")
    with pytest.raises(RewritingError):
        db.query("site(//price[ID,V])")
    assert len(db.plan_cache) == 0
    # a not-found result must not stick: later DDL makes the query answerable
    db.create_view("site(//price[ID,V])", name="prices")
    assert len(db.query("site(//price[ID,V])")) == 2


def test_lru_bound_evicts_oldest(database):
    database.plan_cache.maxsize = 1
    database.query("site(//item[ID,V])")
    database.query("site(//name[ID,V])")  # evicts the item plan
    assert len(database.plan_cache) == 1
    database.query("site(//item[ID,V])")
    assert database.plan_cache.hits == 0 and database.plan_cache.misses == 3


def test_prepared_queries_remain_independent(database):
    prepared = database.prepare("site(//item[ID,V])")
    assert len(database.plan_cache) == 0, "prepare() pins per call site"
    assert prepared.run().same_contents(database.query("site(//item[ID,V])"))


def test_query_many_sequential_consults_the_cache(database):
    workload = ["site(//item[ID,V])", "site(//name[ID,V])", "site(//item[ID,V])"]
    first = database.query_many(workload)
    info = database.plan_cache.info()
    # two distinct fingerprints: the duplicate is served by the plan its
    # first occurrence cached
    assert info["misses"] == 2 and info["hits"] == 1 and info["size"] == 2

    second = database.query_many(workload)
    info = database.plan_cache.info()
    assert info["hits"] == 4 and info["misses"] == 2, (
        "a repeated workload must be served entirely from the plan cache"
    )
    for left, right in zip(first, second):
        assert left.same_contents(right)


def test_query_many_cache_interoperates_with_query(database):
    database.query("site(//item[ID,V])")
    database.query_many(["site(//item[ID,V])", "site(//name[ID,V])"])
    info = database.plan_cache.info()
    assert info["hits"] == 1, "query_many must reuse plans cached by query()"
    assert info["misses"] == 2
    database.query("site(//name[ID,V])")
    assert database.plan_cache.hits == 2, (
        "query() must reuse plans cached by query_many()"
    )


def test_query_many_duplicate_misses_plan_once(database, monkeypatch):
    calls = []
    original = database.rewriter.rewrite

    def counting_rewrite(pattern, *args, **kwargs):
        calls.append(pattern)
        return original(pattern, *args, **kwargs)

    monkeypatch.setattr(database.rewriter, "rewrite", counting_rewrite)
    database.query_many(["site(//item[ID,V])"] * 3)
    assert len(calls) == 1, (
        "three copies of one query share one fingerprint: the rewriting "
        "search must see it exactly once"
    )


def test_query_matches_query_pattern_object(database):
    pattern = parse_pattern("site(//item[ID,V])", name="obj")
    assert database.query(pattern).same_contents(
        database.query("site(//item[ID,V])")
    )
    assert database.plan_cache.hits == 1


# --------------------------------------------------------------------------- #
# the text front: query text -> fingerprint
# --------------------------------------------------------------------------- #
@pytest.fixture()
def counted(monkeypatch):
    """Counts of the parses and key walks ``Database`` does."""
    from repro.session import database as database_module

    calls = {"parse": 0, "key": 0}

    def counting(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(
        database_module, "parse_pattern", counting("parse", database_module.parse_pattern)
    )
    monkeypatch.setattr(
        database_module, "pattern_key", counting("key", database_module.pattern_key)
    )
    return calls


def test_a_repeated_string_is_neither_parsed_nor_keyed(database, counted):
    first = database.query("site(//item[ID,V])")
    assert counted == {"parse": 1, "key": 1}
    for _ in range(3):
        assert database.query("site(//item[ID,V])").rows == first.rows
        database.plan_query("site(//item[ID,V])")
    assert counted == {"parse": 1, "key": 1}
    assert database.plan_cache.info()["hits"] == 6, "the lookup still counts"


def test_clear_empties_the_front_so_the_next_query_parses_again(database, counted):
    database.query("site(//item[ID,V])")
    assert database.plan_cache.info()["texts"] == 1
    database.plan_cache.clear()
    assert database.plan_cache.info()["texts"] == 0
    database.query("site(//item[ID,V])")
    assert counted == {"parse": 2, "key": 2}
    assert database.plan_cache.info()["misses"] == 1


def test_the_front_holds_at_most_maxsize_texts(database):
    database.plan_cache.maxsize = 2
    texts = [f'site(//item[ID,V]{{v="{label}"}})' for label in ("pen", "ink", "pad")]
    for text in texts:
        database.query(text)
    assert database.plan_cache.info()["texts"] == 2
    assert database.plan_cache.text_key(texts[0]) is None, "the oldest text left"
    assert database.plan_cache.text_key(texts[2]) is not None


def test_a_malformed_text_raises_every_time_and_is_never_stored(database):
    for _ in range(2):
        with pytest.raises(PatternParseError):
            database.query("site(//item[ID,V]")
    assert database.plan_cache.text_key("site(//item[ID,V]") is None
    assert database.plan_cache.info()["texts"] == 0


def test_query_many_goes_through_the_front(database, counted):
    texts = ["site(//item[ID,V])", "site(//name[ID,V])", "site(//item[ID,V])"]
    first = database.query_many(texts)
    assert counted == {"parse": 2, "key": 2}, "a duplicate inside a batch hits the front"
    again = database.query_many(texts)
    assert counted == {"parse": 2, "key": 2}
    assert [result.rows for result in again] == [result.rows for result in first]


def test_a_text_answers_as_its_parsed_pattern_does(database):
    text = "site(//item[ID](/name[V]))"
    assert database.query(text).rows == database.query(parse_pattern(text)).rows
    assert database.query(text).rows == database.query(parse_pattern(text)).rows


def test_a_front_hit_over_an_invalidated_plan_parses_for_the_search(database, counted):
    database.query("site(//item[ID,V])")
    database.create_view("site(//price[ID,V])", name="prices")
    counted.update(parse=0, key=0)
    result = database.query("site(//item[ID,V])")
    assert len(result) == 3 and database.plan_cache.info()["misses"] == 2
    assert counted == {"parse": 1, "key": 0}, "the key came from the front"
