"""A summary owns what containment memoises under it.

* two sessions over different documents keep apart what they report:
  their containment memos and the value indexes their extents hold;
* a write that changes an edge flag drops the summary's memo, and a write
  that moves counts only keeps it;
* ``clear_containment_cache()`` flushes every live summary's memo.
"""

from __future__ import annotations

from repro import Database, XMLNode, clear_containment_cache, parse_parenthesized

ITEM_NAMES = 'site(/item[ID](/name[ID,V]{v="pen"}))'
ITEMS = "site(//item[ID])"


def _session(text: str, name: str) -> Database:
    db = Database(parse_parenthesized(text, name=name))
    db.create_view("site(/item[ID](/name[ID,V]))", name="names")
    db.create_view("site(//item[ID])", name="items")
    return db


def _memo_sizes(db: Database) -> tuple[int, int, int]:
    memo = db.summary.containment_memo
    return len(memo.decisions), len(memo.models), len(memo.closures)


def test_two_sessions_used_in_turn_report_independent_stats():
    clear_containment_cache()
    first = _session('site(item(name="pen") item(name="ink"))', "first")
    second = _session('site(item(name="pen" price="3") gadget(name="usb"))', "second")
    first.query(ITEM_NAMES)
    after_first = second.stats()
    assert after_first["containment"]["misses"] == 0
    assert after_first["indexes"] == {"built": 0}
    assert first.stats()["indexes"] == {"built": 1}

    second.query(ITEMS)
    first.query(ITEMS)
    one, two = first.stats(), second.stats()
    assert one["containment"]["misses"] > 0 and two["containment"]["misses"] > 0
    assert one["containment"] != two["containment"]
    assert two["indexes"] == {"built": 0}
    assert one["indexes"] == {"built": 1}
    # each session reads its own summary's memo, nothing summed across both
    for db, snapshot in ((first, one), (second, two)):
        memo = db.summary.containment_memo
        assert snapshot["containment"]["hits"] == memo.decisions.hits
        assert snapshot["containment"]["size"] == len(memo.decisions)
        assert snapshot["containment"]["deciders"] == memo.deciders


def test_a_flag_changing_write_empties_the_memo_and_a_count_only_write_keeps_it():
    db = _session('site(item(name="pen") item(name="ink"))', "writes")
    db.query(ITEM_NAMES)
    db.query("site(//item[ID](/?name[V]))")  # a canonical model: closures too
    memo = db.summary.containment_memo
    sizes = _memo_sizes(db)
    assert all(sizes), sizes

    # every item keeps exactly one name: counts move, no flag does
    db.insert_subtree(db.document.root, XMLNode("item", children=[XMLNode("name", "nib")]))
    assert db.summary.containment_memo is memo
    assert _memo_sizes(db) == sizes

    # an item without a name: the item → name edge is no longer strong
    assert db.summary.node_by_path("/site/item/name").strong
    db.insert_subtree(db.document.root, XMLNode("item"))
    assert not db.summary.node_by_path("/site/item/name").strong
    assert db.summary.containment_memo is not memo
    assert _memo_sizes(db) == (0, 0, 0)


def test_clear_containment_cache_empties_every_live_summary():
    first = _session('site(item(name="pen"))', "one")
    second = _session('site(item(name="ink") item(name="nib"))', "two")
    for db in (first, second):
        db.query("site(//item[ID](/?name[V]))")
        assert all(_memo_sizes(db))
    clear_containment_cache()
    for db in (first, second):
        assert _memo_sizes(db) == (0, 0, 0)
        assert set(db.summary.containment_memo.deciders.values()) == {0}
        assert db.stats()["containment"]["hits"] == 0
