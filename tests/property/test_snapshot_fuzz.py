"""Snapshot fuzz: a damaged snapshot loads equal or fails typed.

``Database.save`` (and ``checkpoint``) writes change-log records — one
``load``, one ``create_view`` per view, a closing ``checkpoint`` fence.
Every damage below — a truncation at each byte, one flipped byte at each
position, two records swapped, a record dropped, another format tag, a
file of pickle bytes — must give either a database equal to the session
that wrote the file or a typed :class:`~repro.errors.SessionError` /
:class:`~repro.errors.ChangeLogCorruptError`: never a ``json``,
``KeyError`` or ``TypeError`` escaping, never a silently different
database.  Equal means the same view names and definitions, the same
Dewey IDs and ordinal high-water marks, the same config, and
``same_contents`` on the query of every materialised view.
``Database.recover`` falls back past such a snapshot to an older
checkpoint, or to full replay.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro import Database, XMLNode, parse_parenthesized
from repro.errors import ChangeLogCorruptError, SessionError
from repro.ingest.changelog import LogRecord
from repro.rewriting.algorithm import RewritingConfig
from repro.views.catalog import ViewCatalog

DOC_TEXT = (
    'site(regions(asia(item(name="pen" quantity=2) item(name="ink") item(name="nib"))'
    '     europe(item(name="cap")))'
    '     people(person(name="bob") person(name="eve")))'
)
ITEMS = "site(//item[ID](/name[V]))"
TYPED = (SessionError, ChangeLogCorruptError)


def _session(tmp_path) -> Database:
    """A logged session whose document has gaps and raised high-water marks."""
    db = Database(
        parse_parenthesized(DOC_TEXT, name="fuzz"),
        config=RewritingConfig(max_rewritings=3, time_budget_seconds=5.0),
    )
    db.attach_log(tmp_path / "doc.log")
    db.create_view(ITEMS, name="items")
    db.create_view("site(//name[ID,V])", name="names")
    db.create_view("site(//quantity[ID,V])", name="declared", materialize=False)
    asia = db.document.nodes_on_path("/site/regions/asia")[0]
    db.insert_subtree(asia, XMLNode("item", None, [XMLNode("name", "new")]))
    db.delete_subtree(asia.children[-1])  # a last child: the mark stays above
    db.delete_subtree(asia.children[1])  # a middle child: a gap
    people = db.document.nodes_on_path("/site/people")[0]
    for person in list(people.children):  # a parent left with no children
        db.delete_subtree(person)
    return db


def _ids(document) -> list:
    return [(str(node.dewey), node.label, node.value) for node in document.iter_nodes()]


def _definitions(database) -> list:
    return [
        (view.name, view.pattern.to_text(), view.is_materialized)
        for view in database.views
    ]


def _assert_same(live: Database, loaded: Database) -> None:
    assert _definitions(loaded) == _definitions(live)
    assert _ids(loaded.document) == _ids(live.document)
    assert loaded.document.ordinal_gaps() == live.document.ordinal_gaps()
    assert loaded.rewriter.config == live.rewriter.config
    for view in live.views:
        if view.is_materialized:
            query = view.pattern.to_text()
            assert loaded.query(query).same_contents(live.query(query))


def _outcome(live: Database, path, data: bytes) -> str:
    path.write_bytes(data)
    try:
        loaded = Database.load(path)
    except TYPED:
        return "refused"
    _assert_same(live, loaded)
    return "equal"


@pytest.fixture()
def saved(tmp_path):
    live = _session(tmp_path)
    live.save(tmp_path / "doc.db")
    yield live, (tmp_path / "doc.db").read_bytes(), tmp_path / "damaged.db"
    live.close()


def test_the_whole_snapshot_loads_equal(saved):
    live, whole, path = saved
    assert live.document.ordinal_gaps()  # the session did leave gaps
    assert _outcome(live, path, whole) == "equal"
    # a loaded session keeps numbering where the writer would
    loaded = Database.load(path)
    for database in (live, loaded):
        people = database.document.nodes_on_path("/site/people")[0]
        node = database.insert_subtree(people, XMLNode("person", None))
        assert str(node.dewey) == "1.2.3"


def test_every_truncation_is_refused(saved):
    live, whole, path = saved
    for end in range(len(whole)):
        assert _outcome(live, path, whole[:end]) == "refused", end


def test_a_flipped_byte_anywhere_is_equal_or_refused(saved):
    live, whole, path = saved
    outcomes = set()
    for position in range(len(whole)):
        damaged = bytearray(whole)
        damaged[position] ^= 0x01
        outcomes.add(_outcome(live, path, bytes(damaged)))
    assert outcomes == {"refused"}


def test_swapped_or_dropped_records_are_refused(saved):
    live, whole, path = saved
    lines = whole.splitlines(keepends=True)
    assert len(lines) == 5  # load, three views, the fence
    for first in range(len(lines)):
        for second in range(first + 1, len(lines)):
            swapped = list(lines)
            swapped[first], swapped[second] = swapped[second], swapped[first]
            assert _outcome(live, path, b"".join(swapped)) == "refused"
        dropped = lines[:first] + lines[first + 1 :]
        assert _outcome(live, path, b"".join(dropped)) == "refused"


@pytest.mark.parametrize("version", ["database/1", "database/3", "", None, 2])
def test_another_format_tag_is_refused(saved, version):
    live, whole, path = saved
    first, rest = whole.split(b"\n", 1)
    payload = {**json.loads(first)["payload"], "format": version}
    data = LogRecord(1, "load", payload).encode().encode("utf-8") + rest
    path.write_bytes(data)
    with pytest.raises(SessionError, match="unsupported snapshot format"):
        Database.load(path)


def test_a_malformed_load_record_is_refused(saved):
    live, whole, path = saved
    first, rest = whole.split(b"\n", 1)
    load = json.loads(first)["payload"]
    for damage in (
        {"root": None},
        {"root": ["site"]},
        {"ordinals": {"1.1.1": [9]}},  # fewer ordinals than children
        {"ordinals": {"x": [1]}},
        {"config": {"no_such_knob": 1}},
        {"config": [1, 2]},
    ):
        payload = {**load, **damage}
        path.write_bytes(LogRecord(1, "load", payload).encode().encode("utf-8") + rest)
        assert _outcome(live, path, path.read_bytes()) == "refused", damage


def test_a_pickled_database_1_snapshot_is_refused(saved):
    live, _, path = saved
    old = {
        "format": "database/1",
        "catalog": ViewCatalog(live.summary, live.views),
        "document": live.document,
        "config": live.rewriter.config,
    }
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        path.write_bytes(pickle.dumps(old, protocol=protocol))
        with pytest.raises(SessionError):
            Database.load(path)


# --------------------------------------------------------------------------- #
# recovery falls back past a bad snapshot
# --------------------------------------------------------------------------- #
def _checkpointed(tmp_path) -> Database:
    """Two checkpoints with writes after each."""
    db = _session(tmp_path)
    db.checkpoint(tmp_path / "old.ckpt")
    europe = db.document.nodes_on_path("/site/regions/europe")[0]
    db.insert_subtree(europe, XMLNode("item", None, [XMLNode("name", "mid")]))
    db.create_view("site(//item[ID,V])", name="values")
    db.checkpoint(tmp_path / "new.ckpt")
    db.delete_subtree(europe.children[0])
    db.insert_subtree(europe, XMLNode("item", None, [XMLNode("name", "late")]))
    db.drop_view("names")
    return db


def _recover_reading(tmp_path, monkeypatch) -> tuple[Database, list]:
    """Recover the log; return the session and the snapshots that loaded."""
    loaded = []
    snapshot = Database._snapshot

    def spy(path):
        records = snapshot(path)
        loaded.append(str(path))
        return records

    monkeypatch.setattr(Database, "_snapshot", staticmethod(spy))
    recovered = Database.recover(tmp_path / "doc.log")
    monkeypatch.undo()
    return recovered, loaded


_DAMAGES = {
    "truncated": lambda data: data[: len(data) // 2],
    "unfenced": lambda data: data[: data.rstrip(b"\n").rfind(b"\n") + 1],
    "flipped": lambda data: data[:40] + bytes([data[40] ^ 0x01]) + data[41:],
    "pickled": lambda data: pickle.dumps({"format": "database/1"}),
}


@pytest.mark.parametrize("damage", sorted(_DAMAGES))
def test_recovery_falls_back_to_the_older_checkpoint(tmp_path, monkeypatch, damage):
    live = _checkpointed(tmp_path)
    newest = tmp_path / "new.ckpt"
    newest.write_bytes(_DAMAGES[damage](newest.read_bytes()))
    recovered, loaded = _recover_reading(tmp_path, monkeypatch)
    assert loaded == [str(tmp_path / "old.ckpt")]
    _assert_same(live, recovered)
    live.close()
    recovered.close()


def test_recovery_falls_back_to_full_replay_past_every_bad_snapshot(
    tmp_path, monkeypatch
):
    live = _checkpointed(tmp_path)
    (tmp_path / "new.ckpt").write_bytes(b"")
    (tmp_path / "old.ckpt").unlink()
    recovered, loaded = _recover_reading(tmp_path, monkeypatch)
    assert loaded == []
    _assert_same(live, recovered)
    live.close()
    recovered.close()


def test_recovery_through_the_newest_checkpoint_is_the_writing_session(
    tmp_path, monkeypatch
):
    live = _checkpointed(tmp_path)
    recovered, loaded = _recover_reading(tmp_path, monkeypatch)
    assert loaded == [str(tmp_path / "new.ckpt")]
    _assert_same(live, recovered)
    live.close()
    recovered.close()
