"""Database save/load: the one persisted snapshot of a session.

A snapshot holds change-log records — the document, the view definitions,
the config — and a load rebuilds everything derived from them.  A loaded
database must behave exactly like the one that was saved: same rewritings,
same statistics, same config.  A file that is not such a snapshot is
refused with a typed :class:`~repro.errors.SessionError`; the corruption
fuzz is ``tests/property/test_snapshot_fuzz.py``.
"""

from __future__ import annotations

import re

import pytest

from repro import (
    Database,
    MaterializedView,
    build_summary,
    parse_parenthesized,
    parse_pattern,
)
from repro.errors import SessionError
from repro.ingest.changelog import ChangeLog, LogRecord
from repro.rewriting.algorithm import RewritingConfig
from repro.session.database import DATABASE_FORMAT_VERSION

_ALIAS = re.compile(r"[@#]\d+")


def _fingerprint(outcome):
    return [
        (tuple(r.views_used), r.is_union, _ALIAS.sub("@N", r.plan.describe()))
        for r in outcome.rewritings
    ]


@pytest.fixture()
def setup():
    doc = parse_parenthesized(
        'site(regions(asia(item(name="pen") item(name="ink"))'
        ' europe(item(name="nib"))))',
        name="persist-doc",
    )
    summary = build_summary(doc)
    views = [
        MaterializedView(parse_pattern("site(//item[ID,V])", name="v_item"), doc),
        MaterializedView(parse_pattern("site(//name[ID,V])", name="v_name"), doc),
        MaterializedView(
            parse_pattern("site(//item[ID](/name[ID,V]))", name="v_in"), doc
        ),
    ]
    return doc, summary, views


@pytest.fixture()
def database(setup):
    doc, summary, views = setup
    return Database(doc, views, summary=summary)


def _save_and_load(database, path):
    database.save(path)
    return Database.load(path)


def test_round_trip_preserves_rewritings(setup, tmp_path):
    doc, summary, views = setup
    config = RewritingConfig(max_rewritings=4, time_budget_seconds=10.0)
    original = Database(doc, views, config, summary=summary)
    restored = _save_and_load(original, tmp_path / "session.db")
    assert restored.rewriter.config == config
    queries = [
        parse_pattern("site(//item[ID,V])"),
        parse_pattern("site(//name[ID,V])"),
        parse_pattern("site(//item(/name[ID,V]))"),
    ]
    for query in queries:
        assert _fingerprint(original.rewrite(query)) == _fingerprint(
            restored.rewrite(query)
        )


def test_statistics_snapshot_travels_with_the_catalog(database, tmp_path):
    expected = database.catalog.statistics().view_rows("v_item")
    loaded = _save_and_load(database, tmp_path / "session.db")
    assert loaded.catalog.statistics().view_rows("v_item") == expected


def test_statistics_counters_travel_with_the_session(database, tmp_path):
    statistics = database.catalog.statistics()
    kept = _save_and_load(database, tmp_path / "session.db").catalog.statistics()
    # the exact counters a later write splices come back with the extents
    assert kept._view_counts.keys() == statistics._view_counts.keys()
    assert kept._view_columns == statistics._view_columns


def test_loaded_sessions_never_share_a_memo(database, tmp_path):
    path = tmp_path / "session.db"
    saved = database.summary.containment_memo  # a memo on the summary being saved
    database.save(path)
    first = Database.load(path)
    second = Database.load(path)
    assert first.summary.containment_memo is not second.summary.containment_memo
    assert first.summary.containment_memo is not saved
    first.query("site(//item[ID,V])")
    assert len(first.summary.containment_memo.decisions) > 0
    assert len(second.summary.containment_memo.decisions) == 0
    assert len(saved.decisions) == 0


def test_a_snapshot_is_change_log_records_behind_a_fence(database, tmp_path):
    path = tmp_path / "session.db"
    database.save(path)
    records = ChangeLog.read(path)
    assert [record.type for record in records] == [
        "load", "create_view", "create_view", "create_view", "checkpoint"
    ]
    assert records[0].payload["format"] == DATABASE_FORMAT_VERSION == "database/2"
    assert [record.payload["name"] for record in records[1:-1]] == database.views.names
    assert not (tmp_path / "session.db.partial").exists()


def _with_config(records, config):
    """The records with the ``load`` record's config replaced."""
    load = records[0]
    return [LogRecord(load.lsn, load.type, {**load.payload, "config": config}), *records[1:]]


def _write(path, records):
    path.write_text("".join(record.encode() for record in records), encoding="utf-8")


# the config dict every snapshot and log held before the two search caps
# became module constants and ``stop_at_first`` folded into ``max_rewritings``
_RETIRED_CONFIG = {
    "max_plan_size": 5,
    "max_candidates": 4000,
    "max_rewritings": 8,
    "stop_at_first": True,
    "time_budget_seconds": 10.0,
    "enable_unions": False,
    "max_union_size": 3,
}
_MIGRATED_CONFIG = RewritingConfig(
    max_plan_size=5, max_rewritings=1, time_budget_seconds=10.0, enable_unions=False
)


def test_snapshots_and_logs_with_retired_config_keys_still_load(database, tmp_path):
    retired = _RETIRED_CONFIG
    snapshot = tmp_path / "session.db"
    database.save(snapshot)
    _write(snapshot, _with_config(ChangeLog.read(snapshot), retired))
    assert Database.load(snapshot).rewriter.config == _MIGRATED_CONFIG

    # a log with no checkpoint: recover replays it whole from its load record
    log = tmp_path / "doc.log"
    live = Database(database.document)
    live.attach_log(log)
    live.create_view("site(//item[ID,V])", name="v_item")
    live.close()
    _write(log, _with_config(ChangeLog.read(log), {**retired, "stop_at_first": False}))
    recovered = Database.recover(log)
    assert recovered.rewriter.config == RewritingConfig(
        max_plan_size=5, max_rewritings=8, time_budget_seconds=10.0, enable_unions=False
    )
    assert recovered.views.names == ["v_item"]
    recovered.close()


def test_a_checkpoint_with_retired_config_keys_recovers_from_its_snapshot(
    database, tmp_path
):
    log, snapshot = tmp_path / "doc.log", tmp_path / "doc.ckpt"
    live = Database(database.document)
    live.attach_log(log)
    live.create_view("site(//item[ID,V])", name="v_item")
    live.checkpoint(snapshot)
    live.create_view("site(//name[ID,V])", name="v_name")  # the tail behind it
    live.close()
    _write(snapshot, _with_config(ChangeLog.read(snapshot), _RETIRED_CONFIG))
    # the log's own load record differs: only the snapshot yields the migrated config
    _write(log, _with_config(ChangeLog.read(log), {"max_plan_size": 7}))
    recovered = Database.recover(log)
    assert recovered.rewriter.config == _MIGRATED_CONFIG
    assert recovered.views.names == ["v_item", "v_name"]
    recovered.close()


def test_a_config_key_that_was_never_written_is_still_refused(database, tmp_path):
    snapshot = tmp_path / "session.db"
    database.save(snapshot)
    records = ChangeLog.read(snapshot)
    config = {**records[0].payload["config"], "max_candidatez": 4000}
    _write(snapshot, _with_config(records, config))
    with pytest.raises(SessionError, match="max_candidatez"):
        Database.load(snapshot)


def test_a_migrated_snapshot_is_saved_with_the_current_keys_only(database, tmp_path):
    old, new = tmp_path / "old.db", tmp_path / "new.db"
    database.save(old)
    _write(old, _with_config(ChangeLog.read(old), _RETIRED_CONFIG))
    Database.load(old).save(new)
    assert ChangeLog.read(new)[0].payload["config"] == {
        "max_plan_size": 5,
        "max_rewritings": 1,
        "time_budget_seconds": 10.0,
        "enable_unions": False,
    }


def test_garbage_files_are_rejected(database, tmp_path):
    path = tmp_path / "not-a-database.db"
    path.write_bytes(b"definitely not a snapshot")
    with pytest.raises(SessionError, match="not a database snapshot"):
        Database.load(path)
    path.write_bytes(b"{}\n{}\n")
    with pytest.raises(SessionError, match="cannot read"):
        Database.load(path)
    with pytest.raises(SessionError, match="not a database snapshot"):
        Database.load(tmp_path / "missing.db")
    # a change log that stops short of a checkpoint is no snapshot either
    database.attach_log(tmp_path / "doc.log")
    with pytest.raises(SessionError, match="no closing checkpoint fence"):
        Database.load(tmp_path / "doc.log")


def test_a_summary_only_session_cannot_be_saved(setup, tmp_path):
    _, summary, _ = setup
    with pytest.raises(SessionError, match="summary-only"):
        Database.from_summary(summary).save(tmp_path / "session.db")
    assert not (tmp_path / "session.db").exists()


def _columns(view):
    return [(column.name, column.kind) for column in view._schema]


def test_a_view_derives_its_schema_once(setup, monkeypatch):
    import repro.views.view as view_module

    _, _, views = setup
    view = MaterializedView(parse_pattern("site(//item[ID](/name[ID,V]))", name="v"))
    calls = []
    derive = view_module.pattern_schema
    monkeypatch.setattr(
        view_module, "pattern_schema", lambda pattern: calls.append(1) or derive(pattern)
    )
    expected = _columns(view)
    for _ in range(3):
        assert view.dewey_sort_column() == "ID1"
        assert _columns(view) == expected
    assert len(calls) == 1
