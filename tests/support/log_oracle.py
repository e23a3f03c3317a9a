"""Change-log lines the way they were written before the ``load`` record
was streamed from the tree: the whole payload built as nested
``[label, value, children]`` lists (:func:`encode_document`), then one
``json.dumps`` of the record and one of ``[lsn, type, payload]`` for its
CRC.  Tests hold :meth:`repro.ingest.changelog.LogRecord.write` to these
lines byte for byte."""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict

from repro.ingest.changelog import encode_subtree
from repro.session.database import DATABASE_FORMAT_VERSION
from repro.xmltree.node import XMLDocument, XMLNode

__all__ = ["encode_document", "nested_line", "snapshot_text"]

_CANONICAL = {"separators": (",", ":"), "sort_keys": True}


def encode_document(document: XMLDocument) -> dict:
    """A document as a JSON-safe dict: its name, its ID-free tree, and the
    sibling ordinals that are not ``1..n`` (:meth:`XMLDocument.ordinal_gaps`)."""
    return {
        "name": document.name,
        "root": encode_subtree(document.root),
        "ordinals": {
            str(dewey): numbers for dewey, numbers in document.ordinal_gaps().items()
        },
    }


def nested_line(lsn: int, type_: str, payload: dict) -> str:
    """The record's JSONL line, every node value built as nested triples first."""
    payload = {
        key: encode_subtree(value) if isinstance(value, XMLNode) else value
        for key, value in payload.items()
    }
    crc = zlib.crc32(json.dumps([lsn, type_, payload], **_CANONICAL).encode("utf-8"))
    record = {"lsn": lsn, "type": type_, "payload": payload, "crc": crc}
    return json.dumps(record, **_CANONICAL) + "\n"


def snapshot_text(database) -> str:
    """What ``database.save`` wrote: ``load``, one ``create_view`` per view,
    the ``checkpoint`` fence."""
    load = {
        **encode_document(database.document),
        "format": DATABASE_FORMAT_VERSION,
        "config": asdict(database.rewriter.config),
    }
    records = [("load", load)]
    records += [
        (
            "create_view",
            {
                "name": view.name,
                "pattern": view.pattern.to_text(),
                "materialize": view.is_materialized,
            },
        )
        for view in database.views
    ]
    records.append(("checkpoint", {}))
    return "".join(
        nested_line(lsn, type_, payload)
        for lsn, (type_, payload) in enumerate(records, start=1)
    )
