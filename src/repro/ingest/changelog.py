"""The durable append-only change log behind live documents.

One JSON object per line (JSONL), each carrying its own integrity data::

    {"lsn": 3, "type": "insert", "payload": {...}, "crc": 2774887041}

* ``lsn`` — log sequence number, contiguous from 1.  A gap means records
  went missing in the middle of the file: corruption, never a crash.
* ``crc`` — CRC-32 of the canonical JSON encoding of ``[lsn, type,
  payload]``.  A mismatch means the line was altered after it was written.

The distinction the recovery path lives on: a **torn tail** (the final
line is incomplete or malformed — the process died mid-append) is a clean
crash, and replay simply stops at the last intact record.  Anything else —
CRC mismatch, LSN gap, malformed JSON *before* the final line — raises
:class:`~repro.errors.ChangeLogCorruptError`: recovery is either exact or
a typed failure, never silently wrong.

Subtrees ride inside payloads as nested ``[label, value, children]``
triples (:func:`encode_subtree` / :func:`decode_subtree`), so the log is
self-contained and readable with any JSON tooling.  A whole document (the
``load`` record) adds the sibling ordinals that deletes left with gaps, so
it reloads with every Dewey ID it had (:func:`decode_document`).  A tree
is written straight from its nodes (:meth:`LogRecord.write`): the triples
of a whole document are never built, only their text, chunk by chunk.

Example
-------
>>> import tempfile, os
>>> path = os.path.join(tempfile.mkdtemp(), "doc.log")
>>> log = ChangeLog(path)
>>> log.append("load", {"name": "doc"}).lsn
1
>>> log.append("insert", {"parent": "1", "subtree": ["item", 7, []]}).lsn
2
>>> [record.type for record in ChangeLog.read(path)]
['load', 'insert']
>>> decode_subtree(["item", 7, [["name", "pen", []]]]).children[0].value
'pen'
>>> log.close()
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterator, Optional

from repro.errors import ChangeLogCorruptError, ChangeLogError
from repro.xmltree.ids import DeweyID
from repro.xmltree.node import XMLDocument, XMLNode

__all__ = [
    "ChangeLog",
    "LogRecord",
    "decode_document",
    "decode_subtree",
    "encode_subtree",
]


RECORD_TYPES = frozenset(
    {"load", "insert", "delete", "create_view", "drop_view", "checkpoint"}
)


@dataclass(frozen=True)
class LogRecord:
    """One validated change-log record.

    A record about to be written may carry an :class:`XMLNode` as a
    top-level payload value (the ``load`` record's ``root``): it is written
    as its :func:`encode_subtree` triple, streamed from the tree.  A record
    read back carries the triples themselves.
    """

    lsn: int
    type: str
    payload: dict

    def encode(self) -> str:
        """The record's JSONL line (with trailing newline)."""
        parts: list[str] = []
        self.write(parts.append)
        return "".join(parts)

    def write(self, write: Callable[[str], object]) -> None:
        """Hand the record's JSONL line to ``write``, chunk by chunk.

        The line is the one ``json.dumps`` gives for ``{"crc", "lsn",
        "payload", "type"}`` with sorted keys and no spaces, byte for
        byte.  The CRC leads the line, so the payload's chunks are kept
        until it is known: about the line's size, never the nested lists
        of a tree nor a second copy of its text.
        """
        chunks = list(_payload_chunks(self.payload))
        lsn, type_ = _dumps(self.lsn), _dumps(self.type)
        crc = zlib.crc32(f"[{lsn},{type_},".encode())
        for chunk in chunks:
            crc = zlib.crc32(chunk.encode(), crc)
        write(f'{{"crc":{zlib.crc32(b"]", crc)},"lsn":{lsn},"payload":')
        for chunk in chunks:
            write(chunk)
        write(f',"type":{type_}}}\n')


def _dumps(value) -> str:
    """The canonical JSON text of ``value``: what every record is made of."""
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def _crc(lsn: int, type_: str, payload: dict) -> int:
    """CRC-32 over the canonical JSON of the record's meaningful fields."""
    return zlib.crc32(_dumps([lsn, type_, payload]).encode("utf-8"))


def _payload_chunks(payload: dict) -> Iterator[str]:
    """``_dumps(payload)`` in chunks, each node value streamed from its tree."""
    if not any(isinstance(value, XMLNode) for value in payload.values()):
        yield _dumps(payload)
        return
    texts: dict = {}
    separator = "{"
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, XMLNode):
            yield f"{separator}{_dumps(key)}:"
            yield from _tree_chunks(value, texts)
        else:
            yield f"{separator}{_dumps(key)}:{_dumps(value)}"
        separator = ","
    yield "}"


# the nodes of one chunk: the kept chunks hold one string per few hundred
# nodes, where the parts alone would hold several per node; a larger
# chunk only raises the transient of joining its parts
_CHUNK_NODES = 256


def _tree_chunks(root: XMLNode, texts: dict) -> Iterator[str]:
    """``_dumps(encode_subtree(root))`` in chunks, without the triples."""
    parts: list[str] = []
    stack: list = [root]
    count = 0
    while stack:
        node = stack.pop()
        if node.__class__ is str:
            parts.append(node)
            continue
        head = f"[{_text(node.label, texts)},{_text(node.value, texts)},["
        children = node.children
        if children:
            parts.append(head)
            stack.append("]]")
            for child in reversed(children):
                stack.append(child)
                stack.append(",")
            stack.pop()
        else:
            parts.append(head + "]]")
        count += 1
        if count == _CHUNK_NODES:
            yield "".join(parts)
            parts.clear()
            count = 0
    yield "".join(parts)


# where a value equal to another always has the same JSON text: not
# ``float`` (``0.0 == -0.0``), nor ``bool`` beside ``int`` (``True == 1``)
_MEMOISED = frozenset({str, int, type(None)})


def _text(value, texts: dict) -> str:
    """``_dumps(value)``, memoised in ``texts`` where that is exact."""
    if value.__class__ not in _MEMOISED:
        return _dumps(value)
    text = texts.get(value)
    if text is None:
        text = texts[value] = _dumps(value)
    return text


def encode_subtree(node: XMLNode) -> list:
    """A detached subtree as a JSON-safe ``[label, value, children]`` triple.

    Dewey IDs and rooted paths are deliberately *not* recorded: replay
    re-derives them by re-running the insert against the reconstructed
    document, and determinism of the ordinal high-water mark makes them
    come out identical (asserted by the recovery path).
    """
    return [
        node.label,
        node.value,
        [encode_subtree(child) for child in node.children],
    ]


def decode_subtree(data: list) -> XMLNode:
    """Inverse of :func:`encode_subtree` (a detached, ID-free subtree)."""
    try:
        label, value, children = data
        node = XMLNode(label, value)
    except Exception as exc:
        raise ChangeLogCorruptError(f"malformed subtree encoding: {data!r}") from exc
    for child in children:
        node.append(decode_subtree(child))
    return node


def decode_document(data: dict) -> XMLDocument:
    """A ``load`` payload's document: every Dewey ID and every ordinal
    high-water mark as the written document had them.  A payload
    without ``ordinals`` (one written before they were recorded) numbers
    the tree afresh."""
    return XMLDocument(
        decode_subtree(data["root"]),
        name=data.get("name", "doc"),
        ordinals={
            DeweyID.from_string(dewey): numbers
            for dewey, numbers in data.get("ordinals", {}).items()
        },
    )


class ChangeLog:
    """An append-only JSONL change log with per-record integrity data.

    Opening a path that already holds records *validates* the existing
    content first (same rules as :meth:`read`) and continues from its last
    LSN — a reopened log never forks the sequence.  A torn final line is
    truncated away on open: the record was never acknowledged, and leaving
    it would corrupt the next append's line.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._continue(*_scan(self.path))

    def _continue(self, records: list[LogRecord], intact_bytes: int) -> None:
        """Open the file for appending after ``records``, its validated
        content, which ends at byte ``intact_bytes`` (a torn tail past it is
        truncated away)."""
        self._last_lsn = records[-1].lsn if records else 0
        size = self.path.stat().st_size if self.path.exists() else None
        if size is not None and intact_bytes < size:
            with open(self.path, "r+b") as handle:
                handle.truncate(intact_bytes)
        self._handle: Optional[IO[str]] = open(self.path, "a", encoding="utf-8")

    # ------------------------------------------------------------------ #
    @property
    def last_lsn(self) -> int:
        """LSN of the last appended (or validated pre-existing) record."""
        return self._last_lsn

    def append(self, type_: str, payload: dict) -> LogRecord:
        """Durably append one record and return it."""
        if self._handle is None:
            raise ChangeLogError(f"change log {self.path} is closed")
        if type_ not in RECORD_TYPES:
            raise ChangeLogError(f"unknown change-log record type {type_!r}")
        record = LogRecord(self._last_lsn + 1, type_, payload)
        record.write(self._handle.write)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._last_lsn = record.lsn
        return record

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ChangeLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    @classmethod
    def read(cls, path: str | Path) -> list[LogRecord]:
        """Validate and return every intact record of the log at ``path``.

        A torn final line is silently dropped (clean crash); any other
        integrity failure raises
        :class:`~repro.errors.ChangeLogCorruptError`.
        """
        records, _ = _scan(Path(path))
        return records

    @classmethod
    def _read_for_append(
        cls, path: str | Path
    ) -> tuple[list[LogRecord], Callable[[], "ChangeLog"]]:
        """:meth:`read`, plus a call that opens the log for appending after
        those records without validating the file a second time (recovery
        replays the records first, then resumes the log)."""
        log = cls.__new__(cls)
        log.path = Path(path)
        records, intact_bytes = _scan(log.path)

        def reopen() -> "ChangeLog":
            log._continue(records, intact_bytes)
            return log

        return records, reopen

    def __repr__(self) -> str:
        state = "open" if self._handle is not None else "closed"
        return f"<ChangeLog {str(self.path)!r} last_lsn={self._last_lsn} {state}>"


def _scan(path: Path) -> tuple[list[LogRecord], int]:
    """Validate the log file; return (intact records, intact byte length).

    The intact byte length marks the end of the last valid record, so
    callers can truncate a torn tail before appending.
    """
    if not path.exists():
        return [], 0
    records: list[LogRecord] = []
    intact_bytes = 0
    with open(path, "rb") as handle:
        raw = handle.read()
    lines = raw.split(b"\n")
    # a well-formed file ends with a newline, so the final split element is
    # empty; anything after the last newline is a torn (unterminated) tail
    body, tail = lines[:-1], lines[-1]
    for position, line in enumerate(body):
        is_final = position == len(body) - 1 and not tail
        try:
            data = json.loads(line)
            lsn = data["lsn"]
            type_ = data["type"]
            payload = data["payload"]
            crc = data["crc"]
        except Exception as exc:
            if is_final:
                break  # torn tail: the crash window included the newline
            raise ChangeLogCorruptError(
                f"{path}: malformed record on line {position + 1}"
            ) from exc
        if not isinstance(payload, dict) or type_ not in RECORD_TYPES:
            raise ChangeLogCorruptError(
                f"{path}: invalid record shape on line {position + 1}"
            )
        if crc != _crc(lsn, type_, payload):
            raise ChangeLogCorruptError(
                f"{path}: CRC mismatch on line {position + 1} (lsn {lsn})"
            )
        if lsn != len(records) + 1:
            raise ChangeLogCorruptError(
                f"{path}: LSN discontinuity on line {position + 1} "
                f"(expected {len(records) + 1}, found {lsn})"
            )
        records.append(LogRecord(lsn, type_, payload))
        intact_bytes += len(line) + 1
    return records, intact_bytes
