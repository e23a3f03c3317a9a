"""Streaming ingestion and the durable change log (live documents).

The session layer treats a document as *live*: subtree inserts and deletes
(:meth:`repro.Database.insert_subtree` / ``delete_subtree``; streamed
elements arrive as one insert per subtree :func:`iter_stream_subtrees`
yields) and view DDL all append to an optional durable
:class:`ChangeLog`, and :meth:`repro.Database.recover` replays that log —
optionally from the last checkpoint — back into an identical session.
The log format, its integrity rules (CRC per record, contiguous LSNs, torn
tails are a clean crash, everything else is
:class:`~repro.errors.ChangeLogCorruptError`) and the subtree codec live
in :mod:`repro.ingest.changelog`; the incremental pull-parser lives in
:mod:`repro.ingest.streaming`.
"""

from repro.ingest.changelog import (
    ChangeLog,
    LogRecord,
    decode_subtree,
    encode_subtree,
)
from repro.ingest.streaming import iter_stream_subtrees

__all__ = [
    "ChangeLog",
    "LogRecord",
    "decode_subtree",
    "encode_subtree",
    "iter_stream_subtrees",
]
