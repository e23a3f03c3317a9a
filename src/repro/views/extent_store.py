"""A read-only shared extent store for parallel plan execution.

Parallel batch *rewriting* (PR 2) deliberately strips view extents from the
catalog snapshots workers load — rewriting only needs the view definitions.
Executing the chosen plans in the workers needs the extents too, and
shipping them per task (or per worker) would copy megabytes of rows through
pickle for every batch.  The :class:`ExtentStore` instead publishes each
materialised extent **once per data version of the view set** into a
:mod:`multiprocessing.shared_memory` segment, in a self-describing columnar
byte layout (:func:`encode_relation`), and hands workers a tiny picklable
:class:`ExtentManifest` naming the segments.  Workers attach segments by
name — no pickled relation ever crosses the pool — and decode each extent
lazily, at most once per worker per version.

Three contracts matter:

* **publish-once / diff publishing** — :meth:`ExtentStore.publish` is
  keyed on ``views.data_version`` (the counter every DDL and every
  document mutation moves; the batch engine's snapshot follows the same
  one); republishing an unchanged view set returns the cached manifest
  without touching shared memory.  A *new* version re-encodes only the
  views whose :attr:`~repro.views.view.MaterializedView.extent_version`
  moved since their last encode — after DDL that is the one view added,
  after an incremental document update only the views the delta actually
  touched (plus those storing content references, whose encoded subtrees
  may have changed under unchanged rows).
  :attr:`ExtentStore.publish_count` counts view-segment encodes over the
  store's lifetime, so tests can assert "exactly once per extent change".
* **stale rejection** — diff publishing keeps unchanged segments alive
  across versions, so staleness is enforced by a one-byte *guard* segment
  minted fresh on every publish (the previous guard is unlinked).
  :meth:`AttachedExtents.attach` maps the guard first; a manifest from a
  superseded version fails fast with :class:`StaleExtentError` instead of
  silently serving pre-DDL (or pre-update) rows.
* **refcounted lifecycle** — the store is shared by reference
  (:meth:`retain` / :meth:`release`); the last release unlinks every
  segment.  :meth:`~repro.rewriting.batch.BatchEngine.close` (and through
  it ``Database.close``) drops the owning reference, and a GC finalizer
  backstops leaked stores so segments never outlive the process quietly.

The codec lives in :mod:`repro.algebra.columnar` (shared with the
vectorized executor) and covers every cell type a
:class:`~repro.algebra.tuples.Relation` can hold — atoms, ``⊥``,
:class:`~repro.xmltree.ids.DeweyID`, nested relations and content
references.  Content references (:class:`~repro.xmltree.node.XMLNode`) are
encoded as their subtree (label, value, children) plus the root's Dewey ID
and rooted path; decoding rebuilds an equivalent subtree and re-derives
every descendant's identifier and path from the root's (children keep
their sibling ordinals, so the derived IDs equal the originals).  Rebuilt
nodes compare equal to the originals under the executor's identifier-based
semantics; they are *copies*, so mutating them never touches the parent
process's document.

Since PR 6 the payload layout is genuinely columnar (magic ``RXC1``: a
block directory, then one contiguous cell block per column) and attached
extents expose a :class:`~repro.algebra.columnar.ColumnBatch` that decodes
column blocks on first touch.  The vectorized executor scans that batch
directly, so a worker whose plans never read a column never pays its
decode — :attr:`AttachedExtents.decode_bytes_touched` makes the saving
observable.
"""

from __future__ import annotations

import secrets
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Iterator, Optional

from repro.algebra.columnar import (
    ColumnarPayload,
    ColumnBatch,
    decode_payload,
    encode_columnar,
)
from repro.algebra.tuples import Relation
from repro.errors import ExtentStoreError
from repro.views.indexes import (
    UNINDEXABLE,
    decode_index_section,
    encode_index_section,
)
from repro.views.store import ViewSet

__all__ = [
    "AttachedExtents",
    "ExtentManifest",
    "ExtentStore",
    "ExtentStoreError",
    "StaleExtentError",
    "decode_relation",
    "encode_relation",
]


class StaleExtentError(ExtentStoreError):
    """Raised when attaching a manifest whose publication was superseded.

    Every publish mints a fresh guard segment and unlinks the previous
    one (plus any view segments it no longer references), so a worker
    holding an old manifest fails here instead of reading pre-DDL or
    pre-update extents."""


# --------------------------------------------------------------------------- #
# codec facade (implementation in repro.algebra.columnar)
# --------------------------------------------------------------------------- #
def encode_relation(relation: Relation) -> bytes:
    """Encode a relation into the self-describing columnar byte layout.

    The encoding is pickle-free and position-independent: schema (names,
    kinds, summary paths), the ``sorted_by`` annotation, a per-column block
    directory and one contiguous cell block per column, with nested
    relations and content references encoded recursively.
    :func:`decode_relation` inverts it exactly (content references come back
    as equivalent rebuilt subtrees — see the module notes), and
    :class:`~repro.algebra.columnar.ColumnarPayload` reads single columns
    out of it without touching the rest.
    """
    return encode_columnar(relation)


def decode_relation(payload) -> Relation:
    """Decode :func:`encode_relation` output (bytes or a memoryview).

    Materialises the whole relation; use
    :class:`~repro.algebra.columnar.ColumnarPayload` directly for lazy
    per-column access.  Anything but the columnar ``RXC1`` layout raises
    :class:`~repro.errors.ExtentStoreError`.
    """
    return decode_payload(payload)


# --------------------------------------------------------------------------- #
# shared-memory publication
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExtentManifest:
    """The picklable handle workers receive instead of extent copies.

    ``segments`` maps each materialised view to its shared-memory segment
    name and payload length; ``token`` identifies the publishing store and
    ``version`` the ``views.data_version`` the extents were published under —
    together they key the worker-side attachment cache."""

    token: str
    version: int
    segments: tuple[tuple[str, str, int], ...]
    """``(view name, shared-memory segment name, payload bytes)`` triples."""

    guard: Optional[str] = None
    """Name of the publish's one-byte guard segment.  Diff publishing lets
    view segments survive version bumps, so the guard — unlinked and
    re-minted on every publish — is what makes a superseded manifest fail
    :meth:`AttachedExtents.attach` instead of silently attaching stale
    rows.  ``None`` only for manifests from stores predating the guard."""

    @property
    def view_names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.segments)

    @property
    def total_bytes(self) -> int:
        return sum(nbytes for _, _, nbytes in self.segments)


def _unlink_quietly(segments: dict) -> None:
    """Finalizer body shared by :meth:`ExtentStore.release` and GC."""
    for segment in list(segments.values()):
        try:
            _retrack(segment)  # see _untrack: unlink() expects a registration
            segment.close()
            segment.unlink()
        except Exception:  # pragma: no cover - already-gone segments are fine
            pass
    segments.clear()


def _untrack(segment: shared_memory.SharedMemory) -> None:
    """Take a segment out of the process's resource-tracker bookkeeping.

    Until Python 3.13 every ``SharedMemory`` constructor call registers the
    segment with the per-process resource tracker — *including pure
    attaches* — and under spawn-style start methods a worker gets its own
    tracker, which would tear the parent's segments down when the worker
    exits.  The store instead manages lifetime explicitly: creations and
    attachments are untracked everywhere (under fork the tracker is shared,
    so an attach-side unregister would otherwise also clobber the parent's
    registration and make the eventual unlink a tracker error), and
    :func:`_unlink_quietly` re-registers just before unlinking so
    ``SharedMemory.unlink``'s built-in unregister finds its entry.  The
    tracker still backstops crash windows between those points."""
    try:  # pragma: no cover - tracker internals differ across versions
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass


def _retrack(segment: shared_memory.SharedMemory) -> None:
    """Inverse of :func:`_untrack`, called right before unlinking."""
    try:  # pragma: no cover - tracker internals differ across versions
        from multiprocessing import resource_tracker

        resource_tracker.register(segment._name, "shared_memory")
    except Exception:
        pass


_GUARD_KEY = "\x00__guard__"
"""Key of the guard segment inside ``ExtentStore._segments``.  The NUL
prefix keeps it out of any real view's namespace, and living in the same
dict puts it under the store's finalizer / release teardown for free."""


class ExtentStore:
    """Publishes materialised view extents to shared memory, once per version.

    The store is process-local state on the *parent* side; workers only ever
    see :class:`ExtentManifest` values and attach through
    :class:`AttachedExtents`.  Lifecycle is refcounted: every co-owner calls
    :meth:`retain` and :meth:`release`; the last release unlinks all
    segments.  A freshly constructed store holds one reference (the
    creator's).

    Example
    -------
    >>> from repro import MaterializedView, parse_parenthesized, parse_pattern
    >>> from repro.views.store import ViewSet
    >>> doc = parse_parenthesized('site(item(name="pen") item(name="ink"))')
    >>> views = ViewSet([MaterializedView(parse_pattern("site(//item[ID,V])", name="v"), doc)])
    >>> store = ExtentStore()
    >>> manifest = store.publish(views)
    >>> manifest.view_names
    ('v',)
    >>> store.publish(views) is manifest  # unchanged version: cached
    True
    >>> attached = AttachedExtents.attach(manifest)
    >>> len(attached["v"].relation)
    2
    >>> attached.close()
    >>> store.release()
    """

    def __init__(self) -> None:
        self.token = secrets.token_hex(8)
        self.publish_count = 0
        """View-segment encodes over this store's lifetime — the observable
        diff-publishing contract: after any number of batches this equals
        the number of distinct (view, extent version) pairs published, not
        the number of publishes.  Guard segments are not counted."""
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._entries: dict[str, tuple[str, str, int]] = {}
        self._extent_versions: dict[str, int] = {}
        self._manifest: Optional[ExtentManifest] = None
        self._version: Optional[int] = None
        self._refs = 1
        self._finalizer = weakref.finalize(self, _unlink_quietly, self._segments)

    # ------------------------------------------------------------------ #
    @property
    def version(self) -> Optional[int]:
        """The ``views.data_version`` of the currently published extents."""
        return self._version

    @property
    def manifest(self) -> Optional[ExtentManifest]:
        """The current manifest (None before the first publish / after close)."""
        return self._manifest

    @property
    def references(self) -> int:
        """Live co-owner count (0 after the final release)."""
        return self._refs

    def retain(self) -> "ExtentStore":
        """Register one more co-owner; pair with :meth:`release`."""
        if self._refs <= 0:
            raise ExtentStoreError("cannot retain a released extent store")
        self._refs += 1
        return self

    def release(self) -> None:
        """Drop one reference; the last one unlinks every segment."""
        if self._refs <= 0:
            return
        self._refs -= 1
        if self._refs == 0:
            _unlink_quietly(self._segments)
            self._entries.clear()
            self._extent_versions.clear()
            self._manifest = None
            self._version = None

    def _drop_segment(self, key: str) -> None:
        """Unlink one superseded segment (a view's old extent, or a guard)."""
        segment = self._segments.pop(key, None)
        if segment is None:
            return
        try:
            _retrack(segment)
            segment.close()
            segment.unlink()
        except Exception:  # pragma: no cover - already-gone segments are fine
            pass

    def publish(self, views: ViewSet) -> ExtentManifest:
        """Publish every materialised extent, keyed on ``views.data_version``.

        Unchanged versions return the cached manifest without touching
        shared memory.  A new version publishes a *diff*: only views whose
        :attr:`~repro.views.view.MaterializedView.extent_version` moved
        since their last encode get a fresh segment; unchanged views keep
        the one they have, and segments of removed views are unlinked.
        Every publish replaces the guard segment, superseding all earlier
        manifests (see :class:`StaleExtentError`).  Unmaterialised views
        are skipped: they have no extent to scan, in the parent or
        anywhere else.
        """
        if self._refs <= 0:
            raise ExtentStoreError("cannot publish through a released extent store")
        version = views.data_version
        if self._manifest is not None and self._version == version:
            return self._manifest
        entries: list[tuple[str, str, int]] = []
        live: set[str] = set()
        for view in views:
            if not view.is_materialized:
                continue
            live.add(view.name)
            extent_version = getattr(view, "extent_version", None)
            if (
                view.name in self._segments
                and extent_version is not None
                and extent_version == self._extent_versions.get(view.name)
            ):
                entries.append(self._entries[view.name])
                continue
            payload = encode_relation(view.relation)
            # ship value indexes the parent has already built (cached on the
            # relation's column batch by encode_relation's transpose) as an
            # XIDX trailer after the column blocks, so workers attach them
            # instead of rebuilding; indexes built later stay parent-local
            # until the next publish that re-encodes this view
            batch = getattr(view.relation, "_column_batch", None)
            if batch is not None:
                built = {
                    position: batch.source(position).index
                    for position in range(len(batch.columns))
                    if batch.source(position).index is not None
                    and batch.source(position).index is not UNINDEXABLE
                }
                if built:
                    payload += encode_index_section(built)
            self._drop_segment(view.name)
            segment = shared_memory.SharedMemory(create=True, size=len(payload))
            _untrack(segment)  # the store owns the unlink, not the tracker
            segment.buf[: len(payload)] = payload
            self._segments[view.name] = segment
            self.publish_count += 1
            entry = (view.name, segment.name, len(payload))
            self._entries[view.name] = entry
            if extent_version is not None:
                self._extent_versions[view.name] = extent_version
            entries.append(entry)
        for name in list(self._segments):
            if name not in live and name != _GUARD_KEY:
                self._drop_segment(name)
                self._entries.pop(name, None)
                self._extent_versions.pop(name, None)
        # a fresh guard supersedes every manifest handed out so far; the
        # old one is unlinked, so stale attaches fail on their guard even
        # though the view segments they name may still exist
        self._drop_segment(_GUARD_KEY)
        guard = shared_memory.SharedMemory(create=True, size=1)
        _untrack(guard)
        self._segments[_GUARD_KEY] = guard
        self._version = version
        self._manifest = ExtentManifest(
            self.token, version, tuple(entries), guard=guard.name
        )
        return self._manifest

    def __repr__(self) -> str:
        published = len(self._segments)
        return (
            f"<ExtentStore token={self.token} version={self._version} "
            f"segments={published} refs={self._refs}>"
        )


class _AttachedView:
    """One attached extent: header parsed on demand, columns decoded lazily."""

    __slots__ = ("name", "_segment", "_nbytes", "_payload", "_batch")

    def __init__(self, name: str, segment: shared_memory.SharedMemory, nbytes: int):
        self.name = name
        self._segment = segment
        self._nbytes = nbytes
        self._payload: Optional[ColumnarPayload] = None
        self._batch: Optional[ColumnBatch] = None

    @property
    def payload(self) -> ColumnarPayload:
        """The lazy columnar reader over this view's segment."""
        if self._payload is None:
            self._payload = ColumnarPayload(self._segment.buf[: self._nbytes])
        return self._payload

    @property
    def column_batch(self) -> ColumnBatch:
        """The extent as a lazily-decoding batch — the vectorized scan hook.

        Decoded column blocks (and their Dewey key caches) persist on the
        batch for the attachment's lifetime, so every query a worker runs
        against this extent shares them.
        """
        if self._batch is None:
            payload = self.payload
            batch = payload.batch()
            if self._nbytes > payload.body_end:
                # the publisher appended an XIDX value-index trailer; hand
                # each column source its blob — decoded on first probe, so
                # a worker that never probes a column never pays its decode
                tail = bytes(self._segment.buf[payload.body_end : self._nbytes])
                for position, blob in decode_index_section(tail).items():
                    batch.source(position).index_blob = blob
            self._batch = batch
        return self._batch

    @property
    def relation(self) -> Relation:
        """The fully decoded extent (the tuple executor's ``.relation`` hook)."""
        return self.column_batch.to_relation()

    @property
    def bytes_touched(self) -> int:
        """Payload bytes actually decoded so far (0 before the first scan)."""
        return self._payload.bytes_touched if self._payload is not None else 0

    @property
    def is_materialized(self) -> bool:
        return True

    def _close(self) -> None:
        """Drop decode state and release the buffer before unmapping.

        The payload's memoryview must be released ahead of
        ``SharedMemory.close`` — a segment with live buffer exports raises
        ``BufferError`` on close.  Columns decoded into Python objects stay
        usable; only undecoded blocks become unreachable.
        """
        self._batch = None
        if self._payload is not None:
            self._payload.release()
            self._payload = None
        try:
            self._segment.close()
        except Exception:  # pragma: no cover - double-close safety
            pass


class AttachedExtents:
    """A worker-side view store over a manifest's shared-memory segments.

    Mapping-like in exactly the way
    :class:`~repro.algebra.execution.PlanExecutor` needs (``store[name]``
    exposes ``relation``); attach is eager per segment (so staleness
    surfaces immediately and deterministically) while decoding is lazy per
    view (a worker whose shard never scans a view never pays its decode).
    """

    def __init__(
        self,
        manifest: ExtentManifest,
        views: dict[str, _AttachedView],
        guard: Optional[shared_memory.SharedMemory] = None,
    ):
        self.manifest = manifest
        self._views = views
        self._guard = guard

    @classmethod
    def attach(cls, manifest: ExtentManifest) -> "AttachedExtents":
        """Map every segment named by ``manifest`` (no decoding yet).

        The guard segment is mapped *first*: diff publishing means a
        superseded manifest may still name live view segments, but its
        guard is gone — so staleness surfaces here, immediately and
        deterministically, as :class:`StaleExtentError`.  The same error
        covers view segments that were individually superseded (the view's
        extent changed) or a released store; everything mapped so far is
        closed again before raising.
        """
        views: dict[str, _AttachedView] = {}
        guard: Optional[shared_memory.SharedMemory] = None
        try:
            if manifest.guard is not None:
                guard = shared_memory.SharedMemory(name=manifest.guard)
                _untrack(guard)
            for name, segment_name, nbytes in manifest.segments:
                segment = shared_memory.SharedMemory(name=segment_name)
                _untrack(segment)
                views[name] = _AttachedView(name, segment, nbytes)
        except FileNotFoundError as exc:
            for attached in views.values():
                attached._segment.close()
            if guard is not None:
                guard.close()
            raise StaleExtentError(
                f"extent manifest for views.data_version={manifest.version} is "
                f"stale: segment {exc.filename or ''!r} was unpublished "
                f"(a newer publish superseded it, or the store was released)"
            ) from exc
        return cls(manifest, views, guard)

    # ------------------------------------------------------------------ #
    def __getitem__(self, name: str) -> _AttachedView:
        try:
            return self._views[name]
        except KeyError as exc:
            raise KeyError(
                f"view {name!r} has no published extent (unmaterialised views "
                f"are not shared)"
            ) from exc

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def __iter__(self) -> Iterator[str]:
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    @property
    def decode_bytes_touched(self) -> int:
        """Payload bytes decoded across every attached view.

        Header plus only the column blocks some plan actually read — the
        lazy-decode observable the ``query_parallel`` bench records against
        ``manifest.total_bytes``.
        """
        return sum(view.bytes_touched for view in self._views.values())

    def close(self) -> None:
        """Unmap every segment (decoded batches are dropped too)."""
        for attached in self._views.values():
            attached._close()
        self._views = {}
        if self._guard is not None:
            try:
                self._guard.close()
            except Exception:  # pragma: no cover - double-close safety
                pass
            self._guard = None

    def __repr__(self) -> str:
        return (
            f"<AttachedExtents views={len(self._views)} "
            f"version={self.manifest.version}>"
        )
