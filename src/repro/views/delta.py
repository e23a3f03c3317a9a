"""Incremental extent maintenance: ordered Dewey splices for chain views.

The sorted extent guarantee (PR 3) stores every structural-ID extent in
document order of its first ``ID`` column.  Under a subtree insert or
delete at Dewey ID ``D``, the rows a *chain* pattern can gain or lose are
confined to two contiguous runs of that sorted extent:

* rows pinned **inside** the changed subtree — first ID in ``[D, D⁺)``
  (the half-open Dewey range covering ``D`` and all its descendants), and
* rows pinned at a **strict ancestor** of ``D`` — one equal-ID run per
  ancestor that can match the pinning pattern node.

Everything else is untouched.  The argument: in a chain pattern (every
node at most one child, no nested edges) each embedding maps the nodes
above the pinning node ``n_i`` to ancestors of its image ``v`` and the
nodes below to descendants of ``v``, so the whole support of a row lies in
``rootpath(v) ∪ subtree(v)``.  A change at ``D`` intersects that support
only when ``v`` is inside the changed subtree or an ancestor of it — the
two runs above.  Optional edges at or above ``n_i`` are excluded by the
eligibility gate (they could pin rows at ``⊥``); optional edges *below*
``n_i`` are fine (their support still sits in ``subtree(v)``).

**Leaf-pinned chains skip the ancestor runs.**  When the pinning node is
the *last* node of the chain (every two-node ``root(//tag[ID,V])`` seed
view), no pattern node maps below ``v``: the support of a row is
``rootpath(v)`` alone, and its cells are the own ``ID`` / ``L`` / ``V`` of
nodes on that path (a ``C`` cell is the live node itself).  A change at
``D`` strictly below ``v`` adds, removes and alters no node of
``rootpath(v)`` — Dewey IDs are never renumbered, labels and values are
per node — so it can neither add, drop nor alter a row pinned at ``v``:
a stored tuple's meaning is decided by the IDs it holds.  Such a view
pays for the subtree range only, however large the region its ancestors
span.  Chains with pattern nodes below the pin still recompute one run
per matching ancestor (a new descendant can complete or multiply an
embedding).

Each affected run is recomputed by evaluating the pattern over a **pruned
clone** of the document — the root path to the pinning node plus its
subtree, with Dewey IDs and rooted paths copied verbatim — and spliced
back in place.  Work is proportional to the affected region, not the
document; :func:`apply_subtree_delta` falls back (returns ``None``) when
the gate fails or when the regions to re-evaluate grow past half the
document (counted lazily: the walk stops at the limit), and
:meth:`~repro.views.view.MaterializedView.apply_delta` then simply
rematerialises.  A change the view cannot see hands back the *same*
relation object.  When the old extent carries a cached column batch, the
new one is built by the same splice
(:meth:`~repro.algebra.columnar.ColumnBatch.spliced`), so the first scan
after a write finds warm value and key vectors; the splices themselves are
handed back, so the planner's statistics follow the same runs
(:class:`ExtentChange`).  All paths are
row-identical — the stateful property harnesses in ``tests/property``
drive random mutation interleavings against a rebuild oracle to prove it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence
from weakref import WeakKeyDictionary

from repro.algebra.columnar import splice_runs
from repro.algebra.tuples import Relation
from repro.errors import AlgebraError
from repro.patterns.embedding import EmbeddingMode, _node_matches
from repro.patterns.pattern import PatternNode
from repro.patterns.semantics import _evaluate_laid_out, default_id_function
from repro.xmltree.ids import DeweyID
from repro.xmltree.node import XMLDocument, XMLNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.views.view import MaterializedView

__all__ = [
    "ExtentChange",
    "SubtreeChange",
    "apply_subtree_delta",
    "can_apply_delta",
    "follow_links",
]

_REGION_FRACTION_LIMIT = 0.5
"""Fallback threshold: when the pruned regions to re-evaluate exceed this
fraction of the document, a full rematerialisation is cheaper (and the
"delta" would not be a delta)."""


@dataclass(frozen=True)
class SubtreeChange:
    """One applied document mutation, as the maintenance layer sees it.

    ``root`` is the Dewey ID of the inserted / deleted subtree root and
    ``parent`` its (surviving) parent's ID.  For an insert the subtree is
    present in the document under ``root``; for a delete it is gone.
    """

    kind: str  # "insert" | "delete"
    root: DeweyID
    parent: DeweyID


Splice = tuple[int, int, list[tuple]]
"""``(lo, hi, replacement)``: rows ``[lo, hi)`` of the old row list give way
to ``replacement``."""


class ExtentChange(NamedTuple):
    """One extent a write changed, as its consumers see it (statistics,
    :func:`follow_links`).

    ``before`` is the relation before the write (its rows, and the column
    batch scans cached on it); ``splices`` are the runs that turned it into
    the view's current extent, ascending and disjoint — ``None`` when the
    view was rematerialised instead.
    """

    view: "MaterializedView"
    before: Relation
    splices: Optional[list[Splice]]


def _chain_nodes(view: "MaterializedView") -> Optional[list[PatternNode]]:
    """The pattern's nodes root-down if it is a plain chain, else ``None``."""
    nodes: list[PatternNode] = []
    node: Optional[PatternNode] = view.pattern.root
    while node is not None:
        if node.nested:
            return None
        nodes.append(node)
        if len(node.children) > 1:
            return None
        node = node.children[0] if node.children else None
    return nodes


def fixed_chain(view: "MaterializedView") -> Optional[tuple[list[PatternNode], int]]:
    """:func:`can_apply_delta` without the one condition on the data (the
    extent sorted on its ID column): the view's definition decides the
    rest, so the view derives it once (``MaterializedView._chain``)."""
    if not view.id_scheme.structural:
        return None
    if view._id_function is not default_id_function:
        return None
    chain = _chain_nodes(view)
    if chain is None:
        return None
    pin_index = next(
        (i for i, node in enumerate(chain) if "ID" in node.attributes), None
    )
    if pin_index is None or pin_index == 0:
        return None
    if any(node.optional for node in chain[: pin_index + 1]):
        return None
    return chain, pin_index


def can_apply_delta(view: "MaterializedView") -> Optional[tuple[list[PatternNode], int]]:
    """Eligibility gate for the ordered-splice maintenance path.

    Returns ``(chain nodes, index of the pinning node)`` when every
    precondition holds, ``None`` otherwise:

    * structural identifier scheme with the default ``fID`` (cells in the
      sort column are genuine Dewey IDs of the pinned nodes),
    * the pattern is a chain (at most one child per node, no nested edges),
    * it has an ID column, and the extent is sorted on it,
    * the pinning node is not the pattern root (a root-pinned chain makes
      every row's support the whole document) and no edge at or above it
      is optional (so the sort column never holds ``⊥``).

    All but the extent's order is fixed by the definition and read from
    the view's cache (:func:`fixed_chain`); the order is checked on every
    call.
    """
    gate = view._chain
    if gate is None:
        return None
    column = view.dewey_sort_column()
    if column is None or not view.relation.is_sorted_by(column):
        return None
    return gate


def _clone_with_ids(node: XMLNode, deep: bool) -> XMLNode:
    """A detached clone carrying the original's Dewey ID and rooted path."""
    clone = XMLNode(node.label, node.value)
    clone.dewey = node.dewey
    clone.path = node.path
    if deep:
        for child in node.children:
            child_clone = _clone_with_ids(child, True)
            child_clone.parent = clone
            clone.children.append(child_clone)
    return clone


def _pruned_root(target: XMLNode) -> XMLNode:
    """Clone ``rootpath(target) ∪ subtree(target)``, IDs preserved.

    The chain of ancestors is cloned with a single child each (the next
    chain member); the target keeps its whole subtree.  Evaluating a chain
    pattern over this pruned tree yields exactly the rows whose pinning
    node lies on the root path or in the subtree — see the module notes.
    """
    clone = _clone_with_ids(target, True)
    node = target
    while node.parent is not None:
        parent_clone = _clone_with_ids(node.parent, False)
        clone.parent = parent_clone
        parent_clone.children.append(clone)
        clone = parent_clone
        node = node.parent
    return clone


def _region_rows(
    view: "MaterializedView", document: XMLDocument, target: XMLNode
) -> Relation:
    """Evaluate the view pattern over the pruned clone around ``target``."""
    return _evaluate_laid_out(
        view.pattern, _pruned_root(target), view._layout, id_function=view._id_function
    )


def _repatriate(row: tuple, document: XMLDocument) -> tuple:
    """Swap pruned-clone node cells for the live document's own nodes.

    Content references (``C`` / ``NODE`` cells) produced over the pruned
    clone are ID-identical copies; handing back the real nodes keeps
    delta-maintained extents cell-for-cell identical to rematerialised
    ones (object identity included).
    """
    return tuple(
        document.node_by_id(cell.dewey) if isinstance(cell, XMLNode) else cell
        for cell in row
    )


def apply_subtree_delta(
    view: "MaterializedView", document: XMLDocument, change: SubtreeChange
) -> Optional[tuple[Relation, list[Splice]]]:
    """Patch the extent for one subtree change; ``None`` means fall back.

    The splice plan: on the *sorted* extent, compute one contiguous
    replacement run for the changed subtree's Dewey range and one per
    matching ancestor, re-evaluate each over its pruned clone, and rebuild
    the row list in a single ordered pass.  Returns the new relation and
    the splices (ascending, disjoint, against the old row list) that
    produced it — empty, with the old relation itself, when the view could
    not see the change.
    """
    gate = can_apply_delta(view)
    if gate is None:
        return None
    chain, pin_index = gate
    pin = chain[pin_index]
    relation = view.relation
    column = view.dewey_sort_column()
    index = relation.column_index(column)
    rows = relation.rows
    # the sort column's DeweyIDs compare in document order themselves
    key = itemgetter(index)

    # disjoint, computed on the original row list
    splices: list[Splice] = []

    # 1. the subtree range [D, D⁺): everything pinned inside the change
    components = change.root.components
    lo = bisect_left(rows, change.root, key=key)
    hi = bisect_left(rows, DeweyID(components[:-1] + (components[-1] + 1,)), key=key)
    if change.kind == "insert":
        subtree = document.node_by_id(change.root)
        fresh = _region_rows(view, document, subtree)
        replacement = [
            _repatriate(row, document)
            for row in fresh.rows
            if change.root.is_ancestor_or_self_of(row[index])
        ]
    else:
        # a deleted range has no nodes left to pin rows on
        subtree = None
        replacement = []
    if lo != hi or replacement:
        splices.append((lo, hi, replacement))

    # 2. one equal-ID run per strict ancestor the pinning node can match —
    # only when pattern nodes hang below the pin (see the module notes)
    if pin_index < len(chain) - 1:
        # nodes the regions may still cover before rebuilding is cheaper
        budget = int(_REGION_FRACTION_LIMIT * document.size)
        if subtree is not None:
            budget -= subtree.subtree_size()
        for depth in range(1, len(components)):
            ancestor_id = DeweyID(components[:depth])
            ancestor = document.node_by_id(ancestor_id)
            if not _node_matches(pin, ancestor, EmbeddingMode.DOCUMENT):
                continue
            region = sum(1 for _ in islice(ancestor.iter_subtree(), max(budget, 0) + 1))
            if region > budget:
                return None  # the "delta" covers most of the document
            budget -= region
            run_lo = bisect_left(rows, ancestor_id, key=key)
            run_hi = run_lo
            while run_hi < len(rows) and rows[run_hi][index] == ancestor_id:
                run_hi += 1
            fresh = _region_rows(view, document, ancestor)
            replacement = [
                _repatriate(row, document)
                for row in fresh.rows
                if row[index] == ancestor_id
            ]
            if run_lo != run_hi or replacement:
                splices.append((run_lo, run_hi, replacement))

    if not splices:
        return relation, splices  # nothing this view can see changed

    # 3. rebuild the row list in one ordered pass (replacement runs are
    # re-sorted stably so equal-ID rows keep their generation order —
    # the same order a full rematerialisation's stable sort yields)
    splices.sort(key=lambda s: s[0])
    for _, _, replacement in splices:
        replacement.sort(key=key)
    result = Relation(relation.columns)
    result.rows = splice_runs(rows, splices)
    result.sorted_by = relation.sorted_by
    batch = getattr(relation, "_column_batch", None)
    if batch is not None:
        batch.spliced(splices, result)
    return result, splices


def follow_links(
    views: Iterable["MaterializedView"], changed: Sequence[ExtentChange]
) -> tuple[int, int]:
    """Carry the structural links cached on extents across one write.

    Runs once after every view was maintained, so a pair of extents that
    both moved is followed once.  Each changed extent's pre-write column
    sources map to the sources its splice made; every cached entry with a
    moved side — on the old sources of the changed extents, or on an
    untouched extent's source, keyed on a moved ancestor — moves onto the
    new descendant source, weakly keyed on the new ancestor source, by
    :meth:`~repro.algebra.kernels.StructuralLinks.follow`.  Dropped
    instead, for the next join to build: an entry no join read since the
    previous write (a bulk load pays no follow per write), one whose extent
    was rematerialised, and one ``follow`` answers ``None`` for.  Returns
    ``(followed, dropped)`` entry counts.
    """
    moved: dict = {}
    for view, before, splices in changed:
        old = getattr(before, "_column_batch", None)
        if old is None:
            continue  # never scanned: nothing cached on it
        new = None if splices is None else getattr(view.relation, "_column_batch", None)
        runs = None if new is None else [(lo, hi, len(run)) for lo, hi, run in splices]
        for position in range(len(old.columns)):
            moved[old.source(position)] = (None if new is None else new.source(position), runs)
    if not moved:
        return 0, 0
    holders = list(moved)
    touched = {change.view.name for change in changed}
    for view in views:
        if view.is_materialized and view.name not in touched:
            batch = getattr(view.relation, "_column_batch", None)
            if batch is not None:
                holders += map(batch.source, range(len(batch.columns)))
    followed = dropped = 0
    for source in holders:
        cache = source.links
        if not cache:
            continue
        target, runs = moved.get(source, (source, ()))
        for ancestor, by_axis in list(cache.items()):
            new_ancestor, ancestor_runs = moved.get(ancestor, (ancestor, ()))
            if target is source:
                if new_ancestor is ancestor:
                    continue  # neither side moved
                del cache[ancestor]
            for axis, links in by_axis.items():
                fresh = None
                if links.read and target is not None and new_ancestor is not None:
                    try:
                        fresh = links.follow(
                            new_ancestor.dewey_keys(),
                            target.dewey_keys(),
                            ancestor_runs,
                            runs,
                            axis,
                        )
                    except AlgebraError:
                        pass  # a new cell is no structural identifier
                if fresh is None:
                    dropped += 1
                    continue
                if target.links is None:
                    target.links = WeakKeyDictionary()
                target.links.setdefault(new_ancestor, {})[axis] = fresh
                followed += 1
    return followed, dropped
