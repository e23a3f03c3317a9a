"""The executor's memo is derived state: every live entry equals a rebuild.

:meth:`repro.algebra.execution.PlanExecutor._kept` keeps a kernel
operator's output index vectors on its plan node, keyed on weak references
to the extents the node's subtree scans, and reads them back while each of
those is still the extent the view store holds.  The contract
this module checks, after any sequence of reads and writes:

* an entry holds index vectors only — ``None``, integer vectors or a pair
  of them — and weak references, never a row, extent or column source;
* no node whose subtree holds a ``ContentNavigation`` keeps anything (it
  reads live document nodes, which a write can change under an extent it
  hands back unchanged);
* every entry that would be read — each of its extents still the one the
  store holds — equals what a fresh run of a copy of the node (a copy
  carries no memo) computes over the current extents.

``assert_memo_derived(plans, views)`` checks the memo of any plans;
``assert_plan_cache_derived(db)`` checks every plan a session's plan cache
holds.  Both return how many entries they compared.
"""

from __future__ import annotations

import copy
from typing import Iterable, Mapping, Optional
from weakref import ReferenceType

from repro.algebra.execution import PlanExecutor
from repro.algebra.operators import ContentNavigation, IndexScan, PlanOperator, ViewScan
from repro.errors import ReproError

__all__ = ["assert_memo_derived", "assert_plan_cache_derived", "cached_plans", "plan_nodes"]


def plan_nodes(plans: Iterable[PlanOperator]) -> list[PlanOperator]:
    """Every distinct operator object of the plan DAGs, parents first."""
    seen: set[int] = set()
    nodes: list[PlanOperator] = []
    stack = list(plans)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node.children())
    return nodes


def _scanned_now(node: PlanOperator, views: Mapping[str, object]) -> Optional[list]:
    """The extents ``node``'s subtree scans in the store now (``None``
    under a content navigation or over an unmaterialised view)."""
    if isinstance(node, ContentNavigation):
        return None
    if isinstance(node, (ViewScan, IndexScan)):
        try:
            return [views[node.view_name].extent]
        except (KeyError, ReproError):
            return None
    extents: list = []
    for child in node.children():
        below = _scanned_now(child, views)
        if below is None:
            return None
        extents += below
    return extents


def _below_navigation(node: PlanOperator) -> bool:
    return isinstance(node, ContentNavigation) or any(
        _below_navigation(child) for child in node.children()
    )


def _vectors(value) -> tuple:
    """``value`` as plain lists of ints, asserting that is all it holds."""
    if value is None:
        return (None,)
    parts = value if isinstance(value, tuple) else (value,)
    assert len(parts) in (1, 2), f"an entry holds {type(value).__name__}, not vectors"
    vectors = tuple(list(part) for part in parts)
    for vector in vectors:
        assert all(type(index) is int for index in vector), "an entry holds non-index cells"
    return vectors


def assert_memo_derived(plans: Iterable[PlanOperator], views: Mapping[str, object]) -> int:
    """Hold every memo entry of ``plans`` to a fresh run over ``views``."""
    compared = 0
    for node in plan_nodes(plans):
        entry = node._kept
        if entry is None:
            continue
        assert not _below_navigation(node), f"kept over live nodes: {node.describe()}"
        key, value = entry
        assert all(type(held) is ReferenceType for held in key), "an entry holds an extent"
        kept = _vectors(value)
        now = _scanned_now(node, views)
        held = [reference() for reference in key]
        if now is None or len(held) != len(now) or any(map(lambda a, b: a is not b, held, now)):
            continue  # keyed on an extent that is gone or replaced: never read
        fresh = copy.deepcopy(node)
        assert fresh._kept is None, "a copy of a plan carries its memo"
        PlanExecutor(views).execute_batch(fresh)
        assert _vectors(fresh._kept[1]) == kept, f"stale entry: {node.describe()}"
        compared += 1
    return compared


def cached_plans(db) -> list[PlanOperator]:
    """Every plan of every choice ``db``'s plan cache holds."""
    return [
        planned.plan_operator
        for choice in db.plan_cache._data.values()
        for planned in choice.alternatives
    ]


def assert_plan_cache_derived(db) -> int:
    """:func:`assert_memo_derived` over every plan ``db``'s plan cache holds."""
    return assert_memo_derived(cached_plans(db), db.views)
