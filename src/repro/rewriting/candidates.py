"""Plan / pattern pairs manipulated by the rewriting algorithm.

Algorithm 1 works on pairs ``(l, p)`` where ``l`` is an algebraic plan and
``p`` a pattern that is, by construction, S-equivalent to ``l``.  A
:class:`RewriteCandidate` holds such a pair together with the bookkeeping the
search needs:

* ``columns`` maps ``(pattern node, attribute)`` to the name of the plan
  output column holding that attribute,
* ``lazy`` records columns that are *derivable* but not yet materialised in
  the plan: attributes of nodes obtained by unfolding a ``C`` attribute
  (navigation inside stored content, Section 4.6), virtual parent IDs
  (``navfID``), and attributes living inside a nested column (reachable
  through an unnest),
* ``numbers`` mints the generated numbers of scan aliases (``view@N``) and
  column names (``vid#N``): one iterator per search, shared by all its
  candidates, so a plan's text does not depend on what the process ran
  before.

``ensure_column`` materialises a lazy column by wrapping the plan with the
appropriate operator, producing a new candidate (candidates are never
mutated once created — plans are shared between candidates).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional

from repro.algebra.operators import (
    ContentNavigation,
    ParentIdDerivation,
    PlanOperator,
    Unnest,
    ViewScan,
)
from repro.errors import RewritingError
from repro.patterns.pattern import Axis, PatternNode, TreePattern
from repro.patterns.semantics import pattern_schema

__all__ = ["LazyColumn", "RewriteCandidate", "initial_candidate"]


@dataclass(frozen=True)
class LazyColumn:
    """A column that can be added to the plan on demand.

    ``kind`` is one of

    * ``"content"`` — navigate inside the content column ``source_column``
      following ``steps`` and extract ``attribute``,
    * ``"parent"`` — derive an ancestor ID from the ID column
      ``source_column`` by going ``levels_up`` levels up,
    * ``"unnest"`` — the value lives in the nested column ``source_column``
      under the inner name ``inner_name``; materialising it unnests the
      column (once) for the whole candidate.
    """

    kind: str
    source_column: str
    attribute: str = "V"
    steps: tuple[tuple[Axis, str], ...] = ()
    levels_up: int = 0
    inner_name: str = ""
    optional: bool = True


@dataclass
class RewriteCandidate:
    """One (plan, pattern) pair of the rewriting search."""

    plan: PlanOperator
    pattern: TreePattern
    numbers: Iterator[int] = field(compare=False, repr=False)
    columns: dict[tuple[int, str], str] = field(default_factory=dict)
    lazy: dict[tuple[int, str], LazyColumn] = field(default_factory=dict)
    views_used: tuple[str, ...] = ()
    unnested_columns: frozenset[str] = frozenset()

    # ------------------------------------------------------------------ #
    # column availability
    # ------------------------------------------------------------------ #
    def key(self, node: PatternNode, attribute: str) -> tuple[int, str]:
        """Dictionary key for a (node, attribute) pair of *this* pattern."""
        return (id(node), attribute)

    def has_attribute(self, node: PatternNode, attribute: str) -> bool:
        """True iff the attribute is materialised or derivable for ``node``."""
        key = self.key(node, attribute)
        return key in self.columns or key in self.lazy

    def available_attributes(self, node: PatternNode) -> set[str]:
        """All attributes available (materialised or lazily) for ``node``."""
        found = set()
        for (node_id, attribute), _ in self.columns.items():
            if node_id == id(node):
                found.add(attribute)
        for (node_id, attribute) in self.lazy:
            if node_id == id(node):
                found.add(attribute)
        return found

    @property
    def size(self) -> int:
        """Plan size in number of view occurrences (Prop. 3.6)."""
        return len(self.views_used)

    # ------------------------------------------------------------------ #
    # lazy-column materialisation
    # ------------------------------------------------------------------ #
    def ensure_column(
        self, node: PatternNode, attribute: str
    ) -> tuple["RewriteCandidate", str]:
        """Return a candidate in which (node, attribute) is materialised.

        The original candidate is left untouched; when the column already
        exists the original candidate is returned as-is.
        """
        key = self.key(node, attribute)
        if key in self.columns:
            return self, self.columns[key]
        if key not in self.lazy:
            raise RewritingError(
                f"attribute {attribute} of node {node.label!r} is not available"
            )
        lazy = self.lazy[key]
        if lazy.kind == "content":
            return self._materialize_content(key, lazy)
        if lazy.kind == "parent":
            return self._materialize_parent(key, lazy)
        if lazy.kind == "unnest":
            return self._materialize_unnest(key, lazy)
        raise RewritingError(f"unknown lazy column kind {lazy.kind!r}")

    def _fresh_name(self, hint: str) -> str:
        return f"{hint}#{next(self.numbers)}"

    def _materialize_content(
        self, key: tuple[int, str], lazy: LazyColumn
    ) -> tuple["RewriteCandidate", str]:
        name = self._fresh_name(f"nav.{lazy.attribute}")
        plan = ContentNavigation(
            child=self.plan,
            content_column=lazy.source_column,
            steps=tuple(lazy.steps),
            new_column=name,
            attribute=lazy.attribute,
            optional=lazy.optional,
        )
        columns = dict(self.columns)
        columns[key] = name
        remaining = {k: v for k, v in self.lazy.items() if k != key}
        return replace(self, plan=plan, columns=columns, lazy=remaining), name

    def _materialize_parent(
        self, key: tuple[int, str], lazy: LazyColumn
    ) -> tuple["RewriteCandidate", str]:
        name = self._fresh_name("vid")
        plan = ParentIdDerivation(
            child=self.plan,
            id_column=lazy.source_column,
            levels_up=lazy.levels_up,
            new_column=name,
        )
        columns = dict(self.columns)
        columns[key] = name
        remaining = {k: v for k, v in self.lazy.items() if k != key}
        return replace(self, plan=plan, columns=columns, lazy=remaining), name

    def _materialize_unnest(
        self, key: tuple[int, str], lazy: LazyColumn
    ) -> tuple["RewriteCandidate", str]:
        plan = self.plan
        unnested = set(self.unnested_columns)
        if lazy.source_column not in unnested:
            plan = Unnest(
                child=plan,
                nested_column=lazy.source_column,
                keep_empty=lazy.optional,
            )
            unnested.add(lazy.source_column)
        columns = dict(self.columns)
        remaining = dict(self.lazy)
        # every lazy column living in the same nested column becomes concrete
        for other_key, other in list(remaining.items()):
            if other.kind == "unnest" and other.source_column == lazy.source_column:
                columns[other_key] = other.inner_name
                del remaining[other_key]
        return (
            replace(
                self,
                plan=plan,
                columns=columns,
                lazy=remaining,
                unnested_columns=frozenset(unnested),
            ),
            columns[key],
        )

    # ------------------------------------------------------------------ #
    # cloning
    # ------------------------------------------------------------------ #
    def clone(
        self,
        plan: Optional[PlanOperator] = None,
        rename_column: Optional[Callable[[str], str]] = None,
    ) -> "RewriteCandidate":
        """A deep copy the search may annotate and transform freely.

        The pattern is copied with :func:`~repro.rewriting.fusion.
        copy_with_map` and the column bookkeeping follows the node map; the
        explicit return order is restored (``copy_with_map`` drops it, and
        it changes result column order).  ``plan`` optionally replaces the
        plan — together with ``rename_column`` (applied to every
        alias-qualified column name, materialised and lazy) this turns the
        clone into a *fresh occurrence* of the same view under a new scan
        alias.  Catalog prototypes clone with neither argument.
        """
        from repro.rewriting.fusion import copy_with_map

        rename = rename_column or (lambda name: name)
        pattern, mapping = copy_with_map(self.pattern)
        explicit_order = self.pattern._return_order
        if explicit_order is not None:
            pattern.set_return_order([mapping[id(node)] for node in explicit_order])
        columns = {
            (id(mapping[node_id]), attribute): rename(column)
            for (node_id, attribute), column in self.columns.items()
        }
        lazy = {
            (id(mapping[node_id]), attribute): replace(
                spec, source_column=rename(spec.source_column)
            )
            for (node_id, attribute), spec in self.lazy.items()
        }
        return RewriteCandidate(
            plan=plan if plan is not None else self.plan,
            pattern=pattern,
            numbers=self.numbers,
            columns=columns,
            lazy=lazy,
            views_used=self.views_used,
            unnested_columns=frozenset(
                rename(name) for name in self.unnested_columns
            ),
        )

    def __repr__(self) -> str:
        return (
            f"<RewriteCandidate views={list(self.views_used)} "
            f"pattern={self.pattern.to_text()}>"
        )


def initial_candidate(view, alias: Optional[str] = None) -> RewriteCandidate:
    """Build the initial (ViewScan, view pattern) candidate for one view.

    The view's pattern is *copied*, so the search can annotate and transform
    it freely.  Columns of return nodes at nesting depth zero map directly to
    qualified view columns; return nodes living under nested edges are
    exposed as lazy ``unnest`` columns.  The default alias is ``view@0``: a
    search numbers every further occurrence from 1.
    """
    alias = alias or f"{view.name}@0"
    pattern = view.pattern.copy(name=f"{view.name}[{alias}]")
    plan = ViewScan(view_name=view.name, alias=alias)

    columns: dict[tuple[int, str], str] = {}
    lazy: dict[tuple[int, str], LazyColumn] = {}
    top_columns, schema = pattern_schema(pattern)
    top_names = {column.name for column in top_columns}

    nodes = pattern.nodes()
    return_counter = 0
    for node in nodes:
        if not node.is_return:
            continue
        return_counter += 1
        own_columns = schema.node_columns.get(id(node), [])
        depth = node.nesting_depth()
        for column in own_columns:
            if depth == 0 and column.name in top_names:
                columns[(id(node), column.kind)] = f"{alias}.{column.name}"
            elif depth == 1:
                group_name = _enclosing_group(node, schema)
                if group_name is None:
                    continue
                lazy[(id(node), column.kind)] = LazyColumn(
                    kind="unnest",
                    source_column=f"{alias}.{group_name}",
                    attribute=column.kind,
                    inner_name=column.name,
                    optional=_nested_edge_optional(node),
                )
            # nodes nested more than one level deep are not exposed; the
            # search never joins or projects on them directly.
    return RewriteCandidate(
        plan=plan,
        pattern=pattern,
        numbers=itertools.count(1),
        columns=columns,
        lazy=lazy,
        views_used=(view.name,),
    )


def _enclosing_group(node: PatternNode, schema) -> Optional[str]:
    """Name of the nested group column containing ``node``'s attributes."""
    current = node
    while current.parent is not None:
        if current.nested:
            index = None
            for descendant in current.iter_subtree():
                index = schema.return_index.get(id(descendant))
                if index is not None:
                    break
            return f"A{index}" if index is not None else None
        current = current.parent
    return None


def _nested_edge_optional(node: PatternNode) -> bool:
    """Whether the nested edge enclosing ``node`` is optional."""
    current = node
    while current.parent is not None:
        if current.nested:
            return current.optional
        current = current.parent
    return False
