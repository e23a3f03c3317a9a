"""Materialised view definitions and materialisation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

from repro.algebra.columnar import ColumnBatch
from repro.algebra.tuples import Relation
from repro.errors import ReproError
from repro.patterns.pattern import TreePattern
from repro.patterns.semantics import default_id_function, evaluate_pattern, pattern_schema
from repro.xmltree.node import XMLDocument

__all__ = ["IdScheme", "MaterializedView"]


@dataclass(frozen=True)
class IdScheme:
    """Properties of the identifier function used to materialise a view.

    Attributes
    ----------
    structural:
        True when comparing two identifiers decides parent/ancestor
        relationships — the prerequisite for structural joins (``⋈≺`` and
        ``⋈≺≺``) between views (Section 1, "Exploiting ID properties").
    derives_parent:
        True when an element's identifier can be computed from any of its
        children's identifiers (ORDPATH / Dewey), enabling the *virtual ID*
        pre-processing and the ``navfID`` operator (Section 4.6).
    name:
        Human-readable scheme name.
    """

    structural: bool = True
    derives_parent: bool = True
    name: str = "dewey"

    @classmethod
    def dewey(cls) -> "IdScheme":
        """The default scheme: Dewey IDs (structural, parent-derivable)."""
        return cls(structural=True, derives_parent=True, name="dewey")


class MaterializedView:
    """A tree-pattern view, optionally materialised over a document.

    Parameters
    ----------
    pattern:
        The view definition (an extended tree pattern).
    document:
        When given, the view is materialised immediately over this document.
    name:
        View name; defaults to the pattern's name.
    id_scheme:
        Identifier-scheme properties; defaults to Dewey IDs.
    id_function:
        The actual ``fID`` used during materialisation; defaults to the
        node's Dewey identifier.
    """

    def __init__(
        self,
        pattern: TreePattern,
        document: Optional[XMLDocument] = None,
        name: Optional[str] = None,
        id_scheme: Optional[IdScheme] = None,
        id_function: Optional[Callable] = None,
    ):
        self.pattern = pattern
        self.name = name or pattern.name
        self.id_scheme = id_scheme or IdScheme.dewey()
        self._id_function = id_function or default_id_function
        self._extent: Optional[ColumnBatch] = None
        if document is not None:
            self.materialize(document)

    # ------------------------------------------------------------------ #
    def dewey_sort_column(self) -> Optional[str]:
        """The column the extent is kept Dewey-sorted on, if any.

        The first ``ID`` column of the schema, when the identifier scheme is
        structural (Dewey / ORDPATH): its identifiers order the extent in
        document order (the *sorted extent guarantee*, which
        :class:`~repro.algebra.execution.PlanExecutor` scans read off the
        data and incremental maintenance splices by).  Opaque identifier
        schemes carry no order, so they return ``None``.
        """
        if not self.id_scheme.structural:
            return None
        for column in self._schema:
            if column.kind == "ID":
                return column.name
        return None

    def materialize(self, document: XMLDocument) -> ColumnBatch:
        """(Re)compute the view extent over ``document`` and return it.

        Extents are stored in document order of the view's first ``ID``
        column (when the ID scheme is structural): a structural join reads
        that order off the column and sorts nothing.  Custom ``fID``
        functions producing values that are not Dewey-coercible leave the
        extent unsorted (the join sorts its descendant side then, results
        unchanged).  The evaluated rows are transposed once into the
        columns the extent is kept as.
        """
        relation = evaluate_pattern(
            self.pattern,
            document,
            id_function=self._id_function,
            path_store=document.path_store,
        )
        column = self.dewey_sort_column()
        if column is not None:
            try:
                relation = relation.sorted_in_dewey_order(column)
            except ReproError:
                pass  # non-Dewey fID under a structural scheme: keep unsorted
        self._extent = ColumnBatch.from_relation(relation, keep_rows=False)
        return self._extent

    def maintain(self, document: XMLDocument, change) -> Optional[list]:
        """Maintain the extent under one subtree insert / delete.

        ``change`` is a :class:`~repro.views.delta.SubtreeChange` describing
        a mutation *already applied* to ``document``.  When the view is
        eligible for incremental maintenance (see
        :func:`~repro.views.delta.can_apply_delta`) the sorted extent is
        patched by an ordered Dewey splice — work proportional to the
        affected region, not the document — and the splices are returned
        (``(lo, hi, replacement)`` against the previous extent, so
        consumers such as the planner's statistics can follow them);
        otherwise the view is fully rematerialised and ``None`` is
        returned.  Either way the result is row-identical to
        ``materialize(document)``.

        A change this view cannot see leaves :attr:`extent` the very same
        object (and returns no splices) — that identity is how callers
        tell which extents a write touched.
        """
        from repro.views.delta import apply_subtree_delta

        if self._extent is not None:
            patched = apply_subtree_delta(self, document, change)
            if patched is not None:
                self._extent, splices = patched
                return splices
        self.materialize(document)
        return None

    def apply_delta(self, document: XMLDocument, change) -> str:
        """:meth:`maintain`, reporting ``"delta"`` or ``"rematerialized"``."""
        spliced = self.maintain(document, change) is not None
        return "delta" if spliced else "rematerialized"

    @property
    def extent(self) -> ColumnBatch:
        """The materialised extent, as columns (raises if the view was never
        materialised)."""
        if self._extent is None:
            raise ReproError(
                f"view {self.name!r} has not been materialised over any document"
            )
        return self._extent

    @property
    def relation(self) -> Relation:
        """The extent's rows: a fresh row view backed by :attr:`extent` on
        every read (the extent keeps no rows).  Its ``len`` reads no value;
        its rows are transposed when first read."""
        return self.extent.to_relation()

    @property
    def is_materialized(self) -> bool:
        """True iff the view has a materialised extent."""
        return self._extent is not None

    @cached_property
    def _layout(self) -> tuple:
        # the pattern is fixed at construction, so its full schema — columns
        # plus the per-node layout evaluation reads — is derived once, for
        # the columns and for the regions incremental maintenance
        # re-evaluates
        return pattern_schema(self.pattern)

    @cached_property
    def _chain(self) -> Optional[tuple]:
        # the definition-only part of the delta gate (chain nodes and pin,
        # or None), derived once like the layout
        from repro.views.delta import fixed_chain

        return fixed_chain(self)

    @cached_property
    def _schema(self) -> tuple:
        return tuple(self._layout[0])

    def column_names(self) -> list[str]:
        """Names of the view's columns."""
        return [column.name for column in self._schema]

    def __repr__(self) -> str:
        status = f"rows={self._extent.row_count}" if self._extent is not None else "unmaterialised"
        return f"<MaterializedView {self.name!r} {self.pattern.to_text()} {status}>"
