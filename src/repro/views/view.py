"""Materialised view definitions and materialisation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

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

    @classmethod
    def opaque(cls) -> "IdScheme":
        """Opaque identifiers: unique but carrying no structural information."""
        return cls(structural=False, derives_parent=False, name="opaque")


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
        self._relation: Optional[Relation] = None
        if document is not None:
            self.materialize(document)

    # ------------------------------------------------------------------ #
    def dewey_sort_column(self) -> Optional[str]:
        """The column the extent is kept Dewey-sorted on, if any.

        The first ``ID`` column of the schema, when the identifier scheme is
        structural (Dewey / ORDPATH): its identifiers order the extent in
        document order, which is the precondition for the staircase merge
        join (the *sorted extent guarantee* relied on by
        :class:`~repro.algebra.execution.PlanExecutor` scans).  Opaque
        identifier schemes carry no order, so they return ``None``.
        """
        if not self.id_scheme.structural:
            return None
        for column in self._schema:
            if column.kind == "ID":
                return column.name
        return None

    def materialize(self, document: XMLDocument) -> Relation:
        """(Re)compute the view extent over ``document`` and return it.

        Extents are stored in document order of the view's first ``ID``
        column (when the ID scheme is structural), annotated via
        ``Relation.sorted_by`` — scans then feed the staircase merge join
        without any run-time sort.  Custom ``fID`` functions producing
        values that are not Dewey-coercible leave the extent unsorted
        (the merge join falls back to sort-then-merge, results unchanged).
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
        self._relation = relation
        return self._relation

    def maintain(self, document: XMLDocument, change) -> Optional[list]:
        """Maintain the extent under one subtree insert / delete.

        ``change`` is a :class:`~repro.views.delta.SubtreeChange` describing
        a mutation *already applied* to ``document``.  When the view is
        eligible for incremental maintenance (see
        :func:`~repro.views.delta.can_apply_delta`) the sorted extent is
        patched by an ordered Dewey splice — work proportional to the
        affected region, not the document — and the splices are returned
        (``(lo, hi, replacement)`` against the previous row list, so
        consumers such as the planner's statistics can follow them);
        otherwise the view is fully rematerialised and ``None`` is
        returned.  Either way the result is row-identical to
        ``materialize(document)``.

        A change this view cannot see leaves :attr:`relation` the very
        same object (and returns no splices) — that identity is how callers
        tell which extents a write touched.
        """
        from repro.views.delta import apply_subtree_delta

        if self._relation is not None:
            patched = apply_subtree_delta(self, document, change)
            if patched is not None:
                self._relation, splices = patched
                return splices
        self.materialize(document)
        return None

    def apply_delta(self, document: XMLDocument, change) -> str:
        """:meth:`maintain`, reporting ``"delta"`` or ``"rematerialized"``."""
        spliced = self.maintain(document, change) is not None
        return "delta" if spliced else "rematerialized"

    @property
    def relation(self) -> Relation:
        """The materialised extent (raises if the view was never materialised)."""
        if self._relation is None:
            raise ReproError(
                f"view {self.name!r} has not been materialised over any document"
            )
        return self._relation

    @property
    def is_materialized(self) -> bool:
        """True iff the view has a materialised extent."""
        return self._relation is not None

    @cached_property
    def _layout(self) -> tuple:
        # the pattern is fixed at construction, so its full schema — columns
        # plus the per-node layout evaluation reads — is derived once, for
        # the columns and for the regions incremental maintenance
        # re-evaluates; never pickled (see __getstate__)
        return pattern_schema(self.pattern)

    @cached_property
    def _chain(self) -> Optional[tuple]:
        # the definition-only part of the delta gate (chain nodes and pin,
        # or None), derived once like the layout
        from repro.views.delta import fixed_chain

        return fixed_chain(self)

    @cached_property
    def _schema(self) -> tuple:
        # a pickle carries the cached tuple, one written before the cache
        # existed derives it on first use
        return tuple(self._layout[0])

    def __getstate__(self) -> dict:
        # the layout is keyed on pattern-node identities, which no pickle keeps
        state = dict(self.__dict__)
        state.pop("_layout", None)
        return state

    def schema(self):
        """The view's column list (computable without materialising)."""
        return list(self._schema)

    def column_names(self) -> list[str]:
        """Names of the view's columns."""
        return [column.name for column in self._schema]

    def __repr__(self) -> str:
        status = f"rows={len(self._relation)}" if self._relation is not None else "unmaterialised"
        return f"<MaterializedView {self.name!r} {self.pattern.to_text()} {status}>"
