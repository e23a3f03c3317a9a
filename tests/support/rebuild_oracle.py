"""Rebuild-from-scratch twin of a live :class:`repro.Database`.

The live-document suites compare incremental maintenance (summary deltas,
extent splices, in-place catalog resyncs) against a session that derives
*nothing* incrementally.  :class:`RebuildOracle` is that session: after
every mutation it throws its ``Database`` away and builds a new one over
the mutated document — a fresh :func:`~repro.build_summary`, every view
re-materialised by ``create_view`` — using public calls only.
"""

from __future__ import annotations

from repro import Database, encode_subtree, evaluate_pattern
from repro.algebra import Relation
from repro.errors import ReproError
from repro.xmltree.ids import DeweyID
from repro.xmltree.node import XMLDocument, XMLNode

__all__ = ["RebuildOracle", "normalize", "scan_fed_extent"]


def normalize(value):
    """A relation (or cell) in a form comparable across twin sessions.

    Node cells become ``(ID, encoded subtree)``, identifiers their text,
    relations — nested ones included — lists of row tuples.
    """
    if isinstance(value, Relation):
        return [tuple(normalize(cell) for cell in row) for row in value.rows]
    if isinstance(value, XMLNode):
        return ("node", str(value.dewey), encode_subtree(value))
    if isinstance(value, DeweyID):
        return ("id", str(value))
    return value


def scan_fed_extent(view, document) -> Relation:
    """What ``view.materialize(document)`` must produce, without the path store.

    The reference extent: ``evaluate_pattern`` walking the tree (it is never
    handed the document's store here), then the Dewey sort ``materialize``
    applies.  It is also rematerialisation as the deltas found it, which is
    what the speed floors time.
    """
    relation = evaluate_pattern(view.pattern, document, id_function=view._id_function)
    column = view.dewey_sort_column()
    if column is not None:
        try:
            relation = relation.sorted_in_dewey_order(column)
        except ReproError:
            pass  # a non-Dewey fID: left in generation order, as materialize does
    return relation


class RebuildOracle:
    """The slice of the ``Database`` surface the twin-session suites drive."""

    def __init__(self, document: XMLDocument):
        self.document = document
        self._definitions: dict[str, str] = {}  # view name -> pattern text
        self._database = Database(document)

    def _rebuild(self) -> None:
        self._database.close()
        self._database = Database(self.document)
        for name, pattern in self._definitions.items():
            self._database.create_view(pattern, name=name)

    def _node(self, address: XMLNode | str) -> XMLNode:
        if isinstance(address, str):
            return self.document.node_by_id(DeweyID.from_string(address))
        return address

    # ------------------------------------------------------------------ #
    def insert_subtree(self, parent: XMLNode | str, subtree: XMLNode) -> XMLNode:
        node = self.document.insert_subtree(self._node(parent), subtree)
        self._rebuild()
        return node

    def delete_subtree(self, node: XMLNode | str) -> XMLNode:
        detached = self.document.delete_subtree(self._node(node))
        self._rebuild()
        return detached

    def create_view(self, pattern: str, name: str):
        self._definitions[name] = pattern
        return self._database.create_view(pattern, name=name)

    def drop_view(self, name: str) -> None:
        del self._definitions[name]
        self._database.drop_view(name)

    def query(self, query: str):
        return self._database.query(query)

    @property
    def summary(self):
        return self._database.summary

    @property
    def views(self):
        return self._database.views

    def close(self) -> None:
        self._database.close()
