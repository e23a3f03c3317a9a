"""Whether a document conforms to a summary (``S |= d``), checked from scratch.

The library maintains its summary alongside the document; these helpers
read only the summary's public nodes and the document's tree, so a test
can hold one to the other.
"""

from __future__ import annotations

from repro.summary.dataguide import Summary
from repro.xmltree.node import XMLDocument

__all__ = ["conforms", "has_path"]


def has_path(summary: Summary, path: str) -> bool:
    """True iff ``path`` occurs in the summarised document."""
    return any(node.path == path for node in summary.iter_nodes())


def conforms(summary: Summary, document: XMLDocument, check_constraints: bool = True) -> bool:
    """``S |= d``: every document path occurs in the summary and, with
    ``check_constraints``, the strong and one-to-one edge constraints hold
    at every document node."""
    by_path = {node.path: node for node in summary.iter_nodes()}
    for node in document.iter_nodes():
        summary_node = by_path.get(node.path)
        if summary_node is None:
            return False
        if not check_constraints:
            continue
        for child in summary_node.children:
            count = sum(1 for c in node.children if c.label == child.label)
            if child.strong and count == 0:
                return False
            if child.one_to_one and count != 1:
                return False
    return True
