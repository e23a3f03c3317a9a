"""Document lookups recomputed from the tree, for tests to hold the
document's own derived state (its paths, its id lookup) against."""

from __future__ import annotations

from repro.errors import XMLError
from repro.xmltree.ids import DeweyID
from repro.xmltree.node import XMLDocument, XMLNode

__all__ = ["has_id", "rooted_path"]


def has_id(document: XMLDocument, dewey: DeweyID) -> bool:
    """True iff a node with this identifier is in the document."""
    try:
        document.node_by_id(dewey)
    except XMLError:
        return False
    return True


def rooted_path(node: XMLNode) -> str:
    """The rooted path read off the labels up the parent chain, e.g.
    ``/site/regions/item`` — never from the node's stored ``path``."""
    labels = [node.label]
    labels.extend(ancestor.label for ancestor in node.iter_ancestors())
    return "/" + "/".join(reversed(labels))
