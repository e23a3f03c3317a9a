"""SAX-style streaming ingestion of XML fragments.

A live feed rarely arrives as one well-formed document; it is a sequence
of elements (log records, auction events, sensor readings) delivered in
arbitrary chunk boundaries.  :func:`iter_stream_subtrees` feeds those
chunks to an incremental :class:`xml.etree.ElementTree.XMLPullParser`
inside a synthetic wrapper element and yields one detached
:class:`~repro.xmltree.node.XMLNode` subtree per *completed* top-level
element — memory stays proportional to the largest element, not the
stream, and a subtree is yielded the moment its close tag arrives.

Conversion matches :func:`repro.xmltree.parser.parse_xml_string` exactly
(attributes become ``@name`` children, text is type-coerced, namespaces
are stripped), so streamed elements are indistinguishable from parsed
ones.  A live session applies each subtree as one logged insert::

    for subtree in iter_stream_subtrees(chunks):
        db.insert_subtree(parent, subtree)
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Iterable, Iterator

from repro.errors import IngestError
from repro.xmltree.node import XMLNode
from repro.xmltree.parser import _convert

__all__ = ["iter_stream_subtrees"]

_WRAPPER = "repro-stream-wrapper"


def iter_stream_subtrees(chunks: Iterable[str]) -> Iterator[XMLNode]:
    """Yield one detached subtree per completed top-level stream element.

    ``chunks`` is any iterable of text fragments; element boundaries may
    fall anywhere inside or across chunks.  Malformed XML raises
    :class:`~repro.errors.IngestError` — elements already yielded stay
    valid (they were complete), the rest of the stream is abandoned.

    >>> list(iter_stream_subtrees(['<item><na', 'me>pen</name></item>']))[0].label
    'item'
    """
    parser = ET.XMLPullParser(events=("start", "end"))
    try:
        parser.feed(f"<{_WRAPPER}>")
        depth = 0
        root: ET.Element | None = None
        for chunk in chunks:
            parser.feed(chunk)
            for event, elem in parser.read_events():
                if event == "start":
                    depth += 1
                    if depth == 2:  # a new top-level stream element
                        root = elem
                elif event == "end":
                    depth -= 1
                    if depth == 1 and root is not None:
                        yield _convert(root)
                        # drop the completed element from the wrapper so
                        # the accumulated tree never outgrows one element
                        root.clear()
                        root = None
    except ET.ParseError as exc:
        raise IngestError(f"malformed XML in ingestion stream: {exc}") from exc
