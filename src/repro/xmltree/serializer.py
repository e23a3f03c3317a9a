"""Serialisation of repro XML trees back to text.

Two formats are provided: regular XML markup and the parenthesized notation
of the paper (useful in error messages and tests).
"""

from __future__ import annotations

from repro.xmltree.node import XMLDocument, XMLNode

__all__ = ["to_xml_string", "to_parenthesized"]


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as entities, as ``xml.sax.saxutils.escape``
    gives them; that module would load ``urllib.request`` and OpenSSL
    into every process that imports :mod:`repro`."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _escape_attribute(text: str) -> str:
    """:func:`_escape` plus what an attribute value inside ``"`` needs: the
    quote itself, and newline, CR and tab as character references, which
    XML would otherwise normalise to spaces when the value is read back."""
    return (
        _escape(text)
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\r", "&#13;")
        .replace("\t", "&#9;")
    )


def _node_to_xml(node: XMLNode, indent: int, pretty: bool) -> str:
    pad = "  " * indent if pretty else ""
    newline = "\n" if pretty else ""
    attrs = [c for c in node.children if c.label.startswith("@")]
    elements = [c for c in node.children if not c.label.startswith("@")]
    attr_text = "".join(
        f' {a.label[1:]}="{_escape_attribute(str(a.value))}"' for a in attrs if a.value is not None
    )
    open_tag = f"{pad}<{node.label}{attr_text}>"
    value_text = _escape(str(node.value)) if node.value is not None else ""
    if not elements:
        return f"{open_tag}{value_text}</{node.label}>{newline}"
    parts = [open_tag, value_text, newline]
    for child in elements:
        parts.append(_node_to_xml(child, indent + 1, pretty))
    parts.append(f"{pad}</{node.label}>{newline}")
    return "".join(parts)


def to_xml_string(doc: XMLDocument | XMLNode, pretty: bool = True) -> str:
    """Serialise a document (or detached subtree) to XML text."""
    root = doc.root if isinstance(doc, XMLDocument) else doc
    return _node_to_xml(root, 0, pretty)


def _node_to_paren(node: XMLNode) -> str:
    label = node.label
    if node.value is not None:
        label += f'="{node.value}"'
    if not node.children:
        return label
    inner = " ".join(_node_to_paren(c) for c in node.children)
    return f"{label}({inner})"


def to_parenthesized(doc: XMLDocument | XMLNode) -> str:
    """Serialise a document (or subtree) to the paper's ``a(b c(d))`` notation."""
    root = doc.root if isinstance(doc, XMLDocument) else doc
    return _node_to_paren(root)
