"""Canonical hashable keys for patterns.

Containment under summary constraints (``p ⊆S q``) is a pure function of

* the structure of both patterns — labels, edges (axis / optional / nested),
  stored attributes, return flags and value predicates,
* the *order* of their return nodes (it fixes the result column order used
  by the tuple-inclusion test of Proposition 3.1), and
* the summary ``S``.

:func:`pattern_key` turns the first two into one hashable value, so
``(pattern_key(p), pattern_key(q))`` canonically identifies a containment
question in the memo the summary owns
(:attr:`~repro.summary.dataguide.Summary.containment_memo`, so the summary
is never part of a key).  The rewriting search hits that memo every time a
workload re-asks a containment question it has already answered (repeated
queries, shared view patterns, repeated join shapes).

Annotated summary paths are deliberately *excluded* from the key: they are a
derived annotation (Definition 2.1) that is itself a function of the pattern
structure and the summary, so including them would only fragment the cache
between annotated and un-annotated copies of the same pattern.
"""

from __future__ import annotations

from repro.patterns.pattern import PatternNode, TreePattern

__all__ = ["pattern_key"]


def _node_key(node: PatternNode) -> tuple:
    """Structural key of the subtree rooted at ``node`` (paths excluded)."""
    return (
        node.label,
        node.axis.value if node.axis is not None else None,
        node.optional,
        node.nested,
        node.attributes,
        node.is_return,
        node.effective_predicate.to_text(),
        tuple(_node_key(child) for child in node.children),
    )


def pattern_key(pattern: TreePattern) -> tuple:
    """A hashable key identifying ``pattern`` up to S-semantics.

    Two patterns with equal keys have identical results on every document
    (and hence identical containment behaviour); the key ignores pattern
    names and annotated paths.  The explicit return order set via
    :meth:`TreePattern.set_return_order` is part of the key because it
    changes the result column order.
    """
    nodes = pattern.nodes()
    positions = {id(node): position for position, node in enumerate(nodes)}
    return_order = tuple(positions[id(node)] for node in pattern.return_nodes())
    return (_node_key(pattern.root), return_order)

