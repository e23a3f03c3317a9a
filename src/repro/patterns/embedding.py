"""Embeddings of tree patterns into trees (Section 2.2).

The same embedding machinery is used against three kinds of trees:

* **documents** (:class:`~repro.xmltree.node.XMLNode`) — value predicates are
  evaluated against node values,
* **summaries** (:class:`~repro.summary.node.SummaryNode`) — summary nodes
  carry no values, so value predicates are ignored (they are re-attached by
  the canonical-model construction, Section 4.2),
* **decorated / canonical trees** (:class:`~repro.canonical.trees.CanonicalNode`)
  — nodes carry formulas, and a *decorated embedding* requires
  ``phi_{e(n)} ⇒ phi_n`` (Section 4.2).

All trees expose ``label``, ``children`` and either ``value`` or ``formula``,
so one generic recursive matcher serves all cases.  Optional-edge semantics
is handled in :mod:`repro.patterns.semantics`; the embeddings enumerated here
are *strict* (every pattern node must be matched).
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterator, Optional

from repro.patterns.pattern import Axis, PatternNode, TreePattern
from repro.patterns.predicates import ValueFormula

__all__ = ["EmbeddingMode", "find_embeddings", "iter_embeddings", "has_embedding"]


class EmbeddingMode(enum.Enum):
    """How value predicates are checked during matching."""

    DOCUMENT = "document"
    SUMMARY = "summary"
    DECORATED = "decorated"


def _node_matches(pattern_node: PatternNode, tree_node, mode: EmbeddingMode) -> bool:
    if not pattern_node.matches_label(tree_node.label):
        return False
    if mode is EmbeddingMode.SUMMARY:
        return True
    predicate = pattern_node.predicate
    if predicate is None or predicate.is_true():
        return True
    if mode is EmbeddingMode.DECORATED:
        formula = getattr(tree_node, "formula", None)
        if formula is None:
            formula = (
                ValueFormula.eq(tree_node.value)
                if getattr(tree_node, "value", None) is not None
                else ValueFormula.true()
            )
        return formula.implies(predicate)
    return predicate.evaluate(getattr(tree_node, "value", None))


def _embed(
    pattern_node: PatternNode, tree_node, mode: EmbeddingMode
) -> Iterator[dict[PatternNode, object]]:
    """Yield every strict embedding of the subtree at ``pattern_node``."""
    if not _node_matches(pattern_node, tree_node, mode):
        return
    if not pattern_node.children:
        yield {pattern_node: tree_node}
        return

    per_child: list[list[dict[PatternNode, object]]] = []
    for child in pattern_node.children:
        if child.axis is Axis.CHILD:
            candidates = list(tree_node.children)
        else:
            candidates = list(tree_node.iter_descendants())
        options = []
        for candidate in candidates:
            options.extend(_embed(child, candidate, mode))
        if not options:
            return
        per_child.append(options)

    for combination in itertools.product(*per_child):
        mapping: dict[PatternNode, object] = {pattern_node: tree_node}
        for sub_mapping in combination:
            mapping.update(sub_mapping)
        yield mapping


def iter_embeddings(
    pattern: TreePattern | PatternNode,
    tree_root,
    mode: EmbeddingMode = EmbeddingMode.DOCUMENT,
) -> Iterator[dict[PatternNode, object]]:
    """Yield all strict embeddings of ``pattern`` into the tree at ``tree_root``.

    The pattern root is required to map to ``tree_root`` (embeddings map the
    pattern root to the document root, Section 2.2).
    """
    root = pattern.root if isinstance(pattern, TreePattern) else pattern
    yield from _embed(root, tree_root, mode)


def find_embeddings(
    pattern: TreePattern | PatternNode,
    tree_root,
    mode: EmbeddingMode = EmbeddingMode.DOCUMENT,
    limit: Optional[int] = None,
) -> list[dict[PatternNode, object]]:
    """Collect embeddings into a list, optionally stopping after ``limit``."""
    result = []
    for embedding in iter_embeddings(pattern, tree_root, mode):
        result.append(embedding)
        if limit is not None and len(result) >= limit:
            break
    return result


def has_embedding(
    pattern: TreePattern | PatternNode,
    tree_root,
    mode: EmbeddingMode = EmbeddingMode.DOCUMENT,
) -> bool:
    """True iff at least one strict embedding exists."""
    for _ in iter_embeddings(pattern, tree_root, mode):
        return True
    return False
