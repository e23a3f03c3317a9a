"""Construction of summary-based canonical models.

For a (possibly decorated / optional) pattern ``p`` and an (enhanced)
summary ``S``:

* :func:`annotate_paths` computes, for every pattern node, the set of
  summary nodes it can be embedded into (Definition 2.1) by set algebra
  over the summary's :class:`~repro.summary.index.SummaryIndex`,
* :func:`canonical_model` enumerates ``modS(p)``:

  1. for every subset ``F`` of optional edges (Section 4.3), erase the
     branches hanging below ``F`` and make the remaining edges strict,
  2. enumerate the embeddings of the resulting conjunctive pattern into
     ``S``,
  3. for every embedding build the canonical tree — the image node of every
     pattern node, plus the parent-child chains connecting the image of a
     node to the images of its children (Section 2.4; every pattern child
     gets its own chain, so two pattern nodes mapping to the same summary
     node stay distinct, as required by Section 4.2),
  4. decorate the image nodes with the pattern's value formulas
     (Section 4.2),
  5. close the tree under strong edges (Section 4.1), and
  6. keep erased variants only when the optional pattern still has a
     non-empty result on them (Section 4.3).

Working subset-first (erase, then embed) rather than the paper's
embed-then-erase order produces a superset of the paper's trees: it also
covers patterns whose optional branches have *no* image in the summary at
all, which keeps satisfiability and containment correct for such patterns.

Duplicate canonical trees (different embeddings yielding the same tree) are
removed.  Nested edges never affect the canonical model; they are handled by
the nesting-sequence conditions of Proposition 4.2 in
:mod:`repro.containment`.
"""

from __future__ import annotations

import itertools
import time
from typing import Iterator, Optional

from repro.caching import BoundedLruCache
from repro.canonical.hashing import pattern_key, summary_token
from repro.canonical.trees import CanonicalNode, CanonicalTree
from repro.errors import ContainmentBudgetExceeded
from repro.patterns.embedding import EmbeddingMode
from repro.patterns.pattern import Axis, PatternNode, TreePattern
from repro.patterns.semantics import evaluate_node_tuples
from repro.summary.dataguide import Summary
from repro.summary.node import SummaryNode

__all__ = [
    "annotate_paths",
    "canonical_model",
    "CanonicalModelCache",
    "canonical_model_cache",
    "clear_canonical_model_cache",
    "is_satisfiable",
]


# --------------------------------------------------------------------------- #
# canonical-model memoisation
# --------------------------------------------------------------------------- #
class CanonicalModelCache(BoundedLruCache):
    """A bounded LRU memo for *complete* canonical models.

    ``modS(p)`` is a pure function of the pattern structure and the summary,
    keyed here by the same canonical pattern hash the containment-decision
    memo uses (:func:`repro.canonical.hashing.pattern_key`).  A rewriting
    search enumerates the model of the same query / view / join patterns
    over and over — every equivalence test enumerates the contained side in
    full — so replaying a stored model saves the whole erased-variant ×
    embedding enumeration.

    The same non-caching rules as the decision memo apply: an enumeration
    that aborts on a deadline, is abandoned by its consumer, or overflows
    ``max_trees_cached`` is never stored (only *complete* models are
    replayed; a capped or aborted one is not the model).
    """

    def __init__(self, maxsize: int = 512, max_trees_cached: int = 256):
        super().__init__(maxsize)
        self.max_trees_cached = max_trees_cached
        # summary token -> summary number -> shared strong-closure subtree
        # (see _apply_strong_closure); flushed with the models
        self._closures: dict[int, dict[int, CanonicalNode]] = {}

    def closures(self, summary: Summary) -> dict[int, CanonicalNode]:
        """The strong-closure subtrees built so far under ``summary``."""
        if not self.enabled:
            return {}
        if len(self._closures) >= 64:  # tokens of long-gone summaries
            self._closures.clear()
        return self._closures.setdefault(summary_token(summary), {})

    def clear(self) -> None:
        super().clear()
        self._closures.clear()

    def store(self, key: tuple, trees: tuple[CanonicalTree, ...]) -> None:
        """Insert a complete model, unless it overflows the per-entry cap."""
        if len(trees) > self.max_trees_cached:
            return
        super().store(key, trees)


_MODEL_CACHE = CanonicalModelCache()


def canonical_model_cache() -> CanonicalModelCache:
    """The process-wide canonical-model memo."""
    return _MODEL_CACHE


def clear_canonical_model_cache() -> None:
    """Reset the process-wide canonical-model memo (stats included)."""
    _MODEL_CACHE.clear()


# --------------------------------------------------------------------------- #
# associated paths (Definition 2.1)
# --------------------------------------------------------------------------- #
def annotate_paths(pattern: TreePattern, summary: Summary) -> TreePattern:
    """Annotate every node of ``pattern`` with its associated summary numbers.

    :attr:`PatternNode.annotated_paths` becomes the set of summary nodes
    ``s`` such that some embedding ``e : p → S`` has ``e(n) = s``
    (Definition 2.1); the rewriting algorithm reads it (Propositions 3.4 and
    3.7).  Optional edges are treated as required for the node itself but
    never prevent the rest of the pattern from embedding (nodes of optional
    branches without any image simply get an empty set).  Value predicates
    are ignored (summary nodes carry no values).  The pattern is modified in
    place and returned for convenience.

    Both passes are set algebra over ``summary.index`` — nothing walks the
    summary.  ``tests/support/annotation_oracle.py`` keeps the node-by-node
    dynamic program this replaced as the reference.
    """
    index = summary.index
    nodes = pattern.nodes()

    # bottom-up feasibility: the images of n under which the subtree rooted
    # at n embeds.  Children below optional edges constrain nothing.
    for node in reversed(nodes):
        images = index.numbers_with_label(node.label)
        for child in node.children:
            if child.optional:
                continue
            below = child.annotated_paths
            if child.axis is Axis.CHILD:
                images = images & {index.parent(number) for number in below}
            else:
                images = images & frozenset().union(*map(index.ancestors, below))
        node.annotated_paths = images

    # top-down restriction to images reachable from the root (pre-order, so
    # a node's parent is final before the node is visited)
    root = pattern.root
    root.annotated_paths = root.annotated_paths & {summary.root.number}
    for node in nodes[1:]:
        step = index.children if node.axis is Axis.CHILD else index.descendants
        node.annotated_paths = node.annotated_paths & frozenset().union(
            *map(step, node.parent.annotated_paths)
        )
    return pattern


# --------------------------------------------------------------------------- #
# canonical trees
# --------------------------------------------------------------------------- #
def _summary_chain(upper: SummaryNode, lower: SummaryNode) -> list[SummaryNode]:
    """Summary nodes strictly between ``upper`` and ``lower`` (top-down)."""
    chain = []
    node = lower.parent
    while node is not None and node is not upper:
        chain.append(node)
        node = node.parent
    if node is None:
        raise ValueError(f"{upper!r} is not an ancestor of {lower!r}")
    chain.reverse()
    return chain


def _build_tree(
    root_pattern_node: PatternNode,
    embedding: dict[PatternNode, SummaryNode],
) -> tuple[CanonicalNode, dict[int, CanonicalNode]]:
    """Build the canonical tree of one embedding (Section 2.4)."""
    node_map: dict[int, CanonicalNode] = {}

    def build(pattern_node: PatternNode) -> CanonicalNode:
        summary_node = embedding[pattern_node]
        canonical = CanonicalNode(summary_node, formula=pattern_node.predicate)
        canonical.pattern_node_ids.add(id(pattern_node))
        node_map[id(pattern_node)] = canonical
        for child in pattern_node.children:
            chain = _summary_chain(summary_node, embedding[child])
            current = canonical
            for chain_summary in chain:
                current = current.add_child(CanonicalNode(chain_summary))
            current.add_child(build(child))
        return canonical

    return build(root_pattern_node), node_map


def _summary_embeddings(
    pattern: TreePattern, summary: Summary
) -> Iterator[dict[PatternNode, SummaryNode]]:
    """Every embedding of a strict pattern into ``summary``.

    The pattern is annotated here (never trusted to arrive annotated under
    this summary).  An annotated path is exactly an image that extends to a
    full embedding, so the images of a child below its parent's image are one
    set intersection and no branch dead-ends.  Images are taken in number
    order — the pre-order of a freshly built summary, which is the order a
    walk of the summary tree would produce them in.
    """
    index = summary.index
    annotate_paths(pattern, summary)

    def embed(node: PatternNode, number: int) -> list[dict[PatternNode, SummaryNode]]:
        per_child = []
        for child in node.children:
            step = index.children if child.axis is Axis.CHILD else index.descendants
            per_child.append(
                [
                    mapping
                    for image in sorted(child.annotated_paths & step(number))
                    for mapping in embed(child, image)
                ]
            )
        mappings = []
        for combination in itertools.product(*per_child):
            mapping = {node: index.node(number)}
            for sub_mapping in combination:
                mapping.update(sub_mapping)
            mappings.append(mapping)
        return mappings

    for number in pattern.root.annotated_paths:
        yield from embed(pattern.root, number)


def _closure_subtree(summary_node: SummaryNode) -> CanonicalNode:
    """A canonical node for ``summary_node`` with all its strong descendants."""
    node = CanonicalNode(summary_node)
    for child in summary_node.children:
        if child.strong:
            node.add_child(_closure_subtree(child))
    node.frozen_key = node.structure_key()
    return node


def _apply_strong_closure(root: CanonicalNode, shared: dict[int, CanonicalNode]) -> None:
    """Add the strong-edge closure of every canonical node (Section 4.1).

    The closure below a summary node depends on the summary alone, so each is
    built once (``shared``, by summary number: the model cache keeps them per
    summary token) and hung *by reference* under every tree that needs it.
    Evaluation results are tuples of node identities, so one tree must never
    hold a node twice: a closure needed a second time inside the same tree
    gets nodes of its own.
    """
    used: set[int] = set()
    for node in list(root.iter_subtree()):
        present = {child.summary_node.number for child in node.children}
        for summary_child in node.summary_node.children:
            number = summary_child.number
            if not summary_child.strong or number in present:
                continue
            if number in used:
                subtree = _closure_subtree(summary_child)
            else:
                used.add(number)
                subtree = shared.get(number)
                if subtree is None:
                    subtree = shared[number] = _closure_subtree(summary_child)
            # not add_child: a shared subtree has no single parent
            node.children.append(subtree)


def _optional_edge_nodes(pattern: TreePattern) -> list[PatternNode]:
    """Pattern nodes hanging below an optional edge (the edges' lower ends)."""
    return [
        node for node in pattern.nodes() if node.parent is not None and node.optional
    ]


def _erased_variant(
    pattern: TreePattern, erased_top_positions: tuple[int, ...]
) -> tuple[TreePattern, dict[int, int]]:
    """Copy ``pattern``, erase the branches at the given pre-order positions,
    make every remaining edge strict, and return the copy together with a map
    from the copy's node ids to the original pre-order positions."""
    clone = pattern.copy()
    original_positions = {id(node): pos for pos, node in enumerate(clone.nodes())}
    clone_nodes = clone.nodes()
    for position in erased_top_positions:
        node = clone_nodes[position]
        if node.parent is not None:
            node.parent.children.remove(node)
            node.parent = None
    position_map: dict[int, int] = {}
    for node in clone.nodes():
        node.optional = False
        node.nested = False
        position_map[id(node)] = original_positions[id(node)]
    return clone, position_map


def canonical_model(
    pattern: TreePattern,
    summary: Summary,
    use_strong_closure: bool = True,
    max_trees: Optional[int] = None,
) -> list[CanonicalTree]:
    """Compute ``modS(p)`` for a pattern with any combination of extensions.

    ``max_trees`` optionally caps the number of returned trees (used by the
    experiment harness to keep pathological synthetic patterns in check).
    """
    return list(
        itertools.islice(
            iter_canonical_model(pattern, summary, use_strong_closure),
            max_trees,
        )
    )


def iter_canonical_model(
    pattern: TreePattern,
    summary: Summary,
    use_strong_closure: bool = True,
    deadline: Optional[float] = None,
) -> Iterator[CanonicalTree]:
    """Lazily enumerate ``modS(p)`` (see :func:`canonical_model`).

    ``deadline`` is an absolute :func:`time.perf_counter` instant; the
    enumeration raises :class:`~repro.errors.ContainmentBudgetExceeded` when
    it crosses it.  The check sits on the erased-variant loop because a
    pattern with ``k`` optional edges has up to ``2^k`` variants, each of
    which may be filtered without ever yielding a tree — a consumer-side
    check alone could never fire.

    Complete enumerations are memoised in the process-wide
    :class:`CanonicalModelCache` and replayed on repetition; enumerations
    cut short by the deadline, abandoned mid-way, or larger than the cache's
    per-entry cap are computed but never stored.
    """
    cache = _MODEL_CACHE
    if not cache.enabled:
        yield from _iter_canonical_model_uncached(
            pattern, summary, use_strong_closure, deadline
        )
        return
    key = (pattern_key(pattern), summary_token(summary), use_strong_closure)
    cached = cache.lookup(key)
    if cached is not None:
        yield from cached
        return
    buffer: Optional[list[CanonicalTree]] = []
    for tree in _iter_canonical_model_uncached(
        pattern, summary, use_strong_closure, deadline
    ):
        if buffer is not None:
            buffer.append(tree)
            if len(buffer) > cache.max_trees_cached:
                buffer = None  # too large to replay; stop buffering
        yield tree
    # reached only when the enumeration ran to genuine completion
    if buffer is not None:
        cache.store(key, tuple(buffer))


def _iter_canonical_model_uncached(
    pattern: TreePattern,
    summary: Summary,
    use_strong_closure: bool = True,
    deadline: Optional[float] = None,
) -> Iterator[CanonicalTree]:
    original_nodes = pattern.nodes()
    return_positions = [
        original_nodes.index(node) for node in pattern.return_nodes()
    ]
    optional_positions = [
        original_nodes.index(node) for node in _optional_edge_nodes(pattern)
    ]

    seen: set[tuple] = set()
    closures = _MODEL_CACHE.closures(summary)
    embeddings_since_check = 0
    for erased_size in range(len(optional_positions) + 1):
        for erased_tops in itertools.combinations(optional_positions, erased_size):
            if deadline is not None and time.perf_counter() > deadline:
                raise ContainmentBudgetExceeded(
                    "canonical-model enumeration aborted: time budget exhausted"
                )
            variant, position_map = _erased_variant(pattern, erased_tops)
            variant_by_position = {
                position_map[id(node)]: node for node in variant.nodes()
            }
            for embedding in _summary_embeddings(variant, summary):
                # a single variant can have up to |S|^|p| embeddings, all of
                # which may be dropped below without yielding, so the deadline
                # must also be polled inside this loop (every 64 embeddings)
                embeddings_since_check += 1
                if (
                    deadline is not None
                    and embeddings_since_check >= 64
                ):
                    embeddings_since_check = 0
                    if time.perf_counter() > deadline:
                        raise ContainmentBudgetExceeded(
                            "canonical-model enumeration aborted: "
                            "time budget exhausted"
                        )
                root, node_map = _build_tree(variant.root, embedding)
                if use_strong_closure:
                    _apply_strong_closure(root, closures)
                return_nodes = []
                for position in return_positions:
                    variant_node = variant_by_position.get(position)
                    if variant_node is None:
                        return_nodes.append(None)
                    else:
                        return_nodes.append(node_map.get(id(variant_node)))
                tree = CanonicalTree(root, return_nodes)
                if erased_tops:
                    # Section 4.3: keep an erased variant only if the optional
                    # pattern still has a non-empty result on it.
                    if not evaluate_node_tuples(
                        pattern, tree.index, EmbeddingMode.DECORATED
                    ):
                        continue
                key = tree.key()
                if key in seen:
                    continue
                seen.add(key)
                yield tree


def is_satisfiable(pattern: TreePattern, summary: Summary) -> bool:
    """Satisfiability test: ``p`` is S-satisfiable iff ``modS(p)`` is not empty.

    A pattern is satisfiable exactly when its *required core* (the pattern
    with every optional branch erased) embeds into the summary — which is
    when path annotation, where optional branches constrain nothing, leaves
    the root an image.  The model is not materialised.
    """
    return bool(annotate_paths(pattern.copy(), summary).root.annotated_paths)
