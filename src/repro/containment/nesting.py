"""Nesting-sequence conditions for nested pattern containment (Prop. 4.2).

For two nested patterns ``p1 ⊆S p2`` the paper requires, besides unnested
containment:

* 2(a) corresponding return nodes have nesting sequences of the same length
  (the same number of ``n``-edges above them), and
* 2(b) for every embedding ``e : p1 → S`` there is an embedding
  ``e' : p2 → S`` with the same return-node images such that corresponding
  nesting sequences are equal — or, when one-to-one integrity constraints
  are available, connected by one-to-one edges only.
"""

from __future__ import annotations

from repro.patterns.embedding import EmbeddingMode, iter_embeddings
from repro.patterns.pattern import PatternNode, TreePattern
from repro.summary.dataguide import Summary
from repro.summary.node import SummaryNode

__all__ = ["nesting_depths", "nesting_sequences_compatible"]

# Bound on the summary embeddings enumerated per pattern in the 2(b) check:
# a contained side with more is refused (never called compatible unchecked),
# a container side cut there can only lose matches.
_MAX_EMBEDDINGS = 2000


def nesting_depths(pattern: TreePattern) -> list[int]:
    """``|ns(n_i)|`` for every return node, in return-node order."""
    return [node.nesting_depth() for node in pattern.return_nodes()]


def _nesting_sequence(
    return_node: PatternNode, embedding: dict[PatternNode, SummaryNode]
) -> tuple[int, ...]:
    """Summary numbers of the nesting ancestors of ``return_node`` (top-down).

    The sequence contains ``e(n')`` for every ancestor ``n'`` such that the
    edge leaving ``n'`` towards the return node is nested.
    """
    sequence: list[int] = []
    node = return_node
    while node.parent is not None:
        if node.nested:
            sequence.append(embedding[node.parent].number)
        node = node.parent
    sequence.reverse()
    return tuple(sequence)


def _one_to_one_connected(a: SummaryNode, b: SummaryNode) -> bool:
    """True iff one node is an ancestor-or-self of the other and every edge
    between them is one-to-one (Section 4.5 relaxation of condition 2(b))."""
    if a is b:
        return True
    upper, lower = (a, b) if a.is_ancestor_of(b) else (b, a)
    if not upper.is_ancestor_of(lower):
        return False
    node = lower
    while node is not upper:
        if not node.one_to_one:
            return False
        node = node.parent
        if node is None:
            return False
    return True


def _sequences_match(
    left: tuple[int, ...], right: tuple[int, ...], summary: Summary
) -> bool:
    if len(left) != len(right):
        return False
    for l_number, r_number in zip(left, right):
        if l_number == r_number:
            continue
        if not _one_to_one_connected(
            summary.node_by_number(l_number), summary.node_by_number(r_number)
        ):
            return False
    return True


def nesting_sequences_compatible(
    contained: TreePattern,
    container: TreePattern,
    summary: Summary,
) -> bool:
    """Check conditions 2(a) and 2(b) of Proposition 4.2.

    When neither pattern has nested edges the check trivially succeeds.
    Embeddings of the container are indexed by their return-image tuples so
    each contained-side embedding is matched against the relevant candidates
    only.  Both sides are enumerated up to ``_MAX_EMBEDDINGS``; a contained
    side with more embeddings than that is not compatible — the check may
    then miss a rewriting, but never admits a wrong one.
    """
    if not contained.has_nested_edges() and not container.has_nested_edges():
        return True
    if nesting_depths(contained) != nesting_depths(container):
        return False

    contained_strict = contained.strict_version()
    container_strict = container.strict_version()
    contained_returns = contained_strict.return_nodes()
    container_returns = container_strict.return_nodes()

    # index container embeddings by return images
    container_index: dict[tuple[int, ...], list[list[tuple[int, ...]]]] = {}
    count = 0
    for embedding in iter_embeddings(
        container_strict, summary.root, EmbeddingMode.SUMMARY
    ):
        images = tuple(embedding[node].number for node in container_returns)
        sequences = [
            _nesting_sequence(node, embedding) for node in container_returns
        ]
        container_index.setdefault(images, []).append(sequences)
        count += 1
        if count >= _MAX_EMBEDDINGS:
            break

    for count, embedding in enumerate(iter_embeddings(
        contained_strict, summary.root, EmbeddingMode.SUMMARY
    )):
        if count == _MAX_EMBEDDINGS:
            return False  # embeddings past the cap would go unchecked
        images = tuple(embedding[node].number for node in contained_returns)
        sequences = [
            _nesting_sequence(node, embedding) for node in contained_returns
        ]
        candidates = container_index.get(images, [])
        matched = False
        for candidate in candidates:
            if all(
                _sequences_match(seq, cand_seq, summary)
                for seq, cand_seq in zip(sequences, candidate)
            ):
                matched = True
                break
        if not matched:
            return False
    return True
