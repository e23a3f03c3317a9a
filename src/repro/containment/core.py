"""Containment deciders (Propositions 3.1, 3.2, 4.1, 4.2 and Section 4.2).

The central test follows the paper's canonical-model characterisation: to
decide ``p ⊆S q`` we enumerate the canonical trees of ``p`` and verify that
on each of them every result tuple of ``p`` is also a result tuple of ``q``
(evaluated with decorated semantics, so value predicates are handled by
formula implication).  The extra conditions for attribute patterns
(Prop. 4.1) and nested patterns (Prop. 4.2) are purely structural and are
checked first; the value-coverage condition of Section 4.2 is applied to
union containment.

Between the two, patterns without optional or nested edges meet two cheap
deciders that answer without building a canonical model: a homomorphism
from ``q`` into the summary chase of ``p`` (``p`` plus the steps and
strong children the summary fixes) proves containment, and a return-node
ancestry that
``q`` demands and ``p`` lacks refutes it (``docs/containment.md``,
"Deciders in front of the canonical model").  Everything else goes to the
canonical model, which :func:`canonical_containment_decision` also exposes
on its own.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.caching import BoundedLruCache
from repro.canonical.hashing import pattern_key, summary_token
from repro.canonical.model import (
    annotate_paths,
    canonical_model_cache,
    iter_canonical_model,
)
from repro.canonical.trees import CanonicalTree
from repro.containment.formulas import implies_disjunction, tree_formula
from repro.containment.nesting import nesting_depths, nesting_sequences_compatible
from repro.errors import ContainmentBudgetExceeded, ContainmentError
from repro.patterns.embedding import EmbeddingMode
from repro.patterns.pattern import Axis, PatternNode, TreePattern
from repro.patterns.semantics import evaluate_node_tuples
from repro.summary.dataguide import Summary
from repro.summary.index import SummaryIndex

__all__ = [
    "ContainmentCache",
    "ContainmentDecision",
    "canonical_containment_decision",
    "clear_containment_cache",
    "containment_cache",
    "containment_cache_disabled",
    "is_contained",
    "is_contained_in_union",
    "are_equivalent",
]


# --------------------------------------------------------------------------- #
# memoisation
# --------------------------------------------------------------------------- #
class ContainmentCache(BoundedLruCache):
    """A bounded LRU memo for containment decisions.

    Containment is a pure function of (contained pattern, container pattern,
    summary), so decisions are cached under the canonical keys of
    :mod:`repro.canonical.hashing`.  Across a batch-rewriting workload the
    same (view pattern, query pattern) questions recur constantly — repeated
    queries, shared views, identical join shapes — and each hit saves a full
    canonical-model enumeration.
    """

    DECIDERS = ("preconditions", "ancestry_negative", "homomorphism", "canonical")

    def __init__(self, maxsize: int = 65536):
        super().__init__(maxsize)
        self.deciders = dict.fromkeys(self.DECIDERS, 0)

    def clear(self) -> None:
        super().clear()
        self.deciders = dict.fromkeys(self.DECIDERS, 0)

    def decided(self, decider: str, decision: "ContainmentDecision") -> "ContainmentDecision":
        """Count one uncached decision under the decider that answered it."""
        self.deciders[decider] += 1
        return decision


_CACHE = ContainmentCache()


def containment_cache() -> ContainmentCache:
    """The process-wide containment memo."""
    return _CACHE


def clear_containment_cache() -> None:
    """Reset the containment memo *and* the canonical-model memo.

    The two caches answer the same underlying question at different
    granularities, so every honest-measurement caller (figures, benchmark
    baselines) wants both gone at once."""
    _CACHE.clear()
    canonical_model_cache().clear()


@contextmanager
def containment_cache_disabled():
    """Temporarily bypass both memo layers (reads and writes).

    Used by benchmarks that need an honest un-memoised baseline; the
    canonical-model memo is switched off alongside the decision memo
    because a warm model cache would make "un-memoised" containment times
    meaningless."""
    model_cache = canonical_model_cache()
    previous = _CACHE.enabled
    previous_model = model_cache.enabled
    _CACHE.enabled = False
    model_cache.enabled = False
    try:
        yield
    finally:
        _CACHE.enabled = previous
        model_cache.enabled = previous_model


# --------------------------------------------------------------------------- #
# memo keys
# --------------------------------------------------------------------------- #
def _cache_key(kind: str, left, right, token, check_attributes: bool) -> tuple:
    """The canonical memo key layout for both "single" and "union" entries."""
    return (kind, left, right, token, check_attributes)


# --------------------------------------------------------------------------- #
# deadlines
# --------------------------------------------------------------------------- #
_deadline: Optional[float] = None


@contextmanager
def containment_deadline(deadline: Optional[float]):
    """Arm a wall-clock deadline (``time.perf_counter()`` value) for every
    containment test run inside the block.

    A test whose canonical-model enumeration crosses the deadline raises
    :class:`ContainmentBudgetExceeded` instead of running to completion
    (patterns with many optional edges have exponentially many canonical
    trees, so an uninterruptible test would defeat any search time budget).
    Aborted tests are not memoised.  Nested deadlines keep the tighter one.
    """
    global _deadline
    previous = _deadline
    if deadline is not None and previous is not None:
        deadline = min(deadline, previous)
    _deadline = deadline if deadline is not None else previous
    try:
        yield
    finally:
        _deadline = previous


def _check_deadline() -> None:
    if _deadline is not None and time.perf_counter() > _deadline:
        raise ContainmentBudgetExceeded(
            "containment test aborted: caller's time budget exhausted"
        )


@dataclass
class ContainmentDecision:
    """Outcome of a containment test, with a few statistics for reporting."""

    contained: bool
    reason: str
    canonical_trees_checked: int = 0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.contained


# --------------------------------------------------------------------------- #
# structural pre-conditions
# --------------------------------------------------------------------------- #
def _attribute_signature(pattern: TreePattern) -> list[frozenset[str]]:
    return [frozenset(node.attributes) for node in pattern.return_nodes()]


def _structural_preconditions(
    contained: TreePattern,
    container: TreePattern,
    summary: Summary,
    check_attributes: bool,
) -> Optional[str]:
    """Return a failure reason, or None when all pre-conditions hold."""
    if contained.arity != container.arity:
        return (
            f"arity mismatch: {contained.arity} vs {container.arity}"
        )
    if check_attributes and _attribute_signature(contained) != _attribute_signature(
        container
    ):
        return "return-node attribute annotations differ (Prop. 4.1 condition 1)"
    if nesting_depths(contained) != nesting_depths(container):
        return "nesting depths of return nodes differ (Prop. 4.2 condition 2a)"
    if not nesting_sequences_compatible(contained, container, summary):
        return "nesting sequences are not compatible (Prop. 4.2 condition 2b)"
    return None


def _strip_predicates(pattern: TreePattern) -> TreePattern:
    clone = pattern.copy(name=f"{pattern.name}-nopred")
    for node in clone.root.iter_subtree():
        node.predicate = None
    return clone


# --------------------------------------------------------------------------- #
# deciders in front of the canonical model
# --------------------------------------------------------------------------- #
def _plain(pattern: TreePattern) -> bool:
    """No optional and no nested edges: the scope of the fast deciders."""
    return all(
        not (node.optional or node.nested) for node in pattern.root.iter_subtree()
    )


def _is_proper_ancestor(upper: PatternNode, lower: PatternNode) -> bool:
    return any(node is upper for node in lower.iter_ancestors())


def _ancestry_refutes(contained: TreePattern, container: TreePattern) -> bool:
    """Does the container demand, between two return nodes, an ancestry the
    contained pattern's own return nodes lack?

    Every canonical tree gives each pattern node its own image and closure
    nodes are never images, so two contained return nodes that are not
    pattern ancestor and descendant have images that are not either; the
    container then cannot produce the contained pattern's own tuple.
    """
    inner = contained.return_nodes()
    outer = container.return_nodes()
    return any(
        i != j
        and _is_proper_ancestor(upper, lower)
        and not _is_proper_ancestor(inner[i], inner[j])
        for i, upper in enumerate(outer)
        for j, lower in enumerate(outer)
    )


def _return_images(
    contained: TreePattern, container: TreePattern
) -> Optional[dict[int, PatternNode]]:
    """Container return node (by ``id``) → the contained return node at the
    same position, or None when a node listed twice needs two images."""
    images: dict[int, PatternNode] = {}
    for source, target in zip(container.return_nodes(), contained.return_nodes()):
        if images.setdefault(id(source), target) is not target:
            return None
    return images


def _step_images(axis: Axis, target: PatternNode):
    """The contained nodes a container edge of ``axis`` leaving ``target``
    may map to: a ``/`` edge to a ``/`` edge, a ``//`` edge to any downward
    path of one or more edges."""
    if axis is Axis.CHILD:
        return [node for node in target.children if node.axis is Axis.CHILD]
    return itertools.islice(target.iter_subtree(), 1, None)


def _homomorphism_exists(contained: TreePattern, container: TreePattern) -> bool:
    """Is there a map from ``container`` into ``contained`` that keeps labels
    (``*`` maps anywhere), maps the i-th return node to the i-th, maps edges
    per :func:`_step_images`, and sends every node to one whose formula
    implies its own?

    Composing such a map with any embedding of the contained pattern embeds
    the container with the same return tuple, on every tree — so the map
    proves containment on every document, and therefore under any summary
    (Miklau & Suciu, JACM 2004).  Pairs are memoised, so the check is
    polynomial in the two pattern sizes.
    """
    images = _return_images(contained, container)
    if images is None:
        return False
    memo: dict[tuple[int, int], bool] = {}

    def maps(source: PatternNode, target: PatternNode) -> bool:
        key = (id(source), id(target))
        answer = memo.get(key)
        if answer is None:
            answer = memo[key] = (
                source.label in ("*", target.label)
                and images.get(id(source), target) is target
                and target.effective_predicate.implies(source.effective_predicate)
                and all(
                    any(maps(child, image) for image in _step_images(child.axis, target))
                    for child in source.children
                )
            )
        return answer

    return maps(container.root, contained.root)


# --------------------------------------------------------------------------- #
# the summary chase of the contained pattern
# --------------------------------------------------------------------------- #
def _chain_between(index: SummaryIndex, upper: int, lower: int) -> tuple[int, ...]:
    """Summary numbers strictly between ``upper`` and its descendant
    ``lower``, top-down."""
    chain = []
    number = index.parent(lower)
    while number != upper:
        chain.append(number)
        number = index.parent(number)
    chain.reverse()
    return tuple(chain)


def _shared_steps(
    chains: list[tuple[int, ...]], index: SummaryIndex
) -> tuple[list[frozenset[int]], list[frozenset[int]], bool]:
    """The steps every summary chain of a ``//`` edge starts and ends with.

    Returns ``(prefix, suffix, fixed)``: one path set per shared step,
    top-down, for the label prefix and the label suffix common to every
    chain (never overlapping inside the shortest one), and whether every
    chain carries the same labels — then the prefix is the whole chain and
    the edge becomes ``/`` steps only.
    """
    labels = [tuple(index.node(number).label for number in chain) for chain in chains]
    first = labels[0]
    fixed = all(sequence == first for sequence in labels)
    if fixed:
        prefix_length, suffix_length = len(first), 0
    else:
        shortest = min(map(len, labels))
        prefix_length = 0
        while prefix_length < shortest and all(
            sequence[prefix_length] == first[prefix_length] for sequence in labels
        ):
            prefix_length += 1
        suffix_length = 0
        while prefix_length + suffix_length < shortest and all(
            sequence[-1 - suffix_length] == first[-1 - suffix_length]
            for sequence in labels
        ):
            suffix_length += 1
    prefix = [frozenset(chain[i] for chain in chains) for i in range(prefix_length)]
    suffix = [
        frozenset(chain[len(chain) - suffix_length + i] for chain in chains)
        for i in range(suffix_length)
    ]
    return prefix, suffix, fixed


def _chase_chain(node: PatternNode, index: SummaryIndex) -> None:
    """Insert, as ``/`` nodes, the steps the summary fixes on the ``//``
    edge above ``node`` (over every related pair of annotated paths)."""
    parent = node.parent
    chains = [
        _chain_between(index, upper, lower)
        for lower in sorted(node.annotated_paths)
        for upper in sorted(parent.annotated_paths & index.ancestors(lower))
    ]
    prefix, suffix, fixed = _shared_steps(chains, index)
    steps = [(paths, Axis.CHILD) for paths in prefix]
    below = Axis.CHILD if fixed else Axis.DESCENDANT
    for paths in suffix:
        steps.append((paths, below))
        below = Axis.CHILD
    node.axis = below
    if not steps:
        return
    slot = next(i for i, child in enumerate(parent.children) if child is node)
    current = parent
    for paths, axis in steps:
        step = PatternNode(index.node(min(paths)).label, axis=axis)
        step.annotated_paths = paths
        if current is parent:
            parent.children[slot] = step
        else:
            current.children.append(step)
        step.parent = current
        current = step
    node.parent = current
    current.children.append(node)


def _strong_children(
    paths: frozenset[int], index: SummaryIndex, labels: Optional[frozenset[str]]
) -> dict[str, frozenset[int]]:
    """Label → children, for the labels (among ``labels``; None means any)
    that every summary node in ``paths`` has a strong child with."""
    shared: Optional[dict[str, list[int]]] = None
    for number in paths:
        strong = {
            child.label: child.number
            for child in index.node(number).children
            if child.strong and (labels is None or child.label in labels)
        }
        if shared is None:
            shared = {label: [child] for label, child in strong.items()}
        else:
            shared = {
                label: numbers + [strong[label]]
                for label, numbers in shared.items()
                if label in strong
            }
        if not shared:
            return {}
    return {label: frozenset(numbers) for label, numbers in (shared or {}).items()}


def _chase_strong(
    node: PatternNode, index: SummaryIndex, labels: Optional[frozenset[str]]
) -> None:
    """Give ``node`` a ``/`` child for every strong child all its annotated
    paths share, and recurse into each new child."""
    present = {child.label for child in node.children if child.axis is Axis.CHILD}
    for label, paths in _strong_children(node.annotated_paths, index, labels).items():
        if label in present:
            continue
        child = PatternNode(label, axis=Axis.CHILD)
        child.annotated_paths = paths
        child.parent = node
        node.children.append(child)
        _chase_strong(child, index, labels)


def _summary_chase(
    annotated: TreePattern, index: SummaryIndex, labels: Optional[frozenset[str]]
) -> TreePattern:
    """``chase_S(p)`` in place, on an annotated copy of a satisfiable plain
    pattern: every ``//`` edge gains the steps the summary fixes on it, then
    every node the strong children all its paths share (only labels in
    ``labels``).  Every embedding of ``p`` into a document conforming to the
    summary extends to one of the chase (``docs/containment.md``)."""
    for node in annotated.nodes():
        if node.axis is Axis.DESCENDANT:
            _chase_chain(node, index)
    for node in annotated.nodes():
        _chase_strong(node, index, labels)
    return annotated


def _fast_decision(
    contained: TreePattern, container: TreePattern, summary: Summary
) -> Optional[tuple[str, ContainmentDecision]]:
    """``(decider, decision)`` from a decider that needs no canonical model,
    or None when neither applies and the canonical model must decide."""
    if not (_plain(contained) and _plain(container)):
        return None
    annotated = annotate_paths(contained.copy(), summary)
    satisfiable = bool(annotated.root.annotated_paths)
    if satisfiable and _ancestry_refutes(contained, container):
        return "ancestry_negative", ContainmentDecision(
            False,
            "ancestry_negative: the container relates two return nodes as "
            "ancestor and descendant that the contained pattern does not",
        )
    target = contained
    if satisfiable:
        labels = frozenset(node.label for node in container.nodes())
        target = _summary_chase(
            annotated, summary.index, None if "*" in labels else labels
        )
    if _homomorphism_exists(target, container):
        return "homomorphism", ContainmentDecision(
            True,
            "homomorphism: the container maps into the summary chase of the "
            "contained pattern, keeping labels, return order, edges and formulas",
        )
    return None


# --------------------------------------------------------------------------- #
# single containment
# --------------------------------------------------------------------------- #
def containment_decision(
    contained: TreePattern,
    container: TreePattern,
    summary: Summary,
    check_attributes: bool = True,
) -> ContainmentDecision:
    """Full containment test ``contained ⊆S container`` with statistics.

    Decisions are memoised in the process-wide :class:`ContainmentCache`,
    which also counts which decider answered each uncached one.
    """
    cache_key = _cache_key(
        "single",
        pattern_key(contained),
        pattern_key(container),
        summary_token(summary),
        check_attributes,
    )
    cached = _CACHE.lookup(cache_key)
    if cached is not None:
        return cached
    decision = _containment_decision_uncached(
        contained, container, summary, check_attributes
    )
    _CACHE.store(cache_key, decision)
    return decision


def _containment_decision_uncached(
    contained: TreePattern,
    container: TreePattern,
    summary: Summary,
    check_attributes: bool,
) -> ContainmentDecision:
    failure = _structural_preconditions(
        contained, container, summary, check_attributes
    )
    if failure is not None:
        return _CACHE.decided("preconditions", ContainmentDecision(False, failure))
    fast = _fast_decision(contained, container, summary)
    if fast is not None:
        return _CACHE.decided(*fast)
    return _CACHE.decided(
        "canonical", _canonical_decision(contained, container, summary, None)
    )


def canonical_containment_decision(
    contained: TreePattern,
    container: TreePattern,
    summary: Summary,
    check_attributes: bool = True,
    max_trees: Optional[int] = None,
) -> ContainmentDecision:
    """``contained ⊆S container`` by the paper's decider alone: the
    structural pre-conditions, then every canonical tree (Prop. 3.1).

    Neither memoised nor counted, and no fast decider answers first: this is
    what the Figure 13/14 harnesses time and what the fast deciders are
    tested against.  ``max_trees`` caps the enumeration; a model that
    exceeds it raises :class:`ContainmentError` instead of deciding.
    """
    failure = _structural_preconditions(
        contained, container, summary, check_attributes
    )
    if failure is not None:
        return ContainmentDecision(False, failure)
    return _canonical_decision(contained, container, summary, max_trees)


def _canonical_decision(
    contained: TreePattern,
    container: TreePattern,
    summary: Summary,
    max_trees: Optional[int],
) -> ContainmentDecision:
    checked = 0
    for tree in iter_canonical_model(contained, summary, deadline=_deadline):
        checked += 1
        _check_deadline()
        if max_trees is not None and checked > max_trees:
            raise ContainmentError(
                f"canonical model of {contained.name!r} exceeds {max_trees} trees"
            )
        # the deadline must tick *inside* the evaluation too: one decorated
        # evaluation over an adversarial (pattern, tree) pair can cost more
        # than every other step of the test combined
        tick = _check_deadline if _deadline is not None else None
        left_tuples = evaluate_node_tuples(
            contained, tree.index, EmbeddingMode.DECORATED, tick=tick
        )
        right_tuples = evaluate_node_tuples(
            container, tree.index, EmbeddingMode.DECORATED, tick=tick
        )
        if not left_tuples <= right_tuples:
            return ContainmentDecision(
                False,
                "canonical: a canonical tree of the contained pattern has a "
                "result tuple the container does not produce (Prop. 3.1 "
                "condition 3)",
                checked,
            )
    if checked == 0:
        # an S-unsatisfiable pattern is contained in anything of the same shape
        return ContainmentDecision(
            True, "canonical: contained pattern is S-unsatisfiable", 0
        )
    return ContainmentDecision(True, "canonical: all canonical trees pass", checked)


def is_contained(
    contained: TreePattern,
    container: TreePattern,
    summary: Summary,
    check_attributes: bool = True,
) -> bool:
    """``contained ⊆S container`` (Definition 3.1 plus the Section 4 extensions)."""
    return containment_decision(
        contained, container, summary, check_attributes=check_attributes
    ).contained


# --------------------------------------------------------------------------- #
# union containment
# --------------------------------------------------------------------------- #
def is_contained_in_union(
    contained: TreePattern,
    containers: Sequence[TreePattern],
    summary: Summary,
    check_attributes: bool = True,
) -> bool:
    """``contained ⊆S containers[0] ∪ ... ∪ containers[m-1]`` (Prop. 3.2).

    When value predicates are present, the value-coverage condition of
    Section 4.2 is verified on top of the structural membership condition.
    Results are memoised like single containment decisions; the union pass
    of the rewriting search re-asks the same subset questions constantly.
    """
    cache_key = _cache_key(
        "union",
        pattern_key(contained),
        tuple(pattern_key(container) for container in containers),
        summary_token(summary),
        check_attributes,
    )
    cached = _CACHE.lookup(cache_key)
    if cached is not None:
        return cached
    result = _is_contained_in_union_uncached(
        contained, containers, summary, check_attributes
    )
    _CACHE.store(cache_key, result)
    return result


def _is_contained_in_union_uncached(
    contained: TreePattern,
    containers: Sequence[TreePattern],
    summary: Summary,
    check_attributes: bool = True,
) -> bool:
    if not containers:
        return not _has_canonical_tree(contained, summary)

    eligible = [
        container
        for container in containers
        if _structural_preconditions(contained, container, summary, check_attributes)
        is None
    ]
    if not eligible:
        return False
    if len(eligible) == 1:
        return containment_decision(
            contained, eligible[0], summary, check_attributes=check_attributes
        ).contained

    any_predicates = contained.has_predicates() or any(
        container.has_predicates() for container in eligible
    )
    stripped = [_strip_predicates(container) for container in eligible]
    container_models: Optional[list[list[CanonicalTree]]] = None

    for tree in iter_canonical_model(contained, summary, deadline=_deadline):
        _check_deadline()
        tick = _check_deadline if _deadline is not None else None
        left_tuples = evaluate_node_tuples(
            contained, tree.index, EmbeddingMode.DECORATED, tick=tick
        )
        # each container's tuples depend only on (container, tree) — compute
        # them once per tree, not once per left tuple
        container_tuples = [
            evaluate_node_tuples(
                container, tree.index, EmbeddingMode.DECORATED, tick=tick
            )
            for container in stripped
        ] if left_tuples else []
        matching_indexes: set[int] = set()
        for tuple_ in left_tuples:
            found = False
            for index, right_tuples in enumerate(container_tuples):
                if tuple_ in right_tuples:
                    matching_indexes.add(index)
                    found = True
            if not found:
                return False
        if not any_predicates:
            continue

        # Section 4.2 condition 2: the formulas of this canonical tree must be
        # covered by the disjunction of the formulas of the matching
        # containers' canonical trees with the same return paths.
        if container_models is None:
            container_models = [
                list(iter_canonical_model(container, summary, deadline=_deadline))
                for container in eligible
            ]
        same_return = []
        for index in matching_indexes:
            for candidate in container_models[index]:
                if candidate.return_paths() == tree.return_paths():
                    same_return.append(candidate)
        if not implies_disjunction(
            tree_formula(tree), [tree_formula(candidate) for candidate in same_return]
        ):
            return False
    return True


def _has_canonical_tree(pattern: TreePattern, summary: Summary) -> bool:
    for _ in iter_canonical_model(pattern, summary, deadline=_deadline):
        return True
    return False


# --------------------------------------------------------------------------- #
# equivalence
# --------------------------------------------------------------------------- #
def are_equivalent(
    left: TreePattern,
    right: TreePattern,
    summary: Summary,
    check_attributes: bool = True,
) -> bool:
    """``left ≡S right``: two-way containment."""
    return is_contained(
        left, right, summary, check_attributes=check_attributes
    ) and is_contained(right, left, summary, check_attributes=check_attributes)
