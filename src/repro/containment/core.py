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

Every answer is memoised in the summary's
:attr:`~repro.summary.dataguide.Summary.containment_memo`; a caller with a
time budget passes ``deadline`` (a ``time.perf_counter()`` instant) and a
test that crosses it raises :class:`ContainmentBudgetExceeded` unmemoised.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.caching import clear_containment_cache, containment_cache
from repro.canonical.hashing import pattern_key
from repro.canonical.model import annotate_paths, iter_canonical_model
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
    "ContainmentDecision",
    "canonical_containment_decision",
    "clear_containment_cache",
    "containment_cache",
    "is_contained",
    "is_contained_in_union",
    "are_equivalent",
]


def _ticker(deadline: Optional[float]) -> Optional[Callable[[], None]]:
    """A check that raises :class:`ContainmentBudgetExceeded` once the
    ``time.perf_counter()`` instant ``deadline`` has passed (None: no
    deadline, no check)."""
    if deadline is None:
        return None

    def tick() -> None:
        if time.perf_counter() > deadline:
            raise ContainmentBudgetExceeded(
                "containment test aborted: caller's time budget exhausted"
            )

    return tick


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
def is_plain(pattern: TreePattern) -> bool:
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


def return_ancestry_differs(
    left: Sequence[PatternNode], right: Sequence[PatternNode]
) -> bool:
    """Are some return nodes ``i`` and ``j`` proper ancestor and descendant
    in one of two equally long return-node lists and not in the other?

    Between two plain patterns ``p`` and ``q`` with these return nodes, one
    S-satisfiable, that refutes ``p ≡S q``: :func:`_ancestry_refutes` fails
    the containment into the pattern that relates them whenever the other
    is satisfiable, and a satisfiable pattern is not contained in an
    unsatisfiable one.
    """
    pairs = range(len(left))
    return any(
        i != j
        and _is_proper_ancestor(left[i], left[j])
        != _is_proper_ancestor(right[i], right[j])
        for i in pairs
        for j in pairs
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
    if not (is_plain(contained) and is_plain(container)):
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
    deadline: Optional[float] = None,
) -> ContainmentDecision:
    """Full containment test ``contained ⊆S container`` with statistics.

    Decisions are memoised in the summary's
    :attr:`~repro.summary.dataguide.Summary.containment_memo`, which also
    counts which decider answered each uncached one.  ``deadline`` is a
    ``time.perf_counter()`` instant: a canonical-model test that crosses it
    raises :class:`ContainmentBudgetExceeded` (patterns with many optional
    edges have exponentially many canonical trees, so an uninterruptible
    test would defeat any search time budget) and stores nothing.
    """
    memo = summary.containment_memo
    key = ("single", pattern_key(contained), pattern_key(container), check_attributes)
    cached = memo.decisions.lookup(key)
    if cached is not None:
        return cached
    decider, decision = _decide(contained, container, summary, check_attributes, deadline)
    memo.deciders[decider] += 1
    memo.decisions.store(key, decision)
    return decision


def _decide(
    contained: TreePattern,
    container: TreePattern,
    summary: Summary,
    check_attributes: bool,
    deadline: Optional[float],
) -> tuple[str, ContainmentDecision]:
    """``(decider, decision)`` for one uncached question."""
    failure = _structural_preconditions(
        contained, container, summary, check_attributes
    )
    if failure is not None:
        return "preconditions", ContainmentDecision(False, failure)
    fast = _fast_decision(contained, container, summary)
    if fast is not None:
        return fast
    return "canonical", _canonical_decision(
        contained, container, summary, None, deadline
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
    return _canonical_decision(contained, container, summary, max_trees, None)


def _canonical_decision(
    contained: TreePattern,
    container: TreePattern,
    summary: Summary,
    max_trees: Optional[int],
    deadline: Optional[float],
) -> ContainmentDecision:
    # the deadline ticks inside each evaluation too: one decorated
    # evaluation over an adversarial (pattern, tree) pair can cost more than
    # every other step of the test combined
    tick = _ticker(deadline)
    checked = 0
    for tree in iter_canonical_model(contained, summary, deadline=deadline):
        checked += 1
        if tick is not None:
            tick()
        if max_trees is not None and checked > max_trees:
            raise ContainmentError(
                f"canonical model of {contained.name!r} exceeds {max_trees} trees"
            )
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
    deadline: Optional[float] = None,
) -> bool:
    """``contained ⊆S container`` (Definition 3.1 plus the Section 4 extensions)."""
    return containment_decision(
        contained, container, summary, check_attributes, deadline
    ).contained


# --------------------------------------------------------------------------- #
# union containment
# --------------------------------------------------------------------------- #
def is_contained_in_union(
    contained: TreePattern,
    containers: Sequence[TreePattern],
    summary: Summary,
    check_attributes: bool = True,
    deadline: Optional[float] = None,
) -> bool:
    """``contained ⊆S containers[0] ∪ ... ∪ containers[m-1]`` (Prop. 3.2).

    When value predicates are present, the value-coverage condition of
    Section 4.2 is verified on top of the structural membership condition.
    Results are memoised like single containment decisions, and
    ``deadline`` aborts them the same way; the union pass of the rewriting
    search re-asks the same subset questions constantly.
    """
    memo = summary.containment_memo
    key = (
        "union",
        pattern_key(contained),
        tuple(pattern_key(container) for container in containers),
        check_attributes,
    )
    cached = memo.decisions.lookup(key)
    if cached is not None:
        return cached
    result = _is_contained_in_union_uncached(
        contained, containers, summary, check_attributes, deadline
    )
    memo.decisions.store(key, result)
    return result


def _is_contained_in_union_uncached(
    contained: TreePattern,
    containers: Sequence[TreePattern],
    summary: Summary,
    check_attributes: bool,
    deadline: Optional[float],
) -> bool:
    if not containers:
        tree = next(iter_canonical_model(contained, summary, deadline=deadline), None)
        return tree is None

    eligible = [
        container
        for container in containers
        if _structural_preconditions(contained, container, summary, check_attributes)
        is None
    ]
    if not eligible:
        return False
    if len(eligible) == 1:
        return is_contained(contained, eligible[0], summary, check_attributes, deadline)

    any_predicates = contained.has_predicates() or any(
        container.has_predicates() for container in eligible
    )
    stripped = [_strip_predicates(container) for container in eligible]
    container_models: Optional[list[list[CanonicalTree]]] = None

    tick = _ticker(deadline)
    for tree in iter_canonical_model(contained, summary, deadline=deadline):
        if tick is not None:
            tick()
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
                list(iter_canonical_model(container, summary, deadline=deadline))
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


# --------------------------------------------------------------------------- #
# equivalence
# --------------------------------------------------------------------------- #
def are_equivalent(
    left: TreePattern,
    right: TreePattern,
    summary: Summary,
    check_attributes: bool = True,
    deadline: Optional[float] = None,
) -> bool:
    """``left ≡S right``: two-way containment."""
    return is_contained(left, right, summary, check_attributes, deadline) and (
        is_contained(right, left, summary, check_attributes, deadline)
    )
