"""Aligning a rewrite candidate with the query.

Given a candidate (plan, pattern) pair and the query pattern, alignment

1. chooses, for every query return node, a candidate node that can play its
   role — guided by Proposition 3.7 (associated paths must be a subset of the
   query node's paths) and by attribute availability,
2. applies the Section 4.6 adaptations: label / value selections when the
   candidate node is more general than the query node, unnest when the
   candidate nests more than the query, group-by (on a stored ID) when the
   query nests more than the candidate,
3. tests S-equivalence of the adapted pattern with the query
   (Propositions 3.1 / 4.1 / 4.2) — between plain patterns, an assignment
   whose return nodes relate as ancestor and descendant differently from the
   query's is refused before the pattern is built — and
4. on success assembles the final executable plan: lazy-column
   materialisation, selections, nesting adaptation and the final projection
   renamed to the query's output schema.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.algebra.operators import (
    GroupBy,
    NestedProjection,
    PlanOperator,
    Projection,
    Selection,
)
from repro.containment.core import (
    are_equivalent,
    is_contained,
    is_plain,
    return_ancestry_differs,
)
from repro.patterns.pattern import PatternNode, TreePattern
from repro.patterns.predicates import ValueFormula
from repro.patterns.semantics import pattern_schema
from repro.rewriting.candidates import RewriteCandidate
from repro.rewriting.fusion import copy_with_map
from repro.summary.dataguide import Summary

__all__ = ["AlignmentResult", "align_candidate"]

# Bound on the number of return-node assignments explored per candidate.
_MAX_ASSIGNMENTS = 48


@dataclass
class AlignmentResult:
    """A successful alignment: an executable, S-equivalent rewriting."""

    plan: PlanOperator
    pattern: TreePattern
    candidate: RewriteCandidate
    uses_group_by: bool = False
    uses_unnest: bool = False


@dataclass
class _QueryTarget:
    """One query return node and what the rewriting must supply for it."""

    node: PatternNode
    attributes: tuple[str, ...]
    nesting_depth: int
    position: int


def _query_targets(query: TreePattern) -> list[_QueryTarget]:
    targets = []
    for position, node in enumerate(query.return_nodes()):
        attributes = node.attributes if node.attributes else ("ID",)
        targets.append(
            _QueryTarget(
                node=node,
                attributes=attributes,
                nesting_depth=node.nesting_depth(),
                position=position,
            )
        )
    return targets


def _candidate_options(
    candidate: RewriteCandidate, target: _QueryTarget, summary: Summary
) -> list[PatternNode]:
    """Candidate nodes able to play the role of one query return node."""
    options: list[PatternNode] = []
    target_paths = target.node.annotated_paths or frozenset()
    for node in candidate.pattern.nodes():
        node_paths = node.annotated_paths or frozenset()
        if not node_paths or not target_paths:
            continue
        available = candidate.available_attributes(node)
        if not set(target.attributes) <= available:
            continue
        depth = node.nesting_depth()
        if depth != target.nesting_depth and not (
            (depth == 0 and target.nesting_depth == 1)
            or (depth == 1 and target.nesting_depth == 0)
        ):
            continue
        if node_paths <= target_paths:
            options.append(node)
            continue
        # Prop. 3.7 fails as-is, but a label selection can restrict the node
        if target.node.label != "*" and "L" in available:
            restricted = frozenset(
                number
                for number in node_paths
                if summary.node_by_number(number).label == target.node.label
            )
            if restricted and restricted <= target_paths:
                options.append(node)
    return options


def align_candidate(
    candidate: RewriteCandidate,
    query: TreePattern,
    summary: Summary,
    containment_only: bool = False,
    deadline: Optional[float] = None,
) -> Optional[AlignmentResult]:
    """Try to turn ``candidate`` into a rewriting of ``query``.

    With ``containment_only`` the equivalence requirement is relaxed to
    ``candidate ⊆S query``; such partial rewritings are the building blocks
    of union plans (Algorithm 1, lines 13-14).  ``deadline`` is handed to
    every containment test (see :func:`~repro.containment.core.is_contained`).
    """
    targets = _query_targets(query)
    if not targets:
        return None
    option_lists = [
        _candidate_options(candidate, target, summary) for target in targets
    ]
    if any(not options for options in option_lists):
        return None

    # an equivalence test between two plain patterns, the query satisfiable,
    # fails on a return-ancestry mismatch (docs/containment.md)
    refuse_ancestry = (
        not containment_only
        and bool(query.root.annotated_paths)
        and is_plain(query)
        and is_plain(candidate.pattern)
    )
    assignments = itertools.islice(
        itertools.product(*option_lists), _MAX_ASSIGNMENTS
    )
    for assignment in assignments:
        result = _try_assignment(
            candidate, query, summary, targets, assignment, containment_only,
            refuse_ancestry, deadline,
        )
        if result is not None:
            return result
    return None


# --------------------------------------------------------------------------- #
# one assignment
# --------------------------------------------------------------------------- #
def _try_assignment(
    candidate: RewriteCandidate,
    query: TreePattern,
    summary: Summary,
    targets: list[_QueryTarget],
    assignment: tuple[PatternNode, ...],
    containment_only: bool,
    refuse_ancestry: bool,
    deadline: Optional[float],
) -> Optional[AlignmentResult]:
    # two plain patterns need no nesting adaptation: the equivalence test
    # would answer the ancestry negative, so answer it before anything is built
    if refuse_ancestry and return_ancestry_differs(
        [target.node for target in targets], assignment
    ):
        return None
    # classify the nesting adaptation needed
    needs_group_by = False
    needs_unnest = False
    for target, node in zip(targets, assignment):
        depth = node.nesting_depth()
        if depth == target.nesting_depth:
            continue
        if depth == 0 and target.nesting_depth == 1:
            needs_group_by = True
        elif depth == 1 and target.nesting_depth == 0:
            needs_unnest = True
    if needs_group_by and needs_unnest:
        return None
    if needs_group_by and not _group_by_applicable(query, targets, assignment):
        return None

    # ---- build the aligned pattern --------------------------------------- #
    aligned, node_map = copy_with_map(candidate.pattern)
    selections: list[tuple[PatternNode, str, ValueFormula]] = []  # (orig node, attr, formula)

    selected_new_nodes = {id(node_map[id(node)]) for node in assignment}
    for node in aligned.nodes():
        if id(node) not in selected_new_nodes:
            node.attributes = ()
            node.is_return = False

    for target, original_node in zip(targets, assignment):
        new_node = node_map[id(original_node)]
        new_node.attributes = tuple(target.attributes) if target.node.attributes else ()
        new_node.is_return = True

        # label adaptation (sigma on the L column)
        if new_node.label == "*" and target.node.label != "*":
            if candidate.has_attribute(original_node, "L"):
                new_node.label = target.node.label
                selections.append(
                    (original_node, "L", ValueFormula.eq(target.node.label))
                )
        # value-predicate adaptation (sigma on the V column)
        query_formula = target.node.effective_predicate
        own_formula = new_node.effective_predicate
        if not own_formula.implies(query_formula):
            if candidate.has_attribute(original_node, "V"):
                new_node.predicate = own_formula.and_(query_formula)
                selections.append((original_node, "V", query_formula))

    # output columns must line up positionally with the query's return nodes
    aligned.set_return_order([node_map[id(node)] for node in assignment])

    if needs_unnest:
        for target, original_node in zip(targets, assignment):
            if original_node.nesting_depth() == 1 and target.nesting_depth == 0:
                _clear_enclosing_nesting(node_map[id(original_node)])

    # ---- equivalence / containment test ----------------------------------- #
    if needs_group_by:
        query_for_test = query.unnested_version()
        aligned_for_test = aligned.unnested_version()
    else:
        query_for_test = query
        aligned_for_test = aligned
    if containment_only:
        if not is_contained(aligned_for_test, query_for_test, summary, deadline=deadline):
            return None
    else:
        if not are_equivalent(aligned_for_test, query_for_test, summary, deadline=deadline):
            return None

    # ---- assemble the executable plan ------------------------------------- #
    plan_result = _assemble_plan(
        candidate, query, targets, assignment, selections, needs_group_by
    )
    if plan_result is None:
        return None
    return AlignmentResult(
        plan=plan_result,
        pattern=aligned,
        candidate=candidate,
        uses_group_by=needs_group_by,
        uses_unnest=needs_unnest,
    )


def _group_by_applicable(
    query: TreePattern,
    targets: list[_QueryTarget],
    assignment: tuple[PatternNode, ...],
) -> bool:
    """Group-by adaptation prerequisites (Section 4.6).

    Every nested edge of the query must hang directly below a depth-0 return
    node that stores an ID (the grouping key), and no query return node may be
    nested more than one level deep.
    """
    outer_with_id = {
        id(target.node)
        for target in targets
        if target.nesting_depth == 0 and "ID" in target.attributes
    }
    for node in query.nodes():
        if node.parent is not None and node.nested:
            if id(node.parent) not in outer_with_id:
                return False
    return all(target.nesting_depth <= 1 for target in targets)


def _clear_enclosing_nesting(node: PatternNode) -> None:
    current = node
    while current.parent is not None:
        if current.nested:
            current.nested = False
            return
        current = current.parent


# --------------------------------------------------------------------------- #
# plan assembly
# --------------------------------------------------------------------------- #
def _assemble_plan(
    candidate: RewriteCandidate,
    query: TreePattern,
    targets: list[_QueryTarget],
    assignment: tuple[PatternNode, ...],
    selections: list[tuple[PatternNode, str, ValueFormula]],
    needs_group_by: bool,
) -> Optional[PlanOperator]:
    query_columns, query_schema = pattern_schema(query)
    current = candidate

    # selections first (they may need lazily derived columns)
    selection_specs: list[tuple[str, ValueFormula]] = []
    for node, attribute, formula in selections:
        current, column = current.ensure_column(node, attribute)
        selection_specs.append((column, formula))

    # figure out which concrete column backs every (query return node, attr)
    outer_projection: list[tuple[str, str]] = []  # (candidate column, query column)
    nested_groups: dict[str, list[tuple[str, str]]] = {}
    group_by_nested: list[tuple[str, str]] = []

    for target, node in zip(targets, assignment):
        query_cols = query_schema.node_columns.get(id(target.node), [])
        for query_column in query_cols:
            attribute = query_column.kind if query_column.kind != "NODE" else "ID"
            node_depth = node.nesting_depth()
            if target.nesting_depth == 0 or (needs_group_by and node_depth == 0):
                current, column = current.ensure_column(node, attribute)
                if target.nesting_depth == 1 and needs_group_by:
                    group_by_nested.append((column, query_column.name))
                else:
                    outer_projection.append((column, query_column.name))
            else:
                # matched nesting: pass the enclosing group column through,
                # projected onto the requested inner columns
                key = candidate.lazy.get((id(node), attribute))
                if key is None or key.kind != "unnest":
                    return None
                group_name = _query_group_name(target.node, query_schema)
                if group_name is None:
                    return None
                nested_groups.setdefault(key.source_column, []).append(
                    (key.inner_name, query_column.name)
                )
                outer_projection.append((key.source_column, group_name))

    plan = current.plan
    for column, formula in selection_specs:
        plan = Selection(child=plan, column=column, formula=formula)

    # group-by adaptation: nest the inner columns under the outer key columns
    if needs_group_by:
        group_name = _first_query_group_name(query_schema)
        if group_name is None:
            return None
        keys = [column for column, _ in outer_projection]
        plan = GroupBy(
            child=plan,
            key_columns=keys,
            nested_columns=[column for column, _ in group_by_nested],
            group_column=group_name,
        )
        nested_groups.setdefault(group_name, []).extend(group_by_nested)
        outer_projection.append((group_name, group_name))

    # project inside passed-through nested columns
    for group_column, inner in nested_groups.items():
        plan = NestedProjection(
            child=plan,
            nested_column=group_column,
            columns=[name for name, _ in inner],
            renames={name: target for name, target in inner},
        )

    # final projection in query column order (deduplicating repeated sources)
    ordered: list[tuple[str, str]] = []
    for query_column in query_columns:
        for source, target in outer_projection:
            if target == query_column.name:
                ordered.append((source, target))
                break
        else:
            return None
    seen_sources: list[str] = []
    renames: dict[str, str] = {}
    for source, target in ordered:
        if source not in seen_sources:
            seen_sources.append(source)
        renames[source] = target
    plan = Projection(child=plan, columns=seen_sources, renames=renames)
    return plan


def _query_group_name(node: PatternNode, query_schema) -> Optional[str]:
    """Name of the query's nested group column containing ``node``."""
    current = node
    while current.parent is not None:
        if current.nested:
            for descendant in current.iter_subtree():
                index = query_schema.return_index.get(id(descendant))
                if index is not None:
                    return f"A{index}"
            return None
        current = current.parent
    return None


def _first_query_group_name(query_schema) -> Optional[str]:
    names = sorted(query_schema.nested_schemas)
    return names[0] if names else None
