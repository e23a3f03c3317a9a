"""The view-based rewriting search (Algorithm 1 plus the §4.6 adaptations).

The search manipulates :class:`RewriteCandidate` plan/pattern pairs:

1. **setup** — annotate the query and the view patterns with their associated
   summary paths, prune useless views (Prop. 3.4), unfold ``C`` attributes
   towards the query's paths and add virtual IDs (§4.6),
2. **single-view pass** — try to align every initial candidate with the query,
3. **join loop** — repeatedly join candidates from the working set ``M`` with
   initial candidates from ``M0`` (left-deep plans only, as in the paper),
   using identifier-equality and structural joins at path-compatible node
   pairs; every new pair is aligned with the query, and kept in ``M`` when it
   is new (Prop. 3.5) and small enough (Prop. 3.6 / the configured bound),
4. **union pass** — candidates that are strictly contained in the query are
   combined into union plans; minimal subsets whose union is S-equivalent to
   the query are reported (Algorithm 1, lines 13-14).

The search records timing milestones (setup, first rewriting, total) because
those are precisely the series reported in the paper's Figure 15.
"""

from __future__ import annotations

import itertools
import re
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from repro.algebra.operators import PlanOperator, UnionPlan, ViewScan
from repro.canonical.model import annotate_paths
from repro.containment.core import is_contained_in_union
from repro.errors import ContainmentBudgetExceeded, RewritingError
from repro.patterns.pattern import Axis, PatternNode, TreePattern
from repro.rewriting.alignment import AlignmentResult, align_candidate
from repro.rewriting.candidates import RewriteCandidate
from repro.rewriting.fusion import (
    copied_signatures,
    equality_shape,
    fuse_equality,
    fuse_structural,
    structural_shape,
)
from repro.rewriting.preprocessing import (
    add_virtual_ids,
    query_path_targets,
    unfold_content,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.views.catalog import ViewCatalog

__all__ = ["RewritingConfig", "RewritingStatistics", "Rewriting", "RewritingSearch"]

# Hard cap on the working set ``M``: a join result enters it only while the
# search has seen fewer candidate signatures than this.
_MAX_CANDIDATES = 4000
# Maximum number of branches in a union plan.
_MAX_UNION_SIZE = 3
# The generated numbers of scan aliases (``view@N``) and hints (``#N``) in
# a plan's text: two plans that differ only there are one rewriting.  (Two
# literal replacements keep ``sub`` in C; a group reference would not.)
_ALIAS_NUMBER = re.compile(r"@\d+")
_HINT_NUMBER = re.compile(r"#\d+")


@dataclass
class RewritingConfig:
    """Tuning knobs of the rewriting search."""

    max_plan_size: int = 12
    """Maximum number of view occurrences per join plan (Prop. 3.6 bound)."""

    max_rewritings: int = 8
    """Stop after this many equivalent rewritings have been found (1: the first)."""

    time_budget_seconds: Optional[float] = 20.0
    """Wall-clock budget for the whole search (None = unlimited)."""

    enable_unions: bool = True
    """Whether to build union plans from partial (contained) candidates."""


@dataclass
class RewritingStatistics:
    """Timing and search-space statistics (the Figure 15 series)."""

    setup_seconds: float = 0.0
    first_rewriting_seconds: Optional[float] = None
    total_seconds: float = 0.0
    views_before_pruning: int = 0
    views_after_pruning: int = 0
    candidates_explored: int = 0
    joins_attempted: int = 0
    rewritings_found: int = 0
    alignments_pruned: int = 0
    """Candidates skipped by the Prop. 3.7 attribute pre-filter before any
    containment test ran."""
    pairs_skipped_by_suppliers: int = 0
    """Join pairs skipped by the same Prop. 3.7 test *before* fusion: the
    views the plan-size bound still allows cannot supply every output
    attribute the two sides' views lack, so neither the joined candidate
    nor any extension of it could ever align."""
    fusions_skipped: int = 0
    """Fusions never built because their pattern's shape was already
    accepted in this search: Prop. 3.5 would have dropped them."""

    def search_counters(self) -> dict[str, int]:
        """The search-space counters ``EXPLAIN`` and ``Database.stats()`` export."""
        return {
            "candidates_explored": self.candidates_explored,
            "joins_attempted": self.joins_attempted,
            "alignments_pruned": self.alignments_pruned,
            "pairs_skipped_by_suppliers": self.pairs_skipped_by_suppliers,
            "fusions_skipped": self.fusions_skipped,
        }

    @property
    def pruning_ratio(self) -> float:
        """Fraction of views kept after Prop. 3.4 pruning."""
        if self.views_before_pruning == 0:
            return 0.0
        return self.views_after_pruning / self.views_before_pruning


@dataclass
class Rewriting:
    """One equivalent rewriting of the query."""

    plan: PlanOperator
    pattern: TreePattern
    views_used: tuple[str, ...]
    is_union: bool = False

    def describe(self) -> str:
        """Readable plan rendering."""
        return self.plan.describe()


class RewritingSearch:
    """One run of Algorithm 1 for a fixed query over a view catalog.

    The :class:`~repro.views.catalog.ViewCatalog` supplies the summary, its
    index and the views: Prop. 3.4 candidate views come from the catalog's
    inverted path index, and initial candidates are cloned from its
    pre-annotated prototypes, so no view is re-annotated per query.
    """

    def __init__(
        self,
        query: TreePattern,
        catalog: "ViewCatalog",
        config: Optional[RewritingConfig] = None,
    ):
        self.query = query.copy(name=query.name)
        self.catalog = catalog
        self.summary = catalog.summary
        self.index = catalog.index
        self.config = config or RewritingConfig()
        self.statistics = RewritingStatistics()
        self.rewritings: list[Rewriting] = []
        # (views used, plan text with generated numbers masked) per kept one
        self._recorded: set[tuple] = set()
        self._partial: list[tuple[RewriteCandidate, AlignmentResult]] = []
        self._seen_signatures: set = set()
        # unannotated signatures of the fusions _combine accepted (Prop. 3.5
        # would drop any later fusion with the same shape)
        self._accepted_shapes: set = set()
        # id(pattern) -> (pattern, copied subtree signatures, annotated
        # signature); the pattern is held so its id cannot be reused
        self._signatures: dict[int, tuple] = {}
        self._start_time = 0.0
        self._deadline: Optional[float] = None
        # the generated numbers of this search's scan aliases and column names
        self._numbers = itertools.count(1)
        # one bit per (query return node, required attribute) slot: the slots
        # each initial view supplies on a compatible path, and all of them
        # (0 until _suppliers_feasible computes them; per attribute, NOT per
        # set — see _lacks_supplier)
        self._slots_of: dict[str, int] = {}
        self._all_slots = 0
        # (missing slots, views left) -> can that many views supply them?
        self._cover_memo: dict[tuple[int, int], bool] = {}

    # ------------------------------------------------------------------ #
    # public entry point
    # ------------------------------------------------------------------ #
    def run(self) -> list[Rewriting]:
        """Run the search and return every rewriting found."""
        self._start_time = time.perf_counter()
        budget = self.config.time_budget_seconds
        # the deadline makes individual containment tests interruptible: a
        # single test over a join pattern with many optional edges can
        # otherwise enumerate 2^k canonical variants and outlive any
        # between-candidates budget check by hours
        self._deadline = self._start_time + budget if budget is not None else None
        initial = self._setup()
        self.statistics.setup_seconds = time.perf_counter() - self._start_time

        if not self._suppliers_feasible(initial):
            # no combination of views can supply some required output
            # attribute on a compatible path; Prop. 3.7 rules out every plan
            self.statistics.total_seconds = time.perf_counter() - self._start_time
            return self.rewritings

        working = list(initial)
        for candidate in initial:
            self._consider(candidate)
            if self._done():
                break

        if not self._done():
            self._join_loop(working, initial)
        if self.config.enable_unions and not self._done():
            self._union_pass()

        self.statistics.total_seconds = time.perf_counter() - self._start_time
        self.statistics.rewritings_found = len(self.rewritings)
        return self.rewritings

    # ------------------------------------------------------------------ #
    # setup
    # ------------------------------------------------------------------ #
    def _setup(self) -> list[RewriteCandidate]:
        annotate_paths(self.query, self.summary)
        targets = query_path_targets(self.query)
        self.statistics.views_before_pruning = len(self.catalog)
        initial: list[RewriteCandidate] = []
        for view, candidate in self.catalog.initial_candidates(self.query):
            candidate = replace(candidate, numbers=self._numbers)
            # capture both before the call: unfold_content mutates the
            # pattern in place (only the candidate wrapper is fresh)
            size_before = candidate.pattern.size
            lazy_before = candidate.lazy
            unfolded = unfold_content(candidate, targets, self.index)
            if unfolded.pattern.size != size_before or unfolded.lazy != lazy_before:
                # unfolding touched the pattern (new chains or retargeted
                # tips); recompute the path annotations it invalidated
                annotate_paths(unfolded.pattern, self.summary)
            candidate = add_virtual_ids(
                unfolded, self.index, view.id_scheme.derives_parent
            )
            initial.append(candidate)
        self.statistics.views_after_pruning = len(initial)
        return initial

    def _suppliers_feasible(self, initial: list[RewriteCandidate]) -> bool:
        """Prop. 3.7 in one pass over the initial candidates: fill the
        supplier slots and decide the seed's feasibility condition.

        The initial candidates are the only objects that show every
        attribute a view can supply — content unfolding and virtual IDs
        add some during setup — so both facts are read off them:

        * one slot per (query return node, required attribute); its bit is
          set in ``_slots_of`` for every view offering that attribute on a
          compatible path.  This is the sound granularity for candidate
          pruning: equality fusion merges the joined nodes and *pools their
          attributes*, so a join candidate can serve a return node no single
          member view covers alone — but every attribute on a fused node
          still traces back to some member view's node whose paths are a
          superset of the fused node's, so "each required attribute has a
          supplier among the candidate's views" remains a necessary
          condition (:meth:`_lacks_supplier`, :meth:`_cannot_cover`);
        * the feasibility verdict (seed semantics, unchanged): every query
          return node must have, in some view, a *single* node on compatible
          paths offering all its attributes.  This is knowingly
          conservative — a query answerable only by an attribute-pooling
          join is bailed here, exactly as the seed did; the identity tests
          pin this behaviour.
        """
        # per return node: its paths and its (attribute, slot bit) pairs
        wanted = []
        slot = 1
        for query_node in self.query.return_nodes():
            if not query_node.annotated_paths:
                return False
            bits = []
            for attribute in sorted(set(query_node.attributes) or {"ID"}):
                bits.append((attribute, slot))
                slot <<= 1
            wanted.append((query_node.annotated_paths, bits))
        self._all_slots = slot - 1
        whole = [False] * len(wanted)
        for candidate in initial:
            name = candidate.views_used[0]
            for node in candidate.pattern.nodes():
                if not node.annotated_paths:
                    continue
                available = None
                for position, (query_paths, bits) in enumerate(wanted):
                    if not node.annotated_paths & query_paths:
                        continue
                    if available is None:
                        available = candidate.available_attributes(node)
                    offered = [bit for attribute, bit in bits if attribute in available]
                    if offered:
                        self._slots_of[name] = self._slots_of.get(name, 0) | sum(offered)
                        whole[position] |= len(offered) == len(bits)
        return all(whole)

    # ------------------------------------------------------------------ #
    # join loop
    # ------------------------------------------------------------------ #
    def _join_loop(
        self, working: list[RewriteCandidate], initial: list[RewriteCandidate]
    ) -> None:
        frontier = list(working)
        while frontier and not self._done():
            new_candidates: list[RewriteCandidate] = []
            for left in frontier:
                for right in initial:
                    if self._done():
                        return
                    size = left.size + right.size
                    if size > self.config.max_plan_size:
                        continue
                    if self._cannot_cover(
                        left.views_used + right.views_used,
                        self.config.max_plan_size - size,
                    ):
                        # alignment would reject the joined candidate and
                        # every extension of it on their views alone: skip
                        # the fusions (copies, annotation, signature) too
                        self.statistics.pairs_skipped_by_suppliers += 1
                        continue
                    for joined in self._join_pair(left, right):
                        self._consider(joined)
                        if self._done():
                            return
                        if (
                            joined.size < self.config.max_plan_size
                            and len(self._seen_signatures) < _MAX_CANDIDATES
                        ):
                            new_candidates.append(joined)
            frontier = new_candidates

    def _join_pair(
        self, left: RewriteCandidate, right: RewriteCandidate
    ) -> list[RewriteCandidate]:
        """All join results of two candidates (Algorithm 1, lines 3-5)."""
        if right.views_used[0] in left.views_used:
            # ``left`` already scans this view (left-deep plans: its first
            # occurrence is the very ViewScan ``right`` holds), so the right
            # side must become a *fresh occurrence* — otherwise the join plan
            # references one ViewScan object twice and can never execute
            # (both inputs produce identical column names).  The pattern side
            # always copies, so only the plan / column bookkeeping is renamed.
            right = self._fresh_occurrence(right)
        results: list[RewriteCandidate] = []
        for left_node in left.pattern.nodes():
            if left_node.nesting_depth() > 0:
                continue
            left_paths = left_node.annotated_paths or frozenset()
            if not left_paths:
                continue
            for right_node in right.pattern.nodes():
                if right_node.nesting_depth() > 0:
                    continue
                right_paths = right_node.annotated_paths or frozenset()
                if not right_paths:
                    continue
                self.statistics.joins_attempted += 1
                if not (
                    left.has_attribute(left_node, "ID")
                    and right.has_attribute(right_node, "ID")
                ):
                    continue
                if self.index.any_equal(left_paths, right_paths):
                    fused = self._equality_candidate(left, left_node, right, right_node)
                    if fused is not None:
                        results.append(fused)
                if self.index.any_ancestor(left_paths, right_paths):
                    fused = self._structural_candidate(
                        left, left_node, right, right_node, Axis.DESCENDANT
                    )
                    if fused is not None:
                        results.append(fused)
                    if self.index.any_parent(left_paths, right_paths):
                        fused = self._structural_candidate(
                            left, left_node, right, right_node, Axis.CHILD
                        )
                        if fused is not None:
                            results.append(fused)
                if self.index.any_ancestor(right_paths, left_paths):
                    fused = self._structural_candidate(
                        right, right_node, left, left_node, Axis.DESCENDANT, swap=True
                    )
                    if fused is not None:
                        results.append(fused)
        return results

    @staticmethod
    def _fresh_occurrence(candidate: RewriteCandidate) -> RewriteCandidate:
        """Clone an initial candidate as a new occurrence of its view.

        A fresh scan alias is minted and every alias-qualified column name
        (materialised and lazy) is re-qualified through
        :meth:`RewriteCandidate.clone`.  Only initial candidates reach this
        point — their plan is a bare ``ViewScan`` — because joins always
        take their right input from ``M0``.
        """
        scan = candidate.plan
        if not isinstance(scan, ViewScan):  # pragma: no cover - defensive
            raise RewritingError(
                "only initial (single-scan) candidates can be re-instantiated"
            )
        new_alias = f"{scan.view_name}@{next(candidate.numbers)}"
        old_prefix = f"{scan.effective_alias}."
        new_prefix = f"{new_alias}."

        def requalify(name: str) -> str:
            return new_prefix + name[len(old_prefix):] if name.startswith(old_prefix) else name

        return candidate.clone(
            plan=ViewScan(view_name=scan.view_name, alias=new_alias),
            rename_column=requalify,
        )

    # ------------------------------------------------------------------ #
    # join construction helpers
    # ------------------------------------------------------------------ #
    def _equality_candidate(
        self,
        left: RewriteCandidate,
        left_node: PatternNode,
        right: RewriteCandidate,
        right_node: PatternNode,
    ) -> Optional[RewriteCandidate]:
        from repro.algebra.operators import IdEqualityJoin

        shape = equality_shape(
            left_node,
            self._signatures_of(left.pattern)[1],
            right_node,
            self._signatures_of(right.pattern)[1],
        )
        if self._skips(shape):
            self.statistics.fusions_skipped += 1
            return None
        left, left_column = left.ensure_column(left_node, "ID")
        right, right_column = right.ensure_column(right_node, "ID")
        fusion = fuse_equality(
            left.pattern, left_node, right.pattern, right_node, self.summary, self.index
        )
        if fusion is None:
            return None
        plan = IdEqualityJoin(
            left=left.plan,
            right=right.plan,
            left_column=left_column,
            right_column=right_column,
        )
        return self._combine(
            left, right, fusion.left_map, fusion.right_map, fusion.pattern, plan, shape
        )

    def _structural_candidate(
        self,
        upper: RewriteCandidate,
        upper_node: PatternNode,
        lower: RewriteCandidate,
        lower_node: PatternNode,
        axis: Axis,
        swap: bool = False,
    ) -> Optional[RewriteCandidate]:
        from repro.algebra.operators import StructuralJoin

        shape = structural_shape(
            upper_node,
            self._signatures_of(upper.pattern)[1],
            lower_node,
            self._signatures_of(lower.pattern)[1],
            axis,
        )
        if self._skips(shape):
            self.statistics.fusions_skipped += 1
            return None
        upper, upper_column = upper.ensure_column(upper_node, "ID")
        lower, lower_column = lower.ensure_column(lower_node, "ID")
        fusion = fuse_structural(
            upper.pattern,
            upper_node,
            lower.pattern,
            lower_node,
            axis,
            self.summary,
            self.index,
        )
        if fusion is None:
            return None
        plan = StructuralJoin(
            left=upper.plan,
            right=lower.plan,
            left_column=upper_column,
            right_column=lower_column,
            axis=axis,
        )
        return self._combine(
            upper, lower, fusion.left_map, fusion.right_map, fusion.pattern, plan, shape
        )

    def _signatures_of(self, pattern: TreePattern) -> tuple:
        """``(pattern, copied subtree signatures, annotated signature)`` of an
        input candidate's pattern, computed once per search."""
        entry = self._signatures.get(id(pattern))
        if entry is None:
            entry = self._signatures[id(pattern)] = (
                pattern,
                copied_signatures(pattern),
                pattern.root.signature(include_paths=True),
            )
        return entry

    def _skips(self, shape: Optional[tuple]) -> bool:
        """Prop. 3.5 before fusion: was a fusion of this shape — hence of
        this annotated signature — already accepted?"""
        return shape in self._accepted_shapes

    def _combine(
        self,
        left: RewriteCandidate,
        right: RewriteCandidate,
        left_map: dict[int, PatternNode],
        right_map: dict[int, PatternNode],
        pattern: TreePattern,
        plan,
        shape: tuple,
    ) -> Optional[RewriteCandidate]:
        """Assemble the candidate for a join, translating column bookkeeping."""
        # Prop. 3.5: the join must produce a genuinely new pattern
        signature = pattern.root.signature(include_paths=True)
        if signature == self._signatures_of(left.pattern)[2]:
            return None
        if signature == self._signatures_of(right.pattern)[2]:
            return None
        if signature in self._seen_signatures:
            return None
        self._seen_signatures.add(signature)
        self._accepted_shapes.add(shape)

        columns: dict[tuple[int, str], str] = {}
        lazy: dict = {}
        for (node_id, attribute), column in left.columns.items():
            target = left_map.get(node_id)
            if target is not None:
                columns[(id(target), attribute)] = column
        for (node_id, attribute), column in right.columns.items():
            target = right_map.get(node_id)
            if target is not None:
                columns.setdefault((id(target), attribute), column)
        for (node_id, attribute), spec in left.lazy.items():
            target = left_map.get(node_id)
            if target is not None and (id(target), attribute) not in columns:
                lazy[(id(target), attribute)] = spec
        for (node_id, attribute), spec in right.lazy.items():
            target = right_map.get(node_id)
            if target is not None and (id(target), attribute) not in columns:
                lazy.setdefault((id(target), attribute), spec)

        self.statistics.candidates_explored += 1
        return RewriteCandidate(
            plan=plan,
            pattern=pattern,
            numbers=left.numbers,
            columns=columns,
            lazy=lazy,
            views_used=left.views_used + right.views_used,
            unnested_columns=left.unnested_columns | right.unnested_columns,
        )

    # ------------------------------------------------------------------ #
    # evaluation of candidates
    # ------------------------------------------------------------------ #
    def _consider(self, candidate: RewriteCandidate) -> None:
        """Try to align a candidate with the query; record successes."""
        if self._out_of_time():
            return
        if self._lacks_supplier(candidate.views_used):
            # alignment (and its containment tests) is bound to fail
            self.statistics.alignments_pruned += 1
            return
        try:
            result = align_candidate(
                candidate, self.query, self.summary, deadline=self._deadline
            )
            if result is not None:
                self._record(
                    Rewriting(
                        plan=result.plan,
                        pattern=result.pattern,
                        views_used=candidate.views_used,
                        is_union=False,
                    )
                )
                return
            if self.config.enable_unions and len(self._partial) < 64:
                partial = align_candidate(
                    candidate, self.query, self.summary, containment_only=True,
                    deadline=self._deadline,
                )
                if partial is not None:
                    self._partial.append((candidate, partial))
        except ContainmentBudgetExceeded:
            # the budget ran out mid-test; _done() ends the search next check
            return

    def _lacks_supplier(self, views_used: tuple[str, ...]) -> bool:
        """Prop. 3.7: can these views never cover every output attribute?

        Joins never *create* attributes — every column of a candidate
        traces back to some member view's initial candidate — so when, for
        some required (return node, attribute), none of the views offers
        the attribute on a compatible path, alignment is bound to fail.
        The check is per attribute, not per attribute *set*: equality fusion
        pools attributes from several views onto one node, so a full-set
        single-view requirement would wrongly prune such joins.
        """
        return self._missing_slots(views_used) != 0

    def _missing_slots(self, views_used: tuple[str, ...]) -> int:
        """The slots none of these views supplies, as a bitmask."""
        missing = self._all_slots
        for name in views_used:
            missing &= ~self._slots_of.get(name, 0)
        return missing

    def _cannot_cover(self, views_used: tuple[str, ...], views_left: int) -> bool:
        """Prop. 3.7 at any distance from the plan-size bound: can no
        ``views_left`` further views supply the slots these views lack?

        Joins add one initial candidate (one view occurrence) at a time, so
        when this holds the joined candidate and every extension of it lack
        a supplier; with no view left it is :meth:`_lacks_supplier`.
        """
        missing = self._missing_slots(views_used)
        return missing != 0 and not self._coverable(missing, views_left)

    def _coverable(self, missing: int, views_left: int) -> bool:
        """Exact minimum cover: can ``views_left`` initial views supply
        every slot of ``missing`` together?  Some view must supply its
        lowest slot, so branching on those views alone is complete."""
        if missing == 0:
            return True
        if views_left == 0:
            return False
        key = (missing, views_left)
        known = self._cover_memo.get(key)
        if known is None:
            lowest = missing & -missing
            known = self._cover_memo[key] = any(
                self._coverable(missing & ~slots, views_left - 1)
                for slots in set(self._slots_of.values())
                if slots & lowest
            )
        return known

    def _record(self, rewriting: Rewriting) -> None:
        """Keep ``rewriting`` unless this search already kept one with the
        same views and the same plan up to the generated ``@N`` scan
        aliases and ``#N`` numbers (two derivations can build one plan)."""
        text = _HINT_NUMBER.sub("#", _ALIAS_NUMBER.sub("@", rewriting.plan.describe()))
        key = (rewriting.views_used, text)
        if key in self._recorded:
            return
        self._recorded.add(key)
        if self.statistics.first_rewriting_seconds is None:
            self.statistics.first_rewriting_seconds = (
                time.perf_counter() - self._start_time
            )
        self.rewritings.append(rewriting)

    # ------------------------------------------------------------------ #
    # union plans (Algorithm 1, lines 13-14)
    # ------------------------------------------------------------------ #
    def _union_pass(self) -> None:
        try:
            self._union_pass_inner()
        except ContainmentBudgetExceeded:
            return

    def _union_pass_inner(self) -> None:
        if len(self._partial) < 2:
            return
        for size in range(2, _MAX_UNION_SIZE + 1):
            if self._done():
                return
            for combo in itertools.combinations(self._partial, size):
                if self._done() or self._out_of_time():
                    return
                patterns = [alignment.pattern for _, alignment in combo]
                if not is_contained_in_union(
                    self.query, patterns, self.summary, deadline=self._deadline
                ):
                    continue
                # minimality: no strict subset may already cover the query
                if any(
                    is_contained_in_union(
                        self.query,
                        [a.pattern for _, a in subset],
                        self.summary,
                        deadline=self._deadline,
                    )
                    for smaller in range(1, size)
                    for subset in itertools.combinations(combo, smaller)
                ):
                    continue
                plan = UnionPlan(plans=tuple(alignment.plan for _, alignment in combo))
                views = tuple(
                    itertools.chain.from_iterable(c.views_used for c, _ in combo)
                )
                first_pattern = combo[0][1].pattern
                self._record(
                    Rewriting(
                        plan=plan,
                        pattern=first_pattern,
                        views_used=views,
                        is_union=True,
                    )
                )

    # ------------------------------------------------------------------ #
    # termination
    # ------------------------------------------------------------------ #
    def _done(self) -> bool:
        if len(self.rewritings) >= self.config.max_rewritings:
            return True
        return self._out_of_time()

    def _out_of_time(self) -> bool:
        return self._deadline is not None and time.perf_counter() > self._deadline
