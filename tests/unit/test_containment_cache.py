"""The containment memo and the canonical pattern keys it hashes on."""

from __future__ import annotations

import pytest

from repro import build_summary, parse_parenthesized
from repro.canonical.hashing import pattern_key, summary_token
from repro.containment.core import (
    ContainmentCache,
    canonical_containment_decision,
    clear_containment_cache,
    containment_cache,
    containment_cache_disabled,
    containment_deadline,
    containment_decision,
    is_contained,
    is_contained_in_union,
)
from repro.errors import ContainmentBudgetExceeded


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_containment_cache()
    yield
    clear_containment_cache()


class TestPatternKey:
    def test_same_structure_same_key(self, make_pattern):
        left = make_pattern("a(/b[ID](//c[V]))", name="one")
        right = make_pattern("a(/b[ID](//c[V]))", name="two")
        assert pattern_key(left) == pattern_key(right)

    def test_key_ignores_annotated_paths(self, make_pattern, auction_summary):
        from repro import annotate_paths

        plain = make_pattern("site(//item[ID])")
        annotated = annotate_paths(make_pattern("site(//item[ID])"), auction_summary)
        assert pattern_key(plain) == pattern_key(annotated)

    @pytest.mark.parametrize(
        "left_text,right_text",
        [
            ("a(/b[ID])", "a(//b[ID])"),  # axis
            ("a(/b[ID])", "a(/?b[ID])"),  # optional edge
            ("a(/b[ID])", "a(/b[ID,V])"),  # stored attributes
            ("a(/b[ID])", "a(/c[ID])"),  # label
            ("a(/b[ID])", "a(/b[ID]{v=3})"),  # predicate
        ],
    )
    def test_key_distinguishes_structure(self, make_pattern, left_text, right_text):
        assert pattern_key(make_pattern(left_text)) != pattern_key(
            make_pattern(right_text)
        )

    def test_key_distinguishes_return_order(self, make_pattern):
        left = make_pattern("a(/b[ID], /c[ID])")
        right = make_pattern("a(/b[ID], /c[ID])")
        returns = right.return_nodes()
        right.set_return_order(list(reversed(returns)))
        assert pattern_key(left) != pattern_key(right)

    def test_summary_tokens_are_distinct_and_stable(self):
        first = build_summary(parse_parenthesized("a(b c)", name="one"))
        second = build_summary(parse_parenthesized("a(b c)", name="two"))
        assert summary_token(first) != summary_token(second)
        assert summary_token(first) == summary_token(first)


class TestContainmentMemo:
    def test_repeat_decision_is_a_cache_hit(self, make_pattern, auction_summary):
        left = make_pattern("site(//item(/name))")
        right = make_pattern("site(//item)")
        cache = containment_cache()
        baseline_hits = cache.hits
        first = containment_decision(left.copy(), right.copy(), auction_summary,
                                     check_attributes=False)
        second = containment_decision(left.copy(), right.copy(), auction_summary,
                                      check_attributes=False)
        assert second is first  # the cached object itself
        assert cache.hits == baseline_hits + 1

    def test_cached_decisions_match_uncached(self, make_pattern, auction_summary):
        pairs = [
            ("site(//item(/name))", "site(//item)"),
            ("site(//item)", "site(//name)"),
            ("site(//name[V])", "site(//name[V])"),
        ]
        for left_text, right_text in pairs:
            left, right = make_pattern(left_text), make_pattern(right_text)
            with containment_cache_disabled():
                expected = is_contained(left, right, auction_summary,
                                        check_attributes=False)
            clear_containment_cache()
            assert is_contained(left, right, auction_summary,
                                check_attributes=False) == expected
            # second, memoised call agrees as well
            assert is_contained(left, right, auction_summary,
                                check_attributes=False) == expected

    def test_max_trees_bypasses_the_memo(self, make_pattern, auction_summary):
        left = make_pattern("site(//item)")
        cache = containment_cache()
        canonical_containment_decision(left, left, auction_summary, max_trees=5000)
        assert len(cache) == 0

    def test_union_results_are_cached_including_false(
        self, make_pattern, auction_summary
    ):
        contained = make_pattern("site(//item)")
        containers = [make_pattern("site(//name)"), make_pattern("site(//text)")]
        cache = containment_cache()
        first = is_contained_in_union(contained, containers, auction_summary,
                                      check_attributes=False)
        hits_before = cache.hits
        second = is_contained_in_union(contained, containers, auction_summary,
                                       check_attributes=False)
        assert first is False and second is False
        assert cache.hits == hits_before + 1

    def test_distinct_summaries_do_not_share_entries(self, make_pattern):
        first = build_summary(parse_parenthesized("a(b)", name="one"))
        second = build_summary(parse_parenthesized("a(c)", name="two"))
        pattern = make_pattern("a(//b)")
        assert is_contained(pattern, pattern, first, check_attributes=False)
        # on `second`, a(//b) is unsatisfiable -> contained in anything of the
        # same shape; the point is the cache must not replay `first`'s entry
        assert len(containment_cache()) == 1
        is_contained(pattern, pattern, second, check_attributes=False)
        assert len(containment_cache()) == 2


class TestContainmentDeadline:
    def test_expired_deadline_aborts_and_caches_nothing(
        self, make_pattern, auction_summary
    ):
        pattern = make_pattern("site(//item(/?name, /?description))")
        with containment_deadline(0.0):  # already in the past
            with pytest.raises(ContainmentBudgetExceeded):
                is_contained(pattern, pattern, auction_summary,
                             check_attributes=False)
        assert len(containment_cache()) == 0
        # outside the block the same test completes (and is memoised)
        assert is_contained(pattern, pattern, auction_summary,
                            check_attributes=False)
        assert len(containment_cache()) == 1

    def test_nested_deadlines_keep_the_tighter_one(
        self, make_pattern, auction_summary
    ):
        import time as time_module

        pattern = make_pattern("site(//item(/?name))")
        far = time_module.perf_counter() + 60.0
        with containment_deadline(far):
            with containment_deadline(0.0):
                with pytest.raises(ContainmentBudgetExceeded):
                    is_contained(pattern, pattern, auction_summary,
                                 check_attributes=False)
            # after leaving the inner block the far deadline applies again
            assert is_contained(pattern, pattern, auction_summary,
                                check_attributes=False)

    def test_none_deadline_is_a_no_op(self, make_pattern, auction_summary):
        pattern = make_pattern("site(//item)")
        with containment_deadline(None):
            assert is_contained(pattern, pattern, auction_summary,
                                check_attributes=False)


class TestCacheMechanics:
    def test_lru_eviction(self):
        cache = ContainmentCache(maxsize=2)
        cache.store(("a",), 1)
        cache.store(("b",), 2)
        assert cache.lookup(("a",)) == 1  # refresh "a"
        cache.store(("c",), 3)  # evicts "b"
        assert cache.lookup(("b",)) is None
        assert cache.lookup(("a",)) == 1
        assert cache.lookup(("c",)) == 3

    def test_clear_resets_stats(self):
        cache = ContainmentCache(maxsize=4)
        cache.store(("a",), 1)
        cache.lookup(("a",))
        cache.lookup(("missing",))
        cache.clear()
        assert cache.info() == {"hits": 0, "misses": 0, "size": 0, "maxsize": 4}

    def test_disabled_cache_neither_reads_nor_writes(self):
        cache = containment_cache()
        with containment_cache_disabled():
            cache.store(("key",), 1)
            assert cache.lookup(("key",)) is None
        assert len(cache) == 0
        assert cache.enabled


class TestNoHiddenWarmth:
    """``clear_containment_cache()`` + ``plan_cache.clear()`` is the whole
    flush: the benchmark's cold workload is cold only if nothing else — no
    per-pattern annotation, closure or formula memo — survives them."""

    QUERY = "site(//item[ID](/name[V], //keyword[V]))"

    def _plan(self, db):
        from repro.canonical import canonical_model_cache

        choice = db.plan_query(self.QUERY)
        statistics = choice.statistics
        return {
            "candidates_explored": statistics.candidates_explored,
            "joins_attempted": statistics.joins_attempted,
            "views_after_pruning": statistics.views_after_pruning,
            "containment_misses": containment_cache().misses,
            "model_misses": canonical_model_cache().misses,
        }, containment_cache().hits

    def test_a_flushed_replan_repeats_the_first_plan_exactly(self, auction_document):
        from repro import Database

        with Database(auction_document) as db:
            db.create_view("site(//item[ID](/name[V]))", name="names")
            db.create_view("site(//keyword[ID,V])", name="keywords")
            db.create_view("site(//item[ID])", name="items")
            clear_containment_cache()
            first, _ = self._plan(db)
            assert first["joins_attempted"] > 0 and first["containment_misses"] > 0

            clear_containment_cache()
            db.plan_cache.clear()
            second, hits_when_flushed = self._plan(db)
            assert second == first

            # the counterpart: without the containment flush the same search
            # runs (plan cache cleared) but answers from the memo
            db.plan_cache.clear()
            third, hits = self._plan(db)
            assert hits > hits_when_flushed
            assert third["containment_misses"] == second["containment_misses"]
