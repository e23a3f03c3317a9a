"""The canonical-model memo a summary owns: hits, and the abort/cap
non-caching rules."""

from __future__ import annotations

import time

import pytest

from repro import build_summary, parse_parenthesized, parse_pattern
from repro.canonical.model import canonical_model, iter_canonical_model
from repro.containment.core import clear_containment_cache, is_contained
from repro.errors import ContainmentBudgetExceeded
from support.memo_free import memo_free


@pytest.fixture()
def summary():
    return build_summary(
        parse_parenthesized(
            'site(regions(asia(item(name="pen") item(name="ink"))'
            ' europe(item(name="nib"))))',
            name="memo-doc",
        )
    )


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_containment_cache()  # clears the canonical memo as well
    yield
    clear_containment_cache()


def _model_keys(trees):
    return sorted(tree.key() for tree in trees)


class TestMemoHits:
    def test_second_enumeration_replays_the_cached_model(self, summary):
        cache = summary.containment_memo.models
        pattern = parse_pattern("site(//item[ID,V](/name[ID,V]))")
        first = canonical_model(pattern, summary)
        misses = cache.misses
        second = canonical_model(pattern, summary)
        assert cache.hits >= 1 and cache.misses == misses
        assert _model_keys(first) == _model_keys(second)

    def test_key_is_the_canonical_pattern_hash_not_identity(self, summary):
        cache = summary.containment_memo.models
        canonical_model(parse_pattern("site(//item[ID,V])"), summary)
        # a structurally identical but distinct pattern object hits
        canonical_model(parse_pattern("site(//item[ID,V])"), summary)
        assert cache.hits >= 1

    def test_containment_benefits_from_the_model_memo(self, summary):
        cache = summary.containment_memo.models
        # every item sits below regions; the optional edge keeps the question
        # away from the fast deciders, so only the canonical model answers it
        left = parse_pattern("site(//item[ID,V](/?name[V]))")
        right = parse_pattern("site(/regions(//item[ID,V](/?name[V])))")
        assert is_contained(left, right, summary)
        clear_containment_cache()  # forget decisions but also models...
        canonical_model(left, summary)  # ...then rebuild the model once
        hits_before = cache.hits
        assert is_contained(left, right, summary)
        assert cache.hits > hits_before


class TestNonCachingRules:
    def test_abandoned_enumerations_are_not_stored(self, summary):
        cache = summary.containment_memo.models
        pattern = parse_pattern("site(//item[ID,V])")
        iterator = iter_canonical_model(pattern, summary)
        next(iterator)
        iterator.close()  # consumer walked away mid-enumeration
        assert len(cache) == 0

    def test_deadline_aborts_are_not_stored(self, summary):
        cache = summary.containment_memo.models
        pattern = parse_pattern("site(//item[ID,V](/?name[ID,V]))")
        with pytest.raises(ContainmentBudgetExceeded):
            list(
                iter_canonical_model(
                    pattern, summary, deadline=time.perf_counter() - 1.0
                )
            )
        assert len(cache) == 0

    def test_oversized_models_are_not_stored(self, summary):
        memo = summary.containment_memo
        memo.max_trees_cached = 0  # force every model to overflow the cap
        trees = canonical_model(parse_pattern("site(//item[ID,V])"), summary)
        assert trees  # the enumeration itself still works
        assert len(memo.models) == 0

    def test_memo_free_context_bypasses_reads_and_writes(self, summary):
        cache = summary.containment_memo.models
        pattern = parse_pattern("site(//item[ID,V])")
        canonical_model(pattern, summary)
        assert len(cache) == 1
        with memo_free():
            hits = cache.hits
            canonical_model(parse_pattern("site(//name[ID,V])"), summary)
            canonical_model(pattern, summary)
            assert cache.hits == hits
        assert len(cache) == 1

    def test_memo_free_shares_no_closure_subtree_across_decisions(self, summary):
        # every item has a name: the strong closure hangs a name below each item
        pattern = parse_pattern("site(//item[ID])")

        def closure_names():  # the nodes themselves, so no id is reused
            return [
                node
                for tree in canonical_model(pattern, summary)
                for node in tree.root.iter_subtree()
                if node.label == "name"
            ]

        def shared(first, second):
            return {id(node) for node in first} & {id(node) for node in second}

        first, second = closure_names(), closure_names()
        assert first and shared(first, second)  # the memo replays one model
        with memo_free():
            first, second = closure_names(), closure_names()
        assert first and not shared(first, second)

    def test_lru_eviction_respects_maxsize(self, summary):
        cache = summary.containment_memo.models
        cache.maxsize = 2
        for label in ("item", "name", "regions", "asia"):
            canonical_model(parse_pattern(f"site(//{label}[ID])"), summary)
        assert len(cache) <= 2
