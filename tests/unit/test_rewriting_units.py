"""Unit tests for the rewriting building blocks: candidates, pruning, fusion."""

import pytest

from repro import MaterializedView, build_summary, parse_parenthesized, parse_pattern
from repro.canonical import annotate_paths
from repro.patterns.pattern import Axis
from repro.rewriting.candidates import initial_candidate
from repro.rewriting.fusion import bare_chain, copy_with_map, fuse_equality, fuse_structural
from repro.rewriting.preprocessing import add_virtual_ids, query_path_targets, unfold_content
from repro.summary.index import SummaryIndex
from support.naive_pruning import view_is_useful


@pytest.fixture(scope="module")
def store_doc():
    return parse_parenthesized(
        'site(regions(item(name="pen" description(listitem(keyword="gold")))'
        ' item(name="ink" description(listitem(keyword="blue"))))'
        ' people(person(age="30")))'
    )


@pytest.fixture(scope="module")
def store_summary(store_doc):
    return build_summary(store_doc)


@pytest.fixture(scope="module")
def store_index(store_summary):
    return SummaryIndex(store_summary)


class TestInitialCandidates:
    def test_columns_for_flat_return_nodes(self, store_doc, store_summary):
        view = MaterializedView(
            parse_pattern("site(//item[ID](/name[V]))", name="v"), store_doc, name="v"
        )
        candidate = initial_candidate(view, alias="v0")
        item, name = candidate.pattern.return_nodes()
        assert candidate.columns.get(candidate.key(item, "ID")) == "v0.ID1"
        assert candidate.columns.get(candidate.key(name, "V")) == "v0.V2"
        assert candidate.size == 1

    def test_nested_return_nodes_become_lazy_unnest_columns(self, store_doc):
        view = MaterializedView(
            parse_pattern("site(//item[ID](//?~listitem(/keyword[V])))", name="v"),
            store_doc,
            name="v",
        )
        candidate = initial_candidate(view, alias="v0")
        keyword = [n for n in candidate.pattern.nodes() if n.label == "keyword"][0]
        assert candidate.has_attribute(keyword, "V")
        assert candidate.columns.get(candidate.key(keyword, "V")) is None  # lazy, not materialised
        materialised, column = candidate.ensure_column(keyword, "V")
        assert column == "V2"
        assert materialised.columns.get(materialised.key(keyword, "V")) == "V2"

    def test_ensure_column_unknown_attribute(self, store_doc):
        view = MaterializedView(parse_pattern("site(//item[ID])", name="v"), store_doc, name="v")
        candidate = initial_candidate(view)
        item = candidate.pattern.return_nodes()[0]
        from repro.errors import RewritingError

        with pytest.raises(RewritingError):
            candidate.ensure_column(item, "V")


class TestPreprocessing:
    def test_view_pruning_prop34(self, store_summary, store_index):
        query = annotate_paths(
            parse_pattern("site(//item[ID](/name[V]))", name="q"), store_summary
        )
        related = annotate_paths(
            parse_pattern("site(//name[V])", name="v1"), store_summary
        )
        descendant_related = annotate_paths(
            parse_pattern("site(//keyword[V])", name="v2"), store_summary
        )
        unrelated = annotate_paths(
            parse_pattern("site(//age[V])", name="v3"), store_summary
        )
        assert view_is_useful(related, query, store_index)
        # keyword nodes are descendants of item nodes, so that view stays useful
        assert view_is_useful(descendant_related, query, store_index)
        # person ages share no ancestor/descendant line with the query nodes
        assert not view_is_useful(unrelated, query, store_index)

    def test_content_unfolding_adds_lazy_navigation(self, store_doc, store_summary, store_index):
        view = MaterializedView(
            parse_pattern("site(//description[ID,C])", name="v"), store_doc, name="v"
        )
        candidate = initial_candidate(view, alias="v0")
        annotate_paths(candidate.pattern, store_summary)
        query = annotate_paths(
            parse_pattern("site(//keyword[V])", name="q"), store_summary
        )
        unfolded = unfold_content(candidate, query_path_targets(query), store_index)
        keyword_nodes = [n for n in unfolded.pattern.nodes() if n.label == "keyword"]
        assert keyword_nodes, "unfolding should add a keyword branch"
        assert unfolded.has_attribute(keyword_nodes[0], "V")
        # the added branch is optional, so the pattern's semantics is unchanged
        assert keyword_nodes[0].optional or keyword_nodes[0].parent.optional

    def test_virtual_ids(self, store_doc, store_summary, store_index):
        view = MaterializedView(
            parse_pattern("site(/regions(/item(/name[ID,V])))", name="v"), store_doc, name="v"
        )
        candidate = initial_candidate(view, alias="v0")
        annotate_paths(candidate.pattern, store_summary)
        enriched = add_virtual_ids(candidate, store_index, derives_parent=True)
        item = [n for n in enriched.pattern.nodes() if n.label == "item"][0]
        assert enriched.has_attribute(item, "ID")
        # without a parent-derivable scheme nothing is added
        plain = add_virtual_ids(candidate, store_index, derives_parent=False)
        assert not plain.has_attribute(item, "ID")


class TestFusion:
    def test_copy_with_map_preserves_structure(self):
        pattern = parse_pattern("a(//b[ID]{v>1}(/?c))")
        clone, mapping = copy_with_map(pattern)
        assert clone == pattern
        for original, copied in mapping.items():
            assert copied.label in {n.label for n in pattern.nodes()}

    def test_bare_chain_detection(self):
        pattern = parse_pattern("a(/b(/c[ID]))")
        c_node = pattern.nodes()[2]
        chain = bare_chain(c_node)
        assert [n.label for n in chain] == ["b", "a"]
        branching = parse_pattern("a(/b[V](/c[ID]))")
        assert bare_chain(branching.nodes()[2]) is None

    def test_equality_fusion_unifies_nodes(self, store_summary, store_index):
        left = annotate_paths(parse_pattern("site(//item[ID](/name[V]))"), store_summary)
        right = annotate_paths(parse_pattern("site(//item[ID](/description))"), store_summary)
        left_node = left.return_nodes()[0]
        right_node = right.return_nodes()[0]
        result = fuse_equality(left, left_node, right, right_node, store_summary, store_index)
        assert result is not None
        labels = [n.label for n in result.pattern.nodes()]
        assert labels.count("item") == 1
        assert "description" in labels and "name" in labels

    def test_equality_fusion_rejects_label_conflict(self, store_summary, store_index):
        left = annotate_paths(parse_pattern("site(//item[ID])"), store_summary)
        right = annotate_paths(parse_pattern("site(//name[ID])"), store_summary)
        assert (
            fuse_equality(
                left, left.return_nodes()[0], right, right.return_nodes()[0],
                store_summary, store_index,
            )
            is None
        )

    def test_structural_fusion_grafts_subtree(self, store_summary, store_index):
        upper = annotate_paths(parse_pattern("site(//item[ID])"), store_summary)
        lower = annotate_paths(parse_pattern("site(//keyword[ID,V])"), store_summary)
        result = fuse_structural(
            upper,
            upper.return_nodes()[0],
            lower,
            lower.return_nodes()[0],
            Axis.DESCENDANT,
            store_summary,
            store_index,
        )
        assert result is not None
        keyword = [n for n in result.pattern.nodes() if n.label == "keyword"][0]
        assert keyword.parent.label == "item"
        assert keyword.axis is Axis.DESCENDANT

    def test_structural_fusion_rejects_impossible_axis(self, store_summary, store_index):
        upper = annotate_paths(parse_pattern("site(//keyword[ID])"), store_summary)
        lower = annotate_paths(parse_pattern("site(//item[ID,V])"), store_summary)
        # items are never descendants of keywords
        assert (
            fuse_structural(
                upper,
                upper.return_nodes()[0],
                lower,
                lower.return_nodes()[0],
                Axis.DESCENDANT,
                store_summary,
                store_index,
            )
            is None
        )

    def test_fusion_makes_joined_nodes_required(self, store_summary, store_index):
        left = annotate_paths(parse_pattern("site(//?item[ID])"), store_summary)
        right = annotate_paths(parse_pattern("site(//item[ID](/name[V]))"), store_summary)
        result = fuse_equality(
            left, left.return_nodes()[0], right, right.return_nodes()[0],
            store_summary, store_index,
        )
        assert result is not None
        item = [n for n in result.pattern.nodes() if n.label == "item"][0]
        assert not item.optional


class TestAttributePrefilter:
    """Prop. 3.7 pre-filtering: skipped alignments, unchanged results.

    The pre-filter is always on; the reference is a search whose
    ``_lacks_supplier`` and ``_cannot_cover`` never fire, so every pair is
    fused and every candidate reaches alignment.
    """

    def _rewrite(self, summary, views, query, prefilter):
        from repro.containment.core import clear_containment_cache
        from repro.rewriting.algorithm import RewritingConfig, RewritingSearch
        from repro.views.catalog import ViewCatalog

        class UnfilteredSearch(RewritingSearch):
            def _lacks_supplier(self, views_used):
                return False

            def _cannot_cover(self, views_used, views_left):
                return False

        clear_containment_cache()
        search = (RewritingSearch if prefilter else UnfilteredSearch)(
            query, ViewCatalog(summary, views), RewritingConfig(max_rewritings=4)
        )
        return search.run(), search.statistics

    def test_prefilter_prunes_without_changing_results(self, store_summary):
        views = [
            MaterializedView(parse_pattern("site(//item[ID,V])", name="v_item")),
            MaterializedView(parse_pattern("site(//item[ID])", name="v_item_id")),
            MaterializedView(parse_pattern("site(//name[ID])", name="v_name_id")),
        ]
        query = parse_pattern("site(//item[ID,V])")
        with_filter, stats_on = self._rewrite(store_summary, views, query, True)
        without, stats_off = self._rewrite(store_summary, views, query, False)
        def key(rewritings):
            return [(r.views_used, r.is_union) for r in rewritings]

        assert key(with_filter) == key(without)
        # v_item_id / v_name_id cannot supply V; their alignments are skipped
        assert stats_on.alignments_pruned > 0
        assert stats_off.alignments_pruned == 0

    def test_suppliers_back_the_feasibility_check(self, store_summary):
        views = [
            MaterializedView(parse_pattern("site(//name[ID])", name="v_name_id")),
        ]
        query = parse_pattern("site(//item[ID,V])")
        rewritings, stats = self._rewrite(store_summary, views, query, True)
        assert rewritings == []

    def test_feasibility_needs_one_node_supplying_every_attribute(self, store_summary):
        """A view offering ``ID`` on one ``item`` node and ``V`` on another
        supplies each attribute's slot, but not the single node Prop. 3.7's
        feasibility check asks for: ``site(//item[ID,V])`` is bailed."""
        from repro.rewriting.algorithm import RewritingSearch
        from repro.views.catalog import ViewCatalog

        query = parse_pattern("site(//item[ID,V])")
        split = MaterializedView(
            parse_pattern("site(//item[ID], //item[V])", name="v_split")
        )
        whole = MaterializedView(parse_pattern("site(//item[ID,V])", name="v_whole"))
        verdicts = {}
        for view in (split, whole):
            search = RewritingSearch(query, ViewCatalog(store_summary, [view]))
            verdicts[view.name] = search._suppliers_feasible(search._setup())
            assert search._slots_of == {view.name: 0b11}
        assert verdicts == {"v_split": False, "v_whole": True}
        rewritings, _ = self._rewrite(store_summary, [split], query, True)
        assert rewritings == []

    @pytest.mark.parametrize(
        "view_text, query_text",
        [
            # content unfolding: name's ID and V come from item's stored C
            ("site(//item[ID,C])", "site(//item(/name[ID,V]))"),
            # a virtual ID: item's ID is derived from name's Dewey ID
            ("site(//item(/name[ID,V]))", "site(//item[ID])"),
        ],
    )
    def test_suppliers_are_read_off_the_set_up_candidates(
        self, store_summary, view_text, query_text
    ):
        """Attributes that only set-up makes derivable supply their slots
        and satisfy the feasibility check: the search finds the rewriting."""
        from repro.rewriting.algorithm import RewritingSearch
        from repro.views.catalog import ViewCatalog

        view = MaterializedView(parse_pattern(view_text, name="v"))
        query = parse_pattern(query_text)
        search = RewritingSearch(query, ViewCatalog(store_summary, [view]))
        assert search._suppliers_feasible(search._setup())
        assert search._slots_of == {"v": search._all_slots}
        rewritings, _ = self._rewrite(store_summary, [view], query, True)
        assert rewritings

    def test_prefilter_keeps_attribute_pooling_joins(self, store_summary):
        """Equality fusion pools attributes from both sides onto the
        unified node, so a vA ⋈= vB candidate can supply {ID,V,L} although
        neither view does alone.  A per-attribute-SET pre-filter wrongly
        pruned exactly these candidates (regression: the only full
        single-view supplier below fails containment because of its
        predicate, so pruning the pooling join lost every rewriting)."""
        views = [
            MaterializedView(parse_pattern("site(//name[ID,V])", name="vA")),
            MaterializedView(parse_pattern("site(//name[ID,L])", name="vB")),
            MaterializedView(
                parse_pattern('site(//name[ID,V,L]{v="pen"})', name="vC")
            ),
        ]
        query = parse_pattern("site(//name[ID,V,L])")
        with_filter, stats_on = self._rewrite(store_summary, views, query, True)
        without, _ = self._rewrite(store_summary, views, query, False)
        def key(rewritings):
            return sorted((r.views_used, r.is_union) for r in rewritings)

        assert with_filter, "the vA ⋈= vB rewriting must survive the pre-filter"
        assert key(with_filter) == key(without)

    def test_pair_skipped_before_fusion_does_not_shadow_a_later_twin(self, store_summary):
        """A pair skipped for lack of suppliers is never fused, so its
        pattern's signature is not recorded — a later pair fusing to the
        *same* signature over different views is considered instead of being
        dropped as a Prop. 3.5 duplicate.  (Signatures ignore derivable
        columns: ``v_opaque`` and ``v_dewey`` share a pattern, but only the
        Dewey view can derive the ``item`` ID the query needs.)  Rewritings
        can only be gained this way: with the check after fusion, the
        useless ``v_opaque ⋈= v_name`` shadowed ``v_dewey ⋈= v_name``."""
        from repro.rewriting.algorithm import RewritingConfig, RewritingSearch
        from repro.views.catalog import ViewCatalog
        from repro.views.view import IdScheme

        shared = "site(//item(/name[ID]))"
        views = [
            MaterializedView(
                parse_pattern(shared, name="v_opaque"),
                id_scheme=IdScheme(structural=False, derives_parent=False, name="opaque"),
            ),
            MaterializedView(parse_pattern(shared, name="v_dewey")),
            MaterializedView(parse_pattern("site(//name[ID,V])", name="v_name")),
        ]
        query = parse_pattern("site(//item[ID](/name[V]))")
        config = RewritingConfig(max_plan_size=2, enable_unions=False)
        from repro.containment.core import clear_containment_cache

        clear_containment_cache()
        search = RewritingSearch(query, ViewCatalog(store_summary, views), config)
        rewritings = search.run()
        assert {r.views_used for r in rewritings} == {("v_dewey", "v_name")}
        assert any("IdEqualityJoin" in r.describe() for r in rewritings)
        assert search.statistics.pairs_skipped_by_suppliers > 0

    def test_a_pair_skipped_below_the_bound_does_not_shadow_a_later_twin(
        self, store_summary
    ):
        """The same edge one level down: at bound 3, ``v_opaque ⋈= v_name``
        lacks the ``item`` ID and the keyword value, which the one view left
        cannot both supply, so the cover test skips it; ``v_dewey ⋈= v_name``
        then fuses to the same signature and extends to a rewriting the
        unpruned search, which admits the useless twin first, never finds."""
        from repro.containment.core import clear_containment_cache
        from repro.rewriting.algorithm import RewritingConfig, RewritingSearch
        from repro.views.catalog import ViewCatalog
        from repro.views.view import IdScheme
        from support.unpruned_search import UnprunedSearch, rewriting_set

        shared = "site(//item(/name[ID]))"
        views = [
            MaterializedView(
                parse_pattern(shared, name="v_opaque"),
                id_scheme=IdScheme(structural=False, derives_parent=False, name="opaque"),
            ),
            MaterializedView(parse_pattern(shared, name="v_dewey")),
            MaterializedView(parse_pattern("site(//name[ID,V])", name="v_name")),
            MaterializedView(parse_pattern("site(//keyword[ID,V])", name="v_keyword")),
        ]
        query = parse_pattern(
            "site(//item[ID](/name[V], /description(/listitem(/keyword[V]))))"
        )
        config = RewritingConfig(
            max_plan_size=3, max_rewritings=10**9, enable_unions=False,
            time_budget_seconds=None,
        )
        catalog = ViewCatalog(store_summary, views)
        clear_containment_cache()
        pruned = RewritingSearch(query, catalog, config)
        unpruned = UnprunedSearch(query, catalog, config)
        found, reference = rewriting_set(pruned.run()), rewriting_set(unpruned.run())
        assert reference < found
        [(views_used, plan)] = found - reference
        assert views_used == ("v_dewey", "v_name", "v_keyword")
        assert "IdEqualityJoin(v_dewey@.ID1 = v_name@.ID1)" in plan
        assert pruned.statistics.pairs_skipped_by_suppliers > 0


class TestCoverTest:
    """``_cannot_cover``: Prop. 3.7 at any distance from the plan-size bound,
    over three slots — A and B (supplied together by ``vAB``, apart by
    ``vA`` and ``vB``) and C (supplied by ``vC``)."""

    A, B, C = 1, 2, 4

    def _search(self, store_summary, all_slots=A | B | C):
        from repro.rewriting.algorithm import RewritingSearch
        from repro.views.catalog import ViewCatalog

        search = RewritingSearch(
            parse_pattern("site(//item[ID])"), ViewCatalog(store_summary, [])
        )
        search._slots_of = {
            "vA": self.A, "vB": self.B, "vAB": self.A | self.B, "vC": self.C,
        }
        search._all_slots = all_slots
        return search

    @pytest.mark.parametrize(
        "views", [(), ("vA",), ("vA", "vB"), ("vAB",), ("vAB", "vC"), ("vA", "vB", "vC")]
    )
    def test_no_view_left_is_the_supplier_test(self, store_summary, views):
        search = self._search(store_summary)
        assert search._cannot_cover(views, 0) == search._lacks_supplier(views)

    def test_two_slots_one_view_supplies_are_kept_with_one_view_left(self, store_summary):
        search = self._search(store_summary)
        assert not search._cannot_cover(("vC",), 1)
        assert search._cannot_cover(("vC",), 0)

    def test_two_slots_needing_two_views_are_skipped_with_one_left_kept_with_two(
        self, store_summary
    ):
        search = self._search(store_summary)
        # vA supplies A; B and C need vB (or vAB) and vC
        assert search._cannot_cover(("vA",), 1)
        assert not search._cannot_cover(("vA",), 2)
        assert not search._cannot_cover(("vA", "vB"), 1)

    def test_a_slot_no_view_supplies_is_skipped_at_any_distance(self, store_summary):
        search = self._search(store_summary, all_slots=self.A | self.B | self.C | 8)
        for views_left in range(6):
            assert search._cannot_cover(("vAB", "vC"), views_left)
            assert search._cannot_cover(("vA",), views_left)

    def test_the_cover_memo_lives_in_its_search(self, store_summary):
        first, second = self._search(store_summary), self._search(store_summary)
        first._cannot_cover(("vA",), 2)
        assert first._cover_memo and not second._cover_memo
