"""Dewey-order edge cases of the staircase merge join.

Every test runs the same plan through the production executor and the
nested-loop oracle (``support.oracle_executor``) and asserts identical
contents, then pins down the specific edge the fixture exercises: duplicate
identifiers, self-ancestor chains, empty extents, mixed string/DeweyID
columns (the ``_as_dewey`` coercion) and the ``sorted_by`` annotation
lifecycle through ``Select`` / ``Project``.
"""

from __future__ import annotations

import pytest

from repro.algebra.execution import PlanExecutor
from repro.algebra.operators import (
    NestedStructuralJoin,
    Projection,
    Selection,
    StructuralJoin,
    ViewScan,
)
from repro.algebra.tuples import Column, Relation, as_dewey
from repro.errors import AlgebraError, PlanExecutionError
from repro.patterns.pattern import Axis
from repro.patterns.predicates import ValueFormula
from repro.xmltree.ids import DeweyID

from support.oracle_executor import OracleExecutor
from support.relations import mark_sorted_by, stored_view


def _id_relation(ids, extra=None, sorted_by=None):
    """A one-ID-column relation (plus an optional value column)."""
    if extra is None:
        relation = Relation([Column("ID1", kind="ID")], rows=[(i,) for i in ids])
    else:
        relation = Relation(
            [Column("ID1", kind="ID"), Column("V1", kind="V")],
            rows=list(zip(ids, extra)),
        )
    if sorted_by:
        mark_sorted_by(relation, sorted_by)
    return relation


def _join(views, axis=Axis.DESCENDANT, nested=False):
    if nested:
        return NestedStructuralJoin(
            left=ViewScan("upper", alias="u"),
            right=ViewScan("lower", alias="l"),
            left_column="u.ID1",
            right_column="l.ID1",
            group_column="G",
            axis=axis,
        )
    return StructuralJoin(
        left=ViewScan("upper", alias="u"),
        right=ViewScan("lower", alias="l"),
        left_column="u.ID1",
        right_column="l.ID1",
        axis=axis,
    )


def _both(views, plan):
    """Execute ``plan`` in production and under the nested-loop oracle."""
    merge = PlanExecutor(views).execute(plan)
    oracle = OracleExecutor(views, structural_join_strategy="nested-loop").execute(plan)
    assert merge.same_contents(oracle), "merge join disagrees with the oracle"
    return merge, oracle


def _ids(*texts):
    return [DeweyID.from_string(text) for text in texts]


class TestStaircaseEdgeCases:
    def test_duplicate_identifiers_on_both_sides(self):
        views = {
            "upper": stored_view(_id_relation(_ids("1.1", "1.1", "1.2"), extra="aab")),
            "lower": stored_view(_id_relation(_ids("1.1.1", "1.1.1", "1.2.9"), extra="xxy")),
        }
        merge, _ = _both(views, _join(views))
        # 2 upper dups x 2 lower dups under 1.1, plus the single 1.2 pair
        assert len(merge) == 5

    def test_self_ancestor_chain(self):
        # a chain a ≺≺ b ≺≺ c where every node is in both extents: equal
        # identifiers must never match (ancestry is strict), prefixes must
        chain = _ids("1", "1.1", "1.1.1")
        views = {
            "upper": stored_view(_id_relation(chain)),
            "lower": stored_view(_id_relation(chain)),
        }
        merge, _ = _both(views, _join(views))
        assert len(merge) == 3  # (1,1.1), (1,1.1.1), (1.1,1.1.1)
        pairs = {(str(row[0]), str(row[1])) for row in merge.rows}
        assert ("1", "1") not in pairs and ("1.1", "1.1") not in pairs

    def test_parent_axis_on_deep_chain(self):
        chain = _ids("1", "1.1", "1.1.1", "1.1.1.1")
        views = {
            "upper": stored_view(_id_relation(chain)),
            "lower": stored_view(_id_relation(chain)),
        }
        merge, _ = _both(views, _join(views, axis=Axis.CHILD))
        pairs = {(str(row[0]), str(row[1])) for row in merge.rows}
        assert pairs == {("1", "1.1"), ("1.1", "1.1.1"), ("1.1.1", "1.1.1.1")}

    def test_empty_extents(self):
        empty = _id_relation([])
        populated = _id_relation(_ids("1.1", "1.1.2"))
        for upper, lower in [(empty, populated), (populated, empty), (empty, empty)]:
            views = {"upper": stored_view(upper), "lower": stored_view(lower)}
            merge, _ = _both(views, _join(views))
            assert len(merge) == 0
            nested_merge, _ = _both(views, _join(views, nested=True))
            assert len(nested_merge) == len(upper.rows)  # empty groups kept

    def test_mixed_string_and_dewey_columns(self):
        # _as_dewey coerces strings, DeweyIDs and None; the merge must see
        # the same world the oracle sees
        views = {
            "upper": stored_view(_id_relation(["1.1", DeweyID.from_string("1.2"), None])),
            "lower": stored_view(_id_relation([DeweyID.from_string("1.1.3"), "1.2.1", None])),
        }
        merge, _ = _both(views, _join(views))
        assert len(merge) == 2  # the None rows never match anything

    def test_nested_join_keeps_null_left_rows(self):
        views = {
            "upper": stored_view(_id_relation([None, "1.1"], extra="na")),
            "lower": stored_view(_id_relation(_ids("1.1.1", "1.1.2"))),
        }
        nested_merge, oracle = _both(views, _join(views, nested=True))
        assert len(nested_merge) == 2 == len(oracle)
        groups = {row[1]: len(row[-1]) for row in nested_merge.rows}
        assert groups == {"n": 0, "a": 2}

    def test_non_identifier_values_raise(self):
        views = {
            "upper": stored_view(_id_relation([42])),
            "lower": stored_view(_id_relation(_ids("1.1"))),
        }
        with pytest.raises(PlanExecutionError):
            PlanExecutor(views).execute(_join(views))
        with pytest.raises(AlgebraError):
            as_dewey(object())

    def test_unsorted_inputs_fall_back_to_sort_then_merge(self):
        # extents deliberately delivered in reverse document order and
        # *without* the sorted annotation: the merge must sort first
        upper = _id_relation(list(reversed(_ids("1.1", "1.2", "1.3"))))
        lower = _id_relation(list(reversed(_ids("1.1.1", "1.2.1", "1.3.9.2"))))
        assert upper.sorted_by is None
        views = {"upper": stored_view(upper), "lower": stored_view(lower)}
        merge, _ = _both(views, _join(views))
        assert len(merge) == 3

    def test_wrongly_claimed_sort_annotation_is_trusted(self):
        # the annotation is a contract: marking an unsorted relation sorted
        # skips the sort, so the merge may legitimately miss matches — this
        # documents that the flag is trusted, not re-verified
        lying = _id_relation(list(reversed(_ids("1.1", "1.2"))))
        mark_sorted_by(lying, "ID1")
        views = {
            "upper": stored_view(lying),
            "lower": stored_view(_id_relation(_ids("1.1.5", "1.2.5"))),
        }
        result = PlanExecutor(views).execute(_join(views))
        assert len(result) <= 2


class TestSortedFlagLifecycle:
    def test_view_scan_qualifies_the_annotation(self):
        relation = _id_relation(_ids("1.1", "1.2"), sorted_by="ID1")
        executor = PlanExecutor({"upper": stored_view(relation)})
        result = executor.execute(ViewScan("upper", alias="u"))
        assert result.sorted_by == "u.ID1"

    def test_selection_preserves_the_annotation(self):
        relation = _id_relation(_ids("1.1", "1.2"), extra="ab", sorted_by="ID1")
        executor = PlanExecutor({"upper": stored_view(relation)})
        plan = Selection(
            child=ViewScan("upper", alias="u"),
            column="u.V1",
            formula=ValueFormula.eq("a"),
        )
        result = executor.execute(plan)
        assert result.sorted_by == "u.ID1"
        assert len(result) == 1

    def test_projection_keeps_annotation_only_when_column_survives(self):
        relation = _id_relation(_ids("1.1", "1.2"), extra="ab", sorted_by="ID1")
        executor = PlanExecutor({"upper": stored_view(relation)})
        kept = executor.execute(
            Projection(child=ViewScan("upper", alias="u"), columns=["u.ID1"])
        )
        assert kept.sorted_by == "u.ID1"
        dropped = executor.execute(
            Projection(child=ViewScan("upper", alias="u"), columns=["u.V1"])
        )
        assert dropped.sorted_by is None

    def test_projection_rename_follows_the_annotation(self):
        relation = _id_relation(_ids("1.1", "1.2"), sorted_by="ID1")
        executor = PlanExecutor({"upper": stored_view(relation)})
        result = executor.execute(
            Projection(
                child=ViewScan("upper", alias="u"),
                columns=["u.ID1"],
                renames={"u.ID1": "the_id"},
            )
        )
        assert result.sorted_by == "the_id"

    def test_merge_join_output_is_sorted_on_the_descendant_column(self):
        views = {
            "upper": stored_view(_id_relation(_ids("1.1", "1.2"), sorted_by="ID1")),
            "lower": stored_view(_id_relation(_ids("1.1.1", "1.2.1"), sorted_by="ID1")),
        }
        result = PlanExecutor(views).execute(_join(views))
        assert result.sorted_by == "l.ID1"
        identifiers = [row[1] for row in result.rows]
        assert identifiers == sorted(identifiers, key=lambda i: i.components)

    def test_relation_sort_helper_places_nulls_first_and_marks(self):
        relation = _id_relation(["1.2", None, "1.1"])
        ordered = relation.sorted_in_dewey_order("ID1")
        assert ordered.sorted_by == "ID1"
        assert [None if v is None else str(v) for (v,) in ordered.rows] == [
            None,
            "1.1",
            "1.2",
        ]
        # already-annotated relations are returned as-is
        assert ordered.sorted_in_dewey_order("ID1") is ordered

    def test_view_set_reports_the_sorted_extent_guarantee(self):
        from repro import MaterializedView, parse_parenthesized, parse_pattern
        from repro.views.store import ViewSet
        from repro.views.view import IdScheme

        doc = parse_parenthesized('site(item(name="pen") item(name="ink"))')
        views = ViewSet(
            [
                MaterializedView(
                    parse_pattern("site(//item[ID,V])", name="dewey_view"), doc
                ),
                MaterializedView(
                    parse_pattern("site(//item[V])", name="no_id_view"), doc
                ),
                MaterializedView(
                    parse_pattern("site(//item[ID,V])", name="opaque_view"),
                    doc,
                    id_scheme=IdScheme(structural=False, derives_parent=False, name="opaque"),
                ),
            ]
        )
        assert {view.name: view.dewey_sort_column() for view in views} == {
            "dewey_view": "ID1",
            "no_id_view": None,
            "opaque_view": None,
        }
        # the guarantee matches what the extents actually carry
        assert views["dewey_view"].relation.sorted_by == "ID1"
        assert views["opaque_view"].relation.sorted_by is None
