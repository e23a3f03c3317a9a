"""Dewey-order edge cases of the staircase merge join.

Every test runs the same plan through the production executor and the
nested-loop oracle (``support.oracle_executor``) and asserts identical
contents, then pins down the specific edge the fixture exercises: duplicate
identifiers, self-ancestor chains, empty extents, mixed string/DeweyID
columns (the ``_as_dewey`` coercion), inputs out of document order, and
the order each operator's output proves off its data through ``Select`` /
``Project`` / the join itself.
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
from repro.algebra.tuples import Column, Relation, _hashable, as_dewey
from repro.errors import AlgebraError, PlanExecutionError
from repro.patterns.pattern import Axis
from repro.patterns.predicates import ValueFormula
from repro.xmltree.ids import DeweyID

from support.oracle_executor import OracleExecutor
from support.relations import stored_view


def _id_relation(ids, extra=None):
    """A one-ID-column relation (plus an optional value column)."""
    if extra is None:
        relation = Relation([Column("ID1", kind="ID")], rows=[(i,) for i in ids])
    else:
        relation = Relation(
            [Column("ID1", kind="ID"), Column("V1", kind="V")],
            rows=list(zip(ids, extra)),
        )
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
        # extents deliberately delivered in reverse document order: the
        # descendant column proves no order, so the join sorts it first
        upper = _id_relation(list(reversed(_ids("1.1", "1.2", "1.3"))))
        lower = _id_relation(list(reversed(_ids("1.1.1", "1.2.1", "1.3.9.2"))))
        views = {"upper": stored_view(upper), "lower": stored_view(lower)}
        assert not views["lower"].extent.source(0).in_document_order()
        merge, _ = _both(views, _join(views))
        assert merge.rows == OracleExecutor(views).execute(_join(views)).rows
        assert [str(row[1]) for row in merge.rows] == ["1.1.1", "1.2.1", "1.3.9.2"]

    def test_an_out_of_order_ancestor_side_loses_no_match(self):
        # no annotation to trust or to lie: order is read off the data, so
        # reversed ancestors still meet every descendant
        reversed_upper = _id_relation(list(reversed(_ids("1.1", "1.2"))))
        views = {
            "upper": stored_view(reversed_upper),
            "lower": stored_view(_id_relation(_ids("1.1.5", "1.2.5"))),
        }
        for nested in (False, True):
            merge, _ = _both(views, _join(views, nested=nested))
            oracle = OracleExecutor(views).execute(_join(views, nested=nested))
            assert list(map(_hashable, merge.rows)) == list(map(_hashable, oracle.rows))
        assert len(PlanExecutor(views).execute(_join(views))) == 2


class TestDocumentOrderReadOffTheData:
    @staticmethod
    def _in_order(views, plan, column):
        batch = PlanExecutor(views).execute_batch(plan)
        return batch.source(batch.column_index(column)).in_document_order()

    def test_a_view_scan_of_a_sorted_extent_is_in_document_order(self):
        views = {"upper": stored_view(_id_relation(_ids("1.1", "1.2")))}
        assert self._in_order(views, ViewScan("upper", alias="u"), "u.ID1")

    def test_a_selection_stays_in_document_order(self):
        views = {"upper": stored_view(_id_relation(_ids("1.1", "1.2"), extra="ab"))}
        plan = Selection(
            child=ViewScan("upper", alias="u"),
            column="u.V1",
            formula=ValueFormula.eq("a"),
        )
        assert self._in_order(views, plan, "u.ID1")
        assert len(PlanExecutor(views).execute(plan)) == 1

    def test_a_projected_and_renamed_column_stays_in_document_order(self):
        views = {"upper": stored_view(_id_relation(_ids("1.1", "1.2"), extra="aa"))}
        scan = ViewScan("upper", alias="u")
        assert self._in_order(views, Projection(child=scan, columns=["u.ID1"]), "u.ID1")
        renamed = Projection(child=scan, columns=["u.ID1"], renames={"u.ID1": "the_id"})
        assert self._in_order(views, renamed, "the_id")

    def test_join_output_is_in_descendant_document_order(self):
        views = {
            "upper": stored_view(_id_relation(_ids("1.1", "1.2"))),
            "lower": stored_view(_id_relation(_ids("1.1.1", "1.2.1"))),
        }
        assert self._in_order(views, _join(views), "l.ID1")
        result = PlanExecutor(views).execute(_join(views))
        identifiers = [row[1] for row in result.rows]
        assert identifiers == sorted(identifiers, key=lambda i: i.components)

    def test_relation_sort_helper_places_nulls_first(self):
        relation = _id_relation(["1.2", None, "1.1"])
        ordered = relation.sorted_in_dewey_order("ID1")
        assert [None if v is None else str(v) for (v,) in ordered.rows] == [
            None,
            "1.1",
            "1.2",
        ]

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
        # the guarantee holds on the data the structural extent carries
        assert views["dewey_view"].extent.source(0).in_document_order()
