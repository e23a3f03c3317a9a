"""Unit tests for the nested-relation model, the operators and the executor."""

import pytest

from repro import MaterializedView, ValueFormula, parse_parenthesized, parse_pattern
from repro.algebra.execution import PlanExecutor
from repro.algebra.operators import (
    ContentNavigation,
    GroupBy,
    IdEqualityJoin,
    NestedProjection,
    NestedStructuralJoin,
    ParentIdDerivation,
    Projection,
    Selection,
    StructuralJoin,
    UnionPlan,
    Unnest,
    ViewScan,
)
from repro.algebra.tuples import Relation
from repro.errors import AlgebraError, PlanExecutionError
from repro.patterns.pattern import Axis
from repro.views.store import ViewSet


class TestRelation:
    def test_schema_validation(self):
        with pytest.raises(AlgebraError):
            Relation(["a", "a"])
        relation = Relation(["a", "b"])
        with pytest.raises(AlgebraError):
            relation.append((1,))

    def test_project_deduplicates(self):
        relation = Relation(["a", "b"], rows=[(1, 2), (1, 3), (1, 2)])
        projected = relation.project(["a"])
        assert len(projected) == 1

    def test_rename(self):
        relation = Relation(["a", "b"], rows=[(1, 2), (5, 6)])
        renamed = relation.rename({"a": "x"})
        assert renamed.column_names == ["x", "b"]

    def test_union(self):
        left = Relation(["a"], rows=[(1,), (2,)])
        union = left.union(Relation(["a"], rows=[(2,), (9,)]))
        assert len(union) == 3

    def test_union_arity_mismatch(self):
        with pytest.raises(AlgebraError):
            Relation(["a"]).union(Relation(["a", "b"]))

    def test_to_table_pads_every_column_to_its_widest_cell(self):
        nested = Relation(["n"], rows=[(1,), (2,), (3,), (4,)])
        relation = Relation(["id", "name", "sub"], rows=[(7, "alice", nested), (12, None, None)])
        # a nested cell shows its first three rows; ⊥ stands for null
        assert relation.to_table().split("\n") == [
            "id | name  | sub         ",
            "---+-------+-------------",
            "7  | alice | {1; 2; 3...}",
            "12 | ⊥     | ⊥           ",
        ]

    def test_to_table_elides_the_rows_past_its_limit(self):
        relation = Relation(["a"], rows=[(value,) for value in range(5)])
        assert relation.to_table(max_rows=2).split("\n") == [
            "a", "-", "0", "1", "... (3 more rows)",
        ]
        assert Relation(["a", "bb"]).to_table().split("\n") == ["a | bb", "--+---"]

    def test_same_contents_ignores_order_and_names(self):
        left = Relation(["a", "b"], rows=[(1, 2), (3, 4)])
        right = Relation(["x", "y"], rows=[(3, 4), (1, 2)])
        assert left.same_contents(right)

    def test_nested_relations_compare_recursively(self):
        inner = Relation(["v"], rows=[(1,), (2,)])
        inner_same = Relation(["v"], rows=[(2,), (1,)])
        left = Relation(["k", "g"], rows=[(1, inner)])
        right = Relation(["k", "g"], rows=[(1, inner_same)])
        assert left.same_contents(right)

    def test_node_and_id_compare_equal(self):
        doc = parse_parenthesized("a(b)")
        node = doc.root.children[0]
        left = Relation(["x"], rows=[(node,)])
        right = Relation(["x"], rows=[(node.dewey,)])
        assert left.same_contents(right)

    def test_to_table_renders(self):
        relation = Relation(["a"], rows=[(None,), (Relation(["v"], rows=[(1,)]),)])
        text = relation.to_table()
        assert "⊥" in text and "{1}" in text


@pytest.fixture()
def executor_setup():
    doc = parse_parenthesized(
        'site(item(name="pen" listitem(keyword="gold") listitem(keyword="steel")) item(name="ink"))'
    )
    views = ViewSet(
        [
            MaterializedView(parse_pattern("site(//item[ID,V,C](/name[V]))", name="items"), doc, name="items"),
            MaterializedView(parse_pattern("site(//keyword[ID,V])", name="keywords"), doc, name="keywords"),
            MaterializedView(
                parse_pattern("site(//item[ID](//?~listitem(/keyword[ID,V])))", name="nested"),
                doc,
                name="nested",
            ),
        ]
    )
    return doc, views, PlanExecutor(views)


class TestOperators:
    def test_view_scan_qualifies_columns(self, executor_setup):
        _, _, executor = executor_setup
        result = executor.execute(ViewScan("items", alias="i"))
        assert result.column_names == ["i.ID1", "i.V1", "i.C1", "i.V2"]
        assert len(result) == 2

    def test_unknown_view_raises(self, executor_setup):
        _, _, executor = executor_setup
        with pytest.raises(PlanExecutionError):
            executor.execute(ViewScan("missing"))

    def test_structural_join(self, executor_setup):
        _, _, executor = executor_setup
        plan = StructuralJoin(
            left=ViewScan("items", alias="i"),
            right=ViewScan("keywords", alias="k"),
            left_column="i.ID1",
            right_column="k.ID1",
            axis=Axis.DESCENDANT,
        )
        result = executor.execute(plan)
        assert len(result) == 2  # only the pen item has keywords

    def test_parent_join_vs_ancestor_join(self, executor_setup):
        _, _, executor = executor_setup
        plan = StructuralJoin(
            left=ViewScan("items", alias="i"),
            right=ViewScan("keywords", alias="k"),
            left_column="i.ID1",
            right_column="k.ID1",
            axis=Axis.CHILD,
        )
        # keywords are grandchildren of items, so the parent join is empty
        assert len(executor.execute(plan)) == 0

    def test_id_equality_join(self, executor_setup):
        _, _, executor = executor_setup
        plan = IdEqualityJoin(
            left=ViewScan("items", alias="l"),
            right=ViewScan("items", alias="r"),
            left_column="l.ID1",
            right_column="r.ID1",
        )
        assert len(executor.execute(plan)) == 2

    def test_nested_structural_join_groups(self, executor_setup):
        _, _, executor = executor_setup
        plan = NestedStructuralJoin(
            left=ViewScan("items", alias="i"),
            right=ViewScan("keywords", alias="k"),
            left_column="i.ID1",
            right_column="k.ID1",
            group_column="G",
        )
        result = executor.execute(plan)
        assert len(result) == 2
        groups = {row[result.column_index("i.V2")]: row[-1] for row in result.rows}
        assert len(groups["pen"]) == 2
        assert len(groups["ink"]) == 0

    def test_projection_and_selection(self, executor_setup):
        _, _, executor = executor_setup
        plan = Projection(
            child=Selection(
                child=ViewScan("items", alias="i"),
                column="i.V2",
                formula=ValueFormula.eq("pen"),
            ),
            columns=["i.V2"],
            renames={"i.V2": "name"},
        )
        result = executor.execute(plan)
        assert result.column_names == ["name"]
        assert result.rows == [("pen",)]

    def test_unnest_and_group_by(self, executor_setup):
        _, _, executor = executor_setup
        unnested = executor.execute(
            Unnest(child=ViewScan("nested", alias="n"), nested_column="n.A2")
        )
        assert len(unnested) == 2  # two keywords, ink item dropped
        regrouped = executor.execute(
            GroupBy(
                child=Unnest(child=ViewScan("nested", alias="n"), nested_column="n.A2"),
                key_columns=["n.ID1"],
                nested_columns=["V2"],
                group_column="A",
            )
        )
        assert len(regrouped) == 1
        assert len(regrouped.rows[0][-1]) == 2

    def test_unnest_keep_empty(self, executor_setup):
        _, _, executor = executor_setup
        result = executor.execute(
            Unnest(child=ViewScan("nested", alias="n"), nested_column="n.A2", keep_empty=True)
        )
        assert len(result) == 3  # the ink item survives with nulls

    def test_content_navigation(self, executor_setup):
        _, _, executor = executor_setup
        plan = ContentNavigation(
            child=ViewScan("items", alias="i"),
            content_column="i.C1",
            steps=((Axis.CHILD, "listitem"), (Axis.CHILD, "keyword")),
            new_column="kw",
            attribute="V",
        )
        result = executor.execute(plan)
        keywords = {row[-1] for row in result.rows}
        assert keywords == {"gold", "steel", None}

    def test_parent_id_derivation(self, executor_setup):
        _, _, executor = executor_setup
        plan = ParentIdDerivation(
            child=ViewScan("keywords", alias="k"),
            id_column="k.ID1",
            levels_up=2,
            new_column="item_id",
        )
        result = executor.execute(plan)
        derived = {str(row[-1]) for row in result.rows}
        assert derived == {"1.1"}  # both keywords live under the first item

    def test_nested_projection(self, executor_setup):
        _, _, executor = executor_setup
        plan = NestedProjection(
            child=ViewScan("nested", alias="n"),
            nested_column="n.A2",
            columns=["V2"],
            renames={"V2": "kw"},
        )
        result = executor.execute(plan)
        nested = result.rows[0][-1]
        assert nested.column_names == ["kw"]

    def test_union_plan(self, executor_setup):
        _, _, executor = executor_setup
        plan = UnionPlan(
            plans=(
                Projection(child=ViewScan("items", alias="a"), columns=["a.V2"]),
                Projection(child=ViewScan("items", alias="b"), columns=["b.V2"]),
            )
        )
        assert len(executor.execute(plan)) == 2

    def test_empty_union_rejected(self, executor_setup):
        _, _, executor = executor_setup
        with pytest.raises(PlanExecutionError):
            executor.execute(UnionPlan(plans=()))

    def test_plan_description(self):
        plan = Projection(
            child=StructuralJoin(
                left=ViewScan("a"), right=ViewScan("b"), left_column="x", right_column="y"
            ),
            columns=["x"],
        )
        text = plan.describe()
        assert "StructuralJoin" in text and "ViewScan(a)" in text


class TestViews:
    def test_materialized_view_schema_and_relation(self, executor_setup):
        _, views, _ = executor_setup
        view = views["items"]
        assert view.column_names() == ["ID1", "V1", "C1", "V2"]
        assert view.is_materialized
        assert len(view.relation) == 2

    def test_unmaterialised_view_raises(self):
        from repro.errors import ReproError

        view = MaterializedView(parse_pattern("a(/b[V])", name="v"))
        with pytest.raises(ReproError):
            _ = view.relation

    def test_view_set_rejects_duplicates(self, executor_setup):
        _, views, _ = executor_setup
        with pytest.raises(Exception):
            views.add(MaterializedView(parse_pattern("a(/b[V])", name="x"), name="items"))

    def test_view_set_lookup(self, executor_setup):
        _, views, _ = executor_setup
        assert "items" in views
        assert views.get("nope") is None
        assert len(views) == 3
        with pytest.raises(KeyError):
            views["nope"]

    def test_id_scheme_flags(self):
        from repro.views.view import IdScheme

        assert IdScheme.dewey().structural and IdScheme.dewey().derives_parent
        assert not IdScheme(structural=False, derives_parent=False).structural
