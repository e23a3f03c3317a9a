"""``⋈=`` on Dewey order: the merge path against the hash-join oracle.

When both inputs of an :class:`IdEqualityJoin` arrive annotated as
Dewey-sorted on their join columns, the executor merges in one pass instead
of hashing.  Every test here compares the production executor against the
reference interpreter (``support.oracle_executor``) under both of its ``⋈=``
algorithms — the forced hash join and the tuple merge — row order included
(the merge is engineered to reproduce the hash join's left-row-major output
exactly).
"""

from __future__ import annotations

from repro import Database
from repro.algebra.execution import PlanExecutor
from repro.algebra.operators import IdEqualityJoin, ViewScan
from repro.algebra.tuples import Relation
from repro.xmltree.ids import DeweyID

from support.oracle_executor import OracleExecutor
from support.relations import stored_view


def _relation(columns, ids_and_values, sorted_by=None):
    relation = Relation(columns)
    relation.rows = [
        tuple(DeweyID.from_string(value) if index == 0 and value is not None else value
              for index, value in enumerate(row))
        for row in ids_and_values
    ]
    relation.sorted_by = sorted_by
    return relation


def _assert_matches_both_oracles(views, plan):
    """Production ≡ hash oracle ≡ tuple-merge oracle, row order included."""
    result = PlanExecutor(views).execute(plan)
    for strategy in ("hash", "merge"):
        oracle = OracleExecutor(views, id_join_strategy=strategy).execute(plan)
        assert result.rows == oracle.rows, (
            f"production ⋈= must produce the {strategy} oracle's exact row list"
        )
        assert result.column_names == oracle.column_names
    return result


def _run_both(left, right):
    """Execute L ⋈= R in production and under both oracles; return rows."""
    join = IdEqualityJoin(
        ViewScan("l"), ViewScan("r"), left_column="l.ID", right_column="r.ID"
    )
    return _assert_matches_both_oracles(
        {"l": stored_view(left), "r": stored_view(right)}, join
    )


def test_merge_join_basic_identity():
    left = _relation(["ID", "V"], [("1.1", "a"), ("1.2", "b"), ("1.3", "c")], "ID")
    right = _relation(["ID", "W"], [("1.2", "x"), ("1.3", "y"), ("1.4", "z")], "ID")
    result = _run_both(left, right)
    assert len(result) == 2


def test_merge_join_duplicates_on_both_sides():
    left = _relation(
        ["ID", "V"], [("1.1", "a1"), ("1.1", "a2"), ("1.2", "b")], "ID"
    )
    right = _relation(
        ["ID", "W"], [("1.1", "x1"), ("1.1", "x2"), ("1.1", "x3")], "ID"
    )
    result = _run_both(left, right)
    assert len(result) == 6  # 2 left x 3 right for the shared identifier


def test_merge_join_null_identifiers_never_match():
    left = _relation(["ID", "V"], [(None, "n"), ("1.1", "a")], "ID")
    right = _relation(["ID", "W"], [(None, "m"), ("1.1", "x")], "ID")
    result = _run_both(left, right)
    assert len(result) == 1


def test_merge_join_empty_sides():
    left = _relation(["ID", "V"], [], "ID")
    right = _relation(["ID", "W"], [("1.1", "x")], "ID")
    assert len(_run_both(left, right)) == 0
    assert len(_run_both(right, left)) == 0


def test_unsorted_inputs_fall_back_to_hash():
    # deliberately unsorted rows with no annotation: the executor must
    # notice (``sorted_by`` is None) and hash instead — results identical
    left = _relation(["ID", "V"], [("1.3", "c"), ("1.1", "a")], None)
    right = _relation(["ID", "W"], [("1.1", "x"), ("1.3", "y")], "ID")
    result = _run_both(left, right)
    assert len(result) == 2


def test_merge_join_prefix_identifiers_are_not_equal():
    # 1.1 is an ancestor of 1.1.1 but not equal to it; the merge's cursor
    # must not conflate prefix order with equality
    left = _relation(["ID", "V"], [("1.1", "a"), ("1.1.1", "b")], "ID")
    right = _relation(["ID", "W"], [("1.1.1", "x")], "ID")
    result = _run_both(left, right)
    assert len(result) == 1


def test_merge_join_preserves_left_order_annotation():
    left = _relation(["ID", "V"], [("1.1", "a"), ("1.2", "b")], "ID")
    right = _relation(["ID", "W"], [("1.1", "x")], "ID")
    join = IdEqualityJoin(
        ViewScan("l"), ViewScan("r"), left_column="l.ID", right_column="r.ID"
    )
    views = {"l": stored_view(left), "r": stored_view(right)}
    result = PlanExecutor(views).execute(join)
    assert result.sorted_by == "l.ID"


def test_ab_identity_on_real_rewritten_plans(auction_document):
    """Every fig-1 auction rewriting executes identically under both ⋈= paths."""
    database = Database(auction_document)
    database.create_view("site(//item[ID](/name[V]))", name="names")
    database.create_view("site(//item[ID](/description[ID]))", name="descr")
    query = "site(//item[ID](/name[V], /description[ID]))"
    outcome = database.rewrite(query)
    assert outcome.found
    for rewriting in outcome:
        _assert_matches_both_oracles(database.views, rewriting.plan)
    database.close()
