"""``⋈=``: one build/probe hash join on Dewey component keys.

The executor builds on the right input and probes in left-row order,
whatever order its inputs arrive in.  Every test here compares the
production executor against the reference interpreter
(``support.oracle_executor``, which hashes on ``str(id)``), row order
included.
"""

from __future__ import annotations

from repro import Database
from repro.algebra.execution import PlanExecutor
from repro.algebra.operators import IdEqualityJoin, ViewScan
from repro.algebra.tuples import Relation
from repro.xmltree.ids import DeweyID

from support.oracle_executor import OracleExecutor
from support.relations import stored_view


def _relation(columns, ids_and_values):
    relation = Relation(columns)
    relation.rows = [
        tuple(DeweyID.from_string(value) if index == 0 and value is not None else value
              for index, value in enumerate(row))
        for row in ids_and_values
    ]
    return relation


def _assert_matches_the_oracle(views, plan):
    """Production ≡ the reference ``⋈=``, row order included."""
    result = PlanExecutor(views).execute(plan)
    oracle = OracleExecutor(views).execute(plan)
    assert result.rows == oracle.rows, "production ⋈= must produce the oracle's exact row list"
    assert result.column_names == oracle.column_names
    return result


def _run(left, right):
    """Execute L ⋈= R in production and in the oracle; return the result."""
    join = IdEqualityJoin(
        ViewScan("l"), ViewScan("r"), left_column="l.ID", right_column="r.ID"
    )
    return _assert_matches_the_oracle(
        {"l": stored_view(left), "r": stored_view(right)}, join
    )


def test_id_join_basic_identity():
    left = _relation(["ID", "V"], [("1.1", "a"), ("1.2", "b"), ("1.3", "c")])
    right = _relation(["ID", "W"], [("1.2", "x"), ("1.3", "y"), ("1.4", "z")])
    result = _run(left, right)
    assert len(result) == 2


def test_id_join_duplicates_on_both_sides():
    left = _relation(["ID", "V"], [("1.1", "a1"), ("1.1", "a2"), ("1.2", "b")])
    right = _relation(["ID", "W"], [("1.1", "x1"), ("1.1", "x2"), ("1.1", "x3")])
    result = _run(left, right)
    assert len(result) == 6  # 2 left x 3 right for the shared identifier


def test_id_join_null_identifiers_never_match():
    left = _relation(["ID", "V"], [(None, "n"), ("1.1", "a")])
    right = _relation(["ID", "W"], [(None, "m"), ("1.1", "x")])
    result = _run(left, right)
    assert len(result) == 1


def test_id_join_empty_sides():
    left = _relation(["ID", "V"], [])
    right = _relation(["ID", "W"], [("1.1", "x")])
    assert len(_run(left, right)) == 0
    assert len(_run(right, left)) == 0


def test_unsorted_inputs_pair_in_left_row_order():
    # deliberately unsorted rows: pairs still come out in left-row order,
    # like the oracle's
    left = _relation(["ID", "V"], [("1.3", "c"), ("1.1", "a")])
    right = _relation(["ID", "W"], [("1.1", "x"), ("1.3", "y")])
    result = _run(left, right)
    assert len(result) == 2


def test_id_join_prefix_identifiers_are_not_equal():
    # 1.1 is an ancestor of 1.1.1 but not equal to it
    left = _relation(["ID", "V"], [("1.1", "a"), ("1.1.1", "b")])
    right = _relation(["ID", "W"], [("1.1.1", "x")])
    result = _run(left, right)
    assert len(result) == 1


def test_id_join_output_keeps_the_left_document_order():
    left = _relation(["ID", "V"], [("1.1", "a"), ("1.2", "b")])
    right = _relation(["ID", "W"], [("1.1", "x")])
    join = IdEqualityJoin(
        ViewScan("l"), ViewScan("r"), left_column="l.ID", right_column="r.ID"
    )
    views = {"l": stored_view(left), "r": stored_view(right)}
    result = PlanExecutor(views).execute_batch(join)
    # probe order is left order, read off the data
    assert result.source(result.column_index("l.ID")).in_document_order()


def test_ab_identity_on_real_rewritten_plans(auction_document):
    """Every fig-1 auction rewriting executes exactly like the oracle."""
    database = Database(auction_document)
    database.create_view("site(//item[ID](/name[V]))", name="names")
    database.create_view("site(//item[ID](/description[ID]))", name="descr")
    query = "site(//item[ID](/name[V], /description[ID]))"
    outcome = database.rewrite(query)
    assert outcome.found
    for rewriting in outcome:
        _assert_matches_the_oracle(database.views, rewriting.plan)
    database.close()
