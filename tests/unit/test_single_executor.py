"""What the one-executor design adds or promises.

* ``NestedStructuralJoin`` runs on the staircase kernels and must match the
  oracle's tuple sweep exactly (row order, nested row order) and its
  nested loop by contents — on duplicate ancestor IDs, ``keep_unmatched``
  with ⊥ join values, inputs in and out of document order and both axes;
* the strategy options are gone: the only accepted ``executor`` keyword
  value is ``"vectorized"``, ``Database`` takes neither ``executor`` nor
  ``maintenance``, and ``Database.executor`` is a read-only constant;
* ``profile=True`` still yields one :class:`OperatorRunStats` per distinct
  operator of a DAG plan, whether the operator is a kernel or row-wise.
"""

from __future__ import annotations

import itertools

import pytest

from repro import Database, parse_parenthesized
from repro.algebra.execution import PlanExecutor
from repro.algebra.operators import (
    IdEqualityJoin,
    NestedStructuralJoin,
    Projection,
    Unnest,
    ViewScan,
)
from repro.algebra.tuples import Column, Relation
from repro.errors import PlanExecutionError
from repro.patterns.pattern import Axis
from repro.xmltree.ids import DeweyID

from support.oracle_executor import OracleExecutor
from support.relations import stored_view


def _extent(ids, values):
    relation = Relation(
        [Column("ID1", kind="ID"), Column("V1", kind="V")],
        rows=[
            (None if text is None else DeweyID.from_string(text), value)
            for text, value in zip(ids, values)
        ],
    )
    return stored_view(relation)


def _exact(value):
    """A cell's comparable form that keeps nested row order."""
    if isinstance(value, Relation):
        return (value.column_names, [_exact(row) for row in value.rows])
    if isinstance(value, tuple):
        return tuple(_exact(cell) for cell in value)
    return value


def _nested_join(axis, keep_unmatched):
    return NestedStructuralJoin(
        left=ViewScan("upper", alias="u"),
        right=ViewScan("lower", alias="l"),
        left_column="u.ID1",
        right_column="l.ID1",
        group_column="G",
        axis=axis,
        keep_unmatched=keep_unmatched,
    )


# upper: a duplicated ancestor, a nested chain (1.1 ≺ 1.1.2), two ⊥ rows
UPPER_IDS = ["1.1", "1.1", "1.1.2", None, "1.2", "1.3", None]
# lower: children, grandchildren, an equal identifier (never matches), a ⊥ row
LOWER_IDS = ["1.1.1", "1.1.2", "1.1.2.1", "1.1.2.1", None, "1.2.5", "1.2.5.1", "1.4.1"]


@pytest.mark.parametrize(
    "axis, keep_unmatched, presorted",
    list(itertools.product([Axis.CHILD, Axis.DESCENDANT], [True, False], [True, False])),
)
def test_nested_structural_join_on_kernels_matches_both_oracles(
    axis, keep_unmatched, presorted
):
    upper_ids, lower_ids = list(UPPER_IDS), list(LOWER_IDS)
    if not presorted:
        # the real IDs out of document order (⊥ rows sit anywhere either way)
        upper_ids.reverse()
        lower_ids.reverse()
    views = {
        "upper": _extent(upper_ids, "abcdefg"),
        "lower": _extent(lower_ids, "stuvwxyz"),
    }
    plan = _nested_join(axis, keep_unmatched)

    production = PlanExecutor(views).execute(plan)
    sweep = OracleExecutor(views).execute(plan)
    assert production.column_names == sweep.column_names
    assert _exact(tuple(production.rows)) == _exact(tuple(sweep.rows))

    nested_loop = OracleExecutor(views, structural_join_strategy="nested-loop").execute(plan)
    assert production.same_contents(nested_loop)

    # the fixture really exercises what it claims to
    groups = {row[1]: len(row[-1]) for row in production.rows}
    duplicated = [value for text, value in zip(upper_ids, "abcdefg") if text == "1.1"]
    assert groups[duplicated[0]] == groups[duplicated[1]] > 0
    nulls = [value for text, value in zip(upper_ids, "abcdefg") if text is None]
    if keep_unmatched:
        assert [groups[value] for value in nulls] == [0, 0]
        assert len(production) == len(upper_ids)
    else:
        assert not set(nulls) & set(groups)
        assert all(groups.values())


# --------------------------------------------------------------------------- #
# the options are gone
# --------------------------------------------------------------------------- #
def test_plan_executor_accepts_only_the_one_executor():
    PlanExecutor({}, executor="vectorized")  # the frozen bench call shape
    with pytest.raises(PlanExecutionError, match="only executor"):
        PlanExecutor({}, executor="tuple")
    with pytest.raises(TypeError):
        PlanExecutor({}, structural_join_strategy="nested-loop")
    with pytest.raises(TypeError):
        PlanExecutor({}, id_join_strategy="hash")


def test_database_constructor_has_no_strategy_parameters():
    document = parse_parenthesized('site(item(name="pen"))')
    with pytest.raises(TypeError):
        Database(document, executor="vectorized")
    with pytest.raises(TypeError):
        Database(document, maintenance="incremental")
    assert not hasattr(Database(document), "maintenance")


def test_recover_has_no_maintenance_parameter(tmp_path):
    db = Database(parse_parenthesized('site(item(name="pen"))'))
    db.attach_log(tmp_path / "changes.jsonl")
    db.close()
    with pytest.raises(TypeError):
        Database.recover(tmp_path / "changes.jsonl", maintenance="incremental")
    Database.recover(tmp_path / "changes.jsonl").close()


def test_database_executor_is_a_read_only_constant():
    db = Database(parse_parenthesized('site(item(name="pen"))'))
    assert db.executor == "vectorized"
    with pytest.raises(AttributeError):
        db.executor = "tuple"
    # the exact call shape of the frozen bench/layers.py
    PlanExecutor(db.views, executor=db.executor)


def test_stats_keep_the_keys_monitoring_reads():
    db = Database(parse_parenthesized('site(item(name="pen"))'))
    snapshot = db.stats()
    assert snapshot["executor"] == "vectorized"
    assert "maintenance_mode" not in snapshot
    # /metrics exports one service_maintenance_operations series per key
    assert set(snapshot["maintenance"]) == {
        "delta_applied", "rematerialized", "summary_incremental", "summary_rebuilt",
        "statistics_spliced", "statistics_reobserved", "links_followed", "links_dropped",
    }


# --------------------------------------------------------------------------- #
# one profiling block for kernel and row-wise operators alike
# --------------------------------------------------------------------------- #
def test_profile_records_every_distinct_operator_of_a_dag_once():
    views = {
        "upper": _extent(["1.1", "1.2"], "ab"),
        "lower": _extent(["1.1.1", "1.1.2", "1.2.1"], "xyz"),
    }
    shared = ViewScan("upper", alias="u")  # referenced by two parents
    lower = ViewScan("lower", alias="l")
    nested = NestedStructuralJoin(
        left=shared, right=lower,
        left_column="u.ID1", right_column="l.ID1", group_column="G",
    )
    unnest = Unnest(child=nested, nested_column="G")  # row-wise above a kernel
    again = Projection(child=shared, columns=["u.ID1"], renames={"u.ID1": "again"})
    root = IdEqualityJoin(
        left=unnest, right=again, left_column="u.ID1", right_column="again"
    )
    operators = [shared, lower, nested, unnest, again, root]

    executor = PlanExecutor(views, profile=True)
    result = executor.execute(root)
    assert len(result) == 3

    assert len(executor._run_stats) == len(operators), (
        "one measurement per distinct operator object, shared ones included once"
    )
    for operator in operators:
        stats = executor.run_stats(operator)
        assert stats is not None and stats.operator is operator
        assert stats.rows == len(executor.execute(operator))
        assert 0.0 <= stats.seconds <= stats.inclusive_seconds
    # children are charged to their first caller, so the root's inclusive
    # time covers every operator's own time
    own = sum(executor.run_stats(operator).seconds for operator in operators)
    assert executor.run_stats(root).inclusive_seconds >= own * 0.999

    assert PlanExecutor(views).run_stats(root) is None  # unprofiled: nothing kept
