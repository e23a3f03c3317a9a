"""An answer stays columnar until its rows are read.

``Database.query`` returns the executor's batch behind a relation that
builds its rows on their first read (``ColumnBatch.to_relation``), and a
kernel whose kept index vector reads every input row in place keeps it as
``range(n)`` and hands its input's column sources through.  So:

* a warm ``len(db.query(text))`` and ``len(view.relation)`` read no value;
* an answer whose rows are first read after a write holds the answer from
  before it — a write splices fresh sources, so an old batch is a snapshot;
* no reader mutates a value list, which can now be an extent's own;
* each of the five identity sites (σ keep, index probe, π dedup, ``⋈=``
  pairs, structural pairs) returns its input's very sources, with the
  oracle's rows.
"""

from __future__ import annotations

import pytest

from repro import evaluate_pattern
from repro.algebra.execution import PlanExecutor
from repro.algebra.operators import (
    IdEqualityJoin,
    IndexScan,
    Projection,
    Selection,
    StructuralJoin,
    ViewScan,
)
from repro.algebra.tuples import Column, Relation, _hashable
from repro.patterns.pattern import Axis
from repro.patterns.predicates import ValueFormula
from repro.service.app import ServiceApp
from repro.service.models import relation_to_payload
from repro.workloads import XMARK_QUERY_PATTERNS
from repro.workloads.xmark import generate_xmark_document
from repro.xmltree.ids import DeweyID

from support.oracle_executor import OracleExecutor
from support.paper_workloads import seed_view_session
from support.relations import stored_view

NAMES = ("Q1", "Q2", "Q4", "Q5", "Q6", "Q18", "Q19")


@pytest.fixture()
def session():
    document = generate_xmark_document(scale=2.0, seed=548, name="xmark-columnar-answers")
    db, queries = seed_view_session(document, NAMES)
    with db:
        yield db, queries, document


def _rows(relation) -> list:
    return [_hashable(row) for row in relation.rows]


def test_a_warm_answer_and_a_view_relation_count_rows_reading_no_value(session, value_reads):
    db, queries, document = session
    expected = [len(db.query(query).rows) for query in queries]
    for query in queries:
        assert db.query(query).same_contents(evaluate_pattern(query, document))
    value_reads.clear()
    counted = [len(db.query(query)) for query in queries]
    extents = [len(view.relation) for view in db.views]
    assert value_reads == [], "a row count read a column"
    assert counted == expected
    assert extents == [view.extent.row_count for view in db.views]


def test_an_answer_first_read_after_a_write_is_the_answer_before_it(session):
    db, queries, document = session
    asia = document.nodes_on_path("/site/regions/asia")[0]
    node = None
    for write in ("insert", "delete"):
        unread = [db.query(query) for query in queries]
        before = [_rows(db.query(query)) for query in queries]
        if write == "insert":
            node = db.insert_subtree(asia, asia.children[0].copy())
        else:
            db.delete_subtree(node)
        moved = 0
        for query, answer, rows in zip(queries, unread, before):
            assert _rows(answer) == rows, f"{query.name}: the old answer moved with the {write}"
            now = db.query(query)
            assert now.same_contents(evaluate_pattern(query, document))
            moved += not now.same_contents(Relation(now.columns, answer.rows))
        assert moved, f"the {write} changed no answer: the snapshot went untested"


def test_no_reader_mutates_a_value_list(session):
    db, queries, _ = session
    caches = ("_values", "_keys", "_row_keys", "_text")

    def held():
        return {
            (view.name, position, name): getattr(view.extent.source(position), name)
            for view in db.views
            for position in range(len(view.extent.columns))
            for name in caches
            if getattr(view.extent.source(position), name) is not None
        }

    app = ServiceApp(db)

    def reads():
        for query in queries:
            db.query(query).rows
            relation_to_payload(db.query(query))
            read = db.query(query)
            read.rows
            relation_to_payload(read)
            assert app.handle("POST", "/query", {"query": XMARK_QUERY_PATTERNS[query.name]}).ok
        for view in db.views:
            view.relation.rows
            relation_to_payload(view.relation)

    reads()  # every cache a read fills is filled: what later reads share
    lists = held()
    copies = {key: list(value) for key, value in lists.items()}
    reads()
    reads()
    now = held()
    assert now.keys() == lists.keys()
    for key, value in lists.items():
        assert now[key] is value and value == copies[key], f"{key} was mutated"


# --------------------------------------------------------------------------- #
# the five identity sites
# --------------------------------------------------------------------------- #
def _views(values=(3, 1, 2)):
    ids = [DeweyID((1, i)) for i in range(1, 4)]
    upper = Relation([Column("ID1", kind="ID"), Column("V1")], rows=list(zip(ids, values)))
    twin = Relation([Column("ID1", kind="ID")], rows=[(i,) for i in ids])
    lower = Relation([Column("ID1", kind="ID")], rows=[(DeweyID((1, i, 1)),) for i in range(1, 4)])
    return {"upper": stored_view(upper), "twin": stored_view(twin), "lower": stored_view(lower)}


def _sites():
    scan = ViewScan("upper", alias="u")
    every = ValueFormula.ge(1)
    return {
        "selection": (Selection(child=scan, column="u.V1", formula=every), ("child",)),
        "index scan": (IndexScan("upper", "u.V1", every, alias="u"), ("upper",)),
        "projection": (Projection(child=scan, columns=["u.V1"]), ("child",)),
        "id join": (
            IdEqualityJoin(
                left=scan, right=ViewScan("twin", alias="t"),
                left_column="u.ID1", right_column="t.ID1",
            ),
            ("left", "right"),
        ),
        "structural join": (
            StructuralJoin(
                left=scan, right=ViewScan("lower", alias="l"),
                left_column="u.ID1", right_column="l.ID1", axis=Axis.CHILD,
            ),
            ("left", "right"),
        ),
    }


@pytest.mark.parametrize("site", sorted(_sites()))
def test_an_identity_site_hands_its_input_s_sources_through(site):
    """``u.V1`` = 3, 1, 2 proves nothing distinct, so π dedups — and keeps
    every row; every other site reads each input row once, in order."""
    views = _views()
    plan, inputs = _sites()[site]
    executor = PlanExecutor(views)
    batch = executor.execute_batch(plan)
    below = []
    for name in inputs:
        source = views[name].extent if name in views else executor.execute_batch(getattr(plan, name))
        below += [source.source(index) for index in range(len(source.columns))]
    if isinstance(plan, Projection):
        child = executor.execute_batch(plan.child)
        below = [child.source(child.column_index(name)) for name in plan.columns]
    assert len(below) == len(batch.columns)
    assert all(batch.source(i) is source for i, source in enumerate(below)), site
    kept = plan._kept[1]
    assert all(isinstance(v, range) for v in (kept if isinstance(kept, tuple) else (kept,)))
    oracle = OracleExecutor(views).execute(plan)
    assert _rows(batch.to_relation()) == _rows(oracle)


def test_a_provably_distinct_projection_keeps_the_same_range():
    views = _views(values=(1, 2, 3))  # ascending: distinct without a dedup
    plan = Projection(child=ViewScan("upper", alias="u"), columns=["u.V1"])
    batch = PlanExecutor(views).execute_batch(plan)
    assert plan._kept[1] == range(3)
    assert batch.source(0) is views["upper"].extent.source(1)
    assert _rows(batch.to_relation()) == _rows(OracleExecutor(views).execute(plan))
