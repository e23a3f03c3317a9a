"""The service's batch encoder against the relation codec, on the paper workloads.

The service encodes a query's answer straight from the executor's
:class:`~repro.algebra.columnar.ColumnBatch` (:func:`batch_to_payload`);
clients, the load driver and the benchmark compare it with
``relation_to_payload(db.query(text))``, which encodes an answer whose rows
were never read from its batch and one whose rows were read from those
rows.  For every rewriting the search finds on fig13 (XMark) and fig14
(DBLP), unions off and on, all three — and the payload of a relation built
from the rows alone — must agree dict for dict and ``json.dumps`` byte for
byte, decode back to the executor's rows, and re-encode unchanged.
"""

from __future__ import annotations

import json

import pytest

from repro.algebra.execution import PlanExecutor
from repro.algebra.tuples import Relation, _hashable
from repro.service.models import batch_to_payload, relation_from_payload, relation_to_payload

from support.paper_workloads import HARNESS_CONFIGS


def _check_every_plan(workload, config_name) -> set:
    """Assert the identity on every rewriting; return the column kinds seen."""
    kinds = set()
    for query, rewriting in workload.rewritings(config_name):
        label = f"{query.name!r} via views {rewriting.views_used} ({config_name})"
        # a fresh executor each: the batch side must not lean on rows the
        # relation side materialised
        batch = PlanExecutor(workload.view_set).execute_batch(rewriting.plan)
        from_batch = batch_to_payload(batch)
        relation = PlanExecutor(workload.view_set).execute(rewriting.plan)
        unread = relation_to_payload(relation)
        assert relation._batch is not None, f"encoding read the rows on {label}"
        rows = relation.rows  # read: from here on the rows are what is encoded
        read = relation_to_payload(relation)
        assert relation._batch is None, label
        expected = relation_to_payload(Relation(relation.columns, rows))
        for name, payload in (("batch", from_batch), ("unread", unread), ("read", read)):
            assert payload == expected, f"the {name} payload diverges on {label}"
            text = json.dumps(payload)
            assert text == json.dumps(expected), f"the {name} encoding diverges on {label}"

        rebuilt = relation_from_payload(json.loads(text))
        assert rebuilt.column_names == relation.column_names, label
        assert [_hashable(row) for row in rebuilt.rows] == [
            _hashable(row) for row in relation.rows
        ], f"decoded rows diverge on {label}"
        assert relation_to_payload(rebuilt) == expected, f"re-encoding moved on {label}"
        kinds.update(from_batch["kinds"])
    return kinds


@pytest.mark.parametrize("config_name", sorted(HARNESS_CONFIGS))
def test_fig13_xmark_batch_payload_is_the_relation_payload(xmark_workload, config_name):
    kinds = _check_every_plan(xmark_workload, config_name)
    assert "dewey" in kinds, "the identity must cover identifier columns"


@pytest.mark.parametrize("config_name", sorted(HARNESS_CONFIGS))
def test_fig14_dblp_batch_payload_is_the_relation_payload(dblp_workload, config_name):
    kinds = _check_every_plan(dblp_workload, config_name)
    assert "dewey" in kinds, "the identity must cover identifier columns"
