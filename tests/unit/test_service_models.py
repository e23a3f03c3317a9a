"""The service request models: strict validation, and the relation codec.

The contract under test: malformed payloads always raise a typed
:class:`RequestValidationError` (never construct a partial request), and
``relation_from_payload(relation_to_payload(r))`` rebuilds a relation whose
re-encoding is *identical* — the property the HTTP round-trip tests and the
load tester's row-identity check both stand on.
"""

from __future__ import annotations

import json

import pytest

from repro import Relation, parse_parenthesized
from repro.algebra.columnar import ColumnBatch
from repro.algebra.tuples import _hashable
from repro.errors import RequestValidationError, ServiceError
from repro.service.models import (
    SCHEMA_VERSION,
    DdlRequest,
    ExplainRequest,
    IngestRequest,
    PrepareRequest,
    QueryManyRequest,
    QueryRequest,
    batch_to_payload,
    relation_from_payload,
    relation_to_payload,
)
from repro.xmltree.ids import DeweyID


# --------------------------------------------------------------------------- #
# strict validation
# --------------------------------------------------------------------------- #
def test_query_request_accepts_minimal_payload():
    request = QueryRequest.from_payload({"query": "site(//item[ID])"})
    assert request.query == "site(//item[ID])"
    assert request.name is None


def test_query_request_accepts_explicit_schema_version():
    request = QueryRequest.from_payload(
        {"schema_version": SCHEMA_VERSION, "query": "q", "name": "n"}
    )
    assert (request.query, request.name) == ("q", "n")


@pytest.mark.parametrize(
    "payload",
    [
        None,
        "site(//item[ID])",
        ["site(//item[ID])"],
        42,
    ],
)
def test_non_object_payloads_are_rejected(payload):
    with pytest.raises(RequestValidationError, match="JSON object"):
        QueryRequest.from_payload(payload)


def test_unsupported_schema_version_is_rejected():
    with pytest.raises(RequestValidationError, match="schema_version"):
        QueryRequest.from_payload({"schema_version": 99, "query": "q"})


def test_unknown_fields_are_rejected():
    with pytest.raises(RequestValidationError, match="unknown field"):
        QueryRequest.from_payload({"query": "q", "qery": "typo"})


def test_missing_required_field_is_rejected():
    with pytest.raises(RequestValidationError, match="missing required"):
        QueryRequest.from_payload({"name": "q"})


@pytest.mark.parametrize("bad", [1, 1.5, True, ["q"], {"q": 1}])
def test_wrongly_typed_query_is_rejected(bad):
    with pytest.raises(RequestValidationError, match="'query' must be"):
        QueryRequest.from_payload({"query": bad})


def test_bool_is_not_accepted_where_int_semantics_differ():
    # bool subclasses int in python; the wire contract still rejects it
    with pytest.raises(RequestValidationError):
        ExplainRequest.from_payload({"query": "q", "analyze": "yes"})
    request = ExplainRequest.from_payload({"query": "q", "analyze": True})
    assert request.analyze is True


def test_query_many_requires_non_empty_string_list():
    with pytest.raises(RequestValidationError, match="non-empty"):
        QueryManyRequest.from_payload({"queries": []})
    with pytest.raises(RequestValidationError, match=r"queries\[1\]"):
        QueryManyRequest.from_payload({"queries": ["ok", 2]})
    request = QueryManyRequest.from_payload({"queries": ["a", "b"]})
    assert request.queries == ["a", "b"]


def test_prepare_request_mirrors_query_request():
    request = PrepareRequest.from_payload({"query": "q", "name": "stmt"})
    assert (request.query, request.name) == ("q", "stmt")
    with pytest.raises(RequestValidationError):
        PrepareRequest.from_payload({})


def test_ddl_request_validates_op_and_pattern():
    request = DdlRequest.from_payload(
        {"op": "create_view", "name": "v", "pattern": "site(//item[ID])"}
    )
    assert request.materialize is True
    with pytest.raises(RequestValidationError, match="unknown ddl op"):
        DdlRequest.from_payload({"op": "alter_view", "name": "v"})
    with pytest.raises(RequestValidationError, match="requires a 'pattern'"):
        DdlRequest.from_payload({"op": "create_view", "name": "v"})
    # drop needs no pattern
    request = DdlRequest.from_payload({"op": "drop_view", "name": "v"})
    assert request.pattern is None


def test_ingest_request_validates_per_op_requirements():
    insert = IngestRequest.from_payload(
        {"op": "insert", "parent": "1", "subtree": ["item", None, []]}
    )
    assert insert.decoded_subtree().label == "item"
    with pytest.raises(RequestValidationError, match="unknown ingest op"):
        IngestRequest.from_payload({"op": "upsert", "parent": "1"})
    with pytest.raises(RequestValidationError, match="'subtree'"):
        IngestRequest.from_payload({"op": "insert", "parent": "1"})
    with pytest.raises(RequestValidationError, match="'dewey'"):
        IngestRequest.from_payload({"op": "delete"})


def test_malformed_subtree_encoding_is_a_validation_error():
    request = IngestRequest.from_payload(
        {"op": "insert", "parent": "1", "subtree": ["only-a-label"]}
    )
    with pytest.raises(RequestValidationError, match="malformed 'subtree'"):
        request.decoded_subtree()


# --------------------------------------------------------------------------- #
# the relation codec
# --------------------------------------------------------------------------- #
def test_atomic_relation_roundtrip():
    relation = Relation(["V", "N"], [["pen", 1], ["ink", 2], [None, 3]])
    payload = relation_to_payload(relation)
    assert payload["columns"] == ["V", "N"]
    assert payload["row_count"] == 3
    rebuilt = relation_from_payload(payload)
    assert rebuilt.rows == relation.rows
    assert relation_to_payload(rebuilt) == payload


def test_dewey_cells_roundtrip_as_tagged_objects():
    # an ID column is dotted text; the tagged object is left to mixed columns
    relation = Relation(["ID"], [[DeweyID.from_string("1.2.3")]])
    payload = relation_to_payload(relation)
    assert payload["kinds"] == ["dewey"]
    assert payload["rows"][0][0] == "1.2.3"
    rebuilt = relation_from_payload(payload)
    assert rebuilt.rows[0][0] == DeweyID.from_string("1.2.3")
    assert relation_to_payload(rebuilt) == payload

    mixed = Relation(["X"], [[DeweyID.from_string("1.2.3")], ["1.2.3"]])
    payload = relation_to_payload(mixed)
    assert payload["kinds"] == ["cell"]
    assert payload["rows"] == [[{"$type": "dewey", "id": "1.2.3"}], ["1.2.3"]]
    assert relation_from_payload(payload).rows == mixed.rows


def test_node_cells_roundtrip_with_identity_and_content():
    document = parse_parenthesized('site(item(name="pen"))')
    item = document.root.children[0]
    relation = Relation(["C"], [[item]])
    payload = relation_to_payload(relation)
    cell = payload["rows"][0][0]
    assert cell["$type"] == "node" and cell["id"] == str(item.dewey)
    rebuilt = relation_from_payload(payload)
    node = rebuilt.rows[0][0]
    assert node.label == "item" and str(node.dewey) == str(item.dewey)
    assert node.children[0].value == "pen"
    # re-encoding the rebuilt relation is bytewise-stable
    assert relation_to_payload(rebuilt) == payload


def test_nested_relation_cells_roundtrip():
    inner = Relation(["V"], [["pen"]])
    outer = Relation(["R"], [[inner]])
    payload = relation_to_payload(outer)
    assert payload["rows"][0][0]["$type"] == "relation"
    rebuilt = relation_from_payload(payload)
    assert rebuilt.rows[0][0].rows == [("pen",)]
    assert relation_to_payload(rebuilt) == payload


def test_unencodable_cells_raise():
    relation = Relation(["X"], [[object()]])
    with pytest.raises(ServiceError, match="cannot encode"):
        relation_to_payload(relation)


def test_unknown_cell_tag_raises():
    with pytest.raises(ServiceError, match="cannot decode"):
        relation_from_payload(
            {"columns": ["X"], "kinds": ["cell"], "rows": [[{"$type": "widget"}]],
             "row_count": 1}
        )


def test_unknown_column_kind_raises():
    with pytest.raises(ServiceError, match="unknown column kind 'widget'"):
        relation_from_payload(
            {"columns": ["X"], "kinds": ["widget"], "rows": [[1]], "row_count": 1}
        )
    with pytest.raises(ServiceError, match="1 kinds for 2 columns"):
        relation_from_payload(
            {"columns": ["X", "Y"], "kinds": ["atom"], "rows": [], "row_count": 0}
        )


def test_a_schema_1_payload_is_malformed_and_a_schema_1_request_a_400():
    with pytest.raises(ServiceError, match="malformed relation payload"):
        relation_from_payload({"columns": ["X"], "rows": [[1]], "row_count": 1})
    with pytest.raises(RequestValidationError, match="this server speaks 2"):
        QueryRequest.from_payload({"schema_version": 1, "query": "q"})


# --------------------------------------------------------------------------- #
# one encoder: the batch's payload is the relation's
# --------------------------------------------------------------------------- #
def _encoded_both_ways(relation: Relation) -> dict:
    """``relation_to_payload(relation)``, checked against the batch encoder.

    The batch is a gather over the relation's transpose, the shape the
    executor hands the service; both payloads must agree dict for dict and
    byte for byte, decode to the same rows and re-encode unchanged.
    """
    payload = relation_to_payload(relation)
    batch = ColumnBatch.from_relation(relation).gather(range(len(relation.rows)))
    from_batch = batch_to_payload(batch)
    assert from_batch == payload
    assert json.dumps(from_batch) == json.dumps(payload)
    rebuilt = relation_from_payload(json.loads(json.dumps(payload)))
    assert rebuilt.column_names == relation.column_names
    assert [_hashable(row) for row in rebuilt.rows] == [
        _hashable(row) for row in relation.rows
    ]
    assert relation_to_payload(rebuilt) == payload
    return payload


def test_empty_and_zero_column_relations():
    payload = _encoded_both_ways(Relation(["ID", "V"], []))
    assert payload == {
        "columns": ["ID", "V"], "kinds": ["atom", "atom"], "rows": [], "row_count": 0
    }
    payload = _encoded_both_ways(Relation([], [(), ()]))
    assert payload == {"columns": [], "kinds": [], "rows": [[], []], "row_count": 2}


def test_bottom_in_and_as_columns():
    one, two = DeweyID((1, 1)), DeweyID((1, 2))
    payload = _encoded_both_ways(
        Relation(["B", "ID"], [(None, one), (None, None), (None, two)])
    )
    assert payload["kinds"] == ["atom", "dewey"]
    assert payload["rows"] == [[None, "1.1"], [None, None], [None, "1.2"]]


def test_an_id_column_mixed_with_atoms_is_a_cell_column():
    payload = _encoded_both_ways(Relation(["X"], [(DeweyID((1, 3)),), (3,), (None,)]))
    assert payload["kinds"] == ["cell"]
    assert payload["rows"] == [[{"$type": "dewey", "id": "1.3"}], [3], [None]]


def test_scalar_columns_keep_their_json_types():
    payload = _encoded_both_ways(
        Relation(["B", "I", "F"], [(True, 1, 1.5), (False, -2, 2.0)])
    )
    assert payload["kinds"] == ["atom"] * 3
    assert json.dumps(payload["rows"]) == "[[true, 1, 1.5], [false, -2, 2.0]]"


def test_a_string_that_looks_like_an_identifier_stays_a_string():
    payload = _encoded_both_ways(Relation(["V"], [("1.2.3",), ("1",)]))
    assert payload["kinds"] == ["atom"]
    assert relation_from_payload(payload).rows == [("1.2.3",), ("1",)]


def test_node_and_nested_relation_columns_are_cell_columns():
    document = parse_parenthesized('site(item(name="pen") item(name="ink"))')
    items = document.root.children
    nested = [Relation(["V"], [["pen"]]), Relation(["ID"], [[DeweyID((1, 2))]])]
    payload = _encoded_both_ways(
        Relation(["C", "R"], [(item, inner) for item, inner in zip(items, nested)])
    )
    assert payload["kinds"] == ["cell", "cell"]
    assert [row[0]["$type"] for row in payload["rows"]] == ["node", "node"]
    assert payload["rows"][1][1]["value"]["kinds"] == ["dewey"]


def test_malformed_relation_payload_raises():
    with pytest.raises(ServiceError, match="malformed relation payload"):
        relation_from_payload({"columns": ["X"]})
