"""Versioned request / response models for the query service.

Every endpoint speaks plain JSON objects described by the dataclasses
here.  The contract is deliberately strict:

* every request may carry a ``schema_version`` field (defaulting to
  :data:`SCHEMA_VERSION`); a version this server does not speak is
  rejected, so a future incompatible change bumps the constant instead of
  silently reinterpreting old payloads;
* unknown fields, missing required fields and wrongly-typed fields all
  raise :class:`~repro.errors.RequestValidationError`, which the app layer
  maps to a typed HTTP 400 with a structured error body — never a stack
  trace, never a partially-applied request;
* responses embed the same ``schema_version`` plus the per-request
  ``request_id`` and ``trace_id``.

Results travel as the JSON relation codec (:func:`relation_to_payload` /
:func:`batch_to_payload` / :func:`relation_from_payload`): columns, one
*kind* per column, and row-major rows.  An ``"atom"`` column holds JSON
scalars and ⊥ as they are, a ``"dewey"`` column holds structural
identifiers as dotted text, and a ``"cell"`` column (nodes, nested
relations, mixed columns) tags each non-atomic cell — ``{"$type": "dewey"}``,
``{"$type": "node"}`` (subtree plus its Dewey ID), ``{"$type": "relation"}``.
Two encodings are bytewise-comparable and a client can rebuild a faithful
:class:`~repro.algebra.tuples.Relation`.

>>> request = QueryRequest.from_payload({"query": "site(//item[ID])"})
>>> request.query
'site(//item[ID])'
>>> QueryRequest.from_payload({"query": 1})
Traceback (most recent call last):
    ...
repro.errors.RequestValidationError: field 'query' must be a string
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Sequence

from repro.algebra.columnar import _ATOM_CELLS, _ID_CELLS, ColumnBatch, _ColumnSource
from repro.algebra.tuples import Relation
from repro.errors import RequestValidationError, ServiceError
from repro.ingest.changelog import decode_subtree, encode_subtree
from repro.xmltree.ids import DeweyID
from repro.xmltree.node import XMLNode

__all__ = [
    "SCHEMA_VERSION",
    "DdlRequest",
    "ExplainRequest",
    "IngestRequest",
    "PrepareRequest",
    "QueryManyRequest",
    "QueryRequest",
    "batch_to_payload",
    "relation_from_payload",
    "relation_to_payload",
]

SCHEMA_VERSION = 2
"""The request/response schema generation this server speaks.  Embedded in
every response; requests carrying a different version are rejected with a
typed 400 instead of being reinterpreted.  Version 2 made result payloads
column-kinded (``"kinds"``)."""

_MISSING = object()


def _type_name(expected) -> str:
    names = {
        str: "a string",
        bool: "a boolean",
        int: "an integer",
        list: "an array",
        dict: "an object",
    }
    return names.get(expected, expected.__name__)


class _RequestModel:
    """Shared strict-validation constructor for the request dataclasses.

    Subclasses declare ``_TYPES`` (field name → expected python type) and
    optionally override :meth:`_validate` for cross-field rules.
    """

    _TYPES: dict = {}

    @classmethod
    def from_payload(cls, payload) -> "_RequestModel":
        if not isinstance(payload, dict):
            raise RequestValidationError("request body must be a JSON object")
        data = dict(payload)
        version = data.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise RequestValidationError(
                f"unsupported schema_version {version!r} "
                f"(this server speaks {SCHEMA_VERSION})"
            )
        kwargs = {}
        for field in fields(cls):
            value = data.pop(field.name, _MISSING)
            if value is _MISSING:
                continue  # dataclass defaults cover optionals; required
                # fields are re-checked below because their default is None
            expected = cls._TYPES[field.name]
            # bool is an int subclass; an explicit bool where an int/str is
            # expected is almost certainly a client bug — reject it
            if value is not None and (
                not isinstance(value, expected)
                or (expected is not bool and isinstance(value, bool))
            ):
                raise RequestValidationError(
                    f"field {field.name!r} must be {_type_name(expected)}"
                )
            kwargs[field.name] = value
        if data:
            raise RequestValidationError(
                f"unknown field(s) {sorted(data)} for {cls.__name__}"
            )
        instance = cls(**kwargs)
        instance._validate()
        return instance

    def _require(self, name: str) -> None:
        if getattr(self, name) is None:
            raise RequestValidationError(f"missing required field {name!r}")

    def _validate(self) -> None:
        pass


@dataclass
class QueryRequest(_RequestModel):
    """``POST /query`` — answer one query (pattern-DSL text)."""

    query: Optional[str] = None
    name: Optional[str] = None

    _TYPES = {"query": str, "name": str}

    def _validate(self) -> None:
        self._require("query")


@dataclass
class QueryManyRequest(_RequestModel):
    """``POST /query_many`` — answer a whole workload, in input order."""

    queries: Optional[list] = None

    _TYPES = {"queries": list}

    def _validate(self) -> None:
        self._require("queries")
        if not self.queries:
            raise RequestValidationError("'queries' must be a non-empty array")
        for position, query in enumerate(self.queries):
            if not isinstance(query, str):
                raise RequestValidationError(
                    f"'queries[{position}]' must be a string"
                )


@dataclass
class PrepareRequest(_RequestModel):
    """``POST /prepare`` — plan once, get a statement id to execute many."""

    query: Optional[str] = None
    name: Optional[str] = None

    _TYPES = {"query": str, "name": str}

    def _validate(self) -> None:
        self._require("query")


@dataclass
class ExplainRequest(_RequestModel):
    """``POST /explain`` — the structured plan report, optionally analyzed."""

    query: Optional[str] = None
    analyze: bool = False
    name: Optional[str] = None

    _TYPES = {"query": str, "analyze": bool, "name": str}

    def _validate(self) -> None:
        self._require("query")


DDL_OPS = ("create_view", "drop_view")
INGEST_OPS = ("insert", "delete")


@dataclass
class DdlRequest(_RequestModel):
    """``POST /ddl`` — view DDL (``create_view`` / ``drop_view``)."""

    op: Optional[str] = None
    name: Optional[str] = None
    pattern: Optional[str] = None
    materialize: bool = True

    _TYPES = {"op": str, "name": str, "pattern": str, "materialize": bool}

    def _validate(self) -> None:
        self._require("op")
        self._require("name")
        if self.op not in DDL_OPS:
            raise RequestValidationError(
                f"unknown ddl op {self.op!r} (expected one of {list(DDL_OPS)})"
            )
        if self.op == "create_view" and self.pattern is None:
            raise RequestValidationError(
                "ddl op 'create_view' requires a 'pattern'"
            )


@dataclass
class IngestRequest(_RequestModel):
    """``POST /ingest`` — live-document mutation (subtree insert / delete).

    ``subtree`` uses the change log's nested ``[label, value, children]``
    triple encoding (:func:`repro.ingest.changelog.encode_subtree`).
    """

    op: Optional[str] = None
    parent: Optional[str] = None
    subtree: Optional[list] = None
    dewey: Optional[str] = None

    _TYPES = {"op": str, "parent": str, "subtree": list, "dewey": str}

    def _validate(self) -> None:
        self._require("op")
        if self.op not in INGEST_OPS:
            raise RequestValidationError(
                f"unknown ingest op {self.op!r} "
                f"(expected one of {list(INGEST_OPS)})"
            )
        if self.op == "insert":
            self._require("parent")
            self._require("subtree")
        else:
            self._require("dewey")

    def decoded_subtree(self) -> XMLNode:
        """The ``subtree`` triple as a detached :class:`XMLNode` tree."""
        try:
            return decode_subtree(self.subtree)
        except Exception as exc:
            raise RequestValidationError(
                f"malformed 'subtree' encoding: {exc}"
            ) from exc


# --------------------------------------------------------------------------- #
# the relation codec
# --------------------------------------------------------------------------- #
def _column_kind(values: list) -> str:
    """``"atom"``, ``"dewey"`` or ``"cell"``: the one rule for a column.

    Exact types, like the executor's dedup keys: an empty or all-⊥ column
    is ``"atom"``, and a column mixing identifiers with atoms is ``"cell"``.
    """
    kinds = set(map(type, values))
    if kinds <= _ATOM_CELLS:
        return "atom"
    if kinds <= _ID_CELLS:
        return "dewey"
    return "cell"


def _encode_columns(names, columns: Sequence[_ColumnSource], row_count: int) -> dict:
    """The one encoder: a payload from a schema and one source per column.

    A ``"dewey"`` column is the source's cached :meth:`dewey_text
    <repro.algebra.columnar._ColumnSource.dewey_text>`; the cells are
    transposed to row-major order only at the end.
    """
    kinds = []
    encoded = []
    for column in columns:
        values = column.values()
        kind = _column_kind(values)
        kinds.append(kind)
        if kind == "atom":
            encoded.append(values)
        elif kind == "dewey":
            encoded.append(column.dewey_text())
        else:
            encoded.append([_encode_cell(value) for value in values])
    if encoded:
        rows = list(map(list, zip(*encoded)))
    else:
        rows = [[] for _ in range(row_count)]
    return {"columns": list(names), "kinds": kinds, "rows": rows, "row_count": row_count}


def _decode_dewey(value):
    return None if value is None else DeweyID.from_string(value)


def _decode_atom(value):
    return value


def _encode_cell(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, DeweyID):
        return {"$type": "dewey", "id": str(value)}
    if isinstance(value, XMLNode):
        dewey = value.dewey
        return {
            "$type": "node",
            "id": str(dewey) if dewey is not None else None,
            "tree": encode_subtree(value),
        }
    if isinstance(value, Relation):
        return {"$type": "relation", "value": relation_to_payload(value)}
    raise ServiceError(f"cannot encode result cell {value!r} as JSON")


def _decode_cell(value):
    if not isinstance(value, dict):
        return value
    kind = value.get("$type")
    if kind == "dewey":
        return DeweyID.from_string(value["id"])
    if kind == "node":
        node = decode_subtree(value["tree"])
        if value.get("id") is not None:
            node.dewey = DeweyID.from_string(value["id"])
        return node
    if kind == "relation":
        return relation_from_payload(value["value"])
    raise ServiceError(f"cannot decode result cell {value!r}")


_DECODERS = {"atom": _decode_atom, "dewey": _decode_dewey, "cell": _decode_cell}


def relation_to_payload(relation: Relation) -> dict:
    """A :class:`Relation` as a JSON-safe dict (stable under re-encoding).

    The rows are transposed into columns and handed to the same encoder
    the service runs on the executor's batch (:func:`batch_to_payload`);
    a relation still backed by its batch, rows unread
    (:meth:`ColumnBatch.to_relation <repro.algebra.columnar.ColumnBatch.to_relation>`),
    is that batch's payload, and no row is built.

    >>> payload = relation_to_payload(Relation(["ID", "V"], [[DeweyID((1, 2)), "pen"]]))
    >>> payload["kinds"], payload["rows"]
    (['dewey', 'atom'], [['1.2', 'pen']])
    >>> relation_from_payload(payload).rows
    [(DeweyID(1.2), 'pen')]
    """
    batch = relation._batch
    if batch is not None:
        sources = [batch.source(index) for index in range(len(batch.columns))]
        return _encode_columns(relation.column_names, sources, batch.row_count)
    rows = relation.rows
    if rows:
        columns = [_ColumnSource(values=list(values)) for values in zip(*rows)]
    else:
        columns = [_ColumnSource(values=[]) for _ in relation.columns]
    return _encode_columns(relation.column_names, columns, len(rows))


def batch_to_payload(batch: ColumnBatch) -> dict:
    """The executor's result batch as the payload :func:`relation_to_payload`
    gives for ``batch.to_relation()`` — without building that relation.

    Every column is read through its source, so a ``"dewey"`` column is the
    text cached on the scanned extent, gathered.
    """
    columns = [batch.source(index) for index in range(len(batch.columns))]
    return _encode_columns(
        [column.name for column in batch.columns], columns, batch.row_count
    )


def relation_from_payload(payload: dict) -> Relation:
    """Inverse of :func:`relation_to_payload`, decoding per column kind.

    Dewey cells come back as :class:`DeweyID`, node cells as rebuilt
    (detached) subtrees carrying their original Dewey ID, nested relations
    recursively — re-encoding the result yields the identical payload,
    which is how the load tester asserts row identity across HTTP.
    """
    try:
        columns = payload["columns"]
        kinds = payload["kinds"]
        if len(kinds) != len(columns):
            raise ServiceError(
                f"malformed relation payload: {len(kinds)} kinds "
                f"for {len(columns)} columns"
            )
        decoders = []
        for kind in kinds:
            if kind not in _DECODERS:
                raise ServiceError(f"unknown column kind {kind!r}")
            decoders.append(_DECODERS[kind])
        rows = [
            tuple(decode(cell) for decode, cell in zip(decoders, row))
            for row in payload["rows"]
        ]
    except (KeyError, TypeError) as exc:
        raise ServiceError(f"malformed relation payload: {exc}") from exc
    return Relation(columns, rows)
