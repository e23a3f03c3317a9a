"""Quickstart: the query service tier end to end, over one HTTP socket.

Boots a :class:`repro.QueryService` around a Database serving the XMark
auction document, then walks the whole API as a client: query, explain,
prepare/execute (watching DDL force a re-plan), live ingest, and the
observability surface (``/metrics``, ``/debug/traces``).

Every response is checked — a non-2xx status or a query answer that
diverges from the direct ``Database.query`` result exits non-zero, which
is what the CI ``service-smoke`` job keys on.

Run with::

    python examples/service_quickstart.py
"""

from __future__ import annotations

import sys

from repro import Database, MaterializedView, QueryService, ServiceClient, build_summary
from repro.errors import RewritingError
from repro.service.models import SCHEMA_VERSION, relation_to_payload
from repro.workloads.synthetic import seed_tag_views
from repro.workloads.xmark import generate_xmark_document, xmark_query_patterns

FAILURES: list[str] = []


def check(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)
        print(f"FAIL    : {message}")


def main() -> int:
    # 1. a Database over the fig13 XMark document, views seeded per tag
    document = generate_xmark_document(scale=0.3, seed=548, name="xmark")
    summary = build_summary(document)
    views = [
        MaterializedView(pattern, document, name=f"seed{index}_{pattern.name}")
        for index, pattern in enumerate(seed_tag_views(summary))
    ]
    database = Database(document, views=views)
    print(f"session : {database}")

    # pick the first fig13 query the seed views can answer
    query_text = None
    for name, pattern in sorted(
        xmark_query_patterns().items(), key=lambda kv: int(kv[0][1:])
    ):
        try:
            database.plan_query(pattern)
        except RewritingError:
            continue
        query_text = pattern.to_text()
        print(f"query   : {name} = {query_text}")
        break
    if query_text is None:
        print("no fig13 query is answerable over the seed views")
        return 1
    expected = relation_to_payload(database.query(query_text))

    # 2. the service: a threaded stdlib HTTP server on an ephemeral port
    with QueryService(database) as service:
        print(f"serving : {service.url}")
        client = ServiceClient(service.url)

        # 3. POST /query — the answer must match the direct session answer
        status, body = client.post("/query", {"query": query_text})
        check(status == 200, f"/query -> {status}")
        check(
            body.get("schema_version") == SCHEMA_VERSION,
            f"/query speaks schema {body.get('schema_version')}, not {SCHEMA_VERSION}",
        )
        check(
            body.get("result") == expected,
            "/query answer diverged from Database.query",
        )
        # schema 2: one kind per column — "atom" cells are JSON scalars,
        # "dewey" cells dotted identifiers, "cell" cells tagged objects
        kinds = dict(zip(body["result"]["columns"], body["result"]["kinds"]))
        print(f"rows    : {body['result']['row_count']} "
              f"(trace {body['trace_id'][:8]}…), column kinds {kinds}")

        # 4. POST /explain — the chosen plan with estimated vs actual rows
        status, body = client.post(
            "/explain", {"query": query_text, "analyze": True}
        )
        check(status == 200, f"/explain -> {status}")
        report = body["explain"]
        print(f"plan    : views={report['views_used']} "
              f"cost≈{report['chosen_cost']:.0f} "
              f"actual={report['actual_rows']} rows")

        # 5. prepare once, execute many; DDL in between forces a re-plan
        status, body = client.post("/prepare", {"query": query_text})
        check(status == 200, f"/prepare -> {status}")
        stmt_id = body["stmt_id"]
        status, body = client.post(f"/execute/{stmt_id}")
        check(status == 200, f"/execute -> {status}")
        check(body["result"] == expected, "prepared answer diverged")
        before = body["times_planned"]

        status, body = client.post(
            "/ddl",
            {"op": "create_view", "name": "extra_ids",
             "pattern": "site(//item[ID])"},
        )
        check(status == 200, f"/ddl create -> {status}")
        print(f"ddl     : created view 'extra_ids' "
              f"(views_version {body['views_version']})")

        status, body = client.post(f"/execute/{stmt_id}")
        check(status == 200, f"/execute after ddl -> {status}")
        check(body["result"] == expected, "post-DDL prepared answer diverged")
        check(
            body["times_planned"] == before + 1,
            "DDL did not force the prepared statement to re-plan",
        )
        print(f"replan  : times_planned {before} -> {body['times_planned']}")

        # 6. live ingest: a subtree no query matches — answers must not move
        status, body = client.post(
            "/ingest",
            {"op": "insert", "parent": "1",
             "subtree": ["memo", None, [["note", "service quickstart", []]]]},
        )
        check(status == 200, f"/ingest -> {status}")
        print(f"ingest  : inserted at dewey {body['dewey']} "
              f"({body['maintenance']['delta_applied']} extent deltas)")
        status, body = client.post("/query", {"query": query_text})
        check(status == 200, f"/query after ingest -> {status}")
        check(body["result"] == expected, "post-ingest answer diverged")

        # 7. the observability surface
        status, text = client.get("/metrics")
        check(status == 200, f"/metrics -> {status}")
        interesting = [
            line for line in text.splitlines()
            if line.startswith(("service_requests_total", "service_plan_cache_hit"))
        ]
        print("metrics :")
        for line in interesting:
            print(f"  {line}")

        status, body = client.get("/debug/traces")
        check(status == 200, f"/debug/traces -> {status}")
        spans = body["traces"][-1]
        print(f"trace   : {spans['name']} with "
              f"{len(spans['children'])} phase span(s)")

    database.close()
    if FAILURES:
        print(f"\n{len(FAILURES)} check(s) failed")
        return 1
    print("\nall service checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
