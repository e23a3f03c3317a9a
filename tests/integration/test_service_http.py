"""The service over a real socket: round-trips, oracles, concurrency.

Two acceptance properties live here:

* **serial oracle** — every operation applied through HTTP is also applied
  to a twin ``Database`` directly; after each step the service's answer
  must be payload-identical to the oracle's (the relation codec makes the
  comparison bytewise);
* **concurrent storm** — N client threads fire M mixed requests each
  (queries, prepared executes, thread-private DDL, ingest) at one service;
  every response must be 2xx, every query answer identical to the serial
  expectation, and the shared prepared statement must have *re-planned*
  on the interleaved DDL (``times_planned`` growth is the observable).
"""

from __future__ import annotations

import http.client
import json
import socket
import threading

import pytest

from repro import Database, parse_parenthesized
from repro.service.models import SCHEMA_VERSION, relation_to_payload
from repro.service.server import QueryService, ServiceClient

DOCUMENT_TEXT = (
    'site(item(name="pen") item(name="ink") item(name="vase"))'
)
ITEM_NAMES = "site(//item[ID](/name[V]))"
ITEM_IDS = "site(//item[ID])"


def make_database() -> Database:
    database = Database(parse_parenthesized(DOCUMENT_TEXT))
    database.create_view(ITEM_NAMES, name="item_names")
    return database


@pytest.fixture()
def service():
    database = make_database()
    with QueryService(database) as running:
        yield running
    database.close()


@pytest.fixture()
def client(service):
    return ServiceClient(service.url)


# --------------------------------------------------------------------------- #
# transport basics
# --------------------------------------------------------------------------- #
def test_http_roundtrip_and_headers(service):
    import urllib.request

    request = urllib.request.Request(
        service.url + "/healthz", method="GET"
    )
    with urllib.request.urlopen(request, timeout=30) as reply:
        assert reply.status == 200
        assert reply.headers["Content-Type"] == "application/json"
        assert len(reply.headers["X-Request-ID"]) == 16
        assert len(reply.headers["X-Trace-ID"]) == 32


def test_error_statuses_cross_the_wire(client):
    status, body = client.post("/query", {"query": "site(//mailbox[ID])"})
    assert status == 422
    assert body["error"]["code"] == "unanswerable"
    status, body = client.post("/query", {"query": 5})
    assert status == 400
    status, _ = client.get("/no_such_endpoint")
    assert status == 404


def test_invalid_json_body_is_a_400_not_a_crash(service):
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        service.url + "/query",
        data=b"{this is not json",
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(request, timeout=30)
    assert info.value.code == 400
    # and the service is still alive afterwards
    status, _ = ServiceClient(service.url).get("/healthz")
    assert status == 200


def _raw_request(connection, head: str, body: bytes = b""):
    """Send bytes no well-behaved client would; return (status, headers, body)."""
    connection.sendall(head.encode("latin-1") + b"\r\n\r\n" + body)
    reply = http.client.HTTPResponse(connection)
    reply.begin()
    return reply.status, reply.headers, json.loads(reply.read())


def _raw_connection(service):
    host, port = service._server.server_address[:2]
    # a server blocked on the body fails the test by this timeout
    return socket.create_connection((host, port), timeout=5)


@pytest.mark.parametrize("length", ["abc", "-1", "1_0"])
def test_a_bad_content_length_is_a_typed_400_and_ends_the_connection(service, length):
    with _raw_connection(service) as connection:
        status, headers, body = _raw_request(
            connection, f"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {length}", b"{}"
        )
        assert status == 400
        assert body["error"]["code"] == "bad-content-length"
        assert body["schema_version"] == SCHEMA_VERSION
        assert headers["Connection"] == "close"
        assert connection.recv(1) == b"", "the server hung up: the body's end is unknown"
    assert ServiceClient(service.url).get("/healthz")[0] == 200


@pytest.mark.parametrize("raw", [b"\x80\x81", b"[" * 100_000], ids=["not-utf8", "too-deep"])
def test_an_undecodable_body_is_a_typed_400_on_a_live_connection(service, raw):
    with _raw_connection(service) as connection:
        status, _, body = _raw_request(
            connection,
            f"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {len(raw)}",
            raw,
        )
        assert status == 400
        assert body["error"]["code"] == "bad-json"
        # the body was read to its declared end: the connection stays usable
        status, _, body = _raw_request(connection, "GET /healthz HTTP/1.1\r\nHost: x")
        assert status == 200 and body["status"] == "ok"


def test_metrics_endpoint_serves_prometheus_text(client):
    client.post("/query", {"query": ITEM_NAMES})
    status, text = client.get("/metrics")
    assert status == 200
    assert isinstance(text, str)
    assert "# TYPE service_requests_total counter" in text


def test_service_url_requires_running_server():
    from repro.errors import ServiceError

    service = QueryService(make_database())
    with pytest.raises(ServiceError):
        service.url
    service.stop()  # stopping a never-started service is a no-op


# --------------------------------------------------------------------------- #
# kept-alive connections
# --------------------------------------------------------------------------- #
def _wait_for_connections(server, count: int) -> None:
    """Handler threads notice the end of their connection a moment later."""
    import time

    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        with server._connections_lock:
            if len(server._connections) == count:
                return
        time.sleep(0.01)
    raise AssertionError(f"{len(server._connections)} open connections, expected {count}")


def test_client_reuses_one_connection_per_thread(service, client):
    for _ in range(3):
        assert client.get("/healthz")[0] == 200
    _wait_for_connections(service._server, 1)

    other = threading.Thread(target=lambda: client.get("/healthz"))
    other.start()
    other.join()
    # the other thread's connection went with its thread-local storage
    _wait_for_connections(service._server, 1)


def test_replies_on_a_kept_alive_connection_do_not_wait_for_a_delayed_ack(client):
    import statistics
    import time

    client.post("/query", {"query": ITEM_NAMES})
    seconds = []
    for _ in range(9):
        started = time.perf_counter()
        client.post("/query", {"query": ITEM_NAMES})
        seconds.append(time.perf_counter() - started)
    # a reply held back for the client's delayed ACK takes 40 ms
    assert statistics.median(seconds) < 0.02


def test_stop_ends_idle_connections_and_a_restart_is_picked_up():
    from repro.service.server import find_free_port

    database = make_database()
    port = find_free_port()
    try:
        first = QueryService(database, port=port).start()
        client = ServiceClient(first.url)
        assert client.get("/healthz")[0] == 200
        server = first._server
        first.stop()
        _wait_for_connections(server, 0)
        with pytest.raises(OSError):
            client.get("/healthz")
        with QueryService(database, port=port) as second:
            client.get("/healthz")  # a connection the next stop() will end
            server = second._server
        _wait_for_connections(server, 0)
        with QueryService(database, port=port):
            # the idle connection is gone: the request goes out again on a new one
            status, body = client.post("/query", {"query": ITEM_NAMES})
            assert status == 200
            assert body["result"]["row_count"] == 3
    finally:
        database.close()


# --------------------------------------------------------------------------- #
# serial interleaved oracle
# --------------------------------------------------------------------------- #
def test_mixed_workload_matches_direct_database_oracle(client):
    oracle = make_database()
    try:
        # 1. plain query
        status, body = client.post("/query", {"query": ITEM_NAMES})
        assert status == 200
        assert body["result"] == relation_to_payload(oracle.query(ITEM_NAMES))

        # 2. DDL on both sides
        status, _ = client.post(
            "/ddl", {"op": "create_view", "name": "ids", "pattern": ITEM_IDS}
        )
        assert status == 200
        oracle.create_view(ITEM_IDS, name="ids")
        status, body = client.post("/query", {"query": ITEM_IDS})
        assert status == 200
        assert body["result"] == relation_to_payload(oracle.query(ITEM_IDS))

        # 3. ingest on both sides (a matching item: results must change)
        subtree = ["item", None, [["name", "jar", []]]]
        status, body = client.post(
            "/ingest", {"op": "insert", "parent": "1", "subtree": subtree}
        )
        assert status == 200
        from repro.ingest.changelog import decode_subtree

        oracle.insert_subtree("1", decode_subtree(subtree))
        status, body = client.post("/query", {"query": ITEM_NAMES})
        assert status == 200
        assert body["result"]["row_count"] == 4
        assert body["result"] == relation_to_payload(oracle.query(ITEM_NAMES))

        # 4. delete it again on both sides (an ID column is dotted text)
        assert body["result"]["kinds"][0] == "dewey"
        status, body = client.post(
            "/ingest", {"op": "delete", "dewey": body["result"]["rows"][3][0]}
        )
        assert status == 200
        oracle.delete_subtree(body["dewey"])
        status, body = client.post("/query", {"query": ITEM_NAMES})
        assert body["result"] == relation_to_payload(oracle.query(ITEM_NAMES))
    finally:
        oracle.close()


def test_query_many_matches_oracle(client):
    oracle = make_database()
    try:
        queries = [ITEM_NAMES, ITEM_NAMES]
        status, body = client.post("/query_many", {"queries": queries})
        assert status == 200
        for query, result in zip(queries, body["results"]):
            assert result["result"] == relation_to_payload(oracle.query(query))
    finally:
        oracle.close()


# --------------------------------------------------------------------------- #
# the concurrent storm
# --------------------------------------------------------------------------- #
THREADS = 4
OPS_PER_THREAD = 6


def test_concurrent_mixed_requests_stay_correct(service):
    """N threads × M mixed query/DDL/ingest ops: all 2xx, all row-identical."""
    # the serial expectation: ingest inserts only 'memo' subtrees, which no
    # query pattern matches, and DDL only adds/drops thread-private views —
    # so every ITEM_NAMES answer must equal the pre-storm serial answer
    oracle = make_database()
    expected = relation_to_payload(oracle.query(ITEM_NAMES))
    oracle.close()

    prepare_client = ServiceClient(service.url)
    status, body = prepare_client.post("/prepare", {"query": ITEM_NAMES})
    assert status == 200
    stmt_id = body["stmt_id"]
    times_planned_before = body["times_planned"]

    failures: list[str] = []
    lock = threading.Lock()

    def record(message: str) -> None:
        with lock:
            failures.append(message)

    def worker(thread_index: int) -> None:
        client = ServiceClient(service.url)
        for op_index in range(OPS_PER_THREAD):
            kind = op_index % 3
            if kind == 0:  # plain query: answer must be the serial one
                status, body = client.post("/query", {"query": ITEM_NAMES})
                if status != 200:
                    record(f"t{thread_index}: query -> {status} {body}")
                elif body["result"] != expected:
                    record(f"t{thread_index}: query answer diverged")
            elif kind == 1:  # thread-private DDL (create then drop)
                name = f"t{thread_index}_v{op_index}"
                status, body = client.post(
                    "/ddl",
                    {"op": "create_view", "name": name, "pattern": ITEM_IDS},
                )
                if status != 200:
                    record(f"t{thread_index}: create -> {status} {body}")
                    continue
                status, body = client.post(
                    "/ddl", {"op": "drop_view", "name": name}
                )
                if status != 200:
                    record(f"t{thread_index}: drop -> {status} {body}")
            else:  # prepared execute + a no-op ingest
                status, body = client.post(f"/execute/{stmt_id}")
                if status != 200:
                    record(f"t{thread_index}: execute -> {status} {body}")
                elif body["result"] != expected:
                    record(f"t{thread_index}: prepared answer diverged")
                status, body = client.post(
                    "/ingest",
                    {"op": "insert", "parent": "1",
                     "subtree": ["memo", None, [["note", "x", []]]]},
                )
                if status != 200:
                    record(f"t{thread_index}: ingest -> {status} {body}")

    threads = [
        threading.Thread(target=worker, args=(index,)) for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not failures, "\n".join(failures)

    # the interleaved DDL/ingest bumped the view-set version many times, so
    # the shared prepared statement must have re-planned along the way
    status, body = prepare_client.post(f"/execute/{stmt_id}")
    assert status == 200
    assert body["result"] == expected
    assert body["times_planned"] > times_planned_before, (
        "interleaved DDL must force the prepared statement to re-plan"
    )

    # and the service's own accounting agrees: every request was answered
    status, text = prepare_client.get("/metrics")
    assert status == 200
    assert 'status="500"' not in text
