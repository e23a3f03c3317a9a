"""The service over a real socket: round-trips, oracles, concurrency, framing.

The loop's framing is driven with raw sockets (requests split byte by
byte, pipelined, oversized, chunked, closing), and the client against bare
socket servers that drop a connection or send a reply it cannot frame.
Two acceptance properties live here too:

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

import calendar
import http.client
import json
import socket
import threading

import pytest

from repro import Database, parse_parenthesized
from repro.service.models import SCHEMA_VERSION, relation_to_payload
from repro.service.server import (
    _MAX_BODY,
    QueryService,
    ServiceClient,
    _http_date,
    _parse_head,
    _Rejected,
)

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


@pytest.mark.parametrize(
    "timestamp",
    # the epoch, RFC 9110's example date, a leap day, a fraction of a second
    # and the last second of a year; then seven days in a row from Monday
    # 2024-01-01 and one day in every month of 2024
    [0, 784111777, 951782400, 1700000000.75, 4102444799]
    + [1704067200 + day * 86400 + 3723 for day in range(7)]
    + [calendar.timegm((2024, month, 2 * month, 23, 59, 59)) for month in range(1, 13)],
)
def test_the_date_header_is_the_imf_fixdate_email_would_write(timestamp):
    from email.utils import formatdate

    assert _http_date(timestamp) == formatdate(timestamp, usegmt=True)


def test_every_reply_carries_a_date_header(service):
    with _raw_connection(service) as connection:
        status, headers, _ = _raw_request(connection, "GET /healthz HTTP/1.1\r\nHost: x")
    assert status == 200
    assert headers.get_all("Date") and len(headers.get_all("Date")) == 1
    assert headers["Date"].endswith(" GMT")


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


@pytest.mark.parametrize(
    "raw", [b"{this is not json", b"\x80\x81", b"[" * 100_000],
    ids=["not-json", "not-utf8", "too-deep"],
)
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


# --------------------------------------------------------------------------- #
# the loop's framing
# --------------------------------------------------------------------------- #
def _message(method: str, path: str, payload=None, headers: str = "") -> bytes:
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = f"{method} {path} HTTP/1.1\r\nHost: x\r\n{headers}Content-Length: {len(body)}\r\n\r\n"
    return head.encode("latin-1") + body


def _read_reply(reader):
    """One reply off a buffered reader of the socket: (status, headers, JSON body)."""
    status_line = reader.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, json.loads(body)


def test_a_request_arriving_byte_by_byte_is_answered(service):
    import time

    message = _message("POST", "/query", {"query": ITEM_NAMES})
    with _raw_connection(service) as connection:
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for index in range(len(message)):
            connection.sendall(message[index:index + 1])
            time.sleep(0.0005)  # each byte its own read, head and body alike
        status, _, body = _read_reply(connection.makefile("rb"))
    assert status == 200
    assert body["result"]["row_count"] == 3


def test_a_client_expecting_100_continue_is_told_to_send_its_body(service):
    body = json.dumps({"query": ITEM_NAMES}).encode()
    with _raw_connection(service) as connection:
        connection.sendall(
            f"POST /query HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode()
        )
        reader = connection.makefile("rb")
        assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert reader.readline() == b"\r\n"
        connection.sendall(body)
        status, _, reply = _read_reply(reader)
    assert status == 200 and reply["result"]["row_count"] == 3


def test_a_body_over_the_cap_is_refused_before_any_of_it_is_sent(service):
    with _raw_connection(service) as connection:
        connection.sendall(
            b"POST /query HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
            b"Content-Length: 1073741824\r\n\r\n"
        )
        reader = connection.makefile("rb")
        # the refusal comes first: no ``100 Continue`` invites the gigabyte
        status, headers, reply = _read_reply(reader)
        assert (status, reply["error"]["code"]) == (413, "body-too-large")
        assert headers["connection"] == "close"
        assert reader.read(1) == b""
    assert ServiceClient(service.url).get("/healthz")[0] == 200


def test_a_client_sending_an_over_cap_body_unasked_gets_the_refusal(service):
    # no ``Expect``: the first 32 KiB of the body follow the head at once
    with _raw_connection(service) as connection:
        status, headers, reply = _raw_request(
            connection,
            f"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {_MAX_BODY + 1}",
            b"x" * 32768,
        )
        assert (status, reply["error"]["code"]) == (413, "body-too-large")
        assert headers["Connection"] == "close"
    assert ServiceClient(service.url).get("/healthz")[0] == 200


def _head(length: int) -> bytearray:
    return bytearray(
        f"POST /query HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
        f"Content-Length: {length}\r\n\r\n".encode()
    )


def test_the_body_cap_admits_a_body_of_exactly_its_size():
    request = _parse_head(_head(_MAX_BODY))
    assert request.end - request.body_start == _MAX_BODY == 8 << 20
    assert request.expects_continue and request.keep_alive


def test_the_body_cap_refuses_one_byte_more():
    with pytest.raises(_Rejected) as refused:
        _parse_head(_head(_MAX_BODY + 1))
    assert (refused.value.status, refused.value.code) == (413, "body-too-large")


def test_pipelined_requests_are_answered_in_order(service):
    with _raw_connection(service) as connection:
        connection.sendall(
            _message("POST", "/query", {"query": ITEM_NAMES})
            + _message("GET", "/healthz")
            + _message("POST", "/query", {"query": "site(//mailbox[ID])"})
        )
        reader = connection.makefile("rb")
        replies = [_read_reply(reader) for _ in range(3)]
    assert [status for status, _, _ in replies] == [200, 200, 422]
    assert replies[0][2]["result"]["row_count"] == 3
    assert replies[1][2]["status"] == "ok"
    assert replies[2][2]["error"]["code"] == "unanswerable"


def test_a_client_that_never_reads_its_reply_does_not_stall_the_others():
    import time

    names = " ".join(f'item(name="{index:04d}{"x" * 1000}")' for index in range(500))
    database = Database(parse_parenthesized(f"site({names})"))
    database.create_view(ITEM_NAMES, name="item_names")
    try:
        with QueryService(database) as service:
            loop = service._server
            host, port = loop.server_address[:2]
            # accepted sockets inherit the listener's buffer size: no autotuning
            # to megabytes, so the 500 kB reply cannot fit the socket buffers
            loop._listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            with socket.socket() as stalled:
                stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                stalled.connect((host, port))
                stalled.sendall(_message("POST", "/query", {"query": ITEM_NAMES}))
                deadline = time.monotonic() + 5
                # the loop holds the part of the reply the socket did not take
                while not any(c.outbox for c in list(loop._connections.values())):
                    assert time.monotonic() < deadline, "the reply never filled the socket"
                    time.sleep(0.01)
                status, body = ServiceClient(service.url, timeout=5).get("/healthz")
                assert status == 200 and body["status"] == "ok"
    finally:
        database.close()


CHUNKED_BODY = b'd\r\n{"query": "x"}\r\n0\r\n\r\n'


@pytest.mark.parametrize(
    "head, body, status, code",
    [(f"GET /healthz?{'a' * 70_000} HTTP/1.1\r\nHost: x", b"", 431, "head-too-large"),
     (f"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Padding: {'a' * 70_000}", b"", 431,
      "head-too-large"),
     ("POST /query HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked", CHUNKED_BODY, 411,
      "length-required"),
     ("GET /healthz", b"", 400, "bad-request"),
     ("GET /healthz HTTP/2.0\r\nHost: x", b"", 400, "bad-request"),
     ("GET /healthz HTTP/1.1\r\nno colon here", b"", 400, "bad-request"),
     ("PUT /query HTTP/1.1\r\nHost: x", b"", 501, "not-implemented")],
    ids=["long-request-line", "long-header", "chunked", "no-version", "http2", "bad-header",
         "put"],
)
def test_a_request_the_transport_rejects_is_typed_and_ends_the_connection(
    service, head, body, status, code
):
    with _raw_connection(service) as connection:
        got, headers, reply = _raw_request(connection, head, body)
        assert (got, reply["error"]["code"]) == (status, code)
        assert reply["schema_version"] == SCHEMA_VERSION
        assert headers["Connection"] == "close"
        assert connection.recv(1) == b""
    assert ServiceClient(service.url).get("/healthz")[0] == 200


@pytest.mark.parametrize(
    "version, connection_header, kept",
    [("HTTP/1.1", "", True), ("HTTP/1.1", "Connection: close\r\n", False),
     ("HTTP/1.0", "", False), ("HTTP/1.0", "Connection: keep-alive\r\n", True)],
    ids=["1.1", "1.1-close", "1.0", "1.0-keep-alive"],
)
def test_connection_close_and_http_1_0_are_honoured(service, version, connection_header, kept):
    head = f"GET /healthz {version}\r\nHost: x\r\n{connection_header}\r\n".encode()
    with _raw_connection(service) as connection:
        connection.sendall(head)
        reader = connection.makefile("rb")
        status, headers, _ = _read_reply(reader)
        assert status == 200
        if kept:
            assert "connection" not in headers
            connection.sendall(head)
            assert _read_reply(reader)[0] == 200
        else:
            assert headers["connection"] == "close"
            assert connection.recv(1) == b""


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
    """The loop notices the end of a connection a moment later."""
    import time

    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
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
    database = make_database()
    with socket.socket() as probe:  # an OS-assigned port the restarts can share
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
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
        with QueryService(database, port=port) as third:
            # the idle connection is gone: the request goes out again on a new one
            status, body = client.post("/query", {"query": ITEM_NAMES})
            assert status == 200
            assert body["result"]["row_count"] == 3
            server = third._server
        _wait_for_connections(server, 0)
        with QueryService(database, port=port):
            # a request that is not safe twice finds the ended connection before
            # it goes out, so it is sent (once) on a new one
            status, _ = client.post(
                "/ddl", {"op": "create_view", "name": "after_restart", "pattern": ITEM_IDS}
            )
            assert status == 200
            assert "after_restart" in database.views
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


# --------------------------------------------------------------------------- #
# the client against a bare socket server
# --------------------------------------------------------------------------- #
OK_REPLY = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}"
)


class BareServer:
    """A listening socket that answers each connection with ``script(server, index,
    reader, connection)`` on its own thread; records every request line it reads."""

    def __init__(self, script):
        self.script = script
        self.requests: list[str] = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)  # accept() polls release
        self.url = "http://127.0.0.1:%d" % self.listener.getsockname()[1]
        self.release = threading.Event()  # ends a script holding its connection open
        self._connection = None
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def read_request(self, reader) -> bool:
        """Read one whole request; False at the end of the connection."""
        line = reader.readline()
        if not line:
            return False
        self.requests.append(line.decode("latin-1").strip())
        length = 0
        while (header := reader.readline()) not in (b"\r\n", b""):
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        reader.read(length)
        return True

    def _serve(self):
        index = 0
        while not self.release.is_set():
            try:
                connection, _ = self.listener.accept()
            except TimeoutError:
                continue
            connection.settimeout(None)
            self._connection = connection
            with connection:
                self.script(self, index, connection.makefile("rb"), connection)
            index += 1

    def close(self):
        self.release.set()
        if self._connection is not None:
            try:
                self._connection.shutdown(socket.SHUT_RDWR)  # wakes a blocked read
            except OSError:
                pass
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()
        self.listener.close()


@pytest.fixture()
def bare():
    servers = []
    yield lambda script: servers.append(BareServer(script)) or servers[-1]
    for server in servers:
        server.close()


def _answer_once_then_drop(server, index, reader, connection):
    """The first connection answers one request, then reads one more and closes
    without a reply (as a server that stopped meanwhile); later ones answer all."""
    replies = 1 if index == 0 else None
    while server.read_request(reader):
        if replies == 0:
            return
        connection.sendall(OK_REPLY)
        if replies is not None:
            replies -= 1


@pytest.mark.parametrize(
    "method, path",
    [("GET", "/healthz"), ("POST", "/query"), ("POST", "/query_many"), ("POST", "/explain"),
     ("POST", "/execute/stmt-1")],
)
def test_the_client_sends_a_safe_request_again_on_a_dropped_connection(bare, method, path):
    server = bare(_answer_once_then_drop)
    client = ServiceClient(server.url, timeout=5)
    assert client.get("/healthz") == (200, {})
    call = client.get if method == "GET" else (lambda p: client.post(p, {}))
    assert call(path) == (200, {})
    assert server.requests == [
        "GET /healthz HTTP/1.1", f"{method} {path} HTTP/1.1", f"{method} {path} HTTP/1.1",
    ]


@pytest.mark.parametrize("path", ["/ingest", "/ddl", "/prepare"])
def test_the_client_never_sends_an_unsafe_request_twice(bare, path):
    from repro.errors import ServiceError

    server = bare(_answer_once_then_drop)
    client = ServiceClient(server.url, timeout=5)
    assert client.get("/healthz") == (200, {})
    with pytest.raises(ServiceError, match="not sent again"):
        client.post(path, {"op": "insert"})
    assert server.requests == ["GET /healthz HTTP/1.1", f"POST {path} HTTP/1.1"]
    # the next request opens a new connection
    assert client.get("/healthz") == (200, {})


@pytest.mark.parametrize(
    "reply",
    [b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
     b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}",
     b"HTTP/1.1 200 OK\r\nContent-Length: two\r\n\r\n{}",
     b"HTTP/1.1 OK\r\nContent-Length: 2\r\n\r\n{}",
     b"garbage\r\n\r\n"],
    ids=["chunked", "no-length", "bad-length", "bad-status-line", "no-status-line"],
)
def test_a_reply_the_client_cannot_frame_is_a_service_error_not_a_hang(bare, reply):
    import time

    from repro.errors import ServiceError

    def script(server, index, reader, connection):
        server.read_request(reader)
        connection.sendall(reply)
        server.release.wait(10)  # hold the connection open: no end of input to go by

    server = bare(script)
    client = ServiceClient(server.url, timeout=10)
    started = time.monotonic()
    with pytest.raises(ServiceError):
        client.get("/healthz")
    assert time.monotonic() - started < 5
