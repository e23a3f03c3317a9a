"""HTTP transport for the query service: one loop thread, and its client.

:class:`QueryService` serves a :class:`~repro.service.app.ServiceApp` from
one daemon thread running a :mod:`selectors` loop.  The loop accepts
connections, reads HTTP/1.1 requests framed by ``Content-Length``, calls
the app, and queues each reply for a non-blocking write: headers and body
leave in one ``send`` on a socket with ``TCP_NODELAY``.  Connections are
keep-alive unless the request says ``Connection: close`` or speaks
HTTP/1.0 without ``Connection: keep-alive``.  Requests are answered one at
a time, in arrival order, so the app needs no lock: under the GIL
CPU-bound readers gain nothing from more threads, and one thread spares
the hand-offs between them.  A connection whose reply is still being
written is not read further, so a client that never reads cannot stall the
others.

The transport speaks a small fixed subset of HTTP/1.1 — ``GET`` and
``POST`` with a ``Content-Length`` body — and turns everything else into a
typed JSON error that ends the connection: a malformed request line or
header (400 ``bad-request``), a bad ``Content-Length`` (400
``bad-content-length``), ``Transfer-Encoding`` (411 ``length-required``),
a body over 8 MiB (413 ``body-too-large``, answered before the body is
read), a head over 64 KiB (431 ``head-too-large``) and any other method
(501 ``not-implemented``).  A body that is not JSON is a 400 ``bad-json`` on a
connection that stays usable.  No framework, no dependency: the whole
service tier runs on the standard library.

:class:`ServiceClient` is the matching client used by the tests, the
quickstart example and the load tester.  It frames its requests and the
replies itself over a raw socket, keeping one connection alive per calling
thread.

>>> from repro import Database, parse_parenthesized
>>> db = Database(parse_parenthesized('site(item(name="pen"))'))
>>> _ = db.create_view("site(//item[ID](/name[V]))", name="v")
>>> with QueryService(db) as service:
...     client = ServiceClient(service.url)
...     status, body = client.post("/query", {"query": "site(//item[ID](/name[V]))"})
>>> status, body["result"]["row_count"]
(200, 1)
>>> db.close()
"""

from __future__ import annotations

import json
import select
import selectors
import socket
import threading
import time
import traceback
import urllib.parse
from http import HTTPStatus
from typing import Optional

from repro.errors import ServiceError
from repro.service.app import ServiceApp, ServiceResponse
from repro.service.models import SCHEMA_VERSION
from repro.session.database import Database

__all__ = [
    "QueryService",
    "ServiceClient",
]

# the longest request or reply head either side reads (http.server's line
# limit, applied to the whole head)
_MAX_HEAD = 65536
# the longest request body the loop buffers: 8 MiB, 80 times the largest body
# the repo's tests, examples, tools and bench send (100 000 bytes)
_MAX_BODY = 8 << 20
_RECV_SIZE = 65536
_PHRASES = {status.value: status.phrase for status in HTTPStatus}
_SERVER = "repro-query-service"
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _http_date(timestamp: Optional[float] = None) -> str:
    """``timestamp`` (default: now) as an IMF-fixdate in GMT, the ``Date``
    header's form (RFC 9110 §5.6.7).  ``email.utils.formatdate`` gives the
    same text but loads the ``email`` package, ``calendar`` and ``locale``
    into every process that imports :mod:`repro`."""
    t = time.gmtime(timestamp)
    return (
        f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year:04d} "
        f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT"
    )


class _Rejected(Exception):
    """A request the transport answers itself, ending the connection."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code


class _Request:
    """One parsed request head, waiting for the rest of its body."""

    __slots__ = ("method", "target", "keep_alive", "body_start", "end", "expects_continue")

    def __init__(self, method, target, keep_alive, body_start, end, expects_continue):
        self.method = method
        self.target = target
        self.keep_alive = keep_alive
        self.body_start = body_start  # where the body starts and ends in the inbox
        self.end = end
        self.expects_continue = expects_continue


class _Connection:
    """A client connection: the bytes read and the reply bytes not yet sent."""

    __slots__ = ("sock", "inbox", "outbox", "request", "eof", "closing", "closed", "events")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbox = bytearray()
        self.outbox = bytearray()
        self.request: Optional[_Request] = None
        self.eof = False  # the peer sent all it will
        self.closing = False  # answer nothing more; close once the outbox is written
        self.closed = False
        self.events = selectors.EVENT_READ


def _parse_head(inbox: bytearray) -> Optional[_Request]:
    """The request head at the start of ``inbox`` (``None``: not all here)."""
    end = inbox.find(b"\r\n\r\n", 0, _MAX_HEAD + 4)
    if end < 0:
        if len(inbox) >= _MAX_HEAD + 4:
            raise _Rejected(431, "head-too-large", "the request head is over 64 KiB")
        return None
    lines = inbox[:end].decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or parts[2] not in ("HTTP/1.0", "HTTP/1.1"):
        raise _Rejected(400, "bad-request", f"malformed request line {lines[0]!r}")
    method, target, version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        name = name.lower()
        if not colon or not name or name != name.strip():
            raise _Rejected(400, "bad-request", f"malformed header line {line!r}")
        value = value.strip()
        if headers.setdefault(name, value) != value and name == "content-length":
            raise _Rejected(400, "bad-content-length", "conflicting Content-Length headers")
    if method not in ("GET", "POST"):
        raise _Rejected(501, "not-implemented", f"method {method!r} is not supported")
    if "transfer-encoding" in headers:
        raise _Rejected(
            411, "length-required",
            "Transfer-Encoding is not supported; send a Content-Length",
        )
    length = headers.get("content-length", "0")
    if not (length.isascii() and length.isdigit()):
        # where the body ends is unknown: the connection cannot be reused
        raise _Rejected(
            400, "bad-content-length",
            f"Content-Length {length!r} is not a non-negative integer",
        )
    if int(length) > _MAX_BODY:
        # refused before a body byte is read or ``100 Continue`` invites one
        raise _Rejected(413, "body-too-large", "the request body is over 8 MiB")
    tokens = {token.strip() for token in headers.get("connection", "").lower().split(",")}
    keep_alive = "close" not in tokens and (version == "HTTP/1.1" or "keep-alive" in tokens)
    return _Request(
        method, target, keep_alive, end + 4, end + 4 + int(length),
        headers.get("expect", "").lower() == "100-continue",
    )


def _error_body(code: str, message: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "request_id": None,
        "trace_id": None,
        "error": {"code": code, "message": message},
    }


def _encode(response: ServiceResponse, close: bool) -> bytes:
    """The whole reply — head and body — as the one buffer it is sent in."""
    body = response.body
    payload = (body if isinstance(body, str) else json.dumps(body)).encode("utf-8")
    head = (
        f"HTTP/1.1 {response.status} {_PHRASES.get(response.status, '')}\r\n"
        f"Server: {_SERVER}\r\nDate: {_http_date()}\r\n"
        f"Content-Type: {response.content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"X-Request-ID: {response.request_id}\r\n"
    )
    if response.trace_id:
        head += f"X-Trace-ID: {response.trace_id}\r\n"
    for name, value in response.headers.items():
        head += f"{name}: {value}\r\n"
    if close:
        head += "Connection: close\r\n"
    return (head + "\r\n").encode("latin-1") + payload


class _Loop:
    """The listening socket, its connections and the loop that serves them.

    Everything but :meth:`stop` runs on the loop's own thread.
    """

    def __init__(self, address, app: ServiceApp):
        self.app = app
        self._listener = socket.create_server(address, backlog=128)
        self._listener.setblocking(False)
        self.server_address = self._listener.getsockname()
        self._wake_reader, self._wake_writer = socket.socketpair()
        self._wake_reader.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake_reader, selectors.EVENT_READ)
        self._connections: dict[int, _Connection] = {}
        self._stopping = False

    def stop(self) -> None:
        """Ask the loop to end (from any thread): it closes every
        connection once the request it is serving, if any, is answered."""
        self._stopping = True
        try:
            self._wake_writer.send(b"\0")
        except OSError:
            pass  # the loop has ended already

    def close_listener(self) -> None:
        self._listener.close()

    # ------------------------------------------------------------------ #
    def serve(self) -> None:
        try:
            while not self._stopping:
                for key, events in self._selector.select():
                    connection = key.data
                    if connection is None:
                        if key.fileobj is self._listener:
                            self._accept()
                        continue  # the wake socket only ends the select
                    try:
                        if events & selectors.EVENT_WRITE:
                            self._flush(connection)
                        if events & selectors.EVENT_READ and not connection.closed:
                            self._receive(connection)
                    except Exception:
                        # a fault in the transport ends this connection, not the service
                        traceback.print_exc()
                        self._close(connection)
        finally:
            for connection in list(self._connections.values()):
                self._close(connection)
            self._selector.close()
            for sock in (self._listener, self._wake_reader, self._wake_writer):
                sock.close()

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # e.g. the peer reset before accept, or out of descriptors
            sock.setblocking(False)
            # no segment of a reply on a kept-alive connection waits for the
            # client's delayed ACK of the one before it (40 ms)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = _Connection(sock)
            self._connections[sock.fileno()] = connection
            self._selector.register(sock, selectors.EVENT_READ, connection)

    def _receive(self, connection: _Connection) -> None:
        try:
            data = connection.sock.recv(_RECV_SIZE)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(connection)
            return
        if data:
            connection.inbox += data
        else:
            connection.eof = True  # answer its whole requests, then close
        self._serve(connection)

    def _serve(self, connection: _Connection) -> None:
        """Answer the whole requests in the inbox, in order, while the
        replies leave at once; then wait for what the connection needs."""
        while not (connection.outbox or connection.closing or connection.closed):
            try:
                reply = self._next_reply(connection)
            except _Rejected as rejected:
                connection.inbox.clear()
                connection.closing = True
                response = ServiceResponse(
                    rejected.status, _error_body(rejected.code, str(rejected)), request_id=""
                )
                self._write(connection, _encode(response, close=True))
                break
            if reply is None:
                break
            self._write(connection, reply)
        if connection.closed:
            return
        if connection.outbox:
            self._want(connection, selectors.EVENT_WRITE)
        elif connection.closing or connection.eof:
            self._close(connection)
        else:
            self._want(connection, selectors.EVENT_READ)

    def _next_reply(self, connection: _Connection) -> Optional[bytes]:
        """The reply to the next whole request (``None``: wait for bytes)."""
        inbox = connection.inbox
        request = connection.request
        if request is None:
            request = _parse_head(inbox)
            if request is None:
                return None
            connection.request = request
            if request.expects_continue and len(inbox) < request.end:
                self._write(connection, b"HTTP/1.1 100 Continue\r\n\r\n")
        if len(inbox) < request.end:
            return None
        raw = bytes(inbox[request.body_start:request.end])
        del inbox[:request.end]
        connection.request = None
        if not request.keep_alive:
            connection.closing = True
        if not raw:
            response = self.app.handle(request.method, request.target, None)
        else:
            try:
                payload = json.loads(raw)
            except (ValueError, RecursionError) as exc:
                # JSONDecodeError, a body that is not UTF-8, nesting too deep;
                # the body was read to its declared end, so the connection lives
                response = ServiceResponse(
                    400,
                    _error_body("bad-json", f"request body is not valid JSON: {exc}"),
                    request_id="",
                )
            else:
                response = self.app.handle(request.method, request.target, payload)
        return _encode(response, close=connection.closing)

    def _write(self, connection: _Connection, data: bytes) -> None:
        """Send ``data`` now, as far as the socket takes it; queue the rest."""
        if not connection.outbox:
            try:
                sent = connection.sock.send(data)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError:
                self._close(connection)
                return
            if sent == len(data):
                return
            data = data[sent:]
        connection.outbox += data

    def _flush(self, connection: _Connection) -> None:
        try:
            sent = connection.sock.send(connection.outbox)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(connection)
            return
        del connection.outbox[:sent]
        if not connection.outbox:
            self._serve(connection)  # the requests read meanwhile, if any

    def _want(self, connection: _Connection, events: int) -> None:
        if connection.events != events:
            connection.events = events
            self._selector.modify(connection.sock, events, connection)

    def _close(self, connection: _Connection) -> None:
        if connection.closed:
            return
        connection.closed = True
        self._connections.pop(connection.sock.fileno(), None)
        try:
            self._selector.unregister(connection.sock)
        except (KeyError, ValueError):
            pass  # the selector is closing too
        try:
            # input left unread turns the close into a reset, which can
            # discard the reply still on its way (a rejected request's body)
            for _ in range(16):
                if not connection.sock.recv(_RECV_SIZE):
                    break
        except OSError:
            pass  # nothing more to read now
        connection.sock.close()


class QueryService:
    """The query service: one database, one listening socket, one thread.

    Pass a :class:`~repro.session.database.Database` (an app is built
    around it) or a ready-made :class:`~repro.service.app.ServiceApp`.
    ``port=0`` (the default) binds an ephemeral port — read :attr:`url`
    after :meth:`start`.  Context-manager use starts and stops the server;
    the wrapped database is *not* closed (its lifecycle belongs to the
    caller).
    """

    def __init__(
        self,
        database_or_app: Database | ServiceApp,
        host: str = "127.0.0.1",
        port: int = 0,
        **app_options,
    ):
        if isinstance(database_or_app, ServiceApp):
            if app_options:
                raise ServiceError(
                    "app options only apply when constructing the app here; "
                    "pass a Database, or configure the ServiceApp directly"
                )
            self.app = database_or_app
        else:
            self.app = ServiceApp(database_or_app, **app_options)
        self._address = (host, port)
        self._server: Optional[_Loop] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    @property
    def url(self) -> str:
        """The service base URL (available once started)."""
        if self._server is None:
            raise ServiceError("the service is not running; call start()")
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def running(self) -> bool:
        return self._server is not None

    def start(self) -> "QueryService":
        """Bind the socket and serve requests on a daemon thread."""
        if self._server is not None:
            raise ServiceError("the service is already running")
        self._server = _Loop(self._address, self.app)
        self._thread = threading.Thread(
            target=self._server.serve,
            name="repro-query-service",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, end every connection, join the loop thread,
        release the socket.

        A request being served is answered first; a reply a client has not
        finished reading is dropped with its connection.
        """
        if self._server is None:
            return
        self._server.stop()
        if self._thread is not None:
            self._thread.join(timeout=10)
        # the port is free even if a request outlived the join
        self._server.close_listener()
        self._server = None
        self._thread = None
        self.app.close()

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self.url if self.running else "stopped"
        return f"<QueryService {state}>"


# POST endpoints that change nothing, hence safe to send twice
_RETRY_SAFE = ("/query", "/query_many", "/explain")


def _retry_safe(method: str, path: str) -> bool:
    path = path.split("?", 1)[0].rstrip("/")
    return method == "GET" or path in _RETRY_SAFE or path.startswith("/execute/")


class _Link:
    """One kept-alive client connection and the bytes read past its last reply."""

    __slots__ = ("sock", "buffer", "poller")

    def __init__(self, address, timeout: float):
        self.sock = socket.create_connection(address, timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()
        self.poller = select.poll()
        self.poller.register(self.sock, select.POLLIN)

    def ended(self) -> bool:
        """Whether the service has already closed this idle connection
        (a poll that does not wait, then a peek at the end of input)."""
        if not self.poller.poll(0):
            return False
        try:
            return not self.sock.recv(1, socket.MSG_PEEK)
        except ConnectionError:
            return True

    def read_reply(self) -> tuple[int, dict, bytes]:
        """One ``Content-Length``-framed reply: status, headers, body."""
        buffer = self.buffer
        while True:
            end = buffer.find(b"\r\n\r\n", 0, _MAX_HEAD + 4)
            if end >= 0:
                break
            if len(buffer) >= _MAX_HEAD + 4:
                raise ServiceError("the reply head is over 64 KiB")
            chunk = self.sock.recv(_RECV_SIZE)
            if not chunk:
                if buffer:
                    raise ServiceError("the connection closed in the middle of a reply")
                raise ConnectionResetError("the service closed the connection without a reply")
            buffer += chunk
        lines = buffer[:end].decode("latin-1").split("\r\n")
        parts = lines[0].split(" ", 2)
        if (
            len(parts) < 2 or parts[0] not in ("HTTP/1.0", "HTTP/1.1")
            or len(parts[1]) != 3 or not (parts[1].isascii() and parts[1].isdigit())
        ):
            raise ServiceError(f"malformed status line {lines[0]!r}")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, colon, value = line.partition(":")
            if not colon:
                raise ServiceError(f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise ServiceError(
                f"a reply with Transfer-Encoding {headers['transfer-encoding']!r} "
                "is not Content-Length framed"
            )
        length = headers.get("content-length")
        if length is None or not (length.isascii() and length.isdigit()):
            raise ServiceError(f"the reply's Content-Length is {length!r}")
        total = end + 4 + int(length)
        while len(buffer) < total:
            chunk = self.sock.recv(_RECV_SIZE)
            if not chunk:
                raise ServiceError("the connection closed in the middle of a reply")
            buffer += chunk
        body = bytes(buffer[end + 4:total])
        del buffer[:total]
        return int(parts[1]), headers, body

    def close(self) -> None:
        self.sock.close()


class ServiceClient:
    """A minimal stdlib JSON client for the service (tests, tools, examples).

    Every method returns ``(status, body)`` where ``body`` is the decoded
    JSON object — or the raw text for non-JSON responses like
    ``/metrics``.  HTTP error statuses are returned, not raised: the
    service's error bodies are part of its contract and callers assert on
    them.  A reply the client cannot frame — chunked, without a valid
    ``Content-Length``, with a malformed status line — raises
    :class:`~repro.errors.ServiceError`.

    Each calling thread keeps one connection alive between requests, so a
    client may be shared.  A kept connection the server has already ended
    (stopped, restarted) is replaced before the request goes out.  If the
    connection ends after the request went out, the request is sent once
    more on a new one only if sending it twice is harmless (``GET``,
    ``/query``, ``/query_many``, ``/explain``, ``/execute/…``); any other
    request — DDL, ingest, prepare — may already have been applied, and
    raises :class:`~repro.errors.ServiceError` instead.  A service that is
    gone raises ``OSError``.
    """

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        url = urllib.parse.urlsplit(self.base_url)
        self._address = (url.hostname, url.port or 80)
        self._host = url.netloc
        self._prefix = url.path
        self._local = threading.local()

    def _request(self, method: str, path: str, payload=None):
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = f"{method} {self._prefix}{path} HTTP/1.1\r\nHost: {self._host}\r\n"
        if body:
            head += "Content-Type: application/json\r\n"
        message = f"{head}Content-Length: {len(body)}\r\n\r\n".encode("latin-1") + body
        link = getattr(self._local, "link", None)
        if link is not None and link.ended():
            link.close()  # ended while idle (a stop): the request goes on a new one
            link = self._local.link = None
        reused = link is not None
        if link is None:
            link = self._local.link = _Link(self._address, self.timeout)
        sent = False
        try:
            try:
                link.sock.sendall(message)
                sent = True
                status, headers, raw = link.read_reply()
            except ConnectionError as exc:
                link.close()
                if not reused:
                    raise
                if sent and not _retry_safe(method, path):
                    raise ServiceError(
                        f"{method} {path}: the connection ended after the request "
                        "went out; not sent again, since the service may have applied it"
                    ) from exc
                # it never fully went out, or twice is harmless: once more, on a new one
                link = self._local.link = _Link(self._address, self.timeout)
                link.sock.sendall(message)
                status, headers, raw = link.read_reply()
        except BaseException:
            link.close()  # never reuse a connection in an unknown state
            self._local.link = None
            raise
        if headers.get("connection", "").lower() == "close":
            link.close()
            self._local.link = None
        if headers.get("content-type", "").startswith("application/json"):
            return status, json.loads(raw)
        return status, raw.decode("utf-8")

    def get(self, path: str):
        """``GET path`` → ``(status, body)``."""
        return self._request("GET", path)

    def post(self, path: str, payload: Optional[dict] = None):
        """``POST path`` with a JSON body → ``(status, body)``."""
        return self._request("POST", path, payload if payload is not None else {})
