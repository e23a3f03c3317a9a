"""HTTP transport for the query service: stdlib server and client.

:class:`QueryService` wraps a :class:`~repro.service.app.ServiceApp` in a
``http.server.ThreadingHTTPServer`` — one daemon thread accepts
connections, one thread per connection parses JSON and calls the app.
Connections are HTTP/1.1 keep-alive: a client that holds on to its
connection is served by one long-lived thread, with no accept and no
thread start per request (stopping the service ends the idle ones).  The
app serializes database access internally, so the threaded transport is
safe by construction.  No framework, no event loop, no dependency: the
whole service tier runs on the standard library, as CI (no network) and
the paper-reproduction charter require.

:class:`ServiceClient` is the matching stdlib (``http.client``) client used
by the tests, the quickstart example and the load tester; it keeps one
connection alive per calling thread.

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

import http.client
import json
import socket
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.errors import ServiceError
from repro.service.app import ServiceApp, ServiceResponse
from repro.service.models import SCHEMA_VERSION
from repro.session.database import Database

__all__ = [
    "QueryService",
    "ServiceClient",
]


class _RequestHandler(BaseHTTPRequestHandler):
    """Parses HTTP, delegates to the app, writes the JSON (or text) reply."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-query-service"
    # no segment of a reply on a kept-alive connection waits for the client's
    # delayed ACK of the one before it (40 ms)
    disable_nagle_algorithm = True

    # the ThreadingHTTPServer subclass carries the app
    @property
    def app(self) -> ServiceApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging is the metrics/tracing layer's job

    def _read_payload(self) -> Optional[dict]:
        header = self.headers.get("Content-Length") or "0"
        if not (header.isascii() and header.isdigit()):
            # where the body ends is unknown: the connection cannot be reused
            self.close_connection = True
            raise _BadRequestBody(
                "bad-content-length",
                f"Content-Length {header!r} is not a non-negative integer",
            )
        length = int(header)
        if length == 0:
            return None
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, a body that is not UTF-8, nesting too deep
            raise _BadRequestBody("bad-json", f"request body is not valid JSON: {exc}")

    def _write(self, response: ServiceResponse) -> None:
        if isinstance(response.body, str):
            payload = response.body.encode("utf-8")
        else:
            payload = json.dumps(response.body).encode("utf-8")
        headers = {
            "Server": self.version_string(),
            "Date": self.date_time_string(),
            "Content-Type": response.content_type,
            "Content-Length": str(len(payload)),
            "X-Request-ID": response.request_id,
        }
        if response.trace_id:
            headers["X-Trace-ID"] = response.trace_id
        headers.update(response.headers)
        phrase = self.responses.get(response.status, ("",))[0]
        head = [f"{self.protocol_version} {response.status} {phrase}"]
        head += [f"{name}: {value}" for name, value in headers.items()]
        # the whole reply in one write: a client woken by the headers alone
        # may or may not sleep again for the body, and on two cores the
        # service's throughput then fell into one of two modes run by run
        self.wfile.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + payload)

    def _dispatch(self, method: str) -> None:
        try:
            payload = self._read_payload()
        except _BadRequestBody as exc:
            body = {
                "schema_version": SCHEMA_VERSION,
                "request_id": None,
                "trace_id": None,
                "error": {"code": exc.code, "message": str(exc)},
            }
            headers = {"Connection": "close"} if self.close_connection else {}
            self._write(ServiceResponse(400, body, request_id="", headers=headers))
            return
        self._write(self.app.handle(method, self.path, payload))

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")


class _BadRequestBody(ServiceError):
    """A request the transport rejects before the app sees it (a typed 400)."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, app: ServiceApp):
        super().__init__(address, _RequestHandler)
        self.app = app
        # kept-alive connections outlive their last request
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address):
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def end_connections(self) -> None:
        """End of input on every open connection.

        A thread waiting for the next request on an idle connection sees
        the end and exits; one in the middle of a request still writes its
        reply first.
        """
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # the peer hung up first


class QueryService:
    """The query service: one database, one listening socket, many threads.

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
        self._server: Optional[_Server] = None
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
        self._server = _Server(self._address, self.app)
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-query-service",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, join the serving thread, release the socket."""
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._server.end_connections()
        if self._thread is not None:
            self._thread.join(timeout=10)
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


class ServiceClient:
    """A minimal stdlib JSON client for the service (tests, tools, examples).

    Every method returns ``(status, body)`` where ``body`` is the decoded
    JSON object — or the raw text for non-JSON responses like
    ``/metrics``.  HTTP error statuses are returned, not raised: the
    service's error bodies are part of its contract and callers assert on
    them.

    Each calling thread keeps one connection alive between requests, so a
    client may be shared.  A request that finds its idle connection ended
    by the server (stopped, restarted) is sent once more on a new one; a
    service that is gone raises ``OSError`` as before.
    """

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._url = urllib.parse.urlsplit(self.base_url)
        self._local = threading.local()

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self._url.hostname, self._url.port, timeout=self.timeout
            )
            self._local.connection = connection
        return connection

    def _request(self, method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body else {}
        connection = self._connection()
        reused = connection.sock is not None
        try:
            try:
                connection.request(method, self._url.path + path, body, headers)
                reply = connection.getresponse()
            except ConnectionError:
                connection.close()
                if not reused:
                    raise
                # the server ended the idle connection: once more, on a new one
                connection.request(method, self._url.path + path, body, headers)
                reply = connection.getresponse()
            status, raw = reply.status, reply.read()
        except BaseException:
            connection.close()  # never reuse a connection in an unknown state
            raise
        content_type = reply.headers.get("Content-Type", "")
        if content_type.startswith("application/json"):
            return status, json.loads(raw)
        return status, raw.decode("utf-8")

    def get(self, path: str):
        """``GET path`` → ``(status, body)``."""
        return self._request("GET", path)

    def post(self, path: str, payload: Optional[dict] = None):
        """``POST path`` with a JSON body → ``(status, body)``."""
        return self._request("POST", path, payload if payload is not None else {})


def find_free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (for tools that must name one up front)."""
    with socket.socket() as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]
