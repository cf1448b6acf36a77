"""The HTTP shell around :class:`repro.serve.api.ServeApi`.

Stdlib only: a :class:`http.server.HTTPServer` whose handler parses
the request line into ``(method, path, query, body)``, hands it to the
API layer, and writes the JSON answer back.  No framework, no
dependency — the whole experiment service runs anywhere the repo does.

Thread model: every connection is served on its own thread (reads are
served from store snapshots, so they never block on running jobs),
while the job manager's own worker threads drain the submission queue.
A handler thread whose connection has closed waits for the next one, so
a client that opens a connection per request does not pay for a thread
start each time.  The server owns one long-lived
:class:`~repro.store.RunStore` read handle; job workers open their own
handles on the same root.
"""

from __future__ import annotations

import json
import queue
import signal
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.serve.api import ServeApi
from repro.serve.jobs import JobManager
from repro.store import RunStore

__all__ = ["ServeDaemon", "serve_forever"]

_MAX_BODY = 16 * 1024 * 1024  # a spec payload should never be near this


class _Handler(BaseHTTPRequestHandler):
    """One request in, one JSON answer out — all logic lives in ServeApi."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"

    def _dispatch(self, method: str) -> None:
        split = urlsplit(self.path)
        query = dict(parse_qsl(split.query, keep_blank_values=True))
        body: Optional[bytes] = None
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            if length > _MAX_BODY:
                self._reply(413, {
                    "error": {
                        "code": "too_large",
                        "message": f"request body over {_MAX_BODY} bytes",
                    }
                })
                return
            body = self.rfile.read(length)
        status, payload = self.server.api.handle(
            method, split.path, query, body
        )
        self._reply(status, payload)

    def _reply(self, status: int, payload: dict) -> None:
        encoded = (json.dumps(payload) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        # Headers and body in one write: end_headers() would send the
        # headers on their own.
        self._headers_buffer.append(b"\r\n" + encoded)
        self.flush_headers()

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch("PUT")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def log_message(self, format: str, *args) -> None:
        if self.server.quiet:
            return
        BaseHTTPRequestHandler.log_message(self, format, *args)


class _Server(HTTPServer):
    """Hands each accepted connection to an idle handler thread.

    A thread starts only when none is idle, and there is no cap, so as
    many connections are served at once as with ``ThreadingHTTPServer``.
    Idle threads wait until :meth:`server_close`.  Handler threads are
    daemon threads: a client idling on a keep-alive connection must not
    hold up the interpreter's exit.
    """

    allow_reuse_address = True

    def __init__(self, address, api: ServeApi, *, quiet: bool) -> None:
        super().__init__(address, _Handler)
        self.api = api
        self.quiet = quiet
        self._connections: "queue.SimpleQueue" = queue.SimpleQueue()
        self._idle_lock = threading.Lock()
        # Threads waiting on _connections that no queued connection is
        # promised to yet; each put() first takes one of them.
        self._idle = 0
        self._closed = False

    def process_request(self, request, client_address) -> None:
        with self._idle_lock:
            if self._idle:
                self._idle -= 1
                self._connections.put((request, client_address))
                return
        threading.Thread(
            target=self._handler_loop, args=((request, client_address),),
            name="repro-serve-handler", daemon=True,
        ).start()

    def _handler_loop(self, connection) -> None:
        while connection is not None:
            request, client_address = connection
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
            with self._idle_lock:
                if self._closed:
                    return
                self._idle += 1
            connection = self._connections.get()

    def server_close(self) -> None:
        super().server_close()
        with self._idle_lock:
            self._closed = True
            for _ in range(self._idle):
                self._connections.put(None)
            self._idle = 0


class ServeDaemon:
    """The assembled experiment service: store + job manager + HTTP.

    ``port=0`` binds an ephemeral port (tests use this); the actual
    address is available as :attr:`address` after construction.  Run
    blocking via :meth:`serve_forever` (the CLI foreground mode) or in
    a background thread via :meth:`start` / :meth:`stop` (tests).
    """

    def __init__(
        self,
        store_root: str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        quiet: bool = False,
    ) -> None:
        self.store = RunStore(store_root)
        self.jobs = JobManager(store_root, workers=workers)
        self.api = ServeApi(self.store, self.jobs)
        self._server = _Server((host, port), self.api, quiet=quiet)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` is called from
        another thread (or a KeyboardInterrupt), then close."""
        try:
            self._server.serve_forever()
        finally:
            self.close()

    def start(self) -> None:
        """Serve on a background thread (returns once accepting)."""
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()

    def shutdown(self) -> None:
        """Make a running :meth:`serve_forever` return; blocks until it does."""
        self._server.shutdown()

    def stop(self) -> None:
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.close()

    def close(self) -> None:
        self._server.server_close()
        self.jobs.shutdown(timeout=1.0)


def serve_forever(
    store_root: str,
    *,
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: int = 2,
    quiet: bool = False,
    announce=print,
) -> int:
    """CLI foreground entry: bind, announce the address, serve until
    SIGINT or SIGTERM.

    The handlers are installed even where SIGINT was ignored at start (a
    background job of a non-interactive shell).  Each stops the server
    from another thread, since ``shutdown`` waits for the serving loop
    this thread runs; the daemon then closes its job manager.  The
    previous handlers are restored on return.
    """
    daemon = ServeDaemon(
        store_root, host=host, port=port, workers=workers, quiet=quiet
    )
    host_, port_ = daemon.address
    announce(
        f"repro serve: store {daemon.store.root} "
        f"({len(daemon.store)} records) on http://{host_}:{port_}"
    )
    stopping = threading.Event()

    def _on_signal(signum, frame):
        if not stopping.is_set():
            stopping.set()
            threading.Thread(target=daemon.shutdown, daemon=True).start()

    previous = {
        signum: signal.signal(signum, _on_signal)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        daemon.serve_forever()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    announce("repro serve: shutting down")
    return 0
