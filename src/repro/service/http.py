"""Localhost HTTP front end.

One endpoint: ``POST /rpc`` with a JSON request body.  The response
body is newline-delimited JSON — zero or more streamed trace-event
lines (``{"trace": {...}}``, present when the request set
``"trace": true``), then exactly one response line.  Responses without
tracing carry a Content-Length; traced responses stream chunk-free
with ``Connection: close`` delimiting the body, so events reach the
client as the engine emits them.  ``GET /healthz`` answers ``ok`` (the
readiness probe CI's wait loop polls).

Built on :class:`http.server.ThreadingHTTPServer`: each request runs
on its own thread, which is exactly what exercises the service's
coalescing and the reuse layer's locks.  A successful ``shutdown``
request stops the server after its response is written.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service.daemon import AnalysisService


class ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: AnalysisService, quiet: bool = True):
        self.service = service
        self.quiet = quiet
        super().__init__(address, _Handler)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: ServiceHTTPServer

    def log_message(self, fmt, *args):  # pragma: no cover - debug aid
        if not self.server.quiet:
            super().log_message(fmt, *args)

    def _send_json_lines(self, lines) -> None:
        body = b"".join(
            json.dumps(line, sort_keys=True).encode("utf-8") + b"\n"
            for line in lines
        )
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        if self.path == "/healthz":
            body = b"ok\n"
            self.send_response(200)
            self.send_header("Content-Type", "text/plain")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        self.send_error(404, "only POST /rpc and GET /healthz exist")

    def do_POST(self) -> None:
        if self.path not in ("/rpc", "/"):
            self.send_error(404, "only POST /rpc and GET /healthz exist")
            return
        declared = self.headers.get("Content-Length", "0")
        if not declared.strip().isdigit():
            # rfile.read(-1) would wait for the client to close: refuse
            # at once, and close, since the unread body cannot be skipped.
            self.close_connection = True
            self._send_json_lines(
                [{"ok": False, "error": f"bad Content-Length {declared!r}"}]
            )
            return
        try:
            request = json.loads(self.rfile.read(int(declared)))
        except ValueError as exc:
            self._send_json_lines(
                [{"ok": False, "error": f"request is not JSON: {exc}"}]
            )
            return
        streaming = isinstance(request, dict) and bool(request.get("trace"))
        if not streaming:
            response = self.server.service.handle(request)
            self._send_json_lines([response])
        else:
            # Stream: headers first, then one JSON line per trace
            # event as the engine emits it, then the response line.
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Connection", "close")
            self.end_headers()
            self.close_connection = True
            write_lock = threading.Lock()

            def emit(event: dict) -> None:
                line = json.dumps({"trace": event}, sort_keys=True) + "\n"
                with write_lock:
                    self.wfile.write(line.encode("utf-8"))
                    self.wfile.flush()

            response = self.server.service.handle(request, emit=emit)
            with write_lock:
                self.wfile.write(
                    (json.dumps(response, sort_keys=True) + "\n").encode("utf-8")
                )
        if (
            isinstance(request, dict)
            and request.get("op") == "shutdown"
            and response.get("ok")
        ):
            # shutdown() joins the serve_forever loop (another thread);
            # spawn a closer so this handler finishes its I/O cleanly.
            threading.Thread(target=self.server.shutdown, daemon=True).start()


def make_server(
    service: AnalysisService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> ServiceHTTPServer:
    """Bind (not yet serving); ``server_address[1]`` is the real port."""
    return ServiceHTTPServer((host, port), service, quiet=quiet)


def serve_http(
    service: AnalysisService, host: str = "127.0.0.1", port: int = 0
) -> int:
    server = make_server(service, host, port)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        server.server_close()
    return 0
