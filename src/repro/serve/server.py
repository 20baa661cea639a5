"""The HTTP surface of repro-serve (stdlib ``http.server`` only).

Endpoints (all JSON unless noted)::

    GET  /v1/health                liveness
    POST /v1/jobs                  submit a RunSpec document
    GET  /v1/jobs                  list job snapshots
    GET  /v1/jobs/<id>             one snapshot (+ latest progress doc)
    GET  /v1/jobs/<id>/artifact    raw artifact bytes (409 until ready)
    POST /v1/jobs/<id>/resume      continue a drained (checkpointed) job
    GET  /v1/stats                 counters, budget state, cache aggregates
    POST /v1/shutdown              request graceful drain + exit

Status mapping: bad spec → 400, unknown job → 404, artifact not ready →
409, admission reject → 429, draining → 503.  Submissions respond with
the job snapshot; ``cache_hit``/``attached`` flags tell the client
whether any new compute was admitted.

The server itself is a :class:`ThreadingHTTPServer` — request handling
is cheap (snapshots and file reads); all compute lives in the
scheduler's worker pool.
"""

from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.serve.scheduler import AdmissionRejected, Scheduler, ServiceDraining
from repro.spec import RunSpec, SpecError
from repro.utils.log import get_logger

__all__ = ["ReproServer"]

_LOG = get_logger("repro.serve")

_MAX_BODY = 8 * 1024 * 1024  # a case snapshot is KBs; 8 MiB is generous


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # ---- plumbing ---------------------------------------------------------

    @property
    def app(self) -> ReproServer:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args) -> None:
        _LOG.debug("%s %s", self.address_string(), fmt % args)

    def _send_json(self, code: int, doc: dict) -> None:
        body = json.dumps(doc, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise SpecError(None, "request body must be a JSON object")
        if length > _MAX_BODY:
            raise SpecError(None, f"request body too large ({length} bytes)")
        raw = self.rfile.read(length)
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            detail = str(exc).replace("{", "{{").replace("}", "}}")
            raise SpecError(None, f"request body is not valid JSON: {detail}") from None
        if not isinstance(doc, dict):
            raise SpecError(None, "request body must be a JSON object")
        return doc

    # ---- routing ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._route("POST")

    def _route(self, method: str) -> None:
        path = self.path.split("?", 1)[0].rstrip("/")
        try:
            if method == "GET" and path == "/v1/health":
                self._send_json(200, {"ok": True,
                                      "draining": self.app.draining})
            elif method == "POST" and path == "/v1/jobs":
                self._send_json(200, self.app.scheduler.submit(
                    RunSpec.from_json(self._read_body())))
            elif method == "GET" and path == "/v1/jobs":
                self._send_json(200, {"jobs": self.app.scheduler.jobs()})
            elif method == "GET" and path == "/v1/stats":
                self._send_json(200, self.app.scheduler.stats())
            elif method == "POST" and path == "/v1/shutdown":
                self._send_json(200, {"ok": True, "draining": True})
                self.app.request_shutdown()
            elif path.startswith("/v1/jobs/"):
                self._route_job(method, path[len("/v1/jobs/"):])
            else:
                self._send_error_json(404, f"no route {method} {path}")
        except SpecError as exc:
            self._send_error_json(400, str(exc))
        except KeyError as exc:
            self._send_error_json(404, str(exc.args[0] if exc.args else exc))
        except ValueError as exc:
            self._send_error_json(409, str(exc))
        except AdmissionRejected as exc:
            self._send_error_json(429, str(exc))
        except ServiceDraining as exc:
            self._send_error_json(503, str(exc))

    def _route_job(self, method: str, tail: str) -> None:
        job_id, _, action = tail.partition("/")
        scheduler = self.app.scheduler
        if method == "GET" and not action:
            snap = scheduler.job(job_id)
            snap["progress"] = scheduler.job_progress(job_id)
            self._send_json(200, snap)
        elif method == "GET" and action == "artifact":
            self._send_artifact(job_id)
        elif method == "POST" and action == "resume":
            self._send_json(200, scheduler.resume(job_id))
        else:
            self._send_error_json(404, f"no route {method} /v1/jobs/{tail}")

    def _send_artifact(self, job_id: str) -> None:
        snap = self.app.scheduler.job(job_id)
        path = self.app.scheduler.artifact_path(job_id)
        if path is None or not os.path.isfile(path):
            self._send_error_json(
                409, f"job {job_id} is {snap['status']!r}; no artifact yet")
            return
        with open(path, "rb") as fh:
            body = fh.read()
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Repro-Kind", snap["kind"])
        self.send_header("X-Repro-Key", snap["key"])
        self.end_headers()
        self.wfile.write(body)


class ReproServer:
    """Owns the HTTP listener thread and its scheduler's shutdown path."""

    def __init__(self, host: str, port: int, scheduler: Scheduler) -> None:
        self.scheduler = scheduler
        self.draining = False
        self._shutdown_requested = threading.Event()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True  # request threads, not workers
        self._httpd.app = self  # type: ignore[attr-defined]
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=False,
            name="repro-serve-http")

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        self._serve_thread.start()

    def __enter__(self) -> ReproServer:
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request_shutdown(self) -> None:
        """Ask for a graceful exit (signal handlers and POST /v1/shutdown)."""
        self.draining = True
        self._shutdown_requested.set()

    def wait_shutdown(self, timeout: float | None = None) -> bool:
        return self._shutdown_requested.wait(timeout)

    def close(self, timeout: float | None = None) -> dict:
        """Drain the scheduler, stop the listener, join every owned thread."""
        self.draining = True
        summary = self.scheduler.close(timeout=timeout)
        self._httpd.shutdown()
        self._serve_thread.join(timeout=10.0)
        self._httpd.server_close()
        return summary
