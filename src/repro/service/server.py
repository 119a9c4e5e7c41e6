"""Stdlib HTTP front-end for :class:`~repro.service.jobs.MiningService`.

A thin :mod:`http.server` layer — no framework, no new dependencies —
exposing the daemon protocol:

========================  ======================================================
``POST /jobs``            submit a job; body is JSON with ``config`` (a
                          :meth:`~repro.config.MiningConfig.to_dict` mapping)
                          plus exactly one of ``store`` (packed-store path on
                          the *server's* filesystem) or ``database`` (inline
                          rows, optionally with ``ids``); answers ``202`` with
                          the job's status document
``GET /jobs/<id>``        job status plus live phase progress (a
                          :meth:`~repro.obs.Tracer.snapshot` tree)
``GET /jobs/<id>/result`` the finished payload (``409`` while queued/running,
                          ``500`` if the job failed, ``404`` if unknown)
``POST /stores/<digest>/append``
                          append rows to the open *segmented* store whose
                          manifest digest is ``<digest>``; body is JSON with
                          ``database`` (rows) and optional ``ids``; answers
                          ``200`` with the new manifest digest (``404`` for an
                          unknown digest, ``409`` for a non-segmented store or
                          a rejected append)
``GET /healthz``          liveness, uptime, job counts, store-cache and
                          result-memo statistics
========================  ======================================================

Every response is ``application/json``.  Errors are
``{"error": "..."}`` with an appropriate status code.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from ..errors import NoisyMineError, ServiceError
from .jobs import DEFAULT_WORKERS, FAILED, MiningService

#: Default bind address for ``noisymine serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

#: Reject request bodies beyond this size (inline databases should be
#: modest; big inputs belong in a packed store on disk).
MAX_BODY_BYTES = 64 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the server's :class:`MiningService`."""

    protocol_version = "HTTP/1.1"
    server: "MiningServer"

    # -- plumbing -------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> Optional[dict]:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            # The body's extent is unknown, so the connection cannot be
            # reused after answering.
            self.close_connection = True
            self._send_error_json(
                400, f"malformed Content-Length header: {header!r}"
            )
            return None
        if length <= 0:
            self._send_error_json(400, "request body required")
            return None
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # the body stays unread
            self._send_error_json(
                413, f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
            return None
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_error_json(400, f"malformed JSON body: {exc}")
            return None
        if not isinstance(payload, dict):
            self._send_error_json(400, "JSON body must be an object")
            return None
        return payload

    # -- routes ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.rstrip("/") or "/"
        service = self.server.service
        try:
            if path == "/healthz":
                self._send_json(200, service.healthz())
            elif path.startswith("/jobs/"):
                parts = path[len("/jobs/"):].split("/")
                if len(parts) == 1:
                    self._send_json(200, service.job(parts[0]).status_dict())
                elif len(parts) == 2 and parts[1] == "result":
                    self._get_result(parts[0])
                else:
                    self._send_error_json(404, f"no route for {self.path}")
            else:
                self._send_error_json(404, f"no route for {self.path}")
        except ServiceError as exc:
            self._send_error_json(404, str(exc))
        except Exception as exc:  # noqa: BLE001 - keep the daemon alive
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")

    def _get_result(self, job_id: str) -> None:
        service = self.server.service
        job = service.job(job_id)  # ServiceError -> 404 in caller
        if job.state == FAILED:
            self._send_json(
                500,
                {"id": job.id, "state": job.state, "error": job.error},
            )
        elif job.result is None:
            self._send_json(
                409,
                {
                    "id": job.id,
                    "state": job.state,
                    "error": f"job {job.id} is {job.state}; retry later",
                },
            )
        else:
            self._send_json(200, job.result_dict())

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.rstrip("/")
        if path.startswith("/stores/") and path.endswith("/append"):
            digest = path[len("/stores/"):-len("/append")]
            if digest and "/" not in digest:
                self._post_append(digest)
            else:
                self._send_error_json(404, f"no route for {self.path}")
            return
        if path != "/jobs":
            self._send_error_json(404, f"no route for {self.path}")
            return
        payload = self._read_body()
        if payload is None:
            return
        config = payload.get("config")
        if not isinstance(config, dict):
            self._send_error_json(
                400, "'config' must be an object (MiningConfig fields)"
            )
            return
        try:
            job = self.server.service.submit(
                config,
                store=payload.get("store"),
                database=payload.get("database"),
                ids=payload.get("ids"),
            )
        except (ServiceError, NoisyMineError) as exc:
            self._send_error_json(400, str(exc))
            return
        except OSError as exc:
            self._send_error_json(400, f"cannot stat store: {exc}")
            return
        except Exception as exc:  # noqa: BLE001 - keep the daemon alive
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")
            return
        self._send_json(202, job.status_dict())

    def _post_append(self, digest: str) -> None:
        payload = self._read_body()
        if payload is None:
            return
        database = payload.get("database")
        if not isinstance(database, list) or not database:
            self._send_error_json(
                400, "'database' must be a non-empty list of rows"
            )
            return
        try:
            outcome = self.server.service.append_to_store(
                digest, database, ids=payload.get("ids")
            )
        except ServiceError as exc:
            message = str(exc)
            if message.startswith("no open store"):
                status = 404
            elif message.startswith("invalid append"):
                status = 400
            else:
                status = 409
            self._send_error_json(status, message)
            return
        except Exception as exc:  # noqa: BLE001 - keep the daemon alive
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")
            return
        self._send_json(200, outcome)


class MiningServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` that owns a :class:`MiningService`.

    Request-handler threads only read job state (the tracer is
    thread-safe, so status snapshots are taken while worker threads
    record); the actual mining happens on the service's worker pool.
    """

    daemon_threads = True

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        service: Optional[MiningService] = None,
        workers: int = DEFAULT_WORKERS,
        verbose: bool = False,
    ):
        self.service = service if service is not None else MiningService(
            workers=workers
        )
        self.verbose = verbose
        super().__init__((host, port), _Handler)

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def close(self) -> None:
        """Stop serving and shut the service down (idempotent)."""
        self.shutdown()
        self.server_close()
        self.service.close()

    def __enter__(self) -> "MiningServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def start_server(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    workers: int = DEFAULT_WORKERS,
    verbose: bool = False,
) -> Tuple[MiningServer, threading.Thread]:
    """Start a daemon serving on a background thread.

    Returns ``(server, thread)``; call ``server.close()`` to stop.
    Binding to port 0 picks a free port — read it back from
    ``server.address``.
    """
    server = MiningServer(
        host=host, port=port, workers=workers, verbose=verbose
    )
    thread = threading.Thread(
        target=server.serve_forever, name="noisymine-http", daemon=True
    )
    thread.start()
    return server, thread


__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "MAX_BODY_BYTES",
    "MiningServer",
    "start_server",
]
