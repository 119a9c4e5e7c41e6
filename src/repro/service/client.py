"""Small urllib client for the mining daemon.

:class:`ServiceClient` speaks the protocol documented in
:mod:`repro.service.server`; it is what ``noisymine submit`` and the
integration tests use.  Pure stdlib — transport failures and error
responses both surface as :class:`~repro.errors.ServiceError`.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Mapping, Optional, Sequence

from ..errors import ServiceError

#: Default per-request timeout in seconds.
DEFAULT_TIMEOUT = 30.0


def _wire_integers(values) -> list:
    """*values* for the wire: integers as ``int``, a float or a bool as
    is, so the daemon rejects it by name instead of the client
    truncating it."""
    return [v if isinstance(v, (bool, float)) else int(v) for v in values]


class ServiceClient:
    """HTTP client bound to one daemon base URL.

    >>> client = ServiceClient("http://127.0.0.1:8765")   # doctest: +SKIP
    >>> job = client.submit({"min_match": 2}, store="db.npz")  # doctest: +SKIP
    >>> client.wait(job["id"])                            # doctest: +SKIP
    """

    def __init__(self, base_url: str, timeout: float = DEFAULT_TIMEOUT):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport ------------------------------------------------------------

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> dict:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            url, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            detail = self._error_detail(exc)
            raise ServiceError(
                f"{method} {path} failed ({exc.code}): {detail}"
            ) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach daemon at {self.base_url}: {exc.reason}"
            ) from exc
        if not isinstance(payload, dict):
            raise ServiceError(
                f"{method} {path}: expected a JSON object, got "
                f"{type(payload).__name__}"
            )
        return payload

    @staticmethod
    def _error_detail(exc: "urllib.error.HTTPError") -> str:
        try:
            payload = json.loads(exc.read().decode("utf-8"))
            return str(payload.get("error", payload))
        except Exception:  # noqa: BLE001 - best-effort error body
            return exc.reason or "unknown error"

    # -- protocol -------------------------------------------------------------

    def submit(
        self,
        config: Mapping[str, object],
        store: Optional[str] = None,
        database: Optional[Sequence[Sequence[int]]] = None,
        ids: Optional[Sequence[int]] = None,
    ) -> dict:
        """``POST /jobs``; returns the new job's status document."""
        body: dict = {"config": dict(config)}
        if store is not None:
            body["store"] = str(store)
        if database is not None:
            body["database"] = [_wire_integers(row) for row in database]
        if ids is not None:
            body["ids"] = _wire_integers(ids)
        return self._request("POST", "/jobs", body)

    def append(
        self,
        digest: str,
        database: Sequence[Sequence[int]],
        ids: Optional[Sequence[int]] = None,
    ) -> dict:
        """``POST /stores/<digest>/append`` — append rows to the open
        segmented store with that manifest digest; returns the new
        digest document."""
        body: dict = {
            "database": [_wire_integers(row) for row in database],
        }
        if ids is not None:
            body["ids"] = _wire_integers(ids)
        return self._request("POST", f"/stores/{digest}/append", body)

    def status(self, job_id: str) -> dict:
        """``GET /jobs/<id>`` — state plus live phase progress."""
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        """``GET /jobs/<id>/result`` — the finished payload.

        Raises :class:`ServiceError` while the job is still queued or
        running (HTTP 409) and when the job failed (HTTP 500).
        """
        return self._request("GET", f"/jobs/{job_id}/result")

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll_interval: float = 0.05,
    ) -> dict:
        """Poll until the job leaves queued/running, then return its
        result document.  Raises :class:`ServiceError` on job failure
        or timeout."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            state = status.get("state")
            if state == "done":
                return self.result(job_id)
            if state == "failed":
                raise ServiceError(
                    f"job {job_id} failed: {status.get('error')}"
                )
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout:.0f}s waiting for job "
                    f"{job_id} (state: {state})"
                )
            time.sleep(poll_interval)


__all__ = ["DEFAULT_TIMEOUT", "ServiceClient"]
