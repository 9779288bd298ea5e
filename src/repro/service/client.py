"""A blocking HTTP client for the job server (stdlib ``http.client``).

Speaks the :mod:`repro.api` wire types: submit a
:class:`~repro.api.ScheduleRequest`, poll a
:class:`~repro.api.JobStatus`, long-poll the final
:class:`~repro.api.ScheduleResponse`.  One connection per call
(the server is ``Connection: close``), so a client instance is cheap
and safe to share across threads.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection
from typing import Optional, Tuple
from urllib.parse import urlsplit

from repro.api import JobStatus, ScheduleRequest, ScheduleResponse
from repro.scheduler.policy import SchedulePolicy


class ServiceError(RuntimeError):
    """A non-2xx response from the job server."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceClient:
    """Blocking client of one :class:`~repro.service.server.JobServer`.

    ``url`` is the server base (e.g. ``http://127.0.0.1:8423``);
    ``timeout`` is the per-connection socket timeout in seconds.
    """

    def __init__(self, url: str, timeout: float = 600.0):
        split = urlsplit(url if "//" in url else f"http://{url}")
        if split.scheme not in ("", "http"):
            raise ValueError(f"unsupported scheme {split.scheme!r} (http only)")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.timeout = timeout

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _call(
        self, method: str, path: str, payload: Optional[object] = None
    ) -> Tuple[int, dict]:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            status = response.status
        finally:
            connection.close()
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(status, f"undecodable response body: {exc}") from None
        if status >= 400:
            message = decoded.get("error", raw.decode("utf-8", "replace")) if isinstance(
                decoded, dict
            ) else str(decoded)
            raise ServiceError(status, message)
        if not isinstance(decoded, dict):
            raise ServiceError(status, f"expected a JSON object, got {type(decoded).__name__}")
        return status, decoded

    # ------------------------------------------------------------------ #
    # API surface
    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        return self._call("GET", "/api/v1/health")[1]

    def stats(self) -> dict:
        return self._call("GET", "/api/v1/stats")[1]

    def submit(self, request: ScheduleRequest) -> JobStatus:
        """POST one request; returns its status with the server-assigned
        job id: ``queued``, or ``done`` when the server answered it from
        the result cache."""
        return self._submit(request)[0]

    def _submit(self, request: ScheduleRequest) -> Tuple[JobStatus, Optional[ScheduleResponse]]:
        """The POST's status, plus the response of a cache hit."""
        _, payload = self._call("POST", "/api/v1/jobs", request.to_dict())
        response = payload.get("response")
        return (
            JobStatus.from_dict(payload["job"]),
            ScheduleResponse.from_dict(response) if response is not None else None,
        )

    def status(self, job_id: str) -> JobStatus:
        _, payload = self._call("GET", f"/api/v1/jobs/{job_id}")
        return JobStatus.from_dict(payload["job"])

    def result(self, job_id: str, timeout: Optional[float] = None) -> ScheduleResponse:
        """Long-poll the job's final response.

        Blocks on the server side until the job is terminal; ``timeout``
        bounds the wait (:class:`TimeoutError` on expiry — the job keeps
        running).
        """
        path = f"/api/v1/jobs/{job_id}/result"
        if timeout is not None:
            path += f"?timeout={timeout}"
        status, payload = self._call("GET", path)
        if status == 202:
            state = payload.get("job", {}).get("state", "unknown")
            raise TimeoutError(f"job {job_id} still {state} after {timeout}s")
        return ScheduleResponse.from_dict(payload["response"])

    def cancel(self, job_id: str) -> JobStatus:
        _, payload = self._call("POST", f"/api/v1/jobs/{job_id}/cancel")
        return JobStatus.from_dict(payload["job"])

    def client_state(self, name: str) -> dict:
        return self._call("GET", f"/api/v1/clients/{name}")[1]["client"]

    def set_policy(self, name: str, policy: Optional[SchedulePolicy]) -> dict:
        payload = policy.to_dict() if policy is not None else None
        return self._call("PUT", f"/api/v1/clients/{name}/policy", payload)[1]["client"]

    def schedule(
        self, request: ScheduleRequest, timeout: Optional[float] = None
    ) -> ScheduleResponse:
        """Submit one request and block for its response (a cache hit
        needs no second call)."""
        status, response = self._submit(request)
        if response is not None:
            return response
        return self.result(status.job_id, timeout=timeout)
