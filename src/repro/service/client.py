"""Stdlib client for the scenario daemon.

Speaks the envelope protocol of :mod:`repro.service.daemon` over
localhost TCP (``http://host:port``) or a unix socket
(``unix:/path/to.sock``).  Used by the ``repro submit`` / ``status`` /
``result`` subcommands and by tests; has no dependency beyond
``http.client``.

Transport problems and non-envelope responses raise
:class:`ServiceError`; *domain* failures (unknown job, job failed)
come back as normal envelopes with ``ok: false`` so callers can relay
them verbatim.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import time
from typing import Any, Iterator

from repro.service.envelope import dumps, jsonable, validate_envelope

__all__ = ["DEFAULT_ENDPOINT", "ServiceClient", "ServiceError"]

#: Where ``repro serve`` listens unless told otherwise, and where the
#: client subcommands connect unless ``--endpoint`` / $REPRO_ENDPOINT says
#: otherwise.
DEFAULT_ENDPOINT = "http://127.0.0.1:8642"


class ServiceError(RuntimeError):
    """The daemon could not be reached or spoke a foreign protocol."""


class _UnixHTTPConnection(http.client.HTTPConnection):
    """HTTPConnection whose transport is a unix-domain socket."""

    def __init__(self, path: str, timeout: float | None = None):
        super().__init__("localhost", timeout=timeout)
        self._path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.timeout is not None:
            sock.settimeout(self.timeout)
        sock.connect(self._path)
        self.sock = sock


def default_endpoint() -> str:
    """``$REPRO_ENDPOINT`` or the well-known localhost port."""
    return os.environ.get("REPRO_ENDPOINT", DEFAULT_ENDPOINT)


class ServiceClient:
    """Thin request/response wrapper over one daemon endpoint."""

    def __init__(self, endpoint: str | None = None, timeout: float = 30.0):
        self.endpoint = endpoint if endpoint is not None else default_endpoint()
        self.timeout = timeout

    # -- transport -----------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self.endpoint.startswith("unix:"):
            return _UnixHTTPConnection(
                self.endpoint[len("unix:"):], timeout=self.timeout
            )
        if self.endpoint.startswith("http://"):
            hostport = self.endpoint[len("http://"):].rstrip("/")
            return http.client.HTTPConnection(hostport, timeout=self.timeout)
        raise ServiceError(
            f"endpoint must be http://host:port or unix:/path, "
            f"got {self.endpoint!r}"
        )

    def request(
        self,
        method: str,
        path: str,
        body: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """One envelope round-trip; raises :class:`ServiceError` on
        transport failure or a malformed response."""
        conn = self._connection()
        try:
            payload = dumps(jsonable(body)) if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read().decode()
        except (OSError, http.client.HTTPException) as exc:
            raise ServiceError(
                f"cannot reach daemon at {self.endpoint}: {exc}"
            ) from exc
        finally:
            conn.close()
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"daemon at {self.endpoint} returned non-JSON: {raw[:200]!r}"
            ) from exc
        problems = validate_envelope(doc)
        if problems:
            raise ServiceError(
                f"daemon returned a malformed envelope: {problems}"
            )
        return doc

    # -- API -----------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """Daemon liveness, version and store stats."""
        return self.request("GET", "/v1/health")

    def submit(
        self,
        spec: dict[str, Any],
        execution: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Submit a scenario spec (plus optional execution knobs)."""
        body: dict[str, Any] = {"spec": spec}
        if execution:
            body["execution"] = execution
        return self.request("POST", "/v1/jobs", body)

    def jobs(self) -> dict[str, Any]:
        """Status snapshots of every job the daemon knows."""
        return self.request("GET", "/v1/jobs")

    def status(self, job_id: str) -> dict[str, Any]:
        """One job's status snapshot (state, progress, hit counter)."""
        return self.request("GET", f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> dict[str, Any]:
        """A finished job's archived result document."""
        return self.request("GET", f"/v1/jobs/{job_id}/result")

    def submit_batch(
        self,
        specs: list[dict[str, Any]] | None = None,
        base: dict[str, Any] | None = None,
        grid: dict[str, Any] | None = None,
        execution: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Submit a sweep batch: an explicit spec list, or a base spec
        plus grid axes expanded server-side (exactly one of the two)."""
        body: dict[str, Any] = {}
        if specs is not None:
            body["specs"] = specs
        if base is not None:
            body["base"] = base
        if grid is not None:
            body["grid"] = grid
        if execution:
            body["execution"] = execution
        return self.request("POST", "/v1/batches", body)

    def batches(self) -> dict[str, Any]:
        """Status snapshots of every batch the daemon knows."""
        return self.request("GET", "/v1/batches")

    def batch_status(self, batch_id: str) -> dict[str, Any]:
        """One batch's aggregate status (overall state, member jobs)."""
        return self.request("GET", f"/v1/batches/{batch_id}")

    def wait_batch(
        self,
        batch_id: str,
        timeout: float | None = None,
        poll: float = 0.2,
    ) -> dict[str, Any]:
        """Poll until every member job is terminal; returns the final
        batch envelope.  Raises :class:`ServiceError` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            env = self.batch_status(batch_id)
            state = (env.get("data") or {}).get("state")
            if state in ("done", "failed") or not env["ok"]:
                return env
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"timed out after {timeout}s waiting for {batch_id}"
                )
            time.sleep(poll)

    def store_stats(self) -> dict[str, Any]:
        """Result-store counters (entries, total hits, root, version)."""
        return self.request("GET", "/v1/store")

    def shutdown(self) -> dict[str, Any]:
        """Ask the daemon to stop after answering this request."""
        return self.request("POST", "/v1/shutdown")

    def wait(
        self,
        job_id: str,
        timeout: float | None = None,
        poll: float = 0.2,
    ) -> dict[str, Any]:
        """Poll until the job is terminal; returns the final envelope.

        Raises :class:`ServiceError` on timeout — polling longer is the
        caller's decision, not a silent hang.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            env = self.status(job_id)
            state = (env.get("data") or {}).get("state")
            if state in ("done", "failed", "cached") or not env["ok"]:
                return env
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"timed out after {timeout}s waiting for {job_id}"
                )
            time.sleep(poll)

    def stream(self, job_id: str) -> Iterator[dict[str, Any]]:
        """Yield NDJSON status snapshots until the job is terminal."""
        conn = self._connection()
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/stream")
            response = conn.getresponse()
            if response.status != 200:
                raw = response.read().decode()
                raise ServiceError(f"stream failed: {raw[:200]}")
            buffer = b""
            while True:
                chunk = response.read(4096)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        yield json.loads(line)
        except (OSError, http.client.HTTPException) as exc:
            raise ServiceError(f"stream transport failure: {exc}") from exc
        finally:
            conn.close()
