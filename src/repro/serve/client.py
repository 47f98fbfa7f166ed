"""Blocking HTTP client for the simulation service.

Built on stdlib ``http.client`` — one connection per call, matching the
server's ``Connection: close`` discipline.  The CLI subcommands
(``repro submit``, ``repro loadgen``) and the test suite drive the
server exclusively through this module, so it doubles as the reference
consumer of the wire protocol.

Error mapping mirrors the server: HTTP 400 raises
:class:`~repro.serve.protocol.ProtocolError`, 404 raises
:class:`JobNotFound`, 429 raises :class:`ServerBusy` (with the parsed
``Retry-After``), 503 raises :class:`ServerDraining`, and transport
failures raise :class:`ConnectionFailed`.

Retries: constructed with a :class:`RetryPolicy`, :meth:`ServeClient
.run` retries connection errors, 429, and 503 with exponential backoff
plus full jitter (honouring the server's ``Retry-After``), and treats a
404 mid-poll as a broker restart — the restarted broker re-admitted the
journaled work under fresh job ids, so the client *resubmits* the
original request, which is idempotent by content-addressed key (it
attaches to the recovered leader or replays from the result cache).  A hard ``max_deadline`` bounds the whole exchange so campaign
waves fail loudly (:class:`DeadlineExceeded`) instead of hanging.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.common.errors import ReproError
from repro.serve.protocol import (
    JobStatus,
    JobView,
    ProtocolError,
    SimulateRequest,
)


class ServeClientError(ReproError):
    """Base class for client-side failures against the serve API."""


class ConnectionFailed(ServeClientError):
    """The server could not be reached at the transport level."""


class ServerBusy(ServeClientError):
    """HTTP 429: the admission queue is full."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServerDraining(ServeClientError):
    """HTTP 503: the server is shutting down."""

    def __init__(self, message: str,
                 retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class JobNotFound(ServeClientError):
    """HTTP 404: no such job."""


class DeadlineExceeded(ServeClientError):
    """The retry policy's ``max_deadline`` elapsed before success."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and full jitter.

    ``delay(attempt)`` draws uniformly from ``[0, min(max_delay,
    base_delay * 2**(attempt - 1))]`` — *full jitter*, so many clients
    retrying after the same broker restart do not stampede it in
    lockstep.  A server-supplied ``Retry-After`` overrides the
    jittered draw (the server knows its own backlog better than we do),
    with only a small jitter added on top to de-synchronize.

    ``max_deadline`` is a hard wall-clock bound across *all* attempts
    of one logical operation; crossing it raises
    :class:`DeadlineExceeded` so a campaign wave pointed at a dead
    server fails loudly instead of hanging forever.
    """

    max_attempts: int = 8
    base_delay: float = 0.2
    max_delay: float = 10.0
    max_deadline: float = 300.0

    def delay(self, attempt: int, retry_after: float | None = None) -> float:
        """Seconds to sleep before retry number ``attempt`` (1-based)."""
        cap = min(self.max_delay, self.base_delay * (2 ** max(0, attempt - 1)))
        if retry_after is not None and retry_after > 0:
            return retry_after + random.uniform(0.0, self.base_delay)
        return random.uniform(0.0, cap)


#: Exceptions :meth:`ServeClient.run` retries under a policy.  404 is
#: included because job ids do not survive a broker restart —
#: resubmitting the content-addressed request is the recovery, not an
#: error.
RETRYABLE = (ConnectionFailed, ServerBusy, ServerDraining, JobNotFound)


class ServeClient:
    """Typed access to one ``repro serve`` API."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8321,
                 timeout: float = 60.0,
                 retry: RetryPolicy | None = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: None preserves the historical raise-on-first-failure
        #: behavior; a policy makes :meth:`run` retry.
        self.retry = retry
        #: Retries performed by :meth:`run` over this client's lifetime
        #: (campaign execution reports it).
        self.retries = 0

    # -- plumbing -----------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Mapping[str, Any] | None = None
                 ) -> tuple[int, Mapping[str, str], bytes]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            return (response.status,
                    {name.lower(): value
                     for name, value in response.getheaders()},
                    raw)
        except OSError as error:
            raise ConnectionFailed(
                f"cannot reach repro serve at {self.host}:{self.port}: "
                f"{error}"
            ) from None
        finally:
            connection.close()

    @staticmethod
    def _decode(raw: bytes) -> Any:
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServeClientError(
                f"server sent an unparseable body: {error}") from None

    def _raise_for_status(self, status: int, headers: Mapping[str, str],
                          raw: bytes) -> None:
        if 200 <= status < 300:
            return
        document = self._decode(raw)
        error = (document.get("error", {})
                 if isinstance(document, dict) else {})
        message = error.get("message", f"HTTP {status}")
        if status == 429:
            retry_after = float(
                error.get("retry_after_seconds",
                          headers.get("retry-after", 1)))
            raise ServerBusy(message, retry_after)
        if status == 503:
            retry_after = error.get("retry_after_seconds")
            if retry_after is None:
                retry_after = headers.get("retry-after")
            raise ServerDraining(
                message,
                float(retry_after) if retry_after is not None else None)
        if status == 404:
            raise JobNotFound(message)
        if status == 400:
            raise ProtocolError(message)
        raise ServeClientError(f"HTTP {status}: {message}")

    def _get_json(self, path: str) -> Any:
        status, headers, raw = self._request("GET", path)
        self._raise_for_status(status, headers, raw)
        return self._decode(raw)

    # -- endpoints ----------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """The ``/healthz`` body (includes the server's version)."""
        return self._get_json("/healthz")

    def ready(self) -> bool:
        """True while the server admits new work."""
        try:
            status, _, _ = self._request("GET", "/readyz")
        except ServeClientError:
            return False
        return status == 200

    def wait_until_ready(self, timeout: float = 30.0,
                         poll: float = 0.1) -> None:
        """Block until ``/readyz`` answers 200 (CI/loadgen startup)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.ready():
                return
            time.sleep(poll)
        raise ServeClientError(
            f"server at {self.host}:{self.port} not ready "
            f"after {timeout:.0f}s")

    def submit(self, request: SimulateRequest) -> JobView:
        """``POST /v1/simulate``; returns the (possibly terminal) job."""
        status, headers, raw = self._request(
            "POST", "/v1/simulate", body=request.to_dict())
        self._raise_for_status(status, headers, raw)
        return JobView.from_dict(self._decode(raw))

    def job(self, job_id: str) -> JobView:
        """``GET /v1/jobs/<id>``."""
        return JobView.from_dict(self._get_json(f"/v1/jobs/{job_id}"))

    def wait(self, job_id: str, timeout: float = 600.0,
             poll: float = 0.05) -> JobView:
        """Poll one job until it is terminal."""
        deadline = time.monotonic() + timeout
        while True:
            view = self.job(job_id)
            if view.status.terminal:
                return view
            if time.monotonic() >= deadline:
                raise ServeClientError(
                    f"job {job_id} still {view.status.value} "
                    f"after {timeout:.0f}s")
            time.sleep(poll)

    def run(self, request: SimulateRequest,
            timeout: float = 600.0, poll: float = 0.05) -> JobView:
        """Submit and wait: the one-call equivalent of ``repro run``.

        Without a :class:`RetryPolicy` this raises on the first failure
        (historical behavior, relied on by backpressure tests).  With
        one, connection errors, 429, 503, and mid-poll 404 (broker
        restart: the recovered broker knows the work but not the old
        job id) are retried with backoff+jitter until ``max_attempts``
        or the policy deadline — whichever comes first.
        """
        if self.retry is None:
            view = self.submit(request)
            if view.status.terminal:
                return view
            return self.wait(view.job_id, timeout=timeout)

        policy = self.retry
        deadline = time.monotonic() + min(timeout, policy.max_deadline)
        failures = 0
        while True:
            try:
                view = self.submit(request)
                while not view.status.terminal:
                    if time.monotonic() >= deadline:
                        raise DeadlineExceeded(
                            f"job {view.job_id} still "
                            f"{view.status.value} at the retry deadline")
                    time.sleep(poll)
                    view = self.job(view.job_id)
                return view
            except RETRYABLE as error:
                failures += 1
                self._pause(policy, failures, deadline, error)

    def _pause(self, policy: RetryPolicy, failures: int, deadline: float,
               error: ServeClientError) -> None:
        """Sleep before the next attempt, or give up loudly."""
        if failures >= policy.max_attempts:
            raise ServeClientError(
                f"gave up after {failures} attempt(s): {error}"
            ) from error
        delay = policy.delay(failures, getattr(error, "retry_after", None))
        if time.monotonic() + delay >= deadline:
            raise DeadlineExceeded(
                f"retry deadline ({policy.max_deadline:.0f}s) would be "
                f"exceeded waiting out: {error}"
            ) from error
        self.retries += 1
        time.sleep(delay)

    def metrics_text(self) -> str:
        """The raw Prometheus exposition of ``/metrics``."""
        status, headers, raw = self._request("GET", "/metrics")
        self._raise_for_status(status, headers, raw)
        return raw.decode("utf-8")

    def stream_events(self, job_id: str,
                      timeout: float = 600.0) -> Iterator[dict[str, Any]]:
        """``GET /v1/jobs/<id>/events``: yield parsed SSE frames.

        Terminates after the ``terminal`` event (or raises on timeout).
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout)
        try:
            connection.request("GET", f"/v1/jobs/{job_id}/events")
            response = connection.getresponse()
            if response.status != 200:
                raw = response.read()
                self._raise_for_status(
                    response.status,
                    {name.lower(): value
                     for name, value in response.getheaders()},
                    raw)
            name = None
            while True:
                line = response.readline()
                if not line:
                    return
                text = line.decode("utf-8").rstrip("\n")
                if text.startswith("event: "):
                    name = text[len("event: "):]
                elif text.startswith("data: "):
                    payload = json.loads(text[len("data: "):])
                    payload["_event"] = name or "message"
                    yield payload
                    if name == "terminal":
                        return
        finally:
            connection.close()


def check_status(status: JobStatus | str) -> JobStatus:
    """Coerce a status string into :class:`JobStatus` (client helpers)."""
    if isinstance(status, JobStatus):
        return status
    return JobStatus(status)
