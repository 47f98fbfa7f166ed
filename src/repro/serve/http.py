"""A stdlib-only asyncio HTTP/1.1 front end for the broker.

No web framework: requests are parsed off an ``asyncio`` stream reader
(request line, headers, ``Content-Length`` body) and every response is
written with ``Connection: close`` — one request per connection keeps
the parser trivial and is plenty for a simulation service whose jobs
run for milliseconds to minutes.

Routes::

    POST /v1/simulate            admit one job (202; 200 if already done)
    GET  /v1/jobs/<id>           poll one job
    GET  /v1/jobs/<id>/events    Server-Sent Events progress stream
    GET  /healthz                liveness + package version
    GET  /readyz                 200 while admitting, 503 while draining
    GET  /metrics                Prometheus text (obs + broker stats)

Error mapping: protocol/validation failures are 400, unknown jobs 404,
admission overflow 429 with ``Retry-After``, drain 503.

:func:`run_server` wires SIGTERM/SIGINT to a graceful drain — stop
admitting, finish in-flight jobs, flush telemetry, exit 0 — and
:class:`ThreadedServer` runs the same stack on a background thread for
tests and the in-process load-generator path.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
from typing import Any, Mapping

from repro import obs
from repro.common.errors import ReproError
from repro.obs.prometheus import render_prometheus
from repro.serve.broker import (
    AdmissionFull,
    Broker,
    Draining,
    ServeJob,
    UnknownJob,
)
from repro.serve.protocol import (
    ProtocolError,
    SimulateRequest,
    dumps,
    error_body,
    loads,
)

#: Largest accepted request body (a simulate request is < 1 KB).
MAX_BODY_BYTES = 1 << 20
#: Largest accepted header section.
MAX_HEADER_LINES = 64

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpParseError(Exception):
    """A request violated the HTTP framing; carries the error response."""

    def __init__(self, status: int, body: Mapping[str, Any]) -> None:
        super().__init__(body.get("error", {}).get("message", "bad request"))
        self.status = status
        self.body = body


async def read_http_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one request off a stream: ``(method, path, headers, body)``.

    Returns ``None`` for an empty connection (client connected and went
    away) and raises :class:`HttpParseError` on malformed framing.
    """
    request_line = (await reader.readline()).decode("latin-1").strip()
    if not request_line:
        return None
    parts = request_line.split()
    if len(parts) != 3:
        raise HttpParseError(400, error_body(
            "protocol", f"malformed request line {request_line!r}"))
    method, target, _ = parts
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES):
        line = (await reader.readline()).decode("latin-1")
        if line in ("\r\n", "\n", ""):
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpParseError(400, error_body(
            "protocol", "too many request headers"))

    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            size = int(length)
        except ValueError:
            raise HttpParseError(400, error_body(
                "protocol", f"bad Content-Length {length!r}")) from None
        if size > MAX_BODY_BYTES:
            raise HttpParseError(413, error_body(
                "protocol", f"body of {size} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"))
        body = await reader.readexactly(size)

    return method, target.split("?", 1)[0], headers, body


async def write_raw(writer: asyncio.StreamWriter, status: int,
                    payload: bytes, content_type: str,
                    extra_headers: Mapping[str, str] | None = None) -> None:
    """Write one complete ``Connection: close`` response."""
    reason = _STATUS_TEXT.get(status, "Unknown")
    head = [f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            "Connection: close"]
    for name, value in (extra_headers or {}).items():
        head.append(f"{name}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
    writer.write(payload)
    await writer.drain()


async def write_json(writer: asyncio.StreamWriter, status: int,
                     document: Mapping[str, Any],
                     extra_headers: Mapping[str, str] | None = None) -> None:
    """Write one JSON response (the canonical body encoding)."""
    await write_raw(writer, status, dumps(document), "application/json",
                    extra_headers)


class HttpServer:
    """The asyncio server: one handler coroutine per connection."""

    def __init__(self, broker: Broker, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.broker = broker
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        """Bind and start serving; ``self.port`` holds the bound port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            await self._handle_one(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as error:  # defensive: a handler bug is a 500
            try:
                await self._respond(writer, 500, error_body(
                    "internal", f"unhandled server error: {error}"))
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _handle_one(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        try:
            parsed = await read_http_request(reader)
        except HttpParseError as error:
            await self._respond(writer, error.status, error.body)
            return
        if parsed is None:
            return
        method, path, _headers, body = parsed
        await self._route(writer, method, path, body)

    async def _route(self, writer: asyncio.StreamWriter, method: str,
                     path: str, body: bytes) -> None:
        if path == "/healthz" and method == "GET":
            await self._handle_healthz(writer)
        elif path == "/readyz" and method == "GET":
            await self._handle_readyz(writer)
        elif path == "/metrics" and method == "GET":
            await self._handle_metrics(writer)
        elif path == "/v1/simulate" and method == "POST":
            await self._handle_simulate(writer, body)
        elif path.startswith("/v1/jobs/") and method == "GET":
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                await self._handle_events(writer, rest[:-len("/events")])
            else:
                await self._handle_job(writer, rest)
        else:
            status = 405 if path in ("/v1/simulate", "/healthz", "/readyz",
                                     "/metrics") else 404
            await self._respond(writer, status, error_body(
                "routing", f"no route for {method} {path}"))

    # -- endpoints ----------------------------------------------------------

    async def _handle_healthz(self, writer: asyncio.StreamWriter) -> None:
        import repro

        await self._respond(writer, 200, {
            "status": "ok",
            "version": repro.__version__,
            "draining": self.broker.draining,
            "pending_jobs": self.broker.metrics()["gauges"][
                "serve.pending_jobs"],
        })

    async def _handle_readyz(self, writer: asyncio.StreamWriter) -> None:
        if self.broker.draining:
            await self._respond(writer, 503, error_body(
                "draining", "server is draining"))
        else:
            await self._respond(writer, 200, {"status": "ready"})

    async def _handle_metrics(self, writer: asyncio.StreamWriter) -> None:
        stats = self.broker.metrics()
        text = render_prometheus(
            obs.snapshot(),
            counters=stats["counters"],
            gauges=stats["gauges"],
        )
        await self._respond_raw(writer, 200, text.encode("utf-8"),
                                "text/plain; version=0.0.4")

    async def _handle_simulate(self, writer: asyncio.StreamWriter,
                               body: bytes) -> None:
        try:
            request = SimulateRequest.from_dict(loads(body))
            job, deduplicated = self.broker.submit(request)
        except AdmissionFull as error:
            await self._respond(
                writer, 429,
                error_body("admission-full", str(error),
                           retry_after=error.retry_after),
                extra_headers={"Retry-After":
                               str(max(1, int(error.retry_after)))},
            )
            return
        except Draining as error:
            await self._respond(writer, 503,
                                error_body("draining", str(error)))
            return
        except ReproError as error:
            # ProtocolError, unknown workload/prefetcher, bad config.
            await self._respond(writer, 400, error_body(
                type(error).__name__, str(error)))
            return
        status = 200 if job.status.terminal else 202
        await self._respond(writer, status,
                            job.view(deduplicated=deduplicated).to_dict())

    async def _handle_job(self, writer: asyncio.StreamWriter,
                          job_id: str) -> None:
        try:
            job = self.broker.job(job_id)
        except UnknownJob as error:
            await self._respond(writer, 404,
                                error_body("unknown-job", str(error)))
            return
        await self._respond(writer, 200, job.view().to_dict())

    async def _handle_events(self, writer: asyncio.StreamWriter,
                             job_id: str) -> None:
        try:
            job = self.broker.job(job_id)
        except UnknownJob as error:
            await self._respond(writer, 404,
                                error_body("unknown-job", str(error)))
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        queue = self.broker.subscribe(job)
        try:
            # Replay history, then follow live until the job is terminal.
            for event in list(job.events):
                await self._send_event(writer, job, event)
            if job.status.terminal:
                return
            while True:
                event = await queue.get()
                await self._send_event(writer, job, event)
                if event.get("event") == "terminal":
                    return
        finally:
            self.broker.unsubscribe(job, queue)

    async def _send_event(self, writer: asyncio.StreamWriter, job: ServeJob,
                          event: Mapping[str, Any]) -> None:
        name = str(event.get("event", "message"))
        payload = dict(event)
        if name == "terminal":
            payload["job"] = job.view().to_dict()
        data = json.dumps(payload, sort_keys=True)
        writer.write(f"event: {name}\ndata: {data}\n\n".encode("utf-8"))
        await writer.drain()

    # -- response plumbing --------------------------------------------------

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       document: Mapping[str, Any],
                       extra_headers: Mapping[str, str] | None = None
                       ) -> None:
        await write_json(writer, status, document, extra_headers)

    async def _respond_raw(self, writer: asyncio.StreamWriter, status: int,
                           payload: bytes, content_type: str,
                           extra_headers: Mapping[str, str] | None = None
                           ) -> None:
        await write_raw(writer, status, payload, content_type,
                        extra_headers)


async def run_server(
    *,
    host: str = "127.0.0.1",
    port: int = 8321,
    announce=print,
    ready_event: "threading.Event | None" = None,
    stop_event: "asyncio.Event | None" = None,
    **broker_kwargs: Any,
) -> int:
    """Run broker + HTTP server until SIGTERM/SIGINT, then drain.

    Returns the process exit code (0 after a clean drain).  ``announce``
    receives human-readable startup/drain lines; ``ready_event`` (a
    *threading* event) is set once the port is bound so embedding
    callers can synchronize; ``stop_event`` substitutes for signals
    where signal handlers are unavailable (background threads, tests).
    """
    obs_was_enabled = obs.enabled()
    obs.enable()
    broker = Broker(**broker_kwargs)
    server = HttpServer(broker, host, port)
    await broker.start()
    await server.start()

    if stop_event is None:
        stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: list[signal.Signals] = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop_event.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):
            # Non-main thread or unsupported platform: stop_event only.
            pass

    announce(f"repro serve: listening on http://{host}:{server.port} "
             f"(workers={broker.workers}, max_pending={broker.max_pending})")
    if ready_event is not None:
        ready_event.set()
    try:
        await stop_event.wait()
        announce("repro serve: draining (finishing in-flight jobs)")
        await broker.drain()
        await server.stop()
        announce("repro serve: drained cleanly")
        return 0
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        if not obs_was_enabled:
            obs.disable()


class ThreadedServer:
    """The full serve stack on a background thread (tests, loadgen).

    Usage::

        with ThreadedServer(workers=1, cache_dir=tmp) as server:
            client = ServeClient(port=server.port)
            ...

    Exiting the context performs the same graceful drain as SIGTERM.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 **broker_kwargs: Any) -> None:
        self.host = host
        self.port = port
        self.exit_code: int | None = None
        self._broker_kwargs = broker_kwargs
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._server_box: list[HttpServer] = []
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve", daemon=True)

    def _run(self) -> None:
        async def main() -> int:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            return await run_server(
                host=self.host,
                port=self.port,
                announce=self._capture_announce,
                ready_event=self._ready,
                stop_event=self._stop,
                **self._broker_kwargs,
            )

        self.exit_code = asyncio.run(main())

    def _capture_announce(self, line: str) -> None:
        marker = "listening on http://"
        if marker in line:
            address = line.split(marker, 1)[1].split()[0]
            self.port = int(address.rsplit(":", 1)[1])

    def start(self, timeout: float = 30.0) -> "ThreadedServer":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ReproError("threaded serve stack failed to start")
        return self

    def stop(self, timeout: float = 60.0) -> int:
        """Drain gracefully and join the server thread."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise ReproError("threaded serve stack did not drain in time")
        return self.exit_code if self.exit_code is not None else 1

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def main_serve(args: Any) -> int:
    """``repro serve`` entry point (driven by :mod:`repro.cli`)."""
    import os

    workers = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    try:
        return asyncio.run(run_server(
            host=args.host,
            port=args.port,
            workers=workers,
            cache_dir=args.cache_dir,
            max_pending=args.max_pending,
            batch_window=args.batch_window,
            batch_max=args.batch_max,
            task_timeout=args.timeout,
            recover=not getattr(args, "no_recover", False),
        ))
    except KeyboardInterrupt:  # SIGINT before the handler was installed
        print("repro serve: interrupted before drain", file=sys.stderr)
        return 130
