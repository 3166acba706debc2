"""An asyncio HTTP/JSON front over a serving tier: versioned read + write API.

The replication tier answers in-process calls; real clients arrive over
the network.  :class:`HTTPServingFront` puts a minimal HTTP/1.1 endpoint
(stdlib ``asyncio.start_server`` — no new dependencies) in front of any
target exposing ``topk_batch``, and — when the target also exposes
``submit`` — a write path feeding its idempotent delta queue.

All endpoints live under a versioned ``/v1`` prefix:

* ``POST /v1/topk`` — body ``{"vector": [...], "k": 10, "category":
  null, "min_version": null}`` → ``{"version": N, "results":
  [[category, text, score], ...]}``.  ``min_version`` is the
  read-your-writes knob: pass a resolved
  :attr:`~repro.serving.runtime.UpdateTicket.version` and the answering
  replica is at-or-past that log position.
* ``POST /v1/submit`` — body ``{"submission_id": "...", "delta":
  {...}}`` with the delta in :meth:`~repro.db.delta.DatabaseDelta.to_dict`
  wire form → ``{"version": N, "submission_id": "..."}`` once the write
  is applied and replicated.  ``submission_id`` is the idempotency key:
  a retried POST (same id) applies exactly once and returns the original
  version.
* ``GET /v1/health`` — liveness + the target's published version; HTTP
  503 (body unchanged) once the target latches ``degraded`` or
  ``write_degraded``, so a load balancer can eject the front without
  parsing JSON.
* ``GET /v1/stats`` — front counters plus the target's own stats.

The unversioned ``/topk``, ``/health`` and ``/stats`` paths from the
first iteration of this front remain as deprecated aliases: same
handlers, plus a ``Deprecation`` header and a ``Link`` to the successor
route.  Their *error* bodies keep the original flat ``{"error":
"message"}`` shape — frozen for old clients — while ``/v1`` errors use
one envelope across every status::

    {"error": {"code": "rate_limited", "message": "...", "retry_after": 1}}

``auth_tokens`` arms bearer-token auth with per-token scopes (``read``
guards /v1/topk and /v1/stats, ``write`` guards /v1/submit): a missing
or unknown token is 401, a known token without the needed scope is 403,
and health is never gated — the balancer probing a front must not need
credentials.  ``ssl_context`` wraps the listener in TLS.

Concurrent reads are coalesced by the same
:class:`~repro.serving.batching.BatchingCore` as
:class:`~repro.serving.runtime.BatchedQueryFront`: a read that finds no
dispatch in flight goes to the target at once; reads arriving while one
is in flight are grouped by ``(k, category)`` and dispatched together
when it returns (or at ``max_batch``, or after ``window_seconds``), as
one ``topk_batch`` call on an executor thread (the event loop never
blocks on the index or the solver).  Per-client token buckets (reusing
:class:`~repro.serving.runtime.RateLimiter`) reject over-budget callers
with ``429`` *before* their request joins a batch or the write queue —
one hot client degrades itself, not the pool.

The server runs on a dedicated thread with its own event loop, so it
composes with the synchronous tiers and tests without an async caller.
A front also serves sockets accepted elsewhere
(:meth:`~HTTPServingFront.adopt`), which is how a
:class:`~repro.serving.multifront.MultiFrontDeployment` balancer hands
it connections; TLS and keep-alive end at the front.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import ssl as ssl_module
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.db.delta import DatabaseDelta
from repro.errors import (
    BackpressureError,
    ExtractionError,
    IntegrityError,
    SchemaError,
    ServingError,
    WriteDegradedError,
)
from repro.serving.batching import BatchingCore
from repro.serving.runtime import RateLimiter
from repro.util import EventLog, faults

_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Machine-readable ``error.code`` for each status in the /v1 envelope.
_ERROR_CODES = {
    400: "invalid_request",
    401: "unauthenticated",
    403: "forbidden",
    404: "not_found",
    405: "method_not_allowed",
    413: "payload_too_large",
    429: "rate_limited",
    500: "internal",
    501: "not_supported",
    503: "degraded",
    504: "timeout",
}

#: Deprecated unversioned path → its /v1 successor.
_LEGACY_ALIASES = {
    "/topk": "/v1/topk",
    "/health": "/v1/health",
    "/stats": "/v1/stats",
}

#: Upper bound on ``k`` accepted over the wire — a malicious ``k`` must
#: not size a response (or an index scan) arbitrarily.
_MAX_K = 1000

#: Upper bound on the idempotency key length — it is stored verbatim in
#: the queue's dedup window.
_MAX_SUBMISSION_ID = 200


class _BadRequest(Exception):
    """A request error mapped to an HTTP status (default 400)."""

    def __init__(
        self,
        message: str,
        status: int = 400,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


@dataclass(frozen=True)
class HTTPFrontStats:
    """Counters of one :class:`HTTPServingFront`."""

    requests: int
    rate_limited: int
    batches_dispatched: int
    largest_batch: int
    read_timeouts: int = 0
    drained_clean: bool | None = None
    submits: int = 0
    submit_rejected: int = 0
    auth_failures: int = 0
    #: reads that reached a batch; ``requests`` also counts rejected ones
    requests_dispatched: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average number of /topk requests served per index query."""
        if not self.batches_dispatched:
            return 0.0
        return self.requests_dispatched / self.batches_dispatched


class HTTPServingFront:
    """HTTP/JSON serving (top-k reads + delta writes) over a tier.

    ``target`` is typically a started
    :class:`~repro.serving.replicated.ReplicatedServingTier` (whose
    ``topk_batch_versioned`` supplies the answered version and honours
    ``min_version`` routing, and whose ``submit`` backs /v1/submit); a
    :class:`~repro.serving.runtime.ServingRuntime` or bare
    :class:`~repro.serving.session.ServingSession` also works —
    ``min_version`` is then ignored and the reported version is the
    target's ``published_version``.  A target without ``submit`` answers
    /v1/submit with 501.

    ``rate_per_second`` (with optional ``burst``) arms one token bucket
    *per client*, keyed by the ``X-Client-Id`` header when present, else
    the peer address; reads and writes share the client's bucket.
    ``auth_tokens`` maps bearer tokens to their scopes (``"read"``,
    ``"write"``, or any iterable of those); ``None`` disables auth.
    ``ssl_context`` serves TLS.  ``port=0`` binds an ephemeral port;
    read :attr:`port` after :meth:`start`.

    A read that finds no batch in flight is dispatched at once;
    ``window_seconds`` is the longest a read waits behind a busy target
    to share a batch, and ``max_batch`` caps a batch
    (:class:`~repro.serving.batching.BatchingCore`).
    """

    def __init__(
        self,
        target,
        host: str = "127.0.0.1",
        port: int = 0,
        window_seconds: float = 0.002,
        max_batch: int = 64,
        rate_per_second: float | None = None,
        burst: int | None = None,
        max_body_bytes: int = 1 << 20,
        max_clients: int = 1024,
        read_timeout_seconds: float = 30.0,
        drain_seconds: float = 5.0,
        write_timeout_seconds: float = 60.0,
        auth_tokens: dict[str, object] | None = None,
        ssl_context: ssl_module.SSLContext | None = None,
        log_stream=None,
    ) -> None:
        self._batcher = BatchingCore(
            self._dispatch_batch, self._call_later, window_seconds, max_batch
        )
        self._target = target
        self._dimension = getattr(target, "dimension", None)
        self._host = host
        self._requested_port = int(port)
        self._rate_per_second = rate_per_second
        self._burst = burst
        self._max_body_bytes = int(max_body_bytes)
        self._max_clients = int(max_clients)
        self._read_timeout = float(read_timeout_seconds)
        self._drain_seconds = float(drain_seconds)
        self._write_timeout = float(write_timeout_seconds)
        self._auth = _normalize_tokens(auth_tokens)
        self._ssl_context = ssl_context
        self._events = EventLog("http", capacity=512, stream=log_stream)

        self.port: int | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._startup_error: BaseException | None = None
        self._connections: set[asyncio.Task] = set()
        self._busy: set[asyncio.Task] = set()
        self._draining = False
        self._drained_clean: bool | None = None
        # the limiter map is guarded by its own lock only because stats
        # read it from outside the event-loop thread
        self._limiters: dict[str, RateLimiter] = {}
        self._limiter_lock = threading.Lock()

        self._n_requests = 0
        self._n_rate_limited = 0
        self._n_read_timeouts = 0
        self._n_submits = 0
        self._n_submit_rejected = 0
        self._n_auth_failures = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "HTTPServingFront":
        """Bind the listener and start serving; idempotent."""
        if self._thread is not None and self._thread.is_alive():
            return self
        ready = threading.Event()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._run, args=(ready,), name="http-serving-front",
            daemon=True,
        )
        self._thread.start()
        if not ready.wait(timeout=30.0):
            raise ServingError("HTTP front did not come up within 30s")
        if self._startup_error is not None:
            raise ServingError(
                f"HTTP front failed to bind {self._host}:"
                f"{self._requested_port}: {self._startup_error}"
            )
        return self

    def close(self, timeout: float | None = 10.0) -> None:
        """Graceful shutdown: stop accepting, drain in-flight, then close.

        The listener closes immediately; requests already being processed
        get up to ``drain_seconds`` to finish (their responses carry
        ``Connection: close``); whatever is still open past the deadline
        — including idle keep-alive connections — is cancelled.
        """
        loop = self._loop
        if loop is not None and self._thread is not None and self._thread.is_alive():
            loop.call_soon_threadsafe(self._request_shutdown)
            self._thread.join(timeout)

    # ``stop`` is the tiers' shutdown verb; aliasing keeps callers uniform
    stop = close

    def adopt(self, sock) -> None:
        """Serve ``sock``, accepted elsewhere, like a connection to this
        front's own port; thread-safe.  A stopped front closes it."""
        loop = self._loop
        try:
            if loop is None or self._draining:
                raise RuntimeError("front is not serving")
            loop.call_soon_threadsafe(lambda: loop.create_task(self._adopt(sock)))
        except RuntimeError:  # also: the loop closed meanwhile
            sock.close()

    async def _adopt(self, sock) -> None:
        task = asyncio.current_task()
        self._connections.add(task)  # shutdown cancels a pending handshake
        try:
            await asyncio.get_running_loop().connect_accepted_socket(
                lambda: asyncio.StreamReaderProtocol(
                    asyncio.StreamReader(), self._handle_connection
                ),
                sock, ssl=self._ssl_context,
            )
        except (OSError, asyncio.CancelledError):
            sock.close()  # a failed TLS handshake or a reset peer
        finally:
            self._connections.discard(task)

    def _request_shutdown(self) -> None:
        if self._shutdown is not None:
            self._shutdown.set()

    def __enter__(self) -> "HTTPServingFront":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def address(self) -> str:
        """``http(s)://host:port`` once started."""
        if self.port is None:
            raise ServingError("HTTP front is not running — call start()")
        scheme = "https" if self._ssl_context is not None else "http"
        return f"{scheme}://{self._host}:{self.port}"

    def _run(self, ready: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._serve(ready))
        finally:
            asyncio.set_event_loop(None)
            loop.close()
            self._loop = None

    async def _serve(self, ready: threading.Event) -> None:
        self._shutdown = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_connection, self._host, self._requested_port,
                ssl=self._ssl_context,
            )
        except OSError as error:
            self._startup_error = error
            ready.set()
            return
        self.port = int(server.sockets[0].getsockname()[1])
        ready.set()
        try:
            await self._shutdown.wait()
        finally:
            # graceful drain: no new connections, pending batches flushed,
            # busy requests given drain_seconds to finish (idle keep-alive
            # connections do not hold the drain open), then hard-cancel
            self._draining = True
            server.close()
            await server.wait_closed()
            self._batcher.flush()
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self._drain_seconds
            while self._busy and loop.time() < deadline:
                await asyncio.sleep(0.005)
            self._drained_clean = not self._busy
            self._events.emit(
                "shutdown",
                drained_clean=self._drained_clean,
                cancelled_connections=len(self._connections),
            )
            for task in list(self._connections):
                task.cancel()
            if self._connections:
                await asyncio.gather(
                    *self._connections, return_exceptions=True
                )

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        peer = writer.get_extra_info("peername")
        peer_label = str(peer[0]) if peer else "unknown"
        if faults.should_drop("http.accept"):
            self._connections.discard(task)
            writer.close()
            return  # injected: the connection is dropped at accept
        try:
            while True:
                faults.fire("http.read", "before")
                try:
                    # a slow client may not dribble one request over more
                    # than read_timeout seconds (slow-loris protection);
                    # the same clock bounds idle keep-alive connections
                    request = await asyncio.wait_for(
                        self._read_request(reader), self._read_timeout
                    )
                except asyncio.TimeoutError:
                    self._n_read_timeouts += 1
                    self._events.emit("read_timeout", client=peer_label)
                    return
                except _BadRequest as error:
                    # framing failed before the route is known: answer in
                    # the /v1 envelope — legacy parity only covers routed
                    # requests
                    await self._respond(
                        writer, error.status,
                        _error_body(False, error.status, str(error)),
                        False,
                    )
                    return
                if request is None:
                    return  # client closed the connection
                method, path, http_version, headers, body = request
                keep_alive = (
                    headers.get("connection", "").lower() != "close"
                    and http_version != "HTTP/1.0"
                    and not self._draining  # drain: finish, then close
                )
                started = time.perf_counter()
                self._busy.add(task)
                try:
                    status, payload, extra = await self._dispatch(
                        method, path, headers, body, writer
                    )
                    # logged before the first response byte is written: a
                    # client that has read its answer finds the event
                    self._events.emit(
                        "access",
                        client=headers.get("x-client-id", peer_label),
                        method=method,
                        path=path,
                        status=status,
                        ms=round((time.perf_counter() - started) * 1000.0, 3),
                    )
                    await self._respond(
                        writer, status, payload, keep_alive, extra
                    )
                finally:
                    self._busy.discard(task)
                if not keep_alive:
                    return
        except (
            asyncio.CancelledError, asyncio.IncompleteReadError,
            ConnectionError, faults.FaultInjected,
        ):
            pass
        finally:
            self._busy.discard(task)
            writer.close()
            try:
                # bounded: a TLS peer that never answers close_notify must
                # not pin this task (and the drain gather) open forever;
                # the task stays in _connections until the transport is
                # down so shutdown's cancel sweep always covers it
                await asyncio.wait_for(writer.wait_closed(), 5.0)
            except (ConnectionError, asyncio.CancelledError, TimeoutError):
                pass
            finally:
                self._connections.discard(task)

    async def _read_request(self, reader):
        try:
            request_line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError) as error:
            raise _BadRequest(f"request line too long: {error}", 413) from None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _BadRequest("malformed HTTP request line")
        method, path, http_version = parts
        headers: dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError) as error:
                raise _BadRequest(f"header too long: {error}", 413) from None
            if line in (b"\r\n", b"\n", b""):
                break
            name, separator, value = line.decode("latin-1").partition(":")
            if not separator:
                raise _BadRequest(f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _BadRequest("malformed Content-Length header") from None
        if length < 0 or length > self._max_body_bytes:
            raise _BadRequest(
                f"request body of {length} bytes exceeds the "
                f"{self._max_body_bytes}-byte limit", 413,
            )
        body = await reader.readexactly(length) if length else b""
        return method, path, http_version, headers, body

    async def _respond(
        self,
        writer,
        status: int,
        payload,
        keep_alive: bool,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        faults.fire("http.write", "before")
        body = json.dumps(payload).encode("utf-8")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n"
        )
        extra_headers = extra_headers or {}
        if status == 429 and "Retry-After" not in extra_headers:
            head += "Retry-After: 1\r\n"
        for name, value in extra_headers.items():
            head += f"{name}: {value}\r\n"
        writer.write(head.encode("latin-1") + b"\r\n" + body)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    async def _dispatch(self, method, path, headers, body, writer):
        legacy = path in _LEGACY_ALIASES
        canonical = _LEGACY_ALIASES.get(path, path)
        extra: dict[str, str] = {}
        if legacy:
            # RFC 8594/9745-style deprecation signalling on the old paths
            extra["Deprecation"] = "true"
            extra["Link"] = f'<{canonical}>; rel="successor-version"'
        if canonical == "/v1/topk":
            if method != "POST":
                return 405, self._method_error(legacy, "POST", path), extra
            denied = self._authorize(headers, "read", legacy)
            if denied is not None:
                status, payload, auth_extra = denied
                return status, payload, {**extra, **auth_extra}
            status, payload = await self._handle_topk(
                headers, body, writer, legacy
            )
            return status, payload, extra
        if canonical == "/v1/submit":
            if method != "POST":
                return 405, self._method_error(legacy, "POST", path), extra
            denied = self._authorize(headers, "write", legacy)
            if denied is not None:
                status, payload, auth_extra = denied
                return status, payload, {**extra, **auth_extra}
            return await self._handle_submit(headers, body, writer, legacy)
        if canonical == "/v1/health":
            # never auth-gated: the balancer's probe carries no token
            if method != "GET":
                return 405, self._method_error(legacy, "GET", path), extra
            loop = asyncio.get_running_loop()
            payload = await loop.run_in_executor(None, self._health_payload)
            status = 200 if payload.get("status") == "ok" else 503
            return status, payload, extra
        if canonical == "/v1/stats":
            if method != "GET":
                return 405, self._method_error(legacy, "GET", path), extra
            denied = self._authorize(headers, "read", legacy)
            if denied is not None:
                status, payload, auth_extra = denied
                return status, payload, {**extra, **auth_extra}
            loop = asyncio.get_running_loop()
            payload = await loop.run_in_executor(None, self._stats_payload)
            return 200, payload, extra
        return 404, _error_body(legacy, 404, f"unknown path {path!r}"), extra

    def _method_error(self, legacy: bool, verb: str, path: str):
        # the legacy 405 body is frozen: exactly "<VERB> <legacy-path>"
        return _error_body(legacy, 405, f"{verb} {path}")

    def _authorize(self, headers, scope: str, legacy: bool):
        """``None`` when admitted, else ``(status, payload, headers)``."""
        if self._auth is None:
            return None
        header = headers.get("authorization", "")
        scheme, _, token = header.partition(" ")
        token = token.strip()
        if scheme.lower() != "bearer" or not token or token not in self._auth:
            self._n_auth_failures += 1
            return (
                401,
                _error_body(legacy, 401, "missing or unknown bearer token"),
                {"WWW-Authenticate": "Bearer"},
            )
        if scope not in self._auth[token]:
            self._n_auth_failures += 1
            return (
                403,
                _error_body(
                    legacy, 403, f"token lacks the {scope!r} scope"
                ),
                {},
            )
        return None

    def _health_payload(self):
        snapshot = getattr(self._target, "health_snapshot", None)
        if callable(snapshot):
            return dict(snapshot())
        degraded = bool(getattr(self._target, "write_degraded", False)) or bool(
            getattr(self._target, "degraded", False)
        )
        payload = {
            "status": "degraded" if degraded else "ok",
            "version": int(getattr(self._target, "published_version", 0)),
        }
        live = getattr(self._target, "live_followers", None)
        if live is not None:
            payload["live_followers"] = int(live)
        return payload

    def _stats_payload(self):
        payload = {"front": dataclasses.asdict(self.stats)}
        target_stats = getattr(self._target, "stats", None)
        if dataclasses.is_dataclass(target_stats):
            payload["target"] = dataclasses.asdict(target_stats)
        elif isinstance(target_stats, dict):
            payload["target"] = target_stats
        payload["events"] = self._events.tail(50)
        recent = getattr(self._target, "recent_events", None)
        if callable(recent):
            payload["target_events"] = recent(50)
        # a deployment front's target can aggregate the whole deployment
        aggregate = getattr(self._target, "deployment_stats", None)
        if callable(aggregate):
            try:
                payload["deployment"] = aggregate()
            except ServingError as error:
                payload["deployment"] = {"error": str(error)}
        return payload

    def _client_label(self, headers, writer) -> str:
        client = headers.get("x-client-id")
        if not client:
            peer = writer.get_extra_info("peername")
            client = str(peer[0]) if peer else "unknown"
        return client

    # ------------------------------------------------------------------ #
    # read path
    # ------------------------------------------------------------------ #
    async def _handle_topk(self, headers, body, writer, legacy: bool):
        self._n_requests += 1
        client = self._client_label(headers, writer)
        if not self._admit(client):
            self._n_rate_limited += 1
            return 429, _error_body(
                legacy, 429,
                f"rate limit exceeded for client {client!r}",
                retry_after=1.0,
            )
        try:
            vector, k, category, min_version = self._parse_topk(body)
        except _BadRequest as error:
            return error.status, _error_body(legacy, error.status, str(error))
        try:
            version, results = await self._submit_query(
                vector, k, category, min_version
            )
        except ExtractionError as error:
            return 400, _error_body(legacy, 400, str(error))
        except Exception as error:  # noqa: BLE001 - surfaced to the client
            return 500, _error_body(
                legacy, 500, f"{type(error).__name__}: {error}"
            )
        return 200, {"version": version, "results": results}

    def _admit(self, client: str) -> bool:
        if self._rate_per_second is None:
            return True
        with self._limiter_lock:
            limiter = self._limiters.get(client)
            if limiter is None:
                # bound the per-client map: evict the oldest entry (an
                # evicted-and-returning client merely gets a fresh bucket)
                if len(self._limiters) >= self._max_clients:
                    self._limiters.pop(next(iter(self._limiters)))
                limiter = RateLimiter(self._rate_per_second, burst=self._burst)
                self._limiters[client] = limiter
        return limiter.try_acquire()

    def _parse_topk(self, body: bytes):
        payload = _parse_json_object(body)
        raw_vector = payload.get("vector")
        if not isinstance(raw_vector, list) or not raw_vector:
            raise _BadRequest('"vector" must be a non-empty array of numbers')
        try:
            vector = np.asarray(raw_vector, dtype=np.float64)
        except (TypeError, ValueError) as error:
            raise _BadRequest(f'malformed "vector": {error}') from None
        if vector.ndim != 1 or not np.all(np.isfinite(vector)):
            raise _BadRequest('"vector" must be a flat array of finite numbers')
        if self._dimension is not None and vector.shape != (self._dimension,):
            raise _BadRequest(
                f'"vector" has {vector.shape[0]} entries, the served '
                f"embeddings have dimension {self._dimension}"
            )
        k = payload.get("k", 10)
        if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= _MAX_K:
            raise _BadRequest(f'"k" must be an integer in 1..{_MAX_K}')
        category = payload.get("category")
        if category is not None and not isinstance(category, str):
            raise _BadRequest('"category" must be a string or null')
        min_version = payload.get("min_version")
        if min_version is not None and (
            not isinstance(min_version, int) or isinstance(min_version, bool)
        ):
            raise _BadRequest('"min_version" must be an integer or null')
        return vector, k, category, min_version

    # ------------------------------------------------------------------ #
    # write path
    # ------------------------------------------------------------------ #
    async def _handle_submit(self, headers, body, writer, legacy: bool):
        extra: dict[str, str] = {}
        client = self._client_label(headers, writer)
        if not self._admit(client):
            self._n_rate_limited += 1
            return 429, _error_body(
                legacy, 429,
                f"rate limit exceeded for client {client!r}",
                retry_after=1.0,
            ), extra
        try:
            submission_id, delta = self._parse_submit(body)
        except _BadRequest as error:
            self._n_submit_rejected += 1
            return error.status, _error_body(
                legacy, error.status, str(error)
            ), extra
        loop = asyncio.get_running_loop()
        try:
            version = await loop.run_in_executor(
                None, self._execute_submit, delta, submission_id
            )
        except (SchemaError, IntegrityError) as error:
            # the applier validated the delta against the live schema and
            # rejected it — a client error even though it failed deep in
            # the pipeline
            self._n_submit_rejected += 1
            return 400, _error_body(legacy, 400, str(error)), extra
        except BackpressureError as error:
            self._n_submit_rejected += 1
            retry_after = max(1, int(np.ceil(error.retry_after)))
            extra["Retry-After"] = str(retry_after)
            return 429, _error_body(
                legacy, 429, str(error), retry_after=float(retry_after)
            ), extra
        except WriteDegradedError as error:
            self._n_submit_rejected += 1
            return 503, _error_body(legacy, 503, str(error)), extra
        except _BadRequest as error:
            self._n_submit_rejected += 1
            return error.status, _error_body(
                legacy, error.status, str(error), retry_after=error.retry_after
            ), extra
        except Exception as error:  # noqa: BLE001 - surfaced to the client
            self._n_submit_rejected += 1
            return 500, _error_body(
                legacy, 500, f"{type(error).__name__}: {error}"
            ), extra
        self._n_submits += 1
        return 200, {"version": version, "submission_id": submission_id}, extra

    def _parse_submit(self, body: bytes):
        payload = _parse_json_object(body)
        submission_id = payload.get("submission_id")
        if not isinstance(submission_id, str) or not submission_id:
            raise _BadRequest('"submission_id" must be a non-empty string')
        if len(submission_id) > _MAX_SUBMISSION_ID:
            raise _BadRequest(
                f'"submission_id" exceeds {_MAX_SUBMISSION_ID} characters'
            )
        raw_delta = payload.get("delta")
        if not isinstance(raw_delta, dict):
            raise _BadRequest('"delta" must be an object in to_dict() form')
        try:
            delta = DatabaseDelta.from_dict(raw_delta)
        except SchemaError as error:
            raise _BadRequest(f'malformed "delta": {error}') from None
        return submission_id, delta

    def _execute_submit(self, delta, submission_id: str) -> int:
        """Blocking submit + ticket wait, off the event loop; a wait that
        runs out on a pending write (:class:`TimeoutError`) is a 504."""
        target = self._target
        # a deployment front's target collapses submit and wait into one
        # round trip to the parent process
        waiter = getattr(target, "submit_and_wait", None)
        submit = getattr(target, "submit", None)
        if not callable(waiter) and not callable(submit):
            raise _BadRequest(
                "this front serves a read-only target — no write path", 501
            )
        try:
            if callable(waiter):
                return int(waiter(
                    delta, submission_id=submission_id, timeout=self._write_timeout
                ))
            ticket = submit(
                delta, timeout=self._write_timeout, submission_id=submission_id
            )
            return int(ticket.wait(self._write_timeout))
        except TimeoutError as error:
            raise _BadRequest(str(error), 504) from None

    # ------------------------------------------------------------------ #
    # batching (the policy lives in BatchingCore; every call below runs on
    # the event-loop thread)
    # ------------------------------------------------------------------ #
    async def _submit_query(self, vector, k, category, min_version):
        """Dispatch now if idle, else join the ``(k, category)`` bucket."""
        future = asyncio.get_running_loop().create_future()
        # the handler waits on every read it submits
        self._batcher.wait(
            self._batcher.submit((k, category), vector, min_version, future)
        )
        return await future

    def _call_later(self, delay: float, callback) -> None:
        self._loop.call_later(delay, callback)

    def _dispatch_batch(self, key, vectors, min_version, futures) -> None:
        k, category = key
        task = self._loop.run_in_executor(
            None, self._execute, vectors, k, category, min_version
        )

        def _distribute(done) -> None:
            try:
                version, results = done.result()
            except BaseException as error:  # noqa: BLE001 - per-future fanout
                for future in futures:
                    if not future.done():
                        future.set_exception(error)
            else:
                for future, result in zip(futures, results):
                    if not future.done():
                        future.set_result((version, result))
            finally:
                self._batcher.done()

        task.add_done_callback(_distribute)

    def _execute(self, vectors, k, category, min_version):
        """Blocking tier call, off the event loop (executor thread)."""
        vectors = np.stack(vectors)
        target = self._target
        if hasattr(target, "topk_batch_versioned"):
            version, results = target.topk_batch_versioned(
                vectors, k, category=category, min_version=min_version
            )
            return int(version), results
        results = target.topk_batch(vectors, k, category=category)
        return int(getattr(target, "published_version", 0)), results

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> HTTPFrontStats:
        """Request/batching counters of this front."""
        batches, dispatched, largest = self._batcher.counts()
        return HTTPFrontStats(
            requests=self._n_requests,
            rate_limited=self._n_rate_limited,
            batches_dispatched=batches,
            largest_batch=largest,
            read_timeouts=self._n_read_timeouts,
            drained_clean=self._drained_clean,
            submits=self._n_submits,
            submit_rejected=self._n_submit_rejected,
            auth_failures=self._n_auth_failures,
            requests_dispatched=dispatched,
        )

    def recent_events(self, n: int = 50) -> list[dict]:
        """The front's latest structured events (access log + lifecycle)."""
        return self._events.tail(n)


def _parse_json_object(body: bytes) -> dict:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise _BadRequest(f"body is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise _BadRequest("body must be a JSON object")
    return payload


def _error_body(
    legacy: bool,
    status: int,
    message: str,
    retry_after: float | None = None,
):
    """One error shape per API generation.

    /v1 answers the structured envelope; the legacy aliases keep the
    original flat string — that shape is a frozen contract with old
    clients (and the PR 7 parity tests).
    """
    if legacy:
        return {"error": message}
    entry: dict[str, object] = {
        "code": _ERROR_CODES.get(status, "error"),
        "message": message,
    }
    if retry_after is not None:
        entry["retry_after"] = retry_after
    return {"error": entry}


def _normalize_tokens(
    auth_tokens: dict[str, object] | None,
) -> dict[str, frozenset[str]] | None:
    if auth_tokens is None:
        return None
    normalized: dict[str, frozenset[str]] = {}
    for token, scopes in auth_tokens.items():
        if not isinstance(token, str) or not token:
            raise ServingError("auth tokens must be non-empty strings")
        if isinstance(scopes, str):
            scope_set = frozenset({scopes})
        else:
            scope_set = frozenset(str(scope) for scope in scopes)
        unknown = scope_set - {"read", "write"}
        if unknown:
            raise ServingError(
                f"unknown scopes {sorted(unknown)} for token {token!r} "
                "(valid: 'read', 'write')"
            )
        normalized[token] = scope_set
    return normalized
