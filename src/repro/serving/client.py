"""A stdlib HTTP client for the /v1 serving API.

:class:`ServingClient` is the reference consumer of
:class:`~repro.serving.http.HTTPServingFront` (or a
:class:`~repro.serving.multifront.MultiFrontDeployment` entry point):
``http.client`` only — a client program needs no more dependencies than
the server does.

Four behaviours make it production-shaped rather than a demo wrapper:

* **Keep-alive.**  The client keeps a small pool of idle HTTP/1.1
  connections (RFC 9112 §9.3) and reuses them, so a call pays no TCP
  handshake and, behind the deployment's balancer, no new hand-off of
  its connection to a front.  A response carrying ``Connection: close`` (a draining
  front, or HTTP/1.0) closes its connection.  A request that fails on a
  *reused* connection because the server had closed it
  (``RemoteDisconnected``, ``ConnectionResetError``,
  ``BrokenPipeError``) is re-sent once on a fresh connection, outside
  the retry policy: reads are idempotent and a write carries its
  submission id.  One client may be shared by several threads; each
  call holds its own connection, so the pool never holds more
  connections than the client ever had calls in flight at once.

* **Retries.**  Every call runs under a
  :class:`~repro.util.faults.RetryPolicy` (exponential backoff, full
  jitter).  Transport failures (connection refused/reset, torn
  responses) and transient statuses (429/502/503/504) retry; definite
  client errors (400/401/403/404) surface immediately as
  :class:`ServingAPIError`.
* **Idempotent resubmission.**  :meth:`submit` mints one submission id
  *before* the first attempt and reuses it across retries, so a write
  whose ack was lost on the wire is resubmitted under the same id and
  the server's dedup window applies it exactly once.
* **Read-your-writes.**  After a successful :meth:`submit` the client
  remembers the acked version and floors subsequent :meth:`topk` calls
  with it (``min_version``), so a reader that just wrote always sees
  its write — across fronts, because the floor travels with the
  request.  Pass ``read_your_writes=False`` (or an explicit
  ``min_version``) to opt out per-client or per-call.
"""

from __future__ import annotations

import http.client
import json
import ssl as ssl_module
import threading
import uuid

from repro.db.delta import DatabaseDelta
from repro.errors import ServingError
from repro.util.faults import RetryPolicy

#: Statuses worth retrying: admission control and transient unavailability.
_TRANSIENT_STATUSES = frozenset({429, 502, 503, 504})

#: How a reused connection fails when the server closed it while idle.
_STALE = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)


class ServingAPIError(ServingError):
    """A non-2xx answer from the serving API, parsed from the envelope."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(f"HTTP {status} [{code}]: {message}")
        self.status = int(status)
        self.code = code
        self.retry_after = retry_after


class TransientServingError(ServingAPIError):
    """A retryable API answer (429/502/503/504)."""


def _raise_for(status: int, body) -> ServingAPIError:
    detail = body.get("error") if isinstance(body, dict) else None
    if isinstance(detail, dict):
        code = str(detail.get("code", "error"))
        message = str(detail.get("message", ""))
        retry_after = detail.get("retry_after")
    else:
        # legacy flat shape (or a non-JSON error page)
        code = "error"
        message = str(detail if detail is not None else body)
        retry_after = None
    cls = TransientServingError if status in _TRANSIENT_STATUSES else ServingAPIError
    return cls(status, code, message, retry_after=retry_after)


class ServingClient:
    """Call a serving front (or multi-front deployment) over HTTP.

    ``address`` is the server's base URL (``http://host:port`` or
    ``https://...``); ``token`` arms bearer auth; ``client_id`` names
    this caller for the server's per-client rate buckets; ``ssl_context``
    verifies (or pins) the server certificate for ``https`` addresses.
    :meth:`close` (or leaving a ``with`` block) closes the idle
    connections.
    """

    def __init__(
        self,
        address: str,
        token: str | None = None,
        client_id: str | None = None,
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        ssl_context: ssl_module.SSLContext | None = None,
        read_your_writes: bool = True,
    ) -> None:
        scheme, _, rest = address.rstrip("/").partition("://")
        if scheme not in ("http", "https") or not rest:
            raise ServingError(
                f"address {address!r} is not an http:// or https:// URL"
            )
        self._https = scheme == "https"
        self._netloc, slash, prefix = rest.partition("/")
        self._prefix = slash + prefix
        self._headers = {"Content-Type": "application/json"}
        if token is not None:
            self._headers["Authorization"] = f"Bearer {token}"
        if client_id is not None:
            self._headers["X-Client-Id"] = client_id
        self._timeout = float(timeout)
        self._retry = retry if retry is not None else RetryPolicy()
        self._ssl_context = ssl_context
        self._read_your_writes = bool(read_your_writes)
        self._last_write_version: int | None = None
        self._lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []

    # ------------------------------------------------------------------ #
    # API surface
    # ------------------------------------------------------------------ #
    @property
    def last_write_version(self) -> int | None:
        """The newest version this client's own writes were acked at."""
        return self._last_write_version

    def topk(
        self,
        vector,
        k: int = 10,
        category: str | None = None,
        min_version: int | None = None,
    ) -> dict:
        """``POST /v1/topk`` → ``{"version": N, "results": [...]}``.

        When this client has written and ``read_your_writes`` is on, the
        request is floored at the last acked write version unless an
        explicit ``min_version`` overrides it.
        """
        if min_version is None and self._read_your_writes:
            min_version = self._last_write_version
        payload = {
            "vector": [float(value) for value in vector],
            "k": int(k),
            "category": category,
            "min_version": min_version,
        }
        return self._call("POST", "/v1/topk", payload)

    def submit(
        self,
        delta: DatabaseDelta | dict,
        submission_id: str | None = None,
    ) -> int:
        """``POST /v1/submit`` → the acked log version.

        The submission id is fixed before the first attempt: every retry
        resends the *same* id, so the server-side dedup window guarantees
        the delta applies exactly once no matter how many times the POST
        lands.
        """
        if isinstance(delta, DatabaseDelta):
            wire = delta.to_dict()
        elif isinstance(delta, dict):
            wire = delta
        else:
            raise ServingError(
                "submit() takes a DatabaseDelta or its to_dict() form"
            )
        payload = {
            "submission_id": submission_id or uuid.uuid4().hex,
            "delta": wire,
        }
        body = self._call("POST", "/v1/submit", payload)
        version = int(body["version"])
        with self._lock:
            if self._last_write_version is None or version > self._last_write_version:
                self._last_write_version = version
        return version

    def health(self) -> dict:
        """``GET /v1/health`` — the body, whether 200 or 503 (degraded)."""
        return self._call("GET", "/v1/health", ok=(200, 503), retried=False)

    def stats(self) -> dict:
        """``GET /v1/stats`` — front + target counters."""
        return self._call("GET", "/v1/stats")

    def close(self) -> None:
        """Close the idle connections; a later call opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _call(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        ok: tuple[int, ...] = (200,),
        retried: bool = True,
    ) -> dict:
        path = self._prefix + path
        data = None if payload is None else json.dumps(payload).encode("utf-8")

        def attempt() -> dict:
            status, raw = self._exchange(method, path, data)
            try:
                body = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                if status in ok:
                    raise
                body = {"error": {"code": "internal", "message": f"HTTP {status}"}}
            if status in ok:
                return body
            raise _raise_for(status, body)

        if not retried:
            return attempt()
        return self._retry.call(
            attempt,
            retry_on=(TransientServingError, http.client.HTTPException, OSError),
        )

    def _exchange(self, method: str, path: str, data: bytes | None):
        """One request and its whole response, on a pooled connection.

        A stale reused connection is replaced once; any other failure, or
        a failure on a fresh connection, propagates to the retry policy.
        """
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        try:
            if connection is not None:
                try:
                    return self._roundtrip(connection, method, path, data)
                except _STALE:
                    connection.close()
            connection = self._connect()
            return self._roundtrip(connection, method, path, data)
        except BaseException:
            if connection is not None:
                connection.close()
            raise

    def _connect(self) -> http.client.HTTPConnection:
        if self._https:
            return http.client.HTTPSConnection(
                self._netloc, timeout=self._timeout, context=self._ssl_context
            )
        return http.client.HTTPConnection(self._netloc, timeout=self._timeout)

    def _roundtrip(self, connection, method: str, path: str, data: bytes | None):
        connection.request(method, path, body=data, headers=self._headers)
        response = connection.getresponse()
        raw = response.read()
        if response.will_close:
            connection.close()
        else:
            with self._lock:
                self._idle.append(connection)
        return int(response.status), raw
