"""N HTTP serving fronts over one replica pool, behind one entry point.

One :class:`~repro.serving.http.HTTPServingFront` is a single process:
its event loop, its executor threads and its rate-limit map all live
with the tier that owns the replica pipes.  :class:`MultiFrontDeployment`
scales the *front* horizontally without duplicating the pool:

* N front **worker processes** are forked, each running a full
  ``HTTPServingFront`` (own event loop, own batching window, own
  per-client buckets) on an ephemeral port.  Inside a worker the front's
  target is a :class:`_GatewayTarget` — a thin proxy that forwards tier
  calls over pipes back to the parent, where the one true
  :class:`~repro.serving.replicated.ReplicatedServingTier` lives.
* Each worker gets **three pipes**: control (ready/stats/stop), query
  (top-k, health, stats snapshots) and write (submit + ticket wait) —
  a write stuck behind the solver never stalls that front's reads.
* Writes from *any* front funnel through the parent into the primary's
  idempotent :class:`~repro.serving.runtime.DeltaQueue`, so
  ``submission_id`` dedup holds across fronts: a client may retry a
  write against a different front and it still applies exactly once.
* A tiny **connection balancer** (asyncio TCP proxy on its own thread)
  is the single advertised address: it round-robins new connections
  across live fronts and skips dead ones, so killing a front loses only
  the connections it was carrying — retried requests land on a
  survivor.  TLS configured on the fronts passes through end-to-end.

:meth:`stats` aggregates per-front counters (summed totals plus the
per-front breakdown); a front's own ``/v1/stats`` exposes the same
aggregate under ``"deployment"`` via the gateway.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import os
import threading

from repro.errors import (
    BackpressureError,
    ExtractionError,
    IntegrityError,
    SchemaError,
    ServingError,
    WriteDegradedError,
)
from repro.serving.http import HTTPServingFront
from repro.util import EventLog

#: Counter fields summed across fronts in the aggregate; ``largest_batch``
#: is folded with ``max`` instead.
_SUMMED_FIELDS = (
    "requests",
    "rate_limited",
    "batches_dispatched",
    "requests_dispatched",
    "read_timeouts",
    "submits",
    "submit_rejected",
    "auth_failures",
)


def _classify(error: BaseException) -> tuple[str, str, dict]:
    """Flatten an exception into a picklable ``(kind, message, extras)``."""
    if isinstance(error, BackpressureError):
        return "backpressure", str(error), {"retry_after": error.retry_after}
    if isinstance(error, WriteDegradedError):
        return "degraded", str(error), {}
    if isinstance(error, SchemaError):
        return "schema", str(error), {}
    if isinstance(error, IntegrityError):
        return "integrity", str(error), {}
    if isinstance(error, ExtractionError):
        return "extraction", str(error), {}
    if isinstance(error, ServingError):
        return "serving", str(error), {}
    return "internal", f"{type(error).__name__}: {error}", {}


def _raise_gateway_error(kind: str, message: str, extras: dict) -> None:
    """Worker side: rebuild the typed error the parent classified."""
    if kind == "backpressure":
        raise BackpressureError(
            message, retry_after=float(extras.get("retry_after", 1.0))
        )
    if kind == "degraded":
        raise WriteDegradedError(message)
    if kind == "schema":
        raise SchemaError(message)
    if kind == "integrity":
        raise IntegrityError(message)
    if kind == "extraction":
        raise ExtractionError(message)
    if kind == "timeout":
        raise TimeoutError(message)
    raise ServingError(message)


class _GatewayTarget:
    """The front's in-worker stand-in for the parent's tier.

    Presents the same duck type :class:`HTTPServingFront` dispatches on
    (``topk_batch_versioned``, ``submit_and_wait``, ``health_snapshot``,
    ``stats``, ``recent_events``, ``deployment_stats``) but every call is
    one locked request/reply round trip on a pipe answered by a parent
    thread.  Queries and writes use separate pipes so they never queue
    behind each other.
    """

    def __init__(self, query_conn, write_conn, dimension, timeout: float) -> None:
        self.dimension = dimension
        self._query_conn = query_conn
        self._write_conn = write_conn
        self._query_lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._timeout = float(timeout)
        self._broken: str | None = None

    def _roundtrip(self, conn, lock, message, timeout: float):
        if self._broken is not None:
            raise ServingError(f"gateway link broken: {self._broken}")
        with lock:
            conn.send(message)
            if not conn.poll(timeout):
                # an unanswered request desyncs the request/reply pipe —
                # poison the link instead of pairing later replies wrong
                self._broken = (
                    f"no answer to {message[0]!r} within {timeout}s"
                )
                raise ServingError(f"gateway link broken: {self._broken}")
            reply = conn.recv()
        if reply[0] == "error":
            _raise_gateway_error(reply[1], reply[2], reply[3])
        return reply[1]

    def topk_batch_versioned(
        self, vectors, k: int = 10, category=None, min_version=None
    ):
        return self._roundtrip(
            self._query_conn,
            self._query_lock,
            ("query", vectors, int(k), category, min_version),
            self._timeout,
        )

    def submit_and_wait(self, delta, submission_id: str, timeout: float) -> int:
        # generous margin: the parent enforces the real write timeout
        return self._roundtrip(
            self._write_conn,
            self._write_lock,
            ("submit", delta, submission_id, float(timeout)),
            float(timeout) + 10.0,
        )

    def health_snapshot(self) -> dict:
        return self._roundtrip(
            self._query_conn, self._query_lock, ("health",), self._timeout
        )

    @property
    def stats(self) -> dict:
        return self._roundtrip(
            self._query_conn, self._query_lock, ("stats",), self._timeout
        )

    def recent_events(self, n: int = 50) -> list[dict]:
        return self._roundtrip(
            self._query_conn, self._query_lock, ("events", int(n)), self._timeout
        )

    def deployment_stats(self) -> dict:
        return self._roundtrip(
            self._query_conn,
            self._query_lock,
            ("deployment_stats",),
            self._timeout,
        )


def _front_worker(
    index: int,
    control_conn,
    query_conn,
    write_conn,
    host: str,
    dimension: int,
    options: dict,
    gateway_timeout: float,
    parent_pid: int,
) -> None:
    """Worker process: one HTTP front proxying to the parent's tier."""
    target = _GatewayTarget(query_conn, write_conn, dimension, gateway_timeout)
    front = HTTPServingFront(target, host=host, port=0, **options)
    try:
        front.start()
    except BaseException as error:  # noqa: BLE001 - reported to the parent
        try:
            control_conn.send(
                ("init-failed", f"{type(error).__name__}: {error}")
            )
        except OSError:
            pass
        os._exit(1)
    try:
        control_conn.send(("ready", front.port, os.getpid()))
    except OSError:
        os._exit(1)
    try:
        while True:
            if not control_conn.poll(0.2):
                if os.getppid() != parent_pid:
                    return  # orphaned: the parent died without stopping us
                continue
            try:
                message = control_conn.recv()
            except (EOFError, OSError):
                return
            if message[0] == "stop":
                front.close()
                try:
                    control_conn.send(("stopped",))
                except OSError:
                    pass
                return
            if message[0] == "stats":
                try:
                    control_conn.send(
                        ("stats", dataclasses.asdict(front.stats))
                    )
                except OSError:
                    return
    finally:
        front.close()


class _FrontHandle:
    """Parent-side bookkeeping for one front worker."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.control = None
        self.query = None
        self.write = None
        self.port: int | None = None
        self.pid: int | None = None
        self.alive = False
        self.connections = 0
        self.lock = threading.Lock()  # serialises control-pipe round trips


class MultiFrontDeployment:
    """Run ``n_fronts`` HTTP front processes over one started tier.

    ``tier`` must already be started (it owns the replica pool and the
    write queue); the deployment only scales the HTTP layer.
    ``front_options`` is forwarded to every
    :class:`~repro.serving.http.HTTPServingFront` (auth tokens, rate
    limits, TLS context, batching window, ...).  ``port`` binds the
    balancer — the one address clients use; ``port=0`` picks an
    ephemeral one, read :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        tier,
        n_fronts: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        front_options: dict | None = None,
        gateway_timeout: float = 60.0,
        log_stream=None,
    ) -> None:
        if n_fronts < 1:
            raise ServingError("n_fronts must be at least 1")
        self._tier = tier
        self._n_fronts = int(n_fronts)
        self._host = host
        self._requested_port = int(port)
        self._front_options = dict(front_options or {})
        self._gateway_timeout = float(gateway_timeout)
        self._events = EventLog("multifront", capacity=256, stream=log_stream)
        self._context = multiprocessing.get_context("fork")

        self.port: int | None = None
        self._fronts: list[_FrontHandle] = []
        self._threads: list[threading.Thread] = []
        self._balancer_thread: threading.Thread | None = None
        self._balancer_loop: asyncio.AbstractEventLoop | None = None
        self._balancer_shutdown: asyncio.Event | None = None
        self._proxy_tasks: set[asyncio.Task] = set()
        self._startup_error: BaseException | None = None
        self._stop_flag = threading.Event()
        self._started = False
        self._rr = 0
        self._n_proxied = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "MultiFrontDeployment":
        """Fork the fronts, then bind the balancer; idempotent."""
        if self._started:
            return self
        dimension = int(self._tier.dimension)  # also asserts the tier runs
        for index in range(self._n_fronts):
            handle = _FrontHandle(index)
            self._spawn_front(handle, dimension)
            self._fronts.append(handle)
        for handle in self._fronts:
            self._await_ready(handle)
        monitor = threading.Thread(
            target=self._monitor, name="multifront-monitor", daemon=True
        )
        monitor.start()
        self._threads.append(monitor)
        ready = threading.Event()
        self._balancer_thread = threading.Thread(
            target=self._run_balancer, args=(ready,),
            name="multifront-balancer", daemon=True,
        )
        self._balancer_thread.start()
        if not ready.wait(timeout=30.0):
            self.stop()
            raise ServingError("balancer did not come up within 30s")
        if self._startup_error is not None:
            error = self._startup_error
            self.stop()
            raise ServingError(f"balancer failed to bind: {error}")
        self._started = True
        self._events.emit(
            "started",
            fronts=[handle.port for handle in self._fronts],
            balancer=self.port,
        )
        return self

    def _spawn_front(self, handle: _FrontHandle, dimension: int) -> None:
        control_parent, control_child = self._context.Pipe()
        query_parent, query_child = self._context.Pipe()
        write_parent, write_child = self._context.Pipe()
        handle.control = control_parent
        handle.query = query_parent
        handle.write = write_parent
        handle.process = self._context.Process(
            target=_front_worker,
            args=(
                handle.index, control_child, query_child, write_child,
                self._host, dimension, self._front_options,
                self._gateway_timeout, os.getpid(),
            ),
            name=f"http-front-{handle.index}",
            daemon=True,
        )
        handle.process.start()
        control_child.close()
        query_child.close()
        write_child.close()
        for server, conn in (
            (self._serve_queries, query_parent),
            (self._serve_writes, write_parent),
        ):
            thread = threading.Thread(
                target=server, args=(handle, conn),
                name=f"multifront-gw-{handle.index}", daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _await_ready(self, handle: _FrontHandle) -> None:
        if not handle.control.poll(30.0):
            raise ServingError(
                f"front {handle.index} did not come up within 30s"
            )
        message = handle.control.recv()
        if message[0] != "ready":
            raise ServingError(
                f"front {handle.index} failed to start: {message[-1]}"
            )
        handle.port = int(message[1])
        handle.pid = int(message[2])
        handle.alive = True

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the balancer, then drain and join every front."""
        self._stop_flag.set()
        loop = self._balancer_loop
        if loop is not None:
            shutdown = self._balancer_shutdown

            def _request() -> None:
                if shutdown is not None:
                    shutdown.set()

            try:
                loop.call_soon_threadsafe(_request)
            except RuntimeError:
                pass
            if self._balancer_thread is not None:
                self._balancer_thread.join(timeout)
        for handle in self._fronts:
            process = handle.process
            if process is None:
                continue
            if process.is_alive():
                try:
                    with handle.lock:
                        handle.control.send(("stop",))
                        if handle.control.poll(timeout):
                            handle.control.recv()
                except (BrokenPipeError, EOFError, OSError):
                    pass
                process.join(timeout)
            if process.is_alive():
                process.kill()
                process.join(timeout)
            handle.alive = False
            for conn in (handle.control, handle.query, handle.write):
                try:
                    conn.close()
                except OSError:
                    pass
        self._started = False
        self._events.emit("stopped")

    def __enter__(self) -> "MultiFrontDeployment":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # parent-side gateway servers (one query + one write thread per front)
    # ------------------------------------------------------------------ #
    def _serve_queries(self, handle: _FrontHandle, conn) -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            kind = message[0]
            try:
                if kind == "query":
                    _, vectors, k, category, min_version = message
                    version, results = self._tier.topk_batch_versioned(
                        vectors, k, category=category, min_version=min_version
                    )
                    reply = ("ok", (int(version), results))
                elif kind == "health":
                    reply = ("ok", self._health_snapshot())
                elif kind == "stats":
                    reply = ("ok", self._target_stats())
                elif kind == "events":
                    reply = ("ok", list(self._tier.recent_events(message[1])))
                elif kind == "deployment_stats":
                    reply = ("ok", self.stats())
                else:
                    reply = (
                        "error", "serving",
                        f"unknown gateway request {kind!r}", {},
                    )
            except BaseException as error:  # noqa: BLE001 - shipped to worker
                reply = ("error", *_classify(error))
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                return

    def _serve_writes(self, handle: _FrontHandle, conn) -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            if message[0] != "submit":
                reply = (
                    "error", "serving",
                    f"unknown gateway request {message[0]!r}", {},
                )
            else:
                _, delta, submission_id, timeout = message
                ticket = None
                try:
                    ticket = self._tier.submit(
                        delta, timeout=timeout, submission_id=submission_id
                    )
                    reply = ("ok", int(ticket.wait(timeout)))
                except BaseException as error:  # noqa: BLE001 - shipped over
                    if (
                        ticket is not None
                        and isinstance(error, ServingError)
                        and not isinstance(
                            error, (BackpressureError, WriteDegradedError)
                        )
                        and not ticket.failed
                        and ticket.published_version is None
                    ):
                        # the wait ran out but the write may yet publish
                        reply = ("error", "timeout", str(error), {})
                    else:
                        reply = ("error", *_classify(error))
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                return

    def _health_snapshot(self) -> dict:
        tier = self._tier
        degraded = bool(getattr(tier, "write_degraded", False)) or bool(
            getattr(tier, "degraded", False)
        )
        payload = {
            "status": "degraded" if degraded else "ok",
            "version": int(getattr(tier, "published_version", 0)),
        }
        live = getattr(tier, "live_followers", None)
        if live is not None:
            payload["live_followers"] = int(live)
        payload["live_fronts"] = self.live_fronts
        return payload

    def _target_stats(self) -> dict:
        stats = getattr(self._tier, "stats", None)
        if dataclasses.is_dataclass(stats):
            return dataclasses.asdict(stats)
        if isinstance(stats, dict):
            return stats
        return {}

    # ------------------------------------------------------------------ #
    # monitoring + aggregation
    # ------------------------------------------------------------------ #
    def _monitor(self) -> None:
        while not self._stop_flag.is_set():
            for handle in self._fronts:
                process = handle.process
                if handle.alive and process is not None and not process.is_alive():
                    handle.alive = False
                    self._events.emit(
                        "front_dead", front=handle.index, pid=handle.pid
                    )
            self._stop_flag.wait(0.2)

    @property
    def address(self) -> str:
        """The balancer's URL — the one address clients should use."""
        if self.port is None:
            raise ServingError("deployment is not running — call start()")
        scheme = (
            "https"
            if self._front_options.get("ssl_context") is not None
            else "http"
        )
        return f"{scheme}://{self._host}:{self.port}"

    @property
    def front_ports(self) -> list[int | None]:
        """Per-front listen ports (bypassing the balancer; tests use it)."""
        return [handle.port for handle in self._fronts]

    @property
    def front_pids(self) -> list[int | None]:
        """Per-front worker pids (chaos hooks SIGKILL these)."""
        return [handle.pid for handle in self._fronts]

    @property
    def live_fronts(self) -> int:
        """Number of front workers currently alive."""
        return sum(
            1
            for handle in self._fronts
            if handle.alive
            and handle.process is not None
            and handle.process.is_alive()
        )

    def kill_front(self, index: int) -> int:
        """SIGKILL one front worker (chaos hook); returns its pid."""
        handle = self._fronts[index]
        if handle.process is None or handle.pid is None:
            raise ServingError(f"front {index} was never started")
        handle.process.kill()
        handle.process.join(5.0)
        handle.alive = False
        self._events.emit("front_killed", front=index, pid=handle.pid)
        return handle.pid

    def stats(self) -> dict:
        """Aggregated per-front counters plus the tier's own stats."""
        fronts: list[dict] = []
        totals = {field: 0 for field in _SUMMED_FIELDS}
        totals["largest_batch"] = 0
        for handle in self._fronts:
            entry: dict = {
                "index": handle.index,
                "pid": handle.pid,
                "port": handle.port,
                "alive": bool(
                    handle.alive
                    and handle.process is not None
                    and handle.process.is_alive()
                ),
                "connections": handle.connections,
            }
            if entry["alive"]:
                front_stats = self._collect_front_stats(handle)
                entry["front"] = front_stats
                if front_stats is not None:
                    for field in _SUMMED_FIELDS:
                        totals[field] += int(front_stats.get(field, 0))
                    totals["largest_batch"] = max(
                        totals["largest_batch"],
                        int(front_stats.get("largest_batch", 0)),
                    )
            else:
                entry["front"] = None
            fronts.append(entry)
        return {
            "fronts": fronts,
            "totals": totals,
            "live_fronts": self.live_fronts,
            "balancer": {"port": self.port, "connections": self._n_proxied},
            "target": self._target_stats(),
        }

    def _collect_front_stats(self, handle: _FrontHandle) -> dict | None:
        try:
            with handle.lock:
                handle.control.send(("stats",))
                if not handle.control.poll(5.0):
                    return None
                message = handle.control.recv()
        except (BrokenPipeError, EOFError, OSError):
            handle.alive = False
            return None
        if message[0] != "stats":
            return None
        return message[1]

    def recent_events(self, n: int = 50) -> list[dict]:
        """The deployment's latest lifecycle events."""
        return self._events.tail(n)

    # ------------------------------------------------------------------ #
    # connection balancer
    # ------------------------------------------------------------------ #
    def _run_balancer(self, ready: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._balancer_loop = loop
        try:
            loop.run_until_complete(self._balance(ready))
        finally:
            asyncio.set_event_loop(None)
            loop.close()
            self._balancer_loop = None

    async def _balance(self, ready: threading.Event) -> None:
        self._balancer_shutdown = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._proxy, self._host, self._requested_port
            )
        except OSError as error:
            self._startup_error = error
            ready.set()
            return
        self.port = int(server.sockets[0].getsockname()[1])
        ready.set()
        try:
            await self._balancer_shutdown.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in list(self._proxy_tasks):
                task.cancel()
            if self._proxy_tasks:
                await asyncio.gather(
                    *self._proxy_tasks, return_exceptions=True
                )

    def _rotation(self) -> list[_FrontHandle]:
        """Live fronts, rotated round-robin (loop thread only)."""
        handles = [h for h in self._fronts if h.port is not None]
        if not handles:
            return []
        start = self._rr
        self._rr += 1
        ordered = [
            handles[(start + offset) % len(handles)]
            for offset in range(len(handles))
        ]
        return [
            h
            for h in ordered
            if h.alive and h.process is not None and h.process.is_alive()
        ]

    async def _proxy(self, client_reader, client_writer) -> None:
        task = asyncio.current_task()
        self._proxy_tasks.add(task)
        upstream_writer = None
        try:
            connection = None
            for handle in self._rotation():
                try:
                    connection = await asyncio.open_connection(
                        self._host, handle.port
                    )
                except OSError:
                    handle.alive = False
                    self._events.emit(
                        "front_unreachable", front=handle.index
                    )
                    continue
                break
            if connection is None:
                return  # no live front: drop the connection
            upstream_reader, upstream_writer = connection
            handle.connections += 1
            self._n_proxied += 1
            await asyncio.gather(
                _pump(client_reader, upstream_writer),
                _pump(upstream_reader, client_writer),
            )
        except asyncio.CancelledError:
            pass
        finally:
            self._proxy_tasks.discard(task)
            for writer in (client_writer, upstream_writer):
                if writer is None:
                    continue
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError, asyncio.CancelledError):
                    pass


async def _pump(reader, writer) -> None:
    """Copy one direction of a proxied connection until EOF or error."""
    try:
        while True:
            data = await reader.read(1 << 16)
            if not data:
                break
            writer.write(data)
            await writer.drain()
    except (ConnectionError, OSError, asyncio.CancelledError):
        pass
    finally:
        try:
            if writer.can_write_eof():
                writer.write_eof()
        except (OSError, RuntimeError):
            pass
