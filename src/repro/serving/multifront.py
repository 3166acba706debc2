"""N HTTP serving fronts inside a tier's replicas, behind one address.

:class:`MultiFrontDeployment` scales the HTTP layer of a started
one-shard :class:`~repro.serving.replicated.ReplicatedServingTier`
without adding a hop to a read:

* Front *i* runs inside the worker of replica *i*:
  :meth:`~repro.serving.replicated.ReplicatedServingTier.host` forks that
  worker afresh with the front on board, so the front inherits what
  cannot be pickled (a TLS context).  A full
  :class:`~repro.serving.http.HTTPServingFront` (own event loop, own
  batching core, own per-client buckets) answers ``/v1/topk`` from the
  worker's own rows: a read is parsed, scored and answered in one
  process, at or past the tier's published version.
* Each front keeps two pipes to the parent: one for writes (submit +
  ticket wait), one for what only the parent knows (health, the tier's
  stats and events, the deployment aggregate), so a write stuck behind
  the solver never stalls health.  Writes from *any* front funnel into
  the primary's idempotent :class:`~repro.serving.runtime.DeltaQueue`,
  so ``submission_id`` dedup holds across fronts: a client may retry a
  write against a different front and it still applies exactly once.
* The **balancer** is the one advertised address.  It accepts each
  connection and hands the socket to the next live front (round-robin,
  dead fronts skipped) over a Unix socket (``SCM_RIGHTS``), then closes
  its own copy; the front serves it as one of its own, TLS included, so
  the parent never carries a request's bytes.  Killing a front loses
  only the connections it was carrying: retried requests land on a
  survivor, and the tier respawns the replica as a plain follower.

Every front also listens on a port of its own (:attr:`front_ports`).
:meth:`stats` aggregates per-front counters (summed totals plus the
per-front breakdown); a front's own ``/v1/stats`` exposes the same
aggregate under ``"deployment"``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import socket
import threading

from repro.errors import ReproError, ServingError
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


def _shippable(error: BaseException) -> BaseException:
    """``error`` as the parent sends it to a front: the library's typed
    errors pickle as they are, anything else becomes a ServingError."""
    if isinstance(error, ReproError):
        return error
    return ServingError(f"{type(error).__name__}: {error}")


class _Front:
    """Front *i*: the parent's bookkeeping, and the guest of replica *i*.

    Built in the parent, which keeps one end of each channel: ``control``
    (ready, stats, stop), ``writes``, ``info`` and ``handoff`` (accepted
    sockets).  :meth:`start` and :meth:`close` run in the worker
    (:meth:`~repro.serving.replicated.ReplicatedServingTier.host`), where
    this object is also the :class:`HTTPServingFront`'s target: reads go
    to the worker's own replica; a write, and each question only the
    parent can answer, is one locked round trip on a pipe, writes on a
    pipe of their own.
    """

    def __init__(
        self, index: int, host: str, options: dict, timeout: float, context
    ) -> None:
        self.index = index
        self._host = host
        self._options = options
        self._timeout = timeout
        self.control, self._control = context.Pipe()
        self.writes, self._writes = context.Pipe()
        self.info, self._info = context.Pipe()
        self.handoff, self._handoff = socket.socketpair()
        self._write_lock = threading.Lock()
        self._info_lock = threading.Lock()
        self._broken: str | None = None
        self._front: HTTPServingFront | None = None
        # parent side
        self.process = None  # the replica worker hosting the front
        self.port: int | None = None
        self.pid: int | None = None
        self.alive = False
        self.connections = 0
        self.lock = threading.Lock()  # serialises control-pipe round trips
        self.threads: list[threading.Thread] = []

    # ------------------------------------------------------------------ #
    # parent side
    # ------------------------------------------------------------------ #
    def forked(self) -> None:
        """Right after the fork: the worker owns its ends."""
        for end in (self._control, self._writes, self._info, self._handoff):
            end.close()

    def detach(self) -> None:
        """Close every end this process still holds."""
        self.forked()
        for end in (self.control, self.writes, self.info, self.handoff):
            end.close()

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    def start(self, replica) -> None:
        """Serve HTTP over ``replica``, then report the port."""
        self.dimension = replica.dimension
        self.topk_batch_versioned = replica.topk_batch_versioned
        self._front = HTTPServingFront(
            self, host=self._host, port=0, **self._options
        ).start()
        for loop in (self._serve_control, self._adopt_handoffs):
            threading.Thread(
                target=loop, name=f"front-{self.index}", daemon=True
            ).start()
        self._control.send(("ready", self._front.port, os.getpid()))

    def close(self) -> None:
        """Stop the front; the worker stays a follower.  Closing the
        worker's pipe ends lets the parent's threads see EOF."""
        if self._front is not None:
            self._front.close()
        try:
            self._handoff.shutdown(socket.SHUT_RDWR)  # wakes the handoff loop
        except OSError:
            pass
        self._writes.close()
        self._info.close()

    def _serve_control(self) -> None:
        while True:
            try:
                message = self._control.recv()
            except (EOFError, OSError):
                return
            stop = message[0] == "stop"
            if stop:
                self.close()
                reply = ("stopped",)
            else:
                reply = ("stats", dataclasses.asdict(self._front.stats))
            try:
                self._control.send(reply)
            except OSError:
                return
            if stop:
                return

    def _adopt_handoffs(self) -> None:
        while True:
            try:
                _, fds, _, _ = socket.recv_fds(self._handoff, 1, 1)
            except OSError:
                return
            if not fds:
                return  # the channel was shut: the front stopped
            self._front.adopt(socket.socket(fileno=fds[0]))

    def _roundtrip(self, conn, lock, message, timeout: float):
        if self._broken is not None:
            raise ServingError(f"parent link broken: {self._broken}")
        with lock:
            conn.send(message)
            if not conn.poll(timeout):
                # an unanswered request desyncs the request/reply pipe —
                # poison the link instead of pairing later replies wrong
                self._broken = f"no answer to {message[0]!r} within {timeout}s"
                raise ServingError(f"parent link broken: {self._broken}")
            reply = conn.recv()
        if reply[0] == "error":
            raise reply[1]
        return reply[1]

    def submit_and_wait(self, delta, submission_id: str, timeout: float) -> int:
        # generous margin: the parent enforces the real write timeout
        return self._roundtrip(
            self._writes, self._write_lock,
            ("submit", delta, submission_id, float(timeout)),
            float(timeout) + 10.0,
        )

    def _ask(self, message):
        return self._roundtrip(self._info, self._info_lock, message, self._timeout)

    def health_snapshot(self) -> dict:
        return self._ask(("health",))

    @property
    def stats(self) -> dict:
        return self._ask(("stats",))

    def recent_events(self, n: int = 50) -> list[dict]:
        return self._ask(("events", int(n)))

    def deployment_stats(self) -> dict:
        return self._ask(("deployment_stats",))


class MultiFrontDeployment:
    """Run ``n_fronts`` HTTP fronts inside the replicas of a started tier.

    ``tier`` must already be started and be a one-shard grid with at
    least ``n_fronts`` replicas (it owns the replica pool and the write
    queue); front *i* runs in replica *i*'s worker.  ``front_options`` is
    forwarded to every :class:`~repro.serving.http.HTTPServingFront`
    (auth tokens, rate limits, TLS context, batching window, ...).
    ``port`` binds the balancer — the one address clients use; ``port=0``
    picks an ephemeral one, read :attr:`port` after :meth:`start`.
    ``gateway_timeout`` bounds a front's health/stats round trip to the
    parent.
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
        if tier.n_shards != 1:
            raise ServingError(
                "fronts run inside the replicas of a one-shard grid; this "
                f"tier has {tier.n_shards} shards"
            )
        if n_fronts > tier.n_replicas:
            raise ServingError(
                f"{n_fronts} fronts need as many replicas; this tier has "
                f"{tier.n_replicas}"
            )
        self._tier = tier
        self._n_fronts = int(n_fronts)
        self._host = host
        self._requested_port = int(port)
        self._front_options = dict(front_options or {})
        self._gateway_timeout = float(gateway_timeout)
        self._events = EventLog("multifront", capacity=256, stream=log_stream)
        self._context = multiprocessing.get_context("fork")

        self.port: int | None = None
        self._fronts: list[_Front] = []
        self._listener: socket.socket | None = None
        self._balancer_thread: threading.Thread | None = None
        self._started = False
        self._rr = 0
        self._n_handed_off = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "MultiFrontDeployment":
        """Host the fronts in the replicas, then bind the balancer;
        idempotent."""
        if self._started:
            return self
        try:
            # each front's pipes open only after the previous fork, so no
            # replica inherits another front's worker-side ends
            processes = self._tier.host(
                (index, self._new_front(index)) for index in range(self._n_fronts)
            )
            for front in self._fronts:
                front.process = processes[front.index]
                self._await_ready(front)
            try:
                self._listener = socket.create_server(
                    (self._host, self._requested_port)
                )
            except OSError as error:
                raise ServingError(f"balancer failed to bind: {error}") from error
        except BaseException:
            self.stop()
            raise
        self.port = int(self._listener.getsockname()[1])
        for front in self._fronts:
            for server, conn in (
                (self._serve_writes, front.writes),
                (self._serve_info, front.info),
            ):
                thread = threading.Thread(
                    target=server, args=(conn,),
                    name=f"multifront-{front.index}", daemon=True,
                )
                thread.start()
                front.threads.append(thread)
        self._balancer_thread = threading.Thread(
            target=self._balance, name="multifront-balancer", daemon=True
        )
        self._balancer_thread.start()
        self._started = True
        self._events.emit(
            "started",
            fronts=[front.port for front in self._fronts],
            balancer=self.port,
        )
        return self

    def _new_front(self, index: int) -> _Front:
        front = _Front(
            index, self._host, self._front_options, self._gateway_timeout,
            self._context,
        )
        self._fronts.append(front)
        return front

    def _await_ready(self, front: _Front) -> None:
        if not front.control.poll(30.0):
            raise ServingError(f"front {front.index} did not come up within 30s")
        _, port, pid = front.control.recv()
        front.port, front.pid, front.alive = int(port), int(pid), True

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the balancer, then each front; the replicas that hosted
        them keep serving the tier as followers."""
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.shutdown(socket.SHUT_RDWR)  # wakes the accept loop
            except OSError:
                pass
            listener.close()
            if self._balancer_thread is not None:
                self._balancer_thread.join(timeout)
        for front in self._fronts:
            if self._live(front):
                try:
                    with front.lock:
                        front.control.send(("stop",))
                        if front.control.poll(timeout):
                            front.control.recv()
                except (EOFError, OSError):
                    pass
            front.alive = False
            for thread in front.threads:
                thread.join(1.0)  # EOF once the front closed its ends
            front.detach()
        self._started = False
        self._events.emit("stopped")

    def __enter__(self) -> "MultiFrontDeployment":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # parent-side servers (one write + one info thread per front)
    # ------------------------------------------------------------------ #
    def _serve_info(self, conn) -> None:
        answers = {
            "health": self._health_snapshot,
            "stats": self._target_stats,
            "events": lambda n: list(self._tier.recent_events(n)),
            "deployment_stats": self.stats,
        }
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            try:
                reply = ("ok", answers[message[0]](*message[1:]))
            except BaseException as error:  # noqa: BLE001 - shipped to the front
                reply = ("error", _shippable(error))
            try:
                conn.send(reply)
            except OSError:
                return

    def _serve_writes(self, conn) -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            _, delta, submission_id, timeout = message
            try:
                ticket = self._tier.submit(
                    delta, timeout=timeout, submission_id=submission_id
                )
                reply = ("ok", int(ticket.wait(timeout)))
            except BaseException as error:  # noqa: BLE001 - shipped over
                # a wait that ran out ships as the WriteTimeoutError it is
                reply = ("error", _shippable(error))
            try:
                conn.send(reply)
            except OSError:
                return

    def _health_snapshot(self) -> dict:
        tier = self._tier
        return {
            "status": "degraded" if tier.write_degraded else "ok",
            "version": tier.published_version,
            "live_followers": tier.live_followers,
            "live_fronts": self.live_fronts,
        }

    def _target_stats(self) -> dict:
        return dataclasses.asdict(self._tier.stats)

    # ------------------------------------------------------------------ #
    # liveness + aggregation
    # ------------------------------------------------------------------ #
    def _live(self, front: _Front) -> bool:
        if front.alive and not front.process.is_alive():
            front.alive = False
            self._events.emit("front_dead", front=front.index, pid=front.pid)
        return front.alive

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
        return [front.port for front in self._fronts]

    @property
    def front_pids(self) -> list[int | None]:
        """Per-front worker pids (chaos hooks SIGKILL these)."""
        return [front.pid for front in self._fronts]

    @property
    def live_fronts(self) -> int:
        """Number of fronts whose worker is alive."""
        return sum(1 for front in self._fronts if self._live(front))

    def kill_front(self, index: int) -> int:
        """SIGKILL the worker hosting one front (chaos hook); returns its
        pid.  The tier respawns the replica as a plain follower."""
        front = self._fronts[index]
        if front.process is None or front.pid is None:
            raise ServingError(f"front {index} was never started")
        front.process.kill()
        front.process.join(5.0)
        front.alive = False
        self._events.emit("front_killed", front=index, pid=front.pid)
        return front.pid

    def stats(self) -> dict:
        """Aggregated per-front counters plus the tier's own stats."""
        fronts: list[dict] = []
        totals = {field: 0 for field in _SUMMED_FIELDS}
        totals["largest_batch"] = 0
        for front in self._fronts:
            alive = self._live(front)
            front_stats = self._collect_front_stats(front) if alive else None
            fronts.append({
                "index": front.index,
                "pid": front.pid,
                "port": front.port,
                "alive": alive,
                "connections": front.connections,
                "front": front_stats,
            })
            if front_stats is not None:
                for field in _SUMMED_FIELDS:
                    totals[field] += int(front_stats.get(field, 0))
                totals["largest_batch"] = max(
                    totals["largest_batch"],
                    int(front_stats.get("largest_batch", 0)),
                )
        return {
            "fronts": fronts,
            "totals": totals,
            "live_fronts": self.live_fronts,
            "balancer": {"port": self.port, "connections": self._n_handed_off},
            "target": self._target_stats(),
        }

    def _collect_front_stats(self, front: _Front) -> dict | None:
        try:
            with front.lock:
                front.control.send(("stats",))
                if not front.control.poll(5.0):
                    return None
                message = front.control.recv()
        except (EOFError, OSError):
            front.alive = False
            return None
        return message[1] if message[0] == "stats" else None

    def recent_events(self, n: int = 50) -> list[dict]:
        """The deployment's latest lifecycle events."""
        return self._events.tail(n)

    # ------------------------------------------------------------------ #
    # connection balancer
    # ------------------------------------------------------------------ #
    def _balance(self) -> None:
        """Hand each accepted connection to the next live front."""
        listener = self._listener
        while True:
            try:
                connection, _ = listener.accept()
            except OSError:
                return  # stop() shut the listener
            with connection:  # the front holds its own copy once sent
                for front in self._rotation():
                    try:
                        socket.send_fds(
                            front.handoff, [b"c"], [connection.fileno()]
                        )
                    except OSError:
                        front.alive = False
                        self._events.emit("front_unreachable", front=front.index)
                        continue
                    front.connections += 1
                    self._n_handed_off += 1
                    break

    def _rotation(self) -> list[_Front]:
        """Live fronts, rotated round-robin (balancer thread only)."""
        start = self._rr
        self._rr += 1
        n = len(self._fronts)
        ordered = [self._fronts[(start + offset) % n] for offset in range(n)]
        return [front for front in ordered if self._live(front)]
