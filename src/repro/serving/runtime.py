"""Concurrent serving: write-ahead delta queue, reader–writer sessions,
and batched query coalescing.

:class:`ServingSession` (PR 1/4) answers queries and folds incremental
updates in, but only single-threaded: ``apply_update`` mutates the very
index a ``topk`` call is scanning.  This module adds the concurrent layer
on top:

* :class:`DeltaQueue` — a thread-safe, bounded, *ordered* queue of
  :class:`~repro.db.delta.DatabaseDelta` submissions.  Adjacent deltas
  touching the same tables are coalesced into one write batch (one solver
  pass instead of two), submission blocks once the queue is full
  (backpressure instead of unbounded memory), and every submission gets an
  :class:`UpdateTicket` that completes when its delta is live.
* :class:`WriteCore` — the write lifecycle around a queue: admission
  (degraded latch, running check, rate limit), the applier thread, ticket
  completion and failure, flush, stop and the write counts.  The runtime
  and :class:`~repro.serving.replicated.ReplicatedServingTier` share it
  and differ only in the apply step they hand it.
* :class:`ServingRuntime` — owns the database, an
  :class:`~repro.retrofit.incremental.IncrementalRetrofitter` and **two**
  serving sessions.  Its apply step runs the existing
  ``derive_extraction_delta → IncrementalRetrofitter.apply →
  ServingSession.apply_update`` pipeline against the *standby* session,
  then publishes it with one atomic reference swap.  Queries never take a
  lock: a reader pins the published snapshot through an epoch slot, runs
  against its immutable indexes, and unpins.  The retired session is only
  mutated (caught up to become the next standby) once every reader that
  could still see it has left its epoch — epoch-based reclamation of old
  index versions.
* :class:`BatchedQueryFront` — runs a blocking ``top_k`` request at
  once when nothing is in flight, and gathers the requests that arrive
  while a batch runs (or that a pipelining caller submits within a small
  window) into one matrix query against the index (the batched kernels
  make a 64-query batch barely more expensive than a single query); it
  completes one future per request.

The GIL makes the single reference read/write of the published snapshot
atomic; the epoch protocol is what keeps the *contents* of a snapshot
immutable while anyone reads it.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.db.database import Database
from repro.db.delta import DatabaseDelta
from repro.errors import (
    BackpressureError,
    ServingError,
    WriteDegradedError,
    WriteTimeoutError,
)
from repro.retrofit.incremental import IncrementalRetrofitter
from repro.serving.batching import BatchingCore
from repro.serving.session import IndexFactory, ServingSession
from repro.util import EventLog, faults


# --------------------------------------------------------------------- #
# write-ahead queue
# --------------------------------------------------------------------- #
class UpdateTicket:
    """Tracks one submitted delta until it is live (or failed).

    ``wait()`` blocks until the delta's write batch has been retrofitted
    and published to readers, returning the serving version that first
    includes it; a pipeline failure re-raises here.  ``lag_seconds`` is
    the submit→publish latency the benchmark reports as *update lag*.
    """

    def __init__(self, seq: int) -> None:
        self.seq = seq
        self.submitted_at = time.perf_counter()
        self.published_version: int | None = None
        self.published_at: float | None = None
        self._event = threading.Event()
        self._error: BaseException | None = None

    def _complete(self, version: int, at: float) -> None:
        self.published_version = version
        self.published_at = at
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    @property
    def done(self) -> bool:
        """Whether the delta has been published or has failed."""
        return self._event.is_set()

    @property
    def failed(self) -> bool:
        """Whether the pipeline rejected the delta."""
        return self._error is not None

    @property
    def version(self) -> int | None:
        """The public serving version this submission resolved at.

        ``None`` until published.  This is the version read-your-writes
        routing compares replica positions against — a read carrying it
        (e.g. ``min_version`` on the replicated tier or the HTTP front)
        can never see a pre-update snapshot.  On a log-publishing runtime
        or tier this is the *store log* version, so callers never reach
        into store internals to learn where their write landed.
        """
        return self.published_version

    @property
    def lag_seconds(self) -> float | None:
        """Submit→publish latency (``None`` until published)."""
        if self.published_at is None:
            return None
        return self.published_at - self.submitted_at

    def wait(self, timeout: float | None = None) -> int:
        """Block until published; returns the first version including it.

        A wait that runs out while the delta is still pending raises
        :class:`~repro.errors.WriteTimeoutError`: the write may yet
        publish, so it is a timeout (HTTP 504), not a failure.
        """
        if not self._event.wait(timeout):
            raise WriteTimeoutError(
                f"update ticket #{self.seq} not published within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self.published_version is not None
        return self.published_version


class _WriteBatch:
    """One queue entry: a (possibly coalesced) delta plus its tickets."""

    __slots__ = ("delta", "tickets", "_owns_delta")

    def __init__(self, delta: DatabaseDelta, ticket: UpdateTicket) -> None:
        self.delta = delta
        self.tickets = [ticket]
        self._owns_delta = False

    def absorb(self, delta: DatabaseDelta, ticket: UpdateTicket) -> None:
        """Coalesce a submission into this batch.

        The first fold replaces the batch's delta with a private copy —
        submitted deltas belong to their callers (who may hold on to them,
        e.g. to replay the stream elsewhere) and must never be mutated.
        """
        if not self._owns_delta:
            self.delta = DatabaseDelta(
                inserts=list(self.delta.inserts),
                updates=list(self.delta.updates),
                deletes=list(self.delta.deletes),
            )
            self._owns_delta = True
        self.delta.absorb(delta)
        self.tickets.append(ticket)


@dataclass(frozen=True)
class QueueStats:
    """Counters of one :class:`DeltaQueue`."""

    submitted: int
    coalesced: int
    batches_popped: int
    pending_batches: int
    pending_operations: int
    deduplicated: int = 0


class DeltaQueue:
    """A bounded, ordered, coalescing queue of database deltas.

    ``capacity`` bounds the number of *pending write batches*; a full
    queue blocks :meth:`submit` (bounded backpressure) until the applier
    drains a batch or ``timeout`` expires.  With ``coalesce`` enabled a
    submission folds into the tail batch when
    :meth:`DatabaseDelta.can_absorb` allows it (adjacent deltas touching
    the same tables, no deletes jumped over) and the merged batch stays
    under ``max_coalesced_ops`` operations — one retrofit pass then serves
    several submissions.
    """

    def __init__(
        self,
        capacity: int = 64,
        coalesce: bool = True,
        max_coalesced_ops: int = 1024,
    ) -> None:
        if capacity < 1:
            raise ServingError("queue capacity must be at least 1")
        self._capacity = int(capacity)
        self._coalesce = bool(coalesce)
        self._max_coalesced_ops = int(max_coalesced_ops)
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._batches: deque[_WriteBatch] = deque()
        self._closed = False
        self._submitted = 0
        self._coalesced = 0
        self._popped = 0
        self._deduplicated = 0
        self._next_seq = 0
        # submission-id → ticket: the idempotent resubmission window.  A
        # client that lost an ack retries with the same id and gets the
        # *original* ticket back — the delta applies exactly once.
        self._submissions: OrderedDict[str, UpdateTicket] = OrderedDict()

    def __len__(self) -> int:
        return len(self._batches)

    @property
    def capacity(self) -> int:
        """Maximum number of pending write batches."""
        return self._capacity

    @property
    def closed(self) -> bool:
        """Whether the queue stopped accepting submissions."""
        return self._closed

    @property
    def last_submitted_seq(self) -> int:
        """Sequence number of the most recent submission (-1 when none)."""
        return self._next_seq - 1

    @property
    def stats(self) -> QueueStats:
        """Current queue counters."""
        with self._lock:
            return QueueStats(
                submitted=self._submitted,
                coalesced=self._coalesced,
                batches_popped=self._popped,
                pending_batches=len(self._batches),
                pending_operations=sum(len(b.delta) for b in self._batches),
                deduplicated=self._deduplicated,
            )

    #: Remembered submission ids; old entries fall off FIFO past this.
    SUBMISSION_WINDOW = 4096

    def _remember(self, submission_id: str | None, ticket: UpdateTicket) -> None:
        if submission_id is None:
            return
        self._submissions[str(submission_id)] = ticket
        while len(self._submissions) > self.SUBMISSION_WINDOW:
            self._submissions.popitem(last=False)

    def submit(
        self,
        delta: DatabaseDelta,
        timeout: float | None = None,
        submission_id: str | None = None,
    ) -> UpdateTicket:
        """Queue ``delta``; blocks while the queue is full.

        Returns an :class:`UpdateTicket` that completes once the delta is
        published to readers.  Raises :class:`repro.errors.ServingError`
        when the queue is closed or stays full past ``timeout``.

        A ``submission_id`` makes the write idempotent: resubmitting the
        same id — e.g. a :class:`repro.util.RetryPolicy` retry after a
        lost ack — returns the original ticket instead of enqueueing the
        delta again, even after that ticket already resolved and even
        when the queue has since closed.
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._not_full:
            if submission_id is not None:
                known = self._submissions.get(str(submission_id))
                if known is not None and not known.failed:
                    # pending or published: the delta is (or will be) in
                    # the log exactly once, so hand back the same ticket.
                    # A *failed* ticket means the delta provably never
                    # published — the retry re-enqueues it.
                    self._deduplicated += 1
                    return known
            if self._closed:
                raise ServingError("delta queue is closed")
            ticket = UpdateTicket(self._next_seq)
            if self._coalesce and self._batches:
                tail = self._batches[-1]
                if (
                    tail.delta.can_absorb(delta)
                    and len(tail.delta) + len(delta) <= self._max_coalesced_ops
                ):
                    tail.absorb(delta, ticket)
                    self._next_seq += 1
                    self._submitted += 1
                    self._coalesced += 1
                    self._remember(submission_id, ticket)
                    return ticket
            while len(self._batches) >= self._capacity:
                remaining = (
                    None if deadline is None else deadline - time.perf_counter()
                )
                if remaining is not None and remaining <= 0:
                    raise BackpressureError(
                        f"delta queue full ({self._capacity} batches) for "
                        f"{timeout}s — backpressure timeout"
                    )
                self._not_full.wait(remaining)
                if self._closed:
                    raise ServingError("delta queue is closed")
            # numbered when queued: submissions that coalesced while this
            # one waited for room took the numbers after the one it drew
            ticket.seq = self._next_seq
            self._batches.append(_WriteBatch(delta, ticket))
            self._next_seq += 1
            self._submitted += 1
            self._remember(submission_id, ticket)
            self._not_empty.notify()
            return ticket

    def pop(self, timeout: float | None = None) -> _WriteBatch | None:
        """Next write batch in submission order (the applier side).

        Blocks until a batch is available; returns ``None`` once the queue
        is closed *and* drained, or when ``timeout`` expires first.
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._not_empty:
            while not self._batches:
                if self._closed:
                    return None
                remaining = (
                    None if deadline is None else deadline - time.perf_counter()
                )
                if remaining is not None and remaining <= 0:
                    return None
                self._not_empty.wait(remaining)
            batch = self._batches.popleft()
            self._popped += 1
            self._not_full.notify()
            return batch

    def close(self) -> None:
        """Stop accepting submissions; pending batches remain poppable."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def drain_tickets(self) -> list[UpdateTicket]:
        """Remove every pending batch, returning the orphaned tickets.

        Used on abandoning shutdown to fail submissions that will never be
        applied.
        """
        with self._lock:
            tickets = [t for batch in self._batches for t in batch.tickets]
            self._batches.clear()
            self._not_full.notify_all()
            return tickets


class RateLimiter:
    """A thread-safe token bucket for write admission control.

    The :class:`DeltaQueue`'s bounded capacity pushes back only once the
    applier has already fallen behind; by then pending writes occupy
    queue slots and the backlog delays every reader-visible publication.
    A rate limiter sits *in front* of the queue: sustained write traffic
    above ``rate_per_second`` is rejected (or delayed) at admission, so
    heavy write load degrades writes — never reads.

    The bucket holds at most ``burst`` tokens and refills continuously at
    ``rate_per_second``.  :meth:`try_acquire` never blocks;
    :meth:`acquire` waits until a token accrues or ``timeout`` expires.
    """

    def __init__(self, rate_per_second: float, burst: int | None = None) -> None:
        if rate_per_second <= 0:
            raise ServingError("rate_per_second must be positive")
        self.rate_per_second = float(rate_per_second)
        self.burst = float(
            burst if burst is not None else max(1.0, rate_per_second)
        )
        if self.burst < 1:
            raise ServingError("burst must allow at least one token")
        self._tokens = self.burst
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def _refill(self) -> None:
        now = time.monotonic()
        self._tokens = min(
            self.burst, self._tokens + (now - self._stamp) * self.rate_per_second
        )
        self._stamp = now

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available right now; never blocks."""
        with self._lock:
            self._refill()
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    def acquire(
        self, tokens: float = 1.0, timeout: float | None = None
    ) -> bool:
        """Take ``tokens``, sleeping until they accrue or ``timeout`` ends.

        Returns ``True`` once acquired, ``False`` on timeout.  With
        ``timeout=None`` the caller waits as long as the tokens take to
        accrue (bounded: the bucket refills at a fixed positive rate).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                self._refill()
                if self._tokens >= tokens:
                    self._tokens -= tokens
                    return True
                shortfall = (tokens - self._tokens) / self.rate_per_second
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                shortfall = min(shortfall, remaining)
            time.sleep(min(shortfall, 0.05))

    @property
    def available(self) -> float:
        """Tokens available right now (refreshes the bucket)."""
        with self._lock:
            self._refill()
            return self._tokens


class WriteCore:
    """The write lifecycle of :class:`ServingRuntime` and
    :class:`~repro.serving.replicated.ReplicatedServingTier`.

    The core owns admission (the degraded latch, the running check, the
    :class:`RateLimiter`, then :meth:`DeltaQueue.submit`), the applier
    thread, ticket completion and failure, :meth:`flush`, :meth:`stop`
    and the write counts; an owner supplies its apply step and its
    current version.  ``apply(delta, publish)`` makes one non-empty batch
    live and calls ``publish(version, certified)`` once readers see it,
    which resolves the batch's tickets: work after that (the runtime
    catching up its retired session) delays :meth:`flush`, never an ack.
    A step that raises before publishing fails the batch; one that leaves
    the owner unable to take more writes latches :meth:`degrade` first,
    and every later batch fails with the latched error.  An empty delta
    completes at ``version()`` without an apply.  ``events`` receives
    ``write_uncertified`` and ``write_degraded``.
    """

    def __init__(
        self,
        name: str,
        apply,
        version,
        events: EventLog,
        queue_capacity: int = 64,
        coalesce: bool = True,
        max_coalesced_ops: int = 1024,
        rate_limit: RateLimiter | None = None,
    ) -> None:
        self.name = name
        self.queue = DeltaQueue(queue_capacity, coalesce, max_coalesced_ops)
        self._apply = apply
        self._version = version
        self._events = events
        self._rate_limit = rate_limit
        self._thread: threading.Thread | None = None
        self._exited = False
        self._abandon = False
        self._progress = threading.Condition()
        self._done_seq = -1
        #: the latched error of a degraded core (``None`` while healthy)
        self.degraded: BaseException | None = None
        self.last_error: BaseException | None = None
        self.applied = self.failed = self.uncertified = self.rate_limited = 0
        self.lags: deque[float] = deque(maxlen=4096)  # submit→publish

    @property
    def running(self) -> bool:
        """Whether writes are accepted: started and not stopped."""
        return self._thread is not None and not (self._exited or self.queue.closed)

    def start(self) -> None:
        """Start the applier thread (idempotent)."""
        if self.queue.closed:
            raise ServingError(f"cannot restart a stopped {self.name}")
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name=f"{self.name} writer", daemon=True
            )
            self._thread.start()

    def stop(self, flush: bool = True, timeout: float | None = None) -> None:
        """Stop taking writes; with ``flush`` the queued ones land first.

        A flush that fails or runs out of ``timeout`` does not wedge
        shutdown, and a degraded core skips it.  The queue closes, a batch
        in flight finishes on its own, and every queued batch fails.
        """
        if flush and self.degraded is None:
            with suppress(ServingError):
                self.flush(timeout)
        self._abandon = not flush
        self.queue.close()
        if self._thread is not None:
            self._thread.join(timeout)
        error = ServingError(f"{self.name} stopped before applying the delta")
        for ticket in self.queue.drain_tickets():
            ticket._fail(error)

    def submit(
        self,
        delta: DatabaseDelta,
        timeout: float | None = None,
        submission_id: str | None = None,
    ) -> UpdateTicket:
        """Admit and queue ``delta``; returns its ticket at once.

        The rate limiter rejects sustained over-budget traffic before the
        delta takes queue capacity, and the bounded queue blocks while the
        apply step falls behind; readers are throttled by neither.
        """
        if self.degraded is not None:
            raise WriteDegradedError(
                f"{self.name} is write-degraded: {self.degraded}"
            )
        if not self.running:
            raise ServingError(f"{self.name} is not running — call start()")
        limit = self._rate_limit
        if limit is not None and not limit.acquire(timeout=timeout):
            with self._progress:
                self.rate_limited += 1
            raise BackpressureError(
                "write admission rejected: rate limit exceeded "
                f"({limit.rate_per_second:.3g}/s)",
                retry_after=1.0 / limit.rate_per_second,
            )
        return self.queue.submit(delta, timeout, submission_id)

    def flush(self, timeout: float | None = None) -> None:
        """Block until every delta submitted so far was applied or failed."""
        target = self.queue.last_submitted_seq
        with self._progress:
            if not self._progress.wait_for(
                lambda: self._done_seq >= target or self._exited, timeout
            ):
                raise ServingError(f"flush timed out after {timeout}s")
            if self._done_seq < target:
                raise ServingError(f"{self.name} stopped with deltas queued")

    def degrade(self, error: BaseException) -> BaseException:
        """Latch write-degraded with ``error``; returns it for ``raise``."""
        self.degraded = error
        self._events.emit("write_degraded", reason=str(error))
        return error

    def _loop(self) -> None:
        try:
            while not self._abandon:
                batch = self.queue.pop()
                if batch is None:
                    return  # closed and drained
                self._run(batch)
                with self._progress:
                    self._done_seq = batch.tickets[-1].seq
                    self._progress.notify_all()
        finally:
            with self._progress:
                self._exited = True
                self._progress.notify_all()

    def _run(self, batch: _WriteBatch) -> None:
        if batch.delta.is_empty():
            version, now = self._version(), time.perf_counter()
            for ticket in batch.tickets:
                ticket._complete(version, now)
            return
        if self.degraded is not None:
            self._fail(batch, self.degraded)
            return
        try:
            self._apply(batch.delta, partial(self._publish, batch))
        except Exception as error:
            if batch.tickets[0].done:  # published: what followed is unknown
                self.degrade(error)
            else:
                self._fail(batch, error)

    def _fail(self, batch: _WriteBatch, error: BaseException) -> None:
        self.failed += 1
        self.last_error = error
        for ticket in batch.tickets:
            ticket._fail(error)

    def _publish(self, batch: _WriteBatch, version: int, certified: bool) -> None:
        # counted before the tickets resolve: a woken waiter sees its write
        self.applied += 1
        if not certified:
            self.uncertified += 1
            self._events.emit("write_uncertified", version=version)
        now = time.perf_counter()
        for ticket in batch.tickets:
            ticket._complete(version, now)
            self.lags.append(now - ticket.submitted_at)


# --------------------------------------------------------------------- #
# epoch-based reclamation
# --------------------------------------------------------------------- #
class EpochRegistry:
    """Grace-period bookkeeping between lock-free readers and the writer.

    A reader entering a read-side critical section stores the current
    epoch in its per-thread slot (one dict assignment — atomic under the
    GIL) *before* dereferencing the published snapshot, and clears it on
    exit.  The writer publishes a new snapshot, advances the epoch, and
    :meth:`wait_for_grace_period` blocks until no reader whose slot
    predates the new epoch remains — after which the retired snapshot is
    provably unobservable and safe to mutate.

    Slots are keyed by thread id and only ever written by their owning
    thread; nested pins on the same thread keep the outermost epoch.
    """

    def __init__(self) -> None:
        self._slots: dict[int, list[int] | None] = {}
        self._epoch = 0

    @property
    def epoch(self) -> int:
        """The current writer epoch."""
        return self._epoch

    def enter(self) -> int:
        """Pin the calling thread to the current epoch; returns its id."""
        tid = threading.get_ident()
        slot = self._slots.get(tid)
        if slot is not None and slot[1] > 0:
            slot[1] += 1
        else:
            self._slots[tid] = [self._epoch, 1]
        return tid

    def exit(self, tid: int) -> None:
        """Release the pin taken by :meth:`enter`."""
        slot = self._slots.get(tid)
        if slot is None or slot[1] <= 0:
            raise ServingError("epoch exit without a matching enter")
        slot[1] -= 1
        if slot[1] == 0:
            self._slots[tid] = None

    def advance(self) -> int:
        """Writer side: open a new epoch, returning its number."""
        self._epoch += 1
        return self._epoch

    def oldest_active_epoch(self) -> int | None:
        """Epoch of the longest-pinned active reader (``None`` when idle)."""
        oldest: int | None = None
        for slot in list(self._slots.values()):
            if slot is None or slot[1] <= 0:
                continue
            if oldest is None or slot[0] < oldest:
                oldest = slot[0]
        return oldest

    def wait_for_grace_period(
        self, epoch: int, timeout: float | None = None, poll: float = 0.0002
    ) -> bool:
        """Block until no active reader predates ``epoch``."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        while True:
            oldest = self.oldest_active_epoch()
            if oldest is None or oldest >= epoch:
                return True
            if deadline is not None and time.perf_counter() >= deadline:
                return False
            time.sleep(poll)


# --------------------------------------------------------------------- #
# the runtime
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RuntimeStats:
    """Counters of one :class:`ServingRuntime`."""

    published_version: int
    updates_published: int
    update_failures: int
    snapshots_reclaimed: int
    deltas_submitted: int
    deltas_coalesced: int
    pending_batches: int
    last_update_lag_seconds: float | None
    mean_update_lag_seconds: float | None
    writes_rate_limited: int
    #: Published writes whose refinement rounds ran out with rows still
    #: over the residual tolerance (``SolverReport.converged`` was False).
    writes_uncertified: int


class ServingRuntime:
    """Serve top-k queries while a live delta stream updates the model.

    The runtime owns the ``database`` and the ``retrofitter`` (writers
    must not touch either directly once the runtime started) and two
    sessions over the same embeddings: the *published* one answers
    queries, the *standby* one absorbs the next update.  Publication is a
    single reference swap; the previous session is caught up after the
    epoch grace period and becomes the new standby, so in steady state
    every update is applied twice but no index is ever rebuilt from
    scratch and readers never block.

    Readers either call :meth:`topk`/:meth:`topk_batch` (one pin per
    call) or hold :meth:`read` open around several queries for a
    consistent snapshot.  Writers call :meth:`submit`, which enqueues and
    returns immediately; the returned ticket resolves once the delta is
    live.  The write lifecycle (admission, queue, tickets, flush, stop,
    the degraded latch and the write counts) is a :class:`WriteCore`
    shared with the replicated tier; the runtime supplies its apply step.
    """

    def __init__(
        self,
        database: Database,
        retrofitter: IncrementalRetrofitter,
        index_factory: IndexFactory | None = None,
        cache_size: int = 1024,
        queue_capacity: int = 64,
        coalesce: bool = True,
        max_coalesced_ops: int = 1024,
        solve_iterations: int | None = None,
        grace_timeout: float = 30.0,
        write_rate_limit: "RateLimiter | None" = None,
    ) -> None:
        self._database = database
        self._retrofitter = retrofitter
        self._solve_iterations = solve_iterations
        self._grace_timeout = float(grace_timeout)
        self._epochs = EpochRegistry()

        def build_session() -> ServingSession:
            return ServingSession(
                self._retrofitter.embeddings,
                index_factory=index_factory,
                cache_size=cache_size,
                thread_safe_cache=True,
            )

        self._build_session = build_session
        self._published = build_session()
        self._standby = build_session()
        self._published.settle_indexes()
        self._standby.settle_indexes()
        self._snapshots_reclaimed = 0
        self._events = EventLog("runtime")
        self._writes = WriteCore(
            "serving runtime",
            self._apply,
            lambda: self._published.version,
            self._events,
            queue_capacity=queue_capacity,
            coalesce=coalesce,
            max_coalesced_ops=max_coalesced_ops,
            rate_limit=write_rate_limit,
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def running(self) -> bool:
        """Whether the runtime takes writes: started and not stopped."""
        return self._writes.running

    def start(self) -> "ServingRuntime":
        """Start the background applier thread (idempotent)."""
        self._writes.start()
        return self

    def stop(self, flush: bool = True, timeout: float | None = None) -> None:
        """Stop taking writes (:meth:`WriteCore.stop`): with ``flush`` every
        queued delta lands first, within ``timeout``; what is still queued
        after that fails."""
        self._writes.stop(flush, timeout)

    def __enter__(self) -> "ServingRuntime":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(flush=exc_type is None)

    # ------------------------------------------------------------------ #
    # writer side
    # ------------------------------------------------------------------ #
    def submit(
        self,
        delta: DatabaseDelta,
        timeout: float | None = None,
        submission_id: str | None = None,
    ) -> UpdateTicket:
        """Queue a delta for application; returns its ticket immediately."""
        return self._writes.submit(
            delta, timeout=timeout, submission_id=submission_id
        )

    def flush(self, timeout: float | None = None) -> None:
        """Block until every delta submitted so far has been applied."""
        self._writes.flush(timeout)

    def _apply(self, delta: DatabaseDelta, publish) -> None:
        # write-ahead validation: a delta rejected here provably left the
        # database untouched, so the runtime stays fully healthy
        delta.validate_against(self._database)
        try:
            faults.fire("runtime.apply", "before")
            update = self._retrofitter.apply(
                self._database, delta, iterations=self._solve_iterations
            )
            self._standby.apply_update(update)
            self._standby.settle_indexes()
            faults.fire("runtime.publish", "before")
        except Exception as error:
            # past validation the database (and possibly the retrofitter)
            # may already be mutated: the served vectors can no longer be
            # trusted to match it.  Keep serving reads from the last good
            # snapshot, but refuse further writes instead of silently
            # applying deltas against a misaligned state.
            raise self._writes.degrade(error)

        # atomic version swap: one reference assignment publishes the new
        # snapshot; readers pinned to the old one finish undisturbed
        retired = self._published
        self._published = self._standby
        epoch = self._epochs.advance()
        publish(self._published.version, bool(update.report.converged))

        # epoch-based reclamation: only mutate the retired snapshot once
        # every reader that could still see it has unpinned
        if not self._epochs.wait_for_grace_period(
            epoch, timeout=self._grace_timeout
        ):
            # a stuck reader: abandon the retired session instead of
            # racing it; the next standby starts from a fresh build over
            # the retrofitter's (current) embeddings
            self._standby = self._build_session()
            self._standby.settle_indexes()
            return
        retired.apply_update(update)
        retired.settle_indexes()
        self._standby = retired
        self._snapshots_reclaimed += 1

    # ------------------------------------------------------------------ #
    # reader side
    # ------------------------------------------------------------------ #
    @contextmanager
    def read(self):
        """Pin the published snapshot for a consistent batch of queries.

        The yielded :class:`ServingSession` is immutable for the duration
        of the ``with`` block — the applier will not touch it until the
        reader exits its epoch.  No lock is taken on this path.
        """
        tid = self._epochs.enter()
        try:
            yield self._published
        finally:
            self._epochs.exit(tid)

    def topk(
        self, vector: np.ndarray, k: int = 10, category: str | None = None
    ) -> list[tuple[str, str, float]]:
        """Lock-free :meth:`ServingSession.topk` against the live snapshot."""
        with self.read() as session:
            return session.topk(vector, k, category=category)

    def topk_batch(self, vectors, k: int = 10, category: str | None = None):
        """Lock-free batched top-k against the live snapshot."""
        with self.read() as session:
            return session.topk_batch(vectors, k, category=category)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def published_version(self) -> int:
        """Version of the snapshot queries currently see."""
        return self._published.version

    @property
    def dimension(self) -> int:
        """Dimensionality of the served vectors."""
        return self._published.dimension

    @property
    def embeddings(self):
        """The writer-side (most recent) embedding set."""
        return self._retrofitter.embeddings

    @property
    def last_error(self) -> BaseException | None:
        """The most recent pipeline failure, if any."""
        return self._writes.last_error

    @property
    def degraded(self) -> bool:
        """Whether an update failed after mutating the database.

        A degraded runtime keeps answering queries from the last good
        snapshot but refuses new submissions: the database and the served
        vectors can no longer be certified to agree.  Rebuild the runtime
        (re-extract or reload a consistent artifact) to recover.
        """
        return self._writes.degraded is not None

    def recent_events(self, n: int = 50) -> list[dict]:
        """The runtime's latest ``write_uncertified``/``write_degraded``
        events."""
        return self._events.tail(n)

    @property
    def queue_stats(self) -> QueueStats:
        """Counters of the write-ahead queue."""
        return self._writes.queue.stats

    @property
    def stats(self) -> RuntimeStats:
        """A point-in-time snapshot of the runtime's counters."""
        writes = self._writes
        queue = writes.queue.stats
        lags = list(writes.lags)
        return RuntimeStats(
            published_version=self.published_version,
            updates_published=writes.applied,
            update_failures=writes.failed,
            snapshots_reclaimed=self._snapshots_reclaimed,
            deltas_submitted=queue.submitted,
            deltas_coalesced=queue.coalesced,
            pending_batches=queue.pending_batches,
            last_update_lag_seconds=lags[-1] if lags else None,
            mean_update_lag_seconds=(
                float(np.mean(lags)) if lags else None
            ),
            writes_rate_limited=writes.rate_limited,
            writes_uncertified=writes.uncertified,
        )


# --------------------------------------------------------------------- #
# query coalescing
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class FrontStats:
    """Counters of one :class:`BatchedQueryFront`."""

    requests: int
    batches_dispatched: int
    largest_batch: int
    requests_dispatched: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average number of requests served per index query."""
        if not self.batches_dispatched:
            return 0.0
        return self.requests_dispatched / self.batches_dispatched


class _Timers:
    """``call_later`` for a thread-based front: one daemon thread runs
    each callback once its delay has passed."""

    def __init__(self, name: str) -> None:
        self._cond = threading.Condition()
        self._heap: list[tuple[float, int, object]] = []
        self._order = itertools.count()
        self._closed = False
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    def call_later(self, delay: float, callback) -> None:
        entry = (time.monotonic() + delay, next(self._order), callback)
        with self._cond:
            heapq.heappush(self._heap, entry)
            if self._heap[0] is entry:  # else the thread wakes earlier anyway
                self._cond.notify()

    def close(self, timeout: float | None = None) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify()
        self._thread.join(timeout)

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._closed:
                    if self._heap:
                        wait = self._heap[0][0] - time.monotonic()
                        if wait <= 0:
                            break
                    else:
                        wait = None
                    self._cond.wait(wait)
                if self._closed:
                    return
                _, _, callback = heapq.heappop(self._heap)
            callback()


class _PipelinedRead(Future):
    """A :meth:`BatchedQueryFront.submit` future that tells the batching
    core when its caller blocks on it (:meth:`result`/:meth:`exception`);
    a done-callback or ``concurrent.futures.wait`` leaves it to the window."""

    def __init__(self, batcher: BatchingCore) -> None:
        super().__init__()
        self._batcher = batcher
        self._ticket = None

    def result(self, timeout: float | None = None):
        self._waited()
        return super().result(timeout)

    def exception(self, timeout: float | None = None):
        self._waited()
        return super().exception(timeout)

    def _waited(self) -> None:
        ticket, self._ticket = self._ticket, None
        if ticket is not None and not self.done():
            self._batcher.wait(ticket)


class BatchedQueryFront:
    """Coalesce concurrent ``top_k`` requests into batched index queries.

    The policy is :class:`~repro.serving.batching.BatchingCore`'s, shared
    with the HTTP front.  A request lingers in its ``(k, category)``
    group until its caller blocks on it — at once for :meth:`topk`, at
    the first ``result()`` for a pipelined :meth:`submit`, so a burst sent
    before that wait goes out as one batch.  From then on the group is
    dispatched at once when no batch is in flight, else when the running
    batch returns; a group also goes out when it reaches ``max_batch`` or
    once its oldest request has waited ``window_seconds`` (the only way
    out for a caller that never blocks).  Each batch is one
    :meth:`ServingSession.topk_batch` call against one pinned snapshot, on
    a thread pool, so a group whose window ran out behind a slow batch
    runs beside it; with the batched kernels a full batch costs barely
    more than one query.

    ``target`` is a :class:`ServingRuntime` (requests of one dispatch see
    one consistent snapshot) or a bare :class:`ServingSession`.
    """

    def __init__(
        self,
        target,
        window_seconds: float = 0.002,
        max_batch: int = 64,
    ) -> None:
        self._target = target
        self._dimension = getattr(target, "dimension", None)
        self._timers = _Timers("batched-query-window")
        self._batcher = BatchingCore(
            self._dispatch, self._timers.call_later, window_seconds, max_batch
        )
        self._executor = ThreadPoolExecutor(thread_name_prefix="batched-query")
        self._count_lock = threading.Lock()
        self._n_requests = 0

    # ------------------------------------------------------------------ #
    # client side
    # ------------------------------------------------------------------ #
    def submit(
        self, vector: np.ndarray, k: int = 10, category: str | None = None
    ) -> Future:
        """Queue one pipelined top-k request; resolves to its result triples.

        It waits for company until its caller blocks on the future (or
        the window runs out).  A malformed vector fails here,
        synchronously — it must never make it into a batch, where one bad
        shape would poison the co-batched requests' matrix build.
        """
        vector = np.asarray(vector, dtype=np.float64)
        if self._dimension is not None and vector.shape != (self._dimension,):
            raise ServingError(
                f"query vector has shape {vector.shape}, "
                f"expected ({self._dimension},)"
            )
        future = _PipelinedRead(self._batcher)
        future._ticket = self._batcher.submit(
            (int(k), category), vector, None, future
        )
        with self._count_lock:
            self._n_requests += 1
        return future

    def topk(
        self,
        vector: np.ndarray,
        k: int = 10,
        category: str | None = None,
        timeout: float | None = None,
    ) -> list[tuple[str, str, float]]:
        """Blocking top-k: dispatched at once when no batch is in flight."""
        return self.submit(vector, k, category).result(timeout)

    @property
    def stats(self) -> FrontStats:
        """Batching effectiveness counters."""
        batches, dispatched, largest = self._batcher.counts()
        return FrontStats(
            requests=self._n_requests,
            batches_dispatched=batches,
            largest_batch=largest,
            requests_dispatched=dispatched,
        )

    def close(self, timeout: float | None = None) -> None:
        """Dispatch the remaining requests and stop the worker threads."""
        self._batcher.close(timeout)
        self._timers.close(timeout)
        self._executor.shutdown(wait=False)

    def __enter__(self) -> "BatchedQueryFront":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # dispatch (one pool thread per batch)
    # ------------------------------------------------------------------ #
    def _pinned(self):
        if hasattr(self._target, "read"):
            return self._target.read()
        return nullcontext(self._target)

    def _dispatch(self, key, vectors, min_version, futures) -> None:
        self._executor.submit(self._run_batch, key, vectors, futures)

    def _run_batch(self, key, vectors, futures) -> None:
        k, category = key
        try:
            try:
                with self._pinned() as session:
                    results = session.topk_batch(
                        np.stack(vectors), k, category=category
                    )
                outcomes = [(Future.set_result, result) for result in results]
            except Exception as error:
                outcomes = [(Future.set_exception, error)] * len(futures)
            for future, (resolve, value) in zip(futures, outcomes):
                # a caller may have cancelled its future while it waited
                if future.set_running_or_notify_cancel():
                    resolve(future, value)
        finally:
            self._batcher.done()
