"""One log-shipped serving tier: a shards × replicas grid of workers.

RETRO's incremental retrofits are published as versioned delta records
in the store (:meth:`EmbeddingStore.append_embedding_set_delta` /
:meth:`~EmbeddingStore.read_embedding_set_delta`); that log is the
replication stream.  :class:`ReplicatedServingTier` serves one
``embedding_set`` artifact from an ``n_shards × n_replicas`` grid of
worker processes tailing it — ``(N, 1)`` partitions one corpus across N
processes, ``(1, R)`` replicates it R times for read throughput.  The
shared store directory stands in for shared durable storage (in a
multi-box deployment :func:`ship_snapshot` moves artifacts between store
roots the same way).

* :func:`stable_shard` hash-partitions text values across the shards
  with a restart-stable digest.  Each worker bootstraps its shard's rows
  from the base snapshot — a read-only memory map whose pages all
  workers share, so a worker holds ``1/n_shards`` of the matrix — then
  replays the delta records past it and keeps tailing the log.  A worker
  that fell behind a :meth:`~EmbeddingStore.compact_embedding_set`
  re-bootstraps from the (newer) snapshot and resumes tailing.
* A read asks one live replica per shard — round-robin, preferring
  replicas already at the read's floor — and merges the answers by
  ``(score descending, global id ascending)``: the tie-stable contract of
  :func:`repro.serving.index.topk_descending`, so the result is bitwise
  the one a single :class:`ServingSession` gives.  Every worker decorates
  its own rows at exactly the version it answered with.  A read without
  ``min_version`` is floored at the tier's published version
  (read-your-writes); a lagging worker replays the log before answering,
  and shards that answered at different versions are re-asked at the
  newest, so one answer is always self-consistent.
* A replica of a one-shard grid can also host a guest — a deployment's
  HTTP front (:meth:`ReplicatedServingTier.host`) — that reads the
  worker's own rows in-process.  The published version lives in shared
  memory, so such a read is floored at it with one load; replay and read
  share one lock in the worker, so one answer sees one version.
* Writes follow the :class:`~repro.serving.runtime.WriteCore` lifecycle
  the in-process runtime shares (rate limit, write-ahead queue, tickets,
  flush, stop, the degraded latch and the write counts); the tier's apply
  step sends each batch to one lean primary process that validates it,
  runs ``retrofitter.apply`` and appends the update to the log before its
  ticket resolves.
* A heartbeat thread detects dead processes (liveness + ping).  A dead
  worker is respawned from the store; until then its reads re-route to
  another replica of its shard, or — with none left — the shard is left
  out of the answer and the read counts as degraded.  A dead primary is
  respawned from the store's latest version, the front's database mirror
  (exactly the acked deltas) and ``retrofitter_factory``.  The log
  decides the fate of a write in flight when the primary died: appends
  are atomic (the header rename is the commit point), so the write either
  landed (complete its ticket) or provably did not (retry it on the
  respawned primary).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import multiprocessing
import os
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import ExtractionError, ServingError, StoreFormatError
from repro.serving.index import FlatIndex, VectorIndex
from repro.serving.runtime import RateLimiter, UpdateTicket, WriteCore
from repro.serving.store import KIND_EMBEDDING_SET, EmbeddingStore
from repro.util import EventLog, RetryPolicy, faults

#: Respawn retry shape: three attempts, jittered backoff, bounded total.
_RESPAWN_RETRY = RetryPolicy(attempts=3, base_delay=0.05, max_delay=1.0, deadline=15.0)

#: A worker racing a concurrent append can transiently read a
#: half-visible record; retry briefly before treating it as a compaction.
_SYNC_RETRY = RetryPolicy(attempts=3, base_delay=0.02, max_delay=0.2, deadline=2.0)

#: How long a process sleeps in ``poll`` before re-checking whether its
#: parent is still alive (orphan self-termination).
_POLL_INTERVAL = 0.2

#: Bound on re-ask rounds before a read gives up on getting every shard
#: to the same version (publishes are orders of magnitude slower than
#: queries, so two rounds virtually always suffice).
_MAX_VERSION_ROUNDS = 5

#: How long the front waits for a primary to come up: a respawned one
#: loads the store's latest version and builds a retrofitter over it (one
#: initialisation pass, no solver run).
_PRIMARY_TIMEOUT = 120.0


def stable_shard(category: str, text: str, n_shards: int) -> int:
    """The shard owning ``(category, text)`` — stable across processes.

    Python's builtin ``hash()`` is salted per process, so it cannot
    partition values consistently between the front and workers started at
    different times (or respawned after a crash).  An 8-byte blake2b
    digest is cheap and permanent: shard membership survives restarts,
    respawns and delta replay.
    """
    digest = hashlib.blake2b(
        f"{category}\x00{text}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % n_shards


# --------------------------------------------------------------------- #
# snapshot shipping
# --------------------------------------------------------------------- #
def ship_snapshot(
    source_root: str | Path,
    artifact: str,
    dest_root: str | Path,
    include_deltas: bool = True,
) -> int:
    """Copy an embedding-set artifact (and its delta log) between stores.

    This is how a brand-new replica on another box bootstraps: ship the
    base snapshot plus the log tail, start the tier on the destination
    store, and its workers replay to the newest version.  Files are
    copied matrix-archive first, header last — the header is the commit
    point (same contract as :meth:`EmbeddingStore._write`), so a crash
    mid-ship never leaves a header pointing at a missing archive.
    Returns the latest version available at the destination.
    """
    faults.fire("repl.log_ship", "before")
    source = EmbeddingStore(source_root)
    destination = EmbeddingStore(dest_root)
    destination.root.mkdir(parents=True, exist_ok=True)
    names = [artifact]
    if include_deltas:
        names.extend(
            delta_name
            for _, delta_name in source.list_embedding_set_deltas(artifact)
        )
    for name in names:
        header = source._read_header(name)
        if name == artifact:
            source._validate_header(name, header, KIND_EMBEDDING_SET)
        matrix_file = header.get("matrix_file")
        if isinstance(matrix_file, str):
            shutil.copy2(source.root / matrix_file, destination.root / matrix_file)
        shutil.copy2(
            source._header_path(name), destination._header_path(name)
        )  # commit
    return destination.latest_version(artifact)


# --------------------------------------------------------------------- #
# worker state
# --------------------------------------------------------------------- #
class _ShardState:
    """One worker's snapshot: extraction + its shard's vectors at a version.

    Not thread-safe: the worker reaches it through one lock
    (:class:`_LocalReplica`).  :meth:`apply_record` rebuilds the row set
    and drops the per-scope indexes, so a query either sees the old
    snapshot or the new one, never a mix.  With ``n_shards=1`` every row
    belongs to shard 0: ``local_ids`` is the identity and ``vectors``
    *is* the full matrix in global row order.
    """

    def __init__(
        self, store: EmbeddingStore, artifact: str, shard_id: int,
        n_shards: int, metric: str, index_kind: str = "flat",
        index_params: dict | None = None,
    ) -> None:
        self.store = store
        self.artifact = artifact
        self.shard_id = shard_id
        self.n_shards = n_shards
        self.metric = metric
        self.index_kind = index_kind
        self.index_params = dict(index_params or {})
        self.bootstrap()
        self.sync_to_latest()

    def bootstrap(self) -> None:
        """(Re-)load this shard's rows from the base snapshot artifact.

        Called once at startup, and again when the tail position fell
        behind a log compaction — the base artifact then *is* the newer
        snapshot to fall back to.
        """
        base, version = self.store.load_embedding_set_readonly(self.artifact)
        self.extraction = base.extraction
        self.version = version
        if self.n_shards == 1:
            mine = range(len(self.extraction.records))
        else:
            mine = [
                record.index
                for record in self.extraction.records
                if stable_shard(record.category, record.text, self.n_shards)
                == self.shard_id
            ]
        self.local_ids = np.asarray(mine, dtype=np.int64)
        # the only materialised vectors: this shard's rows, copied out of
        # the shared read-only mapping (1/n_shards of the matrix)
        self.vectors = np.array(base.matrix[self.local_ids], dtype=np.float64)
        self._scopes: dict[str | None, tuple[np.ndarray, VectorIndex]] = {}

    def sync_to_latest(self) -> None:
        """Tail the log; fall back to the base snapshot past a compaction.

        A compaction that pruned the record this worker would replay next
        raises :class:`StoreFormatError` (missing chain link).  When the
        base snapshot has moved *past* our position, the snapshot is the
        recovery path: re-bootstrap from it and resume tailing.  A gap the
        base does not cover is real corruption and re-raises.
        """
        try:
            # a StoreFormatError here is usually transient (a concurrent
            # append between the writer's matrix and header commits):
            # jittered retries absorb it without touching the snapshot
            _SYNC_RETRY.call(self._replay, retry_on=(StoreFormatError,))
        except StoreFormatError:
            if self.store.base_version(self.artifact) <= self.version:
                raise
            self.bootstrap()
            self._replay()

    def _replay(self) -> None:
        latest = self.store.latest_version(self.artifact)
        while self.version < latest:
            record = self.store.read_embedding_set_delta(
                self.artifact, self.version + 1
            )
            self.apply_record(record)

    def apply_record(self, record) -> None:
        delta_map = self.extraction.apply_delta(record.extraction_delta)
        # survivors: remap to the new global numbering, drop removed rows
        new_ids = delta_map.old_to_new[self.local_ids]
        keep = new_ids >= 0
        ids = new_ids[keep]
        vectors = self.vectors[keep]
        # rows the delta added that hash into this shard
        records = self.extraction.records
        added_positions = [
            position
            for position, global_id in enumerate(record.added_indices)
            if stable_shard(
                records[global_id].category, records[global_id].text,
                self.n_shards,
            ) == self.shard_id
        ]
        if added_positions:
            if record.added_matrix is None:
                raise ServingError(
                    f"delta record v{record.version} lacks added vectors"
                )
            added_ids = np.asarray(
                [record.added_indices[p] for p in added_positions],
                dtype=np.int64,
            )
            ids = np.concatenate((ids, added_ids))
            vectors = np.vstack(
                (vectors, record.added_matrix[added_positions])
            )
        # keep ids ascending: scope subsets stay ordered by global id,
        # which is what makes per-shard ties merge exactly like the
        # single-index tie-stable top-k
        order = np.argsort(ids)
        ids = ids[order]
        vectors = vectors[order]
        if record.changed_rows and ids.size:
            changed = np.asarray(record.changed_rows, dtype=np.int64)
            positions = np.searchsorted(ids, changed)
            clamped = np.minimum(positions, ids.size - 1)
            hit = (positions < ids.size) & (ids[clamped] == changed)
            if hit.any():
                if record.changed_matrix is None:
                    raise ServingError(
                        f"delta record v{record.version} lacks changed vectors"
                    )
                vectors[positions[hit]] = record.changed_matrix[hit]
        self.local_ids = ids
        self.vectors = vectors
        self._scopes.clear()
        self.version = record.version

    def _build_index(self, vectors: np.ndarray) -> VectorIndex:
        """One scope index of the configured kind over ``vectors``.

        Empty scopes always get a flat index: brute force over nothing is
        free, and the trained kinds reject empty matrices.
        """
        if self.index_kind == "flat" or vectors.shape[0] == 0:
            return FlatIndex(vectors, metric=self.metric)
        from repro.serving.session import index_factory_for

        factory = index_factory_for(
            self.index_kind, metric=self.metric, **self.index_params
        )
        return factory(vectors)

    def _scope(self, category: str | None) -> tuple[np.ndarray, VectorIndex]:
        cached = self._scopes.get(category)
        if cached is not None:
            return cached
        if category is None:
            positions = np.arange(self.local_ids.size)
        else:
            members = np.asarray(
                self.extraction.categories.get(category, []), dtype=np.int64
            )
            positions = np.nonzero(np.isin(self.local_ids, members))[0]
        scope_ids = self.local_ids[positions]
        index = self._build_index(self.vectors[positions])
        self._scopes[category] = (scope_ids, index)
        return scope_ids, index

    def query(
        self, queries: np.ndarray, k: int, category: str | None
    ) -> list[list[tuple[float, int, str, str]]]:
        """Per-shard top-k, one ``(-score, global id, category, text)``
        list per query row — negated, so the rows merge in plain tuple
        order.

        Decoration happens *here*, against this worker's extraction at
        exactly the version it answers with — the front never maps ids
        through a catalog that may have moved past this worker.
        Non-finite scores are dropped.
        """
        scope_ids, index = self._scope(category)
        if scope_ids.size == 0:
            return [[] for _ in range(queries.shape[0])]
        indices, scores = index.query_batch(queries, k)
        records = self.extraction.records
        return [
            [
                (-score, i, records[i].category, records[i].text)
                for i, score, finite in zip(ids, row_scores, row_finite)
                if finite
            ]
            for ids, row_scores, row_finite in zip(
                scope_ids[indices].tolist(),
                scores.tolist(),
                np.isfinite(scores).tolist(),
            )
        ]


# --------------------------------------------------------------------- #
# worker processes
# --------------------------------------------------------------------- #
def _serve(
    conn, parent_pid: int, handlers: dict, idle=None,
    poll_interval: float = _POLL_INTERVAL,
) -> None:
    """The paired request/reply loop of every tier process.

    A request is ``(command, request_id, *args)``; ``handlers[command]``
    returns the reply without the id (``None`` sends nothing), and the
    reply goes out as ``(kind, request_id, *rest)``.  ``idle`` runs before
    every poll of at most ``poll_interval`` seconds.  A handler's
    exception is answered as an ``error`` reply, never fatal.  The loop
    ends on ``stop``, a closed pipe, or when the parent died without a
    clean stop.
    """
    while True:
        if idle is not None:
            idle()
        if not conn.poll(poll_interval):
            if os.getppid() != parent_pid:
                return  # orphaned: the front died without a clean stop
            continue
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        command = message[0]
        if command == "stop":
            return
        try:
            handler = handlers.get(command)
            if handler is None:
                raise ServingError(f"unknown command {command!r}")
            reply = handler(*message[2:])
        except Exception as error:  # noqa: BLE001 - reply, don't die
            reply = ("error", f"{type(error).__name__}: {error}")
        if reply is not None:
            conn.send((reply[0], message[1], *reply[1:]))


def _start_or_report(conn, build):
    """Run ``build()``; on failure tell the front why and return ``None``."""
    try:
        return build()
    except Exception as error:  # noqa: BLE001 - reported to the front
        try:
            conn.send(("init-failed", f"{type(error).__name__}: {error}"))
        finally:
            conn.close()
        return None


class _LocalReplica:
    """A worker's rows behind the one lock every access in the worker holds.

    The tail, the pipe commands and a guest's reads run on different
    threads; one lock around replay and read means an answer's ids,
    vectors and scope index come from one version, the one it reports.
    A guest reads through :meth:`topk_batch_versioned`, at or past both
    ``min_version`` and the tier's published version (``published``,
    shared memory the tier raises before any ticket resolves).
    """

    def __init__(self, state: _ShardState, published) -> None:
        self.state = state
        self.lock = threading.Lock()
        self._published = published
        self.dimension = int(state.vectors.shape[1])

    def read(self, queries, k: int, category, floor: int) -> tuple[int, list]:
        """``(version, rows)`` of :meth:`_ShardState.query` at or past
        ``floor``; an unknown category syncs once before it is refused."""
        state = self.state
        with self.lock:
            if state.version < floor:
                state.sync_to_latest()
            if category is not None and category not in state.extraction.categories:
                state.sync_to_latest()  # a delta not replayed yet may add it
                if category not in state.extraction.categories:
                    raise ExtractionError(f"unknown category {category!r}")
            return state.version, state.query(queries, k, category)

    def sync(self) -> int:
        with self.lock:
            self.state.sync_to_latest()
            return self.state.version

    def topk_batch_versioned(
        self, vectors, k: int = 10, category: str | None = None,
        min_version: int | None = None,
    ) -> tuple[int, list[list[tuple[str, str, float]]]]:
        # a co-batched floor never lowers the published one
        floor = max(self._published.value, min_version or 0)
        queries = np.asarray(vectors, dtype=np.float64)
        version, rows = self.read(queries, int(k), category, floor)
        return version, _merge([rows], int(k))


def _worker(
    shard_id: int,
    n_shards: int,
    store: EmbeddingStore,
    artifact: str,
    metric: str,
    index_kind: str,
    index_params: dict,
    tail_interval: float,
    published,
    guest,
    conn,
    parent_pid: int,
) -> None:
    """Grid worker: tail the log for one shard slice, answer reads.

    Idle cycles tail the log every ``tail_interval`` seconds so
    replication lag stays bounded even with no queries arriving; a query
    whose floor is past this worker's position replays first.  A
    ``guest`` is started over the worker's :class:`_LocalReplica` before
    the worker reports ready, and closed when the worker's loop ends.
    """
    # the inherited heap is the parent's: without this, each full cyclic
    # collection walks it (0.12 s at perfbench's corpus, one during the
    # bootstrap alone) and copies the pages it touches
    gc.freeze()

    def build() -> _LocalReplica:
        replica = _LocalReplica(_ShardState(
            store, artifact, shard_id, n_shards, metric,
            index_kind=index_kind, index_params=index_params,
        ), published)
        if guest is not None:
            guest.start(replica)
        return replica

    try:
        replica = _start_or_report(conn, build)
        if replica is None:
            return
        conn.send(("ready", replica.state.version))
        last_tail = time.monotonic()

        def tail() -> None:
            # checked before every poll: a continuous command stream
            # (health pings, a busy read front) must never starve
            # replication
            nonlocal last_tail
            if time.monotonic() - last_tail < tail_interval:
                return
            try:
                replica.sync()
            except StoreFormatError:
                pass  # a half-committed append; the next tick retries
            last_tail = time.monotonic()

        def query(queries, k, category, floor):
            faults.fire("shard.worker", "before")
            version, rows = replica.read(queries, int(k), category, floor)
            if faults.should_drop("shard.pipe_send"):
                return None  # injected: the response never leaves the worker
            return ("result", version, rows)

        def dump():
            with replica.lock:
                state = replica.state
                return ("state", state.version, state.local_ids, state.vectors)

        # wake on the tail clock, not only on requests: tailing in idle
        # gaps keeps it off the path of the next query
        _serve(conn, parent_pid, {
            "query": query,
            "sync": lambda: ("synced", replica.sync()),
            "ping": lambda: ("pong", replica.state.version),
            "dump": dump,
        }, idle=tail, poll_interval=min(_POLL_INTERVAL, tail_interval))
    finally:
        if guest is not None:
            guest.close()


def _applier_worker(
    store_root: str,
    artifact: str,
    database,
    retrofitter,
    retrofitter_factory,
    solve_iterations,
    conn,
    parent_pid: int,
) -> None:
    """The primary: validate → retrofit → append a delta record.

    Started with the caller's ``retrofitter``, or — respawned after a
    primary death, with ``retrofitter=None`` — with one built by
    ``retrofitter_factory`` over the store's latest version.  A delta
    rejected by write-ahead validation provably left the database
    untouched (a healthy failure); any later failure means the database
    and the log may disagree, so this process refuses every further
    delta and the front replaces it.
    """
    store = EmbeddingStore(store_root)

    def build():
        if retrofitter is not None:
            return retrofitter
        embeddings, _, _ = store.load_embedding_set_versioned(artifact)
        return retrofitter_factory(embeddings)

    solver = _start_or_report(conn, build)
    if solver is None:
        return
    version = store.latest_version(artifact)
    degraded: str | None = None
    conn.send(("ready", version))

    def apply(delta):
        nonlocal version, degraded
        if degraded is not None:
            return ("failed", degraded, True)
        try:
            delta.validate_against(database)
        except Exception as error:
            return ("failed", f"{type(error).__name__}: {error}", False)
        try:
            faults.fire("runtime.apply", "before")
            update = solver.apply(database, delta, iterations=solve_iterations)
            # the append is the commit: a version a writer observes is
            # durable and reachable by every worker
            faults.fire("runtime.publish", "before")
            store.append_embedding_set_delta(artifact, update)
        except Exception as error:
            degraded = f"{type(error).__name__}: {error}"
            return ("failed", degraded, True)
        version = store.latest_version(artifact)
        return ("applied", version, bool(update.report.converged))

    _serve(conn, parent_pid, {
        "apply": apply,
        "ping": lambda: ("pong", version),
    })


# --------------------------------------------------------------------- #
# the front
# --------------------------------------------------------------------- #
class _Handle:
    """The front's view of one process: pipe, liveness, log position.

    Grid workers carry their ``(shard_id, replica_id)``; the primary has
    neither.
    """

    def __init__(self, shard_id: int | None = None, replica_id: int | None = None):
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.process = None
        self.conn = None
        self.lock = threading.Lock()
        self.alive = False
        self.respawning = False
        # after a respawn gave up: how often in a row, and when the
        # heartbeat tries again (None while nothing is pending)
        self.respawn_failures = 0
        self.retry_at: float | None = None
        self.version = 0  # last position learned from a reply/heartbeat
        self.missed_heartbeats = 0
        self._next_request = 0

    @property
    def is_primary(self) -> bool:
        return self.shard_id is None

    @property
    def name(self) -> str:
        if self.is_primary:
            return "primary"
        return f"shard {self.shard_id} replica {self.replica_id}"

    def next_request_id(self) -> int:
        self._next_request += 1
        return self._next_request


@dataclass(frozen=True)
class ReplicatedTierStats:
    """Counters of one :class:`ReplicatedServingTier`.

    ``live_followers`` counts live grid workers (every worker follows the
    log); ``n_shards × n_replicas`` is the full grid.  ``queries`` and
    ``degraded_queries`` count the tier's own reads
    (:meth:`ReplicatedServingTier.topk_batch_versioned`); a read that a
    hosted front answers inside its worker is counted by that front.
    """

    n_shards: int
    n_replicas: int
    live_followers: int
    log_version: int
    min_follower_version: int
    max_follower_version: int
    queries: int
    degraded_queries: int
    follower_respawns: int
    failovers: int
    last_failover_seconds: float | None
    writes_submitted: int
    writes_applied: int
    write_failures: int
    writes_rate_limited: int
    #: Acked writes whose refinement rounds ran out with rows still over
    #: the residual tolerance (``SolverReport.converged`` was ``False``).
    writes_uncertified: int


class _Stopping(Exception):
    """A respawn attempt found the tier stopping."""


def _merge(answers: list, k: int) -> list[list[tuple[str, str, float]]]:
    """Fold per-shard answers into the exact global top-k.

    Tuple order on ``(-score, global id)`` is ``(score descending,
    global id ascending)`` — exactly the tie-stable contract of
    :func:`repro.serving.index.topk_descending`, so the merged rows equal
    the single-index result row for row.
    """
    merged = []
    for rows in zip(*answers):
        hits = sorted(hit for row in rows for hit in row)[:k]
        merged.append([(category, text, -neg) for neg, _, category, text in hits])
    return merged


class ReplicatedServingTier:
    """Top-k serving from an ``n_shards × n_replicas`` grid of workers.

    The tier serves one ``embedding_set`` artifact.  :meth:`start` forks
    the grid and — when ``database``/``retrofitter`` are given — one
    primary process owning them (the caller must not touch either
    afterwards).  Reads go through :meth:`topk`/:meth:`topk_batch`/
    :meth:`topk_batch_versioned`; pass ``min_version`` (a resolved
    :attr:`UpdateTicket.version`) to read at-or-past a log position —
    without it a read is floored at :attr:`published_version`.  Writes go
    through :meth:`submit` → a :class:`~repro.serving.runtime.WriteCore`
    → the primary, which appends each applied update to the log before
    the ticket resolves.

    ``retrofitter_factory`` — a fork-inheritable callable ``embeddings ->
    IncrementalRetrofitter`` — arms primary failover: a dead primary is
    respawned over the store's latest version with the front's database
    mirror and writes resume.  Without it the tier still detects the
    death and keeps serving reads, but writes fail.

    ``index_kind``/``index_params`` pick each worker's per-scope index
    (flat/ivf/pq/nsw).
    """

    def __init__(
        self,
        store_root: str | Path,
        artifact: str,
        n_replicas: int = 2,
        n_shards: int = 1,
        database=None,
        retrofitter=None,
        retrofitter_factory=None,
        metric: str = "cosine",
        solve_iterations: int | None = None,
        queue_capacity: int = 64,
        coalesce: bool = True,
        max_coalesced_ops: int = 1024,
        write_rate_limit: RateLimiter | None = None,
        query_timeout: float = 30.0,
        index_kind: str = "flat",
        index_params: dict | None = None,
        heartbeat_interval: float = 0.25,
        heartbeat_misses: int = 4,
        tail_interval: float = 0.05,
    ) -> None:
        if n_replicas < 1 or n_shards < 1:
            raise ServingError("n_shards and n_replicas must be at least 1")
        if index_kind not in ("flat", "ivf", "pq", "nsw"):
            raise ServingError(
                f"unknown index kind {index_kind!r}; pick one of "
                "flat/ivf/pq/nsw"
            )
        if (database is None) != (retrofitter is None):
            raise ServingError(
                "writer side needs both database and retrofitter (or neither)"
            )
        self._store_root = str(store_root)
        self._store = EmbeddingStore(store_root)
        self._artifact = artifact
        self.n_shards = int(n_shards)
        self.n_replicas = int(n_replicas)
        self._metric = metric
        self._index_kind = index_kind
        self._index_params = dict(index_params or {})
        self._database = database  # the front's mirror after start()
        self._retrofitter = retrofitter  # handed to the first primary only
        self._retrofitter_factory = retrofitter_factory
        self._solve_iterations = solve_iterations
        self._query_timeout = float(query_timeout)
        self._heartbeat_interval = float(heartbeat_interval)
        self._heartbeat_misses = int(heartbeat_misses)
        self._tail_interval = float(tail_interval)
        self._context = multiprocessing.get_context("fork")

        self._grid = [
            [_Handle(shard, replica) for replica in range(self.n_replicas)]
            for shard in range(self.n_shards)
        ]
        self._primary: _Handle | None = None
        self._events = EventLog("replicated")
        # started only with a writer side (a database and a retrofitter)
        self._writes = WriteCore(
            "replicated tier",
            self._apply,
            lambda: self._version,
            self._events,
            queue_capacity=queue_capacity,
            coalesce=coalesce,
            max_coalesced_ops=max_coalesced_ops,
            rate_limit=write_rate_limit,
        )
        self._heartbeat_thread: threading.Thread | None = None
        self._heartbeat_stop = threading.Event()

        # the database mirror and failover are shared between the writer
        # and heartbeat threads; reads only need the per-handle locks
        self._db_lock = threading.Lock()
        self._failover_lock = threading.Lock()
        self._lifecycle_lock = threading.Lock()
        self._respawns: set[threading.Thread] = set()  # in flight
        self._started = False
        self._stopped = False
        self._floor_lock = threading.Lock()
        self._version = 0  # newest log version a read must reflect
        # the same floor in shared memory, for reads inside the workers
        self._published = self._context.RawValue("q", 0)
        self._catalog = None  # extraction metadata for category listing
        self._catalog_version = 0
        self._dimension: int | None = None
        self._rr_counter = 0

        self._n_queries = 0
        self._n_degraded = 0
        self._n_respawns = 0
        self._n_failovers = 0
        self._last_failover_seconds: float | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _workers(self) -> list[_Handle]:
        return [handle for shard in self._grid for handle in shard]

    def start(self) -> "ReplicatedServingTier":
        """Fork the grid (and the primary); idempotent."""
        if self._started:
            return self
        if self._stopped:
            raise ServingError("cannot restart a stopped replicated tier")
        # extract the mmap sidecar once, before forking: N workers racing
        # the first extraction would each decompress the archive
        base, version = self._store.load_embedding_set_readonly(self._artifact)
        self._dimension = int(base.matrix.shape[1])
        self._catalog = base.extraction
        self._catalog_version = version
        self._sync_catalog(self._store.latest_version(self._artifact))
        self._advance(self._catalog_version)
        for handle in self._workers():
            self._spawn_worker(handle)
        for handle in self._workers():
            self._await_ready(handle, self._query_timeout)
        if self._database is not None:
            self._spawn_primary(self._retrofitter)
            self._retrofitter = None
            self._writes.start()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="replica-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()
        self._started = True
        return self

    def _spawn(self, handle: _Handle, target, *args) -> None:
        parent, child = self._context.Pipe()
        handle.conn = parent
        handle.process = self._context.Process(
            target=target,
            args=(*args, child, os.getpid()),
            daemon=True,
            name=f"replicated-{handle.name.replace(' ', '-')}",
        )
        handle.process.start()
        child.close()

    def _spawn_worker(self, handle: _Handle, guest=None) -> None:
        # the store object, not its root: the fork inherits its warm
        # base-version cache, one header parse less per bootstrap
        self._spawn(
            handle, _worker, handle.shard_id, self.n_shards,
            self._store, self._artifact, self._metric,
            self._index_kind, self._index_params, self._tail_interval,
            self._published, guest,
        )

    def _spawn_primary(self, retrofitter) -> None:
        """Fork a primary over the front's database mirror; wait for it."""
        handle = _Handle()
        with self._db_lock:
            self._spawn(
                handle, _applier_worker, self._store_root, self._artifact,
                self._database, retrofitter, self._retrofitter_factory,
                self._solve_iterations,
            )
        try:
            self._await_ready(handle, _PRIMARY_TIMEOUT)
        except ServingError:
            self._terminate(handle)
            raise
        self._advance(handle.version)
        self._primary = handle

    def _await_ready(self, handle: _Handle, timeout: float) -> None:
        if not handle.conn.poll(timeout):
            raise ServingError(
                f"{handle.name} did not come up within {timeout}s"
            )
        message = handle.conn.recv()
        if message[0] != "ready":
            raise ServingError(
                f"{handle.name} failed to initialise: {message[-1]}"
            )
        handle.version = int(message[1])
        handle.missed_heartbeats = 0
        handle.alive = True

    def host(self, guests) -> dict:
        """Fork fresh replicas that each host a guest; ``{replica: process}``.

        ``guests`` yields ``(replica id, guest)`` pairs of a one-shard
        grid.  A guest is forked into its new worker, so it may carry what
        cannot be pickled (an ``ssl.SSLContext``); there the worker calls
        ``guest.start(replica)`` once its rows are loaded (``replica``
        answers ``topk_batch_versioned`` from them, at or past
        :attr:`published_version`) and ``guest.close()`` when it stops.
        ``guest.forked()`` runs here right after the fork, before the next
        pair is drawn.  Each old worker serves until every new one is
        ready; a replica that dies later respawns without its guest.
        """
        if self.n_shards != 1:
            raise ServingError("only a one-shard grid can host guests")
        if not self._started or self._stopped:
            raise ServingError("replicated tier is not running — call start()")
        fresh: dict[int, _Handle] = {}
        ready = False
        try:
            for replica, guest in guests:
                with self._lifecycle_lock:
                    if self._stopped or self._grid[0][replica].respawning:
                        raise ServingError(f"replica {replica} is not steady")
                    self._grid[0][replica].respawning = True  # heartbeat: hands off
                    fresh[replica] = _Handle(0, replica)
                    self._spawn_worker(fresh[replica], guest)
                    guest.forked()
            for new in fresh.values():
                self._await_ready(new, self._query_timeout)
            ready = True
        finally:
            # stop() either sees a new process or it is never swapped in
            with self._lifecycle_lock:
                for replica, new in fresh.items():
                    handle = self._grid[0][replica]
                    handle.respawning = False
                    if ready and not self._stopped:
                        with handle.lock:
                            handle.process, new.process = new.process, handle.process
                            handle.conn, new.conn = new.conn, handle.conn
                            handle.version, handle.alive = new.version, True
                            handle.missed_heartbeats = 0
                    self._terminate(new)  # the old worker, or a failed new one
                    if new.conn is not None:
                        new.conn.close()
        return {replica: self._grid[0][replica].process for replica in fresh}

    def stop(self, flush: bool = True, timeout: float | None = 30.0) -> None:
        """Stop the heartbeat, writer and every process of the tier."""
        if not self._started or self._stopped:
            self._stopped = True
            return
        self._heartbeat_stop.set()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout)
        self._writes.stop(flush, timeout)
        # no respawn starts after this; the ones in flight finish (or give
        # up) before the pipes close, so each pipe is closed once, here
        with self._lifecycle_lock:
            self._stopped = True
            respawns = list(self._respawns)
        for thread in respawns:
            thread.join(timeout)
        with self._failover_lock:  # a primary respawn in flight lands first
            handles = self._workers()
            if self._primary is not None:
                handles.append(self._primary)
        for handle in handles:
            if handle.conn is not None:
                self._send_quietly(handle.conn, ("stop",))
        for handle in handles:
            if handle.process is not None:
                handle.process.join(timeout)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(5.0)
            if handle.conn is not None:
                handle.conn.close()
            handle.alive = False

    @staticmethod
    def _send_quietly(conn, message) -> None:
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):
            pass

    def __enter__(self) -> "ReplicatedServingTier":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(flush=exc_type is None)

    # ------------------------------------------------------------------ #
    # request/response plumbing
    # ------------------------------------------------------------------ #
    def _exchange(self, handle: _Handle, payload: tuple, timeout: float | None):
        """One paired request/response on a process's pipe.

        ``payload`` is ``(command, *args)``.  ``timeout=None`` waits as
        long as the process stays alive (the apply path runs a full solver
        pass).  Pipe death raises :class:`EOFError` — callers decide
        between re-routing and failover.
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        with handle.lock:
            request_id = self._send(handle, payload)
            return self._receive(handle, payload[0], request_id, deadline)

    @staticmethod
    def _send(handle: _Handle, payload: tuple) -> int:
        """Send ``payload`` with a fresh request id threaded in at
        position 1; the caller holds ``handle.lock`` until it received
        the reply."""
        request_id = handle.next_request_id()
        handle.conn.send((payload[0], request_id, *payload[1:]))
        return request_id

    @staticmethod
    def _receive(handle: _Handle, command: str, request_id: int, deadline):
        """The reply to ``request_id``, verified; ``deadline=None`` waits
        as long as the process lives."""
        while not handle.conn.poll(_POLL_INTERVAL):
            if not handle.process.is_alive():
                raise EOFError(f"{handle.name} exited")
            if deadline is not None and time.perf_counter() >= deadline:
                raise ServingError(
                    f"{handle.name} did not answer {command!r} in time"
                )
        reply = handle.conn.recv()
        if reply[0] == "error":
            raise ServingError(f"{handle.name} rejected {command!r}: {reply[2]}")
        if reply[1] != request_id:
            raise EOFError("response pairing broken")
        return reply

    def _note_death(self, handle: _Handle) -> None:
        """A process stopped answering: respawn workers off the caller's
        path.  A dead primary is replaced by :meth:`_ensure_primary`."""
        handle.alive = False
        self._events.emit(
            "replica_dead",
            shard=handle.shard_id,
            replica=handle.replica_id,
            role="primary" if handle.is_primary else "follower",
            reason="pipe broken or heartbeat lost",
        )
        if not handle.is_primary:
            self._start_respawn(handle)

    def _start_respawn(self, handle: _Handle) -> None:
        """Respawn a worker on a thread of its own, unless one is already
        running or the tier is stopping."""
        with self._lifecycle_lock:
            if handle.respawning or self._stopped:
                return
            handle.respawning = True
            handle.retry_at = None
            thread = threading.Thread(
                target=self._respawn_worker, args=(handle,),
                name=f"respawn-{handle.name.replace(' ', '-')}", daemon=True,
            )
            self._respawns.add(thread)
        self._n_respawns += 1
        thread.start()

    def _respawn_once(self, handle: _Handle) -> None:
        """One respawn attempt (retried by :data:`_RESPAWN_RETRY`)."""
        if faults.should_fail_spawn("repl.respawn"):
            raise ServingError(f"injected spawn failure for {handle.name}")
        # forking under the lifecycle lock: stop() either sees the new
        # process or no new process starts
        with self._lifecycle_lock:
            if self._stopped:
                raise _Stopping()
            # the dead process, or an attempt that never came up
            self._terminate(handle)
            if handle.conn is not None:
                handle.conn.close()
            self._spawn_worker(handle)
        self._await_ready(handle, self._query_timeout)

    def _respawn_worker(self, handle: _Handle) -> None:
        try:
            _RESPAWN_RETRY.call(
                lambda: self._respawn_once(handle),
                retry_on=(ServingError, OSError),
                # stop() wakes a backoff at once
                sleep=self._heartbeat_stop.wait,
                on_retry=lambda attempt, error, delay: self._events.emit(
                    "follower_respawn_retry",
                    shard=handle.shard_id,
                    replica=handle.replica_id,
                    attempt=attempt + 1,
                    reason=str(error),
                    backoff_s=round(delay, 4),
                ),
            )
            if self._stopped:  # stop() owns the new process and its pipe
                return
            handle.respawn_failures = 0
            self._events.emit(
                "follower_respawned",
                shard=handle.shard_id,
                replica=handle.replica_id,
            )
        except _Stopping:
            pass
        except Exception as error:
            # stays degraded until the heartbeat retries, with backoff
            handle.alive = False
            handle.respawn_failures += 1
            handle.retry_at = time.monotonic() + _RESPAWN_RETRY.backoff_cap(
                handle.respawn_failures
            )
            self._events.emit(
                "follower_respawn_failed",
                shard=handle.shard_id,
                replica=handle.replica_id,
                reason=str(error),
            )
        finally:
            with self._lifecycle_lock:
                handle.respawning = False
                self._respawns.discard(threading.current_thread())

    @staticmethod
    def _terminate(handle: _Handle) -> None:
        handle.alive = False
        if handle.process is not None:
            handle.process.join(timeout=0.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(5.0)

    # ------------------------------------------------------------------ #
    # heartbeats and failover
    # ------------------------------------------------------------------ #
    def _heartbeat_loop(self) -> None:
        while not self._heartbeat_stop.wait(self._heartbeat_interval):
            handles = self._workers()
            if self._primary is not None:
                handles.append(self._primary)
            for handle in handles:
                if self._stopped:
                    return
                if (
                    not handle.alive and not handle.respawning
                    and handle.retry_at is not None
                    and time.monotonic() >= handle.retry_at
                ):
                    self._start_respawn(handle)  # an earlier respawn gave up
                if handle.respawning or not handle.alive:
                    continue
                if handle.process is None or not handle.process.is_alive():
                    self._on_heartbeat_death(handle)
                    continue
                # don't queue a ping behind a long exchange (apply/query):
                # a busy pipe with a live process is not a dead process
                if not handle.lock.acquire(timeout=0.02):
                    continue
                handle.lock.release()
                if faults.should_drop("repl.heartbeat"):
                    # injected: the ping is lost in flight — a miss, not
                    # proof of death; only repeated losses fail the node
                    self._missed_heartbeat(handle)
                    continue
                try:
                    reply = self._exchange(
                        handle, ("ping",), timeout=self._heartbeat_interval
                    )
                except (BrokenPipeError, EOFError, OSError):
                    self._on_heartbeat_death(handle)
                    continue
                except ServingError:
                    self._missed_heartbeat(handle)
                    continue
                handle.missed_heartbeats = 0
                handle.version = max(handle.version, int(reply[2]))

    def _missed_heartbeat(self, handle: _Handle) -> None:
        handle.missed_heartbeats += 1
        if handle.missed_heartbeats >= self._heartbeat_misses:
            self._on_heartbeat_death(handle)

    def _on_heartbeat_death(self, handle: _Handle) -> None:
        self._note_death(handle)
        if handle.is_primary and not self._stopped:
            # respawn proactively — failover time must not wait for the
            # next write to arrive and find the primary gone
            try:
                self._ensure_primary()
            except ServingError:
                pass  # latched in the write core; reads keep working

    def _ensure_primary(self) -> _Handle:
        """The live primary, respawning it from the store if it died.

        Idempotent and serialised: concurrent detection by the writer and
        heartbeat threads performs one respawn.  Raises
        :class:`ServingError` when the tier is stopping, and latches
        write-degraded too when no primary can be brought back.
        """
        with self._failover_lock:
            primary = self._primary
            if (
                primary is not None and primary.alive
                and primary.process is not None and primary.process.is_alive()
            ):
                return primary
            if self._stopped:
                raise ServingError("replicated tier is stopping")
            if self._retrofitter_factory is None:
                raise self._writes.degrade(ServingError(
                    "primary died and no retrofitter_factory was configured "
                    "— cannot respawn it"
                ))
            started = time.perf_counter()
            if primary is not None:
                self._terminate(primary)
                primary.conn.close()
            try:
                faults.fire("repl.primary_respawn", "before")
                # the front's mirror holds exactly the acked deltas, which
                # is exactly what the log holds: the new primary starts
                # aligned with both
                self._spawn_primary(None)
            except (ServingError, OSError, faults.FaultInjected) as error:
                raise self._writes.degrade(
                    ServingError(f"primary respawn failed: {error!r}")
                ) from None
            self._n_failovers += 1
            self._last_failover_seconds = time.perf_counter() - started
            self._events.emit(
                "primary_respawned",
                version=self._primary.version,
                reason="primary dead; respawned from the store's latest version",
                failover_s=round(self._last_failover_seconds, 4),
            )
            return self._primary

    # ------------------------------------------------------------------ #
    # writer side
    # ------------------------------------------------------------------ #
    def submit(
        self,
        delta,
        timeout: float | None = None,
        submission_id: str | None = None,
    ) -> UpdateTicket:
        """Queue a delta for the primary (:meth:`WriteCore.submit`).

        The resolved :attr:`UpdateTicket.version` is the store *log*
        version the update published at — a read-your-writes floor for
        :meth:`topk`.
        """
        if self._database is None:
            raise ServingError("this tier has no writer side (no retrofitter)")
        return self._writes.submit(
            delta, timeout=timeout, submission_id=submission_id
        )

    def flush(self, timeout: float | None = None) -> None:
        """Block until every submitted delta has been applied (or failed)."""
        self._writes.flush(timeout)

    def _apply(self, delta, publish) -> None:
        """The tier's apply step: one batch through the primary."""
        for _ in (0, 1):
            primary = self._ensure_primary()
            # the log decides an in-flight write's fate: the tier is the
            # single writer, so any version past this one is *our* delta
            pre_version = self._store.latest_version(self._artifact)
            try:
                reply = self._exchange(primary, ("apply", delta), timeout=None)
            except (BrokenPipeError, EOFError, OSError):
                self._note_death(primary)
                version = self._store.latest_version(self._artifact)
                if version > pre_version:
                    # the append committed before the crash — the write
                    # is durable and every worker will replay it
                    certified = True
                    break
                continue  # provably not in the log: retry once, respawned
            if reply[0] == "applied":
                _, _, version, certified = reply
                break
            _, _, message, degraded = reply
            if degraded:
                # the primary's private database diverged from the log;
                # the front's mirror holds only acked deltas, so
                # replacing the primary restores a consistent writer —
                # this batch still fails (it was rejected), but the
                # *next* write goes through
                self._terminate(primary)
                self._note_death(primary)
            raise ServingError(message)
        else:
            raise ServingError("primary died twice while applying one delta")
        # mirror the acked delta into the front's database copy *before*
        # tickets resolve: a primary respawned after this write must
        # start from a mirror that includes it
        with self._db_lock:
            delta.apply_to(self._database)
        self._advance(version)
        publish(int(version), bool(certified))

    def _advance(self, version: int) -> None:
        """Raise the read floor (never lower it: reads are monotonic)."""
        with self._floor_lock:
            self._version = max(self._version, int(version))
            self._published.value = self._version

    # ------------------------------------------------------------------ #
    # reader side
    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        """Dimensionality of the served vectors."""
        if self._dimension is None:
            raise ServingError("replicated tier is not running — call start()")
        return self._dimension

    @property
    def published_version(self) -> int:
        """Newest log version a read without ``min_version`` reflects."""
        return self._version

    @property
    def categories(self) -> list[str]:
        """All servable categories at the front's current catalog."""
        if self._catalog is None:
            raise ServingError("replicated tier is not running — call start()")
        return list(self._catalog.categories)

    def topk(
        self,
        vector: np.ndarray,
        k: int = 10,
        category: str | None = None,
        min_version: int | None = None,
    ) -> list[tuple[str, str, float]]:
        """Top-``k`` ``(category, text, score)`` triples for one query.

        ``min_version`` is the read-your-writes knob: pass a resolved
        :attr:`UpdateTicket.version` and every answering worker is
        at-or-past that log position (routing prefers workers already
        there; a lagging one replays the log before answering).
        """
        vector = np.asarray(vector, dtype=np.float64)
        if vector.ndim != 1:
            raise ServingError("topk expects a single query vector")
        return self.topk_batch(
            vector[None, :], k, category=category, min_version=min_version
        )[0]

    def topk_batch(
        self,
        vectors,
        k: int = 10,
        category: str | None = None,
        min_version: int | None = None,
    ) -> list[list[tuple[str, str, float]]]:
        """Exact batched top-k across the shards (see :meth:`topk`)."""
        return self.topk_batch_versioned(
            vectors, k, category=category, min_version=min_version
        )[1]

    def topk_batch_versioned(
        self,
        vectors,
        k: int = 10,
        category: str | None = None,
        min_version: int | None = None,
    ) -> tuple[int, list[list[tuple[str, str, float]]]]:
        """``(answered_version, results)`` — the HTTP front reports both."""
        queries = np.asarray(vectors, dtype=np.float64)
        if queries.ndim != 2:
            raise ServingError("topk_batch expects a (batch, dimension) matrix")
        if self._dimension is not None and queries.shape[1] != self._dimension:
            raise ServingError(
                f"query batch has shape {queries.shape}, expected "
                f"(batch, {self._dimension})"
            )
        if not self._started or self._stopped:
            raise ServingError("replicated tier is not running — call start()")
        if category is not None and category not in self._catalog.categories:
            # the category may have been added by a delta the lazy front
            # catalog has not replayed yet — sync before rejecting
            self._sync_catalog(self._store.latest_version(self._artifact))
            if category not in self._catalog.categories:
                raise ExtractionError(f"unknown category {category!r}")
        self._n_queries += 1
        floor = self._version if min_version is None else int(min_version)
        request = (queries, int(k), category)
        answers: dict[int, tuple[int, list]] = {}
        pending = list(range(self.n_shards))
        left_out = False
        for _ in range(_MAX_VERSION_ROUNDS):
            for shard, answer in self._scatter(pending, request, floor).items():
                if answer is None:
                    left_out = True
                    answers.pop(shard, None)
                else:
                    answers[shard] = answer
            if not answers:
                break
            newest = max(version for version, _ in answers.values())
            # a publish landed mid-scatter: re-ask the lagging shards at
            # the newest version so one answer set is self-consistent
            pending = [s for s, (v, _) in answers.items() if v < newest]
            if not pending:
                break
            floor = newest
        else:
            raise ServingError(
                "shards kept answering at diverging versions — store "
                "replay cannot keep up"
            )
        if left_out:
            self._n_degraded += 1
        if not answers:
            raise ServingError("every follower replica is down")
        self._advance(newest)
        return newest, _merge([answers[s][1] for s in sorted(answers)], int(k))

    def _scatter(self, shards: list[int], request: tuple, floor: int) -> dict:
        """``{shard: (version, rows)}`` from one live replica per shard,
        ``None`` for a shard with no live replica left.

        A replica whose pipe broke is replaced by another of its shard in
        the next round, so a dead replica's read re-routes.
        """
        answers = dict.fromkeys(shards)
        tried: dict[int, list[_Handle]] = {shard: [] for shard in shards}
        pending = list(shards)
        while pending:
            picked = []
            for shard in pending:
                handle = self._pick_replica(shard, floor, tried[shard])
                if handle is not None:
                    tried[shard].append(handle)
                    picked.append((shard, handle))
            replies = self._ask_each(picked, ("query", *request, floor))
            pending = []
            for shard, handle in picked:
                reply = replies.get(shard)
                if reply is None:
                    self._note_death(handle)
                    pending.append(shard)
                    continue
                version = int(reply[2])
                handle.version = max(handle.version, version)
                answers[shard] = (version, reply[3])
        return answers

    def _ask_each(self, picked: list, payload: tuple) -> dict:
        """Send ``payload`` to every ``(shard, handle)`` of ``picked`` and
        return ``{shard: reply}`` for the pipes that answered.

        Every request is sent before any reply is read, so the shards work
        at the same time; locks are taken in grid order.  A timeout or an
        error reply raises — after the other pipes were drained.
        """
        replies, failure = {}, None
        with contextlib.ExitStack() as held:
            sent = []
            for shard, handle in picked:
                held.enter_context(handle.lock)
                try:
                    sent.append((shard, handle, self._send(handle, payload)))
                except (BrokenPipeError, OSError):
                    pass
            deadline = time.perf_counter() + self._query_timeout
            for shard, handle, request_id in sent:
                try:
                    replies[shard] = self._receive(
                        handle, payload[0], request_id, deadline
                    )
                except (BrokenPipeError, EOFError, OSError):
                    pass
                except ServingError as error:
                    failure = failure or error  # drain the other pipes first
        if failure is not None:
            raise failure
        return replies

    def _pick_replica(self, shard: int, floor: int, tried) -> _Handle | None:
        """Round-robin over a shard's live replicas, preferring caught-up
        ones; when every replica lags, any live one is chosen and the
        worker replays the log before answering (correctness never
        depends on the heartbeat's freshness)."""
        alive = [
            h for h in self._grid[shard]
            if h.alive and h.conn is not None and h not in tried
        ]
        if not alive:
            return None
        caught_up = [h for h in alive if h.version >= floor]
        if caught_up:
            alive = caught_up
        self._rr_counter += 1
        return alive[self._rr_counter % len(alive)]

    def _sync_catalog(self, version: int) -> None:
        while self._catalog_version < version:
            try:
                record = self._store.read_embedding_set_delta(
                    self._artifact, self._catalog_version + 1
                )
            except StoreFormatError:
                # compacted past the front's lazy catalog: reload the base
                base, base_version = self._store.load_embedding_set_readonly(
                    self._artifact
                )
                if base_version <= self._catalog_version:
                    raise
                self._catalog = base.extraction
                self._catalog_version = base_version
                continue
            self._catalog.apply_delta(record.extraction_delta)
            self._catalog_version = record.version

    # ------------------------------------------------------------------ #
    # maintenance / introspection
    # ------------------------------------------------------------------ #
    def _ask_live(self, payload: tuple, timeout: float) -> dict:
        """``payload`` to every live worker: ``{(shard, replica): reply}``."""
        replies = {}
        for handle in self._workers():
            if not handle.alive:
                continue
            try:
                reply = self._exchange(handle, payload, timeout=timeout)
            except (BrokenPipeError, EOFError, OSError):
                self._note_death(handle)
                continue
            handle.version = max(handle.version, int(reply[2]))
            replies[(handle.shard_id, handle.replica_id)] = reply
        return replies

    def sync_replicas(self, timeout: float | None = None) -> int:
        """Force every live worker to replay to the store's newest version;
        returns the minimum version the grid reached."""
        timeout = self._query_timeout if timeout is None else timeout
        replies = self._ask_live(("sync",), timeout)
        if not replies:
            raise ServingError("every follower replica is down")
        version = min(int(reply[2]) for reply in replies.values())
        self._advance(version)
        return version

    def replica_versions(self) -> dict[tuple[int, int], int]:
        """Replay position of every live worker (by ping), keyed by
        ``(shard, replica)``."""
        try:
            replies = self._ask_live(("ping",), 5.0)
        except ServingError:
            return {}
        return {key: int(reply[2]) for key, reply in replies.items()}

    def replica_matrix(self) -> tuple[int, np.ndarray]:
        """``(version, full matrix)`` replayed by the grid, rows in global
        id order: every shard's slice from one live replica, each synced
        to the store's newest version first.

        The agreement gate: tests and the benchmark compare this against
        the serial :class:`IncrementalRetrofitter` replay.
        """
        slices = []
        for shard in self._grid:
            handle = next((h for h in shard if h.alive), None)
            if handle is None:
                raise ServingError(f"no live replica of shard {shard[0].shard_id}")
            self._exchange(handle, ("sync",), timeout=self._query_timeout)
            slices.append(
                self._exchange(handle, ("dump",), timeout=self._query_timeout)
            )
        versions = {int(reply[2]) for reply in slices}
        if len(versions) != 1:
            raise ServingError(f"shards synced to diverging versions {versions}")
        rows = sum(reply[3].size for reply in slices)
        matrix = np.empty((rows, self.dimension), dtype=np.float64)
        for reply in slices:
            matrix[reply[3]] = reply[4]
        return versions.pop(), matrix

    def compact(self) -> int:
        """Compact the log, retaining records live workers still need.

        The retention floor is the slowest live worker's announced
        position + 1 — :meth:`EmbeddingStore.compact_embedding_set` keeps
        every record at or past it, so no tailing worker loses a record
        mid-replay.  (A worker that *still* falls behind — e.g. dead
        during compaction, respawned later — recovers via the snapshot
        fallback of its state.)  Returns the compacted-to version.
        """
        positions = self.replica_versions()
        keep_from = min(positions.values()) + 1 if positions else None
        return self._store.compact_embedding_set(
            self._artifact, keep_from=keep_from
        )

    @property
    def live_followers(self) -> int:
        """Number of currently responsive grid workers."""
        return sum(1 for handle in self._workers() if handle.alive)

    @property
    def write_degraded(self) -> bool:
        """Whether writes are refused (no primary could be brought back)."""
        return self._writes.degraded is not None

    def recent_events(self, n: int = 50) -> list[dict]:
        """The tier's latest structured state-transition events."""
        return self._events.tail(n)

    @property
    def failovers(self) -> int:
        """How many times a dead primary was respawned."""
        return self._n_failovers

    @property
    def last_failover_seconds(self) -> float | None:
        """Detection→respawned-primary duration of the latest failover."""
        return self._last_failover_seconds

    @property
    def primary_pid(self) -> int:
        """OS pid of the current primary process.

        Chaos hooks (the benchmark's failover phase, the CI stress test)
        SIGKILL this pid to exercise detection and failover.
        """
        primary = self._primary
        if primary is None or primary.process is None:
            raise ServingError("replicated tier has no primary process")
        return int(primary.process.pid)

    @property
    def stats(self) -> ReplicatedTierStats:
        """A point-in-time snapshot of the tier's counters."""
        writes = self._writes
        versions = [h.version for h in self._workers() if h.alive]
        return ReplicatedTierStats(
            n_shards=self.n_shards,
            n_replicas=self.n_replicas,
            live_followers=self.live_followers,
            log_version=self._version,
            min_follower_version=min(versions, default=0),
            max_follower_version=max(versions, default=0),
            queries=self._n_queries,
            degraded_queries=self._n_degraded,
            follower_respawns=self._n_respawns,
            failovers=self._n_failovers,
            last_failover_seconds=self._last_failover_seconds,
            writes_submitted=writes.queue.stats.submitted,
            writes_applied=writes.applied,
            write_failures=writes.failed,
            writes_rate_limited=writes.rate_limited,
            writes_uncertified=writes.uncertified,
        )
