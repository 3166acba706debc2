"""Concurrent serving benchmark (``repro serve-bench``).

Measures the serving stack under the workload the ROADMAP's north star
describes: many readers querying while a live delta stream updates the
model.  Three phases run over the same settled starting point:

* **baseline** — a single thread issuing every query one at a time
  against a plain :class:`~repro.serving.ServingSession` (the PR 4 state
  of the world),
* **concurrent** — a :class:`~repro.serving.ServingRuntime` (write-ahead
  delta queue + double-buffered snapshot sessions) fronted by a
  :class:`~repro.serving.BatchedQueryFront`; ``readers`` threads each
  keep ``pipeline_depth`` requests in flight (emulating
  ``readers × pipeline_depth`` independent clients) — the steady-state
  throughput the 2×-vs-baseline gate measures,
* **concurrent under churn** — the same read workload while the main
  thread submits ``n_deltas`` synthetic write batches into the queue
  (update lag and the reader-side cost of churn; on one core the
  applier's solver work and the readers share the interpreter, so this
  phase's throughput bounds the worst case, not the steady state).

With ``shards >= 1`` two more phases run the same workloads through a
:class:`~repro.serving.ReplicatedServingTier` laid out as ``(shards, 1)``
— hash-partitioned worker processes over a shared memory-mapped matrix,
with the retrofit primary in its own process — measuring what moving the
solver and the index scans off the readers' interpreter buys (on a
multi-core box; on one core the processes still time-share).

With ``replicas >= 1`` the same workloads also run through the tier laid
out as ``(1, replicas)`` — a lean primary appending every applied delta
to the store's replication log, full-corpus followers tailing it —
followed by three replication-specific measurements: per-delta
replication lag (publish → visible on every follower), read-your-writes
latency and correctness (a floored read straight after each write ack
must answer at-or-past the ticket's version), and failover (SIGKILL the
primary mid-stream, time until a primary respawned from the store lands
the next write).  The correctness half compares the followers'
fully-replayed matrix against both the store's own log replay (exact)
and a serial incremental retrofitter over the identical stream.

With ``fronts >= 1`` (requires ``replicas >= fronts``) the replicated
tier is additionally served over the network: a
:class:`~repro.serving.MultiFrontDeployment` runs that many HTTP fronts,
each inside one replica, behind the connection balancer, and
:class:`~repro.serving.ServingClient` readers/writers drive steady and
churn phases entirely over ``/v1`` — writes POSTed as wire-form deltas
with submission ids, each ack followed by a floored read (the
read-your-writes check), a duplicated POST asserted to apply exactly
once, and the HTTP-acked deltas folded into the same serial-replay
agreement gate as the in-process stream.

Reported: queries/s and p50/p99 per-request latency for both phases,
update lag (submit→publish) for the delta stream, queue/coalescing and
batching counters, and — the correctness half — the max cosine distance
between the runtime's final vectors and a *serial*
:class:`~repro.retrofit.incremental.IncrementalRetrofitter` applying the
identical delta stream to an identical database (the concurrent path must
not trade accuracy for throughput).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Any

import numpy as np

from repro.errors import ExperimentError
from repro.experiments.common import make_tmdb
from repro.experiments.runner import ExperimentSizes, ResultTable
from repro.experiments.update_bench import (
    _METHOD_NAMES,
    settled_tmdb_start,
    synthesize_tmdb_delta,
)
from repro.retrofit.hyperparams import RetroHyperparameters
from repro.retrofit.incremental import (
    IncrementalRetrofitter,
    max_cosine_distance,
)
from repro.serving.runtime import BatchedQueryFront, ServingRuntime
from repro.serving.session import ServingSession, default_index_factory

#: Iteration cap for incremental solves (the certification tolerance stops
#: them much earlier); matches the update benchmark.
SOLVE_ITERATIONS = 300


def _build_query_workload(
    embeddings, n_queries: int, rng: np.random.Generator
) -> np.ndarray:
    """Realistic query vectors: stored values plus a little noise.

    Perturbation keeps every query distinct (no trivial exact-match cache
    wins) while staying close to the data distribution, so IVF probing
    and top-k behave as in production.
    """
    rows = rng.integers(0, len(embeddings), size=n_queries)
    queries = embeddings.matrix[rows].copy()
    scale = np.maximum(np.linalg.norm(queries, axis=1, keepdims=True), 1e-9)
    queries += rng.normal(0.0, 0.02, queries.shape) * scale
    return queries


def _percentiles(latencies: list[float]) -> tuple[float, float]:
    if not latencies:
        return 0.0, 0.0
    values = np.asarray(latencies)
    return float(np.percentile(values, 50)), float(np.percentile(values, 99))


def run_serve_benchmark(
    sizes: ExperimentSizes | None = None,
    method: str = "RN",
    readers: int = 4,
    queries_per_reader: int = 256,
    pipeline_depth: int = 16,
    n_deltas: int = 4,
    delta_fraction: float = 0.01,
    window_seconds: float = 0.002,
    max_batch: int = 64,
    k: int = 10,
    delta_interval_seconds: float = 0.05,
    corpus_scale: int = 5,
    shards: int = 0,
    replicas: int = 0,
    fronts: int = 0,
    seed: int | None = None,
    cache_dir=None,
    churn: bool = False,
    measure_agreement: bool = True,
) -> tuple[ResultTable, dict[str, Any]]:
    """Run the concurrent-serving benchmark; returns (table, JSON payload).

    ``corpus_scale`` multiplies the preset's movie count: a serving
    benchmark needs a serving-sized corpus (at quick sizes the scaled
    corpus crosses the IVF threshold, which is the regime batched
    coalescing is built for; the training experiments' presets are sized
    for solver runs, not for index scans).

    The acceptance gate this measures: batched-coalesced concurrent
    throughput at least 2× the single-threaded query loop, at equal
    recall (both phases run the same index configuration over the same
    vectors, so recall is identical by construction), with the final
    vectors within 1e-3 cosine distance of the serial incremental path.
    """
    if method not in _METHOD_NAMES:
        raise ExperimentError(
            f"unknown serve-benchmark method {method!r}; expected RN or RO"
        )
    if readers < 1:
        raise ExperimentError("serve benchmark needs at least one reader")
    if corpus_scale < 1:
        raise ExperimentError("corpus_scale must be at least 1")
    if fronts > replicas:
        raise ExperimentError(
            "--fronts serves the replicated tier over HTTP, one front per "
            "replica; pass --replicas N with N >= --fronts as well"
        )
    from repro.experiments.engine import RunContext

    sizes = sizes or ExperimentSizes.quick()
    sizes = dataclasses.replace(
        sizes, num_movies=sizes.num_movies * corpus_scale
    )
    ctx = RunContext(sizes=sizes, cache_dir=cache_dir)
    solver_method = _METHOD_NAMES[method]
    hyperparams = (
        RetroHyperparameters.paper_rn_default()
        if method == "RN"
        else RetroHyperparameters.paper_ro_default()
    )
    stream_seed = sizes.seed if seed is None else seed

    # ---- settled starting point (shared with `repro update`) ----------- #
    started = time.perf_counter()
    dataset, tokenizer, embeddings, base_matrix, settle_report = (
        settled_tmdb_start(ctx, method, hyperparams, solver_method)
    )
    setup_seconds = time.perf_counter() - started
    database = dataset.database
    movies_per_delta = max(
        1, int(round(len(database.table("movies")) * delta_fraction))
    )
    total_queries = readers * queries_per_reader
    workload_rng = np.random.default_rng(stream_seed + 7)
    queries = _build_query_workload(embeddings, total_queries, workload_rng)

    # every phase serves the same index configuration: recall is equal by
    # construction and the throughput comparison is apples to apples
    factory = default_index_factory()

    # ---- phase 1: single-threaded baseline loop ------------------------ #
    baseline_session = ServingSession(embeddings, index_factory=factory)
    baseline_session.settle_indexes()
    baseline_latencies: list[float] = []
    started = time.perf_counter()
    for query in queries:
        t0 = time.perf_counter()
        baseline_session.topk(query, k)
        baseline_latencies.append(time.perf_counter() - t0)
    baseline_wall = time.perf_counter() - started
    baseline_qps = total_queries / baseline_wall if baseline_wall > 0 else 0.0

    # ---- the delta stream (recorded so the serial path can replay it) -- #
    # synthesized against a scratch copy of the database that each delta is
    # applied to in turn: every delta assumes its predecessors landed (fresh
    # ids, titles), which is exactly the order the runtime applies them in
    stream_rng = np.random.default_rng(stream_seed)
    scratch = make_tmdb(sizes).database
    deltas = []
    for _ in range(max(0, n_deltas)):
        delta = synthesize_tmdb_delta(
            scratch,
            stream_rng,
            movies_per_delta,
            include_update=churn,
            include_delete=churn,
        )
        delta.apply_to(scratch)
        deltas.append(delta)

    # ---- phase 2: concurrent runtime + batched front ------------------- #
    retrofitter = IncrementalRetrofitter(
        embeddings,
        tokenizer,
        hyperparams=hyperparams,
        method=solver_method,
        base_matrix=base_matrix,
    )
    runtime = ServingRuntime(
        database,
        retrofitter,
        index_factory=factory,
        solve_iterations=SOLVE_ITERATIONS,
    )
    reader_errors: list[BaseException] = []

    def reader_loop(
        front: BatchedQueryFront, chunk: np.ndarray, sink: list[float]
    ) -> None:
        try:
            local: list[float] = []
            for start in range(0, len(chunk), pipeline_depth):
                flight = chunk[start:start + pipeline_depth]
                submitted = [
                    (time.perf_counter(), front.submit(vector, k))
                    for vector in flight
                ]
                for t0, future in submitted:
                    future.result(timeout=60.0)
                    local.append(time.perf_counter() - t0)
            sink.extend(local)  # one list.extend per thread: GIL-atomic
        except BaseException as error:  # surfaced by the main thread
            reader_errors.append(error)

    def run_reader_phase(
        front: BatchedQueryFront, submit=None
    ) -> tuple[float, list[float], list]:
        latencies: list[float] = []
        chunks = np.array_split(queries, readers)
        threads = [
            threading.Thread(target=reader_loop, args=(front, chunk, latencies))
            for chunk in chunks
        ]
        tickets = []
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        if submit is not None:
            # drip the write stream into the queue while readers run; a
            # busy applier still coalesces bunched-up submissions
            for delta in deltas:
                tickets.append(submit(delta))
                time.sleep(delta_interval_seconds)
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        if reader_errors:
            raise reader_errors[0]
        return wall, latencies, tickets

    with runtime:
        with BatchedQueryFront(
            runtime, window_seconds=window_seconds, max_batch=max_batch
        ) as front:
            # phase 2: steady-state concurrent serving — the throughput
            # gate compares this against the single-threaded loop
            steady_wall, steady_latencies, _ = run_reader_phase(front)
            steady_front_stats = front.stats
            # phase 3: the same read workload under a live delta stream —
            # measures update lag and how much churn costs the readers
            churn_wall, churn_latencies, tickets = run_reader_phase(
                front, submit=runtime.submit
            )
        runtime.flush(timeout=300.0)
        runtime_stats = runtime.stats
        front_stats = front.stats
    for ticket in tickets:
        ticket.wait(timeout=1.0)  # re-raises a failed pipeline
    steady_qps = total_queries / steady_wall if steady_wall > 0 else 0.0
    churn_qps = total_queries / churn_wall if churn_wall > 0 else 0.0

    # ---- phases 4+5: the tier as (shards, 1) -------------------------- #
    sharded_metrics: dict[str, Any] | None = None
    sharded_final = None
    if shards >= 1:
        import tempfile

        from repro.serving.replicated import ReplicatedServingTier
        from repro.serving.store import EmbeddingStore

        shard_dir = tempfile.TemporaryDirectory(prefix="serve-bench-shards-")
        store = EmbeddingStore(shard_dir.name)
        store.save_embedding_set("serve", embeddings)
        # the tier's primary process gets its own pre-stream database copy
        # and retrofitter (the runtime above already consumed the shared
        # ones); it replays the identical delta stream
        tier = ReplicatedServingTier(
            shard_dir.name,
            "serve",
            n_shards=shards,
            n_replicas=1,
            database=make_tmdb(sizes).database,
            retrofitter=IncrementalRetrofitter(
                embeddings,
                tokenizer,
                hyperparams=hyperparams,
                method=solver_method,
                base_matrix=base_matrix,
            ),
            solve_iterations=SOLVE_ITERATIONS,
        )
        with tier:
            with BatchedQueryFront(
                tier, window_seconds=window_seconds, max_batch=max_batch
            ) as shard_front:
                shard_steady_wall, shard_steady_latencies, _ = (
                    run_reader_phase(shard_front)
                )
                shard_churn_wall, shard_churn_latencies, shard_tickets = (
                    run_reader_phase(shard_front, submit=tier.submit)
                )
            tier.flush(timeout=600.0)
            tier_stats = tier.stats
        for ticket in shard_tickets:
            ticket.wait(timeout=1.0)
        sharded_final, _, _ = store.load_embedding_set_versioned("serve")
        shard_dir.cleanup()
        shard_steady_qps = (
            total_queries / shard_steady_wall if shard_steady_wall > 0 else 0.0
        )
        shard_churn_qps = (
            total_queries / shard_churn_wall if shard_churn_wall > 0 else 0.0
        )
        shard_lags = [
            t.lag_seconds for t in shard_tickets if t.lag_seconds is not None
        ]
        shard_steady_p50, shard_steady_p99 = _percentiles(shard_steady_latencies)
        shard_churn_p50, shard_churn_p99 = _percentiles(shard_churn_latencies)
        sharded_metrics = {
            "n_shards": shards,
            "steady": {
                "wall_seconds": shard_steady_wall,
                "qps": shard_steady_qps,
                "p50_seconds": shard_steady_p50,
                "p99_seconds": shard_steady_p99,
                "queries_answered": len(shard_steady_latencies),
            },
            "churn": {
                "wall_seconds": shard_churn_wall,
                "qps": shard_churn_qps,
                "p50_seconds": shard_churn_p50,
                "p99_seconds": shard_churn_p99,
                "queries_answered": len(shard_churn_latencies),
            },
            "published_version": tier_stats.log_version,
            "writes_applied": tier_stats.writes_applied,
            "degraded_queries": tier_stats.degraded_queries,
            "shard_respawns": tier_stats.follower_respawns,
            "churn_vs_steady": (
                shard_churn_qps / shard_steady_qps if shard_steady_qps else 0.0
            ),
            "churn_vs_single_process_churn": (
                shard_churn_qps / churn_qps if churn_qps else 0.0
            ),
            "update_lag_seconds": shard_lags,
            "mean_lag_seconds": (
                float(np.mean(shard_lags)) if shard_lags else None
            ),
        }

    # ---- phases 6+7: the tier as (1, replicas) ------------------------ #
    replicated_metrics: dict[str, Any] | None = None
    http_metrics: dict[str, Any] | None = None
    repl_deltas: list = []
    repl_follower_matrix = None
    repl_final_set = None
    if replicas >= 1:
        import os
        import signal
        import tempfile

        from repro.serving.replicated import ReplicatedServingTier
        from repro.serving.store import EmbeddingStore

        repl_dir = tempfile.TemporaryDirectory(prefix="serve-bench-replicas-")
        repl_store = EmbeddingStore(repl_dir.name)
        repl_store.save_embedding_set("serve", embeddings)

        def primary_retrofitter(latest_embeddings):
            # the failover path: a respawned primary rebuilds its solver
            # from the store's latest version (no warm base matrix —
            # correctness over failover speed)
            return IncrementalRetrofitter(
                latest_embeddings,
                tokenizer,
                hyperparams=hyperparams,
                method=solver_method,
            )

        tier = ReplicatedServingTier(
            repl_dir.name,
            "serve",
            n_replicas=replicas,
            database=make_tmdb(sizes).database,
            retrofitter=IncrementalRetrofitter(
                embeddings,
                tokenizer,
                hyperparams=hyperparams,
                method=solver_method,
                base_matrix=base_matrix,
            ),
            retrofitter_factory=primary_retrofitter,
            solve_iterations=SOLVE_ITERATIONS,
        )
        with tier:
            with BatchedQueryFront(
                tier, window_seconds=window_seconds, max_batch=max_batch
            ) as repl_front:
                repl_steady_wall, repl_steady_latencies, _ = (
                    run_reader_phase(repl_front)
                )
                repl_churn_wall, repl_churn_latencies, repl_tickets = (
                    run_reader_phase(repl_front, submit=tier.submit)
                )
            tier.flush(timeout=600.0)
            for ticket in repl_tickets:
                ticket.wait(timeout=1.0)

            # replication lag + read-your-writes probes: a fresh delta is
            # acked by the primary, then we time until every follower has
            # replayed it, and immediately issue a floored read that must
            # answer at-or-past the ticket's log position
            replication_lags: list[float] = []
            ryw_latencies: list[float] = []
            ryw_violations = 0
            probe_query = queries[0]
            for _ in range(max(1, min(4, n_deltas))):
                probe = synthesize_tmdb_delta(
                    scratch, stream_rng, movies_per_delta
                )
                probe.apply_to(scratch)
                repl_deltas.append(probe)
                ticket = tier.submit(probe)
                version = ticket.wait(timeout=600.0)
                published_at = time.perf_counter()
                deadline = published_at + 60.0
                while (
                    min(tier.replica_versions().values(), default=-1)
                    < version
                ):
                    if time.perf_counter() > deadline:
                        raise ExperimentError(
                            "followers never replayed the probe delta: "
                            f"waiting for version {version}, followers at "
                            f"{tier.replica_versions()}, {tier.stats}"
                        )
                    time.sleep(0.002)
                replication_lags.append(time.perf_counter() - published_at)
                t0 = time.perf_counter()
                answered, _ = tier.topk_batch_versioned(
                    probe_query[None, :], k, min_version=version
                )
                ryw_latencies.append(time.perf_counter() - t0)
                if answered < version:
                    ryw_violations += 1

            # failover: SIGKILL the primary, then submit straight away —
            # the writer must detect the death, respawn the primary from
            # the store, and land the write there.  The outage window is
            # kill → post-failover ack (what a writer actually waits).
            killed_at = time.perf_counter()
            os.kill(tier.primary_pid, signal.SIGKILL)
            failover_delta = synthesize_tmdb_delta(
                scratch, stream_rng, movies_per_delta
            )
            failover_delta.apply_to(scratch)
            repl_deltas.append(failover_delta)
            failover_ticket = tier.submit(failover_delta)
            failover_version = failover_ticket.wait(timeout=600.0)
            write_outage = time.perf_counter() - killed_at
            answered, _ = tier.topk_batch_versioned(
                probe_query[None, :], k, min_version=failover_version
            )
            if answered < failover_version:
                ryw_violations += 1

            # ---- write-over-HTTP phases: N fronts over this one pool -- #
            if fronts >= 1:
                from repro.serving.client import ServingClient
                from repro.serving.multifront import MultiFrontDeployment

                bench_token = "serve-bench"
                deployment = MultiFrontDeployment(
                    tier,
                    n_fronts=fronts,
                    front_options={
                        "window_seconds": window_seconds,
                        "max_batch": max_batch,
                        "auth_tokens": {bench_token: ("read", "write")},
                        "write_timeout_seconds": 600.0,
                    },
                )
                http_errors: list[BaseException] = []

                def http_reader_loop(index, chunk, sink) -> None:
                    client = ServingClient(
                        deployment.address,
                        token=bench_token,
                        client_id=f"reader-{index}",
                        timeout=120.0,
                    )
                    try:
                        local: list[float] = []
                        for vector in chunk:
                            t0 = time.perf_counter()
                            client.topk(vector, k)
                            local.append(time.perf_counter() - t0)
                        sink.extend(local)
                    except BaseException as error:
                        http_errors.append(error)
                    finally:
                        client.close()

                def run_http_phase(write_deltas=None):
                    latencies: list[float] = []
                    chunks = np.array_split(queries, readers)
                    threads = [
                        threading.Thread(
                            target=http_reader_loop,
                            args=(index, chunk, latencies),
                        )
                        for index, chunk in enumerate(chunks)
                    ]
                    acked: list[tuple[str, int]] = []
                    violations = 0
                    started = time.perf_counter()
                    for thread in threads:
                        thread.start()
                    if write_deltas:
                        with ServingClient(
                            deployment.address,
                            token=bench_token,
                            client_id="writer",
                            timeout=630.0,
                        ) as writer:
                            for index, delta in enumerate(write_deltas):
                                sid = f"bench-http-{index}"
                                version = writer.submit(
                                    delta, submission_id=sid
                                )
                                acked.append((sid, version))
                                # the client floors this read at the ack
                                # it just received: read-your-writes over
                                # HTTP, through whichever front the
                                # balancer picks
                                answered = writer.topk(probe_query, k)
                                if int(answered["version"]) < version:
                                    violations += 1
                                time.sleep(delta_interval_seconds)
                    for thread in threads:
                        thread.join()
                    wall = time.perf_counter() - started
                    if http_errors:
                        raise http_errors[0]
                    return wall, latencies, acked, violations

                with deployment:
                    http_steady_wall, http_steady_latencies, _, _ = (
                        run_http_phase()
                    )
                    http_deltas = []
                    for _ in range(max(1, min(4, n_deltas))):
                        delta = synthesize_tmdb_delta(
                            scratch, stream_rng, movies_per_delta
                        )
                        delta.apply_to(scratch)
                        http_deltas.append(delta)
                        repl_deltas.append(delta)
                    (
                        http_churn_wall,
                        http_churn_latencies,
                        http_acked,
                        http_ryw_violations,
                    ) = run_http_phase(write_deltas=http_deltas)
                    # a duplicated POST (same submission id, fresh
                    # connection) must ack the original version without
                    # growing the log: the queue's dedup window holds
                    # across fronts because all writes funnel to the one
                    # primary queue
                    log_before = tier.stats.log_version
                    dup_sid, dup_version = http_acked[-1]
                    with ServingClient(
                        deployment.address,
                        token=bench_token,
                        client_id="dup-writer",
                        timeout=630.0,
                    ) as dup_client:
                        dup_ack = dup_client.submit(
                            http_deltas[-1], submission_id=dup_sid
                        )
                    dedup_applied_once = (
                        dup_ack == dup_version
                        and tier.stats.log_version == log_before
                    )
                    if not dedup_applied_once:
                        raise ExperimentError(
                            "duplicated POST was not idempotent: original "
                            f"ack {dup_version}, duplicate ack {dup_ack}, "
                            f"log {log_before} -> {tier.stats.log_version}"
                        )
                    deployment_stats = deployment.stats()
                http_steady_qps = (
                    total_queries / http_steady_wall
                    if http_steady_wall > 0
                    else 0.0
                )
                http_churn_qps = (
                    total_queries / http_churn_wall
                    if http_churn_wall > 0
                    else 0.0
                )
                http_steady_p50, http_steady_p99 = _percentiles(
                    http_steady_latencies
                )
                http_churn_p50, http_churn_p99 = _percentiles(
                    http_churn_latencies
                )
                http_metrics = {
                    "n_fronts": fronts,
                    "steady": {
                        "wall_seconds": http_steady_wall,
                        "qps": http_steady_qps,
                        "p50_seconds": http_steady_p50,
                        "p99_seconds": http_steady_p99,
                        "queries_answered": len(http_steady_latencies),
                    },
                    "churn": {
                        "wall_seconds": http_churn_wall,
                        "qps": http_churn_qps,
                        "p50_seconds": http_churn_p50,
                        "p99_seconds": http_churn_p99,
                        "queries_answered": len(http_churn_latencies),
                    },
                    "writes_over_http": len(http_acked),
                    "acked_versions": [version for _, version in http_acked],
                    "read_your_writes_violations": http_ryw_violations,
                    "duplicate_post_applied_once": dedup_applied_once,
                    "per_front_requests": [
                        (entry["front"] or {}).get("requests")
                        for entry in deployment_stats["fronts"]
                    ],
                    "per_front_submits": [
                        (entry["front"] or {}).get("submits")
                        for entry in deployment_stats["fronts"]
                    ],
                    "balancer_connections": (
                        deployment_stats["balancer"]["connections"]
                    ),
                    "totals": deployment_stats["totals"],
                }

            repl_lag_stream = [
                t.lag_seconds
                for t in repl_tickets
                if t.lag_seconds is not None
            ]
            repl_version, repl_follower_matrix = tier.replica_matrix()
            repl_stats = tier.stats
        repl_final_set, _, repl_store_version = (
            repl_store.load_embedding_set_versioned("serve")
        )
        repl_dir.cleanup()
        repl_steady_qps = (
            total_queries / repl_steady_wall if repl_steady_wall > 0 else 0.0
        )
        repl_churn_qps = (
            total_queries / repl_churn_wall if repl_churn_wall > 0 else 0.0
        )
        repl_steady_p50, repl_steady_p99 = _percentiles(repl_steady_latencies)
        repl_churn_p50, repl_churn_p99 = _percentiles(repl_churn_latencies)
        replicated_metrics = {
            "n_replicas": replicas,
            "steady": {
                "wall_seconds": repl_steady_wall,
                "qps": repl_steady_qps,
                "p50_seconds": repl_steady_p50,
                "p99_seconds": repl_steady_p99,
                "queries_answered": len(repl_steady_latencies),
            },
            "churn": {
                "wall_seconds": repl_churn_wall,
                "qps": repl_churn_qps,
                "p50_seconds": repl_churn_p50,
                "p99_seconds": repl_churn_p99,
                "queries_answered": len(repl_churn_latencies),
            },
            "log_version": repl_stats.log_version,
            "store_version": repl_store_version,
            "follower_version": repl_version,
            "follower_matches_log_replay": bool(
                np.array_equal(repl_follower_matrix, repl_final_set.matrix)
            ),
            "writes_applied": repl_stats.writes_applied,
            "degraded_queries": repl_stats.degraded_queries,
            "follower_respawns": repl_stats.follower_respawns,
            "update_lag_seconds": repl_lag_stream,
            "mean_update_lag_seconds": (
                float(np.mean(repl_lag_stream)) if repl_lag_stream else None
            ),
            "replication_lag_seconds": replication_lags,
            "mean_replication_lag_seconds": float(np.mean(replication_lags)),
            "read_your_writes_latency_seconds": ryw_latencies,
            "read_your_writes_violations": ryw_violations,
            "failovers": repl_stats.failovers,
            "failover_seconds": repl_stats.last_failover_seconds,
            "failover_write_outage_seconds": write_outage,
        }

    base_p50, base_p99 = _percentiles(baseline_latencies)
    steady_p50, steady_p99 = _percentiles(steady_latencies)
    churn_p50, churn_p99 = _percentiles(churn_latencies)
    speedup = steady_qps / baseline_qps if baseline_qps > 0 else 0.0
    lags = [t.lag_seconds for t in tickets if t.lag_seconds is not None]

    table = ResultTable(
        name=(
            f"concurrent serving ({method}, {len(runtime.embeddings)} values, "
            f"{readers} readers × {queries_per_reader} queries, "
            f"{len(deltas)} deltas)"
        ),
        columns=["mode", "queries", "wall_s", "qps", "p50_ms", "p99_ms"],
    )
    table.add_row(
        mode="single-thread",
        queries=total_queries,
        wall_s=baseline_wall,
        qps=baseline_qps,
        p50_ms=base_p50 * 1000.0,
        p99_ms=base_p99 * 1000.0,
    )
    table.add_row(
        mode="concurrent",
        queries=total_queries,
        wall_s=steady_wall,
        qps=steady_qps,
        p50_ms=steady_p50 * 1000.0,
        p99_ms=steady_p99 * 1000.0,
    )
    table.add_row(
        mode="conc.+churn",
        queries=total_queries,
        wall_s=churn_wall,
        qps=churn_qps,
        p50_ms=churn_p50 * 1000.0,
        p99_ms=churn_p99 * 1000.0,
    )
    if sharded_metrics is not None:
        table.add_row(
            mode=f"sharded({shards})",
            queries=total_queries,
            wall_s=sharded_metrics["steady"]["wall_seconds"],
            qps=sharded_metrics["steady"]["qps"],
            p50_ms=sharded_metrics["steady"]["p50_seconds"] * 1000.0,
            p99_ms=sharded_metrics["steady"]["p99_seconds"] * 1000.0,
        )
        table.add_row(
            mode="sharded+churn",
            queries=total_queries,
            wall_s=sharded_metrics["churn"]["wall_seconds"],
            qps=sharded_metrics["churn"]["qps"],
            p50_ms=sharded_metrics["churn"]["p50_seconds"] * 1000.0,
            p99_ms=sharded_metrics["churn"]["p99_seconds"] * 1000.0,
        )
    if replicated_metrics is not None:
        table.add_row(
            mode=f"replicated({replicas})",
            queries=total_queries,
            wall_s=replicated_metrics["steady"]["wall_seconds"],
            qps=replicated_metrics["steady"]["qps"],
            p50_ms=replicated_metrics["steady"]["p50_seconds"] * 1000.0,
            p99_ms=replicated_metrics["steady"]["p99_seconds"] * 1000.0,
        )
        table.add_row(
            mode="repl.+churn",
            queries=total_queries,
            wall_s=replicated_metrics["churn"]["wall_seconds"],
            qps=replicated_metrics["churn"]["qps"],
            p50_ms=replicated_metrics["churn"]["p50_seconds"] * 1000.0,
            p99_ms=replicated_metrics["churn"]["p99_seconds"] * 1000.0,
        )
    if http_metrics is not None:
        table.add_row(
            mode=f"http({http_metrics['n_fronts']})",
            queries=total_queries,
            wall_s=http_metrics["steady"]["wall_seconds"],
            qps=http_metrics["steady"]["qps"],
            p50_ms=http_metrics["steady"]["p50_seconds"] * 1000.0,
            p99_ms=http_metrics["steady"]["p99_seconds"] * 1000.0,
        )
        table.add_row(
            mode="http+churn",
            queries=total_queries,
            wall_s=http_metrics["churn"]["wall_seconds"],
            qps=http_metrics["churn"]["qps"],
            p50_ms=http_metrics["churn"]["p50_seconds"] * 1000.0,
            p99_ms=http_metrics["churn"]["p99_seconds"] * 1000.0,
        )
    table.add_note(
        f"steady concurrent throughput {speedup:.1f}x the single-threaded "
        f"loop; mean batched {steady_front_stats.mean_batch_size:.1f} "
        f"queries/index call (largest {steady_front_stats.largest_batch})"
    )
    if sharded_metrics is not None:
        table.add_note(
            f"sharded({shards}) churn at "
            f"{sharded_metrics['churn_vs_steady']:.0%} of its steady rate, "
            f"{sharded_metrics['churn_vs_single_process_churn']:.2f}x the "
            f"single-process churn throughput "
            f"({sharded_metrics['writes_applied']} write batches applied "
            f"out-of-process)"
        )
    if lags:
        table.add_note(
            f"update lag mean {float(np.mean(lags)) * 1000.0:.1f} ms over "
            f"{len(lags)} deltas ({runtime_stats.deltas_coalesced} coalesced)"
        )
    if replicated_metrics is not None:
        mean_repl_lag = replicated_metrics["mean_replication_lag_seconds"]
        mean_ryw = float(
            np.mean(replicated_metrics["read_your_writes_latency_seconds"])
        )
        table.add_note(
            f"replication lag (publish→every-follower-visible) mean "
            f"{mean_repl_lag * 1000.0:.1f} ms; read-your-writes reads mean "
            f"{mean_ryw * 1000.0:.1f} ms with "
            f"{replicated_metrics['read_your_writes_violations']} stale "
            f"answers"
        )
        failover_s = replicated_metrics["failover_seconds"]
        table.add_note(
            f"primary SIGKILL: failover (detect→respawn) "
            f"{failover_s:.3f} s, write outage (kill→next ack) "
            f"{replicated_metrics['failover_write_outage_seconds']:.3f} s, "
            f"{replicated_metrics['failovers']} failover(s); follower "
            f"matches the store's log replay exactly: "
            f"{replicated_metrics['follower_matches_log_replay']}"
        )
    if http_metrics is not None:
        table.add_note(
            f"{http_metrics['n_fronts']} HTTP fronts over one replica "
            f"pool: {http_metrics['writes_over_http']} deltas written over "
            f"POST /v1/submit with "
            f"{http_metrics['read_your_writes_violations']} read-your-"
            f"writes violations; duplicated POST applied exactly once: "
            f"{http_metrics['duplicate_post_applied_once']}; requests per "
            f"front {http_metrics['per_front_requests']}"
        )

    payload: dict[str, Any] = {
        "method": method,
        "n_values": len(runtime.embeddings),
        "corpus_scale": corpus_scale,
        "num_movies": sizes.num_movies,
        "readers": readers,
        "queries_per_reader": queries_per_reader,
        "pipeline_depth": pipeline_depth,
        "k": k,
        "n_deltas": len(deltas),
        "movies_per_delta": movies_per_delta,
        "churn": churn,
        "window_seconds": window_seconds,
        "max_batch": max_batch,
        "setup_seconds": setup_seconds,
        "settle_iterations": settle_report.iterations,
        "baseline": {
            "wall_seconds": baseline_wall,
            "qps": baseline_qps,
            "p50_seconds": base_p50,
            "p99_seconds": base_p99,
        },
        "concurrent": {
            "wall_seconds": steady_wall,
            "qps": steady_qps,
            "p50_seconds": steady_p50,
            "p99_seconds": steady_p99,
            "queries_answered": len(steady_latencies),
            "batches_dispatched": steady_front_stats.batches_dispatched,
            "mean_batch_size": steady_front_stats.mean_batch_size,
            "largest_batch": steady_front_stats.largest_batch,
        },
        "concurrent_under_churn": {
            "wall_seconds": churn_wall,
            "qps": churn_qps,
            "p50_seconds": churn_p50,
            "p99_seconds": churn_p99,
            "queries_answered": len(churn_latencies),
            "batches_total": front_stats.batches_dispatched,
        },
        "updates": {
            "published": runtime_stats.updates_published,
            "failures": runtime_stats.update_failures,
            "coalesced": runtime_stats.deltas_coalesced,
            "snapshots_reclaimed": runtime_stats.snapshots_reclaimed,
            "lag_seconds": lags,
            "mean_lag_seconds": float(np.mean(lags)) if lags else None,
        },
        "speedup_vs_single_thread": speedup,
    }
    if sharded_metrics is not None:
        payload["sharded"] = sharded_metrics
    if replicated_metrics is not None:
        payload["replicated"] = replicated_metrics
    if http_metrics is not None:
        payload["http"] = http_metrics

    # ---- agreement: the serial incremental path over the same stream --- #
    if measure_agreement:
        serial_database = make_tmdb(sizes).database
        serial_retrofitter = IncrementalRetrofitter(
            embeddings,
            tokenizer,
            hyperparams=hyperparams,
            method=solver_method,
            base_matrix=base_matrix,
        )
        for delta in deltas:
            serial_retrofitter.apply(
                serial_database, delta, iterations=SOLVE_ITERATIONS
            )
        worst = max_cosine_distance(
            serial_retrofitter.embeddings, runtime.embeddings
        )
        payload["max_cosine_distance_vs_serial"] = worst
        table.add_note(
            f"max cosine distance to the serial incremental path: {worst:.2e}"
        )
        if sharded_final is not None:
            sharded_worst = max_cosine_distance(
                serial_retrofitter.embeddings, sharded_final
            )
            payload["sharded"]["max_cosine_distance_vs_serial"] = sharded_worst
            table.add_note(
                "sharded tier max cosine distance to the serial path: "
                f"{sharded_worst:.2e}"
            )
        if repl_follower_matrix is not None and repl_final_set is not None:
            # the replicated stream is longer (lag probes, the failover
            # write and any HTTP-acked deltas), so it gets its own serial
            # replay of the identical sequence; the follower's replayed
            # matrix is the compared side
            repl_serial_database = make_tmdb(sizes).database
            repl_serial = IncrementalRetrofitter(
                embeddings,
                tokenizer,
                hyperparams=hyperparams,
                method=solver_method,
                base_matrix=base_matrix,
            )
            for delta in [*deltas, *repl_deltas]:
                repl_serial.apply(
                    repl_serial_database, delta, iterations=SOLVE_ITERATIONS
                )
            follower_set = type(repl_final_set)(
                repl_final_set.extraction, repl_follower_matrix,
                name="follower",
            )
            repl_worst = max_cosine_distance(
                repl_serial.embeddings, follower_set
            )
            payload["replicated"]["max_cosine_distance_vs_serial"] = repl_worst
            table.add_note(
                "replicated follower max cosine distance to the serial "
                f"path: {repl_worst:.2e}"
            )
    return table, payload
