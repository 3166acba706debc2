"""``local``: in-process reads, ``ServingRuntime`` behind ``BatchedQueryFront``.

Read-only, closed loop: two caller threads each keep 16 requests in
flight.  There is no IPC and no HTTP, so ``index``, ``session`` and the
in-process batcher do almost all the work — a transport change should
not move this workload.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque

from harness import (
    K,
    QUERY_POOL,
    SETUP_REPEATS,
    SOLVE_ITERATIONS,
    REQUEST_TIMEOUT,
    Outcome,
    build_serving_corpus,
    make_queries,
    peak_rss_mb,
    same_answers,
    record_reads,
    summarize,
)
from repro.serving import BatchedQueryFront, ServingRuntime, ServingSession
from repro.serving.session import default_index_factory

CALLERS = 2
IN_FLIGHT = 16
#: Every SAMPLE_EVERY-th query's answer is checked against a direct session.
SAMPLE_EVERY = 61
#: Batches per in-process probe.
PROBES = 200


def _start():
    corpus = build_serving_corpus()
    runtime = ServingRuntime(
        corpus.database,
        corpus.retrofitter(),
        index_factory=default_index_factory(),
        solve_iterations=SOLVE_ITERATIONS,
    ).start()
    return corpus, runtime, BatchedQueryFront(runtime)


def _stop(runtime, front) -> None:
    front.close()
    runtime.stop(flush=False)


class _Caller(threading.Thread):
    """Keeps IN_FLIGHT requests in flight until ``stop_at``, then drains."""

    def __init__(self, front, queries, offset, stop_at, tracer) -> None:
        super().__init__(daemon=True)
        self.front, self.queries, self.next = front, queries, offset
        self.stop_at, self.tracer = stop_at, tracer
        #: (due, done or None if failed)
        self.records: list[tuple[float, float | None]] = []
        self.samples: list[tuple[int, list]] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            self._loop()
        except BaseException as error:  # surfaced by the main thread
            self.error = error

    def _loop(self) -> None:
        pending: deque = deque()
        n = len(self.queries)
        while True:
            while time.perf_counter() < self.stop_at and len(pending) < IN_FLIGHT:
                row = self.next % n
                self.next += 1
                pending.append(
                    (time.perf_counter(), row, self.front.submit(self.queries[row], K))
                )
            if not pending:
                return
            due, row, future = pending.popleft()
            try:
                result = future.result(timeout=REQUEST_TIMEOUT)
            except Exception:  # noqa: BLE001 - a failed request, counted
                self.records.append((due, None))
                continue
            done = time.perf_counter()
            self.records.append((due, done))
            self.tracer.record("runtime.request", due, done)
            if row % SAMPLE_EVERY == 0:
                self.samples.append((row, result))


def _load(front, queries, seconds, tracer, first_row=0):
    started = time.perf_counter()
    callers = [
        _Caller(front, queries, first_row + i * (len(queries) // CALLERS),
                started + seconds, tracer)
        for i in range(CALLERS)
    ]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join()
    for caller in callers:
        if caller.error is not None:
            raise caller.error
    records = [r for c in callers for r in c.records]
    return dict(
        summarize(records, started, started + seconds, 99.0, REQUEST_TIMEOUT),
        failed=sum(1 for _, done in records if done is None),
        checked=[s for c in callers for s in c.samples],
    )


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome("local")
    tracer = out.tracer
    setups = []
    for attempt in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        corpus, runtime, front = _start()
        setups.append(time.perf_counter() - t0)
        if attempt < SETUP_REPEATS - 1:
            _stop(runtime, front)
    try:
        queries = make_queries(corpus.embeddings.matrix, QUERY_POOL, seed)
        for row in range(CALLERS * IN_FLIGHT):  # warm the dispatch path
            front.submit(queries[row], K).result(timeout=REQUEST_TIMEOUT)
        if trace:
            plain = _load(front, queries, seconds / 2, tracer)
            before = front.stats
            tracer.enabled = True
            load = _load(front, queries, seconds / 2, tracer, first_row=QUERY_POOL // 4)
            after = front.stats
            _probe(out, runtime, queries, before, after)
            tracer.enabled = False
        else:
            load = _load(front, queries, seconds, tracer)
        rss = peak_rss_mb([os.getpid()])
    finally:
        _stop(runtime, front)

    direct = ServingSession(corpus.embeddings, index_factory=default_index_factory())
    samples = load["checked"]
    out.check(
        "answers_match_direct_session",
        bool(samples) and all(
            same_answers(result, direct.topk(queries[row], K))
            for row, result in samples
        ),
        f"over {len(samples)} sampled answers",
    )
    record_reads(out, setups, rss, load, plain if trace else None)
    return out


def _probe(out: Outcome, runtime, queries, before, after) -> None:
    """Time the session and index calls at the batch size the load saw."""
    tracer = out.tracer
    requests = after.requests - before.requests
    batches = after.batches_dispatched - before.batches_dispatched
    mean_batch = requests / batches
    size = max(1, round(mean_batch))
    with runtime.read() as session:
        index = session.index_for(None)
        for probe in range(PROBES):
            start = (probe * size) % (len(queries) - size)
            batch = queries[start:start + size]
            with tracer.span("session.topk_batch"):
                session.topk_batch(batch, K)
            with tracer.span("index.query_batch"):
                index.query_batch(batch, K)
            with tracer.span("index.query"):
                index.query(queries[start], K)
    session_batch_ms = tracer.median_ms("session.topk_batch")
    out.per_layer.update({
        "index.batch_ms_per_query": tracer.median_ms("index.query_batch") / size,
        "index.single_query_ms": tracer.median_ms("index.query"),
        "session.topk_batch_ms_per_query": session_batch_ms / size,
        # every request of a batch waits for the whole batch's session call
        "runtime.batch_wait_ms": tracer.median_ms("runtime.request") - session_batch_ms,
        "runtime.mean_batch": mean_batch,
        "runtime.largest_batch": float(after.largest_batch),
    })
