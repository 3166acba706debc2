"""One write lifecycle for both write owners.

:class:`ServingRuntime` and :class:`ReplicatedServingTier` hand their
apply step to one :class:`WriteCore`, so the rules it owns hold for both:
uncertified and rate-limited writes are counted, ``stop`` on a stalled
apply returns and fails what is still queued, and a wait that runs out on
a pending write is a timeout — HTTP 504, after which the write still lands
once and a resubmission under its id returns its version.  The stress
case races submitters, flushes and a stop on a bare core.
"""

import multiprocessing
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.datasets import generate_tmdb
from repro.db.delta import DatabaseDelta
from repro.errors import BackpressureError, ServingError
from repro.retrofit.hyperparams import RetroHyperparameters
from repro.retrofit.incremental import IncrementalRetrofitter
from repro.retrofit.pipeline import RetroPipeline
from repro.serving import (
    EmbeddingStore,
    HTTPServingFront,
    MultiFrontDeployment,
    RateLimiter,
    ReplicatedServingTier,
    ServingRuntime,
)
from repro.serving.runtime import DeltaQueue, WriteCore
from repro.util import EventLog, faults

from tests.serving.test_http_front import http
from tests.serving.test_replicated import make_delta

OWNERS = pytest.mark.parametrize("kind", ["runtime", "tier"])


@pytest.fixture()
def stream(tmp_path):
    """A trained TMDB corpus, its retrofitter, a store holding it and the
    tier's primary-failover factory."""
    dataset = generate_tmdb(num_movies=60, seed=8, embedding_dimension=16)
    pipeline = RetroPipeline(
        dataset.database,
        dataset.embedding,
        hyperparams=RetroHyperparameters.paper_rn_default(),
    )
    result = pipeline.run(iterations=120)
    store = EmbeddingStore(tmp_path / "store")
    store.save_embedding_set("rn", result.embeddings)

    def factory(embeddings):
        return IncrementalRetrofitter(
            embeddings, pipeline.tokenizer,
            hyperparams=pipeline.hyperparams, method=pipeline.method,
        )

    return dataset, pipeline.incremental_retrofitter(result), store, factory


def start_owner(kind, stream, **options):
    """A started write owner: the in-process runtime or a (1, 1) tier."""
    dataset, retrofitter, store, factory = stream
    if kind == "runtime":
        return ServingRuntime(dataset.database, retrofitter, **options).start()
    return ReplicatedServingTier(
        store.root, "rn", n_replicas=1, database=dataset.database,
        retrofitter=retrofitter, retrofitter_factory=factory, **options,
    ).start()


def stall_every_apply(seconds):
    faults.install_fault_plan(faults.FaultPlan([
        faults.FaultPoint("runtime.apply", "delay", delay_seconds=seconds, hits=0)
    ]))


def wait_for(condition, timeout, what):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.01)


@OWNERS
def test_a_write_over_an_unreachable_tolerance_is_counted_uncertified(
    kind, stream
):
    dataset, retrofitter, _, _ = stream
    # one round cannot reach every row over 1e-9 (four can, on a corpus
    # this small)
    retrofitter._residual_tolerance = 1e-9
    retrofitter.MAX_REFINEMENT_ROUNDS = 1
    owner = start_owner(kind, stream)
    try:
        versions = [
            owner.submit(make_delta(dataset, key)).wait(timeout=60.0)
            for key in (1, 3)
        ]
        assert owner.stats.writes_uncertified == 2
        events = owner.recent_events(256)
        assert [
            event["version"] for event in events
            if event["event"] == "write_uncertified"
        ] == versions
    finally:
        owner.stop()


@OWNERS
def test_a_write_refused_by_the_rate_limit_is_counted(kind, stream):
    dataset = stream[0]
    owner = start_owner(
        kind, stream, write_rate_limit=RateLimiter(0.01, burst=1)
    )
    try:
        ticket = owner.submit(make_delta(dataset, 1), timeout=0.0)
        with pytest.raises(BackpressureError, match="rate limit"):
            owner.submit(make_delta(dataset, 3), timeout=0.0)
        assert ticket.wait(timeout=60.0)
        assert owner.stats.writes_rate_limited == 1
    finally:
        owner.stop()


@OWNERS
def test_stop_on_a_stalled_apply_returns_and_fails_what_is_queued(kind, stream):
    dataset = stream[0]
    threads_before = set(threading.enumerate())
    stall_every_apply(1.5)  # before the tier forks: its primary stalls too
    try:
        owner = start_owner(kind, stream)
        in_flight = owner.submit(make_delta(dataset, 1))
        wait_for(
            lambda: owner._writes.queue.stats.batches_popped == 1, 10.0,
            "the first write never reached the apply step",
        )
        queued = [owner.submit(make_delta(dataset, key)) for key in (3, 5)]
        owner.stop(flush=True, timeout=0.2)
        with pytest.raises(ServingError):
            owner.submit(make_delta(dataset, 7))
        assert all(ticket.failed for ticket in queued)
        wait_for(lambda: in_flight.done, 30.0, "the in-flight write never resolved")
        if kind == "runtime":
            assert in_flight.wait(0) == 1  # the stall ended, the write landed
        wait_for(
            lambda: not set(threading.enumerate()) - threads_before
            and not multiprocessing.active_children(),
            30.0, "a thread or process outlived stop()",
        )
    finally:
        faults.clear_fault_plan()


def test_a_ticket_is_numbered_when_it_is_queued():
    # flush waits for the highest number handed out: a submission that
    # waited for room must not share its number with one that coalesced
    # meanwhile, or flush returns while it is still queued
    queue = DeltaQueue(capacity=1)
    first = queue.submit(DatabaseDelta().insert("movies", {"id": 1}))
    waiter = ThreadPoolExecutor(max_workers=1)
    blocked = waiter.submit(
        queue.submit, DatabaseDelta().insert("reviews", {"id": 2}), 10.0
    )
    time.sleep(0.1)  # the reviews insert now waits for room
    coalesced = queue.submit(DatabaseDelta().insert("movies", {"id": 3}))
    assert queue.pop().tickets == [first, coalesced]
    late = blocked.result(timeout=10.0)
    waiter.shutdown()
    assert [first.seq, coalesced.seq, late.seq] == [0, 1, 2]
    assert queue.last_submitted_seq == late.seq


class TestWaitTimeoutIs504:
    """docs/API.md: on 504 the write may still publish — resubmit under
    the same ``submission_id``."""

    @staticmethod
    def _post(address, dataset, submission_id):
        body = {
            "submission_id": submission_id,
            "delta": make_delta(dataset, 11).to_dict(),
        }
        return http(address, "/v1/submit", body)

    def _check(self, address, dataset, owner, applied):
        status, body, _ = self._post(address, dataset, "slow-write")
        assert status == 504
        assert body["error"]["code"] == "timeout"
        owner.flush(timeout=60.0)
        assert applied() == 1
        status, body, _ = self._post(address, dataset, "slow-write")
        assert status == 200
        assert body["version"] == owner.published_version
        assert applied() == 1

    def test_through_a_front_over_the_runtime(self, stream):
        stall_every_apply(1.0)
        try:
            with start_owner("runtime", stream) as runtime:
                front = HTTPServingFront(runtime, write_timeout_seconds=0.2)
                front.start()
                try:
                    self._check(
                        front.address, stream[0], runtime,
                        lambda: runtime.stats.updates_published,
                    )
                finally:
                    front.close()
        finally:
            faults.clear_fault_plan()

    def test_through_a_deployment_front(self, stream):
        stall_every_apply(1.0)  # before the tier forks its primary
        try:
            with start_owner("tier", stream) as tier:
                with MultiFrontDeployment(
                    tier, n_fronts=1,
                    front_options={"write_timeout_seconds": 0.2},
                ) as deployment:
                    self._check(
                        deployment.address, stream[0], tier,
                        lambda: tier.stats.writes_applied,
                    )
        finally:
            faults.clear_fault_plan()


@pytest.mark.stress
class TestCoreUnderContention:
    @pytest.mark.parametrize("flush", [True, False])
    def test_submitters_flushes_and_a_stop_race_on_one_core(self, flush):
        # more submitters than cores and a tiny switch interval: a lost
        # wakeup or a ticket resolved twice (or never) shows up here
        threads, per_thread = 8, 120
        version = 0
        batch_sizes: list[int] = []

        def apply(delta, publish):
            nonlocal version
            time.sleep(0.0002)
            version += 1
            batch_sizes.append(len(delta))
            publish(version, version % 5 != 0)

        events = EventLog("test")
        core = WriteCore(
            "test core", apply, lambda: version, events,
            queue_capacity=4, max_coalesced_ops=8,
            rate_limit=RateLimiter(4000.0, burst=40),
        )
        core.start()
        tickets: list = []
        refusals = {"rate limit": 0, "other": 0}
        refusal_lock = threading.Lock()
        flushed: list[bool] = []
        stop_now = threading.Event()

        def submitter(seed):
            rng = np.random.default_rng(seed)
            for i in range(per_thread):
                if i == per_thread // 2:
                    stop_now.set()
                delta = DatabaseDelta()
                if rng.random() < 0.9:  # the rest are empty deltas
                    delta.insert("movies", {"id": seed * 1000 + i})
                # some callers give up at once on the limiter or a full queue
                timeout = 0.0 if rng.random() < 0.3 else 10.0
                try:
                    tickets.append((delta, core.submit(delta, timeout=timeout)))
                except ServingError as error:
                    key = "rate limit" if "rate limit" in str(error) else "other"
                    with refusal_lock:
                        refusals[key] += 1

        def flusher():
            for _ in range(20):
                target = core.queue.last_submitted_seq
                try:
                    core.flush(timeout=5.0)
                except ServingError:
                    continue  # stopped or timed out: never wedged
                flushed.append(
                    all(t.done for _, t in list(tickets) if t.seq <= target)
                )

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=threads + 1) as pool:
                done = [pool.submit(submitter, seed) for seed in range(threads)]
                done.append(pool.submit(flusher))
                assert stop_now.wait(60.0)
                core.stop(flush=flush, timeout=30.0)
                for future in done:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        wait_for(lambda: not core._thread.is_alive(), 30.0, "applier outlived stop")

        assert all(flushed)
        assert refusals["rate limit"] == core.rate_limited
        assert len(tickets) + sum(refusals.values()) == threads * per_thread
        published = sorted(
            (t for _, t in tickets if not t.failed), key=lambda t: t.seq
        )
        assert all(t.done for _, t in tickets)
        assert all(
            "stopped before applying" in str(t._error)
            for _, t in tickets if t.failed
        )
        versions = [t.version for t in published]
        assert versions == sorted(versions)
        # every landed insert was applied exactly once, by one batch
        assert sum(batch_sizes) == sum(
            len(delta) for delta, t in tickets if not t.failed
        )
        assert core.applied == len(batch_sizes) == version
        assert core.failed == 0
        uncertified = [e for e in events.tail(256) if e["event"] == "write_uncertified"]
        assert core.uncertified == len(uncertified) == version // 5
        with pytest.raises(ServingError):
            core.submit(DatabaseDelta(), timeout=0.0)
