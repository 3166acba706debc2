"""Dispatch-when-idle read batching, through both query fronts.

A read that finds no batch in flight is dispatched at once, so a lone
read never waits out the window; reads that arrive while a batch is in
flight are batched and sent when it returns; and ``window_seconds``
bounds how long a read waits behind a batch that does not return.  The
same :class:`~repro.serving.batching.BatchingCore` drives the in-process
:class:`BatchedQueryFront` and the :class:`HTTPServingFront`, so every
behaviour is checked through both.
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.serving import BatchedQueryFront, HTTPServingFront

from tests.serving.test_http_front import http

DIMENSION = 4


def _answer(vector):
    """The echo target's answer: which axis the query points along."""
    return [["axis", f"axis-{int(np.argmax(vector))}", float(np.max(vector))]]


def _vector(axis):
    vector = [0.0] * DIMENSION
    vector[axis] = 1.0 + axis
    return vector


class _BlockingTarget:
    """Answers each query with its own axis; blocks its first call until
    released, so a test can hold one batch in flight."""

    dimension = DIMENSION
    published_version = 0

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def topk_batch(self, vectors, k, category=None):
        with self._lock:
            self.calls += 1
            first = self.calls == 1
        if first:
            self.entered.set()
            assert self.release.wait(timeout=30)
        return [[tuple(hit) for hit in _answer(vector)] for vector in vectors]


class _InProcess:
    """A :class:`BatchedQueryFront` behind the harness the tests share."""

    def __init__(self, target, window_seconds):
        self.front = BatchedQueryFront(target, window_seconds=window_seconds)

    def read(self, axis):
        rows = self.front.topk(np.asarray(_vector(axis)), 1, timeout=30)
        return [list(row) for row in rows]

    def submitted(self):
        return self.front.stats.requests

    def batches(self):
        return self.front.stats.batches_dispatched

    def close(self):
        self.front.close(timeout=30)


class _OverHTTP:
    """A :class:`HTTPServingFront` behind the harness the tests share."""

    def __init__(self, target, window_seconds):
        self.front = HTTPServingFront(target, window_seconds=window_seconds).start()

    def read(self, axis):
        status, body, _ = http(
            self.front.address, "/v1/topk", {"vector": _vector(axis), "k": 1}
        )
        assert status == 200, body
        return body["results"]

    def submitted(self):
        return self.front.stats.requests

    def batches(self):
        return self.front.stats.batches_dispatched

    def close(self):
        self.front.close()


@pytest.fixture(params=[_InProcess, _OverHTTP], ids=["in-process", "http"])
def front_kind(request):
    return request.param


class TestIdleDispatch:
    def test_a_lone_read_does_not_wait_out_the_window(self, front_kind):
        target = _BlockingTarget()
        target.release.set()  # nothing blocks: the front stays idle
        front = front_kind(target, window_seconds=1.0)
        try:
            started = time.monotonic()
            assert front.read(2) == _answer(_vector(2))
            assert time.monotonic() - started < 0.5
        finally:
            front.close()


class TestBatchingWhileBusy:
    def test_reads_queued_behind_a_batch_go_out_together(self, front_kind):
        target = _BlockingTarget()
        front = front_kind(target, window_seconds=30.0)
        pool = ThreadPoolExecutor(max_workers=9)
        try:
            first = pool.submit(front.read, 0)
            assert target.entered.wait(timeout=30)  # one batch in flight
            axes = [axis % DIMENSION for axis in range(8)]
            queued = [pool.submit(front.read, axis) for axis in axes]
            deadline = time.monotonic() + 30
            while front.submitted() < 9 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert front.submitted() == 9
            assert front.batches() == 1  # the eight wait in their bucket
            target.release.set()
            assert first.result(timeout=30) == _answer(_vector(0))
            for axis, future in zip(axes, queued):
                assert future.result(timeout=30) == _answer(_vector(axis))
            assert front.batches() - 1 <= 2
        finally:
            target.release.set()
            pool.shutdown(wait=True)
            front.close()


class TestWindowBoundsTheWait:
    def test_a_read_behind_a_stuck_batch_is_answered(self, front_kind):
        target = _BlockingTarget()
        front = front_kind(target, window_seconds=0.05)
        pool = ThreadPoolExecutor(max_workers=2)
        try:
            first = pool.submit(front.read, 0)
            assert target.entered.wait(timeout=30)
            # the first batch stays blocked; the window still sends this one
            assert pool.submit(front.read, 3).result(timeout=10) == _answer(
                _vector(3)
            )
            assert not first.done()
            target.release.set()
            assert first.result(timeout=30) == _answer(_vector(0))
        finally:
            target.release.set()
            pool.shutdown(wait=True)
            front.close()


class TestPipelinedSubmissions:
    def test_a_pipelined_burst_goes_out_as_one_batch(self):
        # submit() callers may send more before they wait, so even an idle
        # front gives them the window to gather a burst (a blocking topk
        # would have gone out alone, then the rest behind it)
        target = _BlockingTarget()
        target.release.set()
        front = BatchedQueryFront(target, window_seconds=0.2)
        try:
            futures = [
                front.submit(np.asarray(_vector(axis % DIMENSION)), 1)
                for axis in range(8)
            ]
            for axis, future in enumerate(futures):
                assert [list(row) for row in future.result(timeout=30)] == (
                    _answer(_vector(axis % DIMENSION))
                )
            assert front.stats.batches_dispatched == 1
            assert front.stats.largest_batch == 8
        finally:
            front.close(timeout=30)


class TestMeanBatchSize:
    def test_rejected_reads_are_not_counted_as_batched(self):
        target = _BlockingTarget()
        target.release.set()
        with HTTPServingFront(
            target, window_seconds=0.0, rate_per_second=0.001, burst=1
        ) as front:
            alpha = {"X-Client-Id": "alpha"}
            payload = {"vector": _vector(1), "k": 1}
            assert http(front.address, "/v1/topk", payload, headers=alpha)[0] == 200
            for _ in range(3):
                assert (
                    http(front.address, "/v1/topk", payload, headers=alpha)[0]
                    == 429
                )
            status, _, _ = http(
                front.address, "/v1/topk", {"vector": [1.0]},
                headers={"X-Client-Id": "beta"},
            )
            assert status == 400
            stats = front.stats
        assert stats.requests == 5  # every /v1/topk, rejected ones too
        assert stats.rate_limited == 3
        assert stats.batches_dispatched == 1
        assert stats.mean_batch_size == 1.0
        assert stats.requests_dispatched == 1


class _EchoTarget:
    """Answers each query with its own axis after a short random pause."""

    dimension = DIMENSION

    def __init__(self):
        self._rng = np.random.default_rng(3)
        self._lock = threading.Lock()

    def topk_batch(self, vectors, k, category=None):
        with self._lock:
            pause = float(self._rng.uniform(0.0, 0.002))
        time.sleep(pause)
        return [[tuple(hit) for hit in _answer(vector)] for vector in vectors]


@pytest.mark.stress
class TestCoreUnderContention:
    def test_counts_and_idle_state_survive_a_thread_storm(self):
        # more submitters than cores and a tiny switch interval: a lost
        # update of the in-flight count would leave the front "busy"
        # forever, and its next lone read would wait out the 1 s window
        threads, per_thread = 8, 150
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        front = BatchedQueryFront(_EchoTarget(), window_seconds=1.0, max_batch=8)
        try:

            def submitter(seed):
                rng = np.random.default_rng(seed)
                axes = [int(axis) for axis in rng.integers(0, DIMENSION, per_thread)]
                vectors = [np.asarray(_vector(axis)) for axis in axes]
                if seed % 2:  # blocking callers: at once, or behind a batch
                    rows = [front.topk(vector, 1, timeout=60) for vector in vectors]
                else:  # a pipelining caller: everything in flight, then wait
                    futures = [front.submit(vector, 1) for vector in vectors]
                    rows = [future.result(timeout=60) for future in futures]
                return all(
                    [list(row) for row in answer] == _answer(_vector(axis))
                    for axis, answer in zip(axes, rows)
                )

            with ThreadPoolExecutor(max_workers=threads) as pool:
                answers = list(pool.map(submitter, range(threads), timeout=120))
            assert answers == [True] * threads
            stats = front.stats
            assert stats.requests == stats.requests_dispatched == threads * per_thread
            assert stats.largest_batch <= 8
            started = time.monotonic()
            assert front.topk(np.asarray(_vector(1)), 1, timeout=30)
            assert time.monotonic() - started < 0.5
        finally:
            sys.setswitchinterval(previous)
            front.close(timeout=30)
