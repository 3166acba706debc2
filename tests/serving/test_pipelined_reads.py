"""A pipelined read lingers for company only until its caller waits.

``BatchedQueryFront.submit`` returns a future whose blocking
``result()`` tells the batching core that the caller now waits: the
burst sent before that goes out at once, as one batch.  A caller that
never blocks leaves its bucket to the window, and a wait on a request
that already went out never marks a later bucket of the same key.
"""

import concurrent.futures
import threading
import time

import numpy as np
import pytest

from repro.serving import BatchedQueryFront
from repro.serving.batching import BatchingCore

DIMENSION = 4


def _vector(axis):
    vector = np.zeros(DIMENSION)
    vector[axis] = 1.0 + axis
    return vector


class _EchoTarget:
    """Answers each query with its own axis; counts its batches."""

    dimension = DIMENSION

    def __init__(self):
        self.batches = []

    def topk_batch(self, vectors, k, category=None):
        self.batches.append(len(vectors))
        return [
            [("axis", f"axis-{int(np.argmax(vector))}", float(np.max(vector)))]
            for vector in vectors
        ]


def _answer(axis):
    return [("axis", f"axis-{axis}", 1.0 + axis)]


class TestTheWaitSendsTheBurst:
    def test_a_blocking_result_sends_what_was_submitted_before_it(self):
        target = _EchoTarget()
        front = BatchedQueryFront(target, window_seconds=1.0)
        try:
            futures = [front.submit(_vector(axis), 1) for axis in range(3)]
            started = time.monotonic()
            assert futures[0].result(timeout=30) == _answer(0)
            assert time.monotonic() - started < 0.5
            for axis, future in enumerate(futures):
                assert future.result(timeout=30) == _answer(axis)
            assert target.batches == [3]
            assert front.stats.largest_batch == 3
        finally:
            front.close(timeout=30)

    def test_exception_is_a_wait_too(self):
        target = _EchoTarget()
        front = BatchedQueryFront(target, window_seconds=1.0)
        try:
            future = front.submit(_vector(1), 1)
            started = time.monotonic()
            assert future.exception(timeout=30) is None
            assert time.monotonic() - started < 0.5
        finally:
            front.close(timeout=30)


class TestACallerThatNeverBlocks:
    @pytest.mark.parametrize("how", ["done-callback", "futures-wait"])
    def test_is_answered_by_the_window(self, how):
        target = _EchoTarget()
        window = 0.2
        front = BatchedQueryFront(target, window_seconds=window)
        try:
            started = time.monotonic()
            future = front.submit(_vector(2), 1)
            if how == "done-callback":
                answered = threading.Event()
                future.add_done_callback(lambda _: answered.set())
                assert answered.wait(timeout=30)
            else:
                done, _ = concurrent.futures.wait([future], timeout=30)
                assert done == {future}
            # nobody blocked in result(): only the window sent it
            assert time.monotonic() - started >= window * 0.9
            assert future.result(timeout=0) == _answer(2)
        finally:
            front.close(timeout=30)


class _ManualTransport:
    """Dispatches and window timers a test fires by hand."""

    def __init__(self):
        self.dispatched = []
        self.timers = []

    def dispatch(self, key, vectors, floor, futures):
        self.dispatched.append((key, len(vectors)))

    def call_later(self, delay, callback):
        self.timers.append(callback)


class TestAStaleWait:
    def test_does_not_send_a_later_bucket_of_the_same_key(self):
        transport = _ManualTransport()
        core = BatchingCore(transport.dispatch, transport.call_later, 1.0)
        key = (1, None)
        first = core.submit(key, _vector(0), None, object())
        core.wait(first)  # idle: out at once, and still in flight
        assert transport.dispatched == [(key, 1)]
        core.submit(key, _vector(1), None, object())  # a new bucket, same key
        core.wait(first)  # a second wait on the request already sent
        core.done()  # the first batch returns
        assert transport.dispatched == [(key, 1)]  # the new bucket lingers
        transport.timers[-1]()  # until its own window runs out
        assert transport.dispatched == [(key, 1), (key, 1)]

    def test_a_fresh_wait_behind_a_batch_goes_out_when_it_returns(self):
        transport = _ManualTransport()
        core = BatchingCore(transport.dispatch, transport.call_later, 1.0)
        key = (1, None)
        core.wait(core.submit(key, _vector(0), None, object()))
        second = core.submit(key, _vector(1), None, object())
        core.submit(key, _vector(2), None, object())
        core.wait(second)  # busy: marked, not sent
        assert transport.dispatched == [(key, 1)]
        core.done()
        assert transport.dispatched == [(key, 1), (key, 2)]
