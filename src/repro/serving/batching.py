"""The read-batching policy of both query fronts: dispatch when idle.

:class:`~repro.serving.runtime.BatchedQueryFront` (threads) and
:class:`~repro.serving.http.HTTPServingFront` (an event loop) coalesce
concurrent top-k reads the same way, through one :class:`BatchingCore`:

* A request joins its ``(k, category)`` bucket.  Once its caller waits on
  it (:meth:`BatchingCore.wait`) — every HTTP read at once, an in-process
  read when its caller blocks on the future — the bucket is dispatched at
  once when no dispatch is in flight: an idle front adds no wait, and
  waiting could bring that caller no company.
* Otherwise a bucket is dispatched when an in-flight dispatch returns (if
  a caller waits on one of its requests), when it reaches ``max_batch``,
  or once its oldest request has waited ``window_seconds``.

So reads that queue behind a busy target go out together when it frees
up ("smart batching", M. Thompson, *Mechanical Sympathy*, 2011), and
without load nobody lingers for a batch that never forms.  A pipelined
submission (``BatchedQueryFront.submit``, whose caller may send more
before it waits) lingers until its caller waits: a burst sent before the
wait goes out as one batch, and nothing idles after it.  A caller that
never blocks (it only adds done-callbacks) leaves its bucket to the
window.  ``window_seconds`` is the longest any request waits to share a
batch; a bucket whose window runs out is dispatched beside a slow batch
it queued behind.

The core owns the policy, the buckets, the floor merge and the batch
counters.  A front supplies the transport: ``dispatch(key, vectors,
floor, futures)`` starts one batch and calls :meth:`BatchingCore.done`
once the batch has finished, and ``call_later(delay, callback)`` arms a
bucket's window.
"""
from __future__ import annotations

import threading
from functools import partial

from repro.errors import ServingError


class BatchingCore:
    """Buckets concurrent reads while a dispatch is in flight.

    Every method is thread-safe: dispatches may finish on several
    threads.  A request is ``(vector, floor, future)`` under its bucket
    ``key``; the core never touches the future, it only hands it back to
    ``dispatch`` with the batch.
    """

    def __init__(
        self,
        dispatch,
        call_later,
        window_seconds: float = 0.002,
        max_batch: int = 64,
    ) -> None:
        if max_batch < 1:
            raise ServingError("max_batch must be at least 1")
        self._dispatch = dispatch
        self._call_later = call_later
        self._window = float(window_seconds)
        self._max_batch = int(max_batch)
        self._cond = threading.Condition()
        self._buckets: dict[object, list] = {}
        #: keys whose bucket holds a request its caller waits on
        self._waited: set = set()
        self._in_flight = 0
        self._closed = False
        self._batches = 0
        self._dispatched = 0
        self._largest = 0

    def submit(self, key, vector, floor, future):
        """Bucket one request; returns the ticket :meth:`wait` takes.

        The request lingers for company until its caller waits, its
        bucket fills or its window runs out.
        """
        armed = None
        with self._cond:
            if self._closed:
                raise ServingError("query front is closed")
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = armed = self._buckets[key] = []
            bucket.append((vector, floor, future))
            ready = []
            if len(bucket) >= self._max_batch:
                ready.append((key, self._pop(key)))
                self._count(ready)
        if armed is not None and not ready:
            self._call_later(self._window, partial(self._expire, key, armed))
        self._start(ready)
        return key, bucket

    def wait(self, ticket) -> None:
        """The caller of ``ticket``'s request now waits on it.

        Its bucket goes out at once when no dispatch is in flight, else
        when the next one returns.  A request already dispatched changes
        nothing: the bucket is checked by identity, so a later bucket
        under the same key keeps its window.
        """
        key, bucket = ticket
        with self._cond:
            if self._buckets.get(key) is not bucket:
                return
            ready = []
            if self._in_flight == 0:
                ready.append((key, self._pop(key)))
                self._count(ready)
            else:
                self._waited.add(key)
        self._start(ready)

    def done(self) -> None:
        """One dispatch finished: every bucket a caller waits on goes out."""
        with self._cond:
            self._in_flight -= 1
            ready = [(key, self._pop(key)) for key in list(self._waited)]
            self._count(ready)
            self._cond.notify_all()
        self._start(ready)

    def flush(self) -> None:
        """Dispatch every pending bucket now, without its window."""
        with self._cond:
            ready = self._take_all()
        self._start(ready)

    def close(self, timeout: float | None = None) -> None:
        """Refuse new requests, flush, and wait until nothing is in flight."""
        with self._cond:
            self._closed = True
            ready = self._take_all()
        self._start(ready)
        with self._cond:
            self._cond.wait_for(lambda: self._in_flight == 0, timeout)

    def counts(self) -> tuple[int, int, int]:
        """``(batches, requests dispatched, largest batch)`` so far."""
        with self._cond:
            return self._batches, self._dispatched, self._largest

    def _expire(self, key, bucket) -> None:
        with self._cond:
            if self._buckets.get(key) is not bucket:
                return  # already dispatched by a completion or max_batch
            ready = [(key, self._pop(key))]
            self._count(ready)
        self._start(ready)

    def _pop(self, key) -> list:
        self._waited.discard(key)
        return self._buckets.pop(key)

    def _take_all(self) -> list:
        ready = list(self._buckets.items())
        self._buckets.clear()
        self._waited.clear()
        self._count(ready)
        return ready

    def _count(self, ready) -> None:
        for _, batch in ready:
            self._in_flight += 1
            self._batches += 1
            self._dispatched += len(batch)
            self._largest = max(self._largest, len(batch))

    def _start(self, ready) -> None:
        for key, batch in ready:
            floors = [floor for _, floor, _ in batch if floor is not None]
            # the merged batch reads at the *newest* requested floor:
            # versions are monotonic, so a co-batched client only ever sees
            # a fresher snapshot than it asked for, never a staler one
            self._dispatch(
                key,
                [vector for vector, _, _ in batch],
                max(floors) if floors else None,
                [future for _, _, future in batch],
            )
