"""ServingClient: retries, idempotent resubmission, read-your-writes floors.

The client talks to a real :class:`HTTPServingFront` on a loopback
socket; the targets behind it are scriptable doubles so failure
injection (backpressure once, then success) is deterministic.
"""

import threading
import time

import pytest

from repro.errors import BackpressureError
from repro.serving import (
    HTTPServingFront,
    ServingAPIError,
    ServingClient,
    TransientServingError,
)
from repro.util.faults import RetryPolicy

from tests.serving.test_http_v1 import VECTOR, _Ticket, wire_delta


class _RecordingTarget:
    """Records the ``min_version`` floor of every read, dedups writes."""

    dimension = 4

    def __init__(self):
        self.floors = []
        self.submission_ids = []
        self.applied = 0
        self.seen_ids = {}
        self.fail_first_submits = 0
        self.lock = threading.Lock()

    def topk_batch_versioned(self, vectors, k, category=None, min_version=None):
        with self.lock:
            self.floors.append(min_version)
            version = self.applied
        return version, [
            [("movies.title", "answer", 1.0)] for _ in vectors
        ]

    def submit(self, delta, timeout=None, submission_id=None):
        with self.lock:
            self.submission_ids.append(submission_id)
            if self.fail_first_submits > 0:
                self.fail_first_submits -= 1
                raise BackpressureError("queue full", retry_after=0.01)
            if submission_id in self.seen_ids:
                return _Ticket(self.seen_ids[submission_id])
            self.applied += 1
            self.seen_ids[submission_id] = self.applied
            return _Ticket(self.applied)


FAST_RETRY = RetryPolicy(attempts=4, base_delay=0.01, max_delay=0.05)


@pytest.fixture()
def served():
    target = _RecordingTarget()
    with HTTPServingFront(target, window_seconds=0.0) as front:
        yield front, target


class TestReadYourWrites:
    def test_topk_is_floored_at_the_last_acked_write(self, served):
        front, target = served
        with ServingClient(front.address, retry=FAST_RETRY) as client:
            client.topk(VECTOR)  # before any write: no floor
            version = client.submit(wire_delta(), submission_id="ryw-1")
            assert version == 1
            assert client.last_write_version == 1
            body = client.topk(VECTOR)
            assert body["version"] >= 1
            # an explicit min_version overrides the automatic floor
            client.topk(VECTOR, min_version=0)
        assert target.floors == [None, 1, 0]

    def test_opting_out_disables_the_floor(self, served):
        front, target = served
        with ServingClient(
            front.address, retry=FAST_RETRY, read_your_writes=False
        ) as client:
            client.submit(wire_delta(), submission_id="no-ryw")
            client.topk(VECTOR)
        assert target.floors == [None]


class TestRetries:
    def test_transient_429_retries_under_the_same_submission_id(self, served):
        front, target = served
        target.fail_first_submits = 2  # two 429s, then success
        with ServingClient(front.address, retry=FAST_RETRY) as client:
            version = client.submit(wire_delta(), submission_id="retry-1")
        assert version == 1
        # every attempt resent the *same* idempotency key, and the delta
        # landed exactly once
        assert target.submission_ids == ["retry-1", "retry-1", "retry-1"]
        assert target.applied == 1

    def test_minted_id_is_fixed_before_the_first_attempt(self, served):
        front, target = served
        target.fail_first_submits = 1
        with ServingClient(front.address, retry=FAST_RETRY) as client:
            client.submit(wire_delta())  # no explicit id: client mints one
        assert len(target.submission_ids) == 2
        assert target.submission_ids[0] == target.submission_ids[1]
        assert target.applied == 1

    def test_exhausted_retries_surface_the_transient_error(self, served):
        front, target = served
        target.fail_first_submits = 99
        with ServingClient(
            front.address, retry=RetryPolicy(attempts=2, base_delay=0.01)
        ) as client:
            with pytest.raises(TransientServingError) as excinfo:
                client.submit(wire_delta(), submission_id="doomed")
        assert excinfo.value.status == 429
        assert excinfo.value.code == "rate_limited"
        assert len(target.submission_ids) == 2  # attempts, not attempts+1

    def test_definite_client_errors_do_not_retry(self):
        target = _RecordingTarget()
        with HTTPServingFront(
            target, window_seconds=0.0, auth_tokens={"t": ("read",)}
        ) as front:
            with ServingClient(front.address, retry=FAST_RETRY) as client:
                with pytest.raises(ServingAPIError) as excinfo:
                    client.topk(VECTOR)
            assert excinfo.value.status == 401
            assert excinfo.value.code == "unauthenticated"
            assert not isinstance(excinfo.value, TransientServingError)
            assert front.stats.auth_failures == 1  # exactly one attempt

    def test_connection_refused_raises_after_retries(self):
        client = ServingClient(
            "http://127.0.0.1:9",  # discard port: nothing listens
            retry=RetryPolicy(attempts=2, base_delay=0.01),
            timeout=2.0,
        )
        with pytest.raises(OSError):
            client.health()  # health is not retried, fails fast
        with pytest.raises(OSError):
            client.stats()  # retried, still surfaces the transport error


class TestAuthAndHealth:
    def test_bearer_token_is_attached(self):
        target = _RecordingTarget()
        tokens = {"rw": ("read", "write")}
        with HTTPServingFront(
            target, window_seconds=0.0, auth_tokens=tokens
        ) as front:
            with ServingClient(
                front.address, token="rw", retry=FAST_RETRY
            ) as client:
                assert client.topk(VECTOR)["version"] == 0
                assert client.submit(wire_delta(), submission_id="authed") == 1

    def test_health_returns_the_degraded_body_without_raising(self):
        class _Degraded(_RecordingTarget):
            degraded = True

        with HTTPServingFront(_Degraded(), window_seconds=0.0) as front:
            with ServingClient(front.address, retry=FAST_RETRY) as client:
                body = client.health()  # 503 on the wire, body surfaced
            assert body["status"] == "degraded"

    def test_stats_round_trips(self, served):
        front, _ = served
        with ServingClient(front.address, client_id="stats-reader") as client:
            client.topk(VECTOR)
            body = client.stats()
        assert body["front"]["requests"] == 1

    def test_submit_rejects_non_delta_payloads(self, served):
        front, _ = served
        client = ServingClient(front.address)
        with pytest.raises(Exception, match="DatabaseDelta"):
            client.submit(["not", "a", "delta"])


class TestKeepAlive:
    def test_a_connection_the_server_closed_is_replaced_once(self):
        # the front cuts idle keep-alive connections after 0.2 s; the
        # client's pooled connection is stale by its second call, and with
        # one attempt only the stale-connection re-send can save the call
        with HTTPServingFront(
            _RecordingTarget(), window_seconds=0.0, read_timeout_seconds=0.2
        ) as front:
            with ServingClient(
                front.address, retry=RetryPolicy(attempts=1)
            ) as client:
                assert client.topk(VECTOR)["version"] == 0
                time.sleep(0.5)
                assert client.topk(VECTOR)["version"] == 0
            assert front.stats.read_timeouts == 1
            assert front.stats.requests == 2
