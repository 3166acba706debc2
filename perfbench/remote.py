"""``query`` and ``update``: the replicated tier over HTTP, driven from outside.

The system under test (``system.py``) runs in its own process tree: two
followers and a primary behind two HTTP front processes and the
connection balancer.  This process only generates load through
:class:`ServingClient` — one connection per thread, two threads (the
box's ``nproc``) — and probes the layer boundaries in traced runs.

* ``query``: two closed-loop readers, ``POST /v1/topk``, no writes.  The
  transport path does almost all the work, so an index change should not
  move it.
* ``update``: one writer POSTs a 1-movie insert delta to ``/v1/submit``
  on an open-loop schedule (``WRITE_RATE`` per second), then reads its
  own write back (floored); one closed-loop reader issues unfloored
  reads beside it.  The write path takes CPU from reads, so a change
  that helps one and costs the other shows.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from harness import (
    K,
    QUERY_POOL,
    REQUEST_TIMEOUT,
    SETUP_REPEATS,
    TOKEN,
    Outcome,
    corpus_database,
    kill_group,
    make_queries,
    median,
    peak_rss_mb,
    percentile,
    same_answers,
    record_reads,
    summarize,
    tree_pids,
)
from repro.experiments.update_bench import synthesize_tmdb_delta
from repro.serving import EmbeddingStore, ServingClient, ServingSession
from repro.serving.session import index_factory_for
from repro.util.faults import RetryPolicy

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench" / "work"
#: Closed-loop readers of ``query``: one thread and one connection each.
READERS = 2
#: Every SAMPLE_EVERY-th answer is checked against a direct session.
SAMPLE_EVERY = 17
#: Queries per boundary probe in traced runs.
PROBES = 100
#: Open-loop write schedule of ``update``, and the in-process submit probes.
WRITE_RATE = 2.0
SUBMIT_PROBES = 5
#: A failed or timed-out request counts as failed: the client never retries.
NO_RETRY = RetryPolicy(attempts=1)
#: How long the writer waits for one ack; a failed write counts as this
#: long, and so does a write no reader is seen to answer at.
WRITE_TIMEOUT = 60.0


# --------------------------------------------------------------------- #
# the system under test
# --------------------------------------------------------------------- #
class SystemProcess:
    """One launch of ``system.py``: set-up time, commands, teardown."""

    def __init__(self, work: Path) -> None:
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "system.py"), "--work", str(work)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            start_new_session=True,  # its own process group: one kill ends it
        )
        self._buffer = b""
        try:
            self.info = self._read(timeout=150.0)
        except BaseException:
            self.close()
            raise
        self.setup_seconds = time.perf_counter() - started

    def _read(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.process.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("system under test did not answer in time")
            if select.select([fd], [], [], remaining)[0]:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RuntimeError(
                        f"system under test exited (code {self.process.poll()})"
                    )
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def call(self, cmd: str, timeout: float = 120.0, **arguments) -> dict:
        self.process.stdin.write((json.dumps(dict(arguments, cmd=cmd)) + "\n").encode())
        self.process.stdin.flush()
        return self._read(timeout)

    def pids(self) -> list[int]:
        return tree_pids(self.process.pid)

    def close(self) -> None:
        """Ask for a clean stop, then kill the group whatever happened."""
        try:
            if self.process.poll() is None:
                self.call("shutdown", timeout=15.0)
        except (OSError, ValueError, TimeoutError, RuntimeError):
            pass
        finally:
            kill_group(self.process)
            for stream in (self.process.stdin, self.process.stdout):
                stream.close()
            shutil.rmtree(self.work, ignore_errors=True)


def _launch(tag: str) -> tuple[SystemProcess, list[float]]:
    """SETUP_REPEATS launches; all but the last are torn down at once."""
    setups = []
    for attempt in range(SETUP_REPEATS):
        system = SystemProcess(WORK / f"{os.getpid()}-{tag}-{attempt}")
        setups.append(system.setup_seconds)
        if attempt < SETUP_REPEATS - 1:
            system.close()
    return system, setups


def _client(address: str, name: str, timeout: float = REQUEST_TIMEOUT) -> ServingClient:
    return ServingClient(
        address, token=TOKEN, client_id=name, timeout=timeout, retry=NO_RETRY
    )


def _front_stats(port: int) -> dict:
    """``/v1/stats`` from one front directly (not through the balancer)."""
    return _client(f"http://127.0.0.1:{port}", "stats").stats()


class RawConnection:
    """A keep-alive ``http.client`` connection posting ``/v1/topk``."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT
        )
        self.headers = {
            "Content-Type": "application/json",
            "Authorization": f"Bearer {TOKEN}",
            "X-Client-Id": "probe",
        }

    def topk(self, vector) -> dict:
        body = json.dumps({"vector": [float(x) for x in vector], "k": K})
        self.connection.request("POST", "/v1/topk", body=body, headers=self.headers)
        response = self.connection.getresponse()
        payload = json.loads(response.read())
        if response.status != 200:
            raise RuntimeError(f"probe got HTTP {response.status}: {payload}")
        return payload

    def close(self) -> None:
        self.connection.close()


# --------------------------------------------------------------------- #
# load
# --------------------------------------------------------------------- #
class Reader(threading.Thread):
    """A closed-loop ``/v1/topk`` caller on its own connection."""

    def __init__(self, address, name, queries, first_row, stop, tracer) -> None:
        super().__init__(daemon=True)
        self.client = _client(address, name)
        self.queries, self.row = queries, first_row
        self.stop, self.tracer = stop, tracer
        #: (due, done or None if failed, answered version)
        self.answers: list[tuple[float, float | None, int]] = []
        self.samples: list[tuple[int, int, list]] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            while not self.stop():
                row = self.row % len(self.queries)
                self.row += 1
                due = time.perf_counter()
                try:
                    with self.tracer.span("client.topk"):
                        body = self.client.topk(self.queries[row], K)
                except Exception:  # noqa: BLE001 - a failed request, counted
                    self.answers.append((due, None, -1))
                    continue
                version = int(body["version"])
                self.answers.append((due, time.perf_counter(), version))
                if row % SAMPLE_EVERY == 0:
                    self.samples.append((row, version, body["results"]))
        except BaseException as error:  # surfaced by the main thread
            self.error = error


def _read_summary(readers, started: float, stopped: float) -> dict:
    answers = [a for r in readers for a in r.answers]
    return dict(
        summarize(
            [(due, done) for due, done, _ in answers], started, stopped, 99.0,
            REQUEST_TIMEOUT,
        ),
        failed=sum(1 for _, done, _ in answers if done is None),
        checked=[s for r in readers for s in r.samples],
    )


def _join(threads) -> None:
    for thread in threads:
        thread.join()
    for thread in threads:
        if thread.error is not None:
            raise thread.error


def _read_phase(address, queries, seconds, tracer, first_row) -> dict:
    started = time.perf_counter()
    stop_at = started + seconds
    readers = [
        Reader(address, f"reader-{i}", queries,
               first_row + i * (len(queries) // READERS),
               lambda: time.perf_counter() >= stop_at, tracer)
        for i in range(READERS)
    ]
    for reader in readers:
        reader.start()
    _join(readers)
    return _read_summary(readers, started, stop_at)


def _warm(address, queries) -> None:
    client = _client(address, "warm-up")
    for row in range(8):
        client.topk(queries[row], K)


# --------------------------------------------------------------------- #
# query
# --------------------------------------------------------------------- #
def run_query(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome("query")
    tracer = out.tracer
    system, setups = _launch("query")
    try:
        address = system.info["address"]
        ports = system.info["front_ports"]
        served = EmbeddingStore(system.info["store"]).load_embedding_set(
            system.info["artifact"]
        )
        queries = make_queries(served.matrix, QUERY_POOL, seed)
        _warm(address, queries)
        if trace:
            plain = _read_phase(address, queries, seconds / 2, tracer, 0)
            before = _front_stats(ports[0])
            tracer.enabled = True
            load = _read_phase(address, queries, seconds / 2, tracer, QUERY_POOL // 4)
            after = _front_stats(ports[0])
            _probe_reads(out, system, queries, before, after)
            tracer.enabled = False
        else:
            load = _read_phase(address, queries, seconds, tracer, 0)
        rss = peak_rss_mb(system.pids())
    finally:
        system.close()

    # no writes: every answer is at the base version, which a direct
    # session over the stored vectors (the followers' flat index) answers
    direct = ServingSession(served, index_factory=index_factory_for("flat"))
    samples = load["checked"]
    out.check(
        "answers_match_direct_session",
        bool(samples) and all(
            version == 0 and same_answers(results, direct.topk(queries[row], K))
            for row, version, results in samples
        ),
        f"over {len(samples)} sampled answers",
    )
    record_reads(out, setups, rss, load, plain if trace else None)
    return out


def _probe_reads(out: Outcome, system: SystemProcess, queries, before, after) -> None:
    """Probe each boundary of the read path with the workload's queries.

    Outermost first, one boundary at a time over the same queries: the
    client library through the balancer, then a raw keep-alive request
    through the balancer, straight to a deployment front, and to a
    standalone front over the same tier (no gateway); then, inside the
    system process, the tier, a session and its index.  One connection is
    open at a time.  A layer's self time is the difference of adjacent
    medians.
    """
    tracer = out.tracer
    address = system.info["address"]
    standalone_port = system.call("standalone_front")["port"]
    probe_rows = range(PROBES)
    client = _client(address, "probe")
    for row in probe_rows:
        with tracer.span("client.topk.probe", f"probe-{row}"):
            client.topk(queries[row], K)
    for name, port in (
        ("http.raw.balancer", int(address.rsplit(":", 1)[1])),
        ("http.raw.front", system.info["front_ports"][0]),
        ("http.raw.standalone", standalone_port),
    ):
        raw = RawConnection(port)
        try:
            for row in probe_rows:
                with tracer.span(name, f"probe-{row}"):
                    raw.topk(queries[row])
        finally:
            raw.close()
    reply = system.call(
        "probe_reads", queries=[queries[row].tolist() for row in probe_rows]
    )
    tracer.extend(reply["spans"], process="system")
    med = tracer.median_ms
    totals_before = before["deployment"]["totals"]
    totals_after = after["deployment"]["totals"]
    requests = totals_after["requests"] - totals_before["requests"]
    batches = totals_after["batches_dispatched"] - totals_before["batches_dispatched"]
    connections = (
        after["deployment"]["balancer"]["connections"]
        - before["deployment"]["balancer"]["connections"]
    )
    out.per_layer.update({
        "client.overhead_ms": med("client.topk.probe") - med("http.raw.balancer"),
        "multifront.balancer_ms": med("http.raw.balancer") - med("http.raw.front"),
        "multifront.gateway_ms": med("http.raw.front") - med("http.raw.standalone"),
        "http.front_ms": med("http.raw.standalone") - med("replicated.topk_batch_versioned"),
        "replicated.topk_ms": med("replicated.topk_batch_versioned") - med("session.topk"),
        "session.topk_ms": med("session.topk") - med("index.query"),
        "index.query_ms": med("index.query"),
        "http.mean_batch": requests / batches,
        "multifront.connections_per_request": connections / requests,
        "replicated.degraded_queries": float(after["target"]["degraded_queries"]),
    })


# --------------------------------------------------------------------- #
# update
# --------------------------------------------------------------------- #
class Writer(threading.Thread):
    """Open-loop writer: delta ``i`` is due at ``start + i / WRITE_RATE``.

    After each ack it reads back through the same client, which floors
    the read at its own last acked version (read-your-writes).
    """

    def __init__(self, address, deltas, first_id, probe_query, tracer) -> None:
        super().__init__(daemon=True)
        self.client = _client(address, "writer", timeout=WRITE_TIMEOUT)
        self.deltas, self.first_id = deltas, first_id
        self.probe_query, self.tracer = probe_query, tracer
        self.started = 0.0
        #: (due, sent, acked or None if failed, version)
        self.writes: list[tuple[float, float, float | None, int]] = []
        self.floored_failed = 0
        self.violations = 0
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            for i, delta in enumerate(self.deltas):
                due = self.started + i / WRITE_RATE
                time.sleep(max(0.0, due - time.perf_counter()))
                sent = time.perf_counter()
                try:
                    with self.tracer.span("client.submit"):
                        version = self.client.submit(
                            delta, submission_id=f"perfbench-{self.first_id + i}"
                        )
                except Exception:  # noqa: BLE001 - a failed write, counted
                    self.writes.append((due, sent, None, -1))
                    continue
                self.writes.append((due, sent, time.perf_counter(), version))
                try:
                    body = self.client.topk(self.probe_query, K)
                except Exception:  # noqa: BLE001 - a failed read, counted
                    self.floored_failed += 1
                    continue
                if int(body["version"]) < version:
                    self.violations += 1
        except BaseException as error:  # surfaced by the main thread
            self.error = error


def _write_phase(address, queries, deltas, first_id, tracer) -> dict:
    writer = Writer(address, deltas, first_id, queries[-1], tracer)
    finished: dict[str, float] = {}

    def reader_stop() -> bool:
        # read until the writer is done and its last write is visible
        # (bounded: a write that never shows up counts as not visible)
        if not finished:
            return False
        seen = max((v for _, _, v in reader.answers), default=-1)
        return (
            seen >= finished["version"]
            or time.perf_counter() > finished["at"] + 10.0
        )

    reader = Reader(address, "reader", queries, 0, reader_stop, tracer)
    started = time.perf_counter()
    writer.started = started
    reader.start()
    writer.start()
    writer.join()
    finished.update(
        version=max((w[3] for w in writer.writes), default=0),
        at=time.perf_counter(),
    )
    _join([writer, reader])

    reads = _read_summary([reader], started, finished["at"])
    acked = [(due, done, version) for due, _, done, version in writer.writes]
    missed_ms = WRITE_TIMEOUT * 1000.0
    ack_ms = [
        missed_ms if done is None else (done - due) * 1000.0 for due, done, _ in acked
    ]
    visible_ms = []
    for due, done, version in acked:
        seen = [
            answered for _, answered, v in reader.answers
            if answered is not None and v >= version
        ]
        visible_ms.append(
            (min(seen) - due) * 1000.0 if seen and done is not None else missed_ms
        )
    versions = [version for _, done, version in acked if done is not None]
    return {
        "reads": reads,
        "writes": len(acked),
        "write_failed": sum(1 for _, done, _ in acked if done is None)
        + writer.floored_failed,
        "floored_reads": len(acked) - writer.floored_failed,
        "ack_ms": ack_ms,
        "visible_ms": visible_ms,
        "versions": versions,
        "violations": writer.violations,
        "late_ms": max((sent - due) * 1000.0 for due, sent, _, _ in writer.writes),
    }


def _deltas(seed: int, n: int) -> list:
    """``n`` consecutive 1-movie insert deltas, each assuming its predecessors."""
    scratch = corpus_database()
    rng = np.random.default_rng(seed)
    deltas = []
    for _ in range(n):
        delta = synthesize_tmdb_delta(
            scratch, rng, 1, include_update=False, include_delete=False
        )
        delta.apply_to(scratch)
        deltas.append(delta)
    return deltas


def run_update(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome("update")
    tracer = out.tracer
    n_writes = max(2, int(seconds * WRITE_RATE))
    deltas = _deltas(seed, n_writes + SUBMIT_PROBES)
    load_deltas, probe_deltas = deltas[:n_writes], deltas[n_writes:]
    system, setups = _launch("update")
    try:
        address = system.info["address"]
        ports = system.info["front_ports"]
        served = EmbeddingStore(system.info["store"]).load_embedding_set(
            system.info["artifact"]
        )
        queries = make_queries(served.matrix, QUERY_POOL, seed)
        _warm(address, queries)
        if trace:
            half = n_writes // 2
            plain = _write_phase(address, queries, load_deltas[:half], 0, tracer)
            tracer.enabled = True
            load = _write_phase(address, queries, load_deltas[half:], half, tracer)
        else:
            load = _write_phase(address, queries, load_deltas, 0, tracer)
        stats = _front_stats(ports[0])["target"]
        all_versions = (plain["versions"] if trace else []) + load["versions"]
        out.check(
            "acked_versions_never_decrease",
            all(b >= a for a, b in zip(all_versions, all_versions[1:])),
        )
        out.check(
            "log_version_is_highest_ack",
            bool(all_versions) and stats["log_version"] == max(all_versions),
            f"(log {stats['log_version']}, highest ack {max(all_versions, default=None)})",
        )
        if trace:
            _probe_writes(out, system, load_deltas, probe_deltas, load, stats)
            tracer.enabled = False
        rss = peak_rss_mb(system.pids())
    finally:
        system.close()

    phases = [plain, load] if trace else [load]
    violations = sum(p["violations"] for p in phases)
    out.check("read_your_writes", violations == 0, f"({violations} stale floored reads)")
    out.attempted = sum(
        p["reads"]["samples"] + p["writes"] + p["floored_reads"] for p in phases
    )
    out.failed = sum(p["reads"]["failed"] + p["write_failed"] for p in phases)
    ack_p50 = percentile(load["ack_ms"], 50)
    ack_p90 = percentile(load["ack_ms"], 90)
    out.end_to_end = {
        "setup_s": min(setups),
        "rss_mb": rss,
        "ops_per_s": load["reads"]["qps"],
        "op_p50_ms": ack_p50,
        "op_tail_ms": ack_p90,
    }
    writes, reads = load["writes"], load["reads"]["samples"]
    out.named = {
        "setup_s": (min(setups), "s", len(setups)),
        "rss_mb": (rss, "MB", 1),
        "read_qps": (load["reads"]["qps"], "1/s", reads),
        "read_p99_ms": (load["reads"]["tail_ms"], "ms", reads),
        "write_ack_p50_ms": (ack_p50, "ms", writes),
        "write_ack_p90_ms": (ack_p90, "ms", writes),
        "write_visible_p50_ms": (percentile(load["visible_ms"], 50), "ms", writes),
        "writer_late_max_ms": (load["late_ms"], "ms", writes),
    }
    if trace:
        out.overhead = {
            "ops_per_s": load["reads"]["qps"] - plain["reads"]["qps"],
            "op_p50_ms": ack_p50 - percentile(plain["ack_ms"], 50),
            "op_tail_ms": ack_p90 - percentile(plain["ack_ms"], 90),
        }
    return out


def _probe_writes(out, system, load_deltas, probe_deltas, load, stats) -> None:
    """Replay the load's writes serially through each write-path layer in
    the system process, and time in-process submits of fresh deltas."""
    tracer = out.tracer
    reply = system.call(
        "probe_writes",
        timeout=170.0,
        replay=[delta.to_dict() for delta in load_deltas],
        submit=[delta.to_dict() for delta in probe_deltas],
    )
    tracer.extend(reply["spans"], process="system")
    active = [n_active for n_active, _ in reply["reports"]]
    iterations = [n for _, n in reply["reports"]]
    med = tracer.median_ms
    out.per_layer.update({
        "db.apply_ms": med("db.apply"),
        "extraction.delta_ms": med("extraction.derive_extraction_delta"),
        "incremental.apply_ms": med("incremental.apply"),
        "session.apply_update_ms": med("session.apply_update"),
        "store.append_ms": med("store.append"),
        "store.replay_ms": med("store.replay"),
        "replicated.submit_ack_ms": med("replicated.submit_ack"),
        # queue wait + IPC + replication: what the serial stages leave over
        "write.unexplained_ms": percentile(load["ack_ms"], 50) - med("write.serial"),
        "incremental.active_rows": median(active),
        "incremental.iterations": median(iterations),
        "replicated.writes_coalesced": float(
            stats["writes_submitted"] - stats["writes_applied"] - stats["write_failures"]
        ),
    })
