"""Deterministic chaos benchmark (``repro chaos``).

Runs ``schedules`` seeded fault schedules against the multi-process
serving tier under a live query+delta workload and certifies, after
every schedule, the invariants the serving stack promises to keep under
partial failure:

* **store integrity** — the embedding store loads cleanly and its delta
  chain replays end to end (a torn or interrupted write never corrupts
  the committed state),
* **liveness** — every submitted write ticket resolves (published or
  explicitly failed); nothing hangs,
* **read-your-writes** — a read issued after a write ack answers
  at-or-past the acked version,
* **agreement** — the final store matrix stays within
  :data:`COSINE_TOLERANCE` cosine distance of a *serial*
  :class:`~repro.retrofit.incremental.IncrementalRetrofitter` replaying
  exactly the acked deltas,
* **containment** — every injected fault ends in either full recovery
  (reads and writes succeed again) or an explicitly reported degraded
  state (``submit`` refuses with a diagnosis; never silent corruption).

Schedule ``i`` exercises fault class ``FAULT_CLASSES[i % 5]`` against
the tier laid out as ``LAYOUTS[i % 2]`` — ``(n_shards, n_replicas)`` of
``(2, 1)`` (sharded) or ``(1, 2)`` (replicated) — so five schedules cover
every fault class and ten cover the full class × layout matrix; the
per-schedule RNG (``seed + i``) only varies the knobs (tear fraction,
delay, trigger offsets).  Fault plans are installed *before* the tier
forks its worker processes, so workers inherit them (see
:mod:`repro.util.faults`); the plan is cleared in the front once the
fault has demonstrably fired.  Every schedule arms primary failover with
a ``retrofitter_factory``.

Writes are submitted with idempotent submission ids and retried through
a :class:`~repro.util.RetryPolicy` — a retried write must apply exactly
once (the delta queue dedups pending/published ids and re-enqueues only
provably-failed ones).
"""

from __future__ import annotations

import dataclasses
import tempfile
import time
from typing import Any

import numpy as np

from repro.errors import ExperimentError, ServingError
from repro.experiments.common import make_tmdb
from repro.experiments.runner import ExperimentSizes, ResultTable
from repro.experiments.serve_bench import SOLVE_ITERATIONS, _build_query_workload
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
from repro.serving.replicated import ReplicatedServingTier
from repro.serving.store import EmbeddingStore
from repro.util import RetryPolicy
from repro.util import faults as faultlib
from repro.util.faults import FaultPlan, FaultPoint

#: Every fault class the injection subsystem supports; schedule ``i``
#: draws class ``i % len(FAULT_CLASSES)``, so five schedules exercise
#: all of them at least once.
FAULT_CLASSES = ("crash", "delay", "torn_write", "drop_message", "fail_spawn")

#: ``(n_shards, n_replicas)`` layouts; schedule ``i`` runs on ``LAYOUTS[i % 2]``.
LAYOUTS = ((2, 1), (1, 2))

#: Agreement gate between the surviving store state and the serial replay.
COSINE_TOLERANCE = 1e-3

#: Client-side resubmission policy for writes that lost their ack.
WRITE_RETRY = RetryPolicy(attempts=4, base_delay=0.1, max_delay=1.0, deadline=60.0)

_ARTIFACT = "chaos"


@dataclasses.dataclass
class _Schedule:
    """One resolved fault schedule: the plan plus its workload shape."""

    index: int
    fault_class: str
    n_shards: int
    n_replicas: int
    site: str  # primary fault point name, for the matrix
    plan: FaultPlan
    # crash/torn trigger geometry: how many writes phase A must land so
    # the armed fault point's traversal counter reaches its skip window
    writes_armed: int = 2
    writes_recovery: int = 2
    # heartbeat-driven schedules idle until the follower death+respawn
    # completes before running the workload (keeps the parent-side drop
    # traversals aligned with the probe order)
    idle_until_respawn: bool = False
    delay_seconds: float = 0.0

    @property
    def layout(self) -> str:
        return f"{self.n_shards}x{self.n_replicas}"

    @property
    def sharded(self) -> bool:
        return self.n_shards > 1


def _build_schedule(index: int, seed: int) -> _Schedule:
    """The deterministic plan for schedule ``index`` (rng jitters knobs)."""
    rng = np.random.default_rng(seed + index)
    fault_class = FAULT_CLASSES[index % len(FAULT_CLASSES)]
    n_shards, n_replicas = LAYOUTS[index % 2]
    sharded = n_shards > 1

    def schedule(site, points, **knobs) -> _Schedule:
        return _Schedule(
            index, fault_class, n_shards, n_replicas, site,
            FaultPlan(points=points), **knobs,
        )

    if fault_class == "crash":
        if sharded:
            # every worker inherits the plan, so all shards crash on the
            # same scatter-gather message; skip is large enough that the
            # respawned workers (which inherit a fresh counter) survive
            # the recovery-phase probes
            return schedule(
                "shard.worker", (FaultPoint("shard.worker", "crash", skip=8),)
            )
        # the primary dies mid-publish; the front's landed-check retries
        # the in-flight batch on the respawned primary
        skip = 2 + int(rng.integers(0, 2))  # crash on write skip+1
        return schedule(
            "runtime.publish",
            (FaultPoint("runtime.publish", "crash", skip=skip),),
            writes_armed=skip + 1,
            writes_recovery=max(1, skip - 1),
        )
    if fault_class == "delay":
        delay = 0.75 + float(rng.uniform(0.0, 0.25))
        return schedule(
            "store.delta_append",
            (FaultPoint("store.delta_append", "delay", delay_seconds=delay),),
            delay_seconds=delay,
        )
    if fault_class == "torn_write":
        # the primary's third append tears; the front replaces the
        # (possibly diverged) primary with one respawned from the store
        # and the client retry lands the write there — skip=2 keeps the
        # respawned primary (a fresh traversal counter) inside its own
        # skip window for the remaining writes
        tear = float(rng.uniform(0.2, 0.8))
        return schedule(
            "store.artifact_write",
            (
                FaultPoint(
                    "store.artifact_write", "torn_write",
                    skip=2, tear_fraction=tear,
                ),
            ),
            writes_armed=3,
            writes_recovery=1,
        )
    # heartbeat probes sweep [worker (0, 0), worker (0, 1), primary]; ten
    # consecutive drops give worker (0, 0) four misses in a row (death)
    # while the others stay under the threshold and recover
    heartbeat_drops = FaultPoint("repl.heartbeat", "drop_message", hits=10)
    if fault_class == "drop_message":
        if sharded:
            skip = 1 + int(rng.integers(0, 3))
            return schedule(
                "shard.pipe_send",
                (FaultPoint("shard.pipe_send", "drop_message", skip=skip),),
            )
        return schedule(
            "repl.heartbeat", (heartbeat_drops,), idle_until_respawn=True
        )
    if fault_class == "fail_spawn":
        # the killed worker's first respawn attempt fails by injection
        # and the retry policy's second attempt brings it back
        failed_spawn = FaultPoint("repl.respawn", "fail_spawn")
        if sharded:
            return schedule(
                "repl.respawn",
                (FaultPoint("shard.worker", "crash", skip=8), failed_spawn),
            )
        return schedule(
            "repl.respawn", (heartbeat_drops, failed_spawn),
            idle_until_respawn=True,
        )
    raise ExperimentError(f"unknown fault class {fault_class!r}")


class _Outage:
    """Tracks the longest window during which an operation kind failed."""

    def __init__(self) -> None:
        self.longest = 0.0
        self._failing_since: float | None = None

    def failure(self) -> None:
        if self._failing_since is None:
            self._failing_since = time.perf_counter()

    def success(self) -> None:
        if self._failing_since is not None:
            self.longest = max(
                self.longest, time.perf_counter() - self._failing_since
            )
            self._failing_since = None

    def close(self) -> None:
        """An outage still open at shutdown counts at its current width."""
        if self._failing_since is not None:
            self.longest = max(
                self.longest, time.perf_counter() - self._failing_since
            )


def _event_counts(events: list[dict]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for event in events:
        name = str(event.get("event"))
        counts[name] = counts.get(name, 0) + 1
    return counts


def _wait_for_event(
    tier, names: tuple[str, ...], deadline_seconds: float
) -> bool:
    deadline = time.perf_counter() + deadline_seconds
    while time.perf_counter() < deadline:
        counts = _event_counts(tier.recent_events(200))
        if all(counts.get(name, 0) >= 1 for name in names):
            return True
        time.sleep(0.05)
    return False


def _run_schedule(
    schedule: _Schedule,
    seed: int,
    sizes: ExperimentSizes,
    embeddings,
    tokenizer,
    base_matrix,
    hyperparams,
    solver_method,
    queries: np.ndarray,
    k: int,
    movies_per_delta: int,
) -> dict[str, Any]:
    """Run one fault schedule end to end; returns its certification record."""
    violations: list[str] = []
    evidence: list[str] = []
    query_errors = 0
    write_retries = 0
    acked: list[tuple[Any, int]] = []  # (delta, version), submission order
    ack_walls: list[float] = []
    read_outage = _Outage()
    write_outage = _Outage()

    scratch = make_tmdb(sizes).database
    stream_rng = np.random.default_rng(seed + 13 * schedule.index + 101)
    total_writes = schedule.writes_armed + schedule.writes_recovery
    # faults triggered by scatter-gather traffic rather than by writes
    query_triggered = schedule.sharded and (
        schedule.fault_class in ("crash", "drop_message", "fail_spawn")
    )
    grid_size = schedule.n_shards * schedule.n_replicas

    workdir = tempfile.TemporaryDirectory(prefix=f"chaos-{schedule.index}-")
    store = EmbeddingStore(workdir.name)
    store.save_embedding_set(_ARTIFACT, embeddings)

    def build_tier():
        retrofitter = IncrementalRetrofitter(
            embeddings,
            tokenizer,
            hyperparams=hyperparams,
            method=solver_method,
            base_matrix=base_matrix,
        )

        def primary_retrofitter(latest_embeddings):
            return IncrementalRetrofitter(
                latest_embeddings,
                tokenizer,
                hyperparams=hyperparams,
                method=solver_method,
            )

        return ReplicatedServingTier(
            workdir.name,
            _ARTIFACT,
            n_replicas=schedule.n_replicas,
            n_shards=schedule.n_shards,
            database=make_tmdb(sizes).database,
            retrofitter=retrofitter,
            retrofitter_factory=primary_retrofitter,
            solve_iterations=SOLVE_ITERATIONS,
            coalesce=False,
            query_timeout=2.0,
        )

    query_cursor = 0

    def probe_query(tier) -> bool:
        """One query; returns whether it answered (errors are recorded)."""
        nonlocal query_cursor, query_errors
        vector = queries[query_cursor % len(queries)]
        query_cursor += 1
        try:
            tier.topk(vector, k)
        except ServingError as error:
            query_errors += 1
            read_outage.failure()
            evidence.append(f"query error: {error}")
            return False
        read_outage.success()
        return True

    def submit_write(tier, j: int) -> None:
        """One idempotent write: retried submission, bounded ack wait."""
        nonlocal write_retries
        delta = synthesize_tmdb_delta(
            scratch, stream_rng, movies_per_delta, include_update=True
        )
        submission_id = f"chaos-{schedule.index}-{j}"
        started = time.perf_counter()

        def attempt():
            ticket = tier.submit(
                delta, timeout=30.0, submission_id=submission_id
            )
            return ticket.wait(timeout=120.0)

        def on_retry(attempt_no, error, delay):
            nonlocal write_retries
            write_retries += 1
            evidence.append(
                f"write {j} retry {attempt_no + 1} after {error}"
            )

        try:
            version = WRITE_RETRY.call(
                attempt, retry_on=(ServingError,), on_retry=on_retry
            )
        except ServingError as error:
            write_outage.failure()
            if tier.write_degraded:
                evidence.append(f"write {j} refused, tier degraded: {error}")
            else:
                violations.append(
                    f"write {j} failed without a degraded report: {error}"
                )
            return
        write_outage.success()
        ack_walls.append(time.perf_counter() - started)
        delta.apply_to(scratch)
        acked.append((delta, int(version)))
        _probe_read_your_writes(tier, int(version))

    def _probe_read_your_writes(tier, version: int) -> None:
        """A read straight after the ack must answer at-or-past it — with
        no explicit floor: the tier floors it at its published version."""
        vector = queries[query_cursor % len(queries)]
        deadline = time.perf_counter() + 30.0
        while True:
            try:
                answered, _ = tier.topk_batch_versioned(vector[None, :], k)
                if answered < version:
                    violations.append(
                        f"read-your-writes: answered at {answered} "
                        f"after acking {version}"
                    )
                return
            except ServingError:
                if time.perf_counter() > deadline:
                    violations.append(
                        f"read-your-writes probe never answered after "
                        f"acking version {version}"
                    )
                    return
                time.sleep(0.1)

    faultlib.install_fault_plan(schedule.plan)
    tier = build_tier()
    degraded_report: str | None = None
    stats = None
    events: list[dict] = []
    try:
        with tier:
            # ---- phase A: trigger the armed fault ---------------------- #
            if schedule.idle_until_respawn:
                # heartbeat-driven death: stay off the pipes so the drop
                # traversals align with the probe sweep, then wait for
                # the death + respawn transition to complete
                if not _wait_for_event(
                    tier, ("replica_dead", "follower_respawned"), 30.0
                ):
                    violations.append(
                        "heartbeat fault never produced replica_dead + "
                        "follower_respawned events"
                    )
                faultlib.clear_fault_plan()
            elif query_triggered:
                # scatter-gather until the fault demonstrably fired (a
                # failed query or a dead worker), then let the tier heal
                for _ in range(40):
                    answered = probe_query(tier)
                    if not answered or tier.live_followers < grid_size:
                        break
                else:
                    violations.append(
                        f"{schedule.site} never fired across 40 queries"
                    )
                # the spawn failure fires in a respawn thread, which can
                # start after the failed query returned: keep the plan
                # armed until it has fired
                if schedule.fault_class == "fail_spawn" and not _wait_for_event(
                    tier, ("follower_respawn_retry",), 30.0
                ):
                    violations.append(
                        "injected spawn failure left no "
                        "follower_respawn_retry event"
                    )
                faultlib.clear_fault_plan()
                if schedule.fault_class in ("crash", "fail_spawn"):
                    deadline = time.perf_counter() + 30.0
                    while (
                        tier.live_followers < grid_size
                        and time.perf_counter() < deadline
                    ):
                        time.sleep(0.05)
                    if tier.live_followers < grid_size:
                        violations.append(
                            "crashed shard workers never respawned"
                        )
                # one probe past the fault: every shard answers again
                probe_query(tier)
            else:
                # write-triggered faults: land the armed-phase writes
                for j in range(schedule.writes_armed):
                    probe_query(tier)
                    submit_write(tier, j)
                faultlib.clear_fault_plan()

            # ---- phase B: recovery under the cleared plan -------------- #
            start_write = (
                0
                if schedule.idle_until_respawn or query_triggered
                else schedule.writes_armed
            )
            for j in range(start_write, total_writes):
                probe_query(tier)
                if tier.write_degraded:
                    break
                submit_write(tier, j)
            probe_query(tier)
            if tier.write_degraded:
                try:
                    tier.submit(synthesize_tmdb_delta(
                        scratch, stream_rng, movies_per_delta
                    ))
                    violations.append(
                        "tier claims write-degraded but accepted a submit"
                    )
                except ServingError as error:
                    degraded_report = str(error)
            else:
                tier.flush(timeout=300.0)
            stats = tier.stats
            events = tier.recent_events(200)
    finally:
        faultlib.clear_fault_plan()
    read_outage.close()
    write_outage.close()

    # ---- certification ------------------------------------------------ #
    counts = _event_counts(events)
    exercised = _check_exercised(
        schedule, counts, stats, ack_walls, query_errors, write_retries
    )
    if exercised is not True:
        violations.append(exercised)

    final_set = None
    try:
        fresh = EmbeddingStore(workdir.name)
        final_set, _, final_version = fresh.load_embedding_set_versioned(
            _ARTIFACT
        )
        base = fresh.base_version(_ARTIFACT)
        for version in range(base + 1, final_version + 1):
            fresh.read_embedding_set_delta(_ARTIFACT, version)
    except Exception as error:  # noqa: BLE001 - any load failure is torn state
        violations.append(f"store failed to load cleanly: {error!r}")

    worst = None
    if final_set is not None:
        serial_db = make_tmdb(sizes).database
        serial = IncrementalRetrofitter(
            embeddings,
            tokenizer,
            hyperparams=hyperparams,
            method=solver_method,
            base_matrix=base_matrix,
        )
        for delta, _version in acked:
            serial.apply(serial_db, delta, iterations=SOLVE_ITERATIONS)
        worst = float(max_cosine_distance(serial.embeddings, final_set))
        if worst > COSINE_TOLERANCE:
            violations.append(
                f"final matrix diverged from the serial replay of the "
                f"{len(acked)} acked deltas: {worst:.2e} > {COSINE_TOLERANCE}"
            )

    if degraded_report is None and len(acked) == 0 and total_writes > 0:
        violations.append(
            "no write ever acked and no degraded state was reported"
        )

    workdir.cleanup()
    outcome = "degraded" if degraded_report is not None else "recovered"
    return {
        "schedule": schedule.index,
        "fault_class": schedule.fault_class,
        "site": schedule.site,
        "layout": schedule.layout,
        "outcome": outcome,
        "degraded_report": degraded_report,
        "acked_writes": len(acked),
        "attempted_writes": total_writes,
        "write_retries": write_retries,
        "query_errors": query_errors,
        "read_outage_seconds": read_outage.longest,
        "write_outage_seconds": write_outage.longest,
        "max_ack_seconds": max(ack_walls) if ack_walls else None,
        "max_cosine_distance_vs_serial": worst,
        "events": counts,
        "evidence": evidence[:20],
        "violations": violations,
    }


def _check_exercised(
    schedule: _Schedule,
    counts: dict[str, int],
    stats,
    ack_walls: list[float],
    query_errors: int,
    write_retries: int,
):
    """``True`` when the schedule's fault demonstrably fired, else a reason."""
    cls, sharded = schedule.fault_class, schedule.sharded
    if cls == "crash":
        if sharded:
            if counts.get("follower_respawned", 0) >= 1 or query_errors >= 1:
                return True
            return "crash fault left no respawn event and no failed query"
        if stats is not None and stats.failovers >= 1:
            return True
        return "primary crash produced no failover"
    if cls == "delay":
        if ack_walls and max(ack_walls) >= schedule.delay_seconds:
            return True
        return (
            f"injected {schedule.delay_seconds:.2f}s append delay left no "
            f"ack slower than it"
        )
    if cls == "torn_write":
        if (stats is not None and stats.failovers >= 1) or write_retries >= 1:
            return True
        return "torn primary write triggered neither failover nor retry"
    if cls == "drop_message":
        if sharded:
            if query_errors >= 1:
                return True
            return "dropped shard reply failed no query"
        if counts.get("replica_dead", 0) >= 1:
            return True
        return "dropped heartbeats never declared a replica dead"
    if cls == "fail_spawn":
        if counts.get("follower_respawn_retry", 0) >= 1:
            return True
        return "injected spawn failure left no follower_respawn_retry event"
    return f"unknown fault class {cls!r}"


def run_chaos_benchmark(
    sizes: ExperimentSizes | None = None,
    method: str = "RN",
    schedules: int = 5,
    n_queries: int = 64,
    k: int = 10,
    delta_fraction: float = 0.05,
    seed: int | None = None,
    cache_dir=None,
) -> tuple[ResultTable, dict[str, Any]]:
    """Run ``schedules`` seeded fault schedules; returns (table, payload).

    The benchmark fails (non-empty ``payload["violations"]``) when any
    schedule breaks an invariant; ``repro chaos`` exits non-zero in that
    case.  With the default five schedules every fault class in
    :data:`FAULT_CLASSES` fires at least once.
    """
    if method not in _METHOD_NAMES:
        raise ExperimentError(
            f"unknown chaos-benchmark method {method!r}; expected RN or RO"
        )
    if schedules < 1:
        raise ExperimentError("chaos benchmark needs at least one schedule")
    from repro.experiments.engine import RunContext

    sizes = sizes or ExperimentSizes.tiny()
    ctx = RunContext(sizes=sizes, cache_dir=cache_dir)
    solver_method = _METHOD_NAMES[method]
    hyperparams = (
        RetroHyperparameters.paper_rn_default()
        if method == "RN"
        else RetroHyperparameters.paper_ro_default()
    )
    base_seed = sizes.seed if seed is None else seed

    started = time.perf_counter()
    dataset, tokenizer, embeddings, base_matrix, _settle = settled_tmdb_start(
        ctx, method, hyperparams, solver_method
    )
    setup_seconds = time.perf_counter() - started
    movies_per_delta = max(
        1,
        int(round(len(dataset.database.table("movies")) * delta_fraction)),
    )
    queries = _build_query_workload(
        embeddings, n_queries, np.random.default_rng(base_seed + 7)
    )

    records: list[dict[str, Any]] = []
    for index in range(schedules):
        schedule = _build_schedule(index, base_seed)
        schedule.plan.seed = base_seed + index
        records.append(
            _run_schedule(
                schedule,
                base_seed,
                sizes,
                embeddings,
                tokenizer,
                base_matrix,
                hyperparams,
                solver_method,
                queries,
                k,
                movies_per_delta,
            )
        )

    all_violations = [
        f"schedule {record['schedule']} ({record['fault_class']}/"
        f"{record['layout']}): {violation}"
        for record in records
        for violation in record["violations"]
    ]
    classes_fired = {record["fault_class"] for record in records}

    table = ResultTable(
        name=(
            f"chaos ({method}, {len(embeddings)} values, "
            f"{schedules} schedules, seed {base_seed})"
        ),
        columns=[
            "schedule", "fault", "site", "layout", "outcome",
            "writes", "outage_s", "violations",
        ],
    )
    for record in records:
        outage = max(
            record["read_outage_seconds"], record["write_outage_seconds"]
        )
        table.add_row(
            schedule=record["schedule"],
            fault=record["fault_class"],
            site=record["site"],
            layout=record["layout"],
            outcome=record["outcome"],
            writes=f"{record['acked_writes']}/{record['attempted_writes']}",
            outage_s=outage,
            violations=len(record["violations"]),
        )
    table.add_note(
        f"fault classes exercised: {sorted(classes_fired)} of "
        f"{sorted(FAULT_CLASSES)}"
    )
    worst_pairs = [
        record["max_cosine_distance_vs_serial"]
        for record in records
        if record["max_cosine_distance_vs_serial"] is not None
    ]
    if worst_pairs:
        table.add_note(
            f"max cosine distance to the serial replay across schedules: "
            f"{max(worst_pairs):.2e} (gate {COSINE_TOLERANCE:g})"
        )
    table.add_note(
        f"{len(all_violations)} invariant violation(s)"
        + (f": {all_violations[0]}" if all_violations else "")
    )

    payload: dict[str, Any] = {
        "method": method,
        "schedules": schedules,
        "seed": base_seed,
        "n_values": len(embeddings),
        "num_movies": sizes.num_movies,
        "movies_per_delta": movies_per_delta,
        "setup_seconds": setup_seconds,
        "cosine_tolerance": COSINE_TOLERANCE,
        "fault_classes": list(FAULT_CLASSES),
        "fault_classes_exercised": sorted(classes_fired),
        "records": records,
        "violations": all_violations,
    }
    return table, payload
