"""Replicated serving tier: log shipping, catch-up edges, failover.

The correctness bar mirrors the sharded tests: a worker replaying the
store's delta log must serve *exactly* what a single in-process session
over the store's versioned load serves — same rows, same order, same
float bits.  The catch-up edge cases (snapshot bootstrap, mid-log
restart, compaction racing a lagging worker) run against a one-shard
``_ShardState`` directly so they are deterministic and fork-free;
process-level behaviour (SIGKILL failover) lives in the stress-marked
classes.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.datasets import generate_tmdb
from repro.db.delta import DatabaseDelta
from repro.errors import ExtractionError, ServingError, StoreFormatError
from repro.retrofit.combine import TextValueEmbeddingSet
from repro.retrofit.hyperparams import RetroHyperparameters
from repro.retrofit.incremental import IncrementalRetrofitter
from repro.retrofit.pipeline import RetroPipeline
from repro.serving import (
    EmbeddingStore,
    ReplicatedServingTier,
    ServingSession,
    ship_snapshot,
)
from repro.serving.replicated import _ShardState


@pytest.fixture()
def int_corpus(tmdb_extraction, tmp_path):
    """Integer-valued embeddings in a store: exact dot products, ties
    everywhere — equality against the session is ``==``, not allclose."""
    rng = np.random.default_rng(7)
    matrix = rng.integers(-2, 3, size=(len(tmdb_extraction), 12)).astype(
        np.float64
    )
    embeddings = TextValueEmbeddingSet(tmdb_extraction, matrix, name="INT")
    store = EmbeddingStore(tmp_path / "store")
    store.save_embedding_set("int", embeddings)
    session = ServingSession(embeddings)
    queries = rng.integers(-3, 4, size=(9, 12)).astype(np.float64)
    queries[3] = queries[0]  # duplicated query
    queries[5] = 0.0  # degenerate zero query
    return store, session, queries


@pytest.fixture()
def stream(tmp_path):
    """A trained TMDB corpus + retrofitter + store + promotion factory."""
    dataset = generate_tmdb(num_movies=60, seed=8, embedding_dimension=16)
    pipeline = RetroPipeline(
        dataset.database,
        dataset.embedding,
        hyperparams=RetroHyperparameters.paper_rn_default(),
    )
    result = pipeline.run(iterations=120)
    retrofitter = pipeline.incremental_retrofitter(result)
    store = EmbeddingStore(tmp_path / "store")
    store.save_embedding_set("rn", result.embeddings)

    def factory(embeddings):
        # the failover path: a respawned primary rebuilds its solver from
        # the store's latest version (fork-inherited closure)
        return IncrementalRetrofitter(
            embeddings,
            pipeline.tokenizer,
            hyperparams=pipeline.hyperparams,
            method=pipeline.method,
        )

    return dataset, retrofitter, store, factory


def make_delta(dataset, key):
    delta = DatabaseDelta()
    delta.insert("movies", {
        "id": 60_000 + key, "title": f"silent meridian {key}",
        "original_language": "english",
        "overview": "a quiet voyage across the meridian",
        "budget": 1e7, "revenue": 2e7, "popularity": 1.0,
        "release_year": 2026, "collection_id": None,
    })
    delta.insert("movie_countries", {
        "id": 60_000 + key, "movie_id": 60_000 + key, "country_id": 1,
    })
    if key % 2 == 0:  # deletions: removed values tombstone in-place sessions
        victim = dataset.database.table("reviews").rows[0]
        delta.delete("reviews", victim["id"])
    return delta


def follower(store):
    """A full-corpus worker state: the grid's one-shard slice."""
    return _ShardState(store, "rn", shard_id=0, n_shards=1, metric="cosine")


def append_one(dataset, retrofitter, store, key):
    update = retrofitter.apply(dataset.database, make_delta(dataset, key))
    store.append_embedding_set_delta("rn", update)
    return update


class TestReplicatedEqualsSingleIndex:
    @pytest.mark.parametrize("n_replicas", [1, 2])
    def test_topk_batch_identical(self, int_corpus, n_replicas):
        store, session, queries = int_corpus
        tier = ReplicatedServingTier(store.root, "int", n_replicas=n_replicas)
        with tier:
            for k in (1, 3, 10):
                assert tier.topk_batch(queries, k) == session.topk_batch(
                    queries, k
                )

    def test_category_scope_identical(self, int_corpus):
        store, session, queries = int_corpus
        categories = sorted(session.categories)[:3]
        with ReplicatedServingTier(store.root, "int", n_replicas=2) as tier:
            for category in categories:
                assert tier.topk_batch(
                    queries, 5, category=category
                ) == session.topk_batch(queries, 5, category=category)

    def test_reads_load_balance_across_followers(self, int_corpus):
        store, session, queries = int_corpus
        with ReplicatedServingTier(store.root, "int", n_replicas=2) as tier:
            # every answer is identical regardless of which replica served
            want = session.topk_batch(queries, 4)
            for _ in range(4):
                assert tier.topk_batch(queries, 4) == want
            assert tier.stats.queries == 4

    def test_unknown_category_raises_like_the_session(self, int_corpus):
        store, session, queries = int_corpus
        with pytest.raises(ExtractionError):
            session.topk(queries[0], 3, category="nope.nope")
        with ReplicatedServingTier(store.root, "int", n_replicas=1) as tier:
            with pytest.raises(ExtractionError):
                tier.topk(queries[0], 3, category="nope.nope")

    def test_read_only_tier_refuses_writes(self, int_corpus):
        store, _, _ = int_corpus
        with ReplicatedServingTier(store.root, "int", n_replicas=1) as tier:
            with pytest.raises(ServingError, match="no writer side"):
                tier.submit(DatabaseDelta())

    def test_min_version_at_current_position_answers(self, int_corpus):
        store, session, queries = int_corpus
        with ReplicatedServingTier(store.root, "int", n_replicas=2) as tier:
            version, results = tier.topk_batch_versioned(
                queries, 5, min_version=0
            )
            assert version == 0
            assert results == session.topk_batch(queries, 5)


class TestShipSnapshot:
    def test_bootstrap_into_empty_store(self, stream, tmp_path):
        dataset, retrofitter, store, _ = stream
        for key in (1, 2):
            append_one(dataset, retrofitter, store, key)
        dest = tmp_path / "replica-root"  # does not exist yet
        shipped = ship_snapshot(store.root, "rn", dest)
        assert shipped == 2
        loaded, _, version = EmbeddingStore(dest).load_embedding_set_versioned(
            "rn"
        )
        assert version == 2
        assert np.array_equal(loaded.matrix, retrofitter.embeddings.matrix)
        # a follower pool bootstrapped from the shipped root serves it
        rng = np.random.default_rng(3)
        queries = rng.integers(-3, 4, size=(4, 16)).astype(np.float64)
        session = ServingSession(loaded)
        session.settle_indexes()
        with ReplicatedServingTier(dest, "rn", n_replicas=1) as tier:
            assert tier.topk_batch(queries, 6) == session.topk_batch(queries, 6)

    def test_ship_base_only(self, stream, tmp_path):
        dataset, retrofitter, store, _ = stream
        append_one(dataset, retrofitter, store, 1)
        dest = tmp_path / "base-only"
        shipped = ship_snapshot(store.root, "rn", dest, include_deltas=False)
        assert shipped == 0
        assert EmbeddingStore(dest).latest_version("rn") == 0


class TestFollowerCatchUp:
    def test_restart_mid_log_does_not_double_apply(self, stream):
        """A follower restarted mid-log bootstraps from the base and
        replays the full chain once — identical to one that tailed
        incrementally, and to the store's own versioned load."""
        dataset, retrofitter, store, _ = stream
        tailing = follower(store)
        for key in (1, 2, 3):
            append_one(dataset, retrofitter, store, key)
            tailing.sync_to_latest()
        assert tailing.version == 3
        restarted = follower(store)  # fresh bootstrap
        restarted.sync_to_latest()
        assert restarted.version == 3
        loaded, _, version = store.load_embedding_set_versioned("rn")
        assert version == 3
        assert np.array_equal(restarted.vectors, loaded.matrix)
        assert np.array_equal(tailing.vectors, loaded.matrix)
        # replaying again is a no-op, not a double apply
        restarted.sync_to_latest()
        assert restarted.version == 3
        assert np.array_equal(restarted.vectors, loaded.matrix)

    def test_compaction_under_lagging_follower_falls_back_to_snapshot(
        self, stream
    ):
        """A follower that lost records to a compaction re-bootstraps from
        the (newer) base snapshot and tails the remaining records."""
        dataset, retrofitter, store, _ = stream
        lagging = follower(store)
        assert lagging.version == 0
        for key in (1, 2, 3):
            append_one(dataset, retrofitter, store, key)
        store.compact_embedding_set("rn")  # folds 1..3, prunes the records
        assert store.base_version("rn") == 3
        append_one(dataset, retrofitter, store, 4)  # post-compaction tail
        lagging.sync_to_latest()  # records 1..3 are gone: snapshot + tail
        assert lagging.version == 4
        loaded, _, version = store.load_embedding_set_versioned("rn")
        assert version == 4
        assert np.array_equal(lagging.vectors, loaded.matrix)

    def test_lost_record_without_newer_snapshot_raises(self, stream):
        """A gap the base snapshot cannot cover is an integrity error, not
        a silent skip — the follower must not serve a diverged matrix."""
        dataset, retrofitter, store, _ = stream
        lagging = follower(store)
        for key in (1, 2):
            append_one(dataset, retrofitter, store, key)
        store.delete_artifact("rn.delta000001")  # gap; base still v0
        with pytest.raises(StoreFormatError):
            lagging.sync_to_latest()

    def test_retention_floor_keeps_a_tailing_follower_alive(self, stream):
        """compact(keep_from=v) preserves the records a follower at
        ``v - 1`` still needs: it tails straight through the compaction
        without ever re-bootstrapping."""
        dataset, retrofitter, store, _ = stream
        tailing = follower(store)
        for key in (1, 2):
            append_one(dataset, retrofitter, store, key)
        tailing.sync_to_latest()
        assert tailing.version == 2
        append_one(dataset, retrofitter, store, 3)
        # the follower announced position 2: the floor protects record 3
        store.compact_embedding_set("rn", keep_from=3)
        assert store.base_version("rn") == 3
        assert [v for v, _ in store.list_embedding_set_deltas("rn")] == [3]
        tailing.sync_to_latest()  # plain tail — no snapshot fallback
        assert tailing.version == 3
        loaded, _, _ = store.load_embedding_set_versioned("rn")
        assert np.array_equal(tailing.vectors, loaded.matrix)


class TestStoreDeltaGC:
    def test_prune_never_touches_unfolded_records(self, stream):
        dataset, retrofitter, store, _ = stream
        for key in (1, 2):
            append_one(dataset, retrofitter, store, key)
        # base still at version 0: nothing is folded, nothing is prunable
        assert store.prune_embedding_set_deltas("rn") == 0
        assert [v for v, _ in store.list_embedding_set_deltas("rn")] == [1, 2]

    def test_prune_respects_the_retention_floor(self, stream):
        dataset, retrofitter, store, _ = stream
        for key in (1, 2, 3):
            append_one(dataset, retrofitter, store, key)
        pruned_to = store.compact_embedding_set("rn", keep_from=2)
        assert pruned_to == 3
        assert [v for v, _ in store.list_embedding_set_deltas("rn")] == [2, 3]
        # retained-but-folded records are inert for loads
        loaded, _, version = store.load_embedding_set_versioned("rn")
        assert version == 3
        assert np.array_equal(loaded.matrix, retrofitter.embeddings.matrix)
        # once the floor advances, a later pruning collects them
        assert store.prune_embedding_set_deltas("rn") == 2
        assert store.list_embedding_set_deltas("rn") == []

    def test_delete_artifact_removes_mmap_sidecars(self, stream):
        _, _, store, _ = stream
        store.open_matrix_readonly("rn")  # extracts the .npy sidecar
        assert list(store.root.glob("rn.*.npy"))
        store.delete_artifact("rn")
        assert not list(store.root.glob("rn.*.npy"))
        with pytest.raises(StoreFormatError):
            store.load_embedding_set("rn")


class TestWriterPath:
    def test_ticket_version_is_the_log_version(self, stream):
        """submit() → wait() resolves to the store log position, which is
        the read-your-writes floor; the log itself has the record."""
        dataset, retrofitter, store, factory = stream
        rng = np.random.default_rng(4)
        queries = rng.integers(-3, 4, size=(5, 16)).astype(np.float64)
        tier = ReplicatedServingTier(
            store.root, "rn", n_replicas=2,
            database=dataset.database, retrofitter=retrofitter,
            retrofitter_factory=factory, solve_iterations=60,
        )
        with tier:
            for key in (1, 2):
                ticket = tier.submit(make_delta(dataset, key))
                version = ticket.wait(timeout=120)
                assert version == key
                assert ticket.version == version
                assert store.latest_version("rn") == key
                assert tier.published_version == key
                # read-your-writes: the floored read serves the new value
                loaded, _, loaded_version = (
                    store.load_embedding_set_versioned("rn")
                )
                assert loaded_version == key
                serial = ServingSession(loaded)
                serial.settle_indexes()
                got_version, got = tier.topk_batch_versioned(
                    queries, 5, min_version=version
                )
                assert got_version >= version
                assert got == serial.topk_batch(queries, 5)
        assert tier.stats.writes_applied == 2
        assert tier.stats.write_failures == 0

    @pytest.mark.parametrize(
        "n_shards, n_replicas",
        [pytest.param(2, 1, id="2x1"), pytest.param(1, 2, id="1x2")],
    )
    def test_read_your_writes_with_and_without_a_floor(
        self, stream, n_shards, n_replicas
    ):
        """After ``ticket.wait()`` a read sees the write whether or not it
        passes the ticket's version: an unfloored read is floored at the
        tier's published version."""
        dataset, retrofitter, store, factory = stream
        rng = np.random.default_rng(5)
        queries = rng.integers(-3, 4, size=(4, 16)).astype(np.float64)
        tier = ReplicatedServingTier(
            store.root, "rn", n_replicas=n_replicas, n_shards=n_shards,
            database=dataset.database, retrofitter=retrofitter,
            retrofitter_factory=factory, solve_iterations=60,
        )
        with tier:
            for key in (1, 2):
                version = tier.submit(make_delta(dataset, key)).wait(timeout=120)
                loaded, _, _ = store.load_embedding_set_versioned("rn")
                serial = ServingSession(loaded)
                serial.settle_indexes()
                want = serial.topk_batch(queries, 5)
                for floor in (None, version):
                    got_version, got = tier.topk_batch_versioned(
                        queries, 5, min_version=floor
                    )
                    assert got_version == version
                    assert got == want

    def test_follower_state_matches_the_log_replay_exactly(self, stream):
        dataset, retrofitter, store, factory = stream
        tier = ReplicatedServingTier(
            store.root, "rn", n_replicas=2,
            database=dataset.database, retrofitter=retrofitter,
            retrofitter_factory=factory, solve_iterations=60,
        )
        with tier:
            for key in (1, 2, 3):
                tier.submit(make_delta(dataset, key))
            tier.flush(timeout=300)
            assert tier.sync_replicas() == 3
            positions = tier.replica_versions()
            assert sorted(positions.values()) == [3, 3]
            version, matrix = tier.replica_matrix()
            loaded, _, loaded_version = store.load_embedding_set_versioned(
                "rn"
            )
            assert version == loaded_version == 3
            assert np.array_equal(matrix, loaded.matrix)

    def test_tier_compaction_uses_follower_positions_as_the_floor(
        self, stream
    ):
        dataset, retrofitter, store, factory = stream
        rng = np.random.default_rng(9)
        queries = rng.integers(-3, 4, size=(3, 16)).astype(np.float64)
        tier = ReplicatedServingTier(
            store.root, "rn", n_replicas=2,
            database=dataset.database, retrofitter=retrofitter,
            retrofitter_factory=factory, solve_iterations=60,
        )
        with tier:
            for key in (1, 2):
                tier.submit(make_delta(dataset, key))
            tier.flush(timeout=300)
            tier.sync_replicas()
            pruned = tier.compact()
            # every live follower passed both records: nothing retained
            assert pruned == 2
            assert store.base_version("rn") == 2
            assert store.list_embedding_set_deltas("rn") == []
            # reads keep working over the compacted store
            loaded, _, _ = store.load_embedding_set_versioned("rn")
            serial = ServingSession(loaded)
            serial.settle_indexes()
            assert tier.topk_batch(queries, 4) == serial.topk_batch(queries, 4)


def sigkill_primary_then_write(stream, n_shards, n_replicas):
    """SIGKILL the primary after one acked write; the next write must
    land on a primary respawned from the store, with the grid intact."""
    dataset, retrofitter, store, factory = stream
    rng = np.random.default_rng(11)
    queries = rng.integers(-3, 4, size=(3, 16)).astype(np.float64)
    tier = ReplicatedServingTier(
        store.root, "rn", n_replicas=n_replicas, n_shards=n_shards,
        database=dataset.database, retrofitter=retrofitter,
        retrofitter_factory=factory, solve_iterations=60,
        heartbeat_interval=0.1,
    )
    with tier:
        first = tier.submit(make_delta(dataset, 1))
        assert first.wait(timeout=120) == 1
        os.kill(tier.primary_pid, signal.SIGKILL)
        # the very next write rides the failover: death detection, a
        # primary respawned over the store's latest version with the
        # front's database mirror, then the apply lands there
        second = tier.submit(make_delta(dataset, 2))
        assert second.wait(timeout=120) == 2
        assert tier.failovers == 1
        assert tier.last_failover_seconds is not None
        assert not tier.write_degraded
        # no worker was consumed by the failover: the grid is whole
        stats = tier.stats
        assert (stats.n_shards, stats.n_replicas) == (n_shards, n_replicas)
        assert stats.live_followers == n_shards * n_replicas
        # the respawned primary published to the same log: the workers
        # and the store agree bit-for-bit
        version, matrix = tier.replica_matrix()
        loaded, _, loaded_version = store.load_embedding_set_versioned("rn")
        assert version == loaded_version == 2
        assert np.array_equal(matrix, loaded.matrix)
        serial = ServingSession(loaded)
        serial.settle_indexes()
        assert tier.topk_batch(
            queries, 5, min_version=2
        ) == serial.topk_batch(queries, 5)
    assert tier.stats.writes_applied == 2


@pytest.mark.stress
class TestFailover:
    def test_primary_sigkill_promotes_and_writes_resume(self, stream):
        sigkill_primary_then_write(stream, n_shards=1, n_replicas=2)

    def test_primary_sigkill_on_a_sharded_grid_writes_resume(self, stream):
        sigkill_primary_then_write(stream, n_shards=2, n_replicas=1)

    def test_follower_sigkill_reads_survive_then_respawn(self, int_corpus):
        store, session, queries = int_corpus
        with ReplicatedServingTier(
            store.root, "int", n_replicas=2, heartbeat_interval=0.1
        ) as tier:
            want = session.topk_batch(queries, 8)
            assert tier.topk_batch(queries, 8) == want
            victim = tier._grid[0][0]
            os.kill(victim.process.pid, signal.SIGKILL)
            victim.process.join(timeout=10)
            # reads re-route to the surviving replica, answers unchanged
            assert tier.topk_batch(queries, 8) == want
            deadline = time.monotonic() + 30.0
            while tier.live_followers < 2:
                assert time.monotonic() < deadline, "respawn never completed"
                time.sleep(0.05)
            assert tier.stats.follower_respawns == 1
            assert tier.topk_batch(queries, 8) == want


def _events(tier, name):
    return [event for event in tier.recent_events(256) if event["event"] == name]


def _wait_for(condition, seconds, what):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.02)


@pytest.mark.stress
class TestRespawnLifecycle:
    def test_stop_during_a_respawn_backoff_leaves_nothing_running(self, int_corpus):
        import threading

        from repro.util import faults

        store, _, _ = int_corpus
        faults.install_fault_plan(
            faults.FaultPlan([faults.FaultPoint("repl.respawn", "fail_spawn", hits=2)])
        )
        try:
            tier = ReplicatedServingTier(
                store.root, "int", n_replicas=2, heartbeat_interval=0.05
            ).start()
            victim = tier._grid[0][0]
            os.kill(victim.process.pid, signal.SIGKILL)
            _wait_for(
                lambda: _events(tier, "follower_respawn_retry"), 10.0,
                "the respawn never backed off",
            )
            tier.stop()
        finally:
            faults.clear_fault_plan()
        assert not [
            thread.name for thread in threading.enumerate()
            if thread.name.startswith("respawn-") and thread.is_alive()
        ]
        assert not [
            handle.name for shard in tier._grid for handle in shard
            if handle.process is not None and handle.process.is_alive()
        ]

    def test_a_given_up_respawn_is_retried(self, int_corpus):
        from repro.util import faults

        store, session, queries = int_corpus
        faults.install_fault_plan(
            faults.FaultPlan([faults.FaultPoint("repl.respawn", "fail_spawn", hits=3)])
        )
        try:
            with ReplicatedServingTier(
                store.root, "int", n_replicas=2, heartbeat_interval=0.05
            ) as tier:
                victim = tier._grid[0][1]
                os.kill(victim.process.pid, signal.SIGKILL)
                _wait_for(
                    lambda: _events(tier, "follower_respawn_failed"), 10.0,
                    "the respawn never gave up",
                )
                _wait_for(
                    lambda: tier.stats.live_followers == 2
                    and _events(tier, "follower_respawned"),
                    10.0, "the follower never came back",
                )
                names = [event["event"] for event in tier.recent_events(256)]
                assert "follower_respawn_failed" in names
                assert names.index("follower_respawn_failed") < names.index(
                    "follower_respawned"
                )
                assert tier.topk_batch(queries, 8) == session.topk_batch(queries, 8)
        finally:
            faults.clear_fault_plan()


class TestUncertifiedWrites:
    def test_every_write_over_an_unreachable_tolerance_is_counted(self, stream):
        dataset, retrofitter, store, _ = stream
        # one round cannot reach every row over 1e-9 (four can, on a
        # corpus this small)
        retrofitter._residual_tolerance = 1e-9
        retrofitter.MAX_REFINEMENT_ROUNDS = 1
        with ReplicatedServingTier(
            store.root, "rn", n_replicas=1, retrofitter=retrofitter,
            database=dataset.database,
        ) as tier:
            versions = [
                tier.submit(make_delta(dataset, key)).wait(timeout=60.0)
                for key in (1, 3)
            ]
            stats = tier.stats
            assert stats.writes_applied == 2
            assert stats.writes_uncertified == stats.writes_applied
            assert [event["version"] for event in _events(tier, "write_uncertified")] == versions
