"""Property tests: the tier's shard grid answers exactly like one index.

The tie-stable top-k contract (ascending-index tie-breaking in
``topk_descending``, ``(score desc, global id asc)`` in the front's merge)
makes the equality *exact*: same rows, same order, same float bits.  The
matrices here are integer-valued, so every dot product is exactly
representable and the comparison is ``==``, not ``allclose`` — any
tie-handling or partition bug fails deterministically.

Layouts are ``(n_shards, n_replicas)`` grids of one
:class:`ReplicatedServingTier`; a bare id ``N`` is the ``(N, 1)`` layout,
``NxR`` the ``(N, R)`` one.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.datasets import generate_tmdb
from repro.db.delta import DatabaseDelta
from repro.errors import ExtractionError, ServingError
from repro.retrofit.combine import TextValueEmbeddingSet
from repro.retrofit.hyperparams import RetroHyperparameters
from repro.retrofit.pipeline import RetroPipeline
from repro.serving import (
    EmbeddingStore,
    RateLimiter,
    ReplicatedServingTier,
    ServingSession,
    stable_shard,
)
from repro.serving.replicated import _ShardState

#: ``(n_shards, n_replicas)`` over {1, 2, 5} × {1, 2}.
LAYOUTS = [pytest.param(n, 1, id=str(n)) for n in (1, 2, 5)] + [
    pytest.param(n, 2, id=f"{n}x2") for n in (1, 2, 5)
]


def grid(store, artifact, n_shards, n_replicas=1, **options):
    """A tier over ``store`` laid out as ``n_shards × n_replicas``."""
    return ReplicatedServingTier(
        store.root, artifact, n_shards=n_shards, n_replicas=n_replicas,
        **options,
    )


class TestStableShard:
    def test_deterministic_and_in_range(self):
        for n in (1, 2, 7):
            for value in ("a", "b", "the quiet voyage"):
                first = stable_shard("movies.title", value, n)
                assert 0 <= first < n
                assert stable_shard("movies.title", value, n) == first

    def test_single_shard_owns_everything(self):
        assert stable_shard("c", "x", 1) == 0

    def test_category_is_part_of_the_key(self):
        shards = {
            stable_shard(f"category.{i}", "same text", 64) for i in range(64)
        }
        assert len(shards) > 1


@pytest.fixture()
def int_corpus(tmdb_extraction, tmp_path):
    """An integer-valued embedding set saved to a store: exact dot products
    and a tiny value range, so score ties are everywhere."""
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


class TestShardedEqualsSingleIndex:
    @pytest.mark.parametrize("n_shards, n_replicas", LAYOUTS)
    def test_topk_batch_identical(self, int_corpus, n_shards, n_replicas):
        store, session, queries = int_corpus
        with grid(store, "int", n_shards, n_replicas) as tier:
            for k in (1, 3, 10):
                assert tier.topk_batch(queries, k) == session.topk_batch(
                    queries, k
                )

    @pytest.mark.parametrize("n_shards, n_replicas", LAYOUTS)
    def test_category_scope_identical(self, int_corpus, n_shards, n_replicas):
        store, session, queries = int_corpus
        categories = sorted(session.categories)[:3]
        with grid(store, "int", n_shards, n_replicas) as tier:
            for category in categories:
                assert tier.topk_batch(
                    queries, 5, category=category
                ) == session.topk_batch(queries, 5, category=category)

    def test_k_beyond_corpus_returns_everything(self, int_corpus):
        store, session, queries = int_corpus
        with grid(store, "int", 2) as tier:
            got = tier.topk_batch(queries[:2], 10_000)
            want = session.topk_batch(queries[:2], 10_000)
            assert got == want
            assert len(got[0]) == len(session.embeddings)

    def test_single_query_topk(self, int_corpus):
        store, session, queries = int_corpus
        with grid(store, "int", 3) as tier:
            assert tier.topk(queries[0], 7) == session.topk(queries[0], 7)

    def test_unknown_category_raises_like_the_session(self, int_corpus):
        store, session, queries = int_corpus
        with pytest.raises(ExtractionError):
            session.topk(queries[0], 3, category="nope.nope")
        with grid(store, "int", 2) as tier:
            with pytest.raises(ExtractionError):
                tier.topk(queries[0], 3, category="nope.nope")

    def test_read_only_tier_refuses_writes(self, int_corpus):
        store, _, _ = int_corpus
        with grid(store, "int", 2) as tier:
            with pytest.raises(ServingError, match="no writer side"):
                tier.submit(DatabaseDelta())


class TestShardedIndexKinds:
    """``index_kind`` swaps the per-shard scope index; an exhaustive NSW
    beam keeps the tier's exact-equality contract bit for bit."""

    @pytest.mark.parametrize(
        "n_shards, n_replicas", [pytest.param(3, 1, id="3"), *LAYOUTS]
    )
    def test_nsw_per_shard_equals_single_index(
        self, int_corpus, n_shards, n_replicas
    ):
        store, session, queries = int_corpus
        tier = grid(
            store, "int", n_shards, n_replicas, index_kind="nsw",
            index_params={"max_degree": 8, "ef_search": 100_000},
        )
        with tier:
            for k in (1, 3, 10):
                assert tier.topk_batch(queries, k) == session.topk_batch(
                    queries, k
                )

    def test_nsw_category_scope_identical(self, int_corpus):
        store, session, queries = int_corpus
        category = sorted(session.categories)[0]
        tier = grid(
            store, "int", 2, index_kind="nsw",
            index_params={"max_degree": 8, "ef_search": 100_000},
        )
        with tier:
            assert tier.topk_batch(
                queries, 5, category=category
            ) == session.topk_batch(queries, 5, category=category)

    def test_rejects_unknown_kind(self, int_corpus):
        store, _, _ = int_corpus
        with pytest.raises(ServingError, match="index kind"):
            grid(store, "int", 2, index_kind="kdtree")


@pytest.fixture()
def stream(tmp_path):
    """A trained TMDB corpus + retrofitter + store, for delta streams."""
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
    return dataset, retrofitter, store


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


class TestDeltaReplay:
    def test_mid_stream_replay_matches_inplace_session(self, stream):
        """A read-only tier replaying the store's delta records stays
        identical to a single in-place-updated session — including the
        tombstoned rows the in-place path accumulates after deletions."""
        dataset, retrofitter, store = stream
        session = ServingSession(retrofitter.embeddings)
        session.settle_indexes()
        rng = np.random.default_rng(3)
        queries = rng.integers(-3, 4, size=(6, 16)).astype(np.float64)
        with grid(store, "rn", 2) as tier:
            assert tier.topk_batch(queries, 6) == session.topk_batch(queries, 6)
            for key in (1, 2, 3):
                update = retrofitter.apply(dataset.database, make_delta(dataset, key))
                store.append_embedding_set_delta("rn", update)
                session.apply_update(update)
                assert tier.sync_replicas() == key
                assert tier.topk_batch(queries, 6) == session.topk_batch(
                    queries, 6
                )
                assert tier.topk_batch(
                    queries, 4, category="movies.title"
                ) == session.topk_batch(queries, 4, category="movies.title")

    def test_writer_path_is_read_your_writes(self, stream):
        """submit() → ticket.wait() → the next read reflects the update,
        bit-for-bit equal to serving the store's versioned load."""
        dataset, retrofitter, store = stream
        rng = np.random.default_rng(4)
        queries = rng.integers(-3, 4, size=(5, 16)).astype(np.float64)
        tier = grid(
            store, "rn", 2,
            database=dataset.database, retrofitter=retrofitter,
            solve_iterations=60,
        )
        with tier:
            for key in (1, 2):
                ticket = tier.submit(make_delta(dataset, key))
                assert ticket.wait(timeout=120)
                assert tier.published_version == key
                loaded, _, version = store.load_embedding_set_versioned("rn")
                assert version == key
                serial = ServingSession(loaded)
                assert tier.topk_batch(queries, 5) == serial.topk_batch(
                    queries, 5
                )
        assert tier.stats.writes_applied == 2


class TestShardSliceCompaction:
    def test_lagging_slice_falls_back_to_the_snapshot(self, stream):
        """Shard slices that lost records to a compaction re-bootstrap
        from the (newer) base snapshot, tail the rest, and still
        partition the store's replayed matrix exactly."""
        dataset, retrofitter, store = stream
        slices = [_ShardState(store, "rn", shard, 2, "cosine") for shard in (0, 1)]
        for key in (1, 2, 3):
            update = retrofitter.apply(dataset.database, make_delta(dataset, key))
            store.append_embedding_set_delta("rn", update)
        store.compact_embedding_set("rn")  # folds 1..3, prunes the records
        assert store.base_version("rn") == 3
        update = retrofitter.apply(dataset.database, make_delta(dataset, 4))
        store.append_embedding_set_delta("rn", update)
        loaded, _, version = store.load_embedding_set_versioned("rn")
        assert version == 4
        matrix = np.full_like(loaded.matrix, np.nan)
        for state in slices:
            state.sync_to_latest()  # records 1..3 are gone: snapshot + tail
            assert state.version == 4
            matrix[state.local_ids] = state.vectors
        assert sum(state.local_ids.size for state in slices) == len(loaded)
        assert np.array_equal(matrix, loaded.matrix)

    def test_tier_compaction_then_query(self, stream):
        dataset, retrofitter, store = stream
        rng = np.random.default_rng(9)
        queries = rng.integers(-3, 4, size=(3, 16)).astype(np.float64)
        tier = grid(
            store, "rn", 2,
            database=dataset.database, retrofitter=retrofitter,
            solve_iterations=60,
        )
        with tier:
            for key in (1, 2):
                tier.submit(make_delta(dataset, key))
            tier.flush(timeout=300)
            tier.sync_replicas()
            assert tier.compact() == 2
            assert store.base_version("rn") == 2
            assert store.list_embedding_set_deltas("rn") == []
            loaded, _, _ = store.load_embedding_set_versioned("rn")
            serial = ServingSession(loaded)
            serial.settle_indexes()
            assert tier.topk_batch(queries, 4) == serial.topk_batch(queries, 4)


class TestWriteAdmission:
    def test_rate_limit_rejects_before_the_queue(self, stream):
        dataset, retrofitter, store = stream
        tier = grid(
            store, "rn", 1,
            database=dataset.database, retrofitter=retrofitter,
            solve_iterations=30,
            write_rate_limit=RateLimiter(0.01, burst=1),
        )
        with tier:
            ticket = tier.submit(make_delta(dataset, 1), timeout=0.0)
            with pytest.raises(ServingError, match="rate limit"):
                tier.submit(make_delta(dataset, 2), timeout=0.0)
            assert ticket.wait(timeout=120)
            assert tier.stats.writes_rate_limited == 1
            # reads are never throttled by write admission
            queries = np.ones((2, 16), dtype=np.float64)
            assert len(tier.topk_batch(queries, 3)) == 2


@pytest.mark.stress
class TestCrashRecovery:
    def test_worker_crash_degrades_then_respawns(self, int_corpus):
        store, session, queries = int_corpus
        with grid(store, "int", 2) as tier:
            want = session.topk_batch(queries, 8)
            assert tier.topk_batch(queries, 8) == want
            victim = tier._grid[0][0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            # served degraded: only shard 1's rows, but still well-formed
            degraded = tier.topk_batch(queries, 8)
            assert tier.stats.degraded_queries >= 1
            for row in degraded:
                for category, text, _ in row:
                    assert stable_shard(category, text, 2) == 1
            deadline = time.monotonic() + 30.0
            while tier.live_followers < 2:
                assert time.monotonic() < deadline, "respawn never completed"
                time.sleep(0.05)
            assert tier.stats.follower_respawns == 1
            assert tier.topk_batch(queries, 8) == want
