"""Persistence of ANN index state (PQ codebooks/codes, NSW graphs) and
the float32 storage option.

Mirrors ``test_index_persistence.py`` for the two approximate indexes: an
artifact that carries trained PQ or NSW state must serve identical answers
after reload without re-running k-means or graph construction, survive
delta replay through ``from_partial_state``, and a ``dtype="float32"``
artifact must stay float32 through mmap loads and delta replay while
agreeing with the float64 original to ~1e-7 cosine.
"""

import numpy as np
import pytest

from repro.datasets import generate_tmdb
from repro.db.delta import DatabaseDelta
from repro.retrofit.combine import TextValueEmbeddingSet
from repro.retrofit.hyperparams import RetroHyperparameters
from repro.retrofit.pipeline import RetroPipeline
from repro.serving.nsw import NSWIndex
from repro.serving.pq import PQIndex
from repro.serving.session import ServingSession, index_factory_for
from repro.serving.store import EmbeddingStore, StoreFormatError


@pytest.fixture()
def embeddings(tmdb_extraction, tmdb_base):
    return TextValueEmbeddingSet(tmdb_extraction, tmdb_base.matrix.copy(), name="PV")


@pytest.fixture()
def stream(tmp_path):
    """A trained TMDB corpus + retrofitter + store with a delta stream."""
    dataset = generate_tmdb(num_movies=60, seed=8, embedding_dimension=16)
    pipeline = RetroPipeline(
        dataset.database,
        dataset.embedding,
        hyperparams=RetroHyperparameters.paper_rn_default(),
    )
    result = pipeline.run(iterations=120)
    retrofitter = pipeline.incremental_retrofitter(result)
    store = EmbeddingStore(tmp_path / "store")
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
    if key % 2 == 0:  # deletions exercise the row-map remapping paths
        victim = dataset.database.table("reviews").rows[0]
        delta.delete("reviews", victim["id"])
    return delta


class TestPQStorePersistence:
    def test_roundtrip_skips_training(self, embeddings, tmp_path, monkeypatch):
        index = PQIndex(
            embeddings.matrix, n_subspaces=4, n_cells=4, nprobe=4,
            rerank=32, seed=1,
        )
        store = EmbeddingStore(tmp_path)
        store.save_embedding_set("served", embeddings, index=index)

        def boom(self, iterations, train_sample, seed):  # pragma: no cover
            raise AssertionError("PQ k-means re-ran on load")

        monkeypatch.setattr(PQIndex, "_train", boom)
        _, loaded = store.load_embedding_set_with_index("served")
        assert isinstance(loaded, PQIndex)
        assert loaded.nprobe == index.nprobe and loaded.rerank == index.rerank
        np.testing.assert_array_equal(loaded.codes, index.codes)
        np.testing.assert_array_equal(loaded.assignments, index.assignments)
        query = embeddings.matrix[3]
        got_ids, got_scores = loaded.query(query, 5)
        want_ids, want_scores = index.query(query, 5)
        np.testing.assert_array_equal(got_ids, want_ids)
        np.testing.assert_allclose(got_scores, want_scores)

    def test_delta_replay_restores_partial_state(self, stream, monkeypatch):
        dataset, retrofitter, store = stream
        embeddings = retrofitter.embeddings
        index = PQIndex(
            embeddings.matrix, n_subspaces=4, n_cells=6, nprobe=6,
            rerank=10_000, seed=2,
        )
        store.save_embedding_set("rn", embeddings, index=index)
        for key in (1, 2):
            update = retrofitter.apply(dataset.database, make_delta(dataset, key))
            store.append_embedding_set_delta("rn", update)

        def boom(self, iterations, train_sample, seed):  # pragma: no cover
            raise AssertionError("PQ k-means re-ran during delta replay")

        monkeypatch.setattr(PQIndex, "_train", boom)
        loaded_set, loaded, version = store.load_embedding_set_versioned("rn")
        assert version == 2
        assert isinstance(loaded, PQIndex)
        assert loaded.n_rows == len(loaded_set)
        # exact-capable config: the replayed index must agree with a flat
        # scan over the replayed matrix
        reference = ServingSession(loaded_set)  # default flat factory path
        query = loaded_set.vector_for("movies.title", "silent meridian 2")
        ids, scores = loaded.query(query, 3)
        flat_hits = reference.topk(query, 3)
        got = [loaded_set.extraction.records[int(i)].text for i in ids]
        assert got == [text for _, text, _ in flat_hits]
        assert "silent meridian 2" in got


class TestNSWStorePersistence:
    def test_roundtrip_preserves_graph(self, embeddings, tmp_path, monkeypatch):
        index = NSWIndex(
            embeddings.matrix, max_degree=10, ef_construction=48, ef_search=32
        )
        store = EmbeddingStore(tmp_path)
        store.save_embedding_set("served", embeddings, index=index)

        def boom(self, row):  # pragma: no cover - guard
            raise AssertionError("NSW re-linked rows on load")

        monkeypatch.setattr(NSWIndex, "_link", boom)
        _, loaded = store.load_embedding_set_with_index("served")
        assert isinstance(loaded, NSWIndex)
        assert loaded.entry_point == index.entry_point
        assert loaded.max_degree == index.max_degree
        np.testing.assert_array_equal(loaded.adjacency, index.adjacency)
        queries = embeddings.matrix[:5]
        got_ids, got_scores = loaded.query_batch(queries, 4)
        want_ids, want_scores = index.query_batch(queries, 4)
        np.testing.assert_array_equal(got_ids, want_ids)
        np.testing.assert_array_equal(got_scores, want_scores)

    def test_delta_replay_relinks_only_touched_rows(self, stream):
        dataset, retrofitter, store = stream
        embeddings = retrofitter.embeddings
        index = NSWIndex(embeddings.matrix, max_degree=12, ef_search=10_000)
        store.save_embedding_set("rn", embeddings, index=index)
        for key in (1, 2, 3):
            update = retrofitter.apply(dataset.database, make_delta(dataset, key))
            store.append_embedding_set_delta("rn", update)

        loaded_set, loaded, version = store.load_embedding_set_versioned("rn")
        assert version == 3
        assert isinstance(loaded, NSWIndex)
        assert loaded.n_rows == len(loaded_set)
        # exhaustive beam: the replayed graph must answer exactly, so it
        # matches a brute-force scan over the replayed matrix
        from repro.serving.index import FlatIndex

        flat = FlatIndex(loaded_set.matrix)
        rng = np.random.default_rng(5)
        queries = rng.normal(size=(8, loaded_set.dimension))
        queries[0] = loaded_set.vector_for("movies.title", "silent meridian 3")
        want_ids, _ = flat.query_batch(queries, 5)
        got_ids, got_scores = loaded.query_batch(queries, 5)
        np.testing.assert_array_equal(got_ids, want_ids)
        # the three inserted titles share one vector: the tie ranks by id
        texts = [loaded_set.extraction.records[int(i)].text for i in got_ids[0, :3]]
        assert texts == [f"silent meridian {key}" for key in (1, 2, 3)]
        assert got_scores[0, 0] == got_scores[0, 1] == got_scores[0, 2]


class TestFloat32Storage:
    def test_dtype_preserved_and_agrees_with_float64(self, embeddings, tmp_path):
        store = EmbeddingStore(tmp_path)
        store.save_embedding_set("wide", embeddings)
        store.save_embedding_set("narrow", embeddings, dtype="float32")
        wide, _, _ = store.load_embedding_set_versioned("wide")
        narrow, _, _ = store.load_embedding_set_versioned("narrow")
        assert wide.matrix.dtype == np.float64
        assert narrow.matrix.dtype == np.float32

        norms = np.linalg.norm(wide.matrix, axis=1)
        live = norms > 1e-12
        a = wide.matrix[live] / norms[live][:, None]
        b = narrow.matrix[live].astype(np.float64)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        cosines = np.sum(a * b, axis=1)
        assert cosines.min() > 1 - 1e-5

    def test_dtype_survives_delta_replay(self, stream):
        dataset, retrofitter, store = stream
        store.save_embedding_set(
            "rn", retrofitter.embeddings, dtype="float32"
        )
        update = retrofitter.apply(dataset.database, make_delta(dataset, 9))
        store.append_embedding_set_delta("rn", update)
        loaded, _, version = store.load_embedding_set_versioned("rn")
        assert version == 1
        assert loaded.matrix.dtype == np.float32

    def test_queries_work_on_float32_session(self, embeddings, tmp_path):
        store = EmbeddingStore(tmp_path)
        store.save_embedding_set("narrow", embeddings, dtype="float32")
        session = ServingSession.from_store(tmp_path, "narrow")
        assert session.embeddings.matrix.dtype == np.float32
        hits = session.topk(embeddings.matrix[7], 3)
        assert len(hits) == 3

    def test_rejects_non_float_dtypes(self, embeddings, tmp_path):
        store = EmbeddingStore(tmp_path)
        with pytest.raises(StoreFormatError):
            store.save_embedding_set("bad", embeddings, dtype="int8")


class TestNSWSessionDrainsDeltas:
    """The acceptance path: a live NSW-indexed session drains a delta
    stream entirely in place and keeps agreeing with a rebuilt index."""

    def test_apply_update_stream_in_place(self, stream):
        dataset, retrofitter, store = stream
        factory = index_factory_for(
            "nsw", max_degree=12, ef_construction=48, ef_search=10_000
        )
        session = ServingSession(retrofitter.embeddings, index_factory=factory)
        live_index = session.index_for(None)
        assert isinstance(live_index, NSWIndex)

        for key in range(1, 6):
            update = retrofitter.apply(dataset.database, make_delta(dataset, key))
            stats = session.apply_update(update)
            assert stats.index_updated_in_place
            assert session.index_for(None) is live_index  # never rebuilt

        rebuilt = NSWIndex(
            session.embeddings.matrix, max_degree=12,
            ef_construction=48, ef_search=10_000,
        )
        # the drained graph differs from the rebuilt one, but both are
        # exhaustive at this beam width over the same live rows, modulo
        # tombstones the in-place index still carries
        rng = np.random.default_rng(11)
        queries = rng.normal(size=(12, session.dimension))
        live_ids, live_scores = live_index.query_batch(queries, 10)
        scope = np.asarray(session._scope_rows[None], dtype=np.int64)
        mapped = np.where(live_ids >= 0, scope[np.clip(live_ids, 0, None)], -1)
        want_ids, want_scores = rebuilt.query_batch(queries, 10)
        np.testing.assert_array_equal(mapped, want_ids)
        # cosine scores agree far inside the 1e-3 acceptance budget
        np.testing.assert_allclose(live_scores, want_scores, atol=1e-3)

        # the drained session serves the same nearest text as a brute-force
        # session over its own embeddings (the inserted titles are near
        # duplicates of one another, so pin the text, not a specific key)
        newest = session.embeddings.vector_for(
            "movies.title", "silent meridian 5"
        )
        reference = ServingSession(session.embeddings)
        assert session.topk(newest, 1)[0][1] == reference.topk(newest, 1)[0][1]
        assert session.topk(newest, 1)[0][1].startswith("silent meridian")
