"""Tests for versioned embedding-set delta records and compaction."""

import numpy as np
import pytest

from repro.datasets import generate_tmdb
from repro.db.delta import DatabaseDelta
from repro.errors import StoreFormatError
from repro.retrofit.hyperparams import RetroHyperparameters
from repro.retrofit.pipeline import RetroPipeline
from repro.serving.index import IVFIndex
from repro.serving.store import EmbeddingStore


@pytest.fixture()
def stream(tmp_path):
    dataset = generate_tmdb(num_movies=60, seed=8, embedding_dimension=16)
    pipeline = RetroPipeline(
        dataset.database,
        dataset.embedding,
        hyperparams=RetroHyperparameters.paper_rn_default(),
    )
    result = pipeline.run(iterations=120)
    retrofitter = pipeline.incremental_retrofitter(result)
    store = EmbeddingStore(tmp_path)
    index = IVFIndex(result.embeddings.matrix, n_cells=6, nprobe=6, seed=0)
    store.save_embedding_set("rn", result.embeddings, index=index)
    return dataset, retrofitter, store


def apply_one(dataset, retrofitter, key):
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
    if key % 2 == 0:
        victim = dataset.database.table("reviews").rows[0]
        delta.delete("reviews", victim["id"])
    return retrofitter.apply(dataset.database, delta)


class TestDeltaRecords:
    def test_append_and_replay(self, stream):
        dataset, retrofitter, store = stream
        for key in range(1, 3):
            update = apply_one(dataset, retrofitter, key)
            store.append_embedding_set_delta("rn", update)
        assert [v for v, _ in store.list_embedding_set_deltas("rn")] == [1, 2]
        assert store.latest_version("rn") == 2

        loaded, index, version = store.load_embedding_set_versioned("rn")
        assert version == 2
        assert len(loaded) == len(retrofitter.embeddings)
        assert np.allclose(loaded.matrix, retrofitter.embeddings.matrix)
        # the IVF index evolved with the replay — no k-means, new rows served
        assert isinstance(index, IVFIndex)
        query = retrofitter.embeddings.vector_for(
            "movies.title", "silent meridian 2"
        )
        hits, scores = index.query(query, 2)
        texts = [loaded.extraction.records[int(hit)].text for hit in hits]
        # both inserted titles retrofit to one vector: the tie ranks by id
        assert texts == ["silent meridian 1", "silent meridian 2"]
        assert scores[0] == scores[1]

    def test_replay_preserves_value_to_vector_mapping(self, stream):
        """Regression: the store writes headers with sorted JSON keys, which
        must not reorder how added values map onto appended matrix rows —
        added values span multiple categories in non-alphabetical order."""
        dataset, retrofitter, store = stream
        update = apply_one(dataset, retrofitter, 1)
        added = [
            (category, text)
            for category, texts in update.extraction_delta.added_values.items()
            for text in texts
        ]
        assert len({category for category, _ in added}) > 1
        store.append_embedding_set_delta("rn", update)
        loaded = store.load_embedding_set("rn")
        for category, text in added:
            assert np.array_equal(
                loaded.vector_for(category, text),
                retrofitter.embeddings.vector_for(category, text),
            ), (category, text)

    def test_compaction_folds_the_chain(self, stream):
        dataset, retrofitter, store = stream
        for key in range(1, 4):
            store.append_embedding_set_delta(
                "rn", apply_one(dataset, retrofitter, key)
            )
        version = store.compact_embedding_set("rn")
        assert version == 3
        assert store.list_embedding_set_deltas("rn") == []
        loaded, index, loaded_version = store.load_embedding_set_versioned("rn")
        assert loaded_version == 3
        assert np.allclose(loaded.matrix, retrofitter.embeddings.matrix)
        assert isinstance(index, IVFIndex)

    def test_row_count_preserving_delta_still_evolves_the_index(self, stream):
        """Regression: a delta that only moves existing vectors (a new link
        row between existing values — no values added or removed) keeps the
        row count, but the restored index must still serve the replayed
        matrix, not the base one."""
        dataset, retrofitter, store = stream
        movie = dataset.database.table("movies").rows[0]["id"]
        keyword_links = dataset.database.table("movie_keywords")
        next_id = max(row["id"] for row in keyword_links) + 1
        existing_keywords = {row["keyword_id"] for row in keyword_links
                             if row["movie_id"] == movie}
        fresh_keyword = next(
            row["id"] for row in dataset.database.table("keywords")
            if row["id"] not in existing_keywords
        )
        delta = DatabaseDelta().insert("movie_keywords", {
            "id": next_id, "movie_id": movie, "keyword_id": fresh_keyword,
        })
        update = retrofitter.apply(dataset.database, delta)
        assert update.delta_map.n_added == 0 and update.delta_map.n_removed == 0
        assert update.changed_rows.size > 0
        store.append_embedding_set_delta("rn", update)
        loaded, index, _ = store.load_embedding_set_versioned("rn")
        assert index is not None
        assert np.allclose(index.matrix, loaded.matrix)

    def test_broken_chain_refuses_to_load(self, stream):
        dataset, retrofitter, store = stream
        for key in range(1, 3):
            store.append_embedding_set_delta(
                "rn", apply_one(dataset, retrofitter, key)
            )
        store.delete_artifact("rn.delta000001")
        with pytest.raises(StoreFormatError, match="delta chain"):
            store.load_embedding_set("rn")

    def test_legacy_update_cannot_be_appended(self, stream):
        dataset, retrofitter, store = stream
        legacy = retrofitter.update(dataset.database)
        with pytest.raises(StoreFormatError):
            store.append_embedding_set_delta("rn", legacy)

    def test_reserved_delta_names_rejected(self, stream):
        _, retrofitter, store = stream
        with pytest.raises(StoreFormatError):
            store.save_embedding_set("rn.delta000009", retrofitter.embeddings)


class TestDeltaRecordReads:
    """The shard workers' raw replay primitive."""

    def test_record_replays_to_the_versioned_load(self, stream):
        """Manually replaying DeltaRecords over the read-only base matrix
        reproduces exactly what load_embedding_set_versioned serves."""
        dataset, retrofitter, store = stream
        for key in range(1, 3):
            store.append_embedding_set_delta(
                "rn", apply_one(dataset, retrofitter, key)
            )
        base, version = store.load_embedding_set_readonly("rn")
        assert version == 0
        extraction = base.extraction.copy()
        matrix = np.asarray(base.matrix)
        for target in (1, 2):
            record = store.read_embedding_set_delta("rn", target)
            assert record.version == target
            delta_map = extraction.apply_delta(record.extraction_delta)
            new_matrix = np.zeros(
                (len(extraction), matrix.shape[1]), dtype=np.float64
            )
            surviving = delta_map.surviving_old_indices()
            new_matrix[delta_map.old_to_new[surviving]] = matrix[surviving]
            assert record.added_indices == list(delta_map.added_indices)
            if record.added_indices:
                new_matrix[record.added_indices] = record.added_matrix
            if record.changed_rows:
                new_matrix[record.changed_rows] = record.changed_matrix
            matrix = new_matrix
        served, _, served_version = store.load_embedding_set_versioned("rn")
        assert served_version == 2
        assert np.array_equal(matrix, served.matrix)
        assert extraction.texts == served.extraction.texts

    def test_missing_record_raises(self, stream):
        _, _, store = stream
        with pytest.raises(StoreFormatError, match="no artifact"):
            store.read_embedding_set_delta("rn", 7)
