"""Sharded serving quickstart: multi-process top-k over shared memory.

Trains a small retrofitted model, persists it through the
:class:`~repro.serving.EmbeddingStore`, and serves it from a
:class:`~repro.serving.ReplicatedServingTier` laid out as two shards of
one replica each: text values hash-partitioned across worker processes,
each slicing its rows out of one read-only memory-mapped matrix (pages
shared across workers — no per-process full copy).  The retrofit
primary runs in its own process and publishes through the store's
versioned delta records, which every worker tails; a
:class:`~repro.serving.RateLimiter` throttles write admission so bursts
degrade writes, never reads.

Run with:

    PYTHONPATH=src python examples/sharded_serving_quickstart.py
"""

import tempfile

import numpy as np

from repro.datasets import generate_tmdb
from repro.db.delta import DatabaseDelta
from repro.retrofit.hyperparams import RetroHyperparameters
from repro.retrofit.pipeline import RetroPipeline
from repro.serving import (
    EmbeddingStore,
    RateLimiter,
    ReplicatedServingTier,
    ServingSession,
)


def main() -> None:
    # 1. train: a synthetic TMDB database, retrofitted with RN defaults
    dataset = generate_tmdb(num_movies=80, seed=7, embedding_dimension=24)
    pipeline = RetroPipeline(
        dataset.database,
        dataset.embedding,
        hyperparams=RetroHyperparameters.paper_rn_default(),
    )
    result = pipeline.run(iterations=200)
    print(f"trained {len(result.embeddings)} text-value embeddings")

    with tempfile.TemporaryDirectory() as store_dir:
        # 2. persist: the tier always serves a store artifact — the
        # store's delta records are how the primary process publishes
        store = EmbeddingStore(store_dir)
        store.save_embedding_set("model", result.embeddings)

        # 3. serve: a (2 shards × 1 replica) grid + one primary process;
        # the tier owns the database and the retrofitter once started
        retrofitter = pipeline.incremental_retrofitter(result)
        with ReplicatedServingTier(
            store_dir,
            "model",
            n_shards=2,
            n_replicas=1,
            database=dataset.database,
            retrofitter=retrofitter,
            solve_iterations=200,
            write_rate_limit=RateLimiter(rate_per_second=20.0, burst=5),
        ) as tier:
            print(f"serving on {tier.live_followers} shard processes")

            # reads: exact global top-k, merged across the shards —
            # identical (same rows, tie-stable) to a single-index session
            record = result.embeddings.extraction.records[0]
            query = result.embeddings.vector_for(record.category, record.text)
            for category, text, score in tier.topk(query, k=3):
                print(f"  {score:+.3f}  {category}  {text!r}")

            # writes: submit a database delta; the ticket resolves once
            # the primary published the new version to the store
            delta = DatabaseDelta()
            delta.insert("movies", {
                "id": 90_001, "title": "the meridian line",
                "original_language": "english",
                "overview": "a quiet voyage across the meridian",
                "budget": 1e7, "revenue": 2e7, "popularity": 1.0,
                "release_year": 2026, "collection_id": None,
            })
            ticket = tier.submit(delta)
            ticket.wait(timeout=120.0)
            print(f"delta published as store version {tier.published_version}")

            # read-your-writes: the new value is served immediately
            fresh = tier.topk(
                tier_vector(tier, store, "movies.title", "the meridian line"),
                k=1,
                category="movies.title",
            )
            print(f"nearest to the new title: {fresh[0][1]!r}")

            # the sharded answer equals the single-index answer exactly
            loaded, _, version = store.load_embedding_set_versioned("model")
            session = ServingSession(loaded)
            assert tier.topk_batch(query[None, :], 5) == session.topk_batch(
                query[None, :], 5
            )
            print(f"sharded == single-index at version {version}: exact")
            print(tier.stats)


def tier_vector(tier, store, category: str, text: str) -> np.ndarray:
    """Fetch a served vector through the store's current version."""
    loaded, _, _ = store.load_embedding_set_versioned("model")
    return loaded.vector_for(category, text)


if __name__ == "__main__":
    main()
