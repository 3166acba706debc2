"""Concurrent serving quickstart: queries while the database churns.

Builds a small retrofitted model, wraps it in a
:class:`~repro.serving.ServingRuntime` — a background applier thread
draining a write-ahead delta queue into double-buffered serving sessions —
and drives it from several reader threads through a
:class:`~repro.serving.BatchedQueryFront`, which coalesces concurrent
top-k requests into single batched index queries.

Run with:

    PYTHONPATH=src python examples/concurrent_serving_quickstart.py
"""

import threading

import numpy as np

from repro.datasets import generate_tmdb
from repro.db.delta import DatabaseDelta
from repro.retrofit.hyperparams import RetroHyperparameters
from repro.retrofit.pipeline import RetroPipeline
from repro.serving import BatchedQueryFront, ServingRuntime


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

    # 2. serve: the runtime owns the database and the retrofitter; writers
    # submit deltas, readers never block on them
    retrofitter = pipeline.incremental_retrofitter(result)
    with ServingRuntime(
        dataset.database, retrofitter, solve_iterations=200
    ) as runtime:
        # an idle front runs a read at once; behind a busy one, reads wait
        # at most window_seconds to share the next batch
        with BatchedQueryFront(runtime, window_seconds=0.002) as front:
            # a few reader threads hammering the index through the front
            matrix = result.embeddings.matrix.copy()
            stop = threading.Event()

            def reader(seed: int) -> None:
                rng = np.random.default_rng(seed)
                while not stop.is_set():
                    probe = matrix[int(rng.integers(0, matrix.shape[0]))]
                    front.topk(probe, 5, timeout=30.0)

            threads = [
                threading.Thread(target=reader, args=(seed,))
                for seed in range(3)
            ]
            for thread in threads:
                thread.start()

            # 3. write: a live delta lands while the readers keep serving
            delta = DatabaseDelta()
            delta.insert("movies", {
                "id": 90_001, "title": "the glass comet",
                "original_language": "english",
                "overview": "a comet observatory and a missing letter",
                "budget": 2e7, "revenue": 5e7, "popularity": 2.0,
                "release_year": 2026, "collection_id": None,
            })
            delta.insert("movie_countries", {
                "id": 90_001, "movie_id": 90_001, "country_id": 1,
            })
            ticket = runtime.submit(delta)
            version = ticket.wait(timeout=120.0)
            print(
                f"delta published as version {version} "
                f"(lag {ticket.lag_seconds * 1000:.0f} ms)"
            )

            # the freshly inserted title is immediately servable
            vector = runtime.embeddings.vector_for(
                "movies.title", "the glass comet"
            )
            top = runtime.topk(vector, 3)
            print("top-3 for the new movie's vector:")
            for category, text, score in top:
                print(f"  {score:.3f}  {category}: {text}")

            stop.set()
            for thread in threads:
                thread.join()

        stats = runtime.stats
        front_stats = front.stats
        print(
            f"served {front_stats.requests} batched queries in "
            f"{front_stats.batches_dispatched} index calls "
            f"(mean batch {front_stats.mean_batch_size:.1f}); "
            f"updates published: {stats.updates_published}, "
            f"snapshots reclaimed: {stats.snapshots_reclaimed}"
        )


if __name__ == "__main__":
    main()
