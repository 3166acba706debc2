"""Replicated serving quickstart: log-shipping replicas behind /v1 HTTP.

Trains a small retrofitted model, persists it through the
:class:`~repro.serving.EmbeddingStore`, and serves it from a
:class:`~repro.serving.ReplicatedServingTier`: one primary process owns
the database and the retrofit solver and publishes every applied delta to
the store's versioned delta log; follower processes tail that log, replay
it into full-corpus read replicas, and answer top-k queries.

On top sits the network tier from this iteration:

* a :class:`~repro.serving.MultiFrontDeployment` — two
  :class:`~repro.serving.HTTPServingFront` s, each running inside one
  follower and answering reads from that follower's own replica, behind
  a single address whose balancer hands each connection to one of them,
  with bearer-token auth (per-token read/write scopes);
* a :class:`~repro.serving.ServingClient` — the stdlib client: retried
  calls, idempotent write resubmission (one submission id across
  retries), and automatic read-your-writes floors (a reader that just
  wrote always sees its write, whichever front answers).

Run with:

    PYTHONPATH=src python examples/replicated_serving_quickstart.py
"""

import tempfile

from repro.datasets import generate_tmdb
from repro.db.delta import DatabaseDelta
from repro.retrofit.incremental import IncrementalRetrofitter
from repro.retrofit.hyperparams import RetroHyperparameters
from repro.retrofit.pipeline import RetroPipeline
from repro.serving import (
    EmbeddingStore,
    MultiFrontDeployment,
    ReplicatedServingTier,
    ServingAPIError,
    ServingClient,
)

TOKENS = {
    "reader-key": "read",  # queries and stats only
    "writer-key": ("read", "write"),  # may also POST /v1/submit
}


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

    def follower_retrofitter(embeddings):
        # arms failover: a follower elected primary rebuilds its solver
        # from its replayed embeddings
        return IncrementalRetrofitter(
            embeddings,
            pipeline.tokenizer,
            hyperparams=pipeline.hyperparams,
            method=pipeline.method,
        )

    with tempfile.TemporaryDirectory() as store_dir:
        # 2. persist: the store's delta log is the replication channel —
        # the primary appends, every follower tails
        store = EmbeddingStore(store_dir)
        store.save_embedding_set("model", result.embeddings)

        # 3. serve: one primary + two follower processes; the deployment
        # puts an HTTP front speaking the /v1 API inside each follower,
        # behind one balanced address
        retrofitter = pipeline.incremental_retrofitter(result)
        tier = ReplicatedServingTier(
            store_dir,
            "model",
            n_replicas=2,
            database=dataset.database,
            retrofitter=retrofitter,
            retrofitter_factory=follower_retrofitter,
            solve_iterations=200,
        )
        with tier, MultiFrontDeployment(
            tier, n_fronts=2, front_options={"auth_tokens": TOKENS}
        ) as deployment, ServingClient(
            deployment.address, token="writer-key"
        ) as writer, ServingClient(
            deployment.address, token="reader-key"
        ) as reader:
            print(f"serving reads on {tier.live_followers} followers")
            print(f"{deployment.live_fronts} fronts behind {deployment.address}")
            print("health:", writer.health())

            # 4. write over the network: POST /v1/submit carries the
            # delta's to_dict() wire form plus a submission id — the
            # idempotency key; a retried POST applies exactly once
            delta = DatabaseDelta()
            delta.insert("movies", {
                "id": 90_001, "title": "the meridian line",
                "original_language": "english",
                "overview": "a quiet voyage across the meridian",
                "budget": 1e7, "revenue": 2e7, "popularity": 1.0,
                "release_year": 2026, "collection_id": None,
            })
            version = writer.submit(delta, submission_id="quickstart-1")
            print(f"delta published as log version {version}")
            again = writer.submit(delta, submission_id="quickstart-1")
            assert again == version  # dedup hit: same version, applied once

            # 5. read-your-writes: the client remembers its acked version
            # and floors every later read with it, so the new title is
            # visible no matter which front answers (a read without a
            # floor is also at or past the newest acked write)
            loaded, _, _ = store.load_embedding_set_versioned("model")
            query = loaded.vector_for("movies.title", "the meridian line")
            reply = writer.topk(query, k=3, category="movies.title")
            assert reply["version"] >= version
            print(f"top-3 at version {reply['version']}:")
            for category, text, score in reply["results"]:
                print(f"  {score:+.3f}  {category}  {text!r}")

            # 6. scopes: the reader token may query but not write
            reader.topk(query, k=1)
            try:
                reader.submit(delta)
            except ServingAPIError as error:
                print(f"reader write refused: {error}")  # HTTP 403

            # 7. the deployment aggregates per-front counters
            stats = deployment.stats()
            per_front = [
                entry["front"]["requests"] for entry in stats["fronts"]
            ]
            print(f"requests per front: {per_front}")
            print(f"totals: {stats['totals']}")


if __name__ == "__main__":
    main()
