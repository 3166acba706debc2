"""MultiFrontDeployment: N front processes, one replica pool, one door.

The basic tests run a read-only tier (cheap, no solver); the failover
test runs the full write stack — a retrofitting replicated tier, two
fronts, a retrying client — and kills one front mid-stream, asserting
that no acked write is ever lost.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.datasets import generate_tmdb
from repro.db.delta import DatabaseDelta
from repro.retrofit.combine import TextValueEmbeddingSet
from repro.retrofit.hyperparams import RetroHyperparameters
from repro.retrofit.pipeline import RetroPipeline
from repro.serving import (
    EmbeddingStore,
    MultiFrontDeployment,
    ReplicatedServingTier,
    ServingClient,
)
from repro.util.faults import RetryPolicy


@pytest.fixture()
def deployed(tmdb_extraction, tmp_path):
    """A read-only replicated tier behind two balanced HTTP fronts."""
    rng = np.random.default_rng(7)
    matrix = rng.integers(-2, 3, size=(len(tmdb_extraction), 12)).astype(
        np.float64
    )
    embeddings = TextValueEmbeddingSet(tmdb_extraction, matrix, name="INT")
    store = EmbeddingStore(tmp_path / "store")
    store.save_embedding_set("int", embeddings)
    queries = rng.integers(-3, 4, size=(4, 12)).astype(np.float64)
    with ReplicatedServingTier(store.root, "int", n_replicas=2) as tier:
        with MultiFrontDeployment(tier, n_fronts=2) as deployment:
            yield deployment, queries


class TestDeploymentBasics:
    def test_two_fronts_share_one_pool_behind_one_address(self, deployed):
        deployment, queries = deployed
        assert deployment.live_fronts == 2
        ports = deployment.front_ports
        assert len(ports) == 2 and len(set(ports)) == 2
        with ServingClient(
            deployment.address, retry=RetryPolicy(attempts=2)
        ) as client:
            for query in queries:
                body = client.topk(query, k=3)
                assert body["version"] == 0
                assert len(body["results"]) == 3
            health = client.health()
        assert health["status"] == "ok"
        assert health["live_followers"] == 2
        assert health["live_fronts"] == 2

    def test_stats_aggregate_per_front_counters(self, deployed):
        deployment, queries = deployed
        # one request per connection → round-robin spreads them evenly
        for i in range(6):
            with ServingClient(deployment.address, client_id=f"c{i}") as client:
                client.topk(queries[i % len(queries)], k=2)
        stats = deployment.stats()
        assert stats["live_fronts"] == 2
        assert len(stats["fronts"]) == 2
        per_front = [entry["front"]["requests"] for entry in stats["fronts"]]
        assert sum(per_front) == stats["totals"]["requests"] == 6
        assert all(count > 0 for count in per_front)  # both fronts served
        assert stats["balancer"]["connections"] >= 6
        assert stats["target"]["n_replicas"] == 2

    def test_per_front_stats_expose_the_deployment_aggregate(self, deployed):
        deployment, queries = deployed
        with ServingClient(deployment.address) as client:
            client.topk(queries[0], k=2)
            body = client.stats()
        assert body["deployment"]["live_fronts"] == 2
        assert body["deployment"]["totals"]["requests"] >= 1


class TestFrontFailover:
    def test_killing_a_front_mid_stream_loses_no_acked_write(self, tmp_path):
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
        rng = np.random.default_rng(4)
        query = rng.integers(-3, 4, size=16).astype(np.float64)

        def movie(i):
            return {
                "id": 80_000 + i, "title": f"severed cable {i}",
                "original_language": "english",
                "overview": "a write that survived its front",
                "budget": 1e7, "revenue": 2e7, "popularity": 1.0,
                "release_year": 2026, "collection_id": None,
            }

        tier = ReplicatedServingTier(
            store.root, "rn", n_replicas=2,
            database=dataset.database, retrofitter=retrofitter,
            solve_iterations=60,
        )
        with tier:
            with MultiFrontDeployment(
                tier, n_fronts=2,
                front_options={"write_timeout_seconds": 300.0},
            ) as deployment:
                with ServingClient(
                    deployment.address,
                    retry=RetryPolicy(attempts=6, base_delay=0.05),
                    timeout=300.0,
                ) as client:
                    acked = []
                    killed = threading.Event()

                    def writer():
                        for i in range(3):
                            version = client.submit(
                                DatabaseDelta().insert("movies", movie(i)),
                                submission_id=f"failover-{i}",
                            )
                            acked.append(version)
                            if i == 0:
                                deployment.kill_front(0)
                                killed.set()

                    thread = threading.Thread(target=writer)
                    thread.start()
                    assert killed.wait(timeout=300)
                    thread.join(timeout=300)
                    assert not thread.is_alive()
                    # every submit was eventually acked, through whichever
                    # front survived, at strictly increasing log positions
                    assert len(acked) == 3
                    assert acked == sorted(acked)
                    assert len(set(acked)) == 3
                    assert deployment.live_fronts == 1
                    # zero lost acked writes: the log is at (or past) every
                    # acked version, and a floored read through the balancer
                    # observes the newest one
                    assert tier.stats.log_version >= max(acked)
                    body = client.topk(query, k=3, min_version=max(acked))
                    assert body["version"] >= max(acked)
                    # resubmitting an acked id is a dedup hit, not a reapply
                    log_before = tier.stats.log_version
                    again = client.submit(
                        DatabaseDelta().insert("movies", movie(1)),
                        submission_id="failover-1",
                    )
                    assert again == acked[1]
                    assert tier.stats.log_version == log_before


class TestKeepAliveThroughTheBalancer:
    def test_one_client_reuses_one_connection(self, deployed):
        deployment, queries = deployed
        before = deployment.stats()["balancer"]["connections"]
        with ServingClient(deployment.address) as client:
            for i in range(12):
                assert client.topk(queries[i % len(queries)], k=3)["version"] == 0
        assert deployment.stats()["balancer"]["connections"] - before == 1

    def test_a_client_shared_by_threads_keeps_answers_apart(self, deployed):
        deployment, queries = deployed
        with ServingClient(deployment.address) as reference:
            expected = [reference.topk(query, k=3)["results"] for query in queries]
        before = deployment.stats()["balancer"]["connections"]

        def reader(offset):
            rows = [(offset + i) % len(queries) for i in range(50)]
            return [
                row for row in rows
                if client.topk(queries[row], k=3)["results"] != expected[row]
            ]

        with ServingClient(deployment.address) as client:
            with ThreadPoolExecutor(max_workers=4) as pool:
                wrong = list(pool.map(reader, range(4), timeout=120))
        assert wrong == [[], [], [], []]
        assert deployment.stats()["balancer"]["connections"] - before <= 4
