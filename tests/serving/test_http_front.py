"""The asyncio HTTP/JSON front: routing, validation, limits, batching.

Every test drives the real server over a loopback socket with plain
``urllib`` — request parsing, keep-alive handling and the event-loop
batching path are all exercised end to end, not through test doubles.
"""

import json
import urllib.error
import urllib.request
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
    HTTPServingFront,
    ReplicatedServingTier,
    ServingSession,
)


def http(address, path, payload=None, method=None, headers=None):
    """One request; returns (status, parsed JSON body, response headers)."""
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        address + path,
        data=data,
        headers={"Content-Type": "application/json", **(headers or {})},
        method=method or ("POST" if data is not None else "GET"),
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


def as_json_rows(rows):
    """Session results (tuples) in their JSON wire shape (lists)."""
    return [[category, text, score] for category, text, score in rows]


@pytest.fixture()
def served(tmdb_extraction, tmp_path):
    """A read-only replicated tier behind a running HTTP front."""
    rng = np.random.default_rng(7)
    matrix = rng.integers(-2, 3, size=(len(tmdb_extraction), 12)).astype(
        np.float64
    )
    embeddings = TextValueEmbeddingSet(tmdb_extraction, matrix, name="INT")
    store = EmbeddingStore(tmp_path / "store")
    store.save_embedding_set("int", embeddings)
    session = ServingSession(embeddings)
    queries = rng.integers(-3, 4, size=(6, 12)).astype(np.float64)
    with ReplicatedServingTier(store.root, "int", n_replicas=2) as tier:
        with HTTPServingFront(tier) as front:
            yield front, session, queries


class TestTopkEndpoint:
    def test_topk_matches_the_session(self, served):
        front, session, queries = served
        for query, want in zip(queries, session.topk_batch(queries, 5)):
            status, body, _ = http(
                front.address, "/topk", {"vector": list(query), "k": 5}
            )
            assert status == 200
            assert body["version"] == 0
            assert body["results"] == as_json_rows(want)

    def test_category_scope_and_default_k(self, served):
        front, session, queries = served
        category = sorted(session.categories)[0]
        want = session.topk_batch(queries[:1], 10, category=category)[0]
        status, body, _ = http(
            front.address,
            "/topk",
            {"vector": list(queries[0]), "category": category},
        )
        assert status == 200
        assert body["results"] == as_json_rows(want)

    def test_min_version_at_current_position(self, served):
        front, session, queries = served
        status, body, _ = http(
            front.address,
            "/topk",
            {"vector": list(queries[0]), "k": 3, "min_version": 0},
        )
        assert status == 200
        assert body["version"] >= 0
        assert body["results"] == as_json_rows(
            session.topk_batch(queries[:1], 3)[0]
        )

    def test_concurrent_clients_all_answered_exactly(self, served):
        front, session, queries = served
        want = session.topk_batch(queries, 4)

        def one(i):
            return http(
                front.address,
                "/topk",
                {"vector": list(queries[i % len(queries)]), "k": 4},
            )

        with ThreadPoolExecutor(max_workers=12) as pool:
            replies = list(pool.map(one, range(24)))
        for i, (status, body, _) in enumerate(replies):
            assert status == 200
            assert body["results"] == as_json_rows(want[i % len(queries)])
        assert front.stats.requests == 24
        assert front.stats.batches_dispatched >= 1


class TestValidation:
    @pytest.mark.parametrize("payload", [
        {},  # vector missing
        {"vector": []},  # empty
        {"vector": "nope"},  # not an array
        {"vector": [[1.0, 2.0]]},  # not flat
        {"vector": [1.0] * 5},  # wrong dimension (served is 12)
        {"vector": [float("inf")] + [0.0] * 11},  # non-finite
        {"vector": [0.0] * 12, "k": 0},
        {"vector": [0.0] * 12, "k": True},
        {"vector": [0.0] * 12, "k": 2_000_000},
        {"vector": [0.0] * 12, "category": 5},
        {"vector": [0.0] * 12, "min_version": "latest"},
    ])
    def test_bad_topk_payloads_are_400(self, served, payload):
        front, _, _ = served
        status, body, _ = http(front.address, "/topk", payload)
        assert status == 400
        assert "error" in body

    def test_unknown_category_is_400(self, served):
        front, _, queries = served
        status, body, _ = http(
            front.address,
            "/topk",
            {"vector": list(queries[0]), "category": "nope.nope"},
        )
        assert status == 400
        assert "nope.nope" in body["error"]

    def test_invalid_json_body_is_400(self, served):
        front, _, _ = served
        request = urllib.request.Request(
            front.address + "/topk", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        excinfo.value.close()  # the error holds the response's socket
        assert excinfo.value.code == 400

    def test_unknown_path_is_404(self, served):
        front, _, _ = served
        status, body, _ = http(front.address, "/nope")
        assert status == 404

    def test_wrong_method_is_405(self, served):
        front, _, queries = served
        status, _, _ = http(front.address, "/topk", method="GET")
        assert status == 405
        status, _, _ = http(
            front.address, "/health", {"vector": list(queries[0])}
        )
        assert status == 405


class TestHealthAndStats:
    def test_health_reports_version_and_followers(self, served):
        front, _, _ = served
        status, body, _ = http(front.address, "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["version"] == 0
        assert body["live_followers"] == 2

    def test_stats_exposes_front_and_target_counters(self, served):
        front, _, queries = served
        http(front.address, "/topk", {"vector": list(queries[0]), "k": 2})
        status, body, _ = http(front.address, "/stats")
        assert status == 200
        assert body["front"]["requests"] >= 1
        assert body["target"]["n_replicas"] == 2
        assert body["target"]["queries"] >= 1


class TestRateLimiting:
    def test_per_client_token_bucket_answers_429(
        self, tmdb_extraction, tmp_path
    ):
        rng = np.random.default_rng(7)
        matrix = rng.integers(-2, 3, size=(len(tmdb_extraction), 12)).astype(
            np.float64
        )
        embeddings = TextValueEmbeddingSet(tmdb_extraction, matrix, name="I")
        store = EmbeddingStore(tmp_path / "store")
        store.save_embedding_set("int", embeddings)
        vector = [1.0] * 12
        with ReplicatedServingTier(store.root, "int", n_replicas=1) as tier:
            with HTTPServingFront(
                tier, rate_per_second=0.001, burst=1
            ) as front:
                first = http(
                    front.address, "/topk", {"vector": vector},
                    headers={"X-Client-Id": "alpha"},
                )
                assert first[0] == 200
                second = http(
                    front.address, "/topk", {"vector": vector},
                    headers={"X-Client-Id": "alpha"},
                )
                assert second[0] == 429
                assert second[2].get("Retry-After") == "1"
                # budgets are per client: a different id is admitted
                other = http(
                    front.address, "/topk", {"vector": vector},
                    headers={"X-Client-Id": "beta"},
                )
                assert other[0] == 200
                assert front.stats.rate_limited == 1
                # health/stats are never throttled
                assert http(front.address, "/health")[0] == 200


class TestReadYourWritesOverHTTP:
    def test_floored_read_after_a_write_ack(self, tmp_path):
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
        delta = DatabaseDelta().insert("movies", {
            "id": 60_001, "title": "silent meridian 1",
            "original_language": "english",
            "overview": "a quiet voyage across the meridian",
            "budget": 1e7, "revenue": 2e7, "popularity": 1.0,
            "release_year": 2026, "collection_id": None,
        })
        rng = np.random.default_rng(4)
        query = rng.integers(-3, 4, size=16).astype(np.float64)
        tier = ReplicatedServingTier(
            store.root, "rn", n_replicas=2,
            database=dataset.database, retrofitter=retrofitter,
            solve_iterations=60,
        )
        with tier:
            with HTTPServingFront(tier) as front:
                ticket = tier.submit(delta)
                version = ticket.wait(timeout=120)
                status, body, _ = http(
                    front.address,
                    "/topk",
                    {"vector": list(query), "k": 5, "min_version": version},
                )
                assert status == 200
                assert body["version"] >= version
                loaded, _, loaded_version = (
                    store.load_embedding_set_versioned("rn")
                )
                assert loaded_version == version
                serial = ServingSession(loaded)
                serial.settle_indexes()
                assert body["results"] == as_json_rows(
                    serial.topk_batch(query[None, :], 5)[0]
                )
