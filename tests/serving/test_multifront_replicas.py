"""Fronts inside the replicas: a read stays in the worker that answers it.

A deployment's front runs in a follower worker of the tier and answers
``/v1/topk`` from that worker's own rows.  These tests pin what that
layout must keep: no read reaches the parent, an acked write is visible
to an unfloored read at every front, one answer is one version's answer
while records replay, TLS still terminates at the fronts, and the grid
limits of the layout.
"""

import contextlib
import shutil
import ssl
import subprocess
import threading

import numpy as np
import pytest

from repro.datasets import generate_tmdb
from repro.db.delta import DatabaseDelta
from repro.errors import ServingError
from repro.retrofit.combine import TextValueEmbeddingSet
from repro.retrofit.hyperparams import RetroHyperparameters
from repro.retrofit.pipeline import RetroPipeline
from repro.serving import (
    EmbeddingStore,
    MultiFrontDeployment,
    ReplicatedServingTier,
    ServingClient,
    ServingSession,
)
from repro.serving.session import index_factory_for


@pytest.fixture()
def int_store(tmdb_extraction, tmp_path):
    """A read-only integer-valued artifact plus four queries."""
    rng = np.random.default_rng(7)
    matrix = rng.integers(-2, 3, size=(len(tmdb_extraction), 12)).astype(
        np.float64
    )
    store = EmbeddingStore(tmp_path / "store")
    store.save_embedding_set(
        "int", TextValueEmbeddingSet(tmdb_extraction, matrix, name="INT")
    )
    queries = rng.integers(-3, 4, size=(4, 12)).astype(np.float64)
    return store, queries


@contextlib.contextmanager
def writable_deployment(tmp_path, tail_interval: float):
    """A retrofitting (1, 2) grid with a front in each replica."""
    dataset = generate_tmdb(num_movies=60, seed=8, embedding_dimension=16)
    pipeline = RetroPipeline(
        dataset.database,
        dataset.embedding,
        hyperparams=RetroHyperparameters.paper_rn_default(),
    )
    result = pipeline.run(iterations=120)
    store = EmbeddingStore(tmp_path / "store")
    store.save_embedding_set("rn", result.embeddings)
    tier = ReplicatedServingTier(
        store.root, "rn", n_replicas=2,
        database=dataset.database,
        retrofitter=pipeline.incremental_retrofitter(result),
        solve_iterations=60,
        tail_interval=tail_interval,
    )
    with tier, MultiFrontDeployment(tier, n_fronts=2) as deployment:
        yield store, tier, deployment


def movie(i: int) -> DatabaseDelta:
    return DatabaseDelta().insert("movies", {
        "id": 70_000 + i, "title": f"replica read {i}",
        "original_language": "english",
        "overview": "a write every front must show",
        "budget": 1e7, "revenue": 2e7, "popularity": 1.0,
        "release_year": 2026, "collection_id": None,
    })


class TestReadsStayInTheReplica:
    def test_a_deployment_read_never_reaches_the_parent(self, int_store):
        store, queries = int_store
        with ReplicatedServingTier(store.root, "int", n_replicas=2) as tier:
            with MultiFrontDeployment(tier, n_fronts=2) as deployment:
                calls = []
                original = tier.topk_batch_versioned

                def counted(*args, **kwargs):
                    calls.append(args)
                    return original(*args, **kwargs)

                tier.topk_batch_versioned = counted
                with ServingClient(deployment.address) as client:
                    for i in range(20):
                        body = client.topk(queries[i % len(queries)], k=3)
                        assert body["version"] == 0
                assert calls == []
                assert deployment.stats()["totals"]["requests"] == 20

    def test_stopping_the_deployment_leaves_the_followers_serving(
        self, int_store
    ):
        store, queries = int_store
        with ReplicatedServingTier(store.root, "int", n_replicas=2) as tier:
            with MultiFrontDeployment(tier, n_fronts=2) as deployment:
                with ServingClient(deployment.address) as client:
                    expected = client.topk(queries[0], k=3)["results"]
            assert tier.live_followers == 2
            version, rows = tier.topk_batch_versioned(queries[:1], 3)
            assert version == 0
            assert [list(hit) for hit in rows[0]] == expected

    def test_an_acked_write_is_visible_to_unfloored_reads_at_every_front(
        self, tmp_path
    ):
        # no background tail: only the published floor makes a replica
        # replay before it answers
        with writable_deployment(tmp_path, tail_interval=3600.0) as (
            store, tier, deployment,
        ):
            query = np.random.default_rng(3).normal(size=16)
            with ServingClient(deployment.address) as writer:
                version = writer.submit(movie(0), submission_id="visible-0")
            assert version >= 1
            for port in deployment.front_ports:
                with ServingClient(
                    f"http://127.0.0.1:{port}", read_your_writes=False
                ) as reader:
                    assert reader.topk(query, k=3)["version"] >= version

    def test_answers_stay_consistent_while_records_replay(self, tmp_path):
        with writable_deployment(tmp_path, tail_interval=0.01) as (
            store, tier, deployment,
        ):
            base, _, base_version = store.load_embedding_set_versioned("rn")
            snapshots = {base_version: base}
            # every insert moves the "english" row, so a query near it
            # scores differently at each version: an answer computed at
            # one version and reported at another shows
            english = base.vector_for("movies.original_language", "english")
            queries = english + 0.05 * np.random.default_rng(11).normal(
                size=(8, 16)
            )
            answers, errors = [], []
            done = threading.Event()

            def reader(port):
                try:
                    with ServingClient(f"http://127.0.0.1:{port}") as client:
                        row = 0
                        while not done.is_set():
                            body = client.topk(queries[row], k=5)
                            answers.append((body["version"], row, body["results"]))
                            row = (row + 1) % len(queries)
                except BaseException as error:  # noqa: BLE001 - asserted below
                    errors.append(error)

            readers = [
                threading.Thread(target=reader, args=(port,))
                for port in deployment.front_ports
            ]
            for thread in readers:
                thread.start()
            try:
                with ServingClient(deployment.address) as writer:
                    for i in range(5):
                        version = writer.submit(
                            movie(i), submission_id=f"replay-{i}"
                        )
                        # the writer is the only one: the store holds
                        # exactly this version until the next submit
                        embeddings, _, loaded = store.load_embedding_set_versioned(
                            "rn"
                        )
                        assert loaded == version
                        snapshots[version] = embeddings
            finally:
                done.set()
                for thread in readers:
                    thread.join(60)
            assert errors == []
            assert len({version for version, _, _ in answers}) >= 2
            sessions = {
                version: ServingSession(
                    embeddings, index_factory=index_factory_for("flat"),
                    cache_size=0,
                )
                for version, embeddings in snapshots.items()
            }
            for version, row, results in answers:
                expected = sessions[version].topk_batch(queries[row][None, :], 5)[0]
                assert [(c, t) for c, t, _ in results] == [
                    (c, t) for c, t, _ in expected
                ]
                np.testing.assert_allclose(
                    [s for _, _, s in results], [s for _, _, s in expected],
                    rtol=1e-9, atol=1e-9,
                )


class TestTLSThroughTheDeployment:
    @pytest.fixture()
    def tls_contexts(self, tmp_path):
        openssl = shutil.which("openssl")
        if openssl is None:
            pytest.skip("needs the openssl CLI to make a certificate")
        cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
        subprocess.run(
            [
                openssl, "req", "-x509", "-newkey", "ec",
                "-pkeyopt", "ec_paramgen_curve:prime256v1", "-nodes",
                "-keyout", str(key), "-out", str(cert), "-days", "1",
                "-subj", "/CN=127.0.0.1",
                "-addext", "subjectAltName=IP:127.0.0.1",
            ],
            check=True, capture_output=True,
        )
        server = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        server.load_cert_chain(cert, key)
        return server, ssl.create_default_context(cafile=str(cert))

    def test_reads_over_https_through_the_balancer_and_a_front(
        self, int_store, tls_contexts
    ):
        store, queries = int_store
        server, client_context = tls_contexts
        with ReplicatedServingTier(store.root, "int", n_replicas=2) as tier:
            with MultiFrontDeployment(
                tier, n_fronts=2, front_options={"ssl_context": server}
            ) as deployment:
                assert deployment.address.startswith("https://")
                front = f"https://127.0.0.1:{deployment.front_ports[0]}"
                for address in (deployment.address, front):
                    with ServingClient(
                        address, ssl_context=client_context
                    ) as client:
                        body = client.topk(queries[0], k=3)
                        assert body["version"] == 0
                        assert len(body["results"]) == 3


class TestGridLimits:
    def test_more_fronts_than_replicas_is_refused(self, int_store):
        store, _ = int_store
        tier = ReplicatedServingTier(store.root, "int", n_replicas=1)
        with pytest.raises(ServingError, match="replicas"):
            MultiFrontDeployment(tier, n_fronts=2)

    def test_a_sharded_grid_is_refused(self, int_store):
        store, _ = int_store
        tier = ReplicatedServingTier(store.root, "int", n_shards=2, n_replicas=1)
        with pytest.raises(ServingError, match="one-shard"):
            MultiFrontDeployment(tier, n_fronts=1)
