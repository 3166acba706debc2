"""The system under test of the networked workloads, in its own process tree.

    python3 perfbench/system.py --work DIR

Builds the serving corpus, saves it to a store under ``DIR`` and starts
the deployment (:func:`start_deployment`), then answers commands: one
JSON object per line on stdin, one JSON reply per line on the standard
output it was started with (anything the program itself prints goes to
stderr).  EOF on stdin, or ``{"cmd": "shutdown"}``, stops everything.
``remote.py`` starts it with ``start_new_session=True`` and kills the
whole process group afterwards, so nothing it forked outlives a run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harness import (  # noqa: E402
    K,
    SOLVE_ITERATIONS,
    TOKEN,
    Tracer,
    build_serving_corpus,
    corpus_database,
)
from repro.db.delta import DatabaseDelta  # noqa: E402
from repro.retrofit.extraction import derive_extraction_delta  # noqa: E402
from repro.serving import (  # noqa: E402
    EmbeddingStore,
    HTTPServingFront,
    MultiFrontDeployment,
    ReplicatedServingTier,
    ServingSession,
)
from repro.serving.session import index_factory_for  # noqa: E402

ARTIFACT = "serve"
#: What the load generator may ask for besides ``shutdown``.
COMMANDS = ("standalone_front", "probe_reads", "probe_writes")
FOLLOWERS = 2
FRONTS = 2
#: Options of every HTTP front, the deployment's and the standalone one.
FRONT_OPTIONS = {
    "window_seconds": 0.002,
    "max_batch": 64,
    "auth_tokens": {TOKEN: ("read", "write")},
    "write_timeout_seconds": 60.0,
}


def start_deployment(store_root: Path, corpus):
    """The deployment under test: the one place that builds it.

    A :class:`ReplicatedServingTier` (a primary applying writes, followers
    tailing the store's log) behind a :class:`MultiFrontDeployment` of
    HTTP front processes and its connection balancer.  Returns the
    started ``(tier, deployment)``.
    """
    tier = ReplicatedServingTier(
        store_root,
        ARTIFACT,
        n_replicas=FOLLOWERS,
        database=corpus.database,
        retrofitter=corpus.retrofitter(),
        # a promoted follower rebuilds its solver from its replayed state
        retrofitter_factory=lambda embeddings: corpus.retrofitter(embeddings, warm=False),
        solve_iterations=SOLVE_ITERATIONS,
    ).start()
    try:
        deployment = MultiFrontDeployment(
            tier, n_fronts=FRONTS, front_options=FRONT_OPTIONS
        ).start()
    except BaseException:
        tier.stop(flush=False)
        raise
    return tier, deployment


class System:
    """The deployment plus the in-process probes a traced run asks for."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.corpus = build_serving_corpus()
        store_root = work / "store"
        EmbeddingStore(store_root).save_embedding_set(ARTIFACT, self.corpus.embeddings)
        self.tier, self.deployment = start_deployment(store_root, self.corpus)
        self.standalone = None

    def ready(self) -> dict:
        return {
            "address": self.deployment.address,
            "front_ports": self.deployment.front_ports,
            "store": str(self.work / "store"),
            "artifact": ARTIFACT,
        }

    def standalone_front(self) -> dict:
        """An in-process HTTP front over the same tier (no gateway, no balancer)."""
        if self.standalone is None:
            self.standalone = HTTPServingFront(self.tier, **FRONT_OPTIONS).start()
        return {"port": self.standalone.port}

    def probe_reads(self, queries) -> dict:
        """Time the tier, a session and its index on the same queries.

        The session uses the followers' index kind (flat), so the tier's
        self time is routing and replica IPC, not a different scan.
        """
        tracer = Tracer()
        tracer.enabled = True
        queries = np.asarray(queries, dtype=np.float64)
        session = ServingSession(
            self.corpus.embeddings, index_factory=index_factory_for("flat"),
            cache_size=0,
        )
        index = session.index_for(None)
        for i, vector in enumerate(queries):
            trace = f"probe-{i}"
            with tracer.span("replicated.topk_batch_versioned", trace):
                self.tier.topk_batch_versioned(vector[None, :], K)
            with tracer.span("session.topk", trace):
                session.topk(vector, K)
            with tracer.span("index.query", trace):
                index.query(vector, K)
        return {"spans": tracer.spans}

    def probe_writes(self, replay, submit) -> dict:
        """Replay ``replay`` through each write-path layer serially, then
        time in-process ``submit`` -> ``ticket.wait`` for ``submit``.

        ``replay`` are the deltas the load wrote, in order, so the serial
        path starts from the corpus and does the primary's work again.
        Database apply and extraction delta are timed on a second copy of
        the database, because ``IncrementalRetrofitter.apply`` does both
        inside one call.
        """
        tracer = Tracer()
        tracer.enabled = True
        database, twin = corpus_database(), corpus_database()
        retrofitter = self.corpus.retrofitter()
        # the primary runtime's sessions: default index policy, no cache
        session = ServingSession(self.corpus.embeddings, cache_size=0)
        store = EmbeddingStore(self.work / "probe-store")
        store.save_embedding_set("probe", self.corpus.embeddings)
        reports = []
        for i, wire in enumerate(replay):
            delta = DatabaseDelta.from_dict(wire)
            trace = f"write-{i}"
            previous = retrofitter.embeddings.extraction
            with tracer.span("write.substages", trace):
                with tracer.span("db.apply"):
                    delta.apply_to(twin)
                with tracer.span("extraction.derive_extraction_delta"):
                    derive_extraction_delta(previous, twin, delta)
            with tracer.span("write.serial", trace):
                with tracer.span("incremental.apply"):
                    update = retrofitter.apply(
                        database, delta, iterations=SOLVE_ITERATIONS
                    )
                with tracer.span("session.apply_update"):
                    session.apply_update(update)
                with tracer.span("store.append"):
                    store.append_embedding_set_delta("probe", update)
            version = store.latest_version("probe")
            with tracer.span("store.replay", trace):
                EmbeddingStore(self.work / "probe-store").read_embedding_set_delta(
                    "probe", version
                )
            reports.append([update.report.n_active, update.report.iterations])
        for i, wire in enumerate(submit):
            with tracer.span("replicated.submit_ack", f"submit-{i}"):
                self.tier.submit(DatabaseDelta.from_dict(wire)).wait(timeout=60.0)
        return {"spans": tracer.spans, "reports": reports}

    def close(self) -> None:
        if self.standalone is not None:
            self.standalone.close()
        self.deployment.stop()
        self.tier.stop(flush=False)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--work", required=True, type=Path)
    args = parser.parse_args()
    # replies go to the inherited stdout; everything else to stderr
    replies = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def reply(payload: dict) -> None:
        replies.write(json.dumps(payload) + "\n")
        replies.flush()

    system = System(args.work)
    reply(system.ready())
    try:
        for line in sys.stdin:
            command = json.loads(line)
            name = command.pop("cmd")
            if name == "shutdown":
                break
            if name not in COMMANDS:
                raise ValueError(f"unknown command {name!r}")
            reply(getattr(system, name)(**command))
    finally:
        system.close()
    reply({"stopped": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
