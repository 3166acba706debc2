"""Embedding serving: ANN indexes, artifact persistence, query sessions.

The training side of the reproduction ends with dense matrices; this
package is the serving side.  Four interchangeable :class:`VectorIndex`
families answer single and batched top-k similarity queries.  Choosing
one:

* :class:`FlatIndex` — exact brute force.  The recall reference and the
  right answer below ~10⁴ rows, where one BLAS matmul beats any index.
* :class:`IVFIndex` — coarse k-means cells, scans ``nprobe`` of them.
  Near-exact recall at ~10× flat throughput for 10⁴–10⁵ rows; memory is
  still the full float matrix, and mutations re-cluster lazily.
* :class:`PQIndex` — product-quantised codes scored through per-query
  asymmetric-distance tables, with an optional IVF coarse layer
  (``n_cells > 1`` = IVF-PQ) and exact re-ranking of a short shortlist.
  20–60× less resident memory; pick it when the corpus no longer fits.
* :class:`NSWIndex` — a navigable-small-world graph.  Beam search beats
  the flat scan ≥5× at recall ≥0.95 once corpora reach ~10⁵ rows, and
  ``add``/``remove``/``update_rows`` splice the graph *in place* — the
  index for delta streams; with exhaustive ``ef_search`` it reproduces
  the flat scan bitwise.

``repro bench-index`` sweeps all four across recall@10, p50/p99 latency
and resident memory and gates the promised operating points in CI.

:class:`EmbeddingStore`
persists and reloads trained artifacts (so a served model never re-runs the
solver), and :class:`ServingSession` glues the two together behind an LRU
query cache.  :class:`ServingRuntime` adds the concurrent layer: a
write-ahead :class:`DeltaQueue` drained by a background applier into
double-buffered sessions (atomic snapshot swap, epoch-based reclamation)
while a :class:`BatchedQueryFront` coalesces concurrent top-k requests
into batched index queries.  :class:`ReplicatedServingTier` scales that
across processes as one log-shipped grid: the store's versioned delta
records are the replication log, one lean primary process applies writes
and appends to it, and ``n_shards × n_replicas`` worker processes tail
it — each holding the :func:`stable_shard` slice of its shard, copied
from one shared read-only memory map.  Reads ask one live replica per
shard and merge exactly (bitwise the single-index answer); heartbeats
respawn dead workers and a dead primary from the store, and
:class:`RateLimiter` admission makes write bursts degrade writes, never
reads.  ``(N, 1)`` is a sharded tier, ``(1, R)`` a replicated one.
:class:`HTTPServingFront` puts an asyncio HTTP/JSON endpoint with
per-client rate limits and read-your-writes routing on top.
The front speaks the versioned ``/v1`` API — reads *and* idempotent
delta writes (``POST /v1/submit``), bearer-token scopes, optional TLS —
:class:`MultiFrontDeployment` runs N fronts inside the replicas of a
one-shard tier, each answering reads from its own replica, behind a
balancer that hands each connection to one of them, and
:class:`ServingClient` is the stdlib client with retries, resubmission
ids and automatic read-your-writes floors.
"""

from repro.serving.cache import CacheStats, LRUCache
from repro.serving.client import (
    ServingAPIError,
    ServingClient,
    TransientServingError,
)
from repro.serving.http import HTTPFrontStats, HTTPServingFront
from repro.serving.index import FlatIndex, IVFIndex, VectorIndex, topk_descending
from repro.serving.multifront import MultiFrontDeployment
from repro.serving.nsw import NOT_INSERTED, NSWIndex
from repro.serving.pq import PQIndex
from repro.serving.replicated import (
    ReplicatedServingTier,
    ReplicatedTierStats,
    ship_snapshot,
    stable_shard,
)
from repro.serving.runtime import (
    BatchedQueryFront,
    DeltaQueue,
    EpochRegistry,
    FrontStats,
    QueueStats,
    RateLimiter,
    RuntimeStats,
    ServingRuntime,
    UpdateTicket,
)
from repro.serving.session import ServingSession, UpdateStats, default_index_factory
from repro.serving.store import (
    DeltaRecord,
    EmbeddingStore,
    KIND_EMBEDDING_SET,
    KIND_EMBEDDING_SUITE,
    KIND_RETRO_RESULT,
    STORE_FORMAT,
    STORE_VERSION,
    extraction_from_dict,
    extraction_to_dict,
)

__all__ = [
    "KIND_EMBEDDING_SET",
    "KIND_EMBEDDING_SUITE",
    "KIND_RETRO_RESULT",
    "CacheStats",
    "LRUCache",
    "VectorIndex",
    "FlatIndex",
    "IVFIndex",
    "PQIndex",
    "NSWIndex",
    "NOT_INSERTED",
    "topk_descending",
    "ServingSession",
    "UpdateStats",
    "default_index_factory",
    "BatchedQueryFront",
    "DeltaQueue",
    "EpochRegistry",
    "FrontStats",
    "QueueStats",
    "RateLimiter",
    "RuntimeStats",
    "ServingRuntime",
    "UpdateTicket",
    "stable_shard",
    "ReplicatedServingTier",
    "ReplicatedTierStats",
    "ship_snapshot",
    "HTTPServingFront",
    "HTTPFrontStats",
    "MultiFrontDeployment",
    "ServingClient",
    "ServingAPIError",
    "TransientServingError",
    "DeltaRecord",
    "EmbeddingStore",
    "STORE_FORMAT",
    "STORE_VERSION",
    "extraction_to_dict",
    "extraction_from_dict",
]
