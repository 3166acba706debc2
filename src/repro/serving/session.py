"""The serving facade: store + per-category indexes + query cache.

A :class:`ServingSession` answers "query an already-trained RETRO model"
requests without touching the solver:

* it is constructed from an in-memory :class:`TextValueEmbeddingSet` or
  straight :meth:`from_store` (reloading a persisted pipeline run),
* it lazily builds one :class:`VectorIndex` per queried scope (the whole
  extraction, or one category) and keeps them for the session's lifetime,
* single top-k lookups go through an LRU cache keyed on the raw query
  bytes *plus the embedding-set version*, batched lookups go straight to
  the index's batch kernel,
* :meth:`apply_update` folds an incremental retrofit
  (:class:`repro.retrofit.incremental.IncrementalUpdateResult`) into the
  live session: vectors are swapped atomically, the full-scope index is
  updated in place (added/removed/changed rows — an IVF index keeps its
  trained centroids) and only the LRU entries whose scope the delta
  touched are invalidated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.errors import ExtractionError, ServingError
from repro.retrofit.combine import TextValueEmbeddingSet
from repro.serving.cache import CacheStats, LRUCache
from repro.serving.index import FlatIndex, IVFIndex, VectorIndex
from repro.serving.nsw import NOT_INSERTED, NSWIndex
from repro.serving.pq import PQIndex
from repro.serving.store import EmbeddingStore

IndexFactory = Callable[[np.ndarray], VectorIndex]

#: Build an IVF index for scopes of at least this many vectors, a flat
#: index below (brute force beats cell bookkeeping on small scopes).
DEFAULT_IVF_THRESHOLD = 4096


def default_index_factory(
    metric: str = "cosine",
    ivf_threshold: int = DEFAULT_IVF_THRESHOLD,
    nprobe: int = 8,
) -> IndexFactory:
    """The standard adaptive factory: flat for small scopes, IVF for large."""

    def build(matrix: np.ndarray) -> VectorIndex:
        if matrix.shape[0] >= ivf_threshold:
            return IVFIndex(matrix, metric=metric, nprobe=nprobe)
        return FlatIndex(matrix, metric=metric)

    return build


def index_factory_for(
    kind: str, metric: str = "cosine", **params
) -> IndexFactory:
    """An :data:`IndexFactory` by index name.

    ``kind`` is ``"auto"`` (the adaptive default factory), ``"flat"``,
    ``"ivf"``, ``"pq"`` or ``"nsw"``; ``params`` are forwarded to the
    index constructor.  This is how configuration surfaces (the sharded
    tier's ``index_kind``, the bench harness) name an index without
    importing every class.
    """
    if kind == "auto":
        return default_index_factory(metric=metric, **params)
    classes: dict[str, type[VectorIndex]] = {
        "flat": FlatIndex,
        "ivf": IVFIndex,
        "pq": PQIndex,
        "nsw": NSWIndex,
    }
    if kind not in classes:
        raise ServingError(
            f"unknown index kind {kind!r}; pick one of "
            f"auto/{'/'.join(classes)}"
        )
    cls = classes[kind]

    def build(matrix: np.ndarray) -> VectorIndex:
        return cls(matrix, metric=metric, **params)

    return build


@dataclass(frozen=True)
class UpdateStats:
    """What one :meth:`ServingSession.apply_update` actually did."""

    rows_added: int
    rows_removed: int
    rows_changed: int
    index_updated_in_place: bool
    cache_entries_dropped: int
    cache_entries_kept: int


class ServingSession:
    """Batched top-k similarity serving over one embedding set."""

    def __init__(
        self,
        embeddings: TextValueEmbeddingSet,
        index_factory: IndexFactory | None = None,
        cache_size: int = 1024,
        thread_safe_cache: bool = False,
    ) -> None:
        self.embeddings = embeddings
        #: Monotonically increasing embedding-set version.  Part of every
        #: cache key, so results computed against older vectors can never
        #: be served after an update or a reload swapped the matrix.
        self.version = 0
        self._index_factory = index_factory
        self._indexes: dict[str | None, VectorIndex] = {}
        self._scope_rows: dict[str | None, Sequence[int]] = {}
        #: Every scope this session has ever served; survives updates so
        #: :meth:`settle_indexes` can pre-build exactly the hot scopes.
        self._warm_scopes: set[str | None] = {None}
        self._cache = (
            LRUCache(cache_size, thread_safe=thread_safe_cache)
            if cache_size > 0
            else None
        )
        self._indexed_matrix: np.ndarray | None = embeddings.matrix

    # ------------------------------------------------------------------ #
    # construction from disk
    # ------------------------------------------------------------------ #
    @classmethod
    def from_store(
        cls,
        path: str | Path,
        name: str = "result",
        index_factory: IndexFactory | None = None,
        cache_size: int = 1024,
    ) -> "ServingSession":
        """Open a session over a persisted pipeline result or embedding set.

        ``path`` is an :class:`EmbeddingStore` directory; ``name`` the
        artifact.  A ``retro_result`` artifact serves its retrofitted
        embeddings, an ``embedding_set`` artifact is served as-is.  If the
        artifact carries a persisted index (see :meth:`save`), the
        full-scope index is restored from its stored k-means state instead
        of being retrained on first query.
        """
        store = EmbeddingStore(path)
        kind = store.artifact_kind(name)
        index = None
        version = 0
        if kind == "retro_result":
            embeddings = store.load_result(name).embeddings
        else:
            embeddings, index, version = store.load_embedding_set_versioned(name)
        session = cls(embeddings, index_factory=index_factory, cache_size=cache_size)
        session.version = version
        if index is not None:
            session._indexed_matrix = embeddings.matrix
            session._scope_rows[None] = embeddings.scope_rows(None)
            session._indexes[None] = index
        return session

    def save(self, path: str | Path, name: str, include_index: bool = True) -> Path:
        """Persist the served embeddings (and the full-scope index state).

        With ``include_index`` the session's ``category=None`` index is
        built (if it was not already) and stored alongside the vectors, so
        a later :meth:`from_store` skips index construction — for an IVF
        index that means skipping the whole k-means training pass.
        """
        store = EmbeddingStore(path)
        index = self.index_for(None) if include_index else None
        if index is not None and index.n_rows != len(self.embeddings):
            index = self._compacted_index(index)
        return store.save_embedding_set(
            name, self.embeddings, index=index, version=self.version
        )

    def _compacted_index(self, index: VectorIndex) -> VectorIndex:
        """A tombstone-free copy of an in-place-updated full-scope index.

        Persisted indexes must span exactly the embedding matrix.  Trained
        or incrementally built state survives: IVF/PQ keep their centroids
        and codebooks (assignments and codes carried through the session's
        row map — no k-means runs), an NSW graph keeps its links with row
        ids rewritten; rows the compaction orphans are re-linked in place.
        """
        rows_map = np.asarray(self._scope_rows[None], dtype=np.int64)
        live = rows_map >= 0
        if isinstance(index, IVFIndex):
            assignments = np.full(len(self.embeddings), -1, dtype=np.int64)
            assignments[rows_map[live]] = index.assignments[live]
            return IVFIndex.from_partial_state(
                self.embeddings.matrix,
                index.centroids,
                assignments,
                metric=index.metric,
                nprobe=index.nprobe,
            )
        if isinstance(index, PQIndex):
            assignments = np.full(len(self.embeddings), -1, dtype=np.int64)
            assignments[rows_map[live]] = index.assignments[live]
            codes = np.zeros(
                (len(self.embeddings), index.n_subspaces), dtype=np.uint8
            )
            codes[rows_map[live]] = index.codes[live]
            return PQIndex.from_partial_state(
                self.embeddings.matrix,
                index.codebooks,
                index.centroids,
                assignments,
                codes,
                metric=index.metric,
                nprobe=index.nprobe,
                rerank=index.rerank,
            )
        if isinstance(index, NSWIndex):
            old = index.adjacency
            # rewrite link targets through the row map; links to removed
            # rows drop to -1 (padding)
            values = np.where(old >= 0, rows_map[np.clip(old, 0, None)], -1)
            adjacency = np.full(
                (len(self.embeddings), old.shape[1]), -1, dtype=np.int64
            )
            adjacency[rows_map[live]] = values[live]
            # a live row whose every link pointed at removed rows would be
            # stranded (unreachable by the walk) — flag it for re-insertion
            stranded = np.all(adjacency < 0, axis=1)
            adjacency[stranded, 0] = NOT_INSERTED
            entry = index.entry_point
            entry = int(rows_map[entry]) if entry >= 0 else -1
            return NSWIndex.from_partial_state(
                self.embeddings.matrix,
                adjacency,
                entry,
                metric=index.metric,
                max_degree=index.max_degree,
                ef_construction=index.ef_construction,
                ef_search=index.ef_search,
            )
        return FlatIndex(self.embeddings.matrix, metric=index.metric)

    # ------------------------------------------------------------------ #
    # vocabulary access
    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        """Dimensionality of the served vectors."""
        return self.embeddings.dimension

    @property
    def categories(self) -> list[str]:
        """All servable categories (qualified column names)."""
        return list(self.embeddings.extraction.categories)

    def vector_for(self, category: str, text: str) -> np.ndarray:
        """The served vector of ``text`` within ``category``."""
        return self.embeddings.vector_for(category, text)

    # ------------------------------------------------------------------ #
    # index management
    # ------------------------------------------------------------------ #
    def _sync_matrix(self) -> None:
        """Drop indexes and cached results if the served matrix was
        reassigned (mirrors :meth:`TextValueEmbeddingSet.index_for`;
        in-place element mutation is not detected).  The version bump
        makes any straggler cache key from the old matrix unreachable."""
        if self._indexed_matrix is not self.embeddings.matrix:
            self._indexes.clear()
            self._scope_rows.clear()
            if self._cache is not None:
                self._cache.clear()
            self._indexed_matrix = self.embeddings.matrix
            self.version += 1

    def index_for(self, category: str | None = None) -> VectorIndex:
        """The (lazily built) index of one scope; ``None`` = all values.

        Scope membership comes from
        :meth:`TextValueEmbeddingSet.scope_rows`.  Without a custom
        factory, small scopes reuse the flat index cached on the embedding
        set itself (one shared index per scope instead of two) and only
        scopes of at least :data:`DEFAULT_IVF_THRESHOLD` rows get a
        session-owned IVF index.
        """
        self._sync_matrix()
        self._warm_scopes.add(category)
        if category not in self._indexes:
            rows = self.embeddings.scope_rows(category)
            self._scope_rows[category] = rows
            matrix = self.embeddings.matrix
            scope_matrix = matrix if category is None else matrix[rows]
            if self._index_factory is not None:
                index = self._index_factory(scope_matrix)
            elif len(rows) >= DEFAULT_IVF_THRESHOLD:
                # same policy object users get from default_index_factory(),
                # so IVF parameters are defined in exactly one place
                index = default_index_factory()(scope_matrix)
            else:
                index = self.embeddings.index_for(category)
            self._indexes[category] = index
        return self._indexes[category]

    def settle_indexes(self) -> None:
        """Finish every deferred index mutation before queries arrive.

        Builds the index of every scope this session has ever served
        (updates drop category-scope indexes, so without this the next
        query would rebuild them) and runs any pending lazy IVF
        re-clustering now.  The concurrent runtime calls this on the
        writer thread before publishing a snapshot, so reader threads
        never trigger index construction or a k-means pass from the
        (lock-free) query path — only the first-ever query of a brand-new
        scope still builds inline.  Scopes that ceased to exist (all of a
        category's values removed) fall out of the warm set.
        """
        for scope in sorted(
            self._warm_scopes, key=lambda s: (s is not None, s or "")
        ):
            try:
                index = self.index_for(scope)
            except ExtractionError:
                self._warm_scopes.discard(scope)
                continue
            if isinstance(index, IVFIndex) and index.needs_recluster:
                index.rebalance()

    # ------------------------------------------------------------------ #
    # live updates
    # ------------------------------------------------------------------ #
    def apply_update(self, update) -> UpdateStats:
        """Fold an incremental retrofit into the live session, atomically.

        ``update`` is an
        :class:`repro.retrofit.incremental.IncrementalUpdateResult` whose
        embeddings continue this session's current set.  The full-scope
        index is updated in place — removed rows are tombstoned, changed
        rows swapped, new rows appended (an IVF index assigns them to its
        existing centroids and only re-clusters lazily when imbalance
        demands it).  Category-scope indexes are dropped and rebuilt
        lazily (they are cheap flat indexes).  Cached results whose scope
        the delta did not touch survive, re-keyed to the new version;
        everything else is invalidated.

        All fallible work happens before the first visible mutation, so a
        validation error leaves the session serving the pre-update state.
        """
        new_embeddings = update.embeddings
        if new_embeddings.dimension != self.dimension:
            raise ServingError(
                "update changes the embedding dimension "
                f"({self.dimension} -> {new_embeddings.dimension})"
            )
        delta_map = update.delta_map
        if delta_map is None:
            # legacy update without index mapping: full swap, lazy rebuilds
            self.embeddings = new_embeddings
            self._indexes.clear()
            self._scope_rows.clear()
            dropped = 0
            if self._cache is not None:
                dropped = len(self._cache)
                self._cache.clear()
            self._indexed_matrix = new_embeddings.matrix
            self.version += 1
            return UpdateStats(
                rows_added=len(update.new_indices),
                rows_removed=0,
                rows_changed=len(update.new_indices),
                index_updated_in_place=False,
                cache_entries_dropped=dropped,
                cache_entries_kept=0,
            )

        old_to_new = delta_map.old_to_new
        added = np.asarray(delta_map.added_indices, dtype=np.int64)
        changed = (
            np.asarray(update.changed_rows, dtype=np.int64)
            if update.changed_rows is not None
            else added
        )
        changed_survivors = np.setdiff1d(changed, added)

        in_place = False
        index = self._indexes.get(None)
        if index is not None and index is self.embeddings.cached_index(None):
            # the full-scope index is shared with the embedding set (small
            # scope, flat) — never mutate it under the old set's feet, a
            # fresh flat build is cheap
            self._indexes.pop(None)
            self._scope_rows.pop(None, None)
            index = None
        if index is not None:
            # map index rows (ids never shrink) onto the new record numbering
            old_rows = np.asarray(self._scope_rows[None], dtype=np.int64)
            new_rows = np.full(old_rows.shape, -1, dtype=np.int64)
            live = old_rows >= 0
            new_rows[live] = old_to_new[old_rows[live]]
            removed_positions = np.nonzero(live & (new_rows < 0))[0]

            # positions of surviving records, for the changed-row swap
            position_of_new = np.full(len(new_embeddings), -1, dtype=np.int64)
            position_of_new[new_rows[new_rows >= 0]] = np.nonzero(new_rows >= 0)[0]
            changed_positions = position_of_new[changed_survivors]
            if changed_positions.size and (changed_positions < 0).any():
                raise ServingError(
                    "update references rows the serving index does not hold"
                )

            if removed_positions.size:
                index.remove(removed_positions)
            if changed_positions.size:
                index.update_rows(
                    changed_positions, new_embeddings.matrix[changed_survivors]
                )
            if added.size:
                added_positions = index.add(new_embeddings.matrix[added])
                grown = np.full(index.n_rows, -1, dtype=np.int64)
                grown[: new_rows.size] = new_rows
                grown[added_positions] = added
                new_rows = grown
            self._scope_rows[None] = new_rows
            in_place = True

        # category scopes are cheap flat indexes: drop, rebuild on demand
        for scope in [s for s in self._indexes if s is not None]:
            del self._indexes[scope]
            self._scope_rows.pop(scope, None)

        # selective cache invalidation: a cached result survives only when
        # its scope is a category the delta never touched.  Without an
        # extraction delta the touched scopes are unknown, so nothing may
        # survive (a delete-only update would otherwise keep serving the
        # removed rows' cached neighbours).
        scopes_known = update.extraction_delta is not None
        affected = set(
            update.extraction_delta.touched_categories() if scopes_known else ()
        )
        records = new_embeddings.extraction.records
        for row in changed:
            affected.add(records[int(row)].category)
        # values the delta removed, in the (still current) old indexing:
        # even a kept entry must not reference a value that no longer exists
        old_records = self.embeddings.extraction.records
        removed_values = {
            (old_records[int(row)].category, old_records[int(row)].text)
            for row in delta_map.removed_indices
        }
        dropped = kept = 0
        if self._cache is not None:
            next_version = self.version + 1
            for key, value in self._cache.items():
                self._cache.pop(key)
                _, category, k, payload = key
                if category is None or not scopes_known or category in affected:
                    dropped += 1
                    continue
                if removed_values and any(
                    (hit_category, hit_text) in removed_values
                    for hit_category, hit_text, _ in value
                ):
                    dropped += 1
                    continue
                self._cache.put((next_version, category, k, payload), value)
                kept += 1

        self.embeddings = new_embeddings
        self._indexed_matrix = new_embeddings.matrix
        self.version += 1
        return UpdateStats(
            rows_added=int(added.size),
            rows_removed=delta_map.n_removed,
            rows_changed=int(changed_survivors.size),
            index_updated_in_place=in_place,
            cache_entries_dropped=dropped,
            cache_entries_kept=kept,
        )

    def _decorate(
        self, category: str | None, indices: np.ndarray, scores: np.ndarray
    ) -> list[tuple[str, str, float]]:
        records = self.embeddings.extraction.records
        rows = self._scope_rows[category]
        results: list[tuple[str, str, float]] = []
        for position, score in zip(indices.tolist(), scores.tolist()):
            if position < 0 or not math.isfinite(score):
                continue
            record_index = rows[position]
            if record_index < 0:
                continue  # index row whose record was removed by an update
            record = records[record_index]
            results.append((record.category, record.text, score))
        return results

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def topk(
        self, vector: np.ndarray, k: int = 10, category: str | None = None
    ) -> list[tuple[str, str, float]]:
        """The ``k`` most similar ``(category, text, score)`` triples."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dimension,):
            # validate before the cache lookup: a (1, d) matrix shares the
            # byte representation of the (d,) vector it wraps, and whether
            # it errors must not depend on cache state
            raise ServingError(
                f"query vector has shape {vector.shape}, "
                f"expected ({self.dimension},)"
            )
        self._sync_matrix()  # before the cache lookup: stale hits are wrong
        key = None
        if self._cache is not None:
            key = (self.version, category, int(k), vector.tobytes())
            cached = self._cache.get(key)
            if cached is not None:
                return list(cached)
        index = self.index_for(category)
        indices, scores = index.query(vector, k)
        results = self._decorate(category, indices, scores)
        if self._cache is not None:
            self._cache.put(key, tuple(results))
        return results

    def topk_batch(
        self,
        vectors: np.ndarray | Sequence[np.ndarray],
        k: int = 10,
        category: str | None = None,
    ) -> list[list[tuple[str, str, float]]]:
        """Batched :meth:`topk`: one result list per query row."""
        queries = np.asarray(vectors, dtype=np.float64)
        if queries.ndim != 2:
            raise ServingError("topk_batch expects a (batch, dimension) matrix")
        index = self.index_for(category)
        indices, scores = index.query_batch(queries, k)
        return [
            self._decorate(category, row_indices, row_scores)
            for row_indices, row_scores in zip(indices, scores)
        ]

    def neighbours_of(
        self, category: str, text: str, k: int = 10, within: str | None = None
    ) -> list[tuple[str, str, float]]:
        """Top-``k`` neighbours of a stored text value (excluding itself)."""
        vector = self.vector_for(category, text)
        results = self.topk(vector, k + 1, category=within)
        return [
            triple for triple in results
            if not (triple[0] == category and triple[1] == text)
        ][:k]

    @property
    def cache_stats(self) -> CacheStats | None:
        """Hit/miss counters of the query cache (``None`` when disabled)."""
        return self._cache.stats if self._cache is not None else None
