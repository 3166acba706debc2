"""Approximate and exact nearest-neighbour indexes over embedding matrices.

Every similarity lookup in the seed code base was a full ``O(n·d)`` scan
followed by a full ``argsort`` of the whole vocabulary.  This module provides
the serving-grade replacement:

* :class:`FlatIndex` — exact brute force, but vectorised over query batches
  and using ``np.argpartition`` (linear-time selection) instead of a full
  sort, so the per-query cost is ``O(n·d + n + k·log k)``.
* :class:`IVFIndex` — an inverted-file index: a spherical k-means coarse
  quantiser splits the rows into ``n_cells`` cells; a query only scores the
  rows of the ``nprobe`` cells whose centroids are most similar to it.  With
  ``nprobe == n_cells`` the search is exhaustive and returns exactly the
  :class:`FlatIndex` ranking.
* :class:`repro.serving.pq.PQIndex` — product quantisation with an optional
  IVF coarse layer (IVF-PQ): vectors are stored as packed ``uint8`` codes
  (tens of MB where the raw matrix is GBs) and scanned through per-query
  asymmetric distance tables, with exact re-ranking of a top-``R``
  shortlist from the (memory-mappable) original matrix.
* :class:`repro.serving.nsw.NSWIndex` — a navigable-small-world graph
  index, *incrementally insertable*: new vectors link into the graph by
  greedy beam search, which suits the delta pipeline far better than
  IVF's lazy re-clustering.

All implement the :class:`VectorIndex` interface with single (``query``)
and batched (``query_batch``) top-k search under cosine or dot-product
similarity.  Batched IVF search is grouped *by cell* rather than by query so
that every partial score computation is one dense matrix product.

Every family ranks its answer the same way: ``(score descending, row id
ascending)``, where the scores of the returned rows come from one fixed
row kernel (:meth:`VectorIndex._exact_scores`).  A BLAS product rounds a
row's score differently depending on the batch and the matrix it sits in,
so two identical vectors could otherwise trade places on last-ulp noise.

Which index to pick
-------------------
* **Flat** — exact, zero build cost, memory = the matrix.  Right below a
  few thousand vectors, or whenever exactness is non-negotiable.
* **IVF** — ~5–10× flat's throughput at recall ≥0.95 with the same memory
  footprint.  Right for 10⁴–10⁵ vectors with rare mutations (adds trigger
  lazy re-clustering once cells grow imbalanced).
* **PQ / IVF-PQ** — 20–60× less resident memory than flat (codes instead
  of the matrix; the raw matrix can stay on disk behind an mmap for
  re-ranking only).  Right when the corpus no longer fits the budget —
  millions of values per replica — at recall ≥0.9 with re-ranking.
* **NSW** — 5–50× flat's throughput at recall ≥0.95, ``add``/``remove``/
  ``update_rows`` are genuinely in-place graph edits (no retraining,
  ever), so it is the index of choice under a continuous delta stream.
  Costs one build pass (incremental inserts) and holds the full matrix
  plus the adjacency in memory.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ServingError

_EPSILON = 1e-12

METRICS = ("cosine", "dot")

#: Entries gathered per chunk of :meth:`VectorIndex._exact_scores`: keeps
#: its temporaries small however many queries a batch holds.
_RESCORE_CHUNK = 1 << 15


def _shortlist(scores: np.ndarray, k: int, slack) -> np.ndarray:
    """Positions of every entry within ``slack`` of its row's ``k``-th score.

    ``scores`` is ``(batch, n)`` with ``1 <= k <= n``; ``slack`` is a
    scalar or one value per row.  Returns ``(batch, m)`` positions,
    ``m >= k``, a row holding fewer than ``m`` padded with ``-1``.  One
    ``argpartition`` places the ``k`` largest entries and the next one; a
    row is scanned in full only when that next entry is itself within
    ``slack`` of the ``k``-th, i.e. when a tie straddles the boundary.
    """
    batch, n = scores.shape
    if k >= n:
        return np.broadcast_to(np.arange(n), (batch, n))
    part = np.argpartition(scores, n - k - 1, axis=1)
    top = part[:, n - k:]
    rows = np.arange(batch)
    floor = scores[rows[:, None], top].min(axis=1) - slack
    straddle = np.flatnonzero(scores[rows, part[:, n - k - 1]] >= floor)
    if not straddle.size:
        return top
    within = [np.flatnonzero(scores[row] >= floor[row]) for row in straddle]
    out = np.full((batch, max(k, max(p.size for p in within))), -1, np.int64)
    out[:, :k] = top
    for row, positions in zip(straddle, within):
        out[row] = -1
        out[row, : positions.size] = positions
    return out


def topk_descending(scores: np.ndarray, k: int, ids=None) -> np.ndarray:
    """Positions of the ``k`` largest entries per row, in descending order.

    Works on a 1-D vector (returns shape ``(k,)``) or a 2-D batch of score
    rows (returns shape ``(batch, min(k, n))``).  ``argpartition`` selects
    the top ``k`` in linear time and only those are sorted.

    Equal scores are ordered by ascending ``ids`` (an array shaped like
    ``scores``; by default the position itself) — both *within* the
    returned ordering and at the selection boundary, where the tie is
    settled only among the entries that hold the ``k``-th score.  This is
    the result of a full ``np.lexsort((ids, -scores))`` cut to ``k``:
    ``argpartition`` alone picks an arbitrary subset of boundary ties,
    which would make per-shard top-k results impossible to merge into
    exactly the single-index answer.
    """
    scores = np.asarray(scores)
    single = scores.ndim == 1
    if single:
        scores = scores[None, :]
        ids = None if ids is None else np.asarray(ids)[None, :]
    batch, n = scores.shape
    k = min(int(k), n)
    if k <= 0:
        empty = np.empty((batch, 0), dtype=np.int64)
        return empty[0] if single else empty
    positions = _shortlist(scores, k, 0.0)
    rows = np.arange(batch)[:, None]
    padding = positions < 0
    picked = np.where(padding, 0, positions)
    keys = picked if ids is None else np.asarray(ids)[rows, picked]
    values = scores[rows, picked]
    if padding.any():
        values = np.where(padding, -np.inf, values)
        keys = np.where(padding, np.iinfo(np.int64).max, keys)
    order = np.lexsort((keys, -values), axis=-1)[:, :k]
    result = np.take_along_axis(positions, order, axis=1)
    return result[0] if single else result


class VectorIndex(ABC):
    """Top-k similarity search over a ``(n_rows, dimension)`` matrix.

    Indexes are mutable: :meth:`add` appends vectors (row ids keep
    growing), :meth:`remove` tombstones rows (their ids are never handed
    out again and they stop appearing in results) and :meth:`update_rows`
    swaps vectors in place.  Mutation copies the matrix on first write, so
    an index built over an embedding set's matrix never corrupts it.

    The matrix is *not* copied at construction: a read-only array — in
    particular an :meth:`EmbeddingStore.open_matrix_readonly` memory map
    whose pages are shared across shard processes — is queried in place,
    and only the first mutating call materialises a private writable copy.
    """

    def __init__(self, matrix: np.ndarray, metric: str = "cosine") -> None:
        if metric not in METRICS:
            raise ServingError(f"unknown metric {metric!r}; expected one of {METRICS}")
        # float32 and float64 matrices are indexed as-is — upcasting a
        # float32 store artifact (or its read-only mmap) to float64 would
        # silently double the resident memory the narrow dtype was chosen
        # to halve; anything else is normalised to float64
        matrix = np.asarray(matrix)
        if matrix.dtype not in (np.float32, np.float64):
            matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ServingError("index matrix must be two-dimensional")
        self.metric = metric
        self.matrix = matrix
        self._row_norms = np.linalg.norm(matrix, axis=1)
        self._active = np.ones(matrix.shape[0], dtype=bool)
        self._owns_matrix = False

    @property
    def n_rows(self) -> int:
        """Number of row ids ever issued (tombstoned rows included)."""
        return self.matrix.shape[0]

    @property
    def active_count(self) -> int:
        """Number of searchable (non-tombstoned) vectors."""
        return int(self._active.sum())

    @property
    def has_tombstones(self) -> bool:
        """Whether any row has been removed."""
        return self.active_count != self.n_rows

    @property
    def active_rows(self) -> np.ndarray:
        """Ids of all searchable rows, ascending."""
        return np.nonzero(self._active)[0]

    @property
    def dimension(self) -> int:
        """Dimensionality of the indexed vectors."""
        return self.matrix.shape[1]

    def memory_bytes(self) -> int:
        """Resident bytes this index needs to answer queries.

        The honest Pareto metric: everything the query path touches per
        scan — for a flat index that is the full matrix plus norms.  A
        compressed index (PQ) overrides this to count its codes and
        codebooks instead of the matrix, because its scan never reads the
        raw vectors (only the re-ranking shortlist gathers a handful of
        rows, which an mmap serves from disk).
        """
        return int(
            self.matrix.nbytes + self._row_norms.nbytes + self._active.nbytes
        )

    # ------------------------------------------------------------------ #
    # mutation plumbing
    # ------------------------------------------------------------------ #
    def _ensure_owned(self) -> None:
        """Copy-on-first-write: never mutate a caller's matrix in place.

        Also the only point where a read-only (e.g. memory-mapped) matrix
        is materialised into private writable memory.
        """
        if not self._owns_matrix:
            self.matrix = np.array(self.matrix, copy=True)
            self._owns_matrix = True

    def _prepare_new_vectors(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=self.matrix.dtype)
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        if vectors.ndim != 2 or vectors.shape[1] != self.dimension:
            raise ServingError(
                f"vectors have shape {vectors.shape}, expected "
                f"(count, {self.dimension})"
            )
        return vectors

    def _append_rows(self, vectors: np.ndarray) -> np.ndarray:
        """Grow the matrix by ``vectors``; returns the new row ids."""
        self._ensure_owned()
        start = self.n_rows
        self.matrix = np.vstack((self.matrix, vectors))
        self._row_norms = np.concatenate(
            (self._row_norms, np.linalg.norm(vectors, axis=1))
        )
        self._active = np.concatenate(
            (self._active, np.ones(vectors.shape[0], dtype=bool))
        )
        return np.arange(start, self.n_rows, dtype=np.int64)

    def _validate_rows(self, rows, require_active: bool = True) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64).ravel()
        if rows.size and (rows.min() < 0 or rows.max() >= self.n_rows):
            raise ServingError(
                f"row ids outside 0..{self.n_rows - 1}"
            )
        if require_active and rows.size and not self._active[rows].all():
            raise ServingError("cannot touch a removed (tombstoned) row")
        return rows

    @abstractmethod
    def add(self, vectors: np.ndarray) -> np.ndarray:
        """Append vectors; returns their newly assigned row ids."""

    @abstractmethod
    def remove(self, rows) -> None:
        """Tombstone rows: they stop appearing in any query result."""

    @abstractmethod
    def update_rows(self, rows, vectors: np.ndarray) -> None:
        """Replace the vectors of existing rows (ids stay stable)."""

    def _prepare_queries(self, queries: np.ndarray) -> np.ndarray:
        # queries score in the matrix dtype: a mixed float32/float64
        # matmul would upcast (i.e. copy) the whole matrix per batch
        queries = np.asarray(queries, dtype=self.matrix.dtype)
        if queries.ndim != 2 or queries.shape[1] != self.dimension:
            raise ServingError(
                f"query batch has shape {queries.shape}, expected "
                f"(batch, {self.dimension})"
            )
        return queries

    def _score_rows(
        self, rows: np.ndarray, row_norms: np.ndarray, queries: np.ndarray
    ) -> np.ndarray:
        """Similarity of every row against every query, shape ``(rows, batch)``.

        The cosine denominator follows the historical
        :meth:`TextValueEmbeddingSet.nearest` formula: any denominator
        below epsilon is clamped, so degenerate rows (zero or
        numerically-vanishing norm, e.g. near-cancellation during solving)
        score ~0 instead of having their noise direction rank at the top.
        """
        return self._normalise((rows @ queries.T).T, row_norms, queries).T

    def _normalise(
        self, products: np.ndarray, row_norms: np.ndarray, queries: np.ndarray
    ) -> np.ndarray:
        """Turn ``(batch, m)`` products into scores, in place for cosine.

        ``row_norms`` is ``(m,)`` or one row per query; the clamp is the
        one :meth:`_score_rows` documents.
        """
        if self.metric == "dot":
            return products
        query_norms = np.linalg.norm(queries, axis=1)
        denom = row_norms * (query_norms[:, None] + _EPSILON)
        denom[denom < _EPSILON] = _EPSILON
        products /= denom
        return products

    def _exact_scores(self, queries: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Score of row ``ids[b, j]`` against ``queries[b]``, shape of ``ids``.

        One fixed row kernel: an elementwise product summed along the row,
        whose rounding depends on the two vectors alone — unlike a BLAS
        product's, which depends on the shape of the batch and of the
        matrix around the row.  So identical vectors score identically in
        every index, shard and batch, and their tie breaks by id.
        """
        products = np.empty(ids.shape, dtype=self.matrix.dtype)
        step = max(1, _RESCORE_CHUNK // max(1, ids.shape[1] * self.dimension))
        for start in range(0, ids.shape[0], step):
            chunk = slice(start, start + step)
            products[chunk] = np.sum(
                self.matrix[ids[chunk]] * queries[chunk, None, :], axis=2
            )
        return self._normalise(products, self._row_norms[ids], queries)

    def _rounding_slack(self, queries: np.ndarray):
        """How far a BLAS score may sit from :meth:`_exact_scores`'s, per query.

        Any summation order computes a length-``d`` dot product within
        ``γ_d·‖r‖·‖q‖`` of its exact value, ``γ_d ≈ d·u`` (Higham,
        *Accuracy and Stability of Numerical Algorithms*, §3.1); a cosine
        divides that by about ``‖r‖·‖q‖``.  Two kernels differ by twice
        that at most; the margin below also covers the division.
        """
        gamma = 4.0 * (self.dimension + 2) * float(np.finfo(self.matrix.dtype).eps)
        if self.metric == "cosine" or self.n_rows == 0:
            return gamma
        return gamma * np.linalg.norm(queries, axis=1) * float(self._row_norms.max())

    def _select(
        self,
        queries: np.ndarray,
        scores: np.ndarray,
        k: int,
        ids: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The top ``k`` of BLAS-scored candidates, ranked by the row kernel.

        ``scores`` is ``(batch, width)`` with ``-inf`` for padding or
        tombstones, ``ids`` the row id of each candidate (default: its
        position).  Every candidate within :meth:`_rounding_slack` of the
        ``k``-th score is re-scored by :meth:`_exact_scores` and the
        answer is ordered by ``(score descending, id ascending)``; a
        slot past the reachable candidates holds ``-1`` / ``-inf``.
        """
        batch, width = scores.shape
        k = min(int(k), width)
        if k <= 0:
            return (
                np.empty((batch, 0), dtype=np.int64),
                np.empty((batch, 0), dtype=np.float64),
            )
        positions = _shortlist(scores, k, self._rounding_slack(queries))
        rows = np.arange(batch)[:, None]
        picked = np.where(positions < 0, 0, positions)
        live = (positions >= 0) & np.isfinite(scores[rows, picked])
        candidates = np.where(
            live, picked if ids is None else ids[rows, picked], 0
        )
        exact = self._exact_scores(queries, candidates).astype(np.float64)
        exact[~live] = -np.inf
        # a dead slot carries the largest id, so it ranks after every live one
        order = topk_descending(
            exact, k, ids=np.where(live, candidates, np.iinfo(np.int64).max)
        )
        top_ids = np.take_along_axis(candidates, order, axis=1)
        top_scores = np.take_along_axis(exact, order, axis=1)
        top_ids[~np.isfinite(top_scores)] = -1
        return top_ids, top_scores

    def query(self, vector: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` row indices and scores for one query vector."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dimension,):
            raise ServingError(
                f"query vector has shape {vector.shape}, "
                f"expected ({self.dimension},)"
            )
        indices, scores = self.query_batch(vector[None, :], k)
        return indices[0], scores[0]

    @abstractmethod
    def query_batch(
        self, queries: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` search for a ``(batch, dimension)`` matrix of queries.

        Returns ``(indices, scores)`` arrays of shape ``(batch, k')`` with
        ``k' = min(k, reachable rows)``, each row sorted by descending
        score: asking for more neighbours than the index holds yields
        fewer columns, never fill values.  Only the IVF index pads — a row
        whose probed cells hold fewer candidates than another row's gets a
        tail of index ``-1`` / score ``-inf`` so the batch stays
        rectangular.
        """


class FlatIndex(VectorIndex):
    """Exact brute-force search, vectorised over the query batch."""

    def query_batch(
        self, queries: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        queries = self._prepare_queries(queries)
        scores = self._normalise(
            queries @ self.matrix.T, self._row_norms, queries
        )
        if self.has_tombstones:
            # a tombstoned row can only surface when k exceeds the number
            # of active rows; it comes back as -1 like the IVF padding
            scores[:, ~self._active] = -np.inf
        return self._select(queries, scores, k)

    def add(self, vectors: np.ndarray) -> np.ndarray:
        return self._append_rows(self._prepare_new_vectors(vectors))

    def remove(self, rows) -> None:
        rows = self._validate_rows(rows, require_active=False)
        self._active[rows] = False

    def update_rows(self, rows, vectors: np.ndarray) -> None:
        rows = self._validate_rows(rows)
        vectors = self._prepare_new_vectors(vectors)
        if vectors.shape[0] != rows.size:
            raise ServingError("update needs one vector per row id")
        self._ensure_owned()
        self.matrix[rows] = vectors
        self._row_norms[rows] = np.linalg.norm(vectors, axis=1)


class IVFIndex(VectorIndex):
    """Inverted-file index with a spherical k-means coarse quantiser.

    Parameters
    ----------
    matrix:
        The vectors to index.
    metric:
        ``"cosine"`` or ``"dot"``.  The coarse quantiser always clusters by
        direction (unit-normalised rows), which is exact for cosine and a
        reasonable partition for dot product; ``nprobe == n_cells`` is
        always exhaustive and therefore exact for both metrics.
    n_cells:
        Number of k-means cells; defaults to ``round(sqrt(n_rows))``.
    nprobe:
        Number of cells searched per query.
    train_iterations:
        Lloyd iterations of the k-means training pass.
    seed:
        Seed of the k-means initialisation.
    """

    #: ``imbalance()`` level beyond which the next query re-runs k-means.
    DEFAULT_RECLUSTER_THRESHOLD = 4.0

    def __init__(
        self,
        matrix: np.ndarray,
        metric: str = "cosine",
        n_cells: int | None = None,
        nprobe: int = 8,
        train_iterations: int = 10,
        seed: int = 0,
        recluster_threshold: float = DEFAULT_RECLUSTER_THRESHOLD,
    ) -> None:
        super().__init__(matrix, metric)
        if self.n_rows == 0:
            raise ServingError("cannot build an IVF index over an empty matrix")
        if n_cells is None:
            n_cells = max(1, int(round(np.sqrt(self.n_rows))))
        if n_cells <= 0:
            raise ServingError("n_cells must be positive")
        if nprobe <= 0:
            raise ServingError("nprobe must be positive")
        self.n_cells = min(int(n_cells), self.n_rows)
        self.nprobe = int(nprobe)
        self.recluster_threshold = float(recluster_threshold)
        self._train_iterations = int(train_iterations)
        self._seed = int(seed)
        self._needs_recluster = False
        self._reclusters = 0
        self._train(int(train_iterations), int(seed))

    # ------------------------------------------------------------------ #
    # build
    # ------------------------------------------------------------------ #
    def _train(self, iterations: int, seed: int) -> None:
        rng = np.random.default_rng(seed)
        safe_norms = np.where(self._row_norms < _EPSILON, 1.0, self._row_norms)
        unit = self.matrix / safe_norms[:, None]

        chosen = rng.choice(self.n_rows, size=self.n_cells, replace=False)
        centroids = unit[chosen].copy()
        for _ in range(max(1, iterations)):
            assignment = np.argmax(unit @ centroids.T, axis=1)
            for cell in range(self.n_cells):
                members = np.nonzero(assignment == cell)[0]
                if members.size == 0:
                    # re-seed an empty cell on a random row to keep all
                    # cells usable
                    centroids[cell] = unit[int(rng.integers(self.n_rows))]
                    continue
                mean = unit[members].mean(axis=0)
                norm = np.linalg.norm(mean)
                centroids[cell] = mean / norm if norm > _EPSILON else mean
        # one final assignment against the finished centroids, so probing
        # and stored cell membership agree
        assignment = np.argmax(unit @ centroids.T, axis=1)
        self.centroids = centroids
        self._finalise(assignment)

    def _finalise(self, assignment: np.ndarray) -> None:
        """Build the per-cell search structures from a row→cell assignment."""
        self._assignment = np.asarray(assignment, dtype=np.int64)
        # contiguous per-cell copies: every probe becomes one dense matmul
        self._cell_ids: list[np.ndarray] = []
        self._cell_matrices: list[np.ndarray] = []
        self._cell_norms: list[np.ndarray] = []
        for cell in range(self.n_cells):
            members = np.nonzero(self._assignment == cell)[0].astype(np.int64)
            self._cell_ids.append(members)
            self._cell_matrices.append(np.ascontiguousarray(self.matrix[members]))
            self._cell_norms.append(self._row_norms[members])
        self._empty_cells = np.array(
            [ids.size == 0 for ids in self._cell_ids], dtype=bool
        )

    @property
    def assignments(self) -> np.ndarray:
        """The trained row→cell assignment, shape ``(n_rows,)``.

        Together with :attr:`centroids` this is the complete trained state:
        :meth:`from_state` rebuilds an identical index without re-running
        k-means (the basis of on-disk index persistence).
        """
        return self._assignment

    @classmethod
    def from_state(
        cls,
        matrix: np.ndarray,
        centroids: np.ndarray,
        assignments: np.ndarray,
        metric: str = "cosine",
        nprobe: int = 8,
    ) -> "IVFIndex":
        """Rebuild an index from persisted ``centroids`` + ``assignments``.

        Skips the k-means training pass entirely; the reconstructed index
        answers every query exactly like the one that was saved.
        """
        index = cls.__new__(cls)
        VectorIndex.__init__(index, matrix, metric)
        if index.n_rows == 0:
            raise ServingError("cannot restore an IVF index over an empty matrix")
        centroids = np.asarray(centroids, dtype=np.float64)
        assignments = np.asarray(assignments, dtype=np.int64)
        if centroids.ndim != 2 or centroids.shape[1] != index.dimension:
            raise ServingError(
                f"centroids have shape {centroids.shape}, expected "
                f"(n_cells, {index.dimension})"
            )
        if centroids.shape[0] == 0:
            raise ServingError("restored index needs at least one centroid")
        if assignments.shape != (index.n_rows,):
            raise ServingError(
                f"assignments have shape {assignments.shape}, expected "
                f"({index.n_rows},)"
            )
        if assignments.size and (
            assignments.min() < 0 or assignments.max() >= centroids.shape[0]
        ):
            raise ServingError(
                "assignments reference cells outside "
                f"0..{centroids.shape[0] - 1}"
            )
        if nprobe <= 0:
            raise ServingError("nprobe must be positive")
        index.n_cells = int(centroids.shape[0])
        index.nprobe = int(nprobe)
        index.recluster_threshold = cls.DEFAULT_RECLUSTER_THRESHOLD
        index._train_iterations = 10
        index._seed = 0
        index._needs_recluster = False
        index._reclusters = 0
        index.centroids = centroids
        index._finalise(assignments)
        return index

    @classmethod
    def from_partial_state(
        cls,
        matrix: np.ndarray,
        centroids: np.ndarray,
        assignments: np.ndarray,
        metric: str = "cosine",
        nprobe: int = 8,
    ) -> "IVFIndex":
        """Rebuild from persisted state where some rows lack an assignment.

        Rows whose assignment is ``-1`` (e.g. appended by a delta record
        after the index was saved) are assigned to their nearest centroid —
        the whole k-means training pass is still skipped.  The matrix keeps
        its dtype, as in :meth:`from_state`.
        """
        assignments = np.asarray(assignments, dtype=np.int64).copy()
        centroids = np.asarray(centroids, dtype=np.float64)
        matrix = np.asarray(matrix)
        missing = np.nonzero(assignments < 0)[0]
        if missing.size:
            if centroids.ndim != 2 or centroids.shape[1] != matrix.shape[1]:
                raise ServingError(
                    f"centroids have shape {centroids.shape}, expected "
                    f"(n_cells, {matrix.shape[1]})"
                )
            vectors = matrix[missing]
            norms = np.linalg.norm(vectors, axis=1)
            safe = np.where(norms < _EPSILON, 1.0, norms)
            assignments[missing] = np.argmax(
                (vectors / safe[:, None]) @ centroids.T, axis=1
            )
        return cls.from_state(
            matrix, centroids, assignments, metric=metric, nprobe=nprobe
        )

    def cell_sizes(self) -> list[int]:
        """Number of vectors stored in each cell."""
        return [ids.size for ids in self._cell_ids]

    def memory_bytes(self) -> int:
        """Matrix + norms + centroids + the contiguous per-cell copies."""
        return super().memory_bytes() + int(
            self.centroids.nbytes
            + self._assignment.nbytes
            + sum(m.nbytes for m in self._cell_matrices)
            + sum(ids.nbytes for ids in self._cell_ids)
            + sum(norms.nbytes for norms in self._cell_norms)
        )

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def imbalance(self) -> float:
        """``max cell size / mean active cell load`` (1.0 = perfectly even)."""
        active = self.active_count
        if active == 0:
            return 1.0
        largest = max(ids.size for ids in self._cell_ids)
        return largest / (active / self.n_cells)

    @property
    def needs_recluster(self) -> bool:
        """Whether the next query will re-run the coarse quantiser."""
        return self._needs_recluster

    @property
    def recluster_count(self) -> int:
        """How many times the quantiser has been lazily retrained."""
        return self._reclusters

    def _note_mutation(self) -> None:
        if self.imbalance() > self.recluster_threshold:
            self._needs_recluster = True

    def _cell_append(self, cell: int, rows: np.ndarray) -> None:
        self._cell_ids[cell] = np.concatenate((self._cell_ids[cell], rows))
        self._cell_matrices[cell] = np.vstack(
            (self._cell_matrices[cell], self.matrix[rows])
        )
        self._cell_norms[cell] = np.concatenate(
            (self._cell_norms[cell], self._row_norms[rows])
        )
        self._empty_cells[cell] = False

    def _cell_discard(self, rows: np.ndarray) -> None:
        for cell in np.unique(self._assignment[rows]):
            if cell < 0:
                continue
            keep = ~np.isin(self._cell_ids[cell], rows)
            self._cell_ids[cell] = self._cell_ids[cell][keep]
            self._cell_matrices[cell] = self._cell_matrices[cell][keep]
            self._cell_norms[cell] = self._cell_norms[cell][keep]
            self._empty_cells[cell] = self._cell_ids[cell].size == 0

    def _assign_to_cells(self, vectors: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(vectors, axis=1)
        safe = np.where(norms < _EPSILON, 1.0, norms)
        return np.argmax((vectors / safe[:, None]) @ self.centroids.T, axis=1)

    def add(self, vectors: np.ndarray) -> np.ndarray:
        """Append vectors, assigning each to its nearest centroid.

        No re-training happens on the spot; when the accumulated inserts
        leave the cells imbalanced past :attr:`recluster_threshold`, the
        next query lazily re-runs the coarse quantiser.
        """
        vectors = self._prepare_new_vectors(vectors)
        ids = self._append_rows(vectors)
        assigned = self._assign_to_cells(vectors)
        self._assignment = np.concatenate((self._assignment, assigned))
        for cell in np.unique(assigned):
            self._cell_append(int(cell), ids[assigned == cell])
        self._note_mutation()
        return ids

    def remove(self, rows) -> None:
        rows = self._validate_rows(rows, require_active=False)
        rows = rows[self._active[rows]]
        if not rows.size:
            return
        self._active[rows] = False
        self._cell_discard(rows)
        self._assignment[rows] = -1
        self._note_mutation()

    def update_rows(self, rows, vectors: np.ndarray) -> None:
        """Swap vectors in place; rows migrate to their nearest centroid."""
        rows = self._validate_rows(rows)
        vectors = self._prepare_new_vectors(vectors)
        if vectors.shape[0] != rows.size:
            raise ServingError("update needs one vector per row id")
        self._ensure_owned()
        self._cell_discard(rows)
        self.matrix[rows] = vectors
        self._row_norms[rows] = np.linalg.norm(vectors, axis=1)
        assigned = self._assign_to_cells(vectors)
        self._assignment[rows] = assigned
        for cell in np.unique(assigned):
            self._cell_append(int(cell), rows[assigned == cell])
        self._note_mutation()

    def rebalance(self) -> None:
        """Re-run the spherical k-means quantiser over the active rows."""
        rows = self.active_rows
        if rows.size == 0:
            self._needs_recluster = False
            return
        rng = np.random.default_rng(self._seed + self._reclusters + 1)
        norms = self._row_norms[rows]
        safe = np.where(norms < _EPSILON, 1.0, norms)
        unit = self.matrix[rows] / safe[:, None]
        n_cells = min(self.n_cells, rows.size)
        chosen = rng.choice(rows.size, size=n_cells, replace=False)
        centroids = unit[chosen].copy()
        for _ in range(max(1, self._train_iterations)):
            assignment = np.argmax(unit @ centroids.T, axis=1)
            for cell in range(n_cells):
                members = np.nonzero(assignment == cell)[0]
                if members.size == 0:
                    centroids[cell] = unit[int(rng.integers(rows.size))]
                    continue
                mean = unit[members].mean(axis=0)
                norm = np.linalg.norm(mean)
                centroids[cell] = mean / norm if norm > _EPSILON else mean
        assignment = np.argmax(unit @ centroids.T, axis=1)
        full = np.full(self.n_rows, -1, dtype=np.int64)
        full[rows] = assignment
        self.n_cells = n_cells
        self.centroids = centroids
        self._finalise(full)
        self._needs_recluster = False
        self._reclusters += 1

    # ------------------------------------------------------------------ #
    # search
    # ------------------------------------------------------------------ #
    def _probed_cells(self, queries: np.ndarray) -> np.ndarray:
        query_norms = np.linalg.norm(queries, axis=1)
        safe = np.where(query_norms < _EPSILON, 1.0, query_norms)
        centroid_scores = (queries / safe[:, None]) @ self.centroids.T
        # never spend a probe on an empty cell (a reseeded centroid can sit
        # on top of a query yet hold no vectors)
        centroid_scores[:, self._empty_cells] = -np.inf
        return topk_descending(centroid_scores, min(self.nprobe, self.n_cells))

    def query_batch(
        self, queries: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        if self._needs_recluster:
            self.rebalance()  # lazy: piles of adds/removes settle here
        queries = self._prepare_queries(queries)
        batch = queries.shape[0]
        if batch == 0:
            return self._select(queries, np.empty((0, 0)), k)
        probed = self._probed_cells(queries)
        n_probed = probed.shape[1]

        # row q of the candidate matrix holds its probed cells end to end,
        # in probe order, then -inf padding up to the widest row
        cell_sizes = np.fromiter(
            (ids.size for ids in self._cell_ids), np.int64, self.n_cells
        )
        sizes = cell_sizes[probed]
        ends = np.cumsum(sizes, axis=1)
        starts = ends - sizes
        width = int(ends[:, -1].max())
        columns = np.arange(width)
        padding = columns >= ends[:, -1:]

        # ids and norms: one gather from the cells laid end to end
        offsets = np.zeros((batch, n_probed + 1), dtype=np.int64)
        offsets[:, :-1] = (np.cumsum(cell_sizes) - cell_sizes)[probed] - starts
        lengths = np.empty_like(offsets)
        lengths[:, :-1] = sizes
        lengths[:, -1] = width - ends[:, -1]
        source = np.repeat(offsets.ravel(), lengths.ravel()).reshape(batch, width)
        source += columns
        source[padding] = 0
        ids = np.concatenate(self._cell_ids)[source]
        ids[padding] = -1
        norms = np.concatenate(self._cell_norms)[source]

        # products: the (query, cell) pairs grouped by cell, so each probed
        # cell is one GEMM against its queries and one block write
        products = np.full((batch, width), -np.inf, dtype=queries.dtype)
        pairs = np.argsort(probed, axis=None, kind="stable")
        cells = probed.ravel()[pairs]
        rows = pairs // n_probed
        first_columns = starts.ravel()[pairs]
        first = 0
        for last in (*(np.flatnonzero(np.diff(cells)) + 1).tolist(), pairs.size):
            cell = cells[first]
            group = rows[first:last]
            products[
                group[:, None],
                first_columns[first:last, None] + columns[: cell_sizes[cell]],
            ] = queries[group] @ self._cell_matrices[cell].T
            first = last
        return self._select(
            queries, self._normalise(products, norms, queries), k, ids
        )
