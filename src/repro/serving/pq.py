"""Product quantisation: compressed top-k search over packed uint8 codes.

:class:`PQIndex` stores each vector as ``n_subspaces`` one-byte codebook
indices instead of ``dimension`` floats — a 1M×300 float64 corpus
(~2.4 GB) compresses to ~30 MB of codes plus a few hundred KB of
codebooks.  Search is *asymmetric distance computation* (ADC): the query
stays exact, one ``(n_subspaces, n_codes)`` similarity table is computed
per query, and scanning a row costs ``n_subspaces`` table lookups — no
float vector is ever read during the scan.

The coarse layer is always present and unifies two regimes behind one
class:

* ``n_cells=1`` — *pure PQ*: every query scans every active code row.
* ``n_cells>1`` — *IVF-PQ*: a spherical k-means coarse quantiser (the
  same scheme :class:`repro.serving.index.IVFIndex` trains) partitions
  the rows; codes quantise the **residual** against the assigned coarse
  centroid and a query scans only the ``nprobe`` most similar cells.

``rerank`` keeps answers trustworthy: the top-``rerank`` ADC candidates
are re-scored *exactly* from the original matrix (which may be a
read-only memory map — only shortlist rows are gathered, so the matrix
never needs to be resident).  With ``rerank >= n_rows`` and
``nprobe >= n_cells`` the result equals :class:`FlatIndex` bit for bit,
tie-stable ordering included; recall@k is monotone in ``rerank`` because
a larger shortlist is always a superset of a smaller one.

Mutations follow the :class:`VectorIndex` contract and never retrain:
``add``/``update_rows`` encode against the frozen codebooks and coarse
centroids, ``remove`` tombstones.  The trained state (codebooks, coarse
centroids, assignments, codes) round-trips through
:class:`repro.serving.store.EmbeddingStore` and :meth:`from_state`
restores an identical index without any k-means pass.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ServingError
from repro.serving.index import VectorIndex, topk_descending, _EPSILON


def _pick_subspaces(dimension: int, ceiling: int = 32) -> int:
    """Largest divisor of ``dimension`` not exceeding ``ceiling``."""
    for count in range(min(ceiling, dimension), 0, -1):
        if dimension % count == 0:
            return count
    return 1


def _kmeans_euclidean(
    sample: np.ndarray, n_codes: int, iterations: int, rng: np.random.Generator
) -> np.ndarray:
    """Plain Lloyd k-means (used per subspace on residuals)."""
    n, _ = sample.shape
    n_codes = min(n_codes, n)
    chosen = rng.choice(n, size=n_codes, replace=False)
    centroids = sample[chosen].astype(np.float64, copy=True)
    for _ in range(max(1, iterations)):
        # argmin ||x - c||^2 == argmax (x.c - ||c||^2/2): one matmul
        scores = sample @ centroids.T - 0.5 * np.sum(centroids**2, axis=1)
        assignment = np.argmax(scores, axis=1)
        for code in range(n_codes):
            members = np.nonzero(assignment == code)[0]
            if members.size == 0:
                centroids[code] = sample[int(rng.integers(n))]
            else:
                centroids[code] = sample[members].mean(axis=0)
    return centroids


class PQIndex(VectorIndex):
    """Product-quantised (optionally IVF-coarsened) top-k search.

    Parameters
    ----------
    matrix:
        The vectors to index (float32/float64; may be a read-only mmap).
    metric:
        ``"cosine"`` or ``"dot"``.  Cosine quantises unit-normalised
        rows, dot quantises the raw rows.
    n_subspaces:
        Number of PQ subspaces (= bytes per stored vector).  Must divide
        the dimension; defaults to the largest divisor ``<= 32``.
    n_codes:
        Codebook size per subspace (``<= 256`` so codes pack into uint8).
    n_cells:
        Coarse cells; ``1`` (default) scans everything, ``> 1`` is IVF-PQ.
    nprobe:
        Coarse cells scanned per query.
    rerank:
        ADC shortlist size re-scored exactly from the original matrix;
        ``0`` returns raw ADC scores (fastest, fully approximate).
    train_iterations / train_sample / seed:
        k-means budget: Lloyd iterations, row-sample cap and RNG seed.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        metric: str = "cosine",
        n_subspaces: int | None = None,
        n_codes: int = 256,
        n_cells: int = 1,
        nprobe: int = 8,
        rerank: int = 32,
        train_iterations: int = 8,
        train_sample: int = 16384,
        seed: int = 0,
    ) -> None:
        super().__init__(matrix, metric)
        if self.n_rows == 0:
            raise ServingError("cannot build a PQ index over an empty matrix")
        if n_subspaces is None:
            n_subspaces = _pick_subspaces(self.dimension)
        if n_subspaces <= 0 or self.dimension % n_subspaces != 0:
            raise ServingError(
                f"n_subspaces={n_subspaces} must divide dimension "
                f"{self.dimension}"
            )
        if not 1 <= n_codes <= 256:
            raise ServingError("n_codes must be in 1..256 (codes pack to uint8)")
        if n_cells < 1:
            raise ServingError("n_cells must be at least 1")
        if nprobe <= 0:
            raise ServingError("nprobe must be positive")
        if rerank < 0:
            raise ServingError("rerank must be non-negative")
        self.n_subspaces = int(n_subspaces)
        self.subspace_dim = self.dimension // self.n_subspaces
        self.n_codes = int(n_codes)
        self.n_cells = min(int(n_cells), self.n_rows)
        self.nprobe = int(nprobe)
        self.rerank = int(rerank)
        self._train(int(train_iterations), int(train_sample), int(seed))

    # ------------------------------------------------------------------ #
    # build
    # ------------------------------------------------------------------ #
    def _represent(self, vectors: np.ndarray, norms: np.ndarray) -> np.ndarray:
        """The representation PQ quantises: unit rows (cosine) or raw (dot)."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if self.metric == "dot":
            return vectors
        safe = np.where(norms < _EPSILON, 1.0, norms)
        return vectors / safe[:, None]

    def _train(self, iterations: int, train_sample: int, seed: int) -> None:
        rng = np.random.default_rng(seed)
        sample_rows = np.arange(self.n_rows)
        if sample_rows.size > train_sample:
            sample_rows = np.sort(
                rng.choice(sample_rows.size, size=train_sample, replace=False)
            )
        sample = self._represent(
            self.matrix[sample_rows], self._row_norms[sample_rows]
        )

        # coarse layer: spherical k-means over the sample representations
        # (identical scheme to IVFIndex, so probing ranks cells the same
        # way assignment picked them: by max inner product)
        chosen = rng.choice(sample.shape[0], size=self.n_cells, replace=False)
        centroids = sample[chosen].copy()
        for _ in range(max(1, iterations)):
            assignment = np.argmax(sample @ centroids.T, axis=1)
            for cell in range(self.n_cells):
                members = np.nonzero(assignment == cell)[0]
                if members.size == 0:
                    centroids[cell] = sample[int(rng.integers(sample.shape[0]))]
                    continue
                mean = sample[members].mean(axis=0)
                norm = np.linalg.norm(mean)
                centroids[cell] = mean / norm if norm > _EPSILON else mean
        self.centroids = centroids

        # PQ codebooks: per-subspace k-means on the coarse residuals
        assignment = np.argmax(sample @ centroids.T, axis=1)
        residuals = sample - centroids[assignment]
        dsub = self.subspace_dim
        self.codebooks = np.empty(
            (self.n_subspaces, self.n_codes, dsub), dtype=np.float64
        )
        for m in range(self.n_subspaces):
            block = residuals[:, m * dsub:(m + 1) * dsub]
            trained = _kmeans_euclidean(block, self.n_codes, iterations, rng)
            if trained.shape[0] < self.n_codes:
                # tiny corpora: fewer distinct rows than codes — repeat the
                # last centroid so the codebook shape stays (n_codes, dsub)
                pad = np.repeat(
                    trained[-1:], self.n_codes - trained.shape[0], axis=0
                )
                trained = np.vstack((trained, pad))
            self.codebooks[m] = trained

        cells, codes = self._encode(self.matrix, self._row_norms)
        self._assignment = cells
        self.codes = codes
        self._finalise()

    def _encode(
        self, vectors: np.ndarray, norms: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Coarse-assign + PQ-encode ``vectors`` → ``(cells, codes)``."""
        rep = self._represent(vectors, norms)
        cells = np.argmax(rep @ self.centroids.T, axis=1).astype(np.int64)
        residuals = rep - self.centroids[cells]
        dsub = self.subspace_dim
        codes = np.empty((rep.shape[0], self.n_subspaces), dtype=np.uint8)
        for m in range(self.n_subspaces):
            block = residuals[:, m * dsub:(m + 1) * dsub]
            centroids = self.codebooks[m]
            scores = block @ centroids.T - 0.5 * np.sum(centroids**2, axis=1)
            codes[:, m] = np.argmax(scores, axis=1).astype(np.uint8)
        return cells, codes

    def _finalise(self) -> None:
        """Contiguous per-cell code blocks: every probe is one dense scan."""
        self._cell_ids: list[np.ndarray] = []
        self._cell_codes: list[np.ndarray] = []
        active_assignment = np.where(self._active, self._assignment, -1)
        for cell in range(self.n_cells):
            members = np.nonzero(active_assignment == cell)[0].astype(np.int64)
            self._cell_ids.append(members)
            self._cell_codes.append(np.ascontiguousarray(self.codes[members]))
        self._empty_cells = np.array(
            [ids.size == 0 for ids in self._cell_ids], dtype=bool
        )

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    @property
    def assignments(self) -> np.ndarray:
        """Row → coarse-cell assignment (``-1`` = removed/unencoded)."""
        return np.where(self._active, self._assignment, -1)

    @classmethod
    def from_state(
        cls,
        matrix: np.ndarray,
        codebooks: np.ndarray,
        centroids: np.ndarray,
        assignments: np.ndarray,
        codes: np.ndarray,
        metric: str = "cosine",
        nprobe: int = 8,
        rerank: int = 32,
    ) -> "PQIndex":
        """Rebuild from persisted trained state — no k-means runs.

        Every row must carry a valid assignment and code row; use
        :meth:`from_partial_state` when delta replay left gaps.
        """
        index = cls.__new__(cls)
        VectorIndex.__init__(index, matrix, metric)
        if index.n_rows == 0:
            raise ServingError("cannot restore a PQ index over an empty matrix")
        codebooks = np.asarray(codebooks, dtype=np.float64)
        centroids = np.asarray(centroids, dtype=np.float64)
        assignments = np.asarray(assignments, dtype=np.int64)
        codes = np.asarray(codes, dtype=np.uint8)
        if codebooks.ndim != 3:
            raise ServingError("codebooks must have shape (M, n_codes, dsub)")
        n_subspaces, n_codes, dsub = codebooks.shape
        if n_subspaces * dsub != index.dimension:
            raise ServingError(
                f"codebooks cover {n_subspaces}x{dsub} dims, matrix has "
                f"{index.dimension}"
            )
        if centroids.ndim != 2 or centroids.shape[1] != index.dimension:
            raise ServingError(
                f"coarse centroids have shape {centroids.shape}, expected "
                f"(n_cells, {index.dimension})"
            )
        if assignments.shape != (index.n_rows,):
            raise ServingError(
                f"assignments have shape {assignments.shape}, expected "
                f"({index.n_rows},)"
            )
        if assignments.size and assignments.max() >= centroids.shape[0]:
            raise ServingError(
                "assignments reference cells outside "
                f"0..{centroids.shape[0] - 1}"
            )
        if codes.shape != (index.n_rows, n_subspaces):
            raise ServingError(
                f"codes have shape {codes.shape}, expected "
                f"({index.n_rows}, {n_subspaces})"
            )
        if assignments.min() < 0:
            raise ServingError(
                "state has unencoded rows; restore via from_partial_state"
            )
        if nprobe <= 0:
            raise ServingError("nprobe must be positive")
        index.n_subspaces = int(n_subspaces)
        index.subspace_dim = int(dsub)
        index.n_codes = int(n_codes)
        index.n_cells = int(centroids.shape[0])
        index.nprobe = int(nprobe)
        index.rerank = int(rerank)
        index.codebooks = codebooks
        index.centroids = centroids
        index._assignment = assignments.copy()
        index.codes = codes.copy()
        index._finalise()
        return index

    @classmethod
    def from_partial_state(
        cls,
        matrix: np.ndarray,
        codebooks: np.ndarray,
        centroids: np.ndarray,
        assignments: np.ndarray,
        codes: np.ndarray,
        metric: str = "cosine",
        nprobe: int = 8,
        rerank: int = 32,
    ) -> "PQIndex":
        """Restore where some rows lack state (assignment ``-1``).

        Rows appended or changed by a delta replay are re-encoded against
        the stored codebooks/centroids; no k-means runs.
        """
        assignments = np.asarray(assignments, dtype=np.int64).copy()
        codes = np.asarray(codes, dtype=np.uint8).copy()
        matrix = np.asarray(matrix)
        missing = np.nonzero(assignments < 0)[0]
        if missing.size:
            probe = cls.__new__(cls)
            VectorIndex.__init__(probe, matrix, metric)
            codebooks = np.asarray(codebooks, dtype=np.float64)
            centroids = np.asarray(centroids, dtype=np.float64)
            probe.n_subspaces = codebooks.shape[0]
            probe.subspace_dim = codebooks.shape[2]
            probe.codebooks = codebooks
            probe.centroids = centroids
            cells, fresh = probe._encode(
                probe.matrix[missing], probe._row_norms[missing]
            )
            assignments[missing] = cells
            if codes.shape[0] != matrix.shape[0]:
                grown = np.zeros(
                    (matrix.shape[0], codebooks.shape[0]), dtype=np.uint8
                )
                grown[: codes.shape[0]] = codes
                codes = grown
            codes[missing] = fresh
        return cls.from_state(
            matrix, codebooks, centroids, assignments, codes,
            metric=metric, nprobe=nprobe, rerank=rerank,
        )

    def memory_bytes(self) -> int:
        """Bytes the ADC scan path keeps resident: codes + codebooks.

        Deliberately excludes :attr:`matrix` — the scan never reads it,
        and re-ranking gathers only ``rerank`` rows per query, which a
        read-only mmap serves straight from the page cache.  Row norms
        and the tombstone mask are counted (they live in memory).
        """
        return int(
            self.codes.nbytes
            + self.codebooks.nbytes
            + self.centroids.nbytes
            + self._assignment.nbytes
            + sum(ids.nbytes for ids in self._cell_ids)
            + sum(block.nbytes for block in self._cell_codes)
            + self._row_norms.nbytes
            + self._active.nbytes
        )

    def cell_sizes(self) -> list[int]:
        """Number of active code rows per coarse cell."""
        return [ids.size for ids in self._cell_ids]

    # ------------------------------------------------------------------ #
    # mutation (codebooks and centroids are frozen — no retraining)
    # ------------------------------------------------------------------ #
    def add(self, vectors: np.ndarray) -> np.ndarray:
        vectors = self._prepare_new_vectors(vectors)
        ids = self._append_rows(vectors)
        cells, codes = self._encode(vectors, self._row_norms[ids])
        self._assignment = np.concatenate((self._assignment, cells))
        self.codes = np.vstack((self.codes, codes))
        for cell in np.unique(cells):
            members = ids[cells == cell]
            self._cell_ids[cell] = np.concatenate(
                (self._cell_ids[cell], members)
            )
            self._cell_codes[cell] = np.vstack(
                (self._cell_codes[cell], self.codes[members])
            )
            self._empty_cells[cell] = False
        return ids

    def _cell_discard(self, rows: np.ndarray) -> None:
        for cell in np.unique(self._assignment[rows]):
            if cell < 0:
                continue
            keep = ~np.isin(self._cell_ids[cell], rows)
            self._cell_ids[cell] = self._cell_ids[cell][keep]
            self._cell_codes[cell] = self._cell_codes[cell][keep]
            self._empty_cells[cell] = self._cell_ids[cell].size == 0

    def remove(self, rows) -> None:
        rows = self._validate_rows(rows, require_active=False)
        rows = rows[self._active[rows]]
        if not rows.size:
            return
        self._active[rows] = False
        self._cell_discard(rows)
        self._assignment[rows] = -1

    def update_rows(self, rows, vectors: np.ndarray) -> None:
        rows = self._validate_rows(rows)
        vectors = self._prepare_new_vectors(vectors)
        if vectors.shape[0] != rows.size:
            raise ServingError("update needs one vector per row id")
        self._ensure_owned()
        self._cell_discard(rows)
        self.matrix[rows] = vectors
        self._row_norms[rows] = np.linalg.norm(vectors, axis=1)
        cells, codes = self._encode(vectors, self._row_norms[rows])
        self._assignment[rows] = cells
        self.codes[rows] = codes
        for cell in np.unique(cells):
            members = rows[cells == cell]
            self._cell_ids[cell] = np.concatenate(
                (self._cell_ids[cell], members)
            )
            self._cell_codes[cell] = np.vstack(
                (self._cell_codes[cell], self.codes[members])
            )
            self._empty_cells[cell] = False

    # ------------------------------------------------------------------ #
    # search
    # ------------------------------------------------------------------ #
    def _query_reps(self, queries: np.ndarray) -> np.ndarray:
        queries = np.asarray(queries, dtype=np.float64)
        if self.metric == "dot":
            return queries
        norms = np.linalg.norm(queries, axis=1)
        safe = np.where(norms < _EPSILON, 1.0, norms + _EPSILON)
        return queries / safe[:, None]

    def query_batch(
        self, queries: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        queries = self._prepare_queries(queries)
        batch = queries.shape[0]
        reps = self._query_reps(queries)

        coarse = reps @ self.centroids.T  # (batch, n_cells)
        probe_scores = coarse.copy()
        probe_scores[:, self._empty_cells] = -np.inf
        probed = topk_descending(probe_scores, min(self.nprobe, self.n_cells))

        # one ADC table per (query, subspace): table[b, m, c] is the
        # contribution of codebook entry c of subspace m to query b
        dsub = self.subspace_dim
        tables = np.einsum(
            "bmd,mcd->bmc",
            reps.reshape(batch, self.n_subspaces, dsub),
            self.codebooks,
            optimize=True,
        )

        cell_queries: dict[int, list[int]] = {}
        for row, cells in enumerate(probed):
            for cell in cells:
                if probe_scores[row, cell] == -np.inf:
                    continue
                cell_queries.setdefault(int(cell), []).append(row)

        counts = np.zeros(batch, dtype=np.int64)
        for cell, rows in cell_queries.items():
            counts[rows] += self._cell_ids[cell].size
        width = int(counts.max()) if batch else 0

        candidate_ids = np.full((batch, width), -1, dtype=np.int64)
        candidate_scores = np.full((batch, width), -np.inf, dtype=np.float64)
        fill = np.zeros(batch, dtype=np.int64)
        for cell, rows in cell_queries.items():
            ids = self._cell_ids[cell]
            if ids.size == 0:
                continue
            codes = self._cell_codes[cell]
            sub = tables[rows]  # (Q, M, n_codes)
            block = np.broadcast_to(
                coarse[rows, cell][:, None], (len(rows), ids.size)
            ).copy()
            for m in range(self.n_subspaces):
                block += sub[:, m, codes[:, m]]
            for position, row in enumerate(rows):
                start = fill[row]
                candidate_ids[row, start:start + ids.size] = ids
                candidate_scores[row, start:start + ids.size] = block[position]
                fill[row] += ids.size

        k = min(int(k), width) if width else 0
        if k <= 0:
            return (
                np.empty((batch, 0), dtype=np.int64),
                np.empty((batch, 0), dtype=np.float64),
            )
        rows_arange = np.arange(batch)[:, None]
        if self.rerank <= 0:
            best = topk_descending(candidate_scores, k, ids=candidate_ids)
            indices = candidate_ids[rows_arange, best]
            scores = candidate_scores[rows_arange, best]
            indices[~np.isfinite(scores)] = -1
            return indices, scores

        shortlist = min(max(self.rerank, k), width)
        best = topk_descending(candidate_scores, shortlist, ids=candidate_ids)
        short_ids = candidate_ids[rows_arange, best]
        live = np.isfinite(candidate_scores[rows_arange, best])
        short_ids[~live] = 0
        # exact re-rank by the row kernel every family ranks with, so equal
        # vectors tie exactly and break by id as in FlatIndex
        exact = self._exact_scores(queries, short_ids).astype(np.float64)
        exact[~live] = -np.inf
        take = topk_descending(exact, k, ids=short_ids)
        indices = short_ids[rows_arange, take]
        scores = exact[rows_arange, take]
        indices[~np.isfinite(scores)] = -1
        return indices, scores
