"""The IVF batch kernel against a per-(cell, query) reference.

``IVFIndex.query_batch`` scores each probed cell with one GEMM against
the queries that probe it.  The reference below is the earlier
formulation — one slice copy per (cell, query) pair — kept here as a test
oracle: both must pick the same ids, with scores within 1e-12.
"""

import numpy as np
import pytest

from repro.serving import IVFIndex


def _reference_query_batch(index, queries, k):
    """Per (cell, query) scoring of the probed cells, then a lexsort top-k."""
    queries = np.asarray(queries, dtype=index.matrix.dtype)
    batch = queries.shape[0]
    probed = index._probed_cells(queries)
    cell_queries = {}
    for row, cells in enumerate(probed):
        for cell in cells:
            cell_queries.setdefault(int(cell), []).append(row)
    counts = np.zeros(batch, dtype=np.int64)
    for cell, rows in cell_queries.items():
        counts[rows] += index._cell_ids[cell].size
    width = int(counts.max())
    candidate_ids = np.full((batch, width), -1, dtype=np.int64)
    candidate_scores = np.full((batch, width), -np.inf)
    fill = np.zeros(batch, dtype=np.int64)
    for cell, rows in cell_queries.items():
        ids = index._cell_ids[cell]
        if ids.size == 0:
            continue
        block = index._score_rows(
            index._cell_matrices[cell], index._cell_norms[cell], queries[rows]
        )
        for position, row in enumerate(rows):
            start = fill[row]
            candidate_ids[row, start:start + ids.size] = ids
            candidate_scores[row, start:start + ids.size] = block[:, position]
            fill[row] += ids.size
    k = min(k, width)
    indices = np.full((batch, k), -1, dtype=np.int64)
    scores = np.full((batch, k), -np.inf)
    for row in range(batch):
        order = np.lexsort((candidate_ids[row], -candidate_scores[row]))[:k]
        scores[row] = candidate_scores[row, order]
        indices[row] = np.where(
            np.isfinite(scores[row]), candidate_ids[row, order], -1
        )
    return indices, scores


def _assert_matches_reference(index, queries, k=10):
    want_ids, want_scores = _reference_query_batch(index, queries, k)
    got_ids, got_scores = index.query_batch(queries, k)
    np.testing.assert_array_equal(got_ids, want_ids)
    finite = np.isfinite(want_scores)
    np.testing.assert_array_equal(np.isfinite(got_scores), finite)
    assert np.abs(got_scores[finite] - want_scores[finite]).max() <= 1e-12


@pytest.fixture(params=["cosine", "dot"])
def metric(request):
    return request.param


def _corpus(seed=3, rows=1200, dimension=24):
    rng = np.random.default_rng(seed)
    return rng, rng.normal(size=(rows, dimension))


class TestAgainstPerPairReference:
    @pytest.mark.parametrize("batch", [1, 3, 32, 64])
    def test_fresh_index(self, metric, batch):
        rng, matrix = _corpus()
        index = IVFIndex(matrix, metric=metric, n_cells=30, nprobe=6)
        _assert_matches_reference(index, rng.normal(size=(batch, 24)))

    @pytest.mark.parametrize("batch", [1, 3, 32, 64])
    def test_with_tombstones(self, metric, batch):
        rng, matrix = _corpus(seed=4)
        index = IVFIndex(matrix, metric=metric, n_cells=30, nprobe=6)
        index.remove(rng.choice(matrix.shape[0], size=200, replace=False))
        _assert_matches_reference(index, rng.normal(size=(batch, 24)))

    @pytest.mark.parametrize("batch", [1, 3, 32, 64])
    def test_after_add_and_update_rows(self, metric, batch):
        rng, matrix = _corpus(seed=5)
        index = IVFIndex(matrix, metric=metric, n_cells=30, nprobe=6)
        index.add(rng.normal(size=(150, 24)))
        index.update_rows(
            rng.choice(matrix.shape[0], size=80, replace=False),
            rng.normal(size=(80, 24)),
        )
        _assert_matches_reference(index, rng.normal(size=(batch, 24)))

    @pytest.mark.parametrize("batch", [1, 3, 32, 64])
    def test_after_a_lazy_rebalance(self, metric, batch):
        rng, matrix = _corpus(seed=6)
        index = IVFIndex(
            matrix, metric=metric, n_cells=30, nprobe=6, recluster_threshold=1.5
        )
        # a pile of inserts around one direction unbalances the cells
        anchor = matrix[0]
        index.add(anchor + 0.05 * rng.normal(size=(400, 24)))
        assert index.needs_recluster
        index.query_batch(rng.normal(size=(1, 24)), 1)  # settles lazily
        assert not index.needs_recluster and index.recluster_count == 1
        _assert_matches_reference(index, rng.normal(size=(batch, 24)))

    def test_probes_beyond_the_filled_cells(self, metric):
        rng, matrix = _corpus(seed=8, rows=300)
        index = IVFIndex(matrix, metric=metric, n_cells=20, nprobe=20)
        index.remove(np.arange(150))  # empties some cells outright
        _assert_matches_reference(index, rng.normal(size=(5, 24)), k=400)

    def test_float32_storage(self):
        rng, matrix = _corpus(seed=9)
        index = IVFIndex(matrix.astype(np.float32), n_cells=30, nprobe=6)
        queries = rng.normal(size=(16, 24))
        want_ids, want_scores = _reference_query_batch(index, queries, 10)
        got_ids, got_scores = index.query_batch(queries, 10)
        np.testing.assert_array_equal(got_ids, want_ids)
        np.testing.assert_allclose(got_scores, want_scores, atol=1e-6)


class TestPartialStateKeepsTheDtype:
    def test_float32_stays_float32_and_answers_like_from_state(self):
        rng = np.random.default_rng(11)
        matrix = rng.normal(size=(500, 16)).astype(np.float32)
        trained = IVFIndex(matrix, n_cells=20, nprobe=5)
        partial = trained.assignments.copy()
        missing = rng.choice(500, size=5, replace=False)
        partial[missing] = -1

        restored = IVFIndex.from_partial_state(
            matrix, trained.centroids, partial, nprobe=5
        )
        complete = IVFIndex.from_state(
            matrix, trained.centroids, trained.assignments, nprobe=5
        )
        assert restored.matrix.dtype == np.float32
        assert restored.matrix.nbytes == matrix.nbytes
        np.testing.assert_array_equal(restored.assignments, complete.assignments)
        queries = rng.normal(size=(8, 16))
        got_ids, got_scores = restored.query_batch(queries, 10)
        want_ids, want_scores = complete.query_batch(queries, 10)
        np.testing.assert_array_equal(got_ids, want_ids)
        np.testing.assert_array_equal(got_scores, want_scores)
