"""The top-k order contract: ``(score descending, id ascending)``.

``topk_descending`` is checked against a full ``np.lexsort`` over
matrices full of exact ties; every index family must rank bitwise
identical vectors by id, whichever BLAS kernel scored them.
"""

import numpy as np
import pytest

from repro.serving import FlatIndex, IVFIndex, topk_descending
from repro.serving.nsw import NSWIndex
from repro.serving.pq import PQIndex


def _reference(scores, k, ids):
    """The first ``k`` of a full lexsort by (-score, id), per row."""
    return np.stack([
        np.lexsort((row_ids, -row))[:k] for row, row_ids in zip(scores, ids)
    ])


def _tied_scores(rng, batch, n):
    # a handful of distinct values: most entries tie with many others,
    # at the k-th score too
    return rng.integers(-3, 4, size=(batch, n)).astype(np.float64) / 7.0


class TestTopkDescending:
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 17, 39, 40, 41, 100])
    def test_matches_lexsort_by_position(self, k):
        rng = np.random.default_rng(k)
        scores = _tied_scores(rng, 6, 40)
        positions = np.broadcast_to(np.arange(40), scores.shape)
        want = _reference(scores, min(k, 40), positions)
        got = topk_descending(scores, k)
        assert got.shape == (6, min(k, 40))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("k", [0, 1, 3, 12, 30, 31])
    def test_matches_lexsort_by_given_ids(self, k):
        rng = np.random.default_rng(100 + k)
        scores = _tied_scores(rng, 5, 30)
        ids = np.stack([rng.permutation(1000)[:30] for _ in range(5)])
        want = _reference(scores, min(k, 30), ids)
        np.testing.assert_array_equal(topk_descending(scores, k, ids=ids), want)

    @pytest.mark.parametrize("k", [0, 1, 4, 25, 60])
    def test_one_dimensional_input(self, k):
        rng = np.random.default_rng(7)
        scores = _tied_scores(rng, 1, 25)[0]
        ids = rng.permutation(25)
        got = topk_descending(scores, k, ids=ids)
        assert got.shape == (min(k, 25),)
        np.testing.assert_array_equal(
            got, np.lexsort((ids, -scores))[: min(k, 25)]
        )
        np.testing.assert_array_equal(
            topk_descending(scores, k), np.lexsort((np.arange(25), -scores))[:k]
        )

    def test_infinite_scores_rank_last_by_id(self):
        scores = np.array([[-np.inf, 0.5, -np.inf, 0.5, 0.1]])
        np.testing.assert_array_equal(
            topk_descending(scores, 5), [[1, 3, 4, 0, 2]]
        )


def _identical_rows():
    """The 365 x 16 matrix where rows 361, 363 and 364 are one vector:
    a GEMV and a GEMM round their equal scores differently."""
    rng = np.random.default_rng(29)
    matrix = rng.normal(size=(365, 16))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    matrix[363] = matrix[361]
    matrix[364] = matrix[361]
    queries = np.vstack([matrix[361]] + [rng.normal(size=16) for _ in range(7)])
    return matrix, queries


class TestIdenticalVectorsBreakById:
    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda m: FlatIndex(m), id="flat"),
            pytest.param(
                lambda m: IVFIndex(m, n_cells=12, nprobe=12), id="ivf-exhaustive"
            ),
            pytest.param(
                lambda m: PQIndex(m, n_subspaces=4, rerank=m.shape[0]),
                id="pq-full-rerank",
            ),
            pytest.param(
                lambda m: NSWIndex(m, max_degree=8, ef_search=m.shape[0]),
                id="nsw-exhaustive",
            ),
        ],
    )
    def test_single_and_batched_queries_rank_by_id(self, build):
        matrix, queries = _identical_rows()
        index = build(matrix)
        ids, scores = index.query(queries[0], 3)
        np.testing.assert_array_equal(ids, [361, 363, 364])
        assert scores[0] == scores[1] == scores[2]
        batch_ids, batch_scores = index.query_batch(queries, 3)
        np.testing.assert_array_equal(batch_ids[0], [361, 363, 364])
        np.testing.assert_array_equal(batch_scores[0], scores)

    def test_float32_storage_ranks_by_id(self):
        matrix, queries = _identical_rows()
        index = FlatIndex(matrix.astype(np.float32))
        ids, _ = index.query(queries[0], 3)
        np.testing.assert_array_equal(ids, [361, 363, 364])
        np.testing.assert_array_equal(index.query_batch(queries, 3)[0][0], ids)

    def test_dot_metric_ranks_by_id(self):
        matrix, queries = _identical_rows()
        matrix = matrix * np.linspace(1.0, 3.0, matrix.shape[0])[:, None]
        matrix[363] = matrix[361]
        matrix[364] = matrix[361]
        index = FlatIndex(matrix, metric="dot")
        ids, _ = index.query(matrix[361], 3)
        np.testing.assert_array_equal(ids, [361, 363, 364])
