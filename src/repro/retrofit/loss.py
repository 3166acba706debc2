"""Loss functions of the retrofitting objectives (paper Eq. 1 and Eq. 4–6).

These are used for diagnostics and testing: the optimisation-based solver
(RO) with a convex configuration must not increase :func:`relational_loss`
over its iterations, and Faruqui retrofitting must not increase
:func:`faruqui_loss`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RetrofitError
from repro.retrofit.hyperparams import DerivedWeights


def category_centroids(
    base_matrix: np.ndarray,
    categories: dict[str, list[int]],
    skip_zero_rows: bool = True,
) -> np.ndarray:
    """The constant per-node category centroid matrix ``c`` (Eq. 5).

    The centroid of a category is the mean of the *original* vectors of its
    members.  Out-of-vocabulary members were initialised with null vectors;
    including them would drag every centroid towards the origin, so they are
    excluded by default (falling back to the full mean when a category is
    entirely out of vocabulary).
    """
    n, dim = base_matrix.shape
    centroids = np.zeros((n, dim), dtype=np.float64)
    for indices in categories.values():
        if not indices:
            continue
        rows = base_matrix[indices]
        if skip_zero_rows:
            non_zero = ~np.all(rows == 0.0, axis=1)
            members = rows[non_zero] if non_zero.any() else rows
        else:
            members = rows
        centroid = members.mean(axis=0)
        centroids[indices] = centroid
    return centroids


def relational_loss(
    matrix: np.ndarray,
    base_matrix: np.ndarray,
    centroids: np.ndarray,
    weights: DerivedWeights,
) -> float:
    """Evaluate the relational retrofitting objective Ψ(W) (Eq. 4–6)."""
    if matrix.shape != base_matrix.shape or matrix.shape != centroids.shape:
        raise RetrofitError("matrix, base matrix and centroids must share a shape")
    # one n×d scratch matrix serves both squared distances
    squares = np.subtract(matrix, base_matrix)
    np.multiply(squares, squares, out=squares)
    loss = float(np.sum(weights.alpha_vec * np.sum(squares, axis=1)))
    np.subtract(matrix, centroids, out=squares)
    np.multiply(squares, squares, out=squares)
    loss += float(np.sum(weights.beta_vec * np.sum(squares, axis=1)))

    for rel_index, relation in enumerate(weights.directed):
        delta = weights.delta_ro[rel_index]
        src = relation.source_rows
        dst = relation.target_rows
        pair_sq = np.sum((matrix[src] - matrix[dst]) ** 2, axis=1)
        loss += float(np.sum(weights.gamma_pair_weights(rel_index) * pair_sq))
        if delta > 0.0:
            # The dissimilarity term ranges over the complement E˜r: all
            # (source, target) combinations of the relation that are *not*
            # related.  Computed via the sum over all combinations minus the
            # sum over the related pairs.
            sources = relation.source_indices
            targets = relation.target_indices
            if len(sources) == 0 or len(targets) == 0:
                continue
            total = _squared_distance_sum(matrix[sources], matrix[targets])
            loss -= delta * (total - float(np.sum(pair_sq)))
    return loss


def _squared_distance_sum(a: np.ndarray, b: np.ndarray) -> float:
    """``Σ_i Σ_j ‖a_i − b_j‖²`` over all row pairs, in closed form.

    Equals ``|b|·Σ_i‖a_i‖² + |a|·Σ_j‖b_j‖² − 2·(Σ_i a_i)·(Σ_j b_j)``,
    so no ``|a| × |b|`` matrix is materialised.
    """
    return float(
        len(b) * np.sum(a**2)
        + len(a) * np.sum(b**2)
        - 2.0 * (a.sum(axis=0) @ b.sum(axis=0))
    )


def faruqui_loss(
    matrix: np.ndarray,
    base_matrix: np.ndarray,
    edges: list[tuple[int, int]],
    alpha: np.ndarray,
    beta: np.ndarray,
) -> float:
    """Evaluate the original retrofitting objective of Faruqui et al. (Eq. 1)."""
    if matrix.shape != base_matrix.shape:
        raise RetrofitError("matrix and base matrix must share a shape")
    diff = matrix - base_matrix
    loss = float(np.sum(alpha * np.sum(diff**2, axis=1)))
    for i, j in edges:
        loss += float(beta[i] * np.sum((matrix[i] - matrix[j]) ** 2))
    return loss
