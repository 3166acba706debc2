"""The relational retrofitting solvers (paper §4.2–4.5).

Two solvers are provided:

* :meth:`RetroSolver.solve_optimization` — the **RO** variant.  It minimises
  the convex objective Ψ(W) (Eq. 4) via the fixed-point iteration of Eq. 10,
  using the complement-relation optimisation of Eq. 15 so that the dense
  "dissimilarity" term never has to be materialised.
* :meth:`RetroSolver.solve_series` — the **RN** variant.  It iterates the
  bounded series of Eq. 11 (with the precomputation of Eq. 16); every
  iteration renormalises the rows, which keeps the series bounded for any
  non-negative hyperparameter setting.

A relation's dissimilarity term lives on its source rows only: every other
row's coefficient is zero.  The full-matrix solvers therefore apply each
relation's term to those rows alone, relation by relation in the same
order and with the same per-row operations as a dense update over all
rows, which makes the restriction bit-exact: skipping a row only skips
subtracting a zero.  The per-relation state follows the same rule — node
weights, out-degrees and adjacencies are held per source, never as dense
length-n vectors or n×n matrices.

Both solvers additionally have slow, loop-based reference implementations
(:meth:`RetroSolver.solve_optimization_naive`,
:meth:`RetroSolver.solve_series_naive`) that follow the per-vector update
equations (Eq. 8 / Eq. 9) literally; the test-suite checks that matrix and
naive versions agree, which guards the vectorised code against index bugs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from repro.errors import ConvexityError, RetrofitError
from repro.retrofit.extraction import ExtractionResult
from repro.retrofit.hyperparams import (
    DerivedWeights,
    RetroHyperparameters,
    build_directed_relations,
    check_convexity,
)
from repro.retrofit.loss import category_centroids, relational_loss

_EPSILON = 1e-12


@dataclass
class SolverReport:
    """Bookkeeping of one retrofitting run.

    ``mode`` records how the solve was started: ``"cold"`` (from ``W0``),
    ``"warm"`` (from a caller-provided ``W_init``), ``"subset"`` (only
    ``n_active`` rows iterated) or ``"warm+subset"`` — the incremental
    maintenance path.  ``cold_runtime_seconds`` can be filled in by callers
    that also measured a cold solve; :attr:`speedup_vs_cold` then reports
    the incremental speedup.
    """

    method: str
    iterations: int
    runtime_seconds: float
    converged: bool
    convexity_margin: float | None = None
    shift_history: list[float] = field(default_factory=list)
    loss_history: list[float] = field(default_factory=list)
    mode: str = "cold"
    n_active: int | None = None
    cold_runtime_seconds: float | None = None

    @property
    def speedup_vs_cold(self) -> float | None:
        """``cold_runtime_seconds / runtime_seconds`` when both are known."""
        if self.cold_runtime_seconds is None or self.runtime_seconds <= 0:
            return None
        return self.cold_runtime_seconds / self.runtime_seconds


class RetroSolver:
    """Relational retrofitting over an extraction result and a base matrix ``W0``."""

    def __init__(
        self,
        extraction: ExtractionResult,
        base_matrix: np.ndarray,
        hyperparams: RetroHyperparameters | None = None,
        enforce_convexity: bool = False,
    ) -> None:
        self.extraction = extraction
        self.base_matrix = np.asarray(base_matrix, dtype=np.float64)
        if self.base_matrix.ndim != 2:
            raise RetrofitError("base matrix must be two-dimensional")
        if self.base_matrix.shape[0] != len(extraction):
            raise RetrofitError(
                f"base matrix has {self.base_matrix.shape[0]} rows but the "
                f"extraction holds {len(extraction)} text values"
            )
        self.hyperparams = hyperparams or RetroHyperparameters()
        self.n_values, self.dimension = self.base_matrix.shape
        self.directed = build_directed_relations(
            extraction.relation_groups, self.n_values
        )
        self.weights = DerivedWeights(self.hyperparams, self.n_values, self.directed)
        self._centroids: np.ndarray | None = None
        self.is_convex, self.convexity_margin = check_convexity(
            self.hyperparams, self.directed, self.n_values, weights=self.weights
        )
        if enforce_convexity and not self.is_convex:
            raise ConvexityError(
                "hyperparameters violate the convexity condition "
                f"(margin {self.convexity_margin:.4f}); lower delta or raise alpha"
            )
        self._build_sparse_structures()

    @property
    def centroids(self) -> np.ndarray:
        """The per-node category centroid matrix ``c`` (Eq. 5).

        Built on first access: only a solve with β > 0 and the loss read
        it, so a β = 0 solver never holds this n×d matrix.
        """
        if self._centroids is None:
            self._centroids = category_centroids(
                self.base_matrix, self.extraction.categories
            )
        return self._centroids

    # ------------------------------------------------------------------ #
    # shared precomputation
    # ------------------------------------------------------------------ #
    @staticmethod
    def _inverse_index(index: int) -> int:
        """Directed relations come in (forward, inverted) pairs."""
        return index + 1 if index % 2 == 0 else index - 1

    def _build_sparse_structures(self) -> None:
        # per-relation csr adjacency matrices, built lazily (see
        # _relation_adjacency): only the RO delta term needs them
        self._adjacency = [None] * len(self.directed)
        # relations with the same target set share one target sum per
        # iteration (see _target_sum): same gather, same sum, same bits
        target_sets: dict[bytes, int] = {}
        self._target_group: list[int] = []
        # each relation's source rows as a slice when they are contiguous
        # (most are: extraction numbers one column's values consecutively),
        # so its term updates a view instead of a gather and a scatter
        self._source_rows: list[slice | np.ndarray] = []
        for relation in self.directed:
            key = relation.target_indices.tobytes()
            self._target_group.append(target_sets.setdefault(key, len(target_sets)))
            sources = relation.source_indices
            contiguous = sources.size and sources[-1] - sources[0] + 1 == sources.size
            self._source_rows.append(
                slice(int(sources[0]), int(sources[-1]) + 1) if contiguous else sources
            )
        self._delta_pair_constants = [
            self.weights.delta_ro[index]
            + self.weights.delta_ro[self._inverse_index(index)]
            for index in range(len(self.directed))
        ]

    def _pair_matrix(self, values: list[np.ndarray] | None) -> sparse.csr_matrix:
        """An n×n matrix over every directed pair, ``values`` per relation
        in pair order (ones when ``None``)."""
        n = self.n_values
        if not self.directed:
            return sparse.csr_matrix((n, n))
        rows = np.concatenate([relation.source_rows for relation in self.directed])
        cols = np.concatenate([relation.target_rows for relation in self.directed])
        if values is None:
            data = np.ones(rows.size, dtype=np.float64)
        else:
            data = np.concatenate(values)
        return sparse.csr_matrix((data, (rows, cols)), shape=(n, n))

    # The three n×n pair matrices are built on first use: an RO solve
    # needs only the symmetric one, an RN solve only the directed one.
    @cached_property
    def _gamma_matrix_symmetric(self) -> sparse.csr_matrix:
        """``γ^r_i + γ^r'_j`` on every pair ``(i, j)`` (RO, Eq. 10)."""
        # the inverse relation holds the same pairs reversed, in the same
        # order, so its pair weights line up with this relation's
        return self._pair_matrix([
            self.weights.gamma_pair_weights(index)
            + self.weights.gamma_pair_weights(self._inverse_index(index))
            for index in range(len(self.directed))
        ])

    @cached_property
    def _gamma_matrix_directed(self) -> sparse.csr_matrix:
        """``γ^r_i`` on every pair ``(i, j)`` (RN, Eq. 11)."""
        return self._pair_matrix([
            self.weights.gamma_pair_weights(index)
            for index in range(len(self.directed))
        ])

    @cached_property
    def _support(self) -> sparse.csr_matrix:
        """Structural (unweighted) adjacency union, used by the k-hop
        affected-row search of the incremental path."""
        return self._pair_matrix(None)

    def _relation_adjacency(self, index: int) -> sparse.csr_matrix:
        """The (lazily built, cached) 0/1 adjacency of one directed relation.

        Only the relation's source rows are stored: row ``p`` belongs to
        node ``source_indices[p]``.  Each row holds the same entries in the
        same order as the row of the full n×n adjacency, so a product with
        it is bit-identical to that row of the full product.
        """
        if self._adjacency[index] is None:
            relation = self.directed[index]
            ones = np.ones(len(relation), dtype=np.float64)
            self._adjacency[index] = sparse.csr_matrix(
                (ones, (relation.source_positions, relation.target_rows)),
                shape=(relation.n_sources, self.n_values),
            )
        return self._adjacency[index]

    def _target_sum(
        self, matrix: np.ndarray, index: int, sums: dict[int, np.ndarray]
    ) -> np.ndarray:
        """Σ of the target vectors of relation ``index``, memoised in ``sums``
        per distinct target set."""
        group = self._target_group[index]
        if group not in sums:
            sums[group] = matrix[self.directed[index].target_indices].sum(axis=0)
        return sums[group]

    # ------------------------------------------------------------------ #
    # public entry points
    # ------------------------------------------------------------------ #
    def solve(
        self,
        method: str = "series",
        iterations: int | None = None,
        track_loss: bool = False,
        tolerance: float = 1e-5,
        initial_matrix: np.ndarray | None = None,
        frozen_rows: np.ndarray | None = None,
        W_init: np.ndarray | None = None,
        active_rows: np.ndarray | None = None,
    ) -> tuple[np.ndarray, SolverReport]:
        """Run one of the solvers.

        ``method`` is ``"series"`` (RN, default, 10 iterations) or
        ``"optimization"`` (RO, 20 iterations), matching the paper's setup.
        ``W_init`` warm-starts the iteration from a previous solution
        instead of ``W0`` (``initial_matrix`` is the historical alias);
        ``frozen_rows`` is a boolean mask of rows that must not move and
        ``active_rows`` restricts each iteration to a row subset (everything
        outside is implicitly frozen) — the combination is the incremental
        maintenance fast path.
        """
        if method in ("series", "rn", "RN"):
            return self.solve_series(
                iterations=iterations or 10,
                track_loss=track_loss,
                tolerance=tolerance,
                initial_matrix=initial_matrix,
                frozen_rows=frozen_rows,
                W_init=W_init,
                active_rows=active_rows,
            )
        if method in ("optimization", "ro", "RO"):
            return self.solve_optimization(
                iterations=iterations or 20,
                track_loss=track_loss,
                tolerance=tolerance,
                initial_matrix=initial_matrix,
                frozen_rows=frozen_rows,
                W_init=W_init,
                active_rows=active_rows,
            )
        raise RetrofitError(f"unknown solver method {method!r}")

    # ------------------------------------------------------------------ #
    # incremental-solve helpers
    # ------------------------------------------------------------------ #
    def affected_rows(
        self, seed_rows, hops: int = 2, frontier_degree_cap: float | None = None
    ) -> np.ndarray:
        """Rows within ``hops`` relation steps of ``seed_rows``, ascending.

        Walks the structural union of all relation adjacencies (both
        directions).  This is the active set of an incremental solve: rows
        farther than ``hops`` from a change keep their converged values,
        because their update equations only reference their immediate
        neighbourhood (plus weak, size-normalised dissimilarity terms).

        ``frontier_degree_cap`` stops the walk from expanding *through*
        high-degree hub rows: a hub reached by the walk joins the result
        (it gets re-solved), but only rows with total degree at or below
        the cap propagate the frontier further.  A single changed
        neighbour perturbs a hub by ``O(1/degree)``, so the hub's own
        neighbourhood only sees a second-order effect — without the cap,
        one new row that references a popular value drags in most of the
        graph.
        """
        seeds = np.unique(np.asarray(list(seed_rows), dtype=np.int64))
        if seeds.size and (seeds.min() < 0 or seeds.max() >= self.n_values):
            raise RetrofitError("seed rows outside the extraction's index range")
        reach = np.zeros(self.n_values, dtype=bool)
        reach[seeds] = True
        propagates = None
        if frontier_degree_cap is not None:
            propagates = self.degree_vector() <= float(frontier_degree_cap)
        frontier = reach.copy()
        for _ in range(max(0, int(hops))):
            if not frontier.any():
                break
            expanded = self._support @ frontier.astype(np.float64)
            new = (expanded > 0) & ~reach
            if not new.any():
                break
            reach |= new
            frontier = new if propagates is None else new & propagates
        return np.nonzero(reach)[0]

    def degree_vector(self) -> np.ndarray:
        """Total relational degree of every row (both edge directions)."""
        return np.asarray(self._support.sum(axis=1)).ravel()

    def influence_rows(
        self,
        initial_perturbation: np.ndarray,
        threshold: float = 1e-4,
        max_hops: int = 10,
    ) -> np.ndarray:
        """Rows whose solution is expected to move more than ``threshold``.

        Propagates a per-row perturbation estimate (relative vector
        movement, 1.0 = completely new) through the linearised update
        operator ``M = D⁻¹·Γ`` — row ``i`` of the fixed point moves by
        roughly its γ-weight share of its neighbours' movements.  The
        propagation runs until the carried perturbation everywhere falls
        below ``threshold`` (or ``max_hops``), and returns every row whose
        accumulated estimate exceeds it.  Unlike a plain k-hop BFS this
        keeps following strong chains (a value that lost/gained a large
        share of its neighbourhood) while damping out hub values whose
        relative change is negligible.
        """
        p = np.asarray(initial_perturbation, dtype=np.float64)
        if p.shape != (self.n_values,):
            raise RetrofitError(
                f"perturbation vector has shape {p.shape}, expected "
                f"({self.n_values},)"
            )
        gamma_row_sum = np.asarray(
            self._gamma_matrix_symmetric.sum(axis=1)
        ).ravel()
        scale = self.weights.alpha_vec + self.weights.beta_vec + gamma_row_sum
        scale = np.where(scale < _EPSILON, 1.0, scale)
        accumulated = p.copy()
        for _ in range(max(0, int(max_hops))):
            p = (self._gamma_matrix_symmetric @ p) / scale
            if float(p.max(initial=0.0)) < threshold:
                break
            accumulated = np.maximum(accumulated, p)
        return np.nonzero(accumulated >= threshold)[0]

    def _resolve_active(
        self,
        active_rows: np.ndarray | None,
        frozen_rows: np.ndarray | None,
    ) -> np.ndarray | None:
        """The sorted row subset to iterate, or ``None`` for all rows."""
        if active_rows is None:
            return None
        rows = np.unique(np.asarray(active_rows, dtype=np.int64))
        if rows.size and (rows.min() < 0 or rows.max() >= self.n_values):
            raise RetrofitError("active rows outside the extraction's index range")
        if frozen_rows is not None:
            mask = np.asarray(frozen_rows, dtype=bool)
            rows = rows[~mask[rows]]
        return rows

    @staticmethod
    def _solve_mode(warm: bool, rows: np.ndarray | None) -> str:
        parts = [part for part, on in (("warm", warm), ("subset", rows is not None)) if on]
        return "+".join(parts) if parts else "cold"

    class _SlicedStructures:
        """Row-subset views and running sums for a subset solve.

        Sliced once per solve (not per iteration): csr row selection
        copies data, so hoisting it out of the iteration loop matters for
        the incremental path.  The per-relation dissimilarity terms are
        collapsed into stacked matrices so one iteration performs two
        small matmuls instead of a Python loop over every relation, and
        the per-relation target sums are maintained incrementally across
        iterations — only active rows change, so each update costs
        ``O(|targets ∩ active|·d)``, keeping the whole iteration
        proportional to the active set instead of the full extraction.
        """

        def __init__(
            self, solver: "RetroSolver", rows: np.ndarray, relation_indices, node_weights
        ) -> None:
            self.gamma_symmetric = solver._gamma_matrix_symmetric[rows]
            self.gamma_directed = solver._gamma_matrix_directed[rows]
            self._solver = solver
            self._rows = rows
            #: Relations with a non-zero dissimilarity term, in stack order.
            self.used = list(relation_indices)
            #: ``(len(used), |rows|)`` per-node dissimilarity weights.
            self.weight_stack = (
                np.vstack([node_weights[index][rows] for index in self.used])
                if self.used
                else np.zeros((0, rows.size))
            )
            self._target_stack: np.ndarray | None = None
            # concatenated (targets ∩ rows) of every used relation plus the
            # stack row each chunk belongs to, for one-shot advance()
            inters = [
                np.intersect1d(
                    solver.directed[index].target_indices, rows, assume_unique=True
                )
                for index in self.used
            ]
            self._inter_rows = (
                np.concatenate(inters) if inters else np.empty(0, np.int64)
            )
            self._inter_segments = (
                np.concatenate(
                    [np.full(inter.size, pos, dtype=np.int64)
                     for pos, inter in enumerate(inters)]
                )
                if inters
                else np.empty(0, np.int64)
            )
            self._combined_adjacency: sparse.csr_matrix | None = None

        def target_stack(self, matrix: np.ndarray) -> np.ndarray:
            """``(len(used), d)`` — Σ of target vectors per used relation."""
            if self._target_stack is None:
                self._target_stack = np.vstack([
                    matrix[self._solver.directed[index].target_indices].sum(axis=0)
                    for index in self.used
                ]) if self.used else np.zeros((0, matrix.shape[1]))
            return self._target_stack

        def combined_adjacency(self, constants) -> sparse.csr_matrix:
            """``Σ_r c_r · A_r`` restricted to the active rows (RO only)."""
            if self._combined_adjacency is None:
                n = self._solver.n_values
                parts = []
                for index in self.used:
                    relation = self._solver.directed[index]
                    parts.append((
                        np.full(len(relation), constants[index]),
                        relation.source_rows,
                        relation.target_rows,
                    ))
                if parts:
                    vals = np.concatenate([p[0] for p in parts])
                    srcs = np.concatenate([p[1] for p in parts])
                    dsts = np.concatenate([p[2] for p in parts])
                    combined = sparse.csr_matrix((vals, (srcs, dsts)), shape=(n, n))
                else:
                    combined = sparse.csr_matrix((n, n))
                self._combined_adjacency = combined[self._rows]
            return self._combined_adjacency

        def advance(self, previous: np.ndarray, updated: np.ndarray) -> None:
            """Fold one iteration's active-row changes into the target sums."""
            if self._target_stack is None or not self._inter_rows.size:
                return
            deltas = updated[self._inter_rows] - previous[self._inter_rows]
            np.add.at(self._target_stack, self._inter_segments, deltas)

    # ------------------------------------------------------------------ #
    # single full-matrix steps (the incremental path's residual check)
    # ------------------------------------------------------------------ #
    def _base_term(self, rows: np.ndarray | None = None) -> np.ndarray:
        """``α_i·W0_i + β_i·c_i`` for ``rows`` (all rows when ``None``).

        Not cached: a solve computes it once and drops it when it returns.
        """
        alpha, base = self.weights.alpha_vec, self.base_matrix
        if rows is not None:
            alpha, base = alpha[rows], base[rows]
        term = alpha[:, None] * base
        if self.hyperparams.beta > 0:
            beta, centroids = self.weights.beta_vec, self.centroids
            if rows is not None:
                beta, centroids = beta[rows], centroids[rows]
            term = term + beta[:, None] * centroids
        return term

    def _cached_ro_denominator(self) -> np.ndarray:
        if not hasattr(self, "_ro_denominator_cache"):
            gamma_row_sum = np.asarray(
                self._gamma_matrix_symmetric.sum(axis=1)
            ).ravel()
            denominator = (
                self.weights.alpha_vec + self.weights.beta_vec + gamma_row_sum
            )
            for index, relation in enumerate(self.directed):
                constant = self._delta_pair_constants[index]
                if constant == 0.0:
                    continue
                # |E˜r(i)| = n_targets(r) - od_r(i) on the source rows
                complement_size = relation.n_targets - relation.out_degree_counts
                denominator[relation.source_indices] -= constant * complement_size
            self._ro_denominator_cache = np.where(
                np.abs(denominator) < _EPSILON, 1.0, denominator
            )
        return self._ro_denominator_cache

    def _full_stacks(self, method: str):
        """Cached ``(used, weight_stack, combined_adjacency)`` for full steps."""
        key = f"_full_stacks_{method}"
        if not hasattr(self, key):
            if method == "RO":
                used = [
                    index
                    for index in range(len(self.directed))
                    if self._delta_pair_constants[index] != 0.0
                ]
                weights = [self._delta_pair_constants[index] for index in used]
                combined = None
                if used:
                    vals = np.concatenate([
                        np.full(
                            len(self.directed[index]),
                            self._delta_pair_constants[index],
                        )
                        for index in used
                    ])
                    srcs = np.concatenate(
                        [self.directed[index].source_rows for index in used]
                    )
                    dsts = np.concatenate(
                        [self.directed[index].target_rows for index in used]
                    )
                    combined = sparse.csr_matrix(
                        (vals, (srcs, dsts)), shape=(self.n_values, self.n_values)
                    )
            else:
                used = [
                    index
                    for index, node in enumerate(self.weights.delta_rn_source)
                    if node.any()
                ]
                weights = [self.weights.delta_rn_source[index] for index in used]
                combined = None
            # dense (len(used), n) weight rows, zero off each relation's sources
            stack = np.zeros((len(used), self.n_values))
            for position, (index, values) in enumerate(zip(used, weights)):
                stack[position, self.directed[index].source_indices] = values
            setattr(self, key, (used, stack, combined))
        return getattr(self, key)

    def _target_stack_for(self, used, matrix: np.ndarray) -> np.ndarray:
        if not used:
            return np.zeros((0, matrix.shape[1]))
        return np.vstack([
            matrix[self.directed[index].target_indices].sum(axis=0)
            for index in used
        ])

    def full_step(self, matrix: np.ndarray, method: str = "series") -> np.ndarray:
        """One full Jacobi update step of the chosen solver, from ``matrix``.

        Used by incremental maintenance as a residual check: after a
        subset solve, one full step measures how far *every* row still
        wants to move — rows past the tolerance join the next subset
        round.  The dissimilarity terms run in stacked form (one matmul),
        so a step costs far less than an iteration of the naive loop.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if method in ("optimization", "ro", "RO"):
            used, stack, combined = self._full_stacks("RO")
            relational = self._gamma_matrix_symmetric @ matrix
            if used:
                targets = self._target_stack_for(used, matrix)
                relational = relational - (
                    stack.T @ targets - combined @ matrix
                )
            numerator = self._base_term() + relational
            updated = numerator / self._cached_ro_denominator()[:, None]
            return self._repair_rows(updated, matrix)
        used, stack, _ = self._full_stacks("RN")
        relational = self._gamma_matrix_directed @ matrix
        if used:
            targets = self._target_stack_for(used, matrix)
            relational = relational - stack.T @ targets
        numerator = self._base_term() + relational
        updated = self._normalise(numerator)
        return self._repair_rows(updated, matrix)

    def residual_shift(self, matrix: np.ndarray, method: str = "series") -> np.ndarray:
        """Per-row relative movement of one more full step from ``matrix``."""
        stepped = self.full_step(matrix, method)
        norms = np.linalg.norm(matrix, axis=1)
        safe = np.where(norms < _EPSILON, 1.0, norms)
        return np.linalg.norm(stepped - matrix, axis=1) / safe

    def _sliced_for_ro(self, rows: np.ndarray) -> "_SlicedStructures":
        # single source of the used-relation list and weight rows: the
        # cached full stacks (also used by full_step's residual checks)
        used, stack, _ = self._full_stacks("RO")
        weights = {index: stack[position] for position, index in enumerate(used)}
        return self._SlicedStructures(self, rows, used, weights)

    def _sliced_for_rn(self, rows: np.ndarray) -> "_SlicedStructures":
        used, stack, _ = self._full_stacks("RN")
        weights = {index: stack[position] for position, index in enumerate(used)}
        return self._SlicedStructures(self, rows, used, weights)

    def _relational_term_ro(
        self,
        matrix: np.ndarray,
        rows: np.ndarray | None,
        sliced: "_SlicedStructures | None" = None,
    ) -> np.ndarray:
        """The RO relational numerator term (Eq. 10 + Eq. 15), per row subset.

        Without ``sliced``, relation ``r`` subtracts
        ``c_r · (Σ_targets − A_r[sources] @ W)`` from its source rows only.
        """
        if sliced is not None:
            relational = sliced.gamma_symmetric @ matrix
            if sliced.used:
                relational = relational - (
                    sliced.weight_stack.T @ sliced.target_stack(matrix)
                    - sliced.combined_adjacency(self._delta_pair_constants) @ matrix
                )
            return relational
        relational = self._gamma_matrix_symmetric @ matrix
        target_sums: dict[int, np.ndarray] = {}
        for index, constant in enumerate(self._delta_pair_constants):
            if constant == 0.0:
                continue
            term = self._relation_adjacency(index) @ matrix
            np.subtract(self._target_sum(matrix, index, target_sums), term, out=term)
            term *= constant
            relational[self._source_rows[index]] -= term
        return relational

    def _relational_term_rn(
        self,
        matrix: np.ndarray,
        rows: np.ndarray | None,
        sliced: "_SlicedStructures | None" = None,
    ) -> np.ndarray:
        """The RN relational numerator term (Eq. 11 + Eq. 16), per row subset.

        Without ``sliced``, relation ``r`` subtracts ``δ_r[i] · Σ_targets``
        from each of its source rows ``i`` only.
        """
        if sliced is not None:
            relational = sliced.gamma_directed @ matrix
            if sliced.used:
                relational = relational - (
                    sliced.weight_stack.T @ sliced.target_stack(matrix)
                )
            return relational
        relational = self._gamma_matrix_directed @ matrix
        target_sums: dict[int, np.ndarray] = {}
        for index, delta_source in enumerate(self.weights.delta_rn_source):
            if not delta_source.any():
                continue
            target_sum = self._target_sum(matrix, index, target_sums)
            relational[self._source_rows[index]] -= np.multiply.outer(
                delta_source, target_sum
            )
        return relational

    def _starting_matrix(
        self, initial_matrix: np.ndarray | None, normalise: bool
    ) -> np.ndarray:
        if initial_matrix is None:
            matrix = self.base_matrix.copy()
        else:
            matrix = np.asarray(initial_matrix, dtype=np.float64).copy()
            if matrix.shape != self.base_matrix.shape:
                raise RetrofitError(
                    "initial matrix must have the same shape as the base matrix"
                )
        return self._normalise(matrix) if normalise else matrix

    @staticmethod
    def _apply_frozen(
        updated: np.ndarray,
        reference: np.ndarray | None,
        frozen_rows: np.ndarray | None,
    ) -> np.ndarray:
        if frozen_rows is None:
            return updated
        mask = np.asarray(frozen_rows, dtype=bool)
        updated[mask] = reference[mask]
        return updated

    def solve_optimization(
        self,
        iterations: int = 20,
        track_loss: bool = False,
        tolerance: float = 1e-5,
        initial_matrix: np.ndarray | None = None,
        frozen_rows: np.ndarray | None = None,
        W_init: np.ndarray | None = None,
        active_rows: np.ndarray | None = None,
    ) -> tuple[np.ndarray, SolverReport]:
        """The RO solver: fixed-point iteration of Eq. 10 with Eq. 15.

        ``W_init`` warm-starts from a previous solution; ``active_rows``
        restricts every iteration to a row subset (the incremental path) —
        each iteration then costs ``O(nnz(Γ[rows]) + |rows|·d)`` instead of
        touching the whole matrix.
        """
        start = time.perf_counter()
        if W_init is not None:
            initial_matrix = W_init
        matrix = self._starting_matrix(initial_matrix, normalise=False)
        frozen_reference = None if frozen_rows is None else matrix.copy()
        rows = self._resolve_active(active_rows, frozen_rows)
        safe_denominator = self._cached_ro_denominator()
        base_term = self._base_term(rows)
        shift_history: list[float] = []
        loss_history: list[float] = []
        if track_loss:
            loss_history.append(self._loss(matrix))
        performed = 0
        converged = False
        sliced = None if rows is None else self._sliced_for_ro(rows)
        for _ in range(iterations):
            relational = self._relational_term_ro(matrix, rows, sliced)
            if rows is None:
                # the fresh relational term becomes the update in place
                relational += base_term
                updated = np.divide(
                    relational, safe_denominator[:, None], out=relational
                )
            else:
                updated = matrix.copy()
                numerator = base_term + relational
                updated[rows] = numerator / safe_denominator[rows][:, None]
            updated = self._repair_rows(updated, matrix)
            updated = self._apply_frozen(updated, frozen_reference, frozen_rows)
            shift = self._max_shift(updated, matrix, rows)
            shift_history.append(shift)
            if sliced is not None:
                sliced.advance(matrix, updated)
            matrix = updated
            performed += 1
            if track_loss:
                loss_history.append(self._loss(matrix))
            if shift < tolerance:
                converged = True
                break
        report = SolverReport(
            method="RO",
            iterations=performed,
            runtime_seconds=time.perf_counter() - start,
            converged=converged or performed == iterations,
            convexity_margin=self.convexity_margin,
            shift_history=shift_history,
            loss_history=loss_history,
            mode=self._solve_mode(initial_matrix is not None, rows),
            n_active=None if rows is None else int(rows.size),
        )
        return matrix, report

    def solve_series(
        self,
        iterations: int = 10,
        track_loss: bool = False,
        tolerance: float = 1e-5,
        initial_matrix: np.ndarray | None = None,
        frozen_rows: np.ndarray | None = None,
        W_init: np.ndarray | None = None,
        active_rows: np.ndarray | None = None,
    ) -> tuple[np.ndarray, SolverReport]:
        """The RN solver: bounded series of Eq. 11 with Eq. 16.

        ``W_init``/``active_rows`` behave as in :meth:`solve_optimization`;
        a warm start resumes the (row-normalised) series from the previous
        solution instead of the normalised ``W0``.
        """
        start = time.perf_counter()
        if W_init is not None:
            initial_matrix = W_init
        rows = self._resolve_active(active_rows, frozen_rows)
        # a subset solve must leave inactive rows bit-for-bit untouched, so
        # only the active rows are (re)normalised — a warm start comes from
        # a previous series solution whose rows are already unit length
        matrix = self._starting_matrix(initial_matrix, normalise=rows is None)
        if rows is not None and rows.size:
            matrix[rows] = self._normalise(matrix[rows])
        frozen_reference = None if frozen_rows is None else matrix.copy()
        base_term = self._base_term(rows)
        shift_history: list[float] = []
        loss_history: list[float] = []
        if track_loss:
            loss_history.append(self._loss(matrix))
        performed = 0
        converged = False
        sliced = None if rows is None else self._sliced_for_rn(rows)
        for _ in range(iterations):
            relational = self._relational_term_rn(matrix, rows, sliced)
            if rows is None:
                # the fresh relational term becomes the update in place
                relational += base_term
                updated = self._normalise(relational, out=relational)
            else:
                updated = matrix.copy()
                updated[rows] = self._normalise(base_term + relational)
            updated = self._repair_rows(updated, matrix)
            updated = self._apply_frozen(updated, frozen_reference, frozen_rows)
            shift = self._max_shift(updated, matrix, rows)
            shift_history.append(shift)
            if sliced is not None:
                sliced.advance(matrix, updated)
            matrix = updated
            performed += 1
            if track_loss:
                loss_history.append(self._loss(matrix))
            if shift < tolerance:
                converged = True
                break
        report = SolverReport(
            method="RN",
            iterations=performed,
            runtime_seconds=time.perf_counter() - start,
            converged=converged or performed == iterations,
            convexity_margin=self.convexity_margin,
            shift_history=shift_history,
            loss_history=loss_history,
            mode=self._solve_mode(initial_matrix is not None, rows),
            n_active=None if rows is None else int(rows.size),
        )
        return matrix, report

    # ------------------------------------------------------------------ #
    # naive reference implementations (used by the test-suite)
    # ------------------------------------------------------------------ #
    def solve_optimization_naive(self, iterations: int = 20) -> np.ndarray:
        """Literal per-vector implementation of Eq. 8 (Jacobi-style updates)."""
        matrix = self.base_matrix.copy()
        # membership sets and dense weight views built once: the views are
        # properties that build new vectors on every access
        source_sets = [
            set(relation.source_indices.tolist()) for relation in self.directed
        ]
        centroids = self.centroids
        gamma_node = self.weights.gamma_node
        for _ in range(iterations):
            updated = matrix.copy()
            for i in range(self.n_values):
                numerator = (
                    self.weights.alpha_vec[i] * self.base_matrix[i]
                    + self.weights.beta_vec[i] * centroids[i]
                )
                denominator = self.weights.alpha_vec[i] + self.weights.beta_vec[i]
                for index, relation in enumerate(self.directed):
                    inverse = self._inverse_index(index)
                    gamma_i = gamma_node[index][i]
                    delta_const = (
                        self.weights.delta_ro[index] + self.weights.delta_ro[inverse]
                    )
                    related_targets = relation.target_rows[relation.source_rows == i]
                    for j in related_targets:
                        weight = gamma_i + gamma_node[inverse][j]
                        numerator = numerator + weight * matrix[j]
                        denominator += weight
                    if delta_const > 0.0 and i in source_sets[index]:
                        unrelated = np.setdiff1d(
                            relation.target_indices, related_targets
                        )
                        for k in unrelated:
                            numerator = numerator - delta_const * matrix[k]
                            denominator -= delta_const
                if abs(denominator) < _EPSILON:
                    continue
                updated[i] = numerator / denominator
            matrix = updated
        return matrix

    def solve_series_naive(self, iterations: int = 10) -> np.ndarray:
        """Literal per-vector implementation of Eq. 9 (Jacobi-style updates)."""
        matrix = self._normalise(self.base_matrix.copy())
        centroids = self.centroids
        gamma_node = self.weights.gamma_node
        delta_rn_node = self.weights.delta_rn_node
        for _ in range(iterations):
            updated = matrix.copy()
            for i in range(self.n_values):
                numerator = (
                    self.weights.alpha_vec[i] * self.base_matrix[i]
                    + self.weights.beta_vec[i] * centroids[i]
                )
                for index, relation in enumerate(self.directed):
                    gamma_i = gamma_node[index][i]
                    delta_i = delta_rn_node[index][i]
                    related_targets = relation.target_rows[relation.source_rows == i]
                    for j in related_targets:
                        numerator = numerator + gamma_i * matrix[j]
                    if delta_i > 0.0:
                        for k in relation.target_indices:
                            numerator = numerator - delta_i * matrix[k]
                norm = float(np.linalg.norm(numerator))
                if norm > _EPSILON:
                    updated[i] = numerator / norm
            matrix = updated
        return matrix

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _loss(self, matrix: np.ndarray) -> float:
        return relational_loss(matrix, self.base_matrix, self.centroids, self.weights)

    @staticmethod
    def _normalise(matrix: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        norms = np.linalg.norm(matrix, axis=1)
        safe = np.where(norms < _EPSILON, 1.0, norms)
        return np.divide(matrix, safe[:, None], out=out)

    @staticmethod
    def _max_shift(
        updated: np.ndarray, previous: np.ndarray, rows: np.ndarray | None
    ) -> float:
        """The largest row movement of one iteration (over ``rows`` only)."""
        if rows is None:
            changed = updated - previous
        else:
            changed = updated[rows] - previous[rows]
        # row norms as np.linalg.norm computes them, sqrt(Σ x²), with the
        # squares written in place instead of into a second temporary
        np.multiply(changed, changed, out=changed)
        return float(np.max(np.sqrt(np.add.reduce(changed, axis=1)), initial=0.0))

    @staticmethod
    def _repair_rows(updated: np.ndarray, previous: np.ndarray) -> np.ndarray:
        """Replace non-finite rows with their previous value.

        Non-convex hyperparameter settings (large δ) can make single rows
        diverge; the paper notes such configurations "drift away" — keeping
        the previous value keeps the grid-search experiments well-defined
        without masking the quality degradation.
        """
        bad = ~np.all(np.isfinite(updated), axis=1)
        if bad.any():
            updated = updated.copy()
            updated[bad] = previous[bad]
        return updated
