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

Incremental maintenance keeps one solver alive across writes.  A delta
that only adds values and pairs advances it (:meth:`RetroSolver.advance`)
instead of rebuilding it, and the advanced solver is indistinguishable
from a fresh ``RetroSolver`` over the new extraction: the same relation
arrays in the same pair order, the same weights and convexity margin, and
γ pair matrices with byte-identical CSR arrays, because every patched row
is fed to the CSR conversion in the order a full build feeds it.  A subset
solve writes its active rows in place, with the same per-row arithmetic a
full-matrix update would apply to them.  :class:`ResidualBound` replaces
the incremental path's per-round full residual step: it carries, per row,
the residual of its last exact evaluation and an upper bound on how far
the step's inputs have moved since, and it evaluates exactly — with
:meth:`RetroSolver.full_step`'s row arithmetic — only the rows the bound
cannot keep below the tolerance.  Its offender set therefore equals the
full check's.

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
    locate_sorted,
    pair_key,
)
from repro.retrofit.loss import category_centroids, relational_loss

_EPSILON = 1e-12


def _splice_rows(
    matrix: sparse.csr_matrix, n: int, rows: np.ndarray, patch: sparse.csr_matrix
) -> sparse.csr_matrix:
    """``matrix`` grown to ``n × n`` with ``rows`` (ascending) replaced by
    ``patch``'s rows.

    Both inputs are canonical (sorted columns, no duplicates), so the
    result is too; every other row keeps its entries byte for byte, copied
    as the runs between the replaced rows.
    """
    old = matrix.shape[0]
    cut = matrix.indptr[np.minimum(rows, old)]
    resume = matrix.indptr[np.minimum(rows + 1, old)]
    indices, data = [], []
    kept = 0
    for row in range(rows.size):
        lo, hi = patch.indptr[row], patch.indptr[row + 1]
        indices += [matrix.indices[kept:cut[row]], patch.indices[lo:hi]]
        data += [matrix.data[kept:cut[row]], patch.data[lo:hi]]
        kept = resume[row]
    indices.append(matrix.indices[kept:])
    data.append(matrix.data[kept:])
    lengths = np.zeros(n, dtype=np.int64)
    lengths[:old] = np.diff(matrix.indptr)
    lengths[rows] = np.diff(patch.indptr)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return sparse.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), indptr), shape=(n, n)
    )


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
    """Relational retrofitting over an extraction result and a base matrix ``W0``.

    A solver made by :meth:`advance` records ``changed_rows``, the rows
    whose own weights or pairs changed (the delta's endpoints and new
    rows), and ``patched_rows``, every row of the symmetric γ matrix it
    patched; both are ``None`` on a solver built from scratch.
    """

    changed_rows: np.ndarray | None = None
    patched_rows: np.ndarray | None = None

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
        self._derive()
        if enforce_convexity and not self.is_convex:
            raise ConvexityError(
                "hyperparameters violate the convexity condition "
                f"(margin {self.convexity_margin:.4f}); lower delta or raise alpha"
            )

    def _derive(self) -> None:
        """Weights, convexity and per-relation bookkeeping of ``directed``."""
        self.weights = DerivedWeights(self.hyperparams, self.n_values, self.directed)
        self._centroids: np.ndarray | None = None
        self.is_convex, self.convexity_margin = check_convexity(
            self.hyperparams, self.directed, self.n_values, weights=self.weights
        )
        self._build_sparse_structures()

    def advance(
        self,
        extraction: ExtractionResult,
        base_matrix: np.ndarray,
        added_pairs: dict[str, np.ndarray],
    ) -> "RetroSolver | None":
        """The solver of the next version, after a delta that removes nothing.

        ``extraction`` and ``base_matrix`` are the new version's: the old
        rows keep their indices and the new values append at the end.
        ``added_pairs`` maps a relation group to the index pairs the delta
        inserted into it.  Untouched relations are shared; a touched one
        gets its new pairs at their sorted positions, with merged source
        and target sets and out-degrees.  Weights are recomputed, and the γ
        pair matrices built so far are patched on the rows whose entries
        changed.  The result equals ``RetroSolver(extraction, base_matrix,
        self.hyperparams)``.  ``None`` means the delta creates a relation
        group, and the caller builds that solver instead.
        """
        forward = {
            relation.name: index
            for index, relation in enumerate(self.directed)
            if index % 2 == 0
        }
        if any(name not in forward for name in added_pairs):
            return None
        solver = object.__new__(RetroSolver)
        solver.extraction = extraction
        solver.base_matrix = np.asarray(base_matrix, dtype=np.float64)
        solver.hyperparams = self.hyperparams
        solver.n_values, solver.dimension = solver.base_matrix.shape
        if solver.n_values != len(extraction) or solver.n_values < self.n_values:
            raise RetrofitError("advance needs the grown extraction and its base matrix")
        directed = list(self.directed)
        endpoints = [np.arange(self.n_values, solver.n_values, dtype=np.int64)]
        for name, pairs in added_pairs.items():
            pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
            if not pairs.size:
                continue
            index = forward[name]
            # the forward keys are in pair order; an inverse relation keeps
            # its pairs in the forward order, so both insert at these positions
            positions = np.searchsorted(
                directed[index].pair_keys(), pair_key(pairs[:, 0], pairs[:, 1])
            )
            directed[index] = directed[index].with_pairs(positions, pairs[:, 0], pairs[:, 1])
            directed[index + 1] = directed[index + 1].with_pairs(
                positions, pairs[:, 1], pairs[:, 0]
            )
            endpoints.append(pairs.ravel())
        solver.directed = directed
        if "_row_categories" in self.__dict__:
            codes = {name: code for code, name in enumerate(extraction.categories)}
            solver._row_categories = np.concatenate([
                self._row_categories,
                np.array([
                    codes[extraction.records[row].category]
                    for row in range(self.n_values, solver.n_values)
                ], dtype=np.int64),
            ])
        solver._derive()
        changed = solver.changed_rows = np.unique(np.concatenate(endpoints))
        solver.patched_rows = changed
        has_directed = "_gamma_matrix_directed" in self.__dict__
        has_symmetric = "_gamma_matrix_symmetric" in self.__dict__
        if not (has_directed or has_symmetric):
            return solver
        entries = solver._pair_entries(changed)
        local, targets, own, partner = entries
        n, shape = solver.n_values, (changed.size, solver.n_values)
        if has_directed:
            solver._gamma_matrix_directed = _splice_rows(
                self._gamma_matrix_directed, n, changed,
                sparse.csr_matrix((own, (local, targets)), shape=shape),
            )
        if has_symmetric:
            gamma = _splice_rows(
                self._gamma_matrix_symmetric, n, changed,
                sparse.csr_matrix((own + partner, (local, targets)), shape=shape),
            )
            rows = solver._patch_neighbour_entries(gamma, changed, entries)
            solver._gamma_matrix_symmetric = gamma
            solver.patched_rows = rows
            if "_gamma_row_sums" in self.__dict__:
                sums = np.zeros(n)
                sums[: self.n_values] = self._gamma_row_sums
                sums[rows] = np.asarray(gamma[rows].sum(axis=1)).ravel()
                solver._gamma_row_sums = sums
        return solver

    def _patch_neighbour_entries(
        self, gamma: sparse.csr_matrix, changed: np.ndarray, entries
    ) -> np.ndarray:
        """Rewrite the entries ``(i, j)`` of the symmetric γ matrix that read
        a changed row ``j``'s weights, in every other row ``i``.

        ``entries`` are the changed rows' pairs (:meth:`_pair_entries`):
        the pair ``(j, i)`` of relation ``r'`` is the pair ``(i, j)`` of its
        inverse ``r``, whose term is ``γ^r_i + γ^r'_j``.  Such a row keeps
        its structure, so the values go in place.  A full build sums the
        terms of an entry shared by several relations in CSR order; two
        terms add the same either way, so a row with an entry of three or
        more terms is rebuilt instead.  Returns every row patched.
        """
        local, targets, own, partner = entries
        outside = ~np.isin(targets, changed)
        keys = pair_key(targets[outside], changed[local[outside]])
        terms = partner[outside] + own[outside]
        order = np.argsort(keys, kind="stable")
        keys, terms = keys[order], terms[order]
        keys, first, counts = np.unique(keys, return_index=True, return_counts=True)
        values = terms[first]
        pairs = counts == 2
        values[pairs] += terms[first[pairs] + 1]
        rows = np.unique(keys >> 32)
        crowded = np.unique(keys[counts > 2] >> 32)
        if crowded.size:
            keep = ~np.isin(keys >> 32, crowded)
            keys, values = keys[keep], values[keep]
            rebuilt = self._pair_entries(crowded)
            gamma_rows = sparse.csr_matrix(
                (rebuilt[2] + rebuilt[3], (rebuilt[0], rebuilt[1])),
                shape=(crowded.size, self.n_values),
            )
            spliced = _splice_rows(gamma, self.n_values, crowded, gamma_rows)
            gamma.data, gamma.indices, gamma.indptr = (
                spliced.data, spliced.indices, spliced.indptr
            )
        # each key's position among its row's sorted columns
        own_rows = np.unique(keys >> 32)
        starts = gamma.indptr[own_rows]
        lengths = gamma.indptr[own_rows + 1] - starts
        picks = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        picks += np.arange(picks.size)
        segment = pair_key(np.repeat(np.arange(own_rows.size), lengths), gamma.indices[picks])
        wanted = pair_key(np.searchsorted(own_rows, keys >> 32), keys & 0xFFFFFFFF)
        gamma.data[picks[np.searchsorted(segment, wanted)]] = values
        return np.union1d(changed, rows)

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
        #: One target index array per distinct target set.
        self._target_sets: list[np.ndarray] = []
        # each relation's source rows as a slice when they are contiguous
        # (most are: extraction numbers one column's values consecutively),
        # so its term updates a view instead of a gather and a scatter
        self._source_rows: list[slice | np.ndarray] = []
        for relation in self.directed:
            key = relation.target_indices.tobytes()
            if key not in target_sets:
                target_sets[key] = len(target_sets)
                self._target_sets.append(relation.target_indices)
            self._target_group.append(target_sets[key])
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
        self._used: dict[str, list[int]] = {}
        self._weight_stacks: dict[str, np.ndarray] = {}

    def _pair_matrix(self, values: list[np.ndarray]) -> sparse.csr_matrix:
        """An n×n matrix over every directed pair, ``values`` per relation
        in pair order."""
        n = self.n_values
        if not self.directed:
            return sparse.csr_matrix((n, n))
        rows = np.concatenate([relation.source_rows for relation in self.directed])
        cols = np.concatenate([relation.target_rows for relation in self.directed])
        return sparse.csr_matrix((np.concatenate(values), (rows, cols)), shape=(n, n))

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
    def _row_categories(self) -> np.ndarray:
        """Every row's category, as its position in ``extraction.categories``."""
        codes = np.zeros(self.n_values, dtype=np.int64)
        for code, indices in enumerate(self.extraction.categories.values()):
            codes[indices] = code
        return codes

    def _by_category(self, rows: np.ndarray) -> dict[int, np.ndarray]:
        """Positions in ``rows`` (ascending) grouped by the rows' category."""
        codes = self._row_categories[rows]
        order = np.argsort(codes, kind="stable")
        present, starts = np.unique(codes[order], return_index=True)
        ends = np.append(starts[1:], order.size)
        return {
            int(code): order[start:end]
            for code, start, end in zip(present, starts, ends)
        }

    def _category_of(self, indices: np.ndarray) -> int:
        """The category of a relation's sources or targets (one per side)."""
        return int(self._row_categories[indices[0]]) if indices.size else -1

    @cached_property
    def _gamma_row_sums(self) -> np.ndarray:
        """Row sums of the symmetric γ matrix (RO denominator, influence scale)."""
        return np.asarray(self._gamma_matrix_symmetric.sum(axis=1)).ravel()

    def _pair_entries(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every pair whose source is in ``rows``, in γ pair matrix order.

        Returns each pair's source as a position in ``rows``, its target,
        ``γ^r`` of the source and ``γ^r'`` of the target (``r'`` the
        inverse relation).  A full build (:meth:`_pair_matrix`) feeds each
        row its entries relation by relation, and within a relation in
        pair order, which is ascending target order.  These entries come
        in the same sequence per row, from each relation's sorted pair
        keys, so the CSR conversion sorts and sums them to the same bits.
        """
        local, columns, own, partner = [], [], [], []
        by_category = self._by_category(rows)
        for index, relation in enumerate(self.directed):
            positions = by_category.get(self._category_of(relation.source_indices))
            if positions is None:
                continue
            keys = relation.pair_keys()
            mine = rows[positions]
            low = np.searchsorted(keys, mine << 32)
            counts = np.searchsorted(keys, (mine + 1) << 32) - low
            hit = counts > 0
            if not hit.any():
                continue
            low, counts = low[hit], counts[hit]
            picks = np.repeat(low - (np.cumsum(counts) - counts), counts)
            picks += np.arange(picks.size)
            targets = keys[picks] & 0xFFFFFFFF
            at = np.searchsorted(relation.source_indices, mine[hit])
            own.append(np.repeat(self.weights.gamma_source[index][at], counts))
            inverse = self._inverse_index(index)
            at = np.searchsorted(self.directed[inverse].source_indices, targets)
            partner.append(self.weights.gamma_source[inverse][at])
            local.append(np.repeat(positions[hit], counts))
            columns.append(targets)
        if not local:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0), np.empty(0)
        return (
            np.concatenate(local), np.concatenate(columns),
            np.concatenate(own), np.concatenate(partner),
        )

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
    def degree_vector(self) -> np.ndarray:
        """Total relational degree of every row (both edge directions): the
        sum of its out-degrees over the directed relations."""
        degree = np.zeros(self.n_values)
        for relation in self.directed:
            degree[relation.source_indices] += relation.out_degree_counts
        return degree

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
        scale = self.weights.alpha_vec + self.weights.beta_vec + self._gamma_row_sums
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
        the incremental path.  Only the γ matrix of the solve's method is
        sliced.  The per-relation dissimilarity terms are collapsed into
        stacked matrices so one iteration performs two small matmuls
        instead of a Python loop over every relation.  The target sums are
        kept once per distinct target set and maintained incrementally
        across iterations — only active rows change, so each update costs
        ``O(|targets ∩ active|·d)``, keeping the whole iteration
        proportional to the active set instead of the full extraction.
        """

        def __init__(self, solver: "RetroSolver", rows: np.ndarray, method: str) -> None:
            self._solver = solver
            ro = method == "RO"
            gamma = solver._gamma_matrix_symmetric if ro else solver._gamma_matrix_directed
            self.gamma = gamma[rows]
            #: Relations with a non-zero dissimilarity term, in stack order.
            self.used = solver._used_relations(method)
            #: ``(len(used), |rows|)`` per-node dissimilarity weights.
            self.weight_stack = solver._weight_rows(method, rows)
            #: ``Σ_r c_r · A_r`` restricted to the active rows (RO only).
            self.combined = solver._combined_ro[rows] if ro and self.used else None
            self._groups, self._stack_rows = solver._target_groups(self.used)
            self._sums: np.ndarray | None = None
            # (targets ∩ rows) of every distinct target set, as positions in
            # ``rows``, plus the group each chunk belongs to
            by_category = solver._by_category(rows)
            positions = []
            for group in self._groups:
                targets = solver._target_sets[group]
                mine = by_category.get(solver._category_of(targets), np.empty(0, np.int64))
                positions.append(mine[locate_sorted(targets, rows[mine])[1]])
            self._inter = (
                np.concatenate(positions) if positions else np.empty(0, np.int64)
            )
            self._inter_groups = np.repeat(
                np.arange(len(positions)), [chunk.size for chunk in positions]
            )

        def target_stack(self, matrix: np.ndarray) -> np.ndarray:
            """``(len(used), d)`` — Σ of target vectors per used relation."""
            if self._sums is None:
                self._sums = self._solver._group_sums(matrix, self._groups)
            return self._sums[self._stack_rows]

        def advance(self, previous: np.ndarray, updated: np.ndarray) -> None:
            """Fold one iteration's changes into the target sums; both hold
            the active rows, before and after."""
            if self._sums is None or not self._inter.size:
                return
            deltas = updated[self._inter] - previous[self._inter]
            np.add.at(self._sums, self._inter_groups, deltas)

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
            denominator = (
                self.weights.alpha_vec + self.weights.beta_vec + self._gamma_row_sums
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

    def _used_relations(self, method: str) -> list[int]:
        """Relations with a non-zero dissimilarity term under ``method``."""
        if method not in self._used:
            if method == "RO":
                used = [
                    index
                    for index, constant in enumerate(self._delta_pair_constants)
                    if constant != 0.0
                ]
            else:
                used = [
                    index
                    for index, node in enumerate(self.weights.delta_rn_source)
                    if node.any()
                ]
            self._used[method] = used
        return self._used[method]

    def _weight_rows(self, method: str, rows: np.ndarray | None) -> np.ndarray:
        """``(len(used), |rows|)`` dissimilarity weights, zero off each
        relation's sources (every row when ``rows`` is ``None``)."""
        if method not in self._weight_stacks:
            used = self._used_relations(method)
            stack = np.zeros((len(used), self.n_values))
            for position, index in enumerate(used):
                sources = self.directed[index].source_indices
                if method == "RO":
                    stack[position, sources] = self._delta_pair_constants[index]
                else:
                    stack[position, sources] = self.weights.delta_rn_source[index]
            self._weight_stacks[method] = stack
        stack = self._weight_stacks[method]
        return stack if rows is None else stack[:, rows]

    @cached_property
    def _combined_ro(self) -> sparse.csr_matrix | None:
        """``Σ_r c_r · A_r`` over the RO-used relations (``None`` if none)."""
        used = self._used_relations("RO")
        if not used:
            return None
        vals = np.concatenate([
            np.full(len(self.directed[index]), self._delta_pair_constants[index])
            for index in used
        ])
        srcs = np.concatenate([self.directed[index].source_rows for index in used])
        dsts = np.concatenate([self.directed[index].target_rows for index in used])
        return sparse.csr_matrix(
            (vals, (srcs, dsts)), shape=(self.n_values, self.n_values)
        )

    def _target_groups(self, used: list[int]) -> tuple[list[int], np.ndarray]:
        """The distinct target sets of ``used`` and, per used relation, the
        position of its set among them."""
        groups = sorted({self._target_group[index] for index in used})
        position = {group: at for at, group in enumerate(groups)}
        return groups, np.array(
            [position[self._target_group[index]] for index in used], dtype=np.intp
        )

    def _group_sums(self, matrix: np.ndarray, groups: list[int]) -> np.ndarray:
        """Σ of the target vectors of each target set in ``groups``."""
        if not groups:
            return np.zeros((0, matrix.shape[1]))
        return np.vstack([matrix[self._target_sets[group]].sum(axis=0) for group in groups])

    def _step(
        self,
        matrix: np.ndarray,
        method: str,
        rows: np.ndarray | None = None,
        targets: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One full Jacobi step from ``matrix`` on ``rows`` (all when ``None``).

        Returns the stepped rows and the norm of each row's numerator.
        ``targets`` are the used relations' target sums, in stack order.
        A row subset gets the same bits as the same rows of the full step:
        each product row reads only its own operand row (a single row is
        evaluated twice, so the dense product stays a matrix product).
        """
        if rows is not None and rows.size == 1:
            stepped, norms = self._step(matrix, method, np.repeat(rows, 2), targets)
            return stepped[:1], norms[:1]
        key = "RO" if method in ("optimization", "ro", "RO") else "RN"
        used = self._used_relations(key)
        gamma = self._gamma_matrix_symmetric if key == "RO" else self._gamma_matrix_directed
        current = matrix if rows is None else matrix[rows]
        relational = (gamma if rows is None else gamma[rows]) @ matrix
        if used:
            if targets is None:
                groups, stack_rows = self._target_groups(used)
                targets = self._group_sums(matrix, groups)[stack_rows]
            dissimilar = self._weight_rows(key, rows).T @ targets
            if key == "RO":
                combined = self._combined_ro if rows is None else self._combined_ro[rows]
                dissimilar = dissimilar - combined @ matrix
            relational = relational - dissimilar
        numerator = self._base_term(rows) + relational
        norms = np.linalg.norm(numerator, axis=1)
        if key == "RO":
            denominator = self._cached_ro_denominator()
            updated = numerator / (denominator if rows is None else denominator[rows])[:, None]
        else:
            safe = np.where(norms < _EPSILON, 1.0, norms)
            updated = np.divide(numerator, safe[:, None])
        return self._repair_rows(updated, current), norms

    def full_step(self, matrix: np.ndarray, method: str = "series") -> np.ndarray:
        """One full Jacobi update step of the chosen solver, from ``matrix``.

        The incremental path's residual check: after a subset solve, one
        full step measures how far *every* row still wants to move — rows
        past the tolerance join the next subset round.  The dissimilarity
        terms run in stacked form (one matmul), so a step costs far less
        than an iteration of the naive loop.
        """
        return self._step(np.asarray(matrix, dtype=np.float64), method)[0]

    def residual_shift(self, matrix: np.ndarray, method: str = "series") -> np.ndarray:
        """Per-row relative movement of one more full step from ``matrix``."""
        stepped = self.full_step(matrix, method)
        norms = np.linalg.norm(matrix, axis=1)
        safe = np.where(norms < _EPSILON, 1.0, norms)
        return np.linalg.norm(stepped - matrix, axis=1) / safe

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
            relational = sliced.gamma @ matrix
            if sliced.used:
                relational = relational - (
                    sliced.weight_stack.T @ sliced.target_stack(matrix)
                    - sliced.combined @ matrix
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
            relational = sliced.gamma @ matrix
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
        sliced = None if rows is None else self._SlicedStructures(self, rows, "RO")
        for _ in range(iterations):
            relational = self._relational_term_ro(matrix, rows, sliced)
            if rows is None:
                # the fresh relational term becomes the update in place
                relational += base_term
                updated = np.divide(
                    relational, safe_denominator[:, None], out=relational
                )
                updated = self._repair_rows(updated, matrix)
                updated = self._apply_frozen(updated, frozen_reference, frozen_rows)
                shift = self._max_shift(updated, matrix, rows)
                matrix = updated
            else:
                numerator = base_term + relational
                fresh = numerator / safe_denominator[rows][:, None]
                shift = self._advance_rows(matrix, rows, fresh, sliced)
            shift_history.append(shift)
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
        sliced = None if rows is None else self._SlicedStructures(self, rows, "RN")
        for _ in range(iterations):
            relational = self._relational_term_rn(matrix, rows, sliced)
            if rows is None:
                # the fresh relational term becomes the update in place
                relational += base_term
                updated = self._normalise(relational, out=relational)
                updated = self._repair_rows(updated, matrix)
                updated = self._apply_frozen(updated, frozen_reference, frozen_rows)
                shift = self._max_shift(updated, matrix, rows)
                matrix = updated
            else:
                fresh = self._normalise(base_term + relational)
                shift = self._advance_rows(matrix, rows, fresh, sliced)
            shift_history.append(shift)
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

    def _advance_rows(
        self,
        matrix: np.ndarray,
        rows: np.ndarray,
        fresh: np.ndarray,
        sliced: "_SlicedStructures",
    ) -> float:
        """Write a subset iteration's ``fresh`` active rows into ``matrix``
        in place; returns the iteration's largest row movement.

        Frozen rows never enter the active set, so nothing else can move.
        """
        current = matrix[rows]
        fresh = self._repair_rows(fresh, current)
        shift = self._max_shift(fresh, current, None)
        sliced.advance(current, fresh)
        matrix[rows] = fresh
        return shift

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


class ResidualBound:
    """Certifies the incremental path's residual checks without full steps.

    A check asks which rows one more full Jacobi step would move by more
    than ``tolerance`` of their norm (:meth:`RetroSolver.residual_shift`).
    The bound answers it while evaluating only a few rows.  For every row
    ``i`` it carries, from the row's last exact evaluation, the residual
    ``rho[i]``, the norm ``unorm[i]`` of its step numerator ``u_i`` and its
    own norm, plus ``drift[i]``, an upper bound on how far ``u_i`` has
    moved since.  A row that moves is evaluated exactly, so its own vector
    is the one of its last evaluation.  The drift adds, per change:

    * ``Γ·‖ΔW‖`` over the moved rows, with ``Γ`` the symmetric γ matrix
      (it dominates the directed one entrywise); RO adds ``C = Σ c_r·A_r``;
    * ``w_r[i]·‖ΔT_r‖`` for relation ``r``'s fresh target sums, with
      ``w_r`` its dissimilarity weight (``δ_r`` in RN, ``c_r`` in RO);
    * ``|Δw_r[i]|·‖T_r‖`` when a relation's weights move (RO adds
      ``|Δc_r|·od_r(i)·max‖W‖``, and ``|ΔΓ_ij|·‖W_j‖`` on patched γ rows);
    * ``β_i·‖Δc_i‖`` for a category that gained values.

    An RN step is ``u/‖u‖``, which moves by at most ``2·drift/‖u‖``; an RO
    step is ``u/den``, which moves by at most ``drift/|den'| +
    ‖u‖·|1/den' − 1/den|``.  A row whose resulting bound stays at or below
    ``tolerance·(1 − 1e-9)`` cannot be an offender.  Every other row — the
    moved rows, the delta's endpoints and new rows, and rows whose bound
    ran out — is evaluated with :meth:`RetroSolver.full_step`'s row
    arithmetic, so the offender set equals the full check's.  A fresh
    state evaluates every row once.
    """

    #: Relative slack between a certified bound and the tolerance; it
    #: absorbs the rounding of the bound's own arithmetic.
    MARGIN = 1e-9

    def __init__(self, method: str) -> None:
        self.method = "RO" if method in ("optimization", "ro", "RO") else "RN"
        self.reset()

    def reset(self) -> None:
        """Forget every row: the next check evaluates all of them."""
        self._rho: np.ndarray | None = None
        self._unorm = self._wnorm = self._drift = self._den = None
        self._sums: np.ndarray | None = None  # per relation, at the last check
        self._must: list[np.ndarray] = []
        #: Rows evaluated exactly at each check of the current version.
        self.evaluated: list[int] = []

    def rebase(self, previous: RetroSolver, solver: RetroSolver, matrix: np.ndarray) -> None:
        """Carry the state over ``previous.advance(...) → solver``.

        ``matrix`` is the new version's starting matrix.  The changed rows
        are evaluated at the next check; weight moves on the other rows are
        folded into their drift.
        """
        self.evaluated = []
        if self._rho is None:
            return
        n_old, n = previous.n_values, solver.n_values
        grow = n - n_old
        self._rho = np.concatenate([self._rho, np.full(grow, np.inf)])
        self._unorm = np.concatenate([self._unorm, np.zeros(grow)])
        self._wnorm = np.concatenate([self._wnorm, np.ones(grow)])
        self._drift = np.concatenate([self._drift, np.zeros(grow)])
        if self._den is not None:
            self._den = np.concatenate([self._den, np.ones(grow)])
        self._must.append(solver.changed_rows)
        totals = np.linalg.norm(self._sums, axis=1)
        drift = self._drift
        if self.method == "RN":
            # δ_r[i] = δ / (n_targets(r)·(|R_i| + 1)) moves off the changed
            # rows only where a relation's target count did
            for index, (old, new) in enumerate(zip(previous.directed, solver.directed)):
                if old is new or not totals[index]:
                    continue
                at = np.searchsorted(new.source_indices, old.source_indices)
                moved = np.abs(
                    solver.weights.delta_rn_source[index][at]
                    - previous.weights.delta_rn_source[index]
                )
                drift[old.source_indices] += moved * totals[index]
        else:
            norms = np.linalg.norm(matrix, axis=1)
            largest = float(norms.max(initial=0.0))
            for index, old in enumerate(previous.directed):
                change = abs(
                    solver._delta_pair_constants[index]
                    - previous._delta_pair_constants[index]
                )
                if change:
                    drift[old.source_indices] += change * (
                        totals[index] + old.out_degree_counts * largest
                    )
            rows = solver.patched_rows[solver.patched_rows < n_old]
            if rows.size:
                moved = (
                    solver._gamma_matrix_symmetric[rows][:, :n_old]
                    - previous._gamma_matrix_symmetric[rows]
                )
                drift[rows] += abs(moved) @ norms[:n_old]
        if solver.hyperparams.beta > 0:
            old_categories = previous.extraction.categories
            for category, members in solver.extraction.categories.items():
                before = old_categories.get(category, [])
                if len(members) == len(before) or not before:
                    continue
                shift = np.linalg.norm(
                    _centroid(solver.base_matrix, members)
                    - _centroid(previous.base_matrix, before)
                )
                drift[before] += solver.weights.beta_vec[before] * shift

    def offenders(
        self,
        solver: RetroSolver,
        matrix: np.ndarray,
        tolerance: float,
        moved: np.ndarray | None = None,
        before: np.ndarray | None = None,
    ) -> np.ndarray:
        """The rows whose residual exceeds ``tolerance``, ascending.

        ``moved`` are the rows that changed since the last check and
        ``before`` their values then.  Equals ``np.nonzero(
        solver.residual_shift(matrix) > tolerance)[0]``.
        """
        used = solver._used_relations(self.method)
        groups, stack_rows = solver._target_groups(used)
        group_sums = solver._group_sums(matrix, groups)
        targets = group_sums[stack_rows]
        sums = np.zeros((len(solver.directed), matrix.shape[1]))
        sums[used] = targets
        if self._rho is None or self._rho.size != solver.n_values:
            rows = np.arange(solver.n_values)
            stepped, unorm = solver._step(matrix, self.method, None, targets)
            current = matrix
            self._drift = np.zeros(solver.n_values)
            self._rho = np.zeros(solver.n_values)
            self._unorm = np.zeros(solver.n_values)
            self._wnorm = np.ones(solver.n_values)
            if self.method == "RO":
                self._den = np.ones(solver.n_values)
        else:
            self._accumulate(solver, matrix, sums, used, moved, before)
            rows = np.union1d(
                np.concatenate(self._must + [np.asarray(
                    [] if moved is None else moved, dtype=np.int64
                )]),
                np.nonzero(~self._certified(solver, tolerance))[0],
            ).astype(np.int64)
            stepped, unorm = solver._step(matrix, self.method, rows, targets)
            current = matrix[rows]
        norms = np.linalg.norm(current, axis=1)
        safe = np.where(norms < _EPSILON, 1.0, norms)
        residual = np.linalg.norm(stepped - current, axis=1) / safe
        self._rho[rows] = residual
        self._unorm[rows] = unorm
        self._wnorm[rows] = safe
        self._drift[rows] = 0.0
        if self.method == "RO":
            self._den[rows] = solver._cached_ro_denominator()[rows]
        self._sums = sums
        self._must = []
        self.evaluated.append(int(rows.size))
        return rows[residual > tolerance]

    def _accumulate(self, solver, matrix, sums, used, moved, before) -> None:
        """Fold the changes since the last check into every row's drift."""
        drift = self._drift
        shifts = np.linalg.norm(sums - self._sums, axis=1)[used]
        if shifts.any():
            drift += solver._weight_rows(self.method, None).T @ shifts
        if moved is None or not moved.size:
            return
        steps = np.zeros(solver.n_values)
        steps[moved] = np.linalg.norm(matrix[moved] - before, axis=1)
        drift += solver._gamma_matrix_symmetric @ steps
        if self.method == "RO" and solver._combined_ro is not None:
            drift += solver._combined_ro @ steps

    def _certified(self, solver: RetroSolver, tolerance: float) -> np.ndarray:
        """Rows whose bound keeps them at or below the tolerance."""
        drift = self._drift
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.method == "RN":
                scale = self._unorm * self._wnorm
                usable = np.isfinite(scale) & (drift <= 0.5 * self._unorm)
                growth = np.where(drift > 0, 2.0 * drift / scale, 0.0)
            else:
                live = solver._cached_ro_denominator()
                usable = np.isfinite(self._unorm)
                growth = (
                    drift / np.abs(live)
                    + self._unorm * np.abs(1.0 / live - 1.0 / self._den)
                ) / self._wnorm
        bound = self._rho + np.where(usable, growth, np.inf)
        return bound <= tolerance * (1.0 - self.MARGIN)


def _centroid(base_matrix: np.ndarray, members) -> np.ndarray:
    """One category's centroid, as :func:`category_centroids` computes it."""
    rows = base_matrix[members]
    non_zero = ~np.all(rows == 0.0, axis=1)
    return (rows[non_zero] if non_zero.any() else rows).mean(axis=0)
