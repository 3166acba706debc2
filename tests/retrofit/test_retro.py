"""Tests for the RO and RN solvers: correctness against the naive reference,
convergence behaviour, loss decrease, incremental freezing.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.errors import ConvexityError, RetrofitError
from repro.retrofit.extraction import extract_text_values
from repro.retrofit.hyperparams import RetroHyperparameters
from repro.retrofit.initialization import initialise_vectors
from repro.retrofit.loss import category_centroids, relational_loss
from repro.retrofit.retro import RetroSolver


@pytest.fixture(scope="module")
def toy_problem(toy_dataset):
    extraction = extract_text_values(toy_dataset.database)
    base = initialise_vectors(extraction, toy_dataset.embedding)
    return extraction, base.matrix


@pytest.fixture(scope="module")
def tmdb_problem(tmdb_extraction, tmdb_base):
    return tmdb_extraction, tmdb_base.matrix


class TestConstruction:
    def test_shape_validation(self, toy_problem):
        extraction, base = toy_problem
        with pytest.raises(RetrofitError):
            RetroSolver(extraction, base[:2])
        with pytest.raises(RetrofitError):
            RetroSolver(extraction, base.ravel())

    def test_enforce_convexity(self, toy_problem):
        extraction, base = toy_problem
        params = RetroHyperparameters(alpha=0.001, delta=10.0)
        with pytest.raises(ConvexityError):
            RetroSolver(extraction, base, params, enforce_convexity=True)

    def test_unknown_method(self, toy_problem):
        extraction, base = toy_problem
        solver = RetroSolver(extraction, base)
        with pytest.raises(RetrofitError):
            solver.solve(method="bogus")


class TestAgainstNaiveReference:
    @pytest.mark.parametrize("params", [
        RetroHyperparameters(alpha=1.0, beta=0.0, gamma=3.0, delta=3.0),
        RetroHyperparameters(alpha=1.0, beta=1.0, gamma=2.0, delta=0.0),
        RetroHyperparameters(alpha=2.0, beta=0.5, gamma=1.0, delta=1.0),
    ])
    def test_optimization_matches_naive(self, toy_problem, params):
        extraction, base = toy_problem
        solver = RetroSolver(extraction, base, params)
        matrix, report = solver.solve_optimization(iterations=6, tolerance=0.0)
        naive = solver.solve_optimization_naive(iterations=report.iterations)
        assert np.allclose(matrix, naive, atol=1e-8)

    @pytest.mark.parametrize("params", [
        RetroHyperparameters(alpha=1.0, beta=0.0, gamma=3.0, delta=1.0),
        RetroHyperparameters(alpha=1.0, beta=1.0, gamma=2.0, delta=0.0),
    ])
    def test_series_matches_naive(self, toy_problem, params):
        extraction, base = toy_problem
        solver = RetroSolver(extraction, base, params)
        matrix, report = solver.solve_series(iterations=6, tolerance=0.0)
        naive = solver.solve_series_naive(iterations=report.iterations)
        assert np.allclose(matrix, naive, atol=1e-8)


def _dense_reference_solve(solver, method, iterations, W_init=None, frozen_rows=None):
    """The dense per-relation update, a bitwise reference for the solvers'
    source-row restriction.

    Every relation term spans all n rows: a 0/1 source indicator, dense
    per-node weights, an n×n adjacency and a full base term with centroids.
    The loop mirrors the solver's (repair, freeze, no early stop).
    """
    n = solver.n_values
    weights = solver.weights
    directed = solver.directed
    gamma_node = weights.gamma_node
    delta_rn_node = weights.delta_rn_node

    def inverse(index):
        return index + 1 if index % 2 == 0 else index - 1

    def normalise(matrix):
        norms = np.linalg.norm(matrix, axis=1)
        return matrix / np.where(norms < 1e-12, 1.0, norms)[:, None]

    pair_rows = np.concatenate([r.source_rows for r in directed])
    pair_cols = np.concatenate([r.target_rows for r in directed])
    here = [gamma_node[i][r.source_rows] for i, r in enumerate(directed)]
    there = [gamma_node[inverse(i)][r.target_rows] for i, r in enumerate(directed)]
    gamma_symmetric = sparse.csr_matrix(
        (np.concatenate([a + b for a, b in zip(here, there)]), (pair_rows, pair_cols)),
        shape=(n, n),
    )
    gamma_directed = sparse.csr_matrix(
        (np.concatenate(here), (pair_rows, pair_cols)), shape=(n, n)
    )
    indicators, adjacencies, out_degrees = [], [], []
    for relation in directed:
        indicator = np.zeros(n)
        indicator[relation.source_indices] = 1.0
        indicators.append(indicator)
        out_degree = np.zeros(n)
        out_degree[relation.source_indices] = relation.out_degree_counts
        out_degrees.append(out_degree)
        adjacencies.append(sparse.csr_matrix(
            (np.ones(len(relation)), (relation.source_rows, relation.target_rows)),
            shape=(n, n),
        ))
    constants = [
        weights.delta_ro[i] + weights.delta_ro[inverse(i)] for i in range(len(directed))
    ]
    centroids = category_centroids(solver.base_matrix, solver.extraction.categories)
    base_term = (
        weights.alpha_vec[:, None] * solver.base_matrix
        + weights.beta_vec[:, None] * centroids
    )
    denominator = (
        weights.alpha_vec + weights.beta_vec
        + np.asarray(gamma_symmetric.sum(axis=1)).ravel()
    )
    for index, relation in enumerate(directed):
        if constants[index] != 0.0:
            denominator = denominator - constants[index] * (
                indicators[index] * relation.n_targets - out_degrees[index]
            )
    denominator = np.where(np.abs(denominator) < 1e-12, 1.0, denominator)

    start = solver.base_matrix if W_init is None else W_init
    matrix = start.copy() if method == "RO" else normalise(start)
    reference = matrix.copy()
    for _ in range(iterations):
        if method == "RO":
            relational = gamma_symmetric @ matrix
            for index, relation in enumerate(directed):
                if constants[index] == 0.0:
                    continue
                target_sum = matrix[relation.target_indices].sum(axis=0)
                relational = relational - constants[index] * (
                    indicators[index][:, None] * target_sum[None, :]
                    - adjacencies[index] @ matrix
                )
            updated = (base_term + relational) / denominator[:, None]
        else:
            relational = gamma_directed @ matrix
            for index, relation in enumerate(directed):
                if not delta_rn_node[index].any():
                    continue
                target_sum = matrix[relation.target_indices].sum(axis=0)
                relational = relational - (
                    delta_rn_node[index][:, None] * target_sum[None, :]
                )
            updated = normalise(base_term + relational)
        bad = ~np.all(np.isfinite(updated), axis=1)
        updated[bad] = matrix[bad]
        if frozen_rows is not None:
            updated[frozen_rows] = reference[frozen_rows]
        matrix = updated
    return matrix


class TestBitwiseAgainstDenseReference:
    """The source-row restriction must not reorder a single floating-point
    operation: outputs equal the dense per-relation update bit for bit.
    (The naive-reference tests above check the equations at 1e-8.)"""

    @pytest.mark.parametrize("method,params", [
        ("RO", RetroHyperparameters.paper_ro_default()),
        ("RN", RetroHyperparameters.paper_rn_default()),
        ("RO", RetroHyperparameters(alpha=2.0, beta=0.5, gamma=1.0, delta=1.0)),
        ("RN", RetroHyperparameters(alpha=1.0, beta=1.0, gamma=2.0, delta=0.5)),
    ], ids=["ro-paper", "rn-paper", "ro-beta", "rn-beta"])
    @pytest.mark.parametrize("start", ["cold", "w_init", "frozen_rows"])
    def test_solver_equals_dense_reference(self, tmdb_problem, method, params, start):
        extraction, base = tmdb_problem
        rng = np.random.default_rng(11)
        W_init = frozen = None
        if start == "w_init":
            W_init = base + 0.05 * rng.normal(size=base.shape)
        if start == "frozen_rows":
            frozen = rng.random(base.shape[0]) < 0.2
        solver = RetroSolver(extraction, base, params)
        solve = solver.solve_optimization if method == "RO" else solver.solve_series
        iterations = 8
        matrix, report = solve(
            iterations=iterations, tolerance=0.0, W_init=W_init, frozen_rows=frozen
        )
        assert report.iterations == iterations
        expected = _dense_reference_solve(solver, method, iterations, W_init, frozen)
        assert np.array_equal(matrix, expected)


def _reachable(root):
    """Every object reachable from ``root`` through attributes, containers
    and repro objects, with its attribute path."""
    seen, stack = set(), [(root, "solver")]
    while stack:
        value, path = stack.pop()
        if id(value) in seen or isinstance(value, (str, bytes, int, float)):
            continue
        seen.add(id(value))
        yield path, value
        if isinstance(value, dict):
            stack.extend((item, f"{path}[{key!r}]") for key, item in value.items())
        elif isinstance(value, (list, tuple)):
            stack.extend((item, f"{path}[{pos}]") for pos, item in enumerate(value))
        elif type(value).__module__.startswith("repro") and hasattr(value, "__dict__"):
            stack.extend((item, f"{path}.{name}") for name, item in vars(value).items())


class TestLeanSolverState:
    def test_no_dense_per_relation_state_after_ro_and_rn_solves(self, tmdb_problem):
        extraction, base = tmdb_problem
        n, d = base.shape
        for params, method in (
            (RetroHyperparameters.paper_ro_default(), "optimization"),
            (RetroHyperparameters.paper_rn_default(), "series"),
        ):
            solver = RetroSolver(extraction, base, params)
            solver.solve(method=method)
            offenders = []
            for path, value in _reachable(solver):
                if isinstance(value, np.ndarray) and value.shape == (n, d):
                    if value is not solver.base_matrix:
                        offenders.append(f"{path}: an n×d array")
                elif isinstance(value, (list, tuple)) and any(
                    (isinstance(item, np.ndarray) and item.shape == (n,))
                    or (sparse.issparse(item) and item.shape[0] == n)
                    for item in value
                ):
                    offenders.append(f"{path}: a list of length-n rows")
            assert not offenders, (method, sorted(offenders))


class TestOptimizationSolver:
    def test_loss_decreases_for_convex_configuration(self, toy_problem):
        extraction, base = toy_problem
        params = RetroHyperparameters(alpha=2.0, beta=1.0, gamma=2.0, delta=0.0)
        solver = RetroSolver(extraction, base, params)
        assert solver.is_convex
        _, report = solver.solve_optimization(iterations=15, track_loss=True)
        losses = report.loss_history
        assert losses[-1] <= losses[0]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_alpha_only_returns_base(self, toy_problem):
        extraction, base = toy_problem
        params = RetroHyperparameters(alpha=1.0, beta=0.0, gamma=0.0, delta=0.0)
        solver = RetroSolver(extraction, base, params)
        matrix, _ = solver.solve_optimization(iterations=5)
        assert np.allclose(matrix, base)

    def test_gamma_pulls_related_values_together(self, toy_problem):
        extraction, base = toy_problem
        amelie = extraction.index_of("movies.title", "amelie")
        france = extraction.index_of("countries.name", "france")
        before = np.linalg.norm(base[amelie] - base[france])
        solver = RetroSolver(
            extraction, base,
            RetroHyperparameters(alpha=1.0, beta=0.0, gamma=3.0, delta=0.5),
        )
        matrix, _ = solver.solve_optimization(iterations=20)
        after = np.linalg.norm(matrix[amelie] - matrix[france])
        assert after < before

    def test_result_is_finite(self, tmdb_problem):
        extraction, base = tmdb_problem
        solver = RetroSolver(
            extraction, base, RetroHyperparameters.paper_ro_default()
        )
        matrix, _ = solver.solve_optimization(iterations=10)
        assert np.all(np.isfinite(matrix))

    def test_report_fields(self, toy_problem):
        extraction, base = toy_problem
        solver = RetroSolver(extraction, base)
        matrix, report = solver.solve_optimization(iterations=5)
        assert report.method == "RO"
        assert report.iterations <= 5
        assert report.runtime_seconds >= 0.0
        assert len(report.shift_history) == report.iterations
        assert matrix.shape == base.shape


class TestSeriesSolver:
    def test_rows_are_unit_length(self, tmdb_problem):
        extraction, base = tmdb_problem
        solver = RetroSolver(
            extraction, base, RetroHyperparameters.paper_rn_default()
        )
        matrix, _ = solver.solve_series(iterations=10)
        norms = np.linalg.norm(matrix, axis=1)
        non_zero = norms > 1e-9
        assert np.allclose(norms[non_zero], 1.0)

    def test_oov_rows_receive_meaningful_vectors(self, tmdb_problem, tmdb_base):
        extraction, base = tmdb_problem
        solver = RetroSolver(
            extraction, base, RetroHyperparameters.paper_rn_default()
        )
        matrix, _ = solver.solve_series(iterations=10)
        oov_norms = np.linalg.norm(matrix[tmdb_base.oov_mask], axis=1)
        # most OOV values participate in relations and must move off zero
        # (a few OOV values are only related to other OOV values and can
        # legitimately stay at the origin)
        assert np.mean(oov_norms > 1e-6) > 0.75

    def test_series_converges_quickly_on_toy(self, toy_problem):
        extraction, base = toy_problem
        solver = RetroSolver(extraction, base)
        _, report = solver.solve_series(iterations=50, tolerance=1e-8)
        assert report.converged
        assert report.iterations < 50

    def test_stability_for_large_delta(self, toy_problem):
        extraction, base = toy_problem
        params = RetroHyperparameters(alpha=1.0, beta=0.0, gamma=1.0, delta=8.0)
        solver = RetroSolver(extraction, base, params)
        matrix, _ = solver.solve_series(iterations=20)
        assert np.all(np.isfinite(matrix))

    def test_report_fields(self, toy_problem):
        extraction, base = toy_problem
        solver = RetroSolver(extraction, base)
        _, report = solver.solve_series(iterations=5)
        assert report.method == "RN"


class TestIterationBudget:
    @pytest.mark.parametrize("method, default", [("series", 10), ("optimization", 20)])
    def test_none_picks_the_default_and_zero_runs_no_iteration(
        self, toy_problem, method, default
    ):
        extraction, base = toy_problem
        solver = RetroSolver(extraction, base)
        _, report = solver.solve(method=method, iterations=None, tolerance=0.0)
        assert report.iterations == default
        _, report = solver.solve(method=method, iterations=0)
        assert report.iterations == 0
        assert report.shift_history == []
        assert not report.converged

    @pytest.mark.parametrize("method", ["series", "optimization"])
    def test_a_budget_that_runs_out_is_not_convergence(self, toy_problem, method):
        extraction, base = toy_problem
        solver = RetroSolver(extraction, base)
        _, report = solver.solve(method=method, iterations=5, tolerance=0.0)
        assert report.iterations == 5
        assert report.shift_history[-1] > 0.0
        assert not report.converged


class TestNoRelationsProblem:
    def test_solver_without_relations_uses_alpha_and_beta_only(self):
        from repro.db.database import Database, build_table_schema
        from repro.db.types import ColumnType
        from repro.text.embedding import WordEmbedding

        db = Database()
        db.create_table(build_table_schema(
            "words", [("id", ColumnType.INTEGER), ("w", ColumnType.TEXT)],
            primary_key="id"))
        for i, word in enumerate(["alpha", "beta", "gamma"], start=1):
            db.insert("words", {"id": i, "w": word})
        embedding = WordEmbedding.from_dict({
            "alpha": np.array([1.0, 0.0]),
            "beta": np.array([0.0, 1.0]),
            "gamma": np.array([1.0, 1.0]),
        })
        extraction = extract_text_values(db)
        base = initialise_vectors(extraction, embedding)
        params = RetroHyperparameters(alpha=1.0, beta=1.0, gamma=3.0, delta=1.0)
        solver = RetroSolver(extraction, base.matrix, params)
        matrix, _ = solver.solve_optimization(iterations=10)
        centroids = category_centroids(base.matrix, extraction.categories)
        # without relations |R_i| = 0, so beta_i = beta and the fixed point is
        # the alpha/beta-weighted mean of the original vector and the centroid
        expected = (base.matrix + centroids) / 2.0
        assert np.allclose(matrix, expected, atol=1e-6)


class TestFrozenRows:
    def test_frozen_rows_do_not_move(self, toy_problem):
        extraction, base = toy_problem
        solver = RetroSolver(extraction, base)
        frozen = np.zeros(len(extraction), dtype=bool)
        frozen[0] = True
        initial = base.copy()
        matrix, _ = solver.solve_series(
            iterations=5, initial_matrix=initial, frozen_rows=frozen
        )
        normalised_first = initial[0] / (np.linalg.norm(initial[0]) + 1e-12)
        assert np.allclose(matrix[0], normalised_first)

    def test_initial_matrix_shape_checked(self, toy_problem):
        extraction, base = toy_problem
        solver = RetroSolver(extraction, base)
        with pytest.raises(RetrofitError):
            solver.solve_series(initial_matrix=base[:2])


class TestLossFunction:
    def test_loss_is_zero_for_identical_isolated_vectors(self):
        from repro.retrofit.hyperparams import DerivedWeights

        base = np.ones((3, 2))
        weights = DerivedWeights(RetroHyperparameters(), 3, [])
        centroids = np.ones((3, 2))
        assert relational_loss(base, base, centroids, weights) == pytest.approx(0.0)

    def test_loss_shape_mismatch(self, toy_problem):
        extraction, base = toy_problem
        solver = RetroSolver(extraction, base)
        with pytest.raises(RetrofitError):
            relational_loss(base[:2], base, solver.centroids, solver.weights)

    def test_moving_away_from_base_increases_alpha_loss(self, toy_problem):
        extraction, base = toy_problem
        solver = RetroSolver(
            extraction, base,
            RetroHyperparameters(alpha=1.0, beta=0.0, gamma=0.0001, delta=0.0),
        )
        baseline = relational_loss(base, base, solver.centroids, solver.weights)
        shifted = relational_loss(base + 1.0, base, solver.centroids, solver.weights)
        assert shifted > baseline
