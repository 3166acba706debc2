"""The incremental path's live solver and residual bound.

One ``RetroSolver`` is advanced across writes instead of rebuilt, and the
residual checks go through ``ResidualBound``.  Both must be invisible in
the results: the live solver equals a fresh one after every write, the
bound flags exactly the rows a full residual step flags, and every
version's matrix equals the one a rebuild per write produces.
"""

import gc
import weakref

import numpy as np
import pytest
from scipy import sparse

from repro.datasets import generate_tmdb
from repro.experiments.update_bench import synthesize_tmdb_delta
from repro.retrofit.hyperparams import RetroHyperparameters
from repro.retrofit.pipeline import RetroPipeline
from repro.retrofit.retro import ResidualBound, RetroSolver

CONFIGS = {
    "rn": ("series", RetroHyperparameters.paper_rn_default()),
    "rn-beta": ("series", RetroHyperparameters(alpha=1.0, beta=0.5, gamma=3.0, delta=1.0)),
    "ro": ("optimization", RetroHyperparameters(alpha=1.0, beta=0.0, gamma=3.0, delta=0.25)),
    "ro-beta": ("optimization", RetroHyperparameters(alpha=2.0, beta=0.5, gamma=1.0, delta=0.5)),
}


def _setup(config, seed=7):
    method, hyperparams = CONFIGS[config]
    dataset = generate_tmdb(num_movies=60, seed=seed, embedding_dimension=16)
    pipeline = RetroPipeline(
        dataset.database, dataset.embedding, hyperparams=hyperparams, method=method
    )
    result = pipeline.run(iterations=100)
    return dataset, pipeline.incremental_retrofitter(result)


def _stream(dataset, retrofitter, writes, churn, seed=3):
    """Apply ``writes`` one-movie deltas; yields after each one.  With
    ``churn`` every third delta also updates and deletes rows."""
    rng = np.random.default_rng(seed)
    for write in range(writes):
        mixed = churn and write % 3 == 2
        delta = synthesize_tmdb_delta(
            dataset.database, rng, 1, include_update=mixed, include_delete=mixed
        )
        yield retrofitter.apply(dataset.database, delta, iterations=100)


def _assert_same_solver(live: RetroSolver, fresh: RetroSolver) -> None:
    assert live.n_values == fresh.n_values
    assert len(live.directed) == len(fresh.directed)
    for mine, theirs in zip(live.directed, fresh.directed):
        assert mine.name == theirs.name
        for name in (
            "source_rows", "target_rows", "source_indices",
            "target_indices", "out_degree_counts",
        ):
            assert np.array_equal(getattr(mine, name), getattr(theirs, name)), name
    for name in ("participation", "alpha_vec", "beta_vec"):
        assert np.array_equal(getattr(live.weights, name), getattr(fresh.weights, name))
    assert live.weights.delta_ro == fresh.weights.delta_ro
    for mine, theirs in zip(live.weights.gamma_source, fresh.weights.gamma_source):
        assert np.array_equal(mine, theirs)
    for mine, theirs in zip(live.weights.delta_rn_source, fresh.weights.delta_rn_source):
        assert np.array_equal(mine, theirs)
    assert live.convexity_margin == fresh.convexity_margin
    assert live.is_convex == fresh.is_convex
    for name in ("_gamma_matrix_directed", "_gamma_matrix_symmetric"):
        mine, theirs = getattr(live, name), getattr(fresh, name)
        assert sparse.isspmatrix_csr(mine)
        assert mine.shape == theirs.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(mine, part), getattr(theirs, part)), (name, part)
    assert np.array_equal(live._gamma_row_sums, fresh._gamma_row_sums)
    assert np.array_equal(live.degree_vector(), fresh.degree_vector())
    assert np.array_equal(live._row_categories, fresh._row_categories)


class TestLiveSolver:
    @pytest.mark.parametrize("config", ["rn", "ro-beta"])
    def test_equals_fresh_solver_after_every_write(self, config):
        dataset, retrofitter = _setup(config)
        advanced = 0
        for update in _stream(dataset, retrofitter, writes=8, churn=True):
            live = retrofitter._solver
            advanced += live.changed_rows is not None
            fresh = RetroSolver(
                update.embeddings.extraction, retrofitter.base_matrix,
                retrofitter.hyperparams,
            )
            _assert_same_solver(live, fresh)
        # the churn writes rebuild; the insert-only ones advance
        assert advanced >= 2

    def test_versions_equal_rebuild_per_write(self, monkeypatch):
        """Every version's matrix, active set, iteration count and verdict
        equal those of a fresh solver and a full residual step per write."""
        streams = {}
        for live in (True, False):
            dataset, retrofitter = _setup("rn")
            if not live:
                monkeypatch.setattr(
                    retrofitter, "_next_solver",
                    lambda previous, extraction, base, delta_map, w_init: RetroSolver(
                        extraction, base, retrofitter.hyperparams
                    ),
                )
                monkeypatch.setattr(
                    retrofitter._bound, "offenders",
                    lambda solver, matrix, tolerance, moved=None, before=None: np.nonzero(
                        solver.residual_shift(matrix, retrofitter.method) > tolerance
                    )[0],
                )
            streams[live] = [
                (update.embeddings.matrix, update.changed_rows,
                 update.report.iterations, update.report.converged)
                for update in _stream(dataset, retrofitter, writes=10, churn=True)
            ]
        for mine, theirs in zip(streams[True], streams[False]):
            assert np.array_equal(mine[0], theirs[0])
            assert np.array_equal(mine[1], theirs[1])
            assert mine[2:] == theirs[2:]

    def test_holds_no_earlier_solver(self):
        dataset, retrofitter = _setup("rn")
        writes = _stream(dataset, retrofitter, writes=5, churn=False)
        next(writes)
        first = weakref.ref(retrofitter._solver)
        for _ in writes:
            pass
        gc.collect()
        assert first() is None
        assert retrofitter._solver is not None

    def test_replaced_embeddings_rebuild(self):
        dataset, retrofitter = _setup("rn")
        writes = _stream(dataset, retrofitter, writes=2, churn=False)
        next(writes)
        solver = retrofitter._solver
        retrofitter.embeddings = type(retrofitter.embeddings)(
            retrofitter.embeddings.extraction.copy(),
            retrofitter.embeddings.matrix.copy(),
            retrofitter.embeddings.name,
        )
        next(writes)
        assert retrofitter._solver is not solver
        assert retrofitter._solver.changed_rows is None


class TestResidualBound:
    @pytest.mark.parametrize("config, churn, tolerance", [
        *[(config, churn, None) for config in sorted(CONFIGS) for churn in (False, True)],
        # no row meets this tolerance: the bound may certify nothing
        ("rn", False, 1e-9),
    ], ids=lambda value: {False: "inserts", True: "churn", None: "default"}.get(value, value))
    def test_offenders_equal_full_residual_check(self, monkeypatch, config, churn, tolerance):
        checked = []
        offenders = ResidualBound.offenders

        def both(self, solver, matrix, tolerance, moved=None, before=None):
            mine = offenders(self, solver, matrix, tolerance, moved, before)
            full = np.nonzero(solver.residual_shift(matrix, self.method) > tolerance)[0]
            checked.append((mine.size, self.evaluated[-1], solver.n_values))
            assert np.array_equal(mine, full)
            return mine

        monkeypatch.setattr(ResidualBound, "offenders", both)
        dataset, retrofitter = _setup(config, seed=11)
        retrofitter._residual_tolerance = tolerance
        for _ in _stream(dataset, retrofitter, writes=8, churn=churn, seed=5):
            pass
        assert len(checked) >= 8
        if tolerance is None:
            # the bound spares most rows an exact evaluation
            assert sum(evaluated for _, evaluated, _ in checked[1:]) < sum(
                n for _, _, n in checked[1:]
            )
        else:
            assert all(found for found, _, _ in checked)


class TestAdvance:
    def test_entries_shared_by_three_relations(self):
        """Three relations holding the same pair sum to one γ entry; the
        advance rebuilds such rows instead of patching them in place."""
        from repro.retrofit.extraction import (
            ExtractionDelta,
            ExtractionResult,
            RelationDelta,
            RelationGroup,
            TextValueRecord,
        )

        texts = [("A", "x", f"a{i}") for i in range(4)] + [("B", "y", f"b{i}") for i in range(3)]
        records = [
            TextValueRecord(index=i, text=text, table=table, column=column)
            for i, (table, column, text) in enumerate(texts)
        ]
        pairs = [(0, 4), (1, 4), (1, 5), (2, 4), (3, 6)]
        extraction = ExtractionResult(
            records=records,
            categories={"A.x": [0, 1, 2, 3], "B.y": [4, 5, 6]},
            relation_groups=[
                RelationGroup(f"g{k}", "row", "A.x", "B.y", pairs=list(pairs[k:]))
                for k in range(3)
            ],
        )
        rng = np.random.default_rng(2)
        base = rng.normal(size=(7, 4))
        hyperparams = RetroHyperparameters(alpha=1.0, beta=0.5, gamma=2.0, delta=0.5)
        solver = RetroSolver(extraction, base, hyperparams)
        for name in ("_gamma_matrix_directed", "_gamma_matrix_symmetric", "_gamma_row_sums"):
            getattr(solver, name)
        grown = extraction.copy()
        delta_map = grown.apply_delta(ExtractionDelta(
            added_values={"A.x": ["a4"]},
            relations=[
                RelationDelta(f"g{k}", "row", "A.x", "B.y", added=[("a4", "b0"), ("a3", "b0")])
                for k in range(3)
            ],
        ))
        new_base = np.vstack([base, rng.normal(size=(1, 4))])
        advanced = solver.advance(grown, new_base, delta_map.added_pairs)
        _assert_same_solver(advanced, RetroSolver(grown, new_base, hyperparams))

    def test_new_relation_group_is_not_advanced(self):
        dataset, retrofitter = _setup("rn")
        next(_stream(dataset, retrofitter, writes=1, churn=False))
        live = retrofitter._solver
        assert live.advance(
            live.extraction, live.base_matrix, {"no such group": np.array([[0, 1]])}
        ) is None
