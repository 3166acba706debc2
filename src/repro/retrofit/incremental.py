"""Incremental maintenance of retrofitted embeddings.

One of the selling points of RETRO (paper §1) is that — unlike re-training a
word embedding — the retrofitted vectors can be maintained incrementally
when the database changes.  This module implements the fast path of the
end-to-end delta pipeline:

* :meth:`IncrementalRetrofitter.apply` takes a row-level
  :class:`repro.db.DatabaseDelta`, applies it to the database, folds the
  resulting value-level :class:`~repro.retrofit.extraction.ExtractionDelta`
  into the extraction in place
  (:meth:`~repro.retrofit.extraction.ExtractionResult.apply_delta`),
  tokenises only the new text values, and warm-starts the solver on the
  rows within ``k_hops`` relation steps of the change — everything else
  keeps its converged vectors.  Because the update equations are local (a
  vector only depends on its category centroid and its relational
  neighbours), this matches a cold re-extract + re-solve up to the decay of
  the perturbation across the hop boundary.
* :meth:`IncrementalRetrofitter.update` is the conservative legacy path:
  re-extract everything, freeze all previously known vectors, solve only
  the brand-new ones.

A write costs its delta, not the corpus.  The retrofitter keeps one live
:class:`~repro.retrofit.retro.RetroSolver` for the embeddings it last
produced and advances it over each delta that removes nothing
(:meth:`~repro.retrofit.retro.RetroSolver.advance`); a delta with
removals, a delta that creates a relation group, the legacy
:meth:`~IncrementalRetrofitter.update` and replaced embeddings build a
new one.  It holds no reference to earlier solvers.  The residual checks
go through a carried :class:`~repro.retrofit.retro.ResidualBound`, which
evaluates exactly only the rows it cannot certify and flags the same
offenders as a full :meth:`~repro.retrofit.retro.RetroSolver.residual_shift`.
Every step keeps the arithmetic of a fresh solver, so each version's
matrix, active set, iteration count and verdict equal those of a rebuild
per write.

The produced :class:`IncrementalUpdateResult` carries the
:class:`~repro.retrofit.extraction.DeltaMap` and the set of moved rows, so
the serving layer (:meth:`repro.serving.ServingSession.apply_update`) and
the artifact store (delta records) can follow the change without rebuilds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.db.database import Database
from repro.db.delta import DatabaseDelta
from repro.errors import RetrofitError
from repro.retrofit.combine import TextValueEmbeddingSet
from repro.retrofit.extraction import (
    DeltaMap,
    ExtractionDelta,
    ExtractionResult,
    derive_extraction_delta,
    extract_text_values,
)
from repro.retrofit.hyperparams import RetroHyperparameters
from repro.retrofit.initialization import initialise_vectors
from repro.retrofit.retro import ResidualBound, RetroSolver, SolverReport
from repro.text.tokenizer import Tokenizer


@dataclass
class IncrementalUpdateResult:
    """Outcome of an incremental update.

    ``new_indices``/``reused_indices`` are in the *new* extraction's
    indexing.  The delta-pipeline fields (``delta_map``,
    ``extraction_delta``, ``changed_rows``) are ``None`` on the legacy
    :meth:`IncrementalRetrofitter.update` path; ``changed_rows`` holds
    every row the solver was allowed to move (new rows included).
    """

    embeddings: TextValueEmbeddingSet
    report: SolverReport
    new_indices: list[int]
    reused_indices: list[int]
    delta_map: DeltaMap | None = None
    extraction_delta: ExtractionDelta | None = None
    changed_rows: np.ndarray | None = None
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Wall-clock total across the recorded pipeline stages."""
        return float(sum(self.timings.values()))


class IncrementalRetrofitter:
    """Maintains a retrofitted embedding set as the database changes.

    ``base_matrix`` is the ``W0`` the embeddings were solved from; carrying
    it across updates lets :meth:`apply` tokenise only the new text values.
    Without it the retrofitter falls back to re-initialising ``W0`` on
    every update (correct, but O(total values) per change).
    """

    def __init__(
        self,
        embeddings: TextValueEmbeddingSet,
        tokenizer: Tokenizer,
        hyperparams: RetroHyperparameters | None = None,
        method: str = "series",
        exclude_columns: tuple[str, ...] = (),
        exclude_relations: tuple[str, ...] = (),
        base_matrix: np.ndarray | None = None,
        k_hops: int = 10,
        influence_threshold: float | None = None,
        residual_tolerance: float | None = None,
    ) -> None:
        self.embeddings = embeddings
        self.tokenizer = tokenizer
        self.hyperparams = hyperparams or RetroHyperparameters()
        self.method = method
        self.exclude_columns = tuple(exclude_columns)
        self.exclude_relations = tuple(exclude_relations)
        self.k_hops = int(k_hops)
        self._influence_threshold = influence_threshold
        self._residual_tolerance = residual_tolerance
        if base_matrix is not None:
            base_matrix = np.asarray(base_matrix, dtype=np.float64)
            if base_matrix.shape != embeddings.matrix.shape:
                raise RetrofitError(
                    "base matrix must have the same shape as the embeddings"
                )
        self.base_matrix = base_matrix
        # the live solver of ``self.embeddings``, and the residual state
        # its checks carry from write to write
        self._solver: RetroSolver | None = None
        self._solver_embeddings: TextValueEmbeddingSet | None = None
        self._bound = ResidualBound(method)

    # ------------------------------------------------------------------ #
    # the delta fast path
    # ------------------------------------------------------------------ #
    def apply(
        self,
        database: Database,
        delta: DatabaseDelta,
        iterations: int | None = None,
        k_hops: int | None = None,
        measure_cold: bool = False,
    ) -> IncrementalUpdateResult:
        """Apply a row-level delta end to end and retrofit only its blast radius.

        Mutates ``database`` (the delta is applied through the validating
        database entry points), then updates extraction, base matrix and
        embeddings incrementally.  ``measure_cold=True`` additionally times
        a cold solve over the full new extraction and records it in
        ``report.cold_runtime_seconds`` (for speedup reporting; it roughly
        doubles the update cost, so leave it off in production).
        """
        hops = self.k_hops if k_hops is None else int(k_hops)
        timings: dict[str, float] = {}
        started = time.perf_counter()
        delta.apply_to(database)
        timings["apply_database"] = time.perf_counter() - started

        started = time.perf_counter()
        previous = self.embeddings
        extraction_delta = derive_extraction_delta(
            previous.extraction,
            database,
            delta,
            exclude_columns=self.exclude_columns,
            exclude_relations=self.exclude_relations,
        )
        extraction = previous.extraction.copy()
        seeds_old = self._removal_neighbour_seeds(previous.extraction, extraction_delta)
        delta_map = extraction.apply_delta(extraction_delta)
        timings["extraction_delta"] = time.perf_counter() - started

        started = time.perf_counter()
        new_base = self._advance_base_matrix(extraction, delta_map)
        surviving_new = delta_map.old_to_new[delta_map.surviving_old_indices()]
        w_init = new_base.copy()
        _carry_rows(w_init, previous.matrix, delta_map)
        timings["initialise"] = time.perf_counter() - started

        started = time.perf_counter()
        solver = self._next_solver(previous, extraction, new_base, delta_map, w_init)
        active = self._active_rows(
            solver, extraction, extraction_delta, delta_map, seeds_old, hops
        )
        matrix, report, active = self._solve_with_residual_refinement(
            solver, w_init, active, iterations
        )
        timings["solve"] = time.perf_counter() - started

        if measure_cold:
            started = time.perf_counter()
            cold_solver = RetroSolver(extraction, new_base, self.hyperparams)
            cold_solver.solve(method=self.method, iterations=iterations)
            report.cold_runtime_seconds = time.perf_counter() - started

        embeddings = TextValueEmbeddingSet(
            extraction=extraction, matrix=matrix, name=previous.name
        )
        self.embeddings = embeddings
        self.base_matrix = new_base
        self._solver, self._solver_embeddings = solver, embeddings
        return IncrementalUpdateResult(
            embeddings=embeddings,
            report=report,
            new_indices=list(delta_map.added_indices),
            reused_indices=surviving_new.tolist(),
            delta_map=delta_map,
            extraction_delta=extraction_delta,
            changed_rows=active,
            timings=timings,
        )

    def _next_solver(
        self,
        previous: TextValueEmbeddingSet,
        extraction: ExtractionResult,
        new_base: np.ndarray,
        delta_map: DeltaMap,
        w_init: np.ndarray,
    ) -> RetroSolver:
        """The solver of the new version: the live one advanced by the
        delta where it can be, a fresh one otherwise (a delta with
        removals, or embeddings or a base matrix replaced since)."""
        live, self._solver = self._solver, None
        if (
            live is not None
            and self._solver_embeddings is previous
            and live.base_matrix is self.base_matrix
            and delta_map.added_pairs is not None
        ):
            solver = live.advance(extraction, new_base, delta_map.added_pairs)
            if solver is not None:
                self._bound.rebase(live, solver, w_init)
                return solver
        self._bound.reset()
        return RetroSolver(extraction, new_base, self.hyperparams)

    #: A row joins the incremental solve's active set when its estimated
    #: relative vector movement (see :meth:`RetroSolver.influence_rows`)
    #: exceeds this.  Lower = larger active sets and tighter agreement
    #: with a cold solve; the defaults keep the worst-case cosine distance
    #: to a converged cold solve well below 1e-3 on the benchmark suites.
    #: The RO estimator gets a tighter threshold because the solver's
    #: dissimilarity term adds weak global coupling the γ-based estimate
    #: does not see.
    INFLUENCE_THRESHOLD_SERIES = 5e-3
    INFLUENCE_THRESHOLD_OPTIMIZATION = 2.5e-3

    @property
    def influence_threshold(self) -> float:
        """The active-set threshold for this retrofitter's solver method."""
        if self._influence_threshold is not None:
            return self._influence_threshold
        if self.method in ("optimization", "ro", "RO"):
            return self.INFLUENCE_THRESHOLD_OPTIMIZATION
        return self.INFLUENCE_THRESHOLD_SERIES

    @staticmethod
    def _removal_neighbour_seeds(
        extraction: ExtractionResult, delta: ExtractionDelta
    ) -> dict[int, int]:
        """Old-indexing rows losing neighbours, with lost-edge counts."""
        removed: set[int] = set()
        for category, texts in delta.removed_values.items():
            for text in texts:
                removed.add(extraction.index_of(category, str(text)))
        removed_pairs: dict[str, set[tuple[str, str]]] = {
            rd.name: {(str(s), str(t)) for s, t in rd.removed}
            for rd in delta.relations
            if rd.removed
        }
        counts: dict[int, int] = {}
        for group in extraction.relation_groups:
            dropped = removed_pairs.get(group.name, set())
            if not dropped and not removed:
                continue
            for i, j in group.pairs:
                is_dropped = (
                    i in removed
                    or j in removed
                    or (
                        dropped
                        and (extraction.records[i].text, extraction.records[j].text)
                        in dropped
                    )
                )
                if is_dropped:
                    for node in (i, j):
                        if node not in removed:
                            counts[node] = counts.get(node, 0) + 1
        return counts

    #: An incremental solve is accepted once one more *full* solver step
    #: moves no row by more than this fraction of its norm.  Rows above it
    #: join the active set for another refinement round, so the final
    #: state is certified against the full update operator, not just the
    #: influence estimate.  Cosine distance is quadratic in a (mostly
    #: angular) relative perturbation — a ~1e-2 relative residual, after
    #: the solver's contraction amplification, keeps the worst cosine
    #: distance to a converged cold solve around a few 1e-4 on the
    #: benchmark suites (comfortably inside the 1e-3 acceptance gate).
    #: RO amplifies residuals more (no per-step renormalisation), so it
    #: certifies against a tighter bound.
    RESIDUAL_TOLERANCE_SERIES = 1e-2
    RESIDUAL_TOLERANCE_OPTIMIZATION = 6e-3

    @property
    def residual_tolerance(self) -> float:
        """The certification residual for this retrofitter's solver method."""
        if self._residual_tolerance is not None:
            return self._residual_tolerance
        if self.method in ("optimization", "ro", "RO"):
            return self.RESIDUAL_TOLERANCE_OPTIMIZATION
        return self.RESIDUAL_TOLERANCE_SERIES

    #: Upper bound on refinement rounds (each adds the measured offenders).
    MAX_REFINEMENT_ROUNDS = 4

    def _solve_with_residual_refinement(
        self,
        solver: RetroSolver,
        w_init: np.ndarray,
        active: np.ndarray,
        iterations: int | None,
    ) -> tuple[np.ndarray, SolverReport, np.ndarray]:
        """Subset-solve, then verify with full steps and grow as needed.

        The influence estimate picks the initial active set; after each
        subset solve the residual check finds every row one more full
        Jacobi step would move beyond :attr:`residual_tolerance` (the
        carried :class:`~repro.retrofit.retro.ResidualBound` evaluates
        only the rows it cannot certify), and those rows are added for
        another round.  When the loop ends without growth the
        returned matrix is certified: one more full solver step would
        move nothing beyond tolerance.  If :data:`MAX_REFINEMENT_ROUNDS`
        runs out with offenders remaining, ``report.converged`` is set to
        ``False`` — the matrix is then only converged on the rows that
        were actually solved.
        """
        matrix = w_init
        report: SolverReport | None = None
        total_runtime = 0.0
        total_iterations = 0
        shift_history: list[float] = []
        # converging a round far below the certification level is wasted
        # work — the residual check is what bounds the final error
        tolerance = self.residual_tolerance
        round_tolerance = max(1e-5, tolerance / 3.0)
        certified = False
        for round_index in range(max(1, self.MAX_REFINEMENT_ROUNDS)):
            before = matrix[active]
            matrix, report = solver.solve(
                method=self.method,
                iterations=iterations,
                tolerance=round_tolerance,
                W_init=matrix,
                active_rows=active,
            )
            total_runtime += report.runtime_seconds
            total_iterations += report.iterations
            shift_history.extend(report.shift_history)
            offenders = self._bound.offenders(
                solver, matrix, tolerance, moved=active, before=before
            )
            grown = np.union1d(active, offenders)
            if grown.size == active.size:
                certified = True
                break
            if round_index == self.MAX_REFINEMENT_ROUNDS - 1:
                break  # out of rounds: the grown rows were never solved
            active = grown
        assert report is not None
        report.runtime_seconds = total_runtime
        report.iterations = total_iterations
        report.shift_history = shift_history
        report.n_active = int(active.size)
        # the residual check, not the last round's shift, is the verdict
        report.converged = certified
        return matrix, report, active

    def _active_rows(
        self,
        solver: RetroSolver,
        extraction: ExtractionResult,
        delta: ExtractionDelta,
        delta_map: DeltaMap,
        counts_old: dict[int, int],
        hops: int,
    ) -> np.ndarray:
        """The rows an incremental solve iterates, in the new indexing.

        Every directly perturbed row (new, or incident to a changed edge)
        is re-solved.  Beyond those, :meth:`RetroSolver.influence_rows`
        propagates each row's estimated movement — 1.0 for a brand-new
        vector, the changed share of its neighbourhood otherwise — through
        the linearised update operator for up to ``hops`` extra steps, and
        every row expected to move more than
        :attr:`influence_threshold` joins the solve.  A hub value that
        gained one edge among hundreds damps the propagation; a value that
        lost half its neighbourhood keeps it going.
        """
        counts: dict[int, int] = {}
        for old, lost in counts_old.items():
            new = int(delta_map.old_to_new[old])
            if new >= 0:
                counts[new] = counts.get(new, 0) + lost
        for rd in delta.relations:
            for source_text, target_text in rd.added:
                for category, text in (
                    (rd.source_category, source_text),
                    (rd.target_category, target_text),
                ):
                    if extraction.has_value(category, text):
                        row = extraction.index_of(category, str(text))
                        counts[row] = counts.get(row, 0) + 1

        perturbed: set[int] = set(delta_map.added_indices) | set(counts)
        if self.hyperparams.beta > 0:
            # the category-centroid term couples every member of a category
            # whose membership changed
            for category in set(delta.added_values) | set(delta.removed_values):
                perturbed.update(extraction.categories.get(category, ()))

        degree = solver.degree_vector()
        initial = np.zeros(len(extraction), dtype=np.float64)
        for row, changed in counts.items():
            initial[row] = changed / max(1.0, float(degree[row]))
        if delta_map.added_indices:
            initial[delta_map.added_indices] = 1.0
        reached = solver.influence_rows(
            initial, threshold=self.influence_threshold, max_hops=hops
        )
        perturbed.update(int(row) for row in reached)
        if not perturbed:
            return np.empty(0, dtype=np.int64)
        return np.fromiter(sorted(perturbed), dtype=np.int64)

    def _advance_base_matrix(
        self, extraction: ExtractionResult, delta_map: DeltaMap
    ) -> np.ndarray:
        """``W0`` for the new extraction, tokenising only the added values."""
        dimension = self.embeddings.dimension
        if self.base_matrix is None:
            return initialise_vectors(
                extraction, self.tokenizer.embedding, self.tokenizer
            ).matrix
        new_base = np.zeros((len(extraction), dimension), dtype=np.float64)
        _carry_rows(new_base, self.base_matrix, delta_map)
        if delta_map.added_indices:
            added_texts = [
                extraction.records[i].text for i in delta_map.added_indices
            ]
            vectors, _ = self.tokenizer.vectorize_all(added_texts)
            new_base[delta_map.added_indices] = vectors
        return new_base

    # ------------------------------------------------------------------ #
    # the conservative legacy path
    # ------------------------------------------------------------------ #
    def update(self, database: Database, iterations: int = 10) -> IncrementalUpdateResult:
        """Re-extract ``database`` and retrofit only the new text values.

        All previously learned vectors are held fixed; new values are
        solved against them.  Prefer :meth:`apply` when the change is
        available as a :class:`repro.db.DatabaseDelta` — it re-derives only
        the touched tables and also refines the neighbourhood of a change.
        """
        extraction = extract_text_values(
            database,
            exclude_columns=self.exclude_columns,
            exclude_relations=self.exclude_relations,
        )
        previous = self.embeddings
        base = initialise_vectors(extraction, self.tokenizer.embedding, self.tokenizer)
        if previous.dimension != base.dimension:
            raise RetrofitError(
                "incremental update requires the same base embedding dimension"
            )
        initial = base.matrix.copy()
        frozen = np.zeros(len(extraction), dtype=bool)
        reused: list[int] = []
        new_indices: list[int] = []
        for record in extraction.records:
            if previous.has_value(record.category, record.text):
                initial[record.index] = previous.vector_for(record.category, record.text)
                frozen[record.index] = True
                reused.append(record.index)
            else:
                new_indices.append(record.index)

        solver = RetroSolver(extraction, base.matrix, self.hyperparams)
        matrix, report = solver.solve(
            method=self.method,
            iterations=iterations,
            initial_matrix=initial,
            frozen_rows=frozen,
        )
        self._solver = self._solver_embeddings = None
        embeddings = TextValueEmbeddingSet(
            extraction=extraction, matrix=matrix, name=previous.name
        )
        self.embeddings = embeddings
        self.base_matrix = base.matrix
        return IncrementalUpdateResult(
            embeddings=embeddings,
            report=report,
            new_indices=new_indices,
            reused_indices=reused,
        )


def _carry_rows(target: np.ndarray, source: np.ndarray, delta_map: DeltaMap) -> None:
    """Copy every surviving row of ``source`` to its new index in ``target``
    (a block copy when nothing was removed: then no row renumbers)."""
    if not delta_map.removed_indices:
        target[: source.shape[0]] = source
        return
    surviving = delta_map.surviving_old_indices()
    target[delta_map.old_to_new[surviving]] = source[surviving]


def full_and_incremental_agree(
    full: TextValueEmbeddingSet,
    incremental: TextValueEmbeddingSet,
    categories: ExtractionResult | None = None,
    tolerance: float = 0.15,
    min_agreement: float = 0.9,
) -> bool:
    """Diagnostic helper: do two embedding sets roughly agree on shared values?

    A shared value agrees when the cosine similarity of its two vectors
    exceeds ``1 - tolerance``; the sets agree when at least
    ``min_agreement`` of the shared values do.  Used by tests and the
    incremental-maintenance examples to verify that the incremental path
    produces vectors close to a full re-run.
    """
    shared = 0
    close = 0
    for record in incremental.extraction.records:
        if not full.has_value(record.category, record.text):
            continue
        shared += 1
        a = full.vector_for(record.category, record.text)
        b = incremental.vector_for(record.category, record.text)
        denom = np.linalg.norm(a) * np.linalg.norm(b)
        if denom < 1e-12:
            close += 1
            continue
        if float(a @ b / denom) > 1.0 - tolerance:
            close += 1
    return shared == 0 or close / shared >= min_agreement


def max_cosine_distance(
    full: TextValueEmbeddingSet, incremental: TextValueEmbeddingSet
) -> float:
    """The worst cosine distance between shared values of two embedding sets.

    This is the metric the incremental-update acceptance gate reports:
    ``max(1 - cos(full, incremental))`` over every value both sets hold
    (zero-norm pairs count as distance 0 when both are zero, 1 otherwise).
    """
    worst = 0.0
    for record in incremental.extraction.records:
        if not full.has_value(record.category, record.text):
            continue
        a = full.vector_for(record.category, record.text)
        b = incremental.vector_for(record.category, record.text)
        norm_a, norm_b = np.linalg.norm(a), np.linalg.norm(b)
        if norm_a < 1e-12 and norm_b < 1e-12:
            continue
        if norm_a < 1e-12 or norm_b < 1e-12:
            worst = max(worst, 1.0)
            continue
        worst = max(worst, 1.0 - float(a @ b / (norm_a * norm_b)))
    return worst
