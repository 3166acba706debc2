"""``embed``: the paper's Table 2 pipeline, cold, without MF and DW.

``extract_text_values`` -> ``initialise_vectors`` -> RO (20 iterations)
-> RN (10 iterations) over the TMDB ``paper`` preset (10,043 values x 96
dimensions), rebuilt from the same database until the run's time is up
(at least twice).  Only the ``extraction``, ``initialization`` and
``retro`` layers work here.

The input is the preset's own dataset for every workload seed: a
different generator seed changes the amount of relational work by about
10 %, which would hide a change of that size.  Like Table 2, a build runs
with a single BLAS thread (``run.py`` sets it before numpy loads).
"""

from __future__ import annotations

import os
import time

import numpy as np

from harness import (
    CORPUS_SEED,
    SETUP_REPEATS,
    Outcome,
    Tracer,
    median,
    peak_rss_mb,
)
from repro.datasets import generate_tmdb
from repro.retrofit.extraction import extract_text_values
from repro.retrofit.hyperparams import RetroHyperparameters
from repro.retrofit.initialization import initialise_vectors
from repro.retrofit.loss import relational_loss
from repro.retrofit.retro import RetroSolver
from repro.text.tokenizer import Tokenizer

#: The ``paper`` sizing preset: 2,000 movies, 96-d word vectors.
PAPER_MOVIES = 2000
PAPER_DIMENSION = 96
RO_ITERATIONS = 20
RN_ITERATIONS = 10


def _build(dataset, tracer: Tracer) -> dict:
    """One cold build, with a span around each layer call."""
    with tracer.span("embed.build"):
        with tracer.span("extraction.extract_text_values"):
            extraction = extract_text_values(dataset.database)
        with tracer.span("initialization.initialise_vectors"):
            base = initialise_vectors(
                extraction, dataset.embedding, Tokenizer(dataset.embedding)
            )
        with tracer.span("retro.build"):
            ro_solver = RetroSolver(
                extraction, base.matrix, RetroHyperparameters.paper_ro_default()
            )
        with tracer.span("retro.ro_solve"):
            ro_matrix, ro_report = ro_solver.solve_optimization(
                iterations=RO_ITERATIONS
            )
        with tracer.span("retro.build"):
            rn_solver = RetroSolver(
                extraction, base.matrix, RetroHyperparameters.paper_rn_default()
            )
        with tracer.span("retro.rn_solve"):
            rn_matrix, rn_report = rn_solver.solve_series(iterations=RN_ITERATIONS)
    return {
        "ro": ro_matrix,
        "rn": rn_matrix,
        "ro_solver": ro_solver,
        "ro_iterations": ro_report.iterations,
        "rn_iterations": rn_report.iterations,
    }


def _timed_builds(dataset, tracer: Tracer, seconds: float, min_builds: int):
    builds, walls = [], []
    started = time.perf_counter()
    while len(builds) < min_builds or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        builds.append(_build(dataset, tracer))
        walls.append(time.perf_counter() - t0)
    return builds, walls


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome("embed")
    tracer = out.tracer

    # set-up: generate the dataset, SETUP_REPEATS times
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        dataset = generate_tmdb(
            num_movies=PAPER_MOVIES, seed=CORPUS_SEED,
            embedding_dimension=PAPER_DIMENSION,
        )
        setups.append(time.perf_counter() - t0)

    if trace:
        # half the time untraced, half traced: the difference between the
        # two halves is the tracing overhead
        plain, plain_walls = _timed_builds(dataset, tracer, seconds / 2, 1)
        tracer.enabled = True
        traced, walls = _timed_builds(dataset, tracer, seconds / 2, 1)
        tracer.enabled = False
        builds = plain + traced
    else:
        builds, walls = _timed_builds(dataset, tracer, seconds, 2)
    out.attempted = len(builds)

    first = builds[0]
    n_values = first["rn"].shape[0]
    out.check(
        "vectors_finite",
        all(np.isfinite(b["ro"]).all() and np.isfinite(b["rn"]).all() for b in builds),
    )
    out.check(
        "builds_identical",
        all(
            np.array_equal(b["ro"], first["ro"]) and np.array_equal(b["rn"], first["rn"])
            for b in builds[1:]
        ),
    )
    solver = first["ro_solver"]
    loss_start = relational_loss(
        solver.base_matrix, solver.base_matrix, solver.centroids, solver.weights
    )
    loss_ro = relational_loss(
        first["ro"], solver.base_matrix, solver.centroids, solver.weights
    )
    out.check(
        "ro_lowers_relational_loss", loss_ro < loss_start,
        f"({loss_ro:.6g} >= {loss_start:.6g})",
    )

    embed_s = median(walls)
    out.end_to_end = {
        "setup_s": min(setups),
        "rss_mb": peak_rss_mb([os.getpid()]),
        "ops_per_s": n_values / embed_s,
        "op_p50_ms": embed_s * 1000.0,
        "op_tail_ms": max(walls) * 1000.0,
    }
    out.named = {
        "setup_s": (out.end_to_end["setup_s"], "s", len(setups)),
        "rss_mb": (out.end_to_end["rss_mb"], "MB", 1),
        "embed_s": (embed_s, "s", len(walls)),
    }
    if trace:
        n_traced = len(walls)
        out.per_layer = {
            "extraction.extract_s": tracer.median_ms("extraction.extract_text_values") / 1e3,
            "initialization.init_s": tracer.median_ms("initialization.initialise_vectors") / 1e3,
            # both constructors of a build (RO and RN hyperparameters)
            "retro.build_s": sum(tracer.durations_ms("retro.build")) / n_traced / 1e3,
            "retro.ro_solve_s": tracer.median_ms("retro.ro_solve") / 1e3,
            "retro.rn_solve_s": tracer.median_ms("retro.rn_solve") / 1e3,
            "retro.n_values": float(n_values),
            "retro.ro_iterations": float(first["ro_iterations"]),
            "retro.rn_iterations": float(first["rn_iterations"]),
        }
        plain_s = median(plain_walls)
        out.overhead = {
            "ops_per_s": n_values / embed_s - n_values / plain_s,
            "op_p50_ms": (embed_s - plain_s) * 1000.0,
            "op_tail_ms": (max(walls) - max(plain_walls)) * 1000.0,
        }
    return out
