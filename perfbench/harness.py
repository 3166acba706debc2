"""Shared pieces of the repository benchmark.

Everything here is measurement plumbing — the span recorder, latency
summaries, process-tree helpers, the serving corpus every serving
workload starts from — so each workload module holds only its own load
shape and checks.  The program under test is reached through its public
API only; nothing here patches or subclasses it.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import json
import math
import os
import platform
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.datasets import generate_tmdb
from repro.retrofit.combine import TextValueEmbeddingSet
from repro.retrofit.extraction import extract_text_values
from repro.retrofit.hyperparams import RetroHyperparameters
from repro.retrofit.incremental import IncrementalRetrofitter
from repro.retrofit.initialization import initialise_vectors
from repro.retrofit.retro import RetroSolver
from repro.text.tokenizer import Tokenizer

#: Top-k depth of every read in every workload.
K = 10

#: The serving corpus: TMDB at the quick preset (200 movies, 32-d word
#: vectors) scaled x5, settled RN — 5,065 values.  Fixed for every seed, so
#: the seed varies the traffic, not the amount of data behind it.
CORPUS_MOVIES = 1000
CORPUS_DIMENSION = 32
CORPUS_SEED = 0

#: Distinct queries a read workload cycles through.
QUERY_POOL = 4096

#: Iteration cap for settling and for incremental solves (the solver's
#: tolerance stops them much earlier); the value the serving stack uses.
SOLVE_ITERATIONS = 300

#: Set-ups per run; ``setup_s`` is the fastest of them, because load from
#: outside the box only ever adds time to a set-up.
SETUP_REPEATS = 3

#: How long a caller waits for one read; a failed read counts as this long.
REQUEST_TIMEOUT = 30.0

#: Bearer token the networked workloads run with (read + write scopes).
TOKEN = "perfbench"

_SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
#: End-to-end metrics, name -> unit, as BENCHMARK.json lists them.  Every
#: workload reports every one; README.md says what each means per workload.
END_TO_END = {metric["name"]: metric["unit"] for metric in _SPEC["end_to_end"]}
#: Per-layer metrics, name -> unit, as BENCHMARK.json lists them.  A
#: workload that does not exercise a layer reports 0 for it.
PER_LAYER = {metric["name"]: metric["unit"] for metric in _SPEC["per_layer"]}
#: The per-layer counts that repeat exactly for a given seed.
EXACT = frozenset({
    "retro.n_values",
    "retro.ro_iterations",
    "retro.rn_iterations",
    "multifront.connections_per_request",
    "replicated.degraded_queries",
    "incremental.active_rows",
    "incremental.iterations",
})
#: Tracing overhead (``trace.overhead.<name>`` in PER_LAYER): traced minus
#: untraced, measured within the traced run, for each end-to-end metric of
#: the timed phase.  Set-up and peak memory are left out: no spans are
#: recorded while setting up, and one process's peak cannot be split
#: between its two halves.
OVERHEAD_OF = ("ops_per_s", "op_p50_ms", "op_tail_ms")


# --------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------- #
class _Span:
    __slots__ = ("_tracer", "_name", "_trace", "_id", "_parent", "_start")

    def __init__(self, tracer: "Tracer", name: str, trace) -> None:
        self._tracer = tracer
        self._name = name
        self._trace = trace

    def __enter__(self) -> int:
        stack = self._tracer._stack()
        self._id = next(self._tracer._ids)
        self._parent = stack[-1][0] if stack else None
        if self._trace is None:
            self._trace = stack[-1][1] if stack else self._id
        stack.append((self._id, self._trace))
        self._start = time.perf_counter()
        return self._id

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter()
        self._tracer._stack().pop()
        self._tracer.spans.append({
            "id": self._id,
            "name": self._name,
            "start": self._start,
            "end": end,
            "parent": self._parent,
            "trace": self._trace,
            "error": exc_type.__name__ if exc_type is not None else None,
        })


_NO_SPAN = contextlib.nullcontext()


class Tracer:
    """Spans around calls into the program's layers.

    A span has a name, start, end, parent span and trace id (spans of one
    request share it).  Spans are kept in memory and written out by
    :meth:`dump` when the run ends.  While :attr:`enabled` is false,
    :meth:`span` returns a shared no-op context, so untraced phases pay
    one attribute test per call.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, trace=None):
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, name, trace)

    def record(self, name: str, start: float, end: float, trace=None) -> None:
        """A span timed by the caller (a request awaited elsewhere)."""
        if self.enabled:
            span_id = next(self._ids)
            self.spans.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": None, "trace": span_id if trace is None else trace,
                "error": None,
            })

    def extend(self, spans: list[dict], process: str) -> None:
        """Adopt spans recorded in another process (ids stay per process)."""
        for span in spans:
            self.spans.append(dict(span, process=process))

    def durations_ms(self, name: str) -> list[float]:
        return [
            (span["end"] - span["start"]) * 1000.0
            for span in self.spans
            if span["name"] == name and span["error"] is None
        ]

    def median_ms(self, name: str) -> float:
        return median(self.durations_ms(name))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}))


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def median(values) -> float:
    return float(np.median(values)) if len(values) else math.nan


def interquartile_mean(values) -> float:
    """Mean of the middle half (the lowest and highest quarter dropped)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return float(np.mean(ordered[cut:len(ordered) - cut]))


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else math.nan


#: Length of the windows a timed phase is cut into for its medians.
WINDOW_S = 1.0


def summarize(
    records, started: float, stopped: float, tail_q: float, timeout_s: float
) -> dict:
    """Throughput and latency of ``(due, done)`` request records.

    ``done`` is ``None`` for a failed request.  A failure counts as taking
    ``timeout_s``, the longest its caller waits, so it misses every
    latency limit below that and the figures stay finite; the caller
    counts it as failed besides.  The phase ``[started, stopped)`` is cut
    into WINDOW_S windows and a request belongs to the window it
    completed in (a failure to the one it was due in).  Throughput counts
    completed requests: it is the interquartile mean of the windows'
    rates, and median latency the median of their medians, so a burst of
    interference from outside the box moves them less than a whole-phase
    figure would.  The tail (percentile ``tail_q``) is the median over
    windows too when every window holds enough requests for ten to lie
    beyond it; otherwise it is taken over the whole phase.
    """
    n_windows = max(1, int((stopped - started) / WINDOW_S))
    windows: list[list[float]] = [[] for _ in range(n_windows)]
    completed = [0] * n_windows
    latencies = []
    for due, done in records:
        latency = timeout_s if done is None else done - due
        latencies.append(latency)
        slot = int(((due if done is None else done) - started) / WINDOW_S)
        if 0 <= slot < n_windows:
            windows[slot].append(latency)
            completed[slot] += done is not None
    if min(map(len, windows)) >= 10.0 / (1.0 - tail_q / 100.0):
        tail = median([percentile(window, tail_q) for window in windows])
    else:
        tail = percentile(latencies, tail_q)
    return {
        "qps": interquartile_mean(completed) / WINDOW_S,
        "p50_ms": median([percentile(w, 50) for w in windows if w]) * 1000.0,
        "tail_ms": tail * 1000.0,
        "samples": len(records),
    }


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    workload: str
    end_to_end: dict[str, float] = field(default_factory=dict)
    #: The issue's named metrics for this workload: name -> (value, unit, samples).
    named: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    #: Traced minus untraced, per end-to-end metric of the timed phase.
    overhead: dict[str, float] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    tracer: Tracer = field(default_factory=Tracer)
    notes: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = bool(ok)
        if not ok:
            self.notes.append(f"check failed: {name} {detail}".rstrip())

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())


def record_reads(out: Outcome, setups, rss: float, load: dict, plain=None) -> None:
    """Fill a read workload's metrics from its timed phase (``load``).

    ``plain`` is the untraced half of a traced run, whose difference to
    ``load`` is the tracing overhead.
    """
    phases = [load] if plain is None else [plain, load]
    out.attempted = sum(phase["samples"] for phase in phases)
    out.failed = sum(phase["failed"] for phase in phases)
    out.end_to_end = {
        "setup_s": min(setups),
        "rss_mb": rss,
        "ops_per_s": load["qps"],
        "op_p50_ms": load["p50_ms"],
        "op_tail_ms": load["tail_ms"],
    }
    n = load["samples"]
    out.named = {
        "setup_s": (min(setups), "s", len(setups)),
        "rss_mb": (rss, "MB", 1),
        "read_qps": (load["qps"], "1/s", n),
        "read_p50_ms": (load["p50_ms"], "ms", n),
        "read_p99_ms": (load["tail_ms"], "ms", n),
    }
    if plain is not None:
        out.overhead = {
            "ops_per_s": load["qps"] - plain["qps"],
            "op_p50_ms": load["p50_ms"] - plain["p50_ms"],
            "op_tail_ms": load["tail_ms"] - plain["tail_ms"],
        }


def same_answers(got, expected) -> bool:
    """Same ranked ``(category, text)`` ids and allclose scores.

    Batched (GEMM) and single (GEMV) scoring differ in the last ulp, so
    ids must match exactly and scores only within tolerance.
    """
    got_ids = [(str(c), str(t)) for c, t, _ in got]
    want_ids = [(str(c), str(t)) for c, t, _ in expected]
    if got_ids != want_ids:
        return False
    return bool(np.allclose(
        [float(s) for _, _, s in got], [float(s) for _, _, s in expected],
        rtol=1e-9, atol=1e-9,
    ))


# --------------------------------------------------------------------- #
# workload inputs
# --------------------------------------------------------------------- #
def make_queries(matrix: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Stored vectors plus 2 % noise: distinct, but close to the data."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, matrix.shape[0], size=n)
    queries = np.array(matrix[rows], dtype=np.float64)
    scale = np.maximum(np.linalg.norm(queries, axis=1, keepdims=True), 1e-9)
    queries += rng.normal(0.0, 0.02, queries.shape) * scale
    return queries


@dataclass
class Corpus:
    """The settled serving corpus and what a writer needs to continue it."""

    database: object
    tokenizer: Tokenizer
    embeddings: TextValueEmbeddingSet
    base_matrix: np.ndarray
    hyperparams: RetroHyperparameters

    def retrofitter(self, embeddings=None, warm: bool = True) -> IncrementalRetrofitter:
        return IncrementalRetrofitter(
            self.embeddings if embeddings is None else embeddings,
            self.tokenizer,
            hyperparams=self.hyperparams,
            method="series",
            base_matrix=self.base_matrix if warm else None,
        )


def corpus_database():
    """A fresh copy of the corpus database (deterministic)."""
    return _corpus_dataset().database


def _corpus_dataset():
    return generate_tmdb(
        num_movies=CORPUS_MOVIES, seed=CORPUS_SEED,
        embedding_dimension=CORPUS_DIMENSION,
    )


def build_serving_corpus() -> Corpus:
    """Generate, retrofit (RN, 10 iterations) and settle the serving corpus."""
    dataset = _corpus_dataset()
    extraction = extract_text_values(dataset.database)
    tokenizer = Tokenizer(dataset.embedding)
    base = initialise_vectors(extraction, dataset.embedding, tokenizer)
    hyperparams = RetroHyperparameters.paper_rn_default()
    solver = RetroSolver(extraction, base.matrix, hyperparams)
    trained, _ = solver.solve_series(iterations=10)
    settled, _ = solver.solve(
        method="series", iterations=SOLVE_ITERATIONS, W_init=trained
    )
    embeddings = TextValueEmbeddingSet(extraction.copy(), settled, name="RN")
    return Corpus(dataset.database, tokenizer, embeddings, base.matrix, hyperparams)


# --------------------------------------------------------------------- #
# processes and environment
# --------------------------------------------------------------------- #
def _status_kb(pid: int, key: str) -> int:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    return 0


def peak_rss_mb(pids) -> float:
    """Summed peak resident memory (VmHWM) of ``pids``, in MB."""
    return sum(_status_kb(pid, "VmHWM") for pid in pids) / 1024.0


def _stat_fields(pid: int) -> tuple[str, int, int] | None:
    """``(state, ppid, pgrp)`` of a live process, or ``None``."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = text[text.rindex(")") + 2:].split()
    return fields[0], int(fields[1]), int(fields[2])


def _all_pids() -> list[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def tree_pids(root: int) -> list[int]:
    """``root`` and every live descendant."""
    children: dict[int, list[int]] = {}
    for pid in _all_pids():
        fields = _stat_fields(pid)
        if fields is not None and fields[0] != "Z":
            children.setdefault(fields[1], []).append(pid)
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        found.append(pid)
        frontier.extend(children.get(pid, []))
    return found


def become_subreaper() -> None:
    """Adopt orphaned descendants, so killed process trees can be reaped."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                               ctypes.c_ulong, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, kill_group still signals them


def kill_group(process, timeout: float = 20.0) -> None:
    """SIGKILL the whole process group led by ``process`` and reap it.

    Returns once no member of the group is alive (zombies adopted by this
    process, a subreaper, are reaped here).
    """
    pgid = process.pid
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pgid, signal.SIGKILL)
    process.wait(timeout=timeout)
    deadline = time.monotonic() + timeout
    while True:
        with contextlib.suppress(ChildProcessError):
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        alive = [
            pid for pid in _all_pids()
            if (fields := _stat_fields(pid)) is not None
            and fields[2] == pgid and fields[0] != "Z"
        ]
        if not alive:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes {alive} outlived the teardown")
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(pgid, signal.SIGKILL)
        time.sleep(0.05)


def environment() -> dict:
    """Where the numbers were measured."""
    blas = {}
    with contextlib.suppress(KeyError, TypeError, ValueError, AttributeError):
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "argv": sys.argv[1:],
    }
