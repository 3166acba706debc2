"""The ``repro`` command line interface (``python -m repro``).

One entry point replaces the per-module ``main()`` functions of the figure
experiments:

* ``repro list`` — every registered experiment with its paper reference,
* ``repro run figure8 table2 --sizes quick`` — run experiments through one
  shared :class:`~repro.experiments.engine.RunContext` (each embedding
  suite trains at most once per configuration),
* ``repro run all --cache-dir .repro-cache`` — run everything, persisting
  trained suites for cross-process reuse,
* ``repro run all --jobs 4 --cache-dir .repro-cache`` — run independent
  experiments in worker processes sharing the on-disk suite cache (a
  per-fingerprint file lock keeps every suite trained exactly once),
* ``--out DIR`` — additionally write one JSON
  :class:`~repro.experiments.engine.RunResult` file per experiment,
* ``repro bench`` — the perf harness: hot-path microbenchmarks plus a
  quick end-to-end table2, written as a machine-diffable ``BENCH_<rev>.json``,
* ``repro update`` — the incremental-update benchmark: a synthetic delta
  stream applied through the whole pipeline (extraction delta → warm-start
  subset solve → in-place serving-index update), reported against a cold
  re-extract + re-solve,
* ``repro serve-bench`` — the concurrent-serving benchmark: reader
  threads querying through a :class:`~repro.serving.BatchedQueryFront`
  while a live delta stream drains through the
  :class:`~repro.serving.ServingRuntime`, reported against a
  single-threaded query loop (p50/p99 latency, throughput, update lag),
* ``repro chaos`` — the fault-injection certifier: seeded randomized
  fault schedules (crash, delay, torn write, dropped message, failed
  spawn) against the serving tier's ``(2, 1)`` and ``(1, 2)`` layouts
  under a live query+delta workload, certifying store integrity,
  liveness, read-your-writes and serial-replay agreement after every
  schedule.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ReproError
from repro.experiments.engine import (
    RunContext,
    run_experiment,
    run_experiments_parallel,
)
from repro.experiments.registry import ExperimentRegistry, default_registry
from repro.experiments.runner import ExperimentSizes


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the paper's experiments through the unified engine.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list all registered experiments")

    run_parser = commands.add_parser(
        "run", help="run one or more experiments (or 'all')"
    )
    run_parser.add_argument(
        "experiments",
        nargs="+",
        metavar="EXPERIMENT",
        help="experiment names as shown by `repro list`, or 'all'",
    )
    run_parser.add_argument(
        "--sizes",
        choices=ExperimentSizes.PRESETS,
        default="quick",
        help="workload sizing preset (default: quick)",
    )
    run_parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="artifact cache directory; trained suites are stored under "
        "<cache-dir>/suites and reused by later invocations",
    )
    run_parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory receiving one <experiment>.json RunResult per run",
    )
    run_parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the result tables (summary line only)",
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run independent experiments in N worker processes sharing "
        "the --cache-dir suite cache (default: 1, serial in-process)",
    )

    update_parser = commands.add_parser(
        "update",
        help="benchmark the incremental-update pipeline on a synthetic "
        "delta stream (cached suite + live writes)",
    )
    update_parser.add_argument(
        "--sizes",
        choices=ExperimentSizes.PRESETS,
        default="quick",
        help="workload sizing preset (default: quick)",
    )
    update_parser.add_argument(
        "--method",
        choices=("RN", "RO"),
        default="RN",
        help="retrofitting solver maintained incrementally (default: RN)",
    )
    update_parser.add_argument(
        "--deltas",
        type=int,
        default=3,
        help="number of delta batches in the stream (default: 3)",
    )
    update_parser.add_argument(
        "--fraction",
        type=float,
        default=0.01,
        help="movies inserted per delta, as a fraction of the table "
        "(default: 0.01)",
    )
    update_parser.add_argument(
        "--churn",
        action="store_true",
        help="also update an overview and delete a review per delta "
        "(larger certified blast radius)",
    )
    update_parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="reuse the engine's suite cache for the trained starting point",
    )
    update_parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the benchmark payload as JSON",
    )
    update_parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="delta-stream seed (default: the sizing preset's seed)",
    )

    serve_parser = commands.add_parser(
        "serve-bench",
        help="benchmark concurrent serving: reader threads + batched query "
        "coalescing against a live delta stream, vs a single-threaded loop",
    )
    serve_parser.add_argument(
        "--sizes",
        choices=ExperimentSizes.PRESETS,
        default="quick",
        help="workload sizing preset (default: quick)",
    )
    serve_parser.add_argument(
        "--method",
        choices=("RN", "RO"),
        default="RN",
        help="retrofitting solver maintained under the stream (default: RN)",
    )
    serve_parser.add_argument(
        "--readers",
        type=int,
        default=4,
        help="number of reader threads (default: 4)",
    )
    serve_parser.add_argument(
        "--queries",
        type=int,
        default=256,
        metavar="N",
        help="queries per reader thread (default: 256)",
    )
    serve_parser.add_argument(
        "--pipeline-depth",
        type=int,
        default=16,
        help="in-flight requests per reader — emulates readers × depth "
        "independent clients (default: 16)",
    )
    serve_parser.add_argument(
        "--deltas",
        type=int,
        default=4,
        help="write batches streamed in while readers run (default: 4)",
    )
    serve_parser.add_argument(
        "--fraction",
        type=float,
        default=0.01,
        help="movies inserted per delta, as a fraction of the table "
        "(default: 0.01)",
    )
    serve_parser.add_argument(
        "--churn",
        action="store_true",
        help="also update an overview and delete a review per delta",
    )
    serve_parser.add_argument(
        "--window-ms",
        type=float,
        default=2.0,
        help="longest a read waits to share a batch, in milliseconds; an "
        "idle front dispatches a waiting read at once (default: 2.0)",
    )
    serve_parser.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="largest coalesced query batch (default: 64)",
    )
    serve_parser.add_argument(
        "--corpus-scale",
        type=int,
        default=5,
        help="serve corpus_scale × the preset's movie count — serving "
        "needs a serving-sized corpus (default: 5)",
    )
    serve_parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="also run the workload through the serving tier laid out as "
        "this many shard workers (one replica each) over a shared "
        "memory-mapped matrix (default: 0 — skip the sharded phases)",
    )
    serve_parser.add_argument(
        "--replicas",
        type=int,
        default=0,
        help="also run the workload through the serving tier laid out as "
        "one shard with this many replicas, then measure replication lag, "
        "read-your-writes, and failover after a primary SIGKILL "
        "(default: 0 — skip the replicated phases)",
    )
    serve_parser.add_argument(
        "--fronts",
        type=int,
        default=0,
        help="additionally serve the replicated tier over HTTP through "
        "this many fronts, each inside one replica, behind the connection "
        "balancer, with write-over-HTTP steady/churn phases, "
        "read-your-writes and duplicate-POST idempotency checks (the "
        "fronts run in the one-shard replicated tier, so this requires "
        "--replicas N with N >= --fronts; default: 0 — skip the HTTP "
        "phases)",
    )
    serve_parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="reuse the engine's suite cache for the trained starting point",
    )
    serve_parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the benchmark payload as JSON",
    )
    serve_parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="delta/query stream seed (default: the sizing preset's seed)",
    )

    chaos_parser = commands.add_parser(
        "chaos",
        help="run seeded randomized fault schedules against the serving "
        "tier's (2, 1) and (1, 2) layouts and certify crash-consistency, liveness, "
        "read-your-writes and serial-replay agreement after each one",
    )
    chaos_parser.add_argument(
        "--sizes",
        choices=ExperimentSizes.PRESETS,
        default="tiny",
        help="workload sizing preset (default: tiny)",
    )
    chaos_parser.add_argument(
        "--method",
        choices=("RN", "RO"),
        default="RN",
        help="retrofitting solver maintained under the stream (default: RN)",
    )
    chaos_parser.add_argument(
        "--schedules",
        type=int,
        default=5,
        help="number of seeded fault schedules; 5 covers every fault class, "
        "10 covers the full class x tier matrix (default: 5)",
    )
    chaos_parser.add_argument(
        "--queries",
        type=int,
        default=64,
        metavar="N",
        help="query vectors in the probe pool (default: 64)",
    )
    chaos_parser.add_argument(
        "--fraction",
        type=float,
        default=0.05,
        help="movies inserted per delta, as a fraction of the table "
        "(default: 0.05)",
    )
    chaos_parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="reuse the engine's suite cache for the trained starting point",
    )
    chaos_parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the certification payload as JSON",
    )
    chaos_parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="schedule seed (default: the sizing preset's seed)",
    )

    bench_parser = commands.add_parser(
        "bench",
        help="run the hot-path microbenchmarks and write BENCH_<rev>.json",
    )
    bench_parser.add_argument(
        "--sizes",
        choices=ExperimentSizes.PRESETS,
        default="quick",
        help="workload sizing preset (default: quick)",
    )
    bench_parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="best-of repetitions per microbenchmark (default: 3)",
    )
    bench_parser.add_argument(
        "--rev",
        default=None,
        help="revision label for the output file (default: git short rev)",
    )
    bench_parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output path or directory (default: ./BENCH_<rev>.json)",
    )
    bench_parser.add_argument(
        "--no-naive",
        action="store_true",
        help="skip the slow naive-SGNS reference timing",
    )
    bench_parser.add_argument(
        "--no-e2e",
        action="store_true",
        help="skip the end-to-end table2 run",
    )
    bench_parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="fail (exit 3) if any microbenchmark is >--threshold times "
        "slower than this committed BENCH_*.json baseline",
    )
    bench_parser.add_argument(
        "--threshold",
        type=float,
        default=3.0,
        help="regression factor used by --check (default: 3.0)",
    )

    pareto_parser = commands.add_parser(
        "bench-index",
        help="sweep the serving indexes over recall/latency/memory and "
        "emit a Pareto JSON; --check-gates validates a committed payload",
    )
    pareto_parser.add_argument(
        "--preset",
        choices=("tiny", "quick", "paper"),
        default="tiny",
        help="corpus size preset (default: tiny — the CI smoke)",
    )
    pareto_parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the sweep payload as JSON",
    )
    pareto_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="corpus seed (default: 0)",
    )
    pareto_parser.add_argument(
        "--check-gates",
        type=Path,
        default=None,
        metavar="PARETO_JSON",
        help="skip the sweep; validate the two committed operating-point "
        "gates in this payload (exit 3 on failure)",
    )
    return parser


def _command_list(registry: ExperimentRegistry) -> int:
    width = max((len(name) for name in registry.names()), default=0)
    for spec in registry.specs():
        datasets = ",".join(spec.datasets) or "-"
        print(f"{spec.name:<{width}}  {spec.reference:<10}  {spec.title}  [{datasets}]")
    return 0


def _resolve_names(registry: ExperimentRegistry, requested: list[str]) -> list[str]:
    if "all" in requested:
        if len(requested) > 1:
            raise ReproError("'all' cannot be combined with explicit experiment names")
        return registry.names()
    seen: list[str] = []
    for name in requested:
        registry.get(name)  # raises with the registered names on a typo
        if name not in seen:
            seen.append(name)
    return seen


def _emit_result(result, args: argparse.Namespace) -> None:
    if not args.quiet:
        print(result.table.to_text())
        print()
    if args.out is not None:
        path = result.save(Path(args.out) / f"{result.experiment}.json")
        print(f"[repro] wrote {path}")
    print(f"[repro] {result.experiment}: {result.seconds:.1f}s ({result.fingerprint})")


def _command_run(args: argparse.Namespace, registry: ExperimentRegistry) -> int:
    names = _resolve_names(registry, args.experiments)
    if args.jobs < 1:
        raise ReproError("--jobs must be at least 1")
    if args.jobs > 1:
        import time as _time

        started = _time.perf_counter()
        results = run_experiments_parallel(
            names,
            sizes=ExperimentSizes.preset(args.sizes),
            cache_dir=args.cache_dir,
            jobs=args.jobs,
        )
        wall = _time.perf_counter() - started
        for result in results:
            _emit_result(result, args)
        builds = sum(r.stats.get("suite_builds", 0) for r in results)
        disk_hits = sum(r.stats.get("suite_disk_hits", 0) for r in results)
        print(
            f"[repro] ran {len(names)} experiment(s) in {wall:.1f}s wall "
            f"({args.jobs} jobs) — suites trained {builds}, "
            f"reused {disk_hits} from disk"
        )
        return 0
    context = RunContext(
        sizes=ExperimentSizes.preset(args.sizes), cache_dir=args.cache_dir
    )
    total_seconds = 0.0
    for name in names:
        result = run_experiment(name, context=context, registry=registry)
        total_seconds += result.seconds
        _emit_result(result, args)
    stats = context.stats
    print(
        f"[repro] ran {len(names)} experiment(s) in {total_seconds:.1f}s — "
        f"suites trained {stats.suite_builds}, reused {stats.suite_memory_hits} "
        f"from memory, {stats.suite_disk_hits} from disk"
    )
    return 0


def _command_update(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.engine import RunContext
    from repro.experiments.update_bench import run_update_benchmark

    context = None
    if args.cache_dir is not None:
        context = RunContext(
            sizes=ExperimentSizes.preset(args.sizes), cache_dir=args.cache_dir
        )
    table, payload = run_update_benchmark(
        sizes=ExperimentSizes.preset(args.sizes),
        method=args.method,
        n_deltas=args.deltas,
        delta_fraction=args.fraction,
        seed=args.seed,
        context=context,
        churn=args.churn,
    )
    print(table.to_text())
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"[repro] wrote {args.out}")
    print(
        f"[repro] mean update {payload['seconds'] * 1000:.1f} ms, cold rebuild "
        f"{payload['cold_rebuild_seconds'] * 1000:.1f} ms "
        f"({payload['speedup_vs_cold']:.1f}x)"
    )
    return 0


def _command_serve_bench(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.serve_bench import run_serve_benchmark

    table, payload = run_serve_benchmark(
        sizes=ExperimentSizes.preset(args.sizes),
        method=args.method,
        readers=args.readers,
        queries_per_reader=args.queries,
        pipeline_depth=args.pipeline_depth,
        n_deltas=args.deltas,
        delta_fraction=args.fraction,
        window_seconds=args.window_ms / 1000.0,
        max_batch=args.max_batch,
        corpus_scale=args.corpus_scale,
        shards=args.shards,
        replicas=args.replicas,
        fronts=args.fronts,
        seed=args.seed,
        cache_dir=args.cache_dir,
        churn=args.churn,
    )
    print(table.to_text())
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"[repro] wrote {args.out}")
    print(
        f"[repro] concurrent {payload['concurrent']['qps']:.0f} qps vs "
        f"single-thread {payload['baseline']['qps']:.0f} qps "
        f"({payload['speedup_vs_single_thread']:.1f}x), p99 "
        f"{payload['concurrent']['p99_seconds'] * 1000:.1f} ms"
    )
    return 0


def _command_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.chaos_bench import run_chaos_benchmark

    table, payload = run_chaos_benchmark(
        sizes=ExperimentSizes.preset(args.sizes),
        method=args.method,
        schedules=args.schedules,
        n_queries=args.queries,
        delta_fraction=args.fraction,
        seed=args.seed,
        cache_dir=args.cache_dir,
    )
    print(table.to_text())
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"[repro] wrote {args.out}")
    violations = payload["violations"]
    if violations:
        for violation in violations:
            print(f"[repro] VIOLATION {violation}", file=sys.stderr)
        return 4
    print(
        f"[repro] {args.schedules} fault schedule(s) certified clean; "
        f"classes exercised: {', '.join(payload['fault_classes_exercised'])}"
    )
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    from repro.experiments.bench import (
        compare_against_baseline,
        current_revision,
        load_bench,
        run_bench,
        save_bench,
    )

    payload = run_bench(
        sizes_name=args.sizes,
        repeats=args.repeats,
        include_naive=not args.no_naive,
        include_end_to_end=not args.no_e2e,
        rev=args.rev or current_revision(),
    )
    path = save_bench(payload, args.out)
    print(f"[repro] wrote {path}")
    for name, numbers in payload["benchmarks"].items():
        seconds = numbers.get("seconds")
        line = f"[repro] {name}: " + (
            f"{seconds:.4f}s" if isinstance(seconds, (int, float)) else "-"
        )
        if "speedup_vs_naive" in numbers and numbers["speedup_vs_naive"]:
            line += f" ({numbers['speedup_vs_naive']:.1f}x vs naive)"
        print(line)
    if args.check is not None:
        regressions = compare_against_baseline(
            payload, load_bench(args.check), threshold=args.threshold
        )
        if regressions:
            for regression in regressions:
                print(f"[repro] REGRESSION {regression}", file=sys.stderr)
            return 3
        print(f"[repro] no regressions versus {args.check}")
    return 0


def _command_bench_index(args: argparse.Namespace) -> int:
    from repro.experiments.index_pareto import (
        check_gates,
        format_table,
        load_payload,
        run_index_pareto,
        save_payload,
    )

    if args.check_gates is not None:
        payload = load_payload(args.check_gates)
        failures = check_gates(payload)
        if failures:
            for failure in failures:
                print(f"[repro] GATE {failure}", file=sys.stderr)
            return 3
        print(f"[repro] both index operating points hold in {args.check_gates}")
        return 0

    payload = run_index_pareto(
        preset=args.preset,
        seed=args.seed,
        progress=lambda message: print(f"[repro] bench-index: {message}"),
    )
    print(format_table(payload))
    if args.out is not None:
        path = save_payload(payload, args.out)
        print(f"[repro] wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    registry = default_registry()
    try:
        if args.command == "list":
            return _command_list(registry)
        if args.command == "bench":
            return _command_bench(args)
        if args.command == "bench-index":
            return _command_bench_index(args)
        if args.command == "update":
            return _command_update(args)
        if args.command == "serve-bench":
            return _command_serve_bench(args)
        if args.command == "chaos":
            return _command_chaos(args)
        return _command_run(args, registry)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
