"""The repository benchmark: one command, every workload, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is ``embed``, ``local``, ``query``, ``update`` or ``all``.  The
seed builds the workload's inputs (same seed, same inputs); ``--seconds``
is how long the timed phase runs.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the metrics are the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run (spans around each call into a
layer) plus the tracing overhead.  Everything above that line is the
human-readable report.  The full report, and the spans of a traced run,
are written under ``.perfbench/out/``.  The exit code is 0 only when
every output check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: workload -> (module, function) running it
WORKLOADS = {
    "embed": ("embed", "run"),
    "local": ("local", "run"),
    "query": ("remote", "run_query"),
    "update": ("remote", "run_update"),
}
OUT_DIR = ROOT / ".perfbench" / "out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def _metrics(outcome, trace: bool) -> dict:
    import harness

    if trace:
        values = dict.fromkeys(harness.PER_LAYER, 0.0)
        values.update(outcome.per_layer)
        values.update({
            f"trace.overhead.{name}": value
            for name, value in outcome.overhead.items()
        })
        units = harness.PER_LAYER
    else:
        values = {name: outcome.end_to_end.get(name) for name in harness.END_TO_END}
        units = harness.END_TO_END
    finite = all(
        isinstance(value, (int, float)) and math.isfinite(value)
        for value in values.values()
    )
    outcome.check("metrics_measured", finite)
    return {
        name: {"value": value if finite else None, "unit": units[name]}
        for name, value in values.items()
    }


def _report(outcome, metrics, trace: bool, env: dict, seed: int) -> None:
    import harness

    print(f"== {outcome.workload} (seed {seed}, trace {int(trace)}) ==")
    print("environment: " + json.dumps(env))
    print(f"requests: attempted {outcome.attempted}, "
          f"succeeded {outcome.attempted - outcome.failed}, failed {outcome.failed}")
    for name, (value, unit, samples) in outcome.named.items():
        print(f"  {name:<26} {value:>14.4f} {unit:<6} ({samples} samples)")
    if trace:
        print("per-layer (0 = layer not exercised by this workload; "
              "'exact' counts repeat exactly for a given seed):")
        for name, entry in metrics.items():
            exact = name in harness.EXACT
            value = entry["value"]
            shown = "—" if value is None else f"{value:14.4f}"
            print(f"  {name:<38} {shown:>14} {entry['unit']:<6}"
                  f"{' exact' if exact else ''}")
    for name, ok in outcome.checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for note in outcome.notes:
        print(f"  note: {note}")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import harness

    module, function = WORKLOADS[workload]
    env = harness.environment()
    started = time.perf_counter()
    outcome = getattr(importlib.import_module(module), function)(seed, seconds, trace)
    metrics = _metrics(outcome, trace)
    result = {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    _report(outcome, metrics, trace, env, seed)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        "result": result,
        "environment": env,
        "named": {k: list(v) for k, v in outcome.named.items()},
        "checks": outcome.checks,
        "notes": outcome.notes,
        "exact_counts": sorted(harness.EXACT),
        "wall_seconds": time.perf_counter() - started,
    }, indent=2))
    if trace:
        outcome.tracer.dump(OUT_DIR / f"{stem}-spans.json")
    return result


def _run_each(args) -> dict:
    """``--workload all``: every workload in a fresh process of its own,
    so one workload's memory peak and BLAS setting never reach another."""
    results = {}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        print(child.stdout, end="", flush=True)
        lines = child.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            raise SystemExit(f"perfbench: workload {name} printed no result")
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{metric}": entry
            for name, result in results.items()
            for metric, entry in result["metrics"].items()
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        final = _run_each(args)
    else:
        if args.workload == "embed":
            # Table 2 times single-threaded builds; must precede numpy's import
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
        sys.path.insert(0, str(ROOT / "src"))
        import harness

        harness.become_subreaper()
        final = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
