#!/usr/bin/env python3
"""Benchmark of the RMRLS reproduction, one workload per invocation.

    python3 perfbench/run.py --workload table2_slice --seed 1 \\
        --seconds 15 --trace 0

Run it from the repository root.  ``--trace 0`` measures the
end-to-end metrics (in ``BENCHMARK.json``) with tracing off; ``--trace
1`` runs the same pass untraced and then traced, checks that both
produced the same exact counts, and reports the per-layer metrics.
``--workload all`` runs every workload in turn and prints one row each.

Standard output ends with a row of every metric by name and unit, then
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 1 when any returned circuit failed its check, 2 when the
program or its corpus is missing.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = ".perfbench_tmp"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def declared_metrics(kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    declared in ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {entry["name"]: entry["unit"]
                for entry in json.load(handle)[kind]}


#: Span name -> per-layer self-time metric.
SPAN_LAYERS = {
    "synth.search": "synth.search_s",
    "functions.to_pprm": "functions.to_pprm_s",
    "circuits.verify": "circuits.verify_s",
    "io.load_real": "io.load_real_s",
    "store.canonicalize": "store.canonicalize_s",
    "serve.request": "serve.request_s",
    "parallel.first_level": "parallel.first_level_s",
}

SEARCH_PHASE_METRICS = (
    "synth.enumerate_s", "synth.substitute_s", "synth.dedupe_s",
    "synth.queue_s",
)


def fix_environment() -> None:
    """Measure the default program: drop every ``RMRLS_*`` switch and the
    experiment scale from this process and its children, and point
    ``PYTHONPATH`` at the checkout's sources."""
    for name in list(os.environ):
        if name.startswith("RMRLS_") or name == "REPRO_BENCH_SCALE":
            del os.environ[name]
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def environment_record() -> dict:
    from repro.functions.permutation import Permutation
    from repro.perf.report import git_info

    return {
        "engine": Permutation([1, 0]).to_pprm().engine.name,
        "git_sha": git_info(ROOT).get("sha") or "unknown",
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
    }


def end_to_end_metrics(run, setups) -> tuple[dict, str]:
    from measure import tail_percentile

    latencies = run.reference_latencies()
    tail, percentile, count = tail_percentile(latencies)
    wall = run.reference_wall()
    metrics = {
        # Set-up runs seconds before the pass and is as CPU-bound, so
        # the pass's host slowdown applies to it too.
        "setup_s": statistics.median(setups) / (run.speed or 1.0),
        "wall_s": wall,
        "specs_per_s": run.attempted / wall,
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * tail,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, f"p{percentile:g} of {count}"


def row_extras(workload, run) -> dict:
    """Workload-specific end-to-end numbers, printed in the row beside
    the bounded ``end_to_end`` set of BENCHMARK.json."""
    from measure import median_or_zero, ratio, split_by_outcome

    extras = {
        "solve_rate": (ratio(run.solved, run.attempted), "ratio"),
        "avg_gates": (ratio(sum(run.gates), len(run.gates)), "gates"),
        "error_rate": (ratio(len(run.errors), run.attempted), "ratio"),
    }
    if workload.name == "serve_mix":
        groups = split_by_outcome(zip(
            (cache for cache, _ in run.latencies), run.reference_latencies()))
        for cache in ("hit", "miss"):
            extras[f"{cache}_p50_ms"] = (
                1000 * median_or_zero(groups.get(cache)), "ms")
    else:
        extras["steps_per_s"] = (run.steps / run.reference_wall(), "1/s")
    if run.speed:
        extras["raw_wall_s"] = (run.wall, "s")
        extras["host_slowdown"] = (run.speed, "x")
    if run.ipc:
        extras["ipc_slowdown"] = (run.ipc, "x")
    if "quality.optimality_gap" in run.layers:
        extras["optimality_gap"] = (run.layers["quality.optimality_gap"],
                                    "gates")
    return extras


def layer_metrics(base, traced, tracer, attributed) -> dict:
    from measure import ratio

    metrics = {name: 0.0 for name in declared_metrics("per_layer")}
    metrics.update(traced.layers)
    for span, total in tracer.self_times().items():
        if span in SPAN_LAYERS:
            metrics[SPAN_LAYERS[span]] = total
    phases = sum(metrics[name] for name in SEARCH_PHASE_METRICS)
    if phases:
        metrics["synth.other_s"] = (
            metrics["synth.search_s"] - phases - metrics["functions.to_pprm_s"]
        )
    metrics["synth.steps_per_s"] = ratio(base.steps, base.reference_wall())
    metrics["quality.solve_rate"] = ratio(traced.solved, traced.attempted)
    metrics["quality.avg_gates"] = ratio(sum(traced.gates), len(traced.gates))
    metrics["quality.error_rate"] = ratio(len(traced.errors),
                                          traced.attempted)
    metrics["trace.overhead"] = traced.reference_wall() / base.reference_wall()
    metrics["trace.unattributed_s"] = traced.wall - attributed
    metrics["trace.host_slowdown"] = traced.speed or 1.0
    return metrics


def determinism_errors(base, traced) -> list[str]:
    return [
        f"determinism: {key} differs between the untraced and traced pass"
        for key in base.counts
        if base.counts[key] != traced.counts.get(key)
    ]


def measure_workload(workload, seed: int, seconds: int, trace: bool,
                     spans_path):
    """Set up, run the pass (twice with ``trace``), tear down, and
    collect the row, the errors and the reported metrics."""
    from measure import NullTracer, Tracer

    scratch = os.path.join(SCRATCH, f"run-{os.getpid()}")
    os.makedirs(scratch)
    state = None
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            if state is not None:
                workload.close(state)
                state = None
            begin = time.perf_counter()
            state = workload.prepare(seed, seconds, scratch)
            setups.append(time.perf_counter() - begin)
        base = workload.run_pass(state, NullTracer())
        if trace:
            workload.close(state)
            state = None
            state = workload.prepare(seed, seconds, scratch)
            tracer = Tracer()
            traced = workload.run_pass(state, tracer)
            attributed = sum(tracer.self_times().values())
            workload.probe_layers(state, tracer, traced)
    finally:
        if state is not None:
            workload.close(state)
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass
    end_to_end, tail_note = end_to_end_metrics(base, setups)
    declared = declared_metrics("end_to_end")
    row = {name: (end_to_end[name], unit) for name, unit in declared.items()}
    row.update(row_extras(workload, base))
    errors = list(base.errors)
    attempted = base.attempted
    metrics = end_to_end
    if trace:
        errors += traced.errors + determinism_errors(base, traced)
        attempted += traced.attempted
        metrics = layer_metrics(base, traced, tracer, attributed)
        declared = declared_metrics("per_layer")
        if spans_path:
            with open(spans_path, "w") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(span) + "\n")
    return {
        "row": row,
        "tail_note": tail_note,
        "counts": base.counts,
        "errors": errors,
        "attempted": attempted,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared.items()
        },
    }


def format_row(name: str, row: dict, tail_note: str) -> str:
    cells = []
    for metric, (value, unit) in row.items():
        cell = f"{metric}={value:.6g} {unit}"
        if metric == "latency_tail_ms":
            cell += f" ({tail_note})"
        cells.append(cell)
    return f"{name:<17} " + " | ".join(cells)


def run_all(args) -> int:
    """Every workload in its own process, one row each."""
    from workloads import WORKLOADS

    status = 0
    results = {}
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            output, _ = child.communicate()
        except BaseException:
            # Terminate, not kill, so the child still shuts its daemon
            # down and removes its files; then wait for it.
            child.terminate()
            child.wait()
            raise
        lines = output.strip().splitlines()
        status = status or child.returncode
        if not lines:
            print(f"{name:<17} no result (exit {child.returncode})")
            continue
        print("\n".join(line for line in lines[:-1] if line.startswith(name)))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "workloads": results,
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", metavar="FILE", default=None,
                        help="with --trace 1: write the spans here as JSONL")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.spans:
        args.spans = os.path.abspath(args.spans)

    os.chdir(ROOT)
    for needed in (os.path.join(SRC, "repro", "__init__.py"),
                   os.path.join("results", "coverage3.jsonl")):
        if not os.path.isfile(needed):
            print(f"perfbench: {needed} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    fix_environment()
    # A terminated run still shuts its daemon down and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from measure import count_summary
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    env = environment_record()
    print("# " + " ".join(f"{key}={value}" for key, value in env.items())
          + f" workload={workload.name} seed={args.seed}"
          + f" seconds={args.seconds} trace={args.trace}")
    result = measure_workload(workload, args.seed, args.seconds,
                              bool(args.trace), args.spans)
    print(format_row(workload.name, result["row"], result["tail_note"]))
    # The exact counts stay out of the result line (its keys are fixed);
    # equal seeds must print equal counts on every run.
    print("# counts " + json.dumps(count_summary(result["counts"])))
    for error in result["errors"][:20]:
        print(f"perfbench: {error}", file=sys.stderr)
    failed = min(len(result["errors"]), result["attempted"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
