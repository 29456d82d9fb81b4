"""Command-line interface: the ``rmrls`` tool.

Subcommands::

    rmrls synth --spec "1,0,7,2,3,4,5,6"        # synthesize a permutation
    rmrls synth --benchmark rd53 --draw         # synthesize a benchmark
    rmrls synth --benchmark rd53 --json         # machine-readable report
    rmrls profile --benchmark rd53              # phase-time breakdown
    rmrls trace summarize run.jsonl             # analyze a JSONL trace
    rmrls benchmarks                            # list known benchmarks
    rmrls table1 --sample 100                   # reproduce Table I
    rmrls table2 --sample 20 / table3 --sample 10
    rmrls table4 --names rd32,3_17 --json
    rmrls scalability --max-gates 15 --samples 5
    rmrls table2 --sample 500 --isolate --jobs 4 --resume t2.jsonl
    rmrls sweep probes --probes ok,hang --isolate   # harness smoke test
    rmrls examples                              # the 14 worked examples
    rmrls figures                               # regenerate Figs. 1-9
    rmrls serve --socket S --store DIR          # synthesis cache daemon
    rmrls client --socket S --spec "2,0,1,3"    # one request to the daemon
    rmrls store stats DIR / verify / gc / export  # inspect & repair a store
    rmrls postmortem runs/flight                # crash-dump fleet timeline
    rmrls replay runs/flight/t1-a0.dump.json    # deterministic re-run

Observability flags on ``synth`` (see docs/observability.md): ``--json``
prints one JSON run report to stdout, ``--metrics PATH`` writes the same
report to a file alongside human output, ``--trace-jsonl PATH`` streams
every search event as JSON lines, and ``--progress-every N`` prints a
steps/sec status line to stderr every N steps.

Performance observability (see docs/benchmarking.md): end-to-end and
per-layer benchmarking is ``perfbench/``.  ``rmrls trace summarize``
post-processes a ``--trace-jsonl`` file into substitution
frequencies, queue-depth percentiles, and the restart timeline.

Durable synthesis cache (see docs/robustness.md): ``rmrls serve``
answers synthesis requests over a unix socket through the crash-safe
canonical circuit store — hits replay a stored circuit onto the
caller's wire order, misses are single-flighted onto the worker pool
as they arrive, and the verified result seeds the store.  ``rmrls store`` has the
offline tools (``stats``, ``verify [--deep] [--repair]``, ``gc``,
``export``), all emitting JSON.  ``--store DIR`` on a table command or
``rmrls sweep`` warms a store from every circuit the sweep
synthesizes; ``--fsync-ledger`` makes the resume ledger power-cut
durable.

Every paper experiment (``table1``-``table4``, ``scalability``) runs
one way: one harness sweep configured by the shared harness flags
(inline by default), printing its table or, with ``--json``,
``{"metrics", "results"}``.

Crash forensics (see docs/observability.md): ``--flight-dir DIR`` on
portfolio ``synth`` runs, ``--isolate`` sweeps and table commands, and
``serve`` arms a black-box flight recorder in every process.  Clean
exits leave nothing behind; crashed, unsound, OOM-killed, or SIGKILL'd
processes leave checksummed crash dumps (recovered from the victim's
mmap ring file by the coordinator).  ``rmrls postmortem DIR``
reconstructs the fleet's final moments; ``rmrls replay DUMP`` re-runs
the recorded search deterministically and checks it reaches the same
states.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.benchlib.specs import all_benchmarks, benchmark
from repro.circuits.drawing import draw_circuit
from repro.functions.permutation import Permutation
from repro.synth.options import SynthesisOptions
from repro.synth.rmrls import synthesize

__all__ = ["main"]


def _options_from_args(args) -> SynthesisOptions:
    return SynthesisOptions(
        greedy_k=args.greedy_k,
        restart_steps=args.restart_steps,
        max_steps=args.max_steps,
        max_gates=args.max_gates,
        time_limit=args.time_limit,
        dedupe_states=not args.no_dedupe,
    )


def _add_option_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--greedy-k", type=int, default=None,
                        help="greedy pruning width per variable (Sec. IV-E)")
    parser.add_argument("--restart-steps", type=int, default=None,
                        help="restart after this many steps without a solution")
    parser.add_argument("--max-steps", type=int, default=100_000,
                        help="total search step budget")
    parser.add_argument("--max-gates", type=int, default=None,
                        help="maximum circuit size accepted")
    parser.add_argument("--time-limit", type=float, default=None,
                        help="wall-clock budget in seconds")
    parser.add_argument("--no-dedupe", action="store_true",
                        help="disable the duplicate-state table")


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="print one machine-readable JSON run report "
                             "to stdout (suppresses the human output)")
    parser.add_argument("--metrics", metavar="PATH",
                        help="write the JSON run report to PATH")
    parser.add_argument("--trace-jsonl", metavar="PATH",
                        help="stream one JSON object per search event "
                             "to PATH")
    parser.add_argument("--progress-every", type=int, metavar="N",
                        default=None,
                        help="print a progress line to stderr every N steps")
    parser.add_argument("--flight-dir", metavar="DIR", default=None,
                        help="arm a black-box flight recorder in every "
                             "portfolio process (needs --jobs above 1 or "
                             "--strategies); abnormal exits leave crash "
                             "dumps under DIR (inspect with `rmrls "
                             "postmortem`, re-run with `rmrls replay`)")


def _resolve_spec(args):
    """Turn ``--spec``/``--benchmark`` into (permutation, system, verify).

    Returns ``None`` (after printing the usage error) when neither or
    both were given.
    """
    if bool(args.spec) == bool(args.benchmark):
        print("exactly one of --spec or --benchmark is required",
              file=sys.stderr)
        return None
    if args.spec:
        images = [int(part) for part in args.spec.replace(",", " ").split()]
        permutation = Permutation(images)
        system = permutation.to_pprm()
        verify = lambda circuit: circuit.implements(permutation)
    else:
        entry = benchmark(args.benchmark)
        permutation = entry.permutation
        system = entry.pprm()
        verify = entry.verify
    return permutation, system, verify


def _attach_observers(args, options):
    """Build observers from the observability flags.

    Returns ``(options, registry, phases, jsonl_observer)`` where
    ``options`` carries the observers and the rest are ``None`` unless
    their flag was given (``registry`` and ``phases`` are created for
    ``--json`` and ``--metrics``).
    """
    from repro.obs import (
        JsonlTraceObserver,
        MetricsObserver,
        MetricsRegistry,
        PhaseTimer,
        ProgressObserver,
    )

    registry = None
    phases = None
    jsonl = None
    observers = []
    if args.json or args.metrics:
        registry = MetricsRegistry()
        phases = PhaseTimer()
        observers.append(MetricsObserver(registry))
    if args.trace_jsonl:
        jsonl = JsonlTraceObserver.open(args.trace_jsonl)
        observers.append(jsonl)
    if args.progress_every:
        observers.append(ProgressObserver(every=args.progress_every))
    if observers or phases is not None:
        options = options.with_(
            observers=options.observers + tuple(observers),
            phase_timer=phases if phases is not None else options.phase_timer,
        )
    return options, registry, phases, jsonl


def _cmd_synth(args) -> int:
    resolved = _resolve_spec(args)
    if resolved is None:
        return 2
    permutation, system, verify = resolved
    if args.metrics:
        directory = os.path.dirname(os.path.abspath(args.metrics))
        if not os.path.isdir(directory):
            print(f"--metrics: directory does not exist: {directory}",
                  file=sys.stderr)
            return 2
    options = _options_from_args(args)
    if getattr(args, "flight_dir", None):
        options = options.with_(flight_dir=args.flight_dir)
    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    if getattr(args, "strategies", None):
        from repro.parallel.strategy import resolve_strategies

        try:
            deck_variants = resolve_strategies(args.strategies)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        if jobs is None:
            # One slot per variant: `--strategies default` alone races
            # the whole deck.
            jobs = len(deck_variants)
        options = options.with_(portfolio_strategies=args.strategies)
    if jobs is not None:
        options = options.with_(
            portfolio_jobs=jobs,
            portfolio_cancel_gates=args.cancel_gates,
        )
    if getattr(args, "no_share_bound", False):
        options = options.with_(portfolio_share_bound=False)
    # A deck always runs as a portfolio, a one-variant deck included.
    portfolio = (jobs is not None and jobs > 1) or bool(
        getattr(args, "strategies", None)
    )
    if getattr(args, "flight_dir", None) and not portfolio:
        # Only portfolio processes arm a recorder; a serial search
        # would run with --flight-dir and record nothing.
        print("--flight-dir needs a portfolio run (--jobs above 1 or "
              "--strategies): a serial search arms no flight recorder",
              file=sys.stderr)
        return 2
    if portfolio:
        # Portfolio workers run without the caller's observers.
        for flag in ("trace_jsonl", "progress_every"):
            if getattr(args, flag):
                print(f"--{flag.replace('_', '-')} does not work with a "
                      "portfolio run (--jobs above 1 or --strategies); "
                      "read its portfolio block in --json or --metrics",
                      file=sys.stderr)
                return 2
    options, registry, phases, jsonl = _attach_observers(args, options)
    direction = args.direction
    if direction != "forward" and permutation is None:
        print(f"--direction {direction} needs an invertible "
              "(tabulated) spec", file=sys.stderr)
        return 2
    try:
        if direction == "bidirectional":
            from repro.synth.bidirectional import synthesize_bidirectional

            both = synthesize_bidirectional(permutation, options)
            result = both.as_result()
            if both.solved and not args.json:
                print(f"direction: {both.direction}")
        elif direction == "inverse":
            from repro.synth.bidirectional import synthesize_inverse

            result = synthesize_inverse(permutation, options)
        else:
            # Prefer the tabulated form when it exists: the portfolio's
            # inverse-direction deck slots need an invertible spec.
            result = synthesize(
                system if permutation is None else permutation, options
            )
    finally:
        if jsonl is not None:
            jsonl.close()
    report = None
    if registry is not None:
        from repro.obs import build_run_report

        report = build_run_report(
            result, registry=registry, phases=phases,
            benchmark=args.benchmark,
        )
        report["direction"] = direction
        if getattr(result, "portfolio", None) is not None:
            report["portfolio"] = result.portfolio.as_dict()
    if args.metrics:
        from repro.obs import write_run_report

        write_run_report(report, args.metrics)
        if not args.json:
            print(f"wrote run report to {args.metrics}", file=sys.stderr)
    if result.circuit is not None:
        assert verify(result.circuit), (
            "synthesized circuit failed verification"
        )
    if args.json:
        print(json.dumps(report, indent=2))
        return 0 if result.circuit is not None else 1
    if result.circuit is None:
        print(f"no circuit found within the budget "
              f"({result.stats.steps} steps)")
        return 1
    if direction == "inverse":
        print("direction: inverse")
    print(f"gates: {result.circuit.gate_count()}   "
          f"quantum cost: {result.circuit.quantum_cost()}   "
          f"steps: {result.stats.steps}   "
          f"time: {result.stats.elapsed_seconds:.2f}s")
    summary = getattr(result, "portfolio", None)
    if summary is not None and not summary.shortcut:
        print(f"portfolio: {summary.jobs} jobs over {summary.seed_count} "
              f"seeds, winner slice {summary.winner_slice} "
              f"(seed rank {summary.winner_rank}), "
              f"{summary.cancelled} cancelled")
        if summary.strategies:
            counts = {}
            for entry in summary.slices:
                if entry.variant:
                    counts[entry.variant] = counts.get(entry.variant, 0) + 1
            dealt = ", ".join(
                f"{name}x{count}" for name, count in counts.items()
            )
            print(f"strategies: {dealt}   "
                  f"winner: {summary.winner_variant or '-'}")
    print(result.circuit)
    if args.draw:
        print()
        print(draw_circuit(result.circuit))
    return 0


def _cmd_strategies(args) -> int:
    """List the heterogeneous-portfolio strategy catalog and decks."""
    from repro.parallel.strategy import DECKS, resolve_strategies

    try:
        deck = resolve_strategies(args.strategies or "full")
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(
            {
                "variants": [entry.as_dict() for entry in deck],
                "decks": {
                    name: list(names)
                    for name, names in sorted(DECKS.items())
                },
            },
            indent=2, sort_keys=True,
        ))
        return 0
    print(f"{'variant':<16} {'direction':<13} deltas")
    for entry in deck:
        deltas = ", ".join(
            f"{key}={value}" for key, value in entry.deltas
        ) or "-"
        print(f"{entry.name:<16} {entry.direction:<13} {deltas}")
    print()
    for name, names in sorted(DECKS.items()):
        print(f"deck {name}: {', '.join(names)}")
    return 0


def _cmd_profile(args) -> int:
    """Synthesize once with full instrumentation and print where the
    time went (phase breakdown plus the search histograms)."""
    from repro.obs import (
        MetricsObserver,
        MetricsRegistry,
        PhaseTimer,
        build_run_report,
    )

    resolved = _resolve_spec(args)
    if resolved is None:
        return 2
    _permutation, system, verify = resolved
    registry = MetricsRegistry()
    phases = PhaseTimer(stride=args.sample_stride)
    options = _options_from_args(args).with_(
        observers=(MetricsObserver(registry),), phase_timer=phases
    )
    result = synthesize(system, options)
    if result.circuit is not None:
        assert verify(result.circuit), (
            "synthesized circuit failed verification"
        )
    if args.json:
        report = build_run_report(
            result, registry=registry, phases=phases,
            benchmark=args.benchmark,
        )
        print(json.dumps(report, indent=2))
        return 0 if result.solved else 1
    stats = result.stats
    rate = stats.steps / stats.elapsed_seconds if stats.elapsed_seconds else 0
    if result.solved:
        print(f"solved: {result.gate_count} gates, quantum cost "
              f"{result.circuit.quantum_cost()}")
    else:
        print("unsolved within the budget")
    print(f"steps: {stats.steps}   nodes: {stats.nodes_created}   "
          f"time: {stats.elapsed_seconds:.3f}s   ({rate:,.0f} steps/s)")
    hot = {name: value for name, value in stats.hot_ops.items() if value}
    if hot:
        print("hot ops: " + ", ".join(
            f"{name}={value:,}" for name, value in hot.items()
        ))
    print()
    print(phases.render())
    for name in ("elim", "children_per_expansion", "queue_size"):
        histogram = registry.get(name)
        if histogram is not None and histogram.count:
            print()
            print(histogram.render())
    return 0 if result.solved else 1


def _cmd_trace_summarize(args) -> int:
    """Summarize a ``--trace-jsonl`` file."""
    from repro.obs import render_trace_summary, summarize_trace

    try:
        with open(args.trace) as handle:
            summary = summarize_trace(handle, top=args.top)
    except OSError as error:
        print(f"cannot read trace: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"malformed trace: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(render_trace_summary(summary))
    return 0


def _cmd_postmortem(args) -> int:
    """Reconstruct the fleet's final moments from flight-recorder dumps."""
    from repro.obs import build_postmortem, render_postmortem

    if not os.path.isdir(args.flight_dir):
        print(f"not a directory: {args.flight_dir}", file=sys.stderr)
        return 2
    document = build_postmortem(
        args.flight_dir, recover=not args.no_recover, tail=args.tail
    )
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(render_postmortem(document, timeline_tail=args.timeline))
    # Exit 1 when any dump failed validation — a postmortem you cannot
    # trust should fail loudly in CI, not render a partial table.
    return 1 if document.get("invalid") else 0


def _cmd_replay(args) -> int:
    """Re-run the search recorded in a crash dump and check determinism."""
    from repro.obs import load_dump, replay_dump

    try:
        document = load_dump(args.dump)
    except (OSError, ValueError) as error:
        print(f"cannot load dump: {error}", file=sys.stderr)
        return 2
    try:
        verdict = replay_dump(document)
    except ValueError as error:
        print(f"cannot replay dump: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(verdict, indent=2, sort_keys=True))
    else:
        status = "DETERMINISTIC" if verdict.get("ok") else "DIVERGED"
        print(f"replay: {status}  "
              f"checked={verdict.get('checked')} "
              f"mismatches={len(verdict.get('mismatches') or [])} "
              f"last_recorded_step={verdict.get('last_step')} "
              f"steps_replayed={verdict.get('steps_replayed')}")
        for miss in (verdict.get("mismatches") or [])[:10]:
            print(f"  step {miss.get('step')}: recorded "
                  f"{miss.get('recorded')} != replayed "
                  f"{miss.get('replayed')}")
        if verdict.get("verdict"):
            print(f"  note: {verdict['verdict']}")
    return 0 if verdict.get("ok") else 1


def _cmd_embed(args) -> int:
    from repro.functions.dontcare import synthesize_with_dont_cares
    from repro.io.pla import load_pla_table

    with open(args.pla) as handle:
        table = load_pla_table(handle.read())
    print(f"{args.pla}: {table.num_inputs} inputs, {table.num_outputs} "
          f"outputs, reversible={table.is_reversible()}")
    result = synthesize_with_dont_cares(table, _options_from_args(args))
    for name, gates in result.attempts:
        print(f"  strategy {name:28s} -> "
              f"{gates if gates is not None else 'unsolved'}")
    if not result.solved:
        print("no strategy produced a circuit within the budget")
        return 1
    print(f"best ({result.strategy.name}): "
          f"{result.circuit.gate_count()} gates, quantum cost "
          f"{result.circuit.quantum_cost()}")
    print(result.circuit)
    if args.draw:
        print()
        print(draw_circuit(result.circuit))
    return 0


def _load_circuit_arg(path: str):
    from repro.io.real_format import load_real

    with open(path) as handle:
        return load_real(handle.read())


def _cmd_draw(args) -> int:
    circuit = _load_circuit_arg(args.real)
    print(f"{args.real}: {circuit.num_lines} lines, "
          f"{circuit.gate_count()} gates, quantum cost "
          f"{circuit.quantum_cost()}")
    print()
    print(draw_circuit(circuit))
    if args.profile:
        from repro.circuits.profile import profile_circuit

        print()
        print(profile_circuit(circuit).render())
    return 0


def _cmd_verify(args) -> int:
    from repro.circuits.verify import equivalent

    first = _load_circuit_arg(args.first)
    second = _load_circuit_arg(args.second)
    same = equivalent(first, second)
    print("EQUIVALENT" if same else "DIFFERENT")
    return 0 if same else 1


def _cmd_decompose(args) -> int:
    from repro.circuits.decompose import decompose_circuit
    from repro.io.real_format import dump_real
    from repro.postprocess.templates import cancel_duplicates

    circuit = _load_circuit_arg(args.real)
    try:
        nct = cancel_duplicates(decompose_circuit(circuit))
    except ValueError as error:
        print(f"cannot decompose: {error}", file=sys.stderr)
        return 1
    print(f"GT:  {circuit.gate_count()} gates, largest "
          f"TOF{circuit.max_gate_size()}, cost {circuit.quantum_cost()}",
          file=sys.stderr)
    print(f"NCT: {nct.gate_count()} gates, cost {nct.quantum_cost()}",
          file=sys.stderr)
    print(dump_real(nct, header_comments=[f"NCT mapping of {args.real}"]),
          end="")
    return 0


def _cmd_benchmarks(_args) -> int:
    from repro.utils.tables import format_table

    rows = [
        (spec.name, spec.num_lines, spec.real_inputs, spec.garbage_inputs,
         spec.source, spec.description)
        for spec in sorted(all_benchmarks().values(), key=lambda s: s.name)
    ]
    print(format_table(
        ["name", "lines", "real", "garbage", "source", "description"], rows
    ))
    return 0


def _experiment_json(result) -> dict:
    return {
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures,
        "histogram": result.histogram,
        "sweep": result.extras.get("sweep"),
    }


def _cmd_table(args) -> int:
    """Run one paper experiment (``table1``-``table4``, ``scalability``)
    through the sweep harness; print its table, or with ``--json`` its
    results next to the sweep metrics."""
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    try:
        harness = _harness_from_args(args, metrics=registry)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    command = args.command
    if command == "table1":
        from repro.experiments.table1 import render_table1, run_table1

        if args.corpus is not None and not os.path.exists(args.corpus):
            print(f"coverage corpus not found: {args.corpus}",
                  file=sys.stderr)
            return 2
        results = run_table1(
            sample=None if args.full else args.sample, seed=args.seed,
            harness=harness, limit=args.limit, corpus=args.corpus,
        )
        rendered = render_table1(results)
        rows = {r.name: _experiment_json(r) for r in results.values()}
    elif command in ("table2", "table3"):
        from repro.experiments.table23 import (
            render_table2,
            render_table3,
            run_random_functions,
        )

        result = run_random_functions(
            4 if command == "table2" else 5, args.sample, seed=args.seed,
            harness=harness, limit=args.limit,
        )
        render = render_table2 if command == "table2" else render_table3
        rendered = render(result)
        rows = {result.name: _experiment_json(result)}
    elif command == "table4":
        from repro.experiments.table4 import render_table4, run_table4

        names = args.names.split(",") if args.names else None
        outcomes = run_table4(names, harness=harness, limit=args.limit)
        rendered = render_table4(outcomes)
        rows = {
            name: {
                "gate_count": outcome.gate_count,
                "quantum_cost": outcome.quantum_cost,
                "raw_gate_count": outcome.raw_gate_count,
                "unsound_count": outcome.unsound_count,
                "stats": outcome.stats.as_dict(),
            }
            for name, outcome in outcomes.items()
        }
    else:
        from repro.experiments.table567 import (
            render_scalability,
            run_scalability,
        )

        variables = (
            [int(v) for v in args.variables.split(",")]
            if args.variables else None
        )
        results = run_scalability(
            args.max_gates, variables=variables, samples=args.samples,
            seed=args.seed, harness=harness, limit=args.limit,
        )
        rendered = render_scalability(args.max_gates, results)
        rows = {r.name: _experiment_json(r) for r in results.values()}

    if args.json:
        print(json.dumps(
            {"metrics": registry.as_dict(), "results": rows}, indent=2
        ))
    else:
        print(rendered)
        for line in _sweep_recovery_lines(registry, args.store):
            print(line, file=sys.stderr)
    return 0


def _add_harness_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--isolate", action="store_true",
                        help="run each task in a budgeted subprocess")
    parser.add_argument("--jobs", type=int, default=1,
                        help="concurrent isolated workers (default 1)")
    parser.add_argument("--retries", type=int, default=0,
                        help="max retries per task, with escalating budgets")
    parser.add_argument("--mem-limit", type=int, metavar="MB", default=None,
                        help="per-worker address-space cap in MiB "
                             "(needs --isolate)")
    parser.add_argument("--wall-limit", type=float, metavar="SECONDS",
                        default=None,
                        help="per-attempt wall budget; overrunning workers "
                             "are killed (needs --isolate)")
    parser.add_argument("--resume", metavar="LEDGER", default=None,
                        help="JSONL checkpoint ledger: completed tasks are "
                             "skipped, new outcomes appended")
    parser.add_argument("--fsync-ledger", action="store_true",
                        help="fsync every ledger line (power-cut durable "
                             "checkpoints; needs --resume)")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="seed this canonical circuit store with every "
                             "synthesized circuit (deduplicated by "
                             "canonical key; see docs/robustness.md)")
    parser.add_argument("--strict", action="store_true",
                        help="abort on the first unsound circuit instead of "
                             "recording it")
    parser.add_argument("--limit", type=int, default=None,
                        help="execute at most N unfinished tasks, then stop "
                             "(combine with --resume to continue later)")
    parser.add_argument("--flight-dir", metavar="DIR", default=None,
                        help="arm a flight recorder in every worker "
                             "(needs --isolate); dead workers leave crash "
                             "dumps under DIR for `rmrls postmortem` / "
                             "`rmrls replay`")


def _harness_from_args(args, metrics=None):
    from repro.harness import HarnessConfig, RetryPolicy

    return HarnessConfig(
        isolate=args.isolate,
        jobs=args.jobs,
        wall_seconds=args.wall_limit,
        mem_limit_mb=args.mem_limit,
        retry=RetryPolicy(max_retries=args.retries),
        ledger_path=args.resume,
        ledger_fsync=args.fsync_ledger,
        store_path=args.store,
        strict=args.strict,
        metrics=metrics,
        flight_dir=args.flight_dir,
    )


def _cmd_sweep(args) -> int:
    """Run the harness probes or a sharded coverage sweep verb."""
    from repro.harness import build_sweep_report, probe_task, run_sweep
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    try:
        harness = _harness_from_args(args, metrics=registry)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.target != "probes":
        return _cmd_sweep_sharded(args, harness, registry)

    behaviors = [
        behavior.strip()
        for behavior in (args.probes or "ok").split(",")
        if behavior.strip()
    ]
    tasks = [
        probe_task(
            behavior,
            meta={"label": f"probe{index}:{behavior}"},
            namespace=f"probes:{index}",
        )
        for index, behavior in enumerate(behaviors)
    ]
    report = run_sweep("probes", tasks, config=harness, limit=args.limit)
    if args.json:
        print(json.dumps(build_sweep_report(report, registry), indent=2))
    else:
        _print_sweep_summary(report, registry=registry,
                             store_path=args.store)
    return 0 if report.failed == 0 and not report.interrupted else 1


def _cmd_sweep_sharded(args, harness, registry) -> int:
    """The sharded coverage sweep verbs: plan, run, merge, collect,
    validate (see docs/sweeps.md for the full walkthrough)."""
    import glob

    from repro.sweeps import (
        CoverageError,
        ManifestError,
        MergeError,
        build_manifest,
        get_universe,
        load_manifest,
        merge_to_coverage,
        parse_shard_ref,
        run_shard,
        shard_ledger_path,
        validate_coverage,
        write_manifest,
    )

    target = args.target

    if target == "validate":
        if not args.coverage:
            print("sweep validate needs --coverage PATH", file=sys.stderr)
            return 2
        replay = 64 if args.replay is None else args.replay
        try:
            report = validate_coverage(
                args.coverage, replay=None if replay < 0 else replay
            )
        except CoverageError as error:
            print(f"coverage invalid: {error}", file=sys.stderr)
            return 1
        print(json.dumps(report, indent=2))
        return 0 if report["complete"] or args.allow_missing else 1

    if not args.manifest:
        print(f"sweep {target} needs --manifest PATH", file=sys.stderr)
        return 2

    if target == "plan":
        limit = args.limit
        if args.slice_functions is not None:
            covered = 0
            limit = 0
            for cls in get_universe(args.universe).classes:
                covered += cls.class_size
                limit += 1
                if covered >= args.slice_functions:
                    break
        options = None
        if args.portfolio_jobs or args.strategies:
            from repro.experiments.common import TABLE1_OPTIONS

            changes = {}
            deck = ()
            if args.strategies:
                from repro.parallel.strategy import resolve_strategies

                try:
                    deck = resolve_strategies(args.strategies)
                except ValueError as error:
                    print(f"cannot plan sweep: {error}", file=sys.stderr)
                    return 2
                changes["portfolio_strategies"] = tuple(
                    entry.name for entry in deck
                )
            if args.portfolio_jobs:
                changes["portfolio_jobs"] = args.portfolio_jobs
            elif deck:
                changes["portfolio_jobs"] = len(deck)
            options = TABLE1_OPTIONS.with_(**changes)
        try:
            manifest = build_manifest(
                universe=args.universe, shards=args.shards,
                options=options, limit=limit,
            )
        except (ManifestError, ValueError) as error:
            print(f"cannot plan sweep: {error}", file=sys.stderr)
            return 2
        write_manifest(manifest, args.manifest)
        print(f"manifest {args.manifest}: {manifest.universe}, "
              f"{manifest.items} classes / {manifest.functions} functions "
              f"in {manifest.shard_count} shard(s), "
              f"fingerprint {manifest.fingerprint}")
        return 0

    try:
        manifest = load_manifest(args.manifest)
    except ManifestError as error:
        print(f"cannot load manifest: {error}", file=sys.stderr)
        return 2
    out_dir = args.out or os.path.join(
        os.path.dirname(os.path.abspath(args.manifest)), "shards"
    )

    if target == "run":
        if not args.shard:
            print("sweep run needs --shard K/N", file=sys.stderr)
            return 2
        try:
            index, _ = parse_shard_ref(args.shard, manifest)
        except ManifestError as error:
            print(str(error), file=sys.stderr)
            return 2
        summary = run_shard(
            manifest, index, out_dir, harness=harness,
            adopt=args.adopt, limit=args.limit,
        )
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            report = summary["report"]
            counts = ", ".join(
                f"{status}={count}"
                for status, count in sorted(report["counts"].items())
                if count
            )
            print(f"shard {index + 1}/{manifest.shard_count} "
                  f"({summary['shard']['items']} classes): {counts}; "
                  f"{report['replayed']} replayed, "
                  f"{summary['adopted']} adopted, "
                  f"{report['elapsed_seconds']:.1f}s "
                  f"-> {summary['ledger']}")
            for line in _sweep_recovery_lines(registry, args.store):
                print(line, file=sys.stderr)
        failed = sum(
            count for status, count in summary["report"]["counts"].items()
            if status != "ok"
        )
        interrupted = summary["report"]["interrupted"]
        return 0 if failed == 0 and not interrupted else 1

    # merge / collect
    ledgers = sorted(
        glob.glob(os.path.join(out_dir, "shard-*.ledger.jsonl"))
    ) + list(args.adopt)
    if not ledgers:
        print(f"no shard ledgers under {out_dir}", file=sys.stderr)
        return 2
    coverage_path = args.coverage or os.path.join(
        "results", f"coverage{manifest.num_vars}.jsonl"
    )
    try:
        summary = merge_to_coverage(
            manifest, ledgers, coverage_path,
            store_path=args.store, registry=registry,
            strict=not args.allow_missing,
        )
    except MergeError as error:
        print(f"merge failed: {error}", file=sys.stderr)
        return 1
    if target == "collect":
        replay = 64 if args.replay is None else args.replay
        try:
            summary["validate"] = validate_coverage(
                coverage_path, replay=None if replay < 0 else replay
            )
        except CoverageError as error:
            print(f"coverage invalid after merge: {error}", file=sys.stderr)
            return 1
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        merge_report = summary["merge"]
        print(f"coverage {coverage_path}: {summary['classes']} classes / "
              f"{summary['functions']} functions from "
              f"{merge_report['ledgers']} ledger(s); "
              f"{summary['functions_solved']} functions solved, "
              f"avg {summary['average_gates']} gates; "
              f"{merge_report['conflicts']} conflict(s), "
              f"{merge_report['dropped_unsound']} dropped unsound, "
              f"{merge_report['missing']} missing")
        if summary.get("store"):
            stats = summary["store"]
            print(f"store {stats['path']}: {stats['stored']} seeded, "
                  f"{stats['duplicates']} duplicate(s), "
                  f"{stats['errors']} error(s)")
        print(f"body digest {summary['body_digest']}")
    return 0


def _sweep_recovery_lines(registry, store_path=None) -> list[str]:
    """End-of-sweep recovery summary: what survived damage, what didn't.

    Surfaces the ledger lines skipped on resume, the store-seeding
    tallies, and (when a store was in play) its quarantine count, so a
    sweep that silently healed around corruption still reports it.
    """
    lines: list[str] = []

    def value(name: str) -> int:
        metric = registry.get(name) if registry is not None else None
        return int(getattr(metric, "value", 0) or 0)

    skipped = value("sweep_ledger_skipped_lines")
    if skipped:
        lines.append(f"ledger: skipped {skipped} corrupt/partial "
                     f"line(s) on resume")
    seeded = value("store_seeded_total")
    duplicates = value("store_seed_duplicates_total")
    errors = value("store_seed_errors_total")
    if seeded or duplicates or errors:
        lines.append(f"store: seeded {seeded} circuit(s), "
                     f"{duplicates} duplicate(s), {errors} error(s)")
    if store_path:
        try:
            from repro.store import CircuitStore

            store = CircuitStore(store_path, read_only=True)
            try:
                quarantined = int(
                    store.stats().get("quarantined_lines") or 0
                )
            finally:
                store.close()
        except Exception:
            quarantined = 0
        if quarantined:
            lines.append(f"store: {quarantined} quarantined line(s) — "
                         f"run `rmrls store verify --repair {store_path}`")
    return lines


def _print_sweep_summary(report, registry=None, store_path=None) -> None:
    counts = ", ".join(
        f"{status}={count}"
        for status, count in sorted(report.counts.items())
        if count
    )
    print(f"sweep {report.name}: {report.completed}/{report.total} tasks "
          f"({counts or 'nothing ran'})"
          f"{'; interrupted' if report.interrupted else ''}"
          f"; {report.replayed} replayed from ledger, "
          f"{report.retries} retries, "
          f"{report.elapsed_seconds:.2f}s")
    for line in _sweep_recovery_lines(registry, store_path):
        print(line)


def _cmd_serve(args) -> int:
    """Run the synthesis cache daemon on a unix socket."""
    from repro.obs import MetricsRegistry
    from repro.store import (
        CircuitStore,
        StoreError,
        SynthesisService,
        serve,
    )

    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    registry = MetricsRegistry()
    store = None
    if args.store:
        try:
            store = CircuitStore(args.store, read_only=args.read_only)
        except (StoreError, OSError) as error:
            # Degraded mode: the daemon still answers, it just
            # synthesizes every request instead of caching.
            print(f"store unavailable ({error}); serving without cache",
                  file=sys.stderr)
            registry.counter("store_unavailable_total").inc()
    from repro.harness import RetryPolicy

    options = _options_from_args(args)
    if getattr(args, "strategies", None):
        from repro.parallel.strategy import resolve_strategies

        try:
            deck = resolve_strategies(args.strategies)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        # Miss workers are daemonic, so the deck runs inline there —
        # one slot per variant unless the caller sized it already.
        options = options.with_(
            portfolio_strategies=tuple(entry.name for entry in deck),
            portfolio_jobs=options.portfolio_jobs or len(deck),
        )
    service = SynthesisService(
        store=store,
        options=options,
        jobs=args.jobs,
        metrics=registry,
        wall_seconds=args.wall_limit,
        mem_limit_mb=args.mem_limit,
        retry=RetryPolicy(max_retries=args.retries),
        flight_dir=args.flight_dir,
    )

    def ready(_server):
        cache = "no store" if store is None else (
            f"store {args.store} ({len(store)} keys"
            f"{', read-only' if args.read_only else ''})"
        )
        print(f"rmrls serve: listening on {args.socket} [{cache}]",
              file=sys.stderr)

    serve(args.socket, service, ready=ready)
    return 0


def _cmd_client(args) -> int:
    """Send one request to a running ``rmrls serve`` daemon."""
    from repro.store import request_over_socket

    chosen = [flag for flag in ("spec", "stats", "ping", "shutdown")
              if getattr(args, flag)]
    if len(chosen) != 1:
        print("exactly one of --spec, --stats, --ping, --shutdown "
              "is required", file=sys.stderr)
        return 2
    if args.spec:
        request = {"op": "synth", "spec": args.spec}
        if args.max_steps is not None:
            request["options"] = {"max_steps": args.max_steps}
    else:
        request = {"op": chosen[0]}
    try:
        response = request_over_socket(
            args.socket, request, timeout=args.timeout
        )
    except (OSError, ConnectionError, ValueError) as error:
        print(f"daemon request failed: {error}", file=sys.stderr)
        return 2
    if args.json or not args.spec:
        print(json.dumps(response, indent=2, sort_keys=True))
    else:
        status = response.get("status")
        if status != "ok":
            print(f"{status}: {response.get('error')}", file=sys.stderr)
        else:
            print(f"cache: {response.get('cache')}   "
                  f"gates: {response.get('gates')}   "
                  f"key: {response.get('key', '')[:12]}   "
                  f"time: {response.get('elapsed_seconds', 0):.3f}s")
            if response.get("circuit"):
                print(response["circuit"])
    return 0 if response.get("status") == "ok" else 1


def _cmd_store(args) -> int:
    """Offline store tools: stats / verify [--repair] / gc / export."""
    from repro.store import CircuitStore, StoreError

    try:
        store = CircuitStore(
            args.store_dir,
            read_only=args.store_command in ("stats", "export")
            or (args.store_command == "verify" and not args.repair),
        )
    except (StoreError, OSError) as error:
        print(json.dumps({"ok": False, "error": str(error)}, indent=2))
        return 2
    try:
        if args.store_command == "stats":
            print(json.dumps(store.stats(), indent=2, sort_keys=True))
            return 0
        if args.store_command == "verify":
            if args.repair:
                document = store.repair(deep=args.deep)
                # The exit code reports the state the repair left
                # behind, not the damage it found.
                document["ok"] = store.verify(deep=args.deep)["ok"]
            else:
                document = store.verify(deep=args.deep)
            print(json.dumps(document, indent=2, sort_keys=True))
            return 0 if document.get("ok") else 1
        if args.store_command == "gc":
            print(json.dumps(store.gc(), indent=2, sort_keys=True))
            return 0
        if args.store_command == "export":
            if args.output:
                with open(args.output, "w") as handle:
                    count = store.export(handle)
                print(f"exported {count} record(s) to {args.output}",
                      file=sys.stderr)
            else:
                store.export(sys.stdout)
            return 0
    finally:
        store.close()
    print(f"unknown store command: {args.store_command}",
          file=sys.stderr)  # pragma: no cover - argparse restricts choices
    return 2


def _cmd_examples(_args) -> int:
    from repro.experiments.examples import render_examples, run_examples

    print(render_examples(run_examples()))
    return 0


def _cmd_figures(_args) -> int:
    from repro.experiments import figures

    for part in (
        figures.figure1_and_3d(),
        figures.figure2_and_8(),
        figures.figure5_trace(),
        figures.figure6_substitutions(),
        figures.figure7_example1(),
        figures.figure9_alu(),
    ):
        print(part)
        print("\n" + "=" * 72 + "\n")
    return 0


def _at_least_one(text: str) -> int:
    """argparse type for a count that must be 1 or more."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``rmrls`` console script."""
    parser = argparse.ArgumentParser(
        prog="rmrls",
        description="Reed-Muller reversible logic synthesis (reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    synth = commands.add_parser("synth", help="synthesize one function")
    synth.add_argument("--spec", help="permutation, e.g. '1,0,7,2,3,4,5,6'")
    synth.add_argument("--benchmark", help="named benchmark (see `benchmarks`)")
    synth.add_argument("--draw", action="store_true",
                       help="print an ASCII diagram")
    synth.add_argument("--direction", default="forward",
                       choices=["forward", "inverse", "bidirectional"],
                       help="cascade search direction: 'inverse' searches "
                            "f^-1 and ships the reversed cascade, "
                            "'bidirectional' tries both (default forward)")
    synth.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="race the restart seeds across N worker "
                            "processes (portfolio search, see "
                            "docs/parallel.md)")
    synth.add_argument("--cancel-gates", type=int, default=None, metavar="G",
                       help="with --jobs: kill the other workers once a "
                            "verified circuit of at most G gates arrives")
    synth.add_argument("--strategies", metavar="NAMES", default=None,
                       help="race a heterogeneous strategy deck: a deck "
                            "name ('default', 'full') or comma-separated "
                            "variants (see `rmrls strategies show`); "
                            "without --jobs, one slot per variant")
    synth.add_argument("--no-share-bound", action="store_true",
                       help="with --jobs: do not share the incumbent "
                            "depth between workers — slower, but every "
                            "slice outcome (not just the winner) is "
                            "bit-for-bit reproducible")
    _add_option_flags(synth)
    _add_observability_flags(synth)
    synth.set_defaults(handler=_cmd_synth)

    strategies_cmd = commands.add_parser(
        "strategies",
        help="inspect the heterogeneous portfolio strategy catalog "
             "(see docs/parallel.md)",
    )
    strategies_sub = strategies_cmd.add_subparsers(
        dest="action", required=True
    )
    strat_show = strategies_sub.add_parser(
        "show", help="list the variant catalog and the named decks"
    )
    strat_show.add_argument("--strategies", metavar="NAMES", default=None,
                            help="deck name or comma-separated variants "
                                 "(default: the full catalog)")
    strat_show.add_argument("--json", action="store_true",
                            help="print the catalog as JSON")
    strat_show.set_defaults(handler=_cmd_strategies)

    profile = commands.add_parser(
        "profile",
        help="synthesize once with instrumentation and print the "
             "phase-time and histogram breakdown",
    )
    profile.add_argument("--spec", help="permutation, e.g. '1,0,7,2,3,4,5,6'")
    profile.add_argument("--benchmark",
                         help="named benchmark (see `benchmarks`)")
    profile.add_argument("--sample-stride", type=int, default=16,
                         help="time 1 of every N search steps (default 16)")
    profile.add_argument("--json", action="store_true",
                         help="print the full JSON run report instead of "
                              "the text breakdown")
    _add_option_flags(profile)
    profile.set_defaults(handler=_cmd_profile)

    trace = commands.add_parser(
        "trace", help="analyze JSONL search traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="substitution frequencies, queue-depth percentiles, and "
             "the restart timeline of one --trace-jsonl file",
    )
    summarize.add_argument("trace", help="path to a JSONL trace")
    summarize.add_argument("--top", type=int, default=10,
                           help="how many substitutions to list "
                                "(default 10)")
    summarize.add_argument("--json", action="store_true",
                           help="print the summary as JSON")
    summarize.set_defaults(handler=_cmd_trace_summarize)

    postmortem = commands.add_parser(
        "postmortem",
        help="recover flight-recorder rings left by dead workers and "
             "render a cross-shard timeline of the fleet's final "
             "events before each death",
    )
    postmortem.add_argument("flight_dir",
                            help="flight directory from --flight-dir")
    postmortem.add_argument("--json", action="store_true",
                            help="print the postmortem document as JSON")
    postmortem.add_argument("--tail", type=_at_least_one, default=5,
                            metavar="N",
                            help="final events kept per dead process "
                                 "(default 5)")
    postmortem.add_argument("--timeline", type=_at_least_one, default=20,
                            metavar="N",
                            help="rows in the rendered fleet timeline "
                                 "(default 20)")
    postmortem.add_argument("--no-recover", action="store_true",
                            help="only read existing dumps; leave "
                                 "orphaned ring files untouched")
    postmortem.set_defaults(handler=_cmd_postmortem)

    replay = commands.add_parser(
        "replay",
        help="re-run the search recorded in a crash dump from its "
             "decision log and verify it reaches the same states "
             "(exit 1 on divergence)",
    )
    replay.add_argument("dump", help="a *.dump.json flight dump")
    replay.add_argument("--json", action="store_true",
                        help="print the replay verdict as JSON")
    replay.set_defaults(handler=_cmd_replay)

    commands.add_parser(
        "benchmarks", help="list the benchmark suite"
    ).set_defaults(handler=_cmd_benchmarks)

    embed_cmd = commands.add_parser(
        "embed",
        help="embed an irreversible PLA and synthesize with the "
             "don't-care strategy portfolio",
    )
    embed_cmd.add_argument("pla", help="path to a PLA truth-table file")
    embed_cmd.add_argument("--draw", action="store_true")
    _add_option_flags(embed_cmd)
    embed_cmd.set_defaults(handler=_cmd_embed)

    draw_cmd = commands.add_parser(
        "draw", help="draw a RevLib .real circuit as ASCII"
    )
    draw_cmd.add_argument("real", help="path to a .real file")
    draw_cmd.add_argument("--profile", action="store_true",
                          help="print the per-gate-size breakdown")
    draw_cmd.set_defaults(handler=_cmd_draw)

    verify_cmd = commands.add_parser(
        "verify", help="equivalence-check two .real circuits"
    )
    verify_cmd.add_argument("first")
    verify_cmd.add_argument("second")
    verify_cmd.set_defaults(handler=_cmd_verify)

    decompose_cmd = commands.add_parser(
        "decompose",
        help="map a .real circuit to the NCT library (stdout is .real)",
    )
    decompose_cmd.add_argument("real", help="path to a .real file")
    decompose_cmd.set_defaults(handler=_cmd_decompose)

    experiments = {}
    for name, help_text, default_sample in (
        ("table1", "reproduce Table I", 200),
        ("table2", "reproduce Table II", 30),
        ("table3", "reproduce Table III", 10),
    ):
        experiments[name] = sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--sample", type=int, default=default_sample)
        sub.add_argument("--seed", type=int, default=2004)
    experiments["table1"].add_argument(
        "--full", action="store_true", help="run all 40,320 functions"
    )
    experiments["table1"].add_argument(
        "--corpus", metavar="PATH",
        help="read the RMRLS column from a coverage corpus "
             "(results/coverage3.jsonl) instead of re-synthesizing",
    )

    experiments["table4"] = table4 = commands.add_parser(
        "table4", help="reproduce Table IV"
    )
    table4.add_argument("--names", help="comma-separated benchmark names")

    experiments["scalability"] = scalability = commands.add_parser(
        "scalability", help="reproduce Tables V-VII"
    )
    scalability.add_argument("--max-gates", type=int, default=15,
                             help="15, 20, or 25 (the paper's settings)")
    scalability.add_argument("--samples", type=int, default=10)
    scalability.add_argument("--variables",
                             help="comma-separated variable counts (6..16)")
    scalability.add_argument("--seed", type=int, default=2004)

    for sub in experiments.values():
        sub.add_argument("--json", action="store_true",
                         help="print the results and the sweep metrics "
                              "as one JSON document")
        _add_harness_flags(sub)
        sub.set_defaults(handler=_cmd_table)

    sweep = commands.add_parser(
        "sweep",
        help="smoke-test the fault-tolerant harness or drive a sharded "
             "coverage sweep (the paper experiments take the harness "
             "flags on their own commands)",
    )
    sweep.add_argument(
        "target",
        choices=["probes", "plan", "run", "merge", "collect", "validate"],
        help="'probes' injects synthetic failures for smoke-testing "
             "the harness itself; plan/run/merge/collect/validate "
             "drive a sharded coverage sweep — see docs/sweeps.md",
    )
    sweep.add_argument("--probes",
                       help="probes: comma-separated behaviors (ok, "
                            "unsolved, raise, exit, hang, oom, unsound)")
    sweep.add_argument("--json", action="store_true",
                       help="print a machine-readable sweep report")
    sweep.add_argument("--manifest", metavar="PATH",
                       help="sharded sweep: manifest file to write (plan) "
                            "or execute/merge against (run/merge/collect/"
                            "validate)")
    sweep.add_argument("--universe", default="perm3",
                       help="plan: spec universe to partition "
                            "(perm2, perm3; default perm3)")
    sweep.add_argument("--shards", type=int, default=1,
                       help="plan: number of shards to partition into")
    sweep.add_argument("--slice-functions", type=int, default=None,
                       metavar="N",
                       help="plan: truncate the universe to the smallest "
                            "canonical-class prefix covering at least N "
                            "functions (the CI smoke slice)")
    sweep.add_argument("--shard", metavar="K/N",
                       help="run: which shard of the manifest to execute "
                            "(1-based, e.g. 2/8)")
    sweep.add_argument("--out", metavar="DIR", default=None,
                       help="run/merge/collect: directory holding the "
                            "per-shard ledgers and summaries")
    sweep.add_argument("--adopt", metavar="LEDGER", action="append",
                       default=[],
                       help="run: fold terminal outcomes from this prior "
                            "ledger (any shard layout of the same plan) "
                            "before executing; repeatable")
    sweep.add_argument("--coverage", metavar="PATH", default=None,
                       help="merge/collect/validate: the coverage database "
                            "file (default results/coverage<n>.jsonl)")
    sweep.add_argument("--replay", type=int, default=None, metavar="N",
                       help="validate: simulation-replay N recorded "
                            "circuits spread across the file "
                            "(default 64; 0 disables, -1 replays all)")
    sweep.add_argument("--allow-missing", action="store_true",
                       help="merge/collect: record classes with no "
                            "terminal outcome as 'missing' instead of "
                            "failing the merge")
    sweep.add_argument("--portfolio-jobs", type=int, default=None,
                       metavar="N",
                       help="plan: bake an N-slot portfolio into the "
                            "manifest options (daemonic shard workers "
                            "run it inline)")
    sweep.add_argument("--strategies", metavar="NAMES", default=None,
                       help="plan: bake a heterogeneous strategy deck "
                            "into the manifest options (deck name or "
                            "comma-separated variants)")
    _add_harness_flags(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    serve_cmd = commands.add_parser(
        "serve",
        help="synthesis cache daemon: answer requests over a unix "
             "socket through the crash-safe canonical circuit store "
             "(see docs/robustness.md)",
    )
    serve_cmd.add_argument("--socket", required=True, metavar="PATH",
                           help="unix socket path to listen on")
    serve_cmd.add_argument("--store", metavar="DIR", default=None,
                           help="canonical circuit store directory "
                                "(omit to serve without a cache)")
    serve_cmd.add_argument("--read-only", action="store_true",
                           help="serve cache hits but never write new "
                                "circuits to the store")
    serve_cmd.add_argument("--jobs", type=int, default=1, metavar="N",
                           help="isolated synthesis workers for cache "
                                "misses (default 1)")
    serve_cmd.add_argument("--retries", type=int, default=0,
                           help="max retries per synthesis task")
    serve_cmd.add_argument("--mem-limit", type=int, metavar="MB",
                           default=None,
                           help="per-worker address-space cap in MiB")
    serve_cmd.add_argument("--wall-limit", type=float, metavar="SECONDS",
                           default=None,
                           help="per-attempt wall budget for misses")
    serve_cmd.add_argument("--flight-dir", metavar="DIR", default=None,
                           help="arm flight recorders in the daemon and "
                                "its workers; crash dumps land under DIR")
    serve_cmd.add_argument("--strategies", metavar="NAMES", default=None,
                           help="cache misses run a heterogeneous "
                                "strategy deck (inline, inside the miss "
                                "worker): a deck name or comma-separated "
                                "variants")
    _add_option_flags(serve_cmd)
    serve_cmd.set_defaults(handler=_cmd_serve)

    client_cmd = commands.add_parser(
        "client",
        help="send one request to a running `rmrls serve` daemon",
    )
    client_cmd.add_argument("--socket", required=True, metavar="PATH",
                            help="unix socket of the daemon")
    client_cmd.add_argument("--spec", metavar="IMAGES",
                            help="synthesize this permutation, e.g. "
                                 "'2,0,1,3'")
    client_cmd.add_argument("--max-steps", type=int, default=None,
                            help="with --spec: override the search budget")
    client_cmd.add_argument("--stats", action="store_true",
                            help="print the daemon's cache statistics")
    client_cmd.add_argument("--ping", action="store_true",
                            help="health-check the daemon")
    client_cmd.add_argument("--shutdown", action="store_true",
                            help="ask the daemon to exit gracefully")
    client_cmd.add_argument("--timeout", type=float, default=600.0,
                            help="response timeout in seconds")
    client_cmd.add_argument("--json", action="store_true",
                            help="print the raw JSON response")
    client_cmd.set_defaults(handler=_cmd_client)

    store_cmd = commands.add_parser(
        "store",
        help="inspect and repair a canonical circuit store "
             "(JSON output; see docs/robustness.md)",
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    store_stats = store_sub.add_parser(
        "stats", help="keys, segments, bytes, quarantined lines"
    )
    store_verify = store_sub.add_parser(
        "verify",
        help="scan every segment for torn/corrupt records "
             "(exit 1 when damage is found)",
    )
    store_verify.add_argument("--deep", action="store_true",
                              help="also replay every circuit and check "
                                   "it against its canonical key")
    store_verify.add_argument("--repair", action="store_true",
                              help="quarantine damaged lines and rewrite "
                                   "the segments atomically")
    store_gc = store_sub.add_parser(
        "gc", help="compact to the best record per key"
    )
    store_export = store_sub.add_parser(
        "export", help="dump the best record per key as checksummed JSONL"
    )
    store_export.add_argument("-o", "--output", metavar="PATH", default=None,
                              help="write to PATH instead of stdout")
    for sub in (store_stats, store_verify, store_gc, store_export):
        sub.add_argument("store_dir", help="store directory")
    store_cmd.set_defaults(handler=_cmd_store)

    commands.add_parser(
        "examples", help="the 14 worked examples of Sec. V-C"
    ).set_defaults(handler=_cmd_examples)
    commands.add_parser(
        "figures", help="regenerate Figs. 1-9"
    ).set_defaults(handler=_cmd_figures)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
