"""The micro-benchmark suite: search kernels and fixed workloads.

Two granularities, matching how perf regressions actually appear:

* **kernels** — the isolated inner-loop operations the search lives in
  (PPRM substitution, expansion XOR, state hashing/dedup, priority-
  queue churn, candidate enumeration, per-candidate child-state
  evaluation), each timed over a fixed,
  deterministic input so runs are comparable across commits;
* **workloads** — short end-to-end syntheses (a 3-variable exhaustive
  slice, the rd53-class benchmark, one scalability probe) whose
  wall-clock is paired with the hot-op counters, yielding derived
  ns/substitution and steps/sec figures.

Everything here is seeded and budgeted: a given (kernel, quick-flag)
pair performs an identical operation sequence on every machine, so the
only variable in a BENCH trajectory is the hardware and the code.
"""

from __future__ import annotations

import random

from repro.perf.hotops import snapshot_global
from repro.perf.timing import TimingResult, time_callable

__all__ = [
    "KERNELS",
    "WORKLOADS",
    "kernel_names",
    "workload_names",
    "run_kernel",
    "run_workload",
]

#: Seed for every stochastic fixture below (fixed: bench inputs are
#: part of the measurement contract).
_SEED = 0xBE7C4


def _fixture_system(num_vars: int = 5, seed: int = _SEED, engine=None):
    """A mid-search-looking PPRM system: a seeded random permutation's
    expansion, dense enough to exercise the term-rewrite loops.

    ``engine`` converts the fixture to a specific expansion backend
    (a resolved :class:`~repro.pprm.engine.PPRMEngine`); ``None``
    keeps the reference frozenset form.
    """
    from repro.functions.permutation import Permutation

    rng = random.Random(seed + num_vars)
    images = list(range(1 << num_vars))
    rng.shuffle(images)
    system = Permutation(images).to_pprm()
    return system if engine is None else engine.convert_system(system)


def _fixture_candidates(system, limit: int | None = None):
    from repro.synth.options import SynthesisOptions
    from repro.synth.substitutions import enumerate_substitutions

    candidates = enumerate_substitutions(system, SynthesisOptions())
    return candidates if limit is None else candidates[:limit]


def _fixture_child_systems(count: int, engine=None):
    """Distinct systems one substitution away from the fixture root
    (the dedupe table's actual key population)."""
    system = _fixture_system(engine=engine)
    children = []
    for candidate in _fixture_candidates(system):
        children.append(system.substitute(candidate.target, candidate.factor))
        if len(children) >= count:
            break
    index = 0
    while len(children) < count:
        base = children[index]
        for candidate in _fixture_candidates(base, limit=4):
            children.append(base.substitute(candidate.target, candidate.factor))
            if len(children) >= count:
                break
        index += 1
    return children[:count]


# -- kernel bodies -------------------------------------------------------


def _kernel_pprm_substitute(quick: bool, engine=None):
    system = _fixture_system(engine=engine)
    candidates = _fixture_candidates(system)
    rounds = 4 if quick else 16

    def body():
        for _ in range(rounds):
            for candidate in candidates:
                system.substitute(candidate.target, candidate.factor)

    return body, rounds * len(candidates)


def _kernel_expansion_xor(quick: bool, engine=None):
    system = _fixture_system(num_vars=6, engine=engine)
    outputs = system.outputs
    pairs = [
        (outputs[i], outputs[j])
        for i in range(len(outputs))
        for j in range(len(outputs))
        if i != j
    ]
    rounds = 32 if quick else 128

    def body():
        for _ in range(rounds):
            for left, right in pairs:
                _ = left ^ right

    return body, rounds * len(pairs)


def _kernel_dedupe_probe(quick: bool, engine=None):
    population = _fixture_child_systems(64 if quick else 256, engine=engine)
    rounds = 8 if quick else 16

    def body():
        # Mirrors the search's visited table: probed and stored by the
        # engine's canonical dedupe key, not by the system object.
        table: dict = {}
        for _ in range(rounds):
            for depth, system in enumerate(population):
                key = system.dedupe_key()
                known = table.get(key)
                if known is None or depth < known:
                    table[key] = depth

    return body, rounds * len(population)


def _kernel_queue_churn(quick: bool, engine=None):
    from repro.synth.priority import MaxPriorityQueue

    class _Stub:
        __slots__ = ("priority",)

        def __init__(self, priority):
            self.priority = priority

    rng = random.Random(_SEED)
    nodes = [_Stub(rng.random() * 8 - 2) for _ in range(512 if quick else 2048)]

    def body():
        queue = MaxPriorityQueue()
        for node in nodes:
            queue.push(node)
        while not queue.is_empty():
            queue.pop()

    return body, 2 * len(nodes)


def _kernel_enumerate(quick: bool, engine=None):
    from repro.synth.options import SynthesisOptions
    from repro.synth.substitutions import enumerate_substitutions

    systems = _fixture_child_systems(8 if quick else 32, engine=engine)
    options = SynthesisOptions()
    rounds = 8 if quick else 16

    def body():
        for _ in range(rounds):
            for system in systems:
                enumerate_substitutions(system, options)

    return body, rounds * len(systems)


def _kernel_child_state(quick: bool, engine=None):
    """What the search runs per candidate: the fused substitution over
    every output of the raw state, then its term count."""
    system = _fixture_system(engine=engine)
    engine = system.engine
    state = system.dedupe_key()
    candidates = [
        (candidate.target, candidate.factor)
        for candidate in _fixture_candidates(system)
    ]
    substitute_state = engine.substitute_state
    state_term_count = engine.state_term_count
    rounds = 4 if quick else 16

    def body():
        for _ in range(rounds):
            for target, factor in candidates:
                state_term_count(substitute_state(state, target, factor))

    return body, rounds * len(candidates)


#: name -> factory(quick, engine) -> (callable, ops_per_call)
KERNELS = {
    "pprm_substitute": _kernel_pprm_substitute,
    "expansion_xor": _kernel_expansion_xor,
    "dedupe_probe": _kernel_dedupe_probe,
    "queue_churn": _kernel_queue_churn,
    "enumerate_substitutions": _kernel_enumerate,
    "child_state": _kernel_child_state,
}


def kernel_names() -> list[str]:
    return list(KERNELS)


def run_kernel(
    name: str, *, quick: bool = False, repeats: int | None = None,
    warmup: int | None = None, engine=None,
) -> TimingResult:
    """Time one named kernel; see :func:`repro.perf.timing.time_callable`.

    ``engine`` (a :class:`~repro.pprm.engine.PPRMEngine`) converts the
    kernel's fixtures to that backend; ``None`` keeps them on
    ``reference``.
    """
    factory = KERNELS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown kernel {name!r}; known: {', '.join(KERNELS)}"
        )
    body, ops = factory(quick, engine)
    if repeats is None:
        repeats = 7 if quick else 9
    if warmup is None:
        warmup = 2
    return time_callable(name, body, ops=ops, repeats=repeats, warmup=warmup)


# -- workloads -----------------------------------------------------------


def _workload_exhaustive3(quick: bool):
    """A deterministic slice of the Table I sweep: synthesize seeded
    random 3-variable permutations back to back."""
    from repro.functions.permutation import Permutation
    from repro.synth.rmrls import synthesize

    rng = random.Random(_SEED)
    specs = []
    for _ in range(12 if quick else 60):
        images = list(range(8))
        rng.shuffle(images)
        specs.append(Permutation(images))
    # A hard step cap (not stop_at_first) keeps the per-permutation
    # work identical across runs: the search always burns the same
    # step budget proving optimality, so timings compare cleanly.
    max_steps = 400 if quick else 2_000

    def body():
        solved = 0
        steps = 0
        for spec in specs:
            result = synthesize(
                spec, max_steps=max_steps, dedupe_states=True
            )
            solved += result.solved
            steps += result.stats.steps
        return {"functions": len(specs), "solved": solved, "steps": steps}

    return body


def _workload_rd53(quick: bool):
    """The rd53-class benchmark under the paper's greedy heuristics,
    step-capped so the workload is identical whether or not it solves."""
    from repro.benchlib.specs import benchmark
    from repro.synth.rmrls import synthesize

    system = benchmark("rd53").pprm()
    max_steps = 1_500 if quick else 6_000

    def body():
        result = synthesize(
            system, greedy_k=3, restart_steps=1_000, max_steps=max_steps,
            dedupe_states=True, stop_at_first=True,
        )
        return {
            "solved": result.solved,
            "steps": result.stats.steps,
            "gate_count": result.gate_count,
        }

    return body


def _workload_scalability_probe(quick: bool):
    """One Sec. V-E-style probe: resynthesize a seeded random cascade
    on 8 lines.  The search runs to its hard step cap (no
    ``stop_at_first``) so every run performs the same amount of work —
    a first-solution exit would finish in microseconds and make the
    wall-clock metric meaningless for the regression gate."""
    from repro.circuits.random_circuits import random_circuit
    from repro.synth.rmrls import synthesize

    generator = random_circuit(8, 20, random.Random(_SEED))
    system = generator.to_pprm()
    max_steps = 200 if quick else 1_000

    def body():
        result = synthesize(
            system, greedy_k=3, restart_steps=5_000, max_steps=max_steps,
        )
        return {
            "solved": result.solved,
            "steps": result.stats.steps,
            "gate_count": result.gate_count,
        }

    return body


def _fixture_portfolio_spec(num_vars: int, index: int):
    """The ``index``-th permutation of the seeded shuffle stream — the
    portfolio workload's restart-heavy fixture (chosen because the
    serial search burns several restart budgets before solving it)."""
    from repro.functions.permutation import Permutation

    rng = random.Random(_SEED)
    images = list(range(1 << num_vars))
    for _ in range(index + 1):
        images = list(range(1 << num_vars))
        rng.shuffle(images)
    return Permutation(images)


def _workload_portfolio(quick: bool):
    """Serial vs 4-way portfolio race on a restart-heavy spec.

    Times the same seeded synthesis twice — once serial, once through
    :func:`repro.parallel.synthesize_portfolio` with 4 workers — and
    reports both walls plus their ratio.  The two timings land on the
    regression surface as ``..._serial_seconds`` and
    ``..._portfolio_seconds``; the ``speedup`` ratio is informational
    (it depends on the core count, recorded alongside it).  Under
    ``stop_at_first`` the race is won by the first slice whose
    restricted queue reaches a solution, so the portfolio can beat the
    serial search even on one core: the serial best-first queue wanders
    across all seeds while the winning slice stays focused on its own.
    """
    from repro.synth.rmrls import synthesize

    if quick:
        spec = _fixture_portfolio_spec(4, 5)
        kwargs = dict(greedy_k=1, restart_steps=120, max_steps=4_000)
    else:
        spec = _fixture_portfolio_spec(5, 5)
        kwargs = dict(greedy_k=2, restart_steps=500, max_steps=30_000)
    kwargs.update(dedupe_states=True, stop_at_first=True)
    jobs = 4

    def body():
        import os
        import time as _time

        start = _time.perf_counter()
        serial = synthesize(spec, **kwargs)
        serial_seconds = _time.perf_counter() - start
        start = _time.perf_counter()
        raced = synthesize(spec, portfolio_jobs=jobs, **kwargs)
        portfolio_seconds = _time.perf_counter() - start
        summary = raced.portfolio
        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            cores = os.cpu_count() or 1
        return {
            "jobs": jobs,
            "cores": cores,
            "solved": bool(serial.solved and raced.solved),
            "steps": serial.stats.steps + raced.stats.steps,
            "serial_gate_count": serial.gate_count,
            "portfolio_gate_count": raced.gate_count,
            "winner_rank": summary.winner_rank,
            "cancelled": summary.cancelled,
            "metrics": {
                "serial_seconds": serial_seconds,
                "portfolio_seconds": portfolio_seconds,
                "speedup": (
                    serial_seconds / portfolio_seconds
                    if portfolio_seconds else 0.0
                ),
            },
        }

    return body


def _workload_portfolio_strategies(quick: bool):
    """Homogeneous vs heterogeneous 4-way portfolio on the same spec.

    Times the seed-slice portfolio against the ``default`` strategy
    deck (paper / greedy / inverse / eliminate) at the same job count.
    Both walls land on the regression surface as
    ``..._homogeneous_seconds`` and ``..._heterogeneous_seconds``; the
    acceptance gate is that the deck never costs wall-clock — it races
    *different* searches over the same slots, so with ``stop_at_first``
    it wins as soon as any strategy's restricted queue solves.
    """
    from repro.synth.rmrls import synthesize

    if quick:
        spec = _fixture_portfolio_spec(4, 5)
        kwargs = dict(greedy_k=1, restart_steps=120, max_steps=4_000)
    else:
        spec = _fixture_portfolio_spec(5, 5)
        kwargs = dict(greedy_k=2, restart_steps=500, max_steps=30_000)
    kwargs.update(dedupe_states=True, stop_at_first=True)
    jobs = 4

    def body():
        import time as _time

        start = _time.perf_counter()
        homogeneous = synthesize(spec, portfolio_jobs=jobs, **kwargs)
        homogeneous_seconds = _time.perf_counter() - start
        start = _time.perf_counter()
        heterogeneous = synthesize(
            spec, portfolio_jobs=jobs, portfolio_strategies="default",
            **kwargs,
        )
        heterogeneous_seconds = _time.perf_counter() - start
        summary = heterogeneous.portfolio
        return {
            "jobs": jobs,
            "solved": bool(homogeneous.solved and heterogeneous.solved),
            "steps": (
                homogeneous.stats.steps + heterogeneous.stats.steps
            ),
            "homogeneous_gate_count": homogeneous.gate_count,
            "heterogeneous_gate_count": heterogeneous.gate_count,
            "strategies": list(summary.strategies),
            "winner_variant": summary.winner_variant,
            "cancelled": summary.cancelled,
            "metrics": {
                "homogeneous_seconds": homogeneous_seconds,
                "heterogeneous_seconds": heterogeneous_seconds,
                "speedup": (
                    homogeneous_seconds / heterogeneous_seconds
                    if heterogeneous_seconds else 0.0
                ),
            },
        }

    return body


def _workload_tracing_overhead(quick: bool):
    """Search-loop cost of distributed tracing, traced vs untraced.

    Runs the exhaustive3 spec set twice: bare, and with a live
    :class:`repro.obs.TraceSession` wired the way a traced worker runs
    it (one span per synthesis plus a
    :class:`repro.obs.SpanProgressObserver` flushing progress events to
    a JSONL shard).  Each arm is timed best-of-three to keep the ratio
    out of the noise.  Publishes both walls as gated ``_seconds``
    metrics plus the headline ``overhead_pct`` (informational — it is a
    ratio) and ``within_budget`` (1.0 when the overhead is under the 5%
    tracing budget; asserted by the test suite and CI).
    """
    import shutil
    import tempfile
    import time as _time

    from repro.functions.permutation import Permutation
    from repro.obs import SpanProgressObserver, TraceSession
    from repro.synth.rmrls import synthesize

    rng = random.Random(_SEED)
    specs = []
    for _ in range(12 if quick else 60):
        images = list(range(8))
        rng.shuffle(images)
        specs.append(Permutation(images))
    # Same hard step cap as exhaustive3: both arms burn an identical
    # step budget, so the wall difference is pure tracing cost.
    max_steps = 400 if quick else 2_000

    def run_specs(session=None):
        steps = 0
        for spec in specs:
            observers = ()
            span = None
            if session is not None:
                span = session.begin_span("bench:exhaustive3")
                observers = (SpanProgressObserver(session, span),)
            result = synthesize(
                spec, max_steps=max_steps, dedupe_states=True,
                observers=observers,
            )
            if span is not None:
                span.end(status="ok" if result.solved else "unsolved")
            steps += result.stats.steps
        return steps

    def best_of(arms: int, run):
        best = None
        steps = 0
        for _ in range(arms):
            start = _time.perf_counter()
            steps = run()
            wall = _time.perf_counter() - start
            best = wall if best is None else min(best, wall)
        return best, steps

    def body():
        untraced_seconds, steps = best_of(3, run_specs)
        directory = tempfile.mkdtemp(prefix="rmrls-tracing-bench-")
        try:
            session = TraceSession.create(directory)
            try:
                traced_seconds, traced_steps = best_of(
                    3, lambda: run_specs(session)
                )
            finally:
                session.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        overhead_pct = (
            (traced_seconds / untraced_seconds - 1.0) * 100.0
            if untraced_seconds else 0.0
        )
        return {
            "functions": len(specs),
            "steps": steps + traced_steps,
            "metrics": {
                "untraced_seconds": untraced_seconds,
                "traced_seconds": traced_seconds,
                "overhead_pct": overhead_pct,
                "within_budget": 1.0 if overhead_pct < 5.0 else 0.0,
            },
        }

    return body


def _workload_flight_overhead(quick: bool):
    """Per-step cost of the flight recorder as a share of a search step.

    Differencing two nearly-equal end-to-end walls cannot resolve a
    ~1% effect under shared-runner noise (bursty ±5-10% swings dwarf
    it), so this workload measures the two quantities separately and
    takes their ratio:

    * the *bare step cost* — median wall of the exhaustive3 spec set,
      divided by the steps it burned;
    * the *recorder step cost* — :meth:`FlightObserver.on_step`
      driven directly over a live mmap ring at the default stride,
      median of several tight loops (exactly the call the search adds
      per step when armed, including the strided fold + ring write).

    Publishes both as ``_ns`` metrics plus the headline
    ``overhead_pct`` (informational — it is a ratio) and
    ``within_budget`` (1.0 when the recorder adds under 5% to a
    search step; asserted by the test suite and CI).
    """
    import os as _os
    import shutil
    import tempfile
    import time as _time

    from repro.functions.permutation import Permutation
    from repro.obs import FlightObserver, FlightRecorder
    from repro.synth.rmrls import synthesize

    rng = random.Random(_SEED)
    specs = []
    for _ in range(12 if quick else 60):
        images = list(range(8))
        rng.shuffle(images)
        specs.append(Permutation(images))
    max_steps = 400 if quick else 2_000
    calls = 100_000 if quick else 400_000

    class _Node:
        __slots__ = ("depth", "terms")

        def __init__(self, depth, terms):
            self.depth = depth
            self.terms = terms

    def bare_walls():
        walls = []
        steps = 0
        for _ in range(3):
            start = _time.perf_counter()
            steps = sum(
                synthesize(
                    spec, max_steps=max_steps, dedupe_states=True
                ).stats.steps
                for spec in specs
            )
            walls.append(_time.perf_counter() - start)
        return sorted(walls)[1], steps

    def recorder_walls(directory):
        recorder = FlightRecorder(
            _os.path.join(directory, "bench.ring"),
            meta={"process": "bench"}, faults="none",
        )
        observer = FlightObserver(recorder)
        node = _Node(depth=7, terms=12)
        walls = []
        try:
            for _ in range(5):
                on_step = observer.on_step
                start = _time.perf_counter()
                for step in range(1, calls + 1):
                    on_step(step, node, 64)
                walls.append(_time.perf_counter() - start)
        finally:
            recorder.discard()
        return sorted(walls)[len(walls) // 2]

    def body():
        bare_wall, steps = bare_walls()
        bare_step_ns = bare_wall / max(1, steps) * 1e9
        directory = tempfile.mkdtemp(prefix="rmrls-flight-bench-")
        try:
            recorder_step_ns = recorder_walls(directory) / calls * 1e9
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        overhead_pct = (
            recorder_step_ns / bare_step_ns * 100.0 if bare_step_ns
            else 0.0
        )
        return {
            "functions": len(specs),
            "steps": steps + calls,
            "metrics": {
                "bare_step_ns": bare_step_ns,
                "recorder_step_ns": recorder_step_ns,
                "overhead_pct": overhead_pct,
                "within_budget": 1.0 if overhead_pct < 5.0 else 0.0,
            },
        }

    return body


def _workload_sweep_shard(quick: bool):
    """One coverage-sweep shard end to end, ledger to merged corpus.

    Plans a fixed manifest over the first classes of the 3-variable
    universe, executes its single shard into a scratch directory (with
    the fsync'd per-task ledger the real sweep writes), then merges the
    ledger into a checksummed coverage file with full replay
    validation.  This is the inner loop of ``rmrls sweep run`` +
    ``collect`` — the path the 40,320-function corpus is built on — so
    its wall-clock gates the whole sharding/merge overhead (ledger
    fsyncs, adoption probe, replay validation), not just raw
    synthesis.  ``metrics`` adds the gated ``classes_per_s`` rate."""
    import shutil
    import tempfile

    from repro.sweeps import (
        build_manifest,
        merge_to_coverage,
        run_shard,
        shard_ledger_path,
    )

    manifest = build_manifest(
        "perm3", shards=1, limit=8 if quick else 24
    )

    def body():
        directory = tempfile.mkdtemp(prefix="rmrls-sweep-bench-")
        try:
            summary = run_shard(manifest, 0, directory)
            coverage = merge_to_coverage(
                manifest,
                [shard_ledger_path(directory, manifest, 0)],
                f"{directory}/coverage.jsonl",
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        elapsed = summary["report"]["elapsed_seconds"]
        return {
            "classes": manifest.items,
            "functions": manifest.functions,
            "solved": summary["solved"],
            "body_digest": coverage["body_digest"],
            "metrics": {
                "classes_per_s": (
                    manifest.items / elapsed if elapsed else 0.0
                ),
            },
        }

    return body


def _workload_engine_compare(quick: bool):
    """Head-to-head backend race on the two hottest kernels.

    Times ``pprm_substitute`` and ``expansion_xor`` under both the
    ``reference`` and ``packed`` engines and publishes each
    wall as a gated ``..._ns_per_op`` metric plus an informational
    ``..._speedup`` ratio (reference / packed, higher is better for the
    packed backend).  The trajectory lands in ``BENCH_engine.json``.
    """

    from repro.pprm.engine import ENGINES

    def body():
        metrics: dict = {}
        walls_by_kernel: dict = {}
        for kernel in ("pprm_substitute", "expansion_xor"):
            walls = {}
            for backend in ("reference", "packed"):
                timing = run_kernel(
                    kernel, quick=quick, engine=ENGINES[backend]
                )
                walls[backend] = timing.ns_per_op
                metrics[f"{kernel}_{backend}_ns_per_op"] = timing.ns_per_op
            metrics[f"{kernel}_speedup"] = (
                walls["reference"] / walls["packed"]
                if walls["packed"]
                else 0.0
            )
            walls_by_kernel[kernel] = walls
        return {"kernels": walls_by_kernel, "metrics": metrics}

    return body


#: name -> factory(quick) -> zero-arg callable returning a summary dict.
WORKLOADS = {
    "exhaustive3": _workload_exhaustive3,
    "rd53": _workload_rd53,
    "scalability_probe": _workload_scalability_probe,
    "portfolio": _workload_portfolio,
    "portfolio_strategies": _workload_portfolio_strategies,
    "tracing_overhead": _workload_tracing_overhead,
    "flight_overhead": _workload_flight_overhead,
    "sweep_shard": _workload_sweep_shard,
    "engine_compare": _workload_engine_compare,
}


def workload_names() -> list[str]:
    return list(WORKLOADS)


def run_workload(
    name: str, *, quick: bool = False, repeats: int | None = None,
) -> dict:
    """Run one workload ``repeats`` times; return its summary section.

    The summary pairs the best (minimum) wall-clock with the hot-op
    counters of one repetition, from which the derived per-op figures
    (``ns_per_substitution``, ``steps_per_s``, ...) are computed.
    """
    factory = WORKLOADS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}"
        )
    body = factory(quick)
    if repeats is None:
        repeats = 2 if quick else 3
    import time as _time

    seconds = []
    summary = None
    hot_ops = None
    for _ in range(repeats):
        before = snapshot_global()
        start = _time.perf_counter()
        summary = body()
        elapsed = _time.perf_counter() - start
        seconds.append(elapsed)
        delta = snapshot_global().diff(before)
        # Deterministic workloads do identical hot ops every repeat;
        # keep the counters of the fastest one (paired with its time).
        if hot_ops is None or elapsed <= min(seconds):
            hot_ops = delta
    best = min(seconds)
    section = {
        "name": name,
        "repeats": repeats,
        "seconds": best,
        "samples_seconds": [round(s, 9) for s in seconds],
        "summary": summary,
        "hot_ops": hot_ops.as_dict(),
    }
    steps = (summary or {}).get("steps")
    if steps:
        section["steps_per_s"] = steps / best
    substitutions = hot_ops.substitutions_applied
    if substitutions:
        section["ns_per_substitution"] = best / substitutions * 1e9
    return section
