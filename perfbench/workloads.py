"""The benchmark workloads: closed loops over the program's public entry
points (``repro.synth.synthesize``, the portfolio behind
``portfolio_jobs``, and the ``rmrls serve`` daemon).

A workload prepares its inputs and services (everything a caller pays
before the first request), runs one timed pass over them, and, in the
traced run only, probes layers that the pass itself cannot separate.
Every pass checks every circuit it gets back.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from repro.baselines.optimal import optimal_distances
from repro.experiments.common import TABLE1_OPTIONS, TABLE2_OPTIONS
from repro.functions.permutation import Permutation
from repro.harness import WorkerPool, permutation_task
from repro.io.real_format import load_real
from repro.obs.phases import PhaseTimer
from repro.store import CircuitStore, request_over_socket
from repro.store.canonical import canonicalize
from repro.store.service import default_service_options
from repro.sweeps.corpus import circuit_from_record, load_coverage
from repro.synth import enumerate_first_level, synthesize

import inputs
import null_server
from measure import SpeedProbe, median_or_zero, ratio, split_by_outcome

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join("results", "coverage3.jsonl")
CLASS_COSTS = os.path.join(HERE, "data", "perm3_class_substitutions.json")
TABLE2_POOL_COSTS = os.path.join(HERE, "data", "table2_pool_substitutions.json")

#: Table II protocol with a step cap that binds before the time limit,
#: so every run does identical search work on any machine.  The restart
#: period shrinks with the cap: the protocol restarts every 5,000 of its
#: 40,000 steps, the slice every 250 of its 2,000, so the restart path
#: still runs (a 5,000-step period would never fire under this cap).
TABLE2_STEP_CAP = 2_000
TABLE2_RESTART_STEPS = TABLE2_STEP_CAP * 5_000 // 40_000
TABLE2_SLICE_OPTIONS = TABLE2_OPTIONS.with_(
    max_steps=TABLE2_STEP_CAP, restart_steps=TABLE2_RESTART_STEPS,
    time_limit=None,
)
#: The portfolio probe: ``portfolio_jobs`` (``nproc`` on the reference
#: host) and how many of the slice's specs it runs.
PORTFOLIO_JOBS = 2
PORTFOLIO_PROBE_SPECS = 8

#: Inputs per second of ``--seconds``, sized on a 2-core x86 host so
#: that one pass takes about that long when the benchmark was written.
TABLE2_SPECS_PER_SECOND = 2.5
CORPUS_CLASSES_PER_SECOND = 6.5
SERVE_REQUESTS_PER_SECOND = 80.0
#: Fewest inputs per pass: 40 is the smallest sample whose tail
#: percentile (ten samples beyond it) lies above the median, at p75.
MIN_INPUTS = 40

#: A 4-variable function outside every sample, searched briefly during
#: set-up.
WARMUP_SPEC = [15, 0, 14, 1, 13, 2, 12, 3, 11, 4, 10, 5, 9, 6, 8, 7]
WARMUP_STEPS = 50

#: ``serve_mix`` misses come from classes whose search applies at most
#: this many substitutions (the lightest tenth of the corpus).
SERVE_LIGHT_SUBSTITUTIONS = 150

#: ``serve_mix`` times a round trip to ``null_server`` this often between
#: requests; the seconds one takes on the reference host (a 2-core x86
#: VM, CPython 3.11) at its median speed.
NULL_INTERVAL = 0.05
NULL_ROUND_TRIP_NOMINAL_S = 0.0007

SEARCH_PHASES = {
    "enumerate_substitutions": "synth.enumerate_s",
    "substitute": "synth.substitute_s",
    "dedupe": "synth.dedupe_s",
    "queue": "synth.queue_s",
}


@dataclass
class PassResult:
    """What one timed pass measured."""

    wall: float = 0.0
    #: ``(outcome, seconds)`` per spec or request, client side.
    latencies: list = field(default_factory=list)
    attempted: int = 0
    solved: int = 0
    gates: list = field(default_factory=list)
    steps: int = 0
    errors: list = field(default_factory=list)
    #: Exact counts that must repeat between passes over the same inputs.
    counts: dict = field(default_factory=dict)
    #: Per-layer numbers measured during the pass.
    layers: dict = field(default_factory=dict)
    #: Host speed factor over the pass (``SpeedProbe.factor``); ``None``
    #: when the pass is not CPU-bound and reports raw times.
    speed: float | None = None
    #: Host speed factor around each call (``SpeedProbe.local_factor``),
    #: in the order of ``latencies``; empty when times are raw.
    call_speeds: list = field(default_factory=list)
    #: ``serve_mix``: slowdown of the null round trip over the pass
    #: (``SpeedProbe.median_factor``), which divides the hit latencies.
    ipc: float | None = None

    def reference_latencies(self) -> list[float]:
        """Per-call seconds at the reference host's speed."""
        if not self.call_speeds:
            return [seconds for _, seconds in self.latencies]
        return [seconds / speed for (_, seconds), speed
                in zip(self.latencies, self.call_speeds)]

    def reference_wall(self) -> float:
        """Pass wall time at the reference host's speed: each call by
        the speed around it, the time between calls by the pass mean."""
        if not self.call_speeds:
            return self.wall
        between = self.wall - sum(seconds for _, seconds in self.latencies)
        return sum(self.reference_latencies()) + between / (self.speed or 1.0)


def import_program(modules) -> None:
    """Import the program in a fresh interpreter, as a caller's process
    would; the environment (and so ``PYTHONPATH``) is the runner's."""
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        check=True,
    )


def load_cost_table(path) -> list[int]:
    with open(path) as handle:
        return json.load(handle)["substitutions"]


def load_corpus():
    _, records = load_coverage(CORPUS)
    for rank, record in enumerate(records):
        if record["class_rank"] != rank:
            raise ValueError(f"{CORPUS}: record {rank} is out of order")
    return records


def _check_circuit(result, spec, label, errors) -> None:
    if result.circuit is not None and not result.circuit.implements(spec):
        errors.append(f"{label}: circuit does not implement the spec")


class SearchWorkload:
    """In-process ``synthesize`` over a fixed list of specifications."""

    name = ""
    modules = ("repro.synth",)

    def size(self, seconds: int) -> int:
        raise NotImplementedError

    def inputs(self, seed: int, seconds: int) -> dict:
        """``{"specs": [images...], ...}``, plus workload extras."""
        raise NotImplementedError

    def options(self):
        raise NotImplementedError

    def prepare(self, seed: int, seconds: int, scratch: str) -> dict:
        import_program(self.modules)
        state = self.inputs(seed, seconds)
        state["specs"] = [Permutation(images) for images in state["specs"]]
        # Warm up lazy imports and tables on a spec outside the sample,
        # so the timed pass starts from the state later calls see.
        synthesize(Permutation(WARMUP_SPEC),
                   self.options().with_(max_steps=WARMUP_STEPS))
        return state

    def close(self, state) -> None:
        pass

    def check(self, index, spec, result, state, run) -> None:
        """Workload-specific checks of one result."""

    def run_pass(self, state, tracer) -> PassResult:
        options = self.options()
        timer = None
        if tracer.enabled:
            timer = PhaseTimer(stride=1)
            options = options.with_(phase_timer=timer)
        run = PassResult()
        hot: dict = {}
        funnel = {"pruned_growth": 0, "pruned_greedy": 0, "pruned_depth": 0,
                  "restarts": 0}
        probe = SpeedProbe()
        midpoints = []
        start = time.perf_counter()
        for index, spec in enumerate(state["specs"]):
            probe.maybe_sample()
            begin = time.perf_counter()
            with tracer.span("synth.search", index):
                result = synthesize(spec, options)
            latency = time.perf_counter() - begin
            midpoints.append(begin + latency / 2)
            with tracer.span("circuits.verify", index):
                _check_circuit(result, spec, f"spec {index}", run.errors)
            run.attempted += 1
            run.latencies.append(("solved" if result.solved else "unsolved",
                                  latency))
            stats = result.stats
            run.steps += stats.steps
            funnel["pruned_growth"] += stats.children_rejected_growth
            funnel["pruned_greedy"] += stats.children_pruned_greedy
            funnel["pruned_depth"] += stats.nodes_pruned_depth
            funnel["restarts"] += stats.restarts
            for key, value in stats.hot_ops.items():
                hot[key] = hot.get(key, 0) + value
            if result.solved:
                run.solved += 1
                run.gates.append(result.gate_count)
            self.check(index, spec, result, state, run)
        run.wall = time.perf_counter() - start - probe.seconds
        run.speed = probe.factor()
        run.call_speeds = [probe.local_factor(when) for when in midpoints]
        substitutions = hot.get("substitutions_applied", 0)
        run.layers.update({
            "synth.steps": run.steps,
            "synth.substitutions": substitutions,
            "synth.push_ratio": ratio(hot.get("queue_pushes", 0),
                                      substitutions),
            "synth.dedupe_hit_ratio": ratio(hot.get("dedupe_hits", 0),
                                            hot.get("dedupe_probes", 0)),
            "synth.terms_per_substitution": ratio(
                hot.get("pprm_terms_out", 0), substitutions),
            "synth.restart_dropped_nodes": hot.get("restart_dropped_nodes", 0),
            **{f"synth.{key}": value for key, value in funnel.items()},
        })
        if timer is not None:
            for phase, metric in SEARCH_PHASES.items():
                run.layers[metric] = timer.seconds.get(phase, 0.0)
        run.counts = {
            "gates": tuple(run.gates),
            "solved": run.solved,
            "solve_rate": ratio(run.solved, run.attempted),
            "avg_gates": ratio(sum(run.gates), len(run.gates)),
            "synth.steps": run.steps,
            "synth.substitutions": substitutions,
        }
        return run

    def probe_layers(self, state, tracer, run) -> None:
        """Traced run only: the spec -> PPRM transform, timed on its own
        (``synthesize`` performs it inside the search span)."""
        for index, spec in enumerate(state["specs"]):
            with tracer.span("functions.to_pprm", index):
                spec.to_pprm()


class Table2Slice(SearchWorkload):
    name = "table2_slice"

    def size(self, seconds):
        return max(MIN_INPUTS, round(seconds * TABLE2_SPECS_PER_SECOND))

    def inputs(self, seed, seconds):
        costs = load_cost_table(TABLE2_POOL_COSTS)
        return {"specs": inputs.table2_specs(costs, seed, self.size(seconds))}

    def options(self):
        return TABLE2_SLICE_OPTIONS

    def probe_layers(self, state, tracer, run) -> None:
        """Also the parallel layer: the first specs of the slice through
        ``synthesize(..., portfolio_jobs=2)`` (default homogeneous deck,
        shared bound on), with the seed ranking timed on its own."""
        super().probe_layers(state, tracer, run)
        options = TABLE2_SLICE_OPTIONS.with_(portfolio_jobs=PORTFOLIO_JOBS)
        fleet_steps = winner_steps = cancelled = 0
        fork_ipc = 0.0
        for index, spec in enumerate(state["specs"][:PORTFOLIO_PROBE_SPECS]):
            with tracer.span("parallel.first_level", index):
                enumerate_first_level(spec, TABLE2_SLICE_OPTIONS)
            begin = time.perf_counter()
            with tracer.span("parallel.portfolio", index):
                result = synthesize(spec, options)
            latency = time.perf_counter() - begin
            _check_circuit(result, spec, f"portfolio spec {index}", run.errors)
            summary = result.portfolio
            if summary is None or not summary.slices:
                continue
            fleet_steps += sum(entry.steps for entry in summary.slices)
            winner_steps += sum(entry.steps for entry in summary.slices
                                if entry.slice_index == summary.winner_slice)
            cancelled += summary.cancelled
            fork_ipc += latency - max(entry.elapsed_seconds
                                      for entry in summary.slices)
        run.layers.update({
            "parallel.fleet_steps": fleet_steps,
            "parallel.winner_step_share": ratio(winner_steps, fleet_steps),
            "parallel.cancelled": cancelled,
            "harness.fork_ipc_s": fork_ipc,
        })


class Corpus3Resynth(SearchWorkload):
    name = "corpus3_resynth"
    modules = ("repro.synth", "repro.sweeps.corpus")

    def size(self, seconds):
        return max(MIN_INPUTS, round(seconds * CORPUS_CLASSES_PER_SECOND))

    def inputs(self, seed, seconds):
        records = load_corpus()
        costs = load_cost_table(CLASS_COSTS)
        ranks = inputs.stratified_ranks(
            costs, seed, self.size(seconds), "corpus3_resynth"
        )
        optimum = optimal_distances(3)
        chosen = [records[rank] for rank in ranks]
        return {
            "specs": [record["images"] for record in chosen],
            "corpus_gates": [record["gates"] for record in chosen],
            "optimum": [optimum[tuple(record["images"])] for record in chosen],
        }

    def options(self):
        return TABLE1_OPTIONS

    def run_pass(self, state, tracer):
        state["gaps"] = []
        state["worse"] = 0
        run = super().run_pass(state, tracer)
        run.layers["quality.optimality_gap"] = ratio(
            sum(state["gaps"]), len(state["gaps"])
        )
        run.layers["quality.worse_than_corpus"] = state["worse"]
        run.counts["optimality_gap"] = run.layers["quality.optimality_gap"]
        run.counts["gaps"] = tuple(state.pop("gaps"))
        return run

    def check(self, index, spec, result, state, run):
        if not result.solved:
            run.errors.append(f"class {index}: unsolved under TABLE1_OPTIONS")
            return
        gates = result.gate_count
        optimum = state["optimum"][index]
        if gates < optimum:
            run.errors.append(
                f"class {index}: {gates} gates beats the exact optimum "
                f"{optimum} (unsound)"
            )
        if gates > state["corpus_gates"][index]:
            state["worse"] += 1
        state["gaps"].append(gates - optimum)


class ServeMix:
    """A real ``rmrls serve`` daemon with one closed-loop client.

    A hit is a round trip of well under a millisecond, most of it
    connection set-up, thread start and process wake-ups, which a
    shared host slows by tens of percent from one minute to the next;
    the calibration loop of the search workloads does not follow that.
    So the client also times a round trip to ``null_server`` (the same
    transport, none of the program) every ``NULL_INTERVAL`` seconds,
    and divides each hit by the median slowdown of those round trips.
    Misses wait mostly on the daemon's fixed batch window and stay raw.
    """

    name = "serve_mix"

    def size(self, seconds):
        return max(MIN_INPUTS, round(seconds * SERVE_REQUESTS_PER_SECOND))

    def prepare(self, seed, seconds, scratch):
        records = load_corpus()
        stream = inputs.serve_stream(
            records, load_cost_table(CLASS_COSTS), seed, self.size(seconds),
            SERVE_LIGHT_SUBSTITUTIONS,
        )
        root = tempfile.mkdtemp(prefix="serve-", dir=scratch)
        store_dir = os.path.join(root, "store")
        with CircuitStore(store_dir) as store:
            for rank in stream.seeded_ranks:
                record = records[rank]
                store.put(canonicalize(record["images"]),
                          circuit_from_record(record))
        state = {"stream": stream, "root": root,
                 "socket": os.path.join(root, "serve.sock"),
                 "null_socket": os.path.join(root, "null.sock"),
                 "daemon": None, "null": None}
        try:
            with open(os.path.join(root, "null.log"), "wb") as log:
                state["null"] = subprocess.Popen(
                    [sys.executable, os.path.join(HERE, "null_server.py"),
                     state["null_socket"]],
                    stdout=log, stderr=subprocess.STDOUT,
                )
            with open(os.path.join(root, "serve.log"), "wb") as log:
                state["daemon"] = subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", "serve",
                     "--socket", state["socket"], "--store", store_dir,
                     "--jobs", "1"],
                    stdout=log, stderr=subprocess.STDOUT,
                )
            self._wait_ready(state, "null", "null.log", lambda: (
                null_server.round_trip(state["null_socket"], timeout=5)))
            self._wait_ready(state, "daemon", "serve.log", lambda: (
                request_over_socket(state["socket"], {"op": "ping"},
                                    timeout=5)))
        except BaseException:
            self.close(state)
            raise
        return state

    @staticmethod
    def _wait_ready(state, process, log_name, ping, timeout=60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            if state[process].poll() is not None:
                with open(os.path.join(state["root"], log_name)) as log:
                    output = log.read()[-2000:]
                raise RuntimeError(
                    f"{process} exited with {state[process].returncode}:"
                    f"\n{output}"
                )
            try:
                ping()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError(f"{process} did not start") from None
                time.sleep(0.005)

    def close(self, state) -> None:
        null = state["null"]
        if null is not None:
            null.terminate()
            try:
                null.wait(timeout=10)
            except subprocess.TimeoutExpired:
                null.kill()
                null.wait()
        daemon = state["daemon"]
        if daemon is not None and daemon.poll() is None:
            try:
                request_over_socket(state["socket"], {"op": "shutdown"},
                                    timeout=10)
            except (OSError, ValueError):
                pass
            try:
                daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
        shutil.rmtree(state["root"], ignore_errors=True)

    def run_pass(self, state, tracer) -> PassResult:
        run = PassResult()
        server = []
        outcomes = []
        probe = SpeedProbe(
            interval=NULL_INTERVAL, nominal=NULL_ROUND_TRIP_NOMINAL_S,
            loop=lambda: null_server.round_trip(state["null_socket"]),
        )
        start = time.perf_counter()
        for index, request in enumerate(state["stream"].requests):
            probe.maybe_sample()
            run.attempted += 1
            with tracer.span("serve.request", index):
                begin = time.perf_counter()
                try:
                    response = request_over_socket(
                        state["socket"],
                        {"op": "synth", "spec": list(request.images)},
                        timeout=120,
                    )
                except (OSError, ValueError) as error:
                    response = {"status": "error", "error": repr(error)}
                latency = time.perf_counter() - begin
            cache = response.get("cache") or response.get("status")
            run.latencies.append((cache, latency))
            outcomes.append(cache)
            if response.get("status") != "ok":
                run.errors.append(f"request {index}: {response.get('error')}")
                continue
            server.append((cache, response["elapsed_seconds"], latency))
            with tracer.span("io.load_real", index):
                circuit = load_real(response["real"])
            with tracer.span("circuits.verify", index):
                spec = Permutation(request.images)
                if not circuit.implements(spec):
                    run.errors.append(f"request {index}: wrong circuit")
                    continue
            if circuit.gate_count() != response["gates"]:
                run.errors.append(f"request {index}: gate count mismatch")
            run.solved += 1
            run.gates.append(circuit.gate_count())
        run.wall = time.perf_counter() - start - probe.seconds
        run.ipc = probe.median_factor()
        run.call_speeds = [run.ipc if cache == "hit" else 1.0
                           for cache in outcomes]
        stats = request_over_socket(state["socket"], {"op": "stats"})["stats"]
        run.layers.update(self._layers(run, server, stats))
        run.counts = {
            "gates": tuple(run.gates),
            "outcomes": tuple(outcomes),
            "solve_rate": ratio(run.solved, run.attempted),
            "avg_gates": ratio(sum(run.gates), len(run.gates)),
        }
        return run

    @staticmethod
    def _layers(run, server, stats) -> dict:
        metrics = stats["metrics"]

        def counter(name):
            return int(metrics.get(name, {}).get("value", 0))

        client = split_by_outcome(run.latencies)
        inside = split_by_outcome((cache, elapsed)
                                  for cache, elapsed, _ in server)
        transport = [latency - elapsed for _, elapsed, latency in server]
        hits = counter("store_cache_hits_total")
        misses = counter("store_cache_misses_total")
        return {
            "serve.hit_p50_ms": 1000 * median_or_zero(client.get("hit")),
            "serve.miss_p50_ms": 1000 * median_or_zero(client.get("miss")),
            "serve.server_hit_ms": 1000 * median_or_zero(inside.get("hit")),
            "serve.server_miss_ms": 1000 * median_or_zero(inside.get("miss")),
            "serve.transport_ms": 1000 * median_or_zero(transport),
            "store.hits": hits,
            "store.misses": misses,
            "store.keys": int((stats.get("store") or {}).get("keys", 0)),
            "store.quarantined": counter("store_cache_quarantined_total"),
            "store.write_errors": counter("store_write_errors_total"),
            "store.hit_ratio": ratio(hits, hits + misses),
            "harness.batches": counter("serve_batches_total"),
            "harness.batch_tasks": counter("serve_batch_tasks_total"),
        }

    def probe_layers(self, state, tracer, run) -> None:
        """Traced run only: client-side canonicalization of the stream,
        and the miss searches through a 1-job worker pool against the
        same searches in-process (the difference is fork and IPC)."""
        stream = state["stream"]
        for index, request in enumerate(stream.requests):
            with tracer.span("store.canonicalize", index):
                canonicalize(Permutation(request.images))
        options = default_service_options()
        misses = [
            canonicalize(Permutation(request.images)).images
            for request in stream.requests if request.kind == "miss"
        ]
        tasks = [
            permutation_task(list(images), options=options,
                             namespace="perfbench")
            for images in misses
        ]
        with tracer.span("harness.pool_run"):
            begin = time.perf_counter()
            WorkerPool(jobs=1).run(tasks)
            pooled = time.perf_counter() - begin
        with tracer.span("synth.search"):
            begin = time.perf_counter()
            for images in misses:
                synthesize(Permutation(images), options)
            inline = time.perf_counter() - begin
        run.layers["harness.fork_ipc_s"] = pooled - inline


WORKLOADS = {
    workload.name: workload
    for workload in (Table2Slice(), Corpus3Resynth(), ServeMix())
}
