"""Portfolio-parallel RMRLS: race the restart seeds across processes.

The Sec. IV-E restart heuristic already treats every ranked first-level
substitution as an independent search seed — serially, one after
another.  This module runs the same seed pool *concurrently*:

1. :func:`repro.synth.rmrls.enumerate_first_level` ranks the root's
   first-level substitutions (exactly the order ``_try_restart``
   consumes);
2. the ranks are partitioned round-robin over ``jobs`` slices, so every
   worker owns a spread of good and bad seeds;
3. each slice runs a full ``_Search`` in an isolated worker process
   (the PR-2 :class:`~repro.harness.pool.WorkerPool` — same budgets,
   same failure taxonomy), restricted to its ranks via
   ``SynthesisOptions.portfolio_seed_ranks``;
4. workers share the incumbent solution depth through a
   :class:`~repro.parallel.bound.SharedBound`, so every racer prunes at
   ``bestDepth - 1`` as soon as *any* worker solves;
5. the parent merges the slices' ``SearchStats`` with its own root
   expansion's, and the metrics snapshots (via
   ``MetricsRegistry.merge_snapshot``), into one fleet-wide
   :class:`~repro.synth.rmrls.SynthesisResult`.

With ``options.portfolio_strategies`` set, the fleet is *heterogeneous*:
worker slots are dealt from a :class:`~repro.parallel.strategy.
StrategyDeck`, so different slots run different named option variants —
priority weights, greedy-k, and search direction (inverse
slots run :func:`repro.synth.bidirectional.synthesize_inverse` and
ship the reversed cascade, so the shared bound needs no translation).

Winner selection is deterministic: minimal solution depth first, then
the lowest seed rank, then the lowest slice index — never arrival
order.  See docs/parallel.md for the full determinism contract (budgets
and early cancellation are the two ways to trade it away).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field

from repro.harness.pool import WorkerBudget, WorkerPool
from repro.harness.retry import RetryPolicy
from repro.harness.tasks import portfolio_task
from repro.harness.sweep import _outcome_from_raw, _run_inline_attempt
from repro.harness.taxonomy import (
    STATUS_INTERRUPTED,
    STATUS_OK,
    TaskOutcome,
)
from repro.obs.flight import FlightRecorder, end_recording
from repro.parallel.bound import LocalBound, SharedBound
from repro.parallel.strategy import build_deck, resolve_strategies
from repro.pprm.engine import search_engine
from repro.pprm.expansion import Expansion
from repro.pprm.system import PPRMSystem
from repro.synth.options import SynthesisOptions
from repro.synth.rmrls import (
    SynthesisResult,
    _as_system,
    enumerate_first_level,
)
from repro.synth.stats import SearchStats

__all__ = [
    "PortfolioSummary",
    "SliceOutcome",
    "partition_seeds",
    "synthesize_portfolio",
]

#: Option fields the portfolio driver owns; cleared on worker options so
#: a worker never recursively spawns its own portfolio (or deck).
_DRIVER_FIELDS = dict(
    portfolio_jobs=None,
    portfolio_cancel_gates=None,
    portfolio_strategies=None,
    observers=(),
    phase_timer=None,
    bound_channel=None,
    flight_dir=None,
)

#: Merged finish reason for unsolved fleets, most significant last: a
#: budget-bound slice means the *fleet* was budget-bound.
_UNSOLVED_PRECEDENCE = (
    "queue_exhausted", "interrupted", "step_limit", "timeout",
    "memory_limit",
)


def partition_seeds(num_seeds: int, jobs: int) -> list[tuple[int, ...]]:
    """Round-robin rank partition: slice ``i`` gets ranks ``i``,
    ``i + jobs``, ``i + 2*jobs``, ...

    Round-robin (not contiguous blocks) spreads the high-priority seeds
    across workers, so the seeds the serial restart order would try
    first are all being raced from the start.  The result always holds
    exactly ``jobs`` well-formed slices — when there are more jobs than
    seeds (or zero seeds) the surplus slices are empty tuples, and the
    caller decides whether an empty slice means "drop the slot" (the
    deck builder) or never materializes a worker (the homogeneous
    driver).
    """
    if num_seeds < 0:
        raise ValueError("num_seeds must be non-negative")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return [
        tuple(range(start, num_seeds, jobs)) for start in range(jobs)
    ]


@dataclass(frozen=True)
class SliceOutcome:
    """What one portfolio slice reported back.

    ``stats`` is the worker's full ``SearchStats.as_dict`` snapshot
    (hot-op counts included); ``metrics`` the worker registry snapshot
    when metrics were requested.  ``seed_ranks`` is ``None`` for an
    unrestricted slot (a heterogeneous deck's inverse slots without an
    inverse seed pool).  ``variant`` and
    ``direction`` record the strategy provenance of heterogeneous
    slots.  ``as_dict`` keeps the headline only.
    """

    slice_index: int
    seed_ranks: tuple | None
    status: str
    finish_reason: str
    gate_count: int | None = None
    solution_rank: int | None = None
    circuit: str | None = None
    stats: dict = field(default_factory=dict)
    metrics: dict | None = None
    elapsed_seconds: float = 0.0
    error: str | None = None
    variant: str | None = None
    direction: str = "forward"

    @property
    def steps(self) -> int:
        return int(self.stats.get("steps") or 0)

    def as_dict(self) -> dict:
        return {
            "slice": self.slice_index,
            "seed_ranks": (
                None if self.seed_ranks is None else list(self.seed_ranks)
            ),
            "status": self.status,
            "finish_reason": self.finish_reason,
            "gate_count": self.gate_count,
            "solution_rank": self.solution_rank,
            "steps": self.steps,
            "elapsed_seconds": self.elapsed_seconds,
            "error": self.error,
            "variant": self.variant,
            "direction": self.direction,
        }


@dataclass
class PortfolioSummary:
    """Fleet-level accounting attached to a portfolio result.

    Heterogeneous runs additionally carry the strategy provenance:
    the resolved ``strategies``, the dealt ``deck`` (slot dicts) and
    the winning slice's ``winner_variant``.
    """

    jobs: int
    seed_count: int
    slices: list[SliceOutcome] = field(default_factory=list)
    winner_slice: int | None = None
    winner_rank: int | None = None
    cancelled: int = 0
    shared_bound: bool = True
    shortcut: bool = False
    strategies: tuple = ()
    deck: list = field(default_factory=list)
    winner_variant: str | None = None

    def variant_rollup(self) -> dict:
        """Per-variant totals over the slices (heterogeneous runs)."""
        rollup: dict = {}
        for entry in self.slices:
            if not entry.variant:
                continue
            row = rollup.setdefault(
                entry.variant,
                {
                    "slices": 0, "solved": 0, "steps": 0,
                    "elapsed_seconds": 0.0, "best_gate_count": None,
                },
            )
            row["slices"] += 1
            row["steps"] += entry.steps
            row["elapsed_seconds"] += entry.elapsed_seconds
            if entry.status == STATUS_OK and entry.gate_count is not None:
                row["solved"] += 1
                if (
                    row["best_gate_count"] is None
                    or entry.gate_count < row["best_gate_count"]
                ):
                    row["best_gate_count"] = entry.gate_count
        return rollup

    def as_dict(self) -> dict:
        data = {
            "jobs": self.jobs,
            "seed_count": self.seed_count,
            "winner_slice": self.winner_slice,
            "winner_rank": self.winner_rank,
            "cancelled": self.cancelled,
            "shared_bound": self.shared_bound,
            "shortcut": self.shortcut,
            "slices": [entry.as_dict() for entry in self.slices],
        }
        if self.strategies:
            data["strategies"] = list(self.strategies)
            data["deck"] = list(self.deck)
            data["winner_variant"] = self.winner_variant
            data["variants"] = self.variant_rollup()
        return data


def _spec_payload(specification, system) -> dict:
    """The JSON-safe spec a worker re-derives the system from.

    Permutations keep their image table (workers verify with
    ``circuit.implements``); bare PPRM systems travel as per-output
    big-integer bitsets (:meth:`repro.pprm.expansion.Expansion.to_bits`)
    so workers rebuild state with integer unpacks instead of re-parsing
    text into sets.  They verify by PPRM round-trip, as in the sweep
    runners.
    """
    from repro.functions.permutation import Permutation

    if isinstance(specification, Permutation):
        return {"images": list(specification.images)}
    if isinstance(specification, (list, tuple)):
        return {"images": [int(image) for image in specification]}
    return {
        "packed": [output.to_bits() for output in system.outputs],
        "num_vars": system.num_vars,
    }


def spec_from_payload(payload: dict):
    """Invert :func:`_spec_payload`: a Permutation or a PPRMSystem.

    The slice worker and flight replay both rebuild through here and
    hand the result to ``synthesize``, whose search picks its backend
    by width.
    """
    if "images" in payload:
        from repro.functions.permutation import Permutation

        return Permutation(payload["images"])
    if "packed" in payload:
        return PPRMSystem(
            [Expansion.from_bits(bits) for bits in payload["packed"]]
        )
    from repro.pprm.parser import parse_system

    return parse_system(payload["system"])


def _slice_outcome(
    task_outcome: TaskOutcome, slice_index, ranks,
    variant=None, direction="forward",
):
    extra = task_outcome.extra or {}
    return SliceOutcome(
        slice_index=slice_index,
        seed_ranks=None if ranks is None else tuple(ranks),
        status=task_outcome.status,
        finish_reason=str(extra.get("finish_reason") or ""),
        gate_count=task_outcome.gate_count,
        solution_rank=extra.get("solution_rank"),
        circuit=task_outcome.circuit,
        stats=dict(task_outcome.stats or {}),
        metrics=extra.get("metrics"),
        elapsed_seconds=task_outcome.elapsed_seconds,
        error=task_outcome.error,
        variant=extra.get("variant") or variant,
        direction=str(extra.get("direction") or direction),
    )


def _merged_finish_reason(slices: list[SliceOutcome]) -> str:
    reason = "queue_exhausted"
    best = -1
    for entry in slices:
        name = entry.finish_reason or "interrupted"
        if name not in _UNSOLVED_PRECEDENCE:
            name = "interrupted"
        level = _UNSOLVED_PRECEDENCE.index(name)
        if level > best:
            best = level
            reason = name
    return reason


def _parent_registries(options: SynthesisOptions) -> list:
    """MetricsRegistry instances reachable from the caller's observers
    (the ``rmrls synth --json/--metrics`` path) — merge targets for the
    workers' metrics snapshots."""
    registries = []
    for observer in options.observers:
        registry = getattr(observer, "registry", None)
        if registry is not None and hasattr(registry, "merge_snapshot"):
            registries.append(registry)
    return registries


def synthesize_portfolio(
    specification,
    options: SynthesisOptions | None = None,
    jobs: int | None = None,
    pool: WorkerPool | None = None,
    inline: bool | None = None,
    **option_changes,
) -> SynthesisResult:
    """Synthesize by racing the ranked first-level seeds in parallel.

    Drop-in alternative to :func:`repro.synth.rmrls.synthesize` (which
    dispatches here itself when ``options.portfolio_jobs > 1``).
    ``jobs`` overrides ``options.portfolio_jobs``; a custom ``pool``
    may inject budgets/retries (its ``jobs`` setting still bounds
    concurrency).

    ``inline=True`` runs the fleet sequentially in this process
    (slot by slot over a :class:`~repro.parallel.bound.LocalBound`)
    instead of forking workers.  The default (``None``) auto-detects:
    a *daemonic* process — a sweep-shard or synthesis-service worker —
    cannot fork children, so the portfolio inlines itself there and
    the strategy deck still runs end to end; a one-job fleet with no
    ``pool`` and no ``flight_dir`` (a one-variant deck) inlines too,
    rather than starting a one-worker pool to run one slot.

    Returns a fleet-wide :class:`SynthesisResult`: the deterministic
    winner's circuit, merged ``SearchStats`` (the driver's root
    expansion plus the slice totals; note every worker repeats the
    root expansion), and a :class:`PortfolioSummary` under
    ``result.portfolio``.
    """
    if options is None:
        options = SynthesisOptions()
    if option_changes:
        options = options.with_(**option_changes)
    if jobs is None:
        jobs = options.portfolio_jobs or 1
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if inline is None:
        inline = bool(multiprocessing.current_process().daemon) or (
            jobs == 1 and pool is None and not options.flight_dir
        )
    started = time.monotonic()

    flight = None
    if options.flight_dir:
        # The driver's black box; workers arm their own through the
        # pool's ``flight_dir``.  Faults stay worker-only, as in
        # ``run_sweep``.
        flight = FlightRecorder(
            os.path.join(options.flight_dir, "portfolio-coord.ring"),
            meta={"process": "portfolio-coord", "jobs": jobs},
            faults="none",
        )
    error = None
    try:
        return _run_portfolio_driver(
            specification, options, jobs, pool, started, flight, inline,
        )
    except BaseException as caught:
        error = caught
        raise
    finally:
        end_recording(flight, error)


def _run_portfolio_driver(
    specification, options, jobs, pool, started, flight=None, inline=False,
):
    system = _as_system(specification)

    # Resolve before any work so an unknown strategy name fails fast.
    strategies = resolve_strategies(options.portfolio_strategies)

    # Seed enumeration runs in-process, without the caller's live
    # observers (workers repeat the root expansion under their own).
    quiet = options.with_(**_DRIVER_FIELDS)
    first = enumerate_first_level(system, quiet)
    registries = _parent_registries(options)
    payload_spec = _spec_payload(specification, system)
    if strategies and "images" not in payload_spec:
        # A PPRM-only spec cannot be inverted symbolically: keep the
        # forward-direction variants; an all-inverse deck degrades to
        # the homogeneous portfolio rather than failing the synthesis.
        strategies = tuple(
            entry for entry in strategies if entry.direction == "forward"
        )

    if (
        first.shortcut is not None
        or not first.seeds
        or (jobs == 1 and not strategies)
    ):
        # Identity / single-gate specs, an empty seed pool (everything
        # pruned at the root), or a degenerate fleet: the serial search
        # is the portfolio.  A one-slot deck still runs its variant.
        if first.shortcut is not None:
            result = first.shortcut
        else:
            result = _serial_fallback(system, quiet)
            result.stats.merge(first.stats)
        result.options = options
        result.portfolio = PortfolioSummary(
            jobs=jobs,
            seed_count=len(first.seeds),
            shared_bound=False,
            shortcut=first.shortcut is not None,
        )
        return result

    seeds = first.seeds
    seed_triples = [(s.rank, s.target, s.factor) for s in seeds]
    if registries:
        payload_spec = dict(payload_spec, metrics=True)

    deck = None
    inverse_triples: list = []
    # The driver's own searches, counted with the slices'.
    driver_stats = [first.stats]
    if strategies:
        if any(entry.direction == "inverse" for entry in strategies):
            from repro.functions.permutation import Permutation

            inverse_first = enumerate_first_level(
                Permutation(payload_spec["images"]).inverse(), quiet
            )
            driver_stats.append(inverse_first.stats)
            if inverse_first.shortcut is None:
                inverse_triples = [
                    (s.rank, s.target, s.factor)
                    for s in inverse_first.seeds
                ]
        deck = build_deck(
            strategies, jobs, len(seeds), len(inverse_triples)
        )
        if not deck.slots:  # pragma: no cover - defensive
            deck = None

    # The execution plan: one (slice index, seed ranks, variant) triple
    # per slot.  ``ranks`` is ``None`` for unrestricted slots; the
    # homogeneous path never materializes an empty slice.
    if deck is not None:
        plan = [
            (slot.slot, slot.seed_ranks, slot.variant)
            for slot in deck.slots
        ]
    else:
        plan = [
            (index, ranks, None)
            for index, ranks in enumerate(
                ranks
                for ranks in partition_seeds(len(seeds), jobs)
                if ranks
            )
        ]

    bound = None
    if options.portfolio_share_bound:
        bound = LocalBound() if inline else SharedBound()
    runtime = None if bound is None else {"bound": bound}

    tasks = []
    for index, ranks, entry in plan:
        base = options if entry is None else entry.apply(options)
        worker_options = base.with_(
            portfolio_seed_ranks=ranks, **_DRIVER_FIELDS
        )
        slot_payload = payload_spec
        triples = seed_triples
        label = f"portfolio:slice{index}"
        if entry is not None:
            slot_payload = dict(payload_spec, variant=entry.name)
            if entry.direction == "inverse":
                slot_payload["direction"] = entry.direction
                triples = inverse_triples
            label = f"portfolio:{entry.name}:slot{index}"
        tasks.append(
            portfolio_task(
                slot_payload,
                triples,
                index,
                options=worker_options,
                runtime=runtime,
                meta={"label": label, "slice": index},
            )
        )

    summary = PortfolioSummary(
        jobs=jobs,
        seed_count=len(seeds),
        shared_bound=bound is not None,
        strategies=(
            tuple(entry.name for entry in strategies) if deck else ()
        ),
        deck=[slot.as_dict() for slot in deck.slots] if deck else [],
    )

    owned = pool is None and not inline
    pool = None if inline else _fleet_pool(pool, jobs, options, flight)
    try:
        _run_plan(tasks, plan, summary, options, pool)
    finally:
        if owned:
            pool.close()

    result = _merge_fleet(
        system, options, summary, registries, started, driver_stats,
    )
    if deck is not None:
        _record_strategy_outcome(summary, registries)
    return result


def _fleet_pool(pool, jobs, options, flight) -> WorkerPool:
    """The worker pool a pooled fleet races on, wired to the portfolio's
    flight recorder."""
    if pool is None:
        return WorkerPool(
            jobs=jobs, budget=WorkerBudget(), retry=RetryPolicy(),
            flight_dir=options.flight_dir, flight=flight,
        )
    if options.flight_dir and pool.flight_dir is None:
        pool.flight_dir = options.flight_dir
        pool.flight = flight
    return pool


def _run_plan(tasks, plan, summary, options, pool):
    """Run every slot of the plan and record its :class:`SliceOutcome`.

    With a ``pool`` the slots race across worker processes.  Without
    one (``inline``) they run one after another in this process, each
    as a contained in-process attempt: daemonic pool workers (sweep
    shards, the synthesis service) cannot fork children, so the deck
    runs slot by slot over a :class:`~repro.parallel.bound.LocalBound`
    — later slots still prune against earlier incumbents and the slot
    order is the deck order, so the run is deterministic.

    Early cancellation: once a good-enough verified incumbent has
    *arrived* (not merely been published to the bound — the finder's
    own result must be safely received first), the remaining slots
    are cancelled: SIGKILLed in a pool, skipped inline.
    ``stop_at_first`` cancels on any solution;
    ``portfolio_cancel_gates`` on one at most that many gates.
    """
    cancel_gates = options.portfolio_cancel_gates
    cancel_armed = options.stop_at_first or cancel_gates is not None
    state = {"stop": False}

    def on_final(task, outcome):
        if (
            not cancel_armed
            or state["stop"]
            or outcome.status != STATUS_OK
            or outcome.gate_count is None
        ):
            return
        if cancel_gates is None or outcome.gate_count <= cancel_gates:
            state["stop"] = True

    if pool is not None:
        stop_check = (lambda: state["stop"]) if cancel_armed else None
        outcomes = pool.run(tasks, on_final=on_final, stop_check=stop_check)
    else:
        outcomes = []
        for task in tasks:
            if state["stop"]:
                outcome = TaskOutcome(
                    task_id=task.task_id, status=STATUS_INTERRUPTED,
                    meta=dict(task.meta),
                    extra={"finish_reason": "interrupted"},
                )
            else:
                slot_started = time.monotonic()
                raw = _run_inline_attempt(task, task.options, 1)
                outcome = _outcome_from_raw(
                    task, raw, 1, time.monotonic() - slot_started
                )
                on_final(task, outcome)
            outcomes.append(outcome)

    by_task = {outcome.task_id: outcome for outcome in outcomes}
    for (index, ranks, entry), task in zip(plan, tasks):
        outcome = by_task.get(task.task_id)
        if outcome is None:  # pragma: no cover - defensive
            continue
        slice_entry = _slice_outcome(
            outcome, index, ranks,
            variant=None if entry is None else entry.name,
            direction="forward" if entry is None else entry.direction,
        )
        summary.slices.append(slice_entry)
        if slice_entry.status == STATUS_INTERRUPTED:
            summary.cancelled += 1


def _record_strategy_outcome(summary, registries):
    """Surface a deck run's per-variant outcome: bump the
    ``strategy_slots_total``/``strategy_wins_total`` counters on the
    caller's registries."""
    counts: dict = {}
    for entry in summary.slices:
        if entry.variant:
            counts[entry.variant] = counts.get(entry.variant, 0) + 1
    for registry in registries:
        for name, count in counts.items():
            registry.counter(
                "strategy_slots_total", labels={"variant": name}
            ).inc(count)
        if summary.winner_variant:
            registry.counter(
                "strategy_wins_total",
                labels={"variant": summary.winner_variant},
            ).inc()


def _serial_fallback(system, options: SynthesisOptions) -> SynthesisResult:
    from repro.synth.rmrls import synthesize

    return synthesize(system, options)


def _merge_fleet(
    system, options, summary: PortfolioSummary, registries, started,
    driver_stats,
) -> SynthesisResult:
    """Fold the slice outcomes and the driver's own search counters
    (``driver_stats``) into one fleet-wide result."""
    fleet = SearchStats()
    for entry in summary.slices:
        if entry.stats:
            fleet.merge(SearchStats.from_dict(entry.stats))
    for stats in driver_stats:
        fleet.merge(stats)
    for registry in registries:
        for entry in summary.slices:
            if entry.metrics:
                registry.merge_snapshot(
                    entry.metrics, source=f"slice{entry.slice_index}"
                )

    winner = _pick_winner(summary.slices)
    circuit = None
    if winner is not None:
        from repro.io.real_format import load_real

        circuit = load_real(winner.circuit)
        summary.winner_slice = winner.slice_index
        summary.winner_rank = winner.solution_rank
        summary.winner_variant = winner.variant
        fleet.finish_reason = winner.finish_reason or "solved"
        # Merging keeps the last slice's gauge value; the fleet's best
        # depth is the answer's.
        for registry in registries:
            registry.gauge("search_best_depth").set(circuit.gate_count())
    else:
        fleet.finish_reason = _merged_finish_reason(summary.slices)
        fleet.timed_out = fleet.timed_out or fleet.finish_reason == "timeout"
    fleet.elapsed_seconds = time.monotonic() - started
    return SynthesisResult(
        circuit=circuit,
        stats=fleet,
        options=options,
        num_vars=system.num_vars,
        engine=search_engine(system.num_vars).name,
        trace=None,
        portfolio=summary,
    )


def _pick_winner(slices: list[SliceOutcome]) -> SliceOutcome | None:
    """Deterministic winner: (depth, seed rank, slice index) minimal.

    Rank -1 marks a depth-1 solution discovered during the root
    expansion (identical in every worker), so rank order still breaks
    the tie deterministically.  Arrival order never participates.
    """
    best = None
    best_key = None
    for entry in slices:
        if entry.status != STATUS_OK or not entry.circuit:
            continue
        if entry.gate_count is None:
            continue
        rank = entry.solution_rank
        rank_key = rank if rank is not None and rank >= 0 else -1
        key = (entry.gate_count, rank_key, entry.slice_index)
        if best_key is None or key < best_key:
            best_key = key
            best = entry
    return best
