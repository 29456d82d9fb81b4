"""The RMRLS synthesis algorithm (Fig. 4 of the paper).

Best-first search over substitution sequences that reduce a PPRM system
to the identity.  Each accepted substitution is one Toffoli gate; the
root-to-solution path, in order, is the synthesized cascade.

The implementation follows Fig. 4 line by line, with the Sec. IV-D
extended substitutions and the Sec. IV-E heuristics (greedy per-variable
pruning, restarts from alternative first-level substitutions) available
through :class:`~repro.synth.options.SynthesisOptions`.

The search keeps its :class:`SearchStats` counters itself, hot-op
counts included.  Every notable search event is also reported through a
single :class:`~repro.obs.observer.SearchObserver` dispatch point, when
there is anyone to report to: the Fig. 5 :class:`TraceRecorder` under
``record_trace``, and whatever callers attach (metrics, JSONL,
progress) via ``SynthesisOptions.observers``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter

from repro.circuits.circuit import Circuit
from repro.functions.permutation import Permutation
from repro.obs.observer import (
    GUARD_VISITED_OVERFLOW,
    PRUNE_CHILD_DEPTH,
    PRUNE_DEPTH,
    PRUNE_GREEDY,
    PRUNE_GROWTH,
    PRUNE_LOWER_BOUND,
    MultiObserver,
)
from repro.pprm.engine import search_engine
from repro.pprm.system import PPRMSystem
from repro.synth.node import SearchNode
from repro.synth.options import SynthesisOptions
from repro.synth.priority import MaxPriorityQueue, node_priority
from repro.synth.stats import HOT_OP_FIELDS, SearchStats, TraceRecorder
from repro.synth.substitutions import candidate_lister
from repro.utils.timer import Deadline

__all__ = [
    "FirstLevel",
    "FirstLevelSeed",
    "SynthesisResult",
    "enumerate_first_level",
    "synthesize",
]

_priority_of = attrgetter("priority")
_target_of = attrgetter("target")


@dataclass
class SynthesisResult:
    """Outcome of one RMRLS run.

    ``circuit`` is ``None`` when synthesis failed within its budget
    (time limit, step limit, memory guard, interrupt, or exhausted
    queue under the heuristics); Sec. IV-F guarantees that the basic
    algorithm without budgets never fails.
    """

    circuit: Circuit | None
    stats: SearchStats
    options: SynthesisOptions
    num_vars: int
    # Name of the PPRM backend the search ran on (see search_engine).
    engine: str
    trace: TraceRecorder | None = None
    # Per-slice accounting when the run went through the portfolio
    # engine (a repro.parallel PortfolioSummary); None for serial runs.
    portfolio: object | None = None

    @property
    def solved(self) -> bool:
        """True when a circuit was found."""
        return self.circuit is not None

    @property
    def finish_reason(self) -> str:
        """Why the search ended (one of ``FINISH_REASONS``)."""
        return self.stats.finish_reason

    @property
    def gate_count(self) -> int | None:
        """Gate count of the solution (``None`` if unsolved)."""
        return None if self.circuit is None else self.circuit.gate_count()

    def verify(self, specification: Permutation) -> bool:
        """Re-simulate the circuit against a specification."""
        return self.circuit is not None and self.circuit.implements(
            specification
        )


def _as_system(specification) -> PPRMSystem:
    """Normalize a specification to a PPRMSystem.

    :class:`_Search` picks its engine by width through
    :func:`repro.pprm.engine.search_engine` and turns the system into
    that engine's root state.
    """
    if isinstance(specification, PPRMSystem):
        return specification
    if isinstance(specification, Permutation):
        return specification.to_pprm()
    if isinstance(specification, Sequence):
        return Permutation(specification).to_pprm()
    raise TypeError(
        "specification must be a PPRMSystem, Permutation, or image "
        f"list; got {type(specification).__name__}"
    )


class _Search:
    """Mutable state of one synthesis run (one instance per call)."""

    def __init__(self, system: PPRMSystem, options: SynthesisOptions):
        self.options = options
        self.system = system
        # The one place a search's backend is chosen.  The search runs
        # on its raw states from the root to the result; ``system`` is
        # the only PPRMSystem it holds.
        self.engine = search_engine(system.num_vars)
        # The candidate rule, bound once to the engine and the options.
        self.list_candidates = candidate_lister(
            self.engine, options, system.num_vars
        )
        root_state = self.engine.root_state(system)
        self.identity_state = self.engine.identity_state(system.num_vars)
        self.stats = SearchStats(
            initial_terms=system.term_count(),
            hot_ops=dict.fromkeys(HOT_OP_FIELDS, 0),
        )
        self.trace = TraceRecorder() if options.record_trace else None
        observers = [] if self.trace is None else [self.trace]
        observers.extend(options.observers)
        # Single dispatch point, or none: every call site checks for
        # ``None``, and a single observer skips the fan-out loop.
        if not observers:
            self.observer = None
        elif len(observers) == 1:
            self.observer = observers[0]
        else:
            self.observer = MultiObserver(observers)
        self.phases = options.phase_timer
        self.timed_step = False
        self.deadline = Deadline(options.time_limit)
        self.queue = MaxPriorityQueue()
        self.best_depth = (
            math.inf if options.max_gates is None else options.max_gates + 1
        )
        self.best_node: SearchNode | None = None
        self.next_node_id = 0
        self.root = self._new_node(
            None, None, None, root_state, system.term_count(), 0, math.inf
        )
        self.first_level: list[SearchNode] = []
        self.next_restart_index = 0
        self.steps_since_restart = 0
        # Portfolio wiring: a live shared-incumbent channel (see
        # repro.parallel) and a pending first-level rank restriction,
        # consumed right after the root expands.
        self.bound = options.bound_channel
        self._seed_restriction = options.portfolio_seed_ranks
        # Depth-aware duplicate table: state -> shallowest depth seen.
        # A state reached again at the same or a greater depth leads to
        # the same or a worse subtree, so the duplicate can be dropped
        # without losing solutions.  Keys are the engine's states
        # (tuples of term frozensets or bitset ints, or one lane int);
        # one search never mixes backends in this table.
        self.visited: dict | None = (
            {root_state: 0} if options.dedupe_states else None
        )

    # -- node plumbing ----------------------------------------------------

    def _new_node(
        self, parent, target, factor, state, terms, elim, priority
    ) -> SearchNode:
        """Number, count and announce a new node: the root (``parent``
        None, Fig. 4 lines 5-11), a solution or a surviving child."""
        node_id = self.next_node_id
        self.next_node_id = node_id + 1
        self.stats.nodes_created += 1
        node = SearchNode(
            parent, target, factor, state, terms, elim, priority, node_id
        )
        if self.observer is not None:
            self.observer.on_child(node, parent)
        return node

    # -- main loop -------------------------------------------------------------

    def run(self) -> SearchNode | None:
        """Execute the Fig. 4 loop; return the best solution node."""
        if self.system.is_identity():
            self._finish("identity")
            return self.root
        self.queue.push(self.root)
        self.stats.hot_ops["queue_pushes"] += 1
        self._queue_changed()
        try:
            reason = self._loop()
        except KeyboardInterrupt:
            # A Ctrl-C mid-search yields a partial result (reason
            # "interrupted", best solution so far) instead of a lost
            # run; sweep drivers check ``stats.interrupted`` to stop.
            reason = "interrupted"
        # Every step pops one node.
        self.stats.hot_ops["queue_pops"] += self.stats.steps
        self._finish(reason)
        return self.best_node

    def _finish(self, reason: str) -> None:
        """Record the finish reason and report it."""
        self.stats.finish(reason)
        if self.observer is not None:
            self.observer.on_finish(reason, self.stats)

    def _queue_changed(self) -> None:
        """Track the queue's peak and report its new size."""
        size = len(self.queue)
        if size > self.stats.peak_queue_size:
            self.stats.peak_queue_size = size
        if self.observer is not None:
            self.observer.on_queue(size)

    def _memory_guard_tripped(self) -> bool:
        """True when a node-count or queue-size cap has been exceeded."""
        options = self.options
        if (
            options.max_nodes is not None
            and self.next_node_id >= options.max_nodes
        ):
            return True
        return (
            options.max_queue_size is not None
            and len(self.queue) > options.max_queue_size
        )

    def _loop(self) -> str:
        """The search loop proper; returns the finish reason."""
        observer = self.observer
        stats = self.stats
        phases = self.phases
        options = self.options
        queue = self.queue
        max_steps = options.max_steps
        restart_steps = options.restart_steps
        stop_at_first = options.stop_at_first
        guarded = (
            options.max_nodes is not None
            or options.max_queue_size is not None
        )
        # The deadline is polled every deadline_poll_steps iterations;
        # a countdown starting at zero guarantees the very first
        # iteration still checks, so a 0-second budget fails fast.
        poll_stride = options.deadline_poll_steps
        poll_countdown = 0
        # The shared incumbent bound (portfolio mode) is polled on its
        # own stride; ``bound is None`` keeps the branch out of the
        # serial hot path entirely.
        bound = self.bound
        bound_stride = options.portfolio_poll_steps
        bound_countdown = 0
        while True:
            if queue.is_empty() and not self._try_restart(forced=True):
                if self.best_node is None:
                    return "queue_exhausted"
                return "solved"
            if guarded and self._memory_guard_tripped():
                return "memory_limit"
            if poll_countdown <= 0:
                if self.deadline.is_expired():
                    return "timeout"
                poll_countdown = poll_stride
            poll_countdown -= 1
            if bound is not None:
                if bound_countdown <= 0:
                    self._adopt_bound()
                    bound_countdown = bound_stride
                bound_countdown -= 1
            if max_steps is not None and stats.steps >= max_steps:
                return "step_limit"
            if (
                restart_steps is not None
                and self.best_node is None
                and self.steps_since_restart >= restart_steps
                and self._try_restart(forced=False)
            ):
                continue

            step = stats.steps
            timed = phases is not None and phases.start_step(step)
            self.timed_step = timed
            self.steps_since_restart += 1
            if timed:
                start = phases.clock()
            parent = queue.pop()
            if timed:
                phases.add("queue", phases.clock() - start)
            stats.steps = step + 1
            if observer is not None:
                observer.on_step(step + 1, parent, len(queue))
            if parent.depth >= self.best_depth - 1:
                stats.nodes_pruned_depth += 1
                if observer is not None:
                    observer.on_prune(parent, PRUNE_DEPTH)
                continue
            self._expand(parent)
            if stop_at_first and self.best_node is not None:
                return "solved"

    # -- expansion ----------------------------------------------------------------

    def _expand(self, parent: SearchNode) -> None:
        """Expand ``parent``: count every child on its raw state, build
        a node only for the children that survive.

        The bound lister of :mod:`repro.synth.substitutions` lists the
        candidates and the engine computes their children in one call
        (:meth:`~repro.pprm.engine.PPRMEngine.children`).  A substitution
        changes only its target output, so every child keeps the
        parent's unsolved outputs except its target's *finisher*, which
        solves one more.  The depth prune and the lower bound are
        therefore decided once, from the parent.  When they reject a
        non-finishing child, only the finishers are substituted; the
        rest are only counted (see "Bound the parent" in
        docs/architecture.md).
        """
        observer = self.observer
        stats = self.stats
        stats.nodes_expanded += 1
        if observer is not None:
            observer.on_expand(parent)
        options = self.options
        engine = self.engine
        hot = stats.hot_ops
        timed = self.timed_step
        if timed:
            clock = self.phases.clock
            add_phase = self.phases.add
            start = clock()
        state = parent.state
        depth = parent.depth + 1
        bounded = options.lower_bound_pruning
        if bounded:
            # The fewest gates a solution through a non-finishing child
            # needs; a finisher's paths need one fewer.
            fewest = depth + engine.unsolved_count(state)
        finishing = depth >= self.best_depth - 1 or (
            bounded and fewest >= self.best_depth
        )
        candidates, others = self.list_candidates(state, finishing)
        if timed:
            add_phase("enumerate_substitutions", clock() - start)
            start = clock()
        # Evaluate each child as a raw state: its term count, identity
        # test and dedupe key all come from the state (see "Count
        # before you materialize" in docs/architecture.md).
        children = engine.children(state, candidates)
        identity = self.identity_state
        parent_terms = parent.terms
        evaluated: list[tuple] = []
        any_decreasing = False
        # Hot-op counts are batched through local ints and added once
        # per expansion: per-candidate increments cost ~8 % of the
        # whole search (see docs/benchmarking.md).
        applied = 0
        terms_out = 0
        try:
            for candidate, child in zip(candidates, children):
                child_state, terms = child
                applied += 1
                terms_out += terms
                if child_state == identity:
                    if depth < self.best_depth:
                        solution = self._new_node(
                            parent, candidate[0], candidate[1], child_state,
                            terms, parent_terms - terms, 0.0,
                        )
                        self.best_depth = depth
                        self.best_node = solution
                        stats.solutions_found += 1
                        if observer is not None:
                            observer.on_solution(solution, parent)
                        if self.bound is not None:
                            self.bound.publish(depth)
                        if options.stop_at_first:
                            return
                    continue
                if terms < parent_terms:
                    any_decreasing = True
                evaluated.append((candidate, child))
        finally:
            hot["substitutions_applied"] += applied
            hot["pprm_terms_in"] += applied * parent_terms
            hot["pprm_terms_out"] += terms_out
            if timed:
                add_phase("substitute", clock() - start)

        # Only the loop above finds solutions, so the bound is fixed
        # from here on.  A solution found in it makes every sibling
        # too deep.
        best_depth = self.best_depth
        if depth >= best_depth - 1:
            # The pop-time depth prune (Fig. 4 line 16) would discard
            # every child anyway; dropping them now saves queue traffic.
            pruned, reason = others + len(evaluated), PRUNE_CHILD_DEPTH
            evaluated = []
        elif bounded and fewest - 1 >= best_depth:
            pruned, reason = others + len(evaluated), PRUNE_LOWER_BOUND
            evaluated = []
        else:
            # The finishers survive; the other candidates of a
            # finishing expansion fail the bound (the full path has
            # none).
            pruned, reason = others, PRUNE_LOWER_BOUND
        if pruned:
            stats.nodes_pruned_depth += pruned
            if observer is not None:
                observer.on_prune(parent, reason, pruned)
        keep_growth = not any_decreasing and options.growth_when_stuck
        if keep_growth and others and evaluated and any(
            child[1] >= parent_terms and not candidate[2]
            for candidate, child in evaluated
        ):
            # The growth rule asks whether *any* sibling decreases the
            # term count, and the non-finishers were never substituted.
            keep_growth = not self._sibling_decreases(parent, candidates)

        created = self._survivors(parent, depth, evaluated, keep_growth)
        if created:
            greedy_k = options.greedy_k
            if greedy_k is not None and len(created) > greedy_k:
                created = self._greedy_prune(parent, created, greedy_k)
            if parent.is_root():
                self.first_level.extend(created)
            if timed:
                start = clock()
            self.queue.extend(created)
            if timed:
                add_phase("queue", clock() - start)
            hot["queue_pushes"] += len(created)
            # One update per expansion: the queue only grows while a
            # node expands, so the final size equals the running peak
            # and per-push notifications would add nothing but overhead.
            self._queue_changed()
        if parent.is_root() and self._seed_restriction is not None:
            self._restrict_first_level()
        parent.release_state()

    def _survivors(
        self, parent, depth, evaluated, keep_growth
    ) -> list[SearchNode]:
        """One pass over the evaluated children: a node for each one
        that passes the growth rule and the duplicate table, in
        candidate order.  The pass counts its rejections and dedupe
        traffic in locals and adds them to the counters once, also
        when it is interrupted."""
        created: list[SearchNode] = []
        if not evaluated:
            return created
        observer = self.observer
        timed = self.timed_step
        stats = self.stats
        options = self.options
        if timed:
            clock = self.phases.clock
            add_phase = self.phases.add
        visited = self.visited
        cap = options.max_visited
        parent_terms = parent.terms
        initial_terms = stats.initial_terms
        cumulative = options.cumulative_elim_priority
        if options.progress_depth_priority:
            # Eq. (4)'s depth counts the term-decreasing gates only.
            decreasing_depth = max(1, parent.progress_depth + 1)
            flat_depth = max(1, parent.progress_depth)
        else:
            decreasing_depth = flat_depth = depth
        append = created.append
        new_node = self._new_node
        rejected = probes = hits = inserts = 0
        try:
            for (target, factor, exempt), (child_state, terms) in evaluated:
                elim = parent_terms - terms
                if elim <= 0 and not exempt and not keep_growth:
                    # Fig. 4 line 31 discards growth children; the Sec.
                    # IV-F convergence proof keeps them.  We keep them
                    # only when the node is otherwise stuck (no
                    # decreasing child).
                    rejected += 1
                    if observer is not None:
                        observer.on_prune(parent, PRUNE_GROWTH)
                    continue
                if visited is not None:
                    # The state is the dedupe key; a state already
                    # reached at this depth or a shallower one is a
                    # duplicate.
                    probes += 1
                    if timed:
                        start = clock()
                    known_depth = visited.get(child_state)
                    if known_depth is not None and known_depth <= depth:
                        hits += 1
                        if timed:
                            add_phase("dedupe", clock() - start)
                        continue
                    if (
                        known_depth is None
                        and cap is not None
                        and len(visited) >= cap
                    ):
                        # Only brand-new entries are refused at the cap.
                        stats.visited_overflows += 1
                        if observer is not None:
                            observer.on_guard(GUARD_VISITED_OVERFLOW)
                    else:
                        inserts += 1
                        visited[child_state] = depth
                    if timed:
                        add_phase("dedupe", clock() - start)
                priority = node_priority(
                    decreasing_depth if elim > 0 else flat_depth,
                    initial_terms - terms if cumulative else elim,
                    factor.bit_count(),
                    options,
                )
                append(
                    new_node(
                        parent, target, factor, child_state, terms, elim,
                        priority,
                    )
                )
        finally:
            stats.children_rejected_growth += rejected
            hot = stats.hot_ops
            hot["dedupe_probes"] += probes
            hot["dedupe_hits"] += hits
            hot["dedupe_inserts"] += inserts
        return created

    def _greedy_prune(self, parent, created, greedy_k) -> list[SearchNode]:
        """Keep the ``greedy_k`` best children of each target (Sec.
        IV-E).  Candidates come grouped by target, so each run of one
        target in ``created`` is a group."""
        kept: list[SearchNode] = []
        for _, group in groupby(created, key=_target_of):
            run = list(group)
            if len(run) > greedy_k:
                run.sort(key=_priority_of, reverse=True)
                dropped = len(run) - greedy_k
                self.stats.children_pruned_greedy += dropped
                if self.observer is not None:
                    self.observer.on_prune(parent, PRUNE_GREEDY, dropped)
                del run[greedy_k:]
            kept.extend(run)
        return kept

    def _sibling_decreases(self, parent: SearchNode, finishers) -> bool:
        """Whether a candidate of ``parent`` other than ``finishers``
        lowers the term count.  Substitutes them in candidate order
        until one does."""
        engine = self.engine
        timed = self.timed_step
        if timed:
            clock = self.phases.clock
            add_phase = self.phases.add
            start = clock()
        state = parent.state
        candidates, _ = self.list_candidates(state, False)
        if timed:
            add_phase("enumerate_substitutions", clock() - start)
            start = clock()
        parent_terms = parent.terms
        decreases = False
        applied = terms_out = 0
        try:
            for target, factor, allow_growth in candidates:
                if (target, factor, allow_growth) in finishers:
                    continue
                terms = engine.state_term_count(
                    engine.substitute_state(state, target, factor)
                )
                applied += 1
                terms_out += terms
                if terms < parent_terms:
                    decreases = True
                    break
        finally:
            hot = self.stats.hot_ops
            hot["substitutions_applied"] += applied
            hot["pprm_terms_in"] += applied * parent_terms
            hot["pprm_terms_out"] += terms_out
        if timed:
            add_phase("substitute", clock() - start)
        return decreases

    # -- portfolio wiring (see repro.parallel) -----------------------------

    def _adopt_bound(self) -> None:
        """Tighten ``best_depth`` from the shared incumbent.

        The +1 slack keeps equal-depth solutions acceptable: a remote
        incumbent at depth ``d`` prunes only subtrees that provably
        cannot produce a solution of depth <= ``d``, so the portfolio
        winner (minimal depth, ties by seed rank) is unaffected by
        *when* the bound arrives — the pruned nodes never carried a
        competitive solution.
        """
        best = self.bound.best()
        if best is not None and best + 1 < self.best_depth:
            self.best_depth = best + 1

    def _restrict_first_level(self) -> None:
        """Keep only the first-level seeds at the assigned portfolio
        ranks (0-based positions in the priority-ranked first level).

        Runs once, immediately after the root expands: the queue holds
        exactly the first-level children at that point, so clearing it
        and re-pushing the slice (in rank order) confines both the main
        search and every later restart to this worker's partition.
        """
        allowed = self._seed_restriction
        self._seed_restriction = None
        ordered = self._ranked_first_level()
        keep = [ordered[rank] for rank in allowed if rank < len(ordered)]
        self.queue.clear()
        self._queue_changed()
        self.first_level = keep
        for seed in keep:
            self.queue.push(seed)
        self.stats.hot_ops["queue_pushes"] += len(keep)
        self._queue_changed()

    # -- restarts (Sec. IV-E) ----------------------------------------------------------

    def _ranked_first_level(self) -> list[SearchNode]:
        """The restart seed pool: first-level nodes by priority, best
        first; ties keep creation order (``sorted`` is stable), which
        is what makes seed *ranks* a deterministic addressing scheme
        for the portfolio driver."""
        return sorted(
            self.first_level, key=lambda node: node.priority, reverse=True
        )

    def _try_restart(self, forced: bool) -> bool:
        """Restart from the next untried first-level substitution.

        ``forced`` restarts happen when the queue empties without a
        solution (possible under greedy pruning); unforced ones when the
        step counter trips.  Returns ``False`` when no alternatives
        remain or restarting is pointless (a solution already exists).
        """
        if self.options.restart_steps is None and not forced:
            return False
        if (
            forced
            and self.options.restart_steps is None
            and self.options.greedy_k is None
        ):
            # Basic algorithm: an exhausted queue is a definitive
            # answer; restarting would deterministically repeat it.
            return False
        if self.best_node is not None:
            return False
        if self.stats.restarts >= self.options.max_restarts:
            return False
        if not self.first_level:
            return False
        ordered = self._ranked_first_level()
        if self.next_restart_index >= len(ordered):
            return False
        seed = ordered[self.next_restart_index]
        self.next_restart_index += 1
        hot = self.stats.hot_ops
        if seed.state is None:
            # Already expanded on a previous pass; recompute its state
            # from the root (the root keeps its state precisely for this).
            seed.state = self.engine.substitute_state(
                self.root.state, seed.target, seed.factor
            )
            hot["substitutions_applied"] += 1
            hot["pprm_terms_in"] += self.root.terms
            hot["pprm_terms_out"] += seed.terms
        hot["restart_reseeds"] += 1
        hot["restart_dropped_nodes"] += len(self.queue)
        self.queue.clear()
        # Queue-size gauges must see the clear, not just the pushes.
        self._queue_changed()
        self.queue.push(seed)
        hot["queue_pushes"] += 1
        self._queue_changed()
        self.steps_since_restart = 0
        self.stats.restarts += 1
        if self.observer is not None:
            self.observer.on_restart(seed, len(self.queue))
        return True


@dataclass(frozen=True)
class FirstLevelSeed:
    """One ranked first-level substitution — a portfolio search seed.

    ``rank`` is the 0-based position in the priority-ranked first level
    (the order :meth:`_Search._try_restart` consumes serially); the
    ``(target, factor)`` pair identifies the depth-1 gate, which is how
    a finished circuit is matched back to the seed that produced it.
    """

    rank: int
    target: int
    factor: int
    terms: int
    elim: int
    priority: float


@dataclass
class FirstLevel:
    """Result of :func:`enumerate_first_level`.

    ``stats`` holds the root expansion's counters, which a portfolio
    result adds to its own.  ``shortcut`` is a complete
    :class:`SynthesisResult` when the specification needs no portfolio
    at all — the identity function, or a single-gate (depth-1)
    solution discovered during the root expansion, which no deeper
    search can beat; its stats are ``stats``.
    """

    seeds: list[FirstLevelSeed]
    stats: SearchStats
    shortcut: SynthesisResult | None = None


def _result(search: _Search, best) -> SynthesisResult:
    """The result of a finished search whose best solution is ``best``."""
    search.stats.elapsed_seconds = search.deadline.elapsed()
    circuit = None
    if best is not None:
        circuit = Circuit(search.system.num_vars, best.gate_sequence())
    return SynthesisResult(
        circuit=circuit,
        stats=search.stats,
        options=search.options,
        num_vars=search.system.num_vars,
        engine=search.engine.name,
        trace=search.trace,
    )


def _finalize_search(search: _Search, reason: str, best) -> SynthesisResult:
    """Seal a search that never entered (or already left) the loop."""
    search._finish(reason)
    return _result(search, best)


def enumerate_first_level(
    specification,
    options: SynthesisOptions | None = None,
    **option_changes,
) -> FirstLevel:
    """Rank the root's first-level substitutions without searching.

    This is the seed-enumeration step of the Sec. IV-E restart
    heuristic, split out of the search loop so a portfolio driver (see
    :mod:`repro.parallel`) can partition the ranked seeds across
    workers.  The ranking is exactly the order ``_try_restart``
    consumes serially: priority-sorted, creation order on ties.

    Trivial specifications short-circuit: the identity function and
    specifications solved by a single gate return a finished
    ``shortcut`` result (depth 1 is unbeatable), with no seeds.
    """
    if options is None:
        options = SynthesisOptions()
    if option_changes:
        options = options.with_(**option_changes)
    system = _as_system(specification)
    search = _Search(system, options)
    if system.is_identity():
        return FirstLevel(
            seeds=[],
            stats=search.stats,
            shortcut=_finalize_search(search, "identity", search.root),
        )
    hot = search.stats.hot_ops
    search.queue.push(search.root)
    hot["queue_pushes"] += 1
    search._queue_changed()
    root = search.queue.pop()
    hot["queue_pops"] += 1
    search._expand(root)
    if search.best_node is not None:
        # A depth-1 solution is globally optimal — racing workers over
        # the seed pool could only rediscover it.
        return FirstLevel(
            seeds=[],
            stats=search.stats,
            shortcut=_finalize_search(search, "solved", search.best_node),
        )
    # No on_finish here: the search goes on in the portfolio workers.
    seeds = [
        FirstLevelSeed(
            rank=rank,
            target=node.target,
            factor=node.factor,
            terms=node.terms,
            elim=node.elim,
            priority=node.priority,
        )
        for rank, node in enumerate(search._ranked_first_level())
    ]
    return FirstLevel(seeds=seeds, stats=search.stats)


def synthesize(
    specification,
    options: SynthesisOptions | None = None,
    **option_changes,
) -> SynthesisResult:
    """Synthesize a reversible specification into a Toffoli cascade.

    ``specification`` may be a :class:`Permutation`, a raw image list
    (the paper's ``{1, 0, 7, 2, ...}`` notation), or a prepared
    :class:`PPRMSystem`.  Keyword arguments are shorthand for option
    fields, e.g. ``synthesize(spec, greedy_k=1, time_limit=60)``.

    With ``portfolio_jobs`` set above 1, or a ``portfolio_strategies``
    deck, the call is dispatched to the portfolio engine
    (:func:`repro.parallel.synthesize_portfolio`), which races the
    ranked first-level seeds across worker processes; see
    docs/parallel.md.

    Returns a :class:`SynthesisResult`; check ``result.solved`` (the
    heuristics may fail within a budget, Sec. IV-F).
    """
    if options is None:
        options = SynthesisOptions()
    if option_changes:
        options = options.with_(**option_changes)
    if options.portfolio_seed_ranks is None and (
        (options.portfolio_jobs or 1) > 1 or options.portfolio_strategies
    ):
        # Workers re-enter synthesize() with their rank slice assigned;
        # the seed_ranks guard keeps them on the serial path.  A
        # strategy deck goes to the portfolio even on one job, which
        # runs the slot's variant.
        from repro.parallel.portfolio import synthesize_portfolio

        return synthesize_portfolio(specification, options)
    search = _Search(_as_system(specification), options)
    return _result(search, search.run())
