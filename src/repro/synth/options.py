"""Synthesis options for the RMRLS algorithm.

The defaults reproduce the paper's tool configuration: the extended
substitution set of Sec. IV-D, the priority weights
``(alpha, beta, gamma) = (0.3, 0.6, 0.1)`` of equation (4), and both
heuristics of Sec. IV-E available but disabled until requested (the
*basic* algorithm is the default, as in Sec. IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["SynthesisOptions", "BASIC_OPTIONS", "GREEDY_OPTIONS"]


@dataclass(frozen=True)
class SynthesisOptions:
    """Configuration of one RMRLS run.

    Attributes:
        alpha, beta, gamma: weights of the priority function (4); they
            should sum to one (validated loosely, since ablations
            deliberately zero some of them).
        time_limit: wall-clock budget in seconds (``Timer`` in Fig. 4);
            ``None`` runs until the queue empties.
        max_gates: maximum circuit size; solutions longer than this are
            not accepted and deeper nodes are pruned (the "maximum
            circuit size of 40 gates" style option of Sec. V-B).
        greedy_k: Sec. IV-E greedy pruning — keep only the ``k`` best
            substitutions per target variable when expanding a node;
            ``None`` disables the heuristic (basic algorithm).  The
            paper uses k in 3..5 and calls k=1 "the greedy option".
        restart_steps: Sec. IV-E restart heuristic — abandon the search
            after this many loop iterations without a solution and
            restart from the next-best first-level substitution
            (paper: ~10 000); ``None`` disables restarts.
        max_restarts: cap on the number of restarts taken.
        max_steps: hard cap on total loop iterations across restarts.
            This is this reproduction's deterministic stand-in for the
            paper's CPU-seconds budgets (documented in DESIGN.md).
        extended_substitutions: enable the Sec. IV-D type-2
            substitutions (factors of ``v_out,i`` usable even when the
            linear term ``v_i`` is absent from ``v_out,i``).
        complement_substitutions: enable the Sec. IV-D type-3
            substitution ``v_i := v_i XOR 1``, which uniquely may
            increase the term count.
        growth_exempt_literals: substitutions whose factor has at most
            this many literals are exempt from the ``elim > 0``
            requirement.  The paper's text exempts only the constant
            factor (value 0); this reproduction measured that rule to
            leave 7 840 of the 40 320 three-variable functions unable to
            reach the identity (e.g. pure wire swaps, whose 3-CNOT
            realizations pass through term-count plateaus), which
            contradicts Table I.  Extending the exemption to
            single-literal (CNOT) factors — value 1, the default —
            makes every three-variable function reachable (verified
            exhaustively; see EXPERIMENTS.md).  Value -1 exempts
            nothing (the strict Sec. IV-A rule).
        growth_when_stuck: when a node offers *no* term-decreasing
            substitution at all (a local minimum of the term count —
            these exist and are common from four variables up), admit
            its growth children anyway.  Fig. 4 line 31 would discard
            them, but the convergence proof of Sec. IV-F explicitly
            assumes "all of these candidates will be stored in the
            priority queue"; this option resolves that contradiction in
            the proof's favour.  Without it the tool cannot approach
            the paper's 4/5-variable success rates (Tables II/III).
        progress_depth_priority: evaluate the ``alpha * depth`` reward
            of equation (4) on the number of *term-decreasing*
            substitutions along the path instead of the raw depth.
            With raw depth, any chain of growth-exempt substitutions
            monotonically raises its own priority, so the search dives
            through junk until the gate cap — a feedback loop that
            makes 4+-variable synthesis fail outright.  The paper never
            hits this because its line-31 rule admits almost no growth
            nodes; once the growth relaxations needed for completeness
            are in place (see ``growth_exempt_literals``), this
            correction is required.  Pruning and solution depths always
            use the true depth.
        lower_bound_pruning: prune nodes that provably cannot beat the
            best known solution: the remaining substitutions form a
            cascade realizing the node's residual function, every gate
            of a cascade targets exactly one line, and every output
            line still differing from its input needs at least one
            targeting gate — so (depth + unsolved outputs) lower-bounds
            any solution through the node.  An admissible-bound
            addition of this reproduction (not in the paper); it only
            removes provably non-improving paths.  It is evaluated
            once per expansion, on the parent: a child has the
            parent's unsolved outputs, or one fewer if its
            substitution solves its target line, so when the bound
            binds only those finishing children are substituted (see
            "Bound the parent" in docs/architecture.md).
        cumulative_elim_priority: equation (4) reads
            ``beta * elim / depth``; Fig. 4 line 27 defines ``elim``
            per stage, yet the text calls the quantity "the number of
            terms eliminated per stage", which only describes
            ``elim/depth`` when ``elim`` accumulates from the root.
            Measured head-to-head the literal per-stage reading (the
            default, ``False``) searches better, so the cumulative
            variant is kept as an ablation switch only.  The
            ``elim > 0`` acceptance test of line 31 always uses the
            per-stage value, as the text's monotonicity remark
            requires.
        stop_at_first: return as soon as any solution is found, without
            trying to improve it (the Sec. V-E scalability protocol:
            "As soon as a solution was found, we chose to move on").
        dedupe_states: optional visited-state table (not in the paper;
            off by default for faithfulness, used by some ablations).
        max_visited: cap on the number of entries the ``dedupe_states``
            table may hold.  Once full, further states are no longer
            recorded (duplicates past the cap can be re-explored) and
            each skipped insert is counted as a ``visited_overflow``
            guard event; ``None`` leaves the table unbounded.
        max_nodes: hard cap on the number of search nodes created
            across the whole run (restarts included).  Reaching it ends
            the run with finish reason ``memory_limit`` — the node
            count is the dominant term of the search's memory
            footprint.  ``None`` disables the guard.
        max_queue_size: hard cap on the priority-queue size; exceeding
            it ends the run with finish reason ``memory_limit``.
            ``None`` disables the guard.
        record_trace: record search-tree events for Fig. 5/6-style
            traces.
        deadline_poll_steps: poll the wall-clock deadline once every
            this many loop iterations instead of every iteration
            (clock reads are comparatively expensive on some
            platforms).  The first iteration always checks, so a
            0-second budget still fails immediately; a run may overrun
            its deadline by at most ``deadline_poll_steps - 1`` steps.
        observers: extra :class:`~repro.obs.observer.SearchObserver`
            instances (metrics, JSONL traces, progress lines, ...)
            that receive every search event alongside the built-in
            stats and trace observers.  Stored as a tuple; empty by
            default, costing nothing.
        phase_timer: an optional
            :class:`~repro.obs.phases.PhaseTimer` that attributes
            sampled wall-clock to the search's hot phases; ``None``
            (the default) compiles the timing paths out of the loop.
        portfolio_jobs: race this many worker processes over disjoint
            slices of the ranked first-level substitutions (the Sec.
            IV-E restart seed pool run concurrently instead of
            serially); ``None`` or ``1`` runs the ordinary in-process
            search.  See :mod:`repro.parallel` and docs/parallel.md.
        portfolio_share_bound: let portfolio workers share the
            incumbent solution depth through a cross-process value, so
            every worker prunes at ``bestDepth - 1`` as soon as *any*
            worker finds a solution.  Workers adopt the shared depth
            with +1 slack, which only removes provably-worse subtrees;
            see docs/parallel.md for the determinism contract.
        portfolio_cancel_gates: once a verified solution with at most
            this many gates has arrived, SIGKILL the remaining workers
            instead of letting them finish (their partial work is
            recorded as ``interrupted``).  ``None`` cancels only under
            ``stop_at_first``; this trades completeness of the losers'
            statistics for latency, never soundness.
        portfolio_strategies: race a *heterogeneous* strategy deck
            instead of identical searches: a deck name (``"default"``,
            ``"full"``), a comma-separated string, or a tuple of
            variant names from the
            :mod:`repro.parallel.strategy` catalog.  Only meaningful
            with ``portfolio_jobs > 1``; ``None`` (default) races the
            homogeneous seed-slice portfolio.  See docs/parallel.md.
        portfolio_seed_ranks: restrict *this* search to the given
            first-level seed ranks (0-based positions in the
            priority-sorted first level).  Set by the portfolio driver
            on each worker; rarely useful directly.
        portfolio_poll_steps: poll the shared incumbent bound once
            every this many loop iterations (piggybacks on the
            deadline poll stride machinery).
        flight_dir: directory for black-box flight-recorder rings and
            crash dumps (see :mod:`repro.obs.flight` and
            docs/observability.md).  When set, the portfolio driver
            (and the sweep harness via ``HarnessConfig.flight_dir``)
            arms a bounded ring-buffer recorder in every process;
            abnormal deaths leave checksummed dumps that ``rmrls
            postmortem`` timelines and ``rmrls replay`` re-runs
            deterministically.  Pure observability: never in task
            fingerprints, never changes results.
        bound_channel: a live object with ``best()``/``publish(depth)``
            (see :class:`repro.parallel.SharedBound`) connecting this
            search to the portfolio's shared incumbent; ``None``
            (default) keeps the search self-contained.  Excluded from
            equality and from task serialization like ``observers``.
    """

    alpha: float = 0.3
    beta: float = 0.6
    gamma: float = 0.1
    time_limit: float | None = None
    max_gates: int | None = None
    greedy_k: int | None = None
    restart_steps: int | None = None
    max_restarts: int = 64
    max_steps: int | None = None
    extended_substitutions: bool = True
    complement_substitutions: bool = True
    growth_exempt_literals: int = 1
    growth_when_stuck: bool = True
    cumulative_elim_priority: bool = False
    progress_depth_priority: bool = True
    lower_bound_pruning: bool = True
    stop_at_first: bool = False
    dedupe_states: bool = False
    max_visited: int | None = None
    max_nodes: int | None = None
    max_queue_size: int | None = None
    record_trace: bool = False
    deadline_poll_steps: int = 16
    observers: tuple = ()
    phase_timer: object | None = field(default=None, compare=False)
    portfolio_jobs: int | None = None
    portfolio_share_bound: bool = True
    portfolio_cancel_gates: int | None = None
    portfolio_strategies: tuple | str | None = None
    portfolio_seed_ranks: tuple | None = None
    portfolio_poll_steps: int = 64
    flight_dir: str | None = None
    bound_channel: object | None = field(default=None, compare=False)

    def __post_init__(self):
        if not isinstance(self.observers, tuple):
            object.__setattr__(self, "observers", tuple(self.observers))
        if self.portfolio_seed_ranks is not None and not isinstance(
            self.portfolio_seed_ranks, tuple
        ):
            object.__setattr__(
                self,
                "portfolio_seed_ranks",
                tuple(self.portfolio_seed_ranks),
            )
        if self.portfolio_strategies is not None and not isinstance(
            self.portfolio_strategies, (str, tuple)
        ):
            object.__setattr__(
                self,
                "portfolio_strategies",
                tuple(self.portfolio_strategies),
            )
        if self.deadline_poll_steps < 1:
            raise ValueError("deadline_poll_steps must be >= 1")
        if self.portfolio_jobs is not None and self.portfolio_jobs < 1:
            raise ValueError("portfolio_jobs must be >= 1 or None")
        if self.portfolio_poll_steps < 1:
            raise ValueError("portfolio_poll_steps must be >= 1")
        if (
            self.portfolio_cancel_gates is not None
            and self.portfolio_cancel_gates < 0
        ):
            raise ValueError(
                "portfolio_cancel_gates must be non-negative or None"
            )
        if self.portfolio_seed_ranks is not None and any(
            rank < 0 for rank in self.portfolio_seed_ranks
        ):
            raise ValueError("portfolio_seed_ranks must be non-negative")
        if self.greedy_k is not None and self.greedy_k < 1:
            raise ValueError("greedy_k must be >= 1 or None")
        if self.max_gates is not None and self.max_gates < 0:
            raise ValueError("max_gates must be non-negative")
        if self.restart_steps is not None and self.restart_steps < 1:
            raise ValueError("restart_steps must be >= 1 or None")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1 or None")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.time_limit is not None and self.time_limit < 0:
            raise ValueError("time_limit must be non-negative")
        if self.growth_exempt_literals < -1:
            raise ValueError("growth_exempt_literals must be >= -1")
        if self.max_visited is not None and self.max_visited < 1:
            raise ValueError("max_visited must be >= 1 or None")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1 or None")
        if self.max_queue_size is not None and self.max_queue_size < 1:
            raise ValueError("max_queue_size must be >= 1 or None")

    def with_(self, **changes) -> "SynthesisOptions":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def basic(self) -> "SynthesisOptions":
        """Return a copy with all Sec. IV-E heuristics disabled."""
        return self.with_(greedy_k=None, restart_steps=None)


#: The basic algorithm of Sec. IV-A/IV-D (complete, memory-hungry).
BASIC_OPTIONS = SynthesisOptions()

#: The paper's "greedy option for substitution pruning" used throughout
#: Sec. V: top-1 substitution per variable plus the restart heuristic.
GREEDY_OPTIONS = SynthesisOptions(greedy_k=1, restart_steps=10_000)
