"""Strategy variants and the heterogeneous portfolio deck.

The paper fixes the priority weights at ``(0.3, 0.6, 0.1)`` "after
careful experimentation" and treats greedy-k, restarts, and search
direction as one-at-a-time ablations.  But no single configuration
dominates across spec families (Soeken et al. make the same
observation for SAT-based synthesis), so the portfolio of
:mod:`repro.parallel.portfolio` can race *different* strategies
instead of identical searches over seed slices:

* a :class:`StrategyVariant` is a frozen, named set of deltas over the
  base :class:`~repro.synth.options.SynthesisOptions` — priority
  weights, ``greedy_k``, ``restart_steps`` — plus a
  search *direction* (``forward`` or ``inverse``, the latter via
  :func:`repro.synth.bidirectional.synthesize_inverse`);
* the built-in catalog (:data:`BUILTIN_VARIANTS`, named decks in
  :data:`DECKS`) is deterministic: same names, same deltas, same
  order, every run;
* :func:`build_deck` maps ``jobs`` worker slots onto (variant,
  seed-slice) pairs — forward-direction slots partition the forward
  seed pool among themselves, inverse-direction slots the inverse
  pool — with the slot counts per variant computed by
  :func:`allocate_slots`.

Everything here is pure data and arithmetic: no randomness, no clock,
no I/O — a deck built from the same inputs is identical bytes, which
is what keeps heterogeneous portfolio runs replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "BUILTIN_VARIANTS",
    "DECKS",
    "DIRECTIONS",
    "TUNABLE_FIELDS",
    "DeckSlot",
    "StrategyDeck",
    "StrategyVariant",
    "allocate_slots",
    "build_deck",
    "resolve_strategies",
    "variant",
]

#: Search directions a variant may declare.  ``inverse`` synthesizes
#: the spec's inverse permutation and reverses the cascade (Toffoli
#: gates are involutions).
DIRECTIONS = ("forward", "inverse")

#: Option fields a variant may override.  Restricting the surface keeps
#: variant fingerprints small and prevents a deck from smuggling in
#: live objects or budget changes that belong to the caller.
TUNABLE_FIELDS = (
    "alpha", "beta", "gamma", "greedy_k", "restart_steps",
)


@dataclass(frozen=True)
class StrategyVariant:
    """One named strategy: option deltas plus a search direction.

    ``deltas`` is a sorted tuple of ``(field, value)`` pairs over
    :data:`TUNABLE_FIELDS`; an empty tuple means "the caller's options
    as-is" (the ``paper`` baseline).  Use :func:`variant` for the
    keyword-argument constructor.
    """

    name: str
    direction: str = "forward"
    deltas: tuple = ()

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ValueError("variant name must be a non-empty string")
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"unknown direction {self.direction!r}; "
                f"choose from {', '.join(DIRECTIONS)}"
            )
        pairs = tuple(sorted((str(key), value) for key, value in self.deltas))
        for key, _value in pairs:
            if key not in TUNABLE_FIELDS:
                raise ValueError(
                    f"variant {self.name!r} overrides {key!r}; tunable "
                    f"fields are {', '.join(TUNABLE_FIELDS)}"
                )
        object.__setattr__(self, "deltas", pairs)

    def apply(self, options):
        """Return ``options`` with this variant's deltas applied."""
        if not self.deltas:
            return options
        return options.with_(**dict(self.deltas))

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "direction": self.direction,
            "deltas": dict(self.deltas),
        }


def variant(name: str, direction: str = "forward", **deltas) -> StrategyVariant:
    """Keyword-argument constructor for :class:`StrategyVariant`."""
    return StrategyVariant(
        name=name, direction=direction, deltas=tuple(deltas.items())
    )


#: The deterministic built-in catalog, in deck order.  Weights vary the
#: priority function (4), ``greedy``/``wide`` the Sec. IV-E pruning,
#: ``inverse*`` the cascade direction.
BUILTIN_VARIANTS = (
    variant("paper"),
    variant("greedy", greedy_k=1, restart_steps=10_000),
    variant("wide", greedy_k=4, restart_steps=25_000),
    variant("deepen", alpha=0.5, beta=0.4, gamma=0.1),
    variant("eliminate", alpha=0.1, beta=0.8, gamma=0.1),
    variant("inverse", direction="inverse"),
    variant(
        "inverse-greedy", direction="inverse",
        greedy_k=1, restart_steps=10_000,
    ),
)

_CATALOG = {entry.name: entry for entry in BUILTIN_VARIANTS}

#: Named decks: ``default`` races four structurally different
#: strategies (baseline, greedy pruning, inverse direction, elim-heavy
#: weights); ``full`` races the whole catalog.
DECKS = {
    "default": ("paper", "greedy", "inverse", "eliminate"),
    "full": tuple(entry.name for entry in BUILTIN_VARIANTS),
}


def resolve_strategies(spec) -> tuple[StrategyVariant, ...]:
    """Normalize a strategies request to a tuple of variants.

    ``spec`` may be ``None``/empty (→ no deck: the homogeneous
    portfolio), a deck name from :data:`DECKS`, a comma-separated
    string of catalog names, an iterable of names and/or
    :class:`StrategyVariant` instances, or a single variant.  Unknown
    names raise :class:`ValueError` listing what exists.
    """
    if spec is None:
        return ()
    if isinstance(spec, StrategyVariant):
        return (spec,)
    if isinstance(spec, str):
        text = spec.strip()
        if not text:
            return ()
        if text in DECKS:
            spec = DECKS[text]
        else:
            spec = [name.strip() for name in text.split(",") if name.strip()]
    resolved = []
    for entry in spec:
        if isinstance(entry, StrategyVariant):
            resolved.append(entry)
            continue
        name = str(entry).strip()
        if name in DECKS and name not in _CATALOG:
            resolved.extend(_CATALOG[deck_name] for deck_name in DECKS[name])
            continue
        if name not in _CATALOG:
            known = ", ".join(sorted(_CATALOG))
            decks = ", ".join(sorted(DECKS))
            raise ValueError(
                f"unknown strategy {name!r}; variants: {known}; "
                f"decks: {decks}"
            )
        resolved.append(_CATALOG[name])
    seen = set()
    for entry in resolved:
        if entry.name in seen:
            raise ValueError(f"duplicate strategy {entry.name!r} in deck")
        seen.add(entry.name)
    return tuple(resolved)


def allocate_slots(num_variants: int, jobs: int) -> list[int]:
    """Largest-remainder slot allocation: variant index per slot.

    Every variant gets an equal quota; the result is grouped by
    variant in catalog order (all of variant 0's slots first), and
    leftover slots go to the earliest variants.
    """
    if num_variants < 1:
        raise ValueError("need at least one variant")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    base, extra = divmod(jobs, num_variants)
    return [
        i
        for i in range(num_variants)
        for _ in range(base + (1 if i < extra else 0))
    ]


@dataclass(frozen=True)
class DeckSlot:
    """One worker slot: which variant runs, over which seed ranks.

    ``seed_ranks`` is ``None`` for unrestricted slots (inverse variants
    when no inverse seed pool was enumerated); otherwise a non-empty
    tuple of 0-based ranks into the slot direction's first level.
    """

    slot: int
    variant: StrategyVariant
    seed_ranks: tuple | None = None

    def as_dict(self) -> dict:
        return {
            "slot": self.slot,
            "variant": self.variant.name,
            "direction": self.variant.direction,
            "seed_ranks": (
                None if self.seed_ranks is None else list(self.seed_ranks)
            ),
        }


@dataclass(frozen=True)
class StrategyDeck:
    """The slot → (variant, seed-slice) mapping of one portfolio run."""

    slots: tuple = ()

    @property
    def variant_names(self) -> tuple:
        """Distinct variant names in deck order."""
        names = []
        for slot in self.slots:
            if slot.variant.name not in names:
                names.append(slot.variant.name)
        return tuple(names)

    def counts(self) -> dict:
        """Slots per variant name, in deck order."""
        counts: dict = {}
        for slot in self.slots:
            counts[slot.variant.name] = counts.get(slot.variant.name, 0) + 1
        return counts

    def as_dict(self) -> dict:
        return {
            "slots": [slot.as_dict() for slot in self.slots],
            "counts": self.counts(),
        }


def build_deck(
    variants,
    jobs: int,
    forward_seed_count: int,
    inverse_seed_count: int = 0,
) -> StrategyDeck:
    """Map ``jobs`` worker slots onto (variant, seed-slice) pairs.

    Slots are allocated per variant by :func:`allocate_slots`, then
    each direction's slots partition that direction's seed pool
    round-robin among themselves (:func:`partition_seeds`).  Slots
    whose partition came up empty (more slots than seeds) are dropped
    and the remainder re-indexed, so every surviving slot has real
    work; inverse slots run unrestricted (``seed_ranks=None``) when
    ``inverse_seed_count`` is 0.
    """
    from repro.parallel.portfolio import partition_seeds

    variants = tuple(variants)
    if not variants:
        raise ValueError("build_deck needs at least one variant")
    if forward_seed_count < 1:
        raise ValueError("forward_seed_count must be >= 1")
    assignment = [
        variants[index] for index in allocate_slots(len(variants), jobs)
    ]

    ranks_by_position: dict = {}
    pools = {"forward": forward_seed_count, "inverse": inverse_seed_count}
    for direction, pool in pools.items():
        positions = [
            position for position, entry in enumerate(assignment)
            if entry.direction == direction
        ]
        if not positions:
            continue
        if pool == 0:
            ranks_by_position.update(dict.fromkeys(positions))
            continue
        slices = partition_seeds(pool, len(positions))
        ranks_by_position.update(zip(positions, slices))

    slots = []
    for position, entry in enumerate(assignment):
        ranks = ranks_by_position[position]
        if ranks == ():  # more slots than seeds in this direction
            continue
        slots.append(
            DeckSlot(slot=len(slots), variant=entry, seed_ranks=ranks)
        )
    return StrategyDeck(slots=tuple(slots))
