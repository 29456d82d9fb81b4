"""Portfolio-parallel RMRLS search.

Races the ranked first-level restart seeds (Sec. IV-E) across isolated
worker processes, sharing the incumbent solution depth so every racer
prunes against the fleet-wide best.  With a strategy deck
(:mod:`repro.parallel.strategy`), the slots race *different* named
option variants, including inverse-direction searches.  See
``docs/parallel.md``.
"""

from repro.parallel.bound import LocalBound, SharedBound
from repro.parallel.portfolio import (
    PortfolioSummary,
    SliceOutcome,
    partition_seeds,
    synthesize_portfolio,
)
from repro.parallel.strategy import (
    BUILTIN_VARIANTS,
    DECKS,
    DeckSlot,
    StrategyDeck,
    StrategyVariant,
    allocate_slots,
    build_deck,
    resolve_strategies,
    variant,
)

__all__ = [
    "BUILTIN_VARIANTS",
    "DECKS",
    "DeckSlot",
    "LocalBound",
    "PortfolioSummary",
    "SharedBound",
    "SliceOutcome",
    "StrategyDeck",
    "StrategyVariant",
    "allocate_slots",
    "build_deck",
    "partition_seeds",
    "resolve_strategies",
    "synthesize_portfolio",
    "variant",
]
