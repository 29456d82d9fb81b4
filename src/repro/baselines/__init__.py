"""Comparison baselines: transformation-based [7], optimal [16], and
spectral [18]."""

from repro.baselines.optimal import (
    circuit_for,
    distance,
    optimal_distances,
    optimal_distribution,
    optimal_synthesize,
)
from repro.baselines.spectral_synthesis import (
    SpectralOutcome,
    complexity_of,
    spectral_synthesize,
)
from repro.baselines.transformation import (
    basic_transformation,
    bidirectional_transformation,
    transformation_synthesize,
)

__all__ = [
    "circuit_for",
    "distance",
    "optimal_distances",
    "optimal_distribution",
    "optimal_synthesize",
    "SpectralOutcome",
    "complexity_of",
    "spectral_synthesize",
    "basic_transformation",
    "bidirectional_transformation",
    "transformation_synthesize",
]
