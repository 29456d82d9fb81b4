"""The RMRLS synthesis algorithm and its building blocks."""

from repro.synth.bidirectional import (
    BidirectionalResult,
    synthesize_bidirectional,
    synthesize_inverse,
)
from repro.synth.naive import naive_gate_count, naive_synthesize
from repro.synth.ncts import NctsResult, synthesize_ncts
from repro.synth.node import SearchNode
from repro.synth.options import BASIC_OPTIONS, GREEDY_OPTIONS, SynthesisOptions
from repro.synth.priority import MaxPriorityQueue, node_priority
from repro.synth.rmrls import (
    FirstLevel,
    FirstLevelSeed,
    SynthesisResult,
    enumerate_first_level,
    synthesize,
)
from repro.synth.stats import SearchStats, TraceEvent, TraceRecorder
from repro.synth.substitutions import Candidate, enumerate_substitutions

__all__ = [
    "BidirectionalResult",
    "synthesize_bidirectional",
    "synthesize_inverse",
    "naive_gate_count",
    "naive_synthesize",
    "NctsResult",
    "synthesize_ncts",
    "SearchNode",
    "BASIC_OPTIONS",
    "GREEDY_OPTIONS",
    "SynthesisOptions",
    "MaxPriorityQueue",
    "node_priority",
    "FirstLevel",
    "FirstLevelSeed",
    "SynthesisResult",
    "enumerate_first_level",
    "synthesize",
    "SearchStats",
    "TraceEvent",
    "TraceRecorder",
    "Candidate",
    "enumerate_substitutions",
]
