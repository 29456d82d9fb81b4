"""Golden search fixture: the RMRLS search reproduces recorded runs.

``tests/data/search_golden.json`` holds, for a few fixed searches, the
gate sequence, every non-timing :class:`SearchStats` field, the hot-op
counters and a digest of the Fig. 5 trace event list.  Any change to
candidate order, filter order, node-id assignment or observer dispatch
in the search hot path shows up here as a mismatch, whatever the
change's intent.

Regenerate (only when a behaviour change is intended)::

    PYTHONPATH=src python tests/test_search_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

import pytest

from repro.benchlib.specs import benchmark
from repro.experiments.common import (
    TABLE1_OPTIONS,
    TABLE2_OPTIONS,
    TABLE4_OPTIONS,
)
from repro.functions.permutation import Permutation
from repro.synth.options import SynthesisOptions
from repro.synth.rmrls import synthesize

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "search_golden.json"
)

#: Fields of SearchStats that depend on the wall clock.
TIMING_FIELDS = ("elapsed_seconds",)

#: Seeds of the three random 4-variable specs.
SPEC_SEEDS = (1, 2, 3)


def _seeded_spec(seed: int) -> Permutation:
    images = list(range(16))
    random.Random(seed).shuffle(images)
    return Permutation(images)


def golden_cases() -> dict:
    """name -> (specification, options) of every recorded search."""
    cases = {
        # The options of `rmrls profile --benchmark hwb4 --greedy-k 3
        # --max-steps 20000`.
        "hwb4": (
            benchmark("hwb4").pprm(),
            SynthesisOptions(greedy_k=3, max_steps=20_000, dedupe_states=True),
        ),
    }
    for seed in SPEC_SEEDS:
        cases[f"random4_seed{seed}"] = (
            _seeded_spec(seed), TABLE2_OPTIONS.with_(max_steps=2_000)
        )
    cases.update({
        # One search per engine band and per option branch the hot path
        # takes.  A 3-variable corpus class under the corpus options
        # (no gate cap, no greedy-k; the finishing path runs only once a
        # solution bounds the depth).
        "class3_table1": (
            Permutation([0, 2, 5, 6, 7, 1, 4, 3]), TABLE1_OPTIONS
        ),
        # The basic configuration of Sec. IV-A: kind-1 substitutions
        # only, no growth exemption.
        "random4_seed1_basic": (
            _seeded_spec(1),
            SynthesisOptions(
                extended_substitutions=False,
                complement_substitutions=False,
                growth_exempt_literals=0,
                max_steps=1_000,
            ),
        ),
        # 6 and 8 variables on lanes (64- and 256-bit lanes), 10 on
        # packed, 20 on reference.
        "mod5adder_lanes": (
            benchmark("mod5adder").pprm(), TABLE4_OPTIONS.with_(max_steps=500)
        ),
        "mod15adder_lanes": (
            benchmark("mod15adder").pprm(),
            TABLE4_OPTIONS.with_(max_steps=300),
        ),
        "mod32adder_packed": (
            benchmark("mod32adder").pprm(),
            TABLE4_OPTIONS.with_(max_steps=300),
        ),
        "graycode20_reference": (
            benchmark("graycode20").pprm(),
            TABLE4_OPTIONS.with_(max_steps=200),
        ),
    })
    return cases


def _trace_digest(events) -> str:
    digest = hashlib.sha256()
    for event in events:
        digest.update(repr((
            event.kind, event.node_id, event.parent_id, event.depth,
            event.substitution, event.terms, event.elim, event.priority,
        )).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def record(specification, options: SynthesisOptions) -> dict:
    """Run one search with tracing and return its golden record."""
    result = synthesize(specification, options.with_(record_trace=True))
    stats = result.stats.as_dict()
    for name in TIMING_FIELDS:
        stats.pop(name)
    events = result.trace.events
    kinds: dict = {}
    for event in events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    gates = (
        None if result.circuit is None
        else [[gate.controls, gate.target] for gate in result.circuit.gates]
    )
    return {
        "gates": gates,
        "stats": stats,
        "trace_events": len(events),
        "trace_kinds": dict(sorted(kinds.items())),
        "trace_sha256": _trace_digest(events),
    }


def _load_golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_search_reproduces_golden_record(name):
    specification, options = golden_cases()[name]
    assert record(specification, options) == _load_golden()[name]


#: Growth rejections plus depth and lower-bound prunes per case, as
#: counted when every candidate child was substituted.  Finishing
#: expansions (docs/architecture.md, "Bound the parent") substitute
#: fewer children and may book a rejection under the other reason, but
#: no candidate may drop out of the accounting.
REJECTED_CHILDREN = {
    "hwb4": 165_310,
    "random4_seed1": 22_669,
    "random4_seed2": 10_777,
    "random4_seed3": 15_081,
    "class3_table1": 7_426,
    "random4_seed1_basic": 4_604,
    "mod5adder_lanes": 3_828,
    "mod15adder_lanes": 6_212,
    "mod32adder_packed": 762,
    "graycode20_reference": 3_358,
}


@pytest.mark.parametrize("name", sorted(REJECTED_CHILDREN))
def test_every_rejected_child_is_counted(name):
    stats = _load_golden()[name]["stats"]
    assert (
        stats["children_rejected_growth"] + stats["nodes_pruned_depth"]
        == REJECTED_CHILDREN[name]
    )


def test_golden_file_covers_every_case():
    assert sorted(_load_golden()) == sorted(golden_cases())


if __name__ == "__main__":
    records = {
        name: record(specification, options)
        for name, (specification, options) in golden_cases().items()
    }
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
        handle.write("\n")
    sys.stdout.write(f"wrote {GOLDEN_PATH}\n")
