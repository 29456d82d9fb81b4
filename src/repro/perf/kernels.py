"""The engine kernels behind the tier-1 engine speed gates.

Each kernel is one of the two engine calls the search makes per
expansion (candidate enumeration and child-state evaluation), timed
over a fixed, deterministic input on a search-state engine (reference
unless :func:`run_kernel` names another).  A given (kernel, quick-flag)
pair performs an identical operation sequence on every machine, so two
timings differ only by hardware and code; ``TestPackedEngineGate`` and
``TestLaneEngineGate`` compare engines this way.  End-to-end and
per-layer numbers come from ``perfbench/``, not from here.
"""

from __future__ import annotations

import random

from repro.perf.timing import TimingResult, time_callable
from repro.pprm.engine import ENGINES

__all__ = ["KERNELS", "kernel_names", "run_kernel"]

#: Seed for every stochastic fixture below (fixed: kernel inputs are
#: part of the measurement contract).
_SEED = 0xBE7C4


#: Width of every fixture system.
_NUM_VARS = 5


def _fixture_system():
    """A mid-search-looking PPRM system: a seeded random permutation's
    expansion, dense enough to exercise the term-rewrite loops."""
    from repro.functions.permutation import Permutation

    rng = random.Random(_SEED + _NUM_VARS)
    images = list(range(1 << _NUM_VARS))
    rng.shuffle(images)
    return Permutation(images).to_pprm()


def _fixture_candidates(system, limit: int | None = None):
    from repro.synth.options import SynthesisOptions
    from repro.synth.substitutions import enumerate_substitutions

    candidates = enumerate_substitutions(system, SynthesisOptions())
    return candidates if limit is None else candidates[:limit]


def _fixture_child_systems(count: int):
    """Distinct systems one or two substitutions away from the fixture
    root (a mid-search state population)."""
    system = _fixture_system()
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


def _kernel_enumerate(quick: bool, engine):
    """What the search runs per expansion: the bound candidate lister
    over a raw state (the full path, no finishing bound)."""
    from repro.synth.options import SynthesisOptions
    from repro.synth.substitutions import candidate_lister

    population = _fixture_child_systems(8 if quick else 32)
    states = [engine.root_state(system) for system in population]
    list_candidates = candidate_lister(
        engine, SynthesisOptions(), population[0].num_vars
    )
    rounds = 8 if quick else 16

    def body():
        for _ in range(rounds):
            for state in states:
                list_candidates(state, False)

    return body, rounds * len(states)


def _kernel_child_state(quick: bool, engine):
    """What the search runs per expansion: every candidate's child
    state and term count, in one engine call."""
    from repro.synth.options import SynthesisOptions
    from repro.synth.substitutions import candidate_lister

    system = _fixture_system()
    state = engine.root_state(system)
    list_candidates = candidate_lister(
        engine, SynthesisOptions(), system.num_vars
    )
    candidates, _ = list_candidates(state, False)
    children = engine.children
    rounds = 4 if quick else 16

    def body():
        for _ in range(rounds):
            children(state, candidates)

    return body, rounds


#: name -> factory(quick, engine) -> (callable, ops_per_call)
KERNELS = {
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

    ``engine`` (a :class:`~repro.pprm.engine.PPRMEngine`) is the
    search-state engine the kernel runs on; ``None`` means
    ``reference``.
    """
    factory = KERNELS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown kernel {name!r}; known: {', '.join(KERNELS)}"
        )
    body, ops = factory(quick, engine or ENGINES["reference"])
    if repeats is None:
        repeats = 7 if quick else 9
    if warmup is None:
        warmup = 2
    return time_callable(name, body, ops=ops, repeats=repeats, warmup=warmup)
