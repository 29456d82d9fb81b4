"""The kernel micro-suite behind ``rmrls bench``.

Each kernel is one of the isolated inner-loop operations the search
lives in (PPRM substitution, expansion XOR, state hashing/dedup,
priority-queue churn, and the two engine calls of one expansion:
candidate enumeration and child-state evaluation), timed over a fixed,
deterministic input.  A given (kernel, quick-flag) pair performs an
identical operation sequence on every machine, so two timings differ
only by hardware and code.  The algebra kernels time the reference
:class:`~repro.pprm.expansion.Expansion`; the state kernels run on a
search-state engine, reference unless :func:`run_kernel` names another.
End-to-end numbers come from ``perfbench/``, not from here.
"""

from __future__ import annotations

import random

from repro.perf.timing import TimingResult, time_callable
from repro.pprm.engine import ENGINES

__all__ = ["KERNELS", "kernel_names", "run_kernel"]

#: Seed for every stochastic fixture below (fixed: bench inputs are
#: part of the measurement contract).
_SEED = 0xBE7C4


def _fixture_system(num_vars: int = 5, seed: int = _SEED):
    """A mid-search-looking PPRM system: a seeded random permutation's
    expansion, dense enough to exercise the term-rewrite loops."""
    from repro.functions.permutation import Permutation

    rng = random.Random(seed + num_vars)
    images = list(range(1 << num_vars))
    rng.shuffle(images)
    return Permutation(images).to_pprm()


def _fixture_candidates(system, limit: int | None = None):
    from repro.synth.options import SynthesisOptions
    from repro.synth.substitutions import enumerate_substitutions

    candidates = enumerate_substitutions(system, SynthesisOptions())
    return candidates if limit is None else candidates[:limit]


def _fixture_child_systems(count: int):
    """Distinct systems one substitution away from the fixture root
    (the dedupe table's actual key population)."""
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


def _kernel_pprm_substitute(quick: bool, engine):
    system = _fixture_system()
    candidates = _fixture_candidates(system)
    rounds = 4 if quick else 16

    def body():
        for _ in range(rounds):
            for candidate in candidates:
                system.substitute(candidate.target, candidate.factor)

    return body, rounds * len(candidates)


def _kernel_expansion_xor(quick: bool, engine):
    system = _fixture_system(num_vars=6)
    outputs = system.outputs
    pairs = [
        (outputs[i], outputs[j])
        for i in range(len(outputs))
        for j in range(len(outputs))
        if i != j
    ]
    rounds = 32 if quick else 128

    def body():
        for _ in range(rounds):
            for left, right in pairs:
                _ = left ^ right

    return body, rounds * len(pairs)


def _kernel_dedupe_probe(quick: bool, engine):
    population = _fixture_child_systems(64 if quick else 256)
    states = [engine.root_state(system) for system in population]
    rounds = 8 if quick else 16

    def body():
        # Mirrors the search's visited table: probed and stored by the
        # engine's search state, which is the dedupe key.
        table: dict = {}
        for _ in range(rounds):
            for depth, state in enumerate(states):
                known = table.get(state)
                if known is None or depth < known:
                    table[state] = depth

    return body, rounds * len(states)


def _kernel_queue_churn(quick: bool, engine):
    from repro.synth.priority import MaxPriorityQueue

    class _Stub:
        __slots__ = ("priority",)

        def __init__(self, priority):
            self.priority = priority

    rng = random.Random(_SEED)
    nodes = [_Stub(rng.random() * 8 - 2) for _ in range(512 if quick else 2048)]

    def body():
        queue = MaxPriorityQueue()
        for node in nodes:
            queue.push(node)
        while not queue.is_empty():
            queue.pop()

    return body, 2 * len(nodes)


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
    "pprm_substitute": _kernel_pprm_substitute,
    "expansion_xor": _kernel_expansion_xor,
    "dedupe_probe": _kernel_dedupe_probe,
    "queue_churn": _kernel_queue_churn,
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
    search-state engine the state kernels (``dedupe_probe``,
    ``enumerate_substitutions``, ``child_state``) run on; ``None``
    means ``reference``.  The other kernels ignore it.
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
