"""Task execution — in-process and as the subprocess entry point.

:func:`execute_payload` runs one declarative task (see
:mod:`repro.harness.tasks`) and returns a JSON-safe result dict with at
least a ``status`` key from the failure taxonomy.  The same function
backs both the inline executor and the isolated worker, whose
:func:`worker_loop` runs each attempt through :func:`worker_entry`
(exception → taxonomy mapping, result hand-off over a pipe).

Imports of the experiment stack are deliberately lazy: the experiment
drivers import the harness, so the harness must not import them at
module load.
"""

from __future__ import annotations

import os
import time
import traceback

from repro.harness.tasks import options_from_payload
from repro.harness.taxonomy import (
    STATUS_CRASH,
    STATUS_INTERRUPTED,
    STATUS_OK,
    STATUS_OOM,
    STATUS_TIMEOUT,
    STATUS_UNSOLVED,
    STATUS_UNSOUND,
    status_from_finish_reason,
)

__all__ = [
    "execute_payload",
    "worker_entry",
    "worker_loop",
    "apply_memory_limit",
]


def apply_memory_limit(mem_limit_mb: int) -> bool:
    """Cap this process's address space at ``mem_limit_mb`` megabytes.

    ``RLIMIT_AS`` is the enforceable stand-in for an RSS budget on
    POSIX (Linux does not enforce ``RLIMIT_RSS``); an allocation past
    the cap raises ``MemoryError``, which the worker reports as
    ``oom``.  Returns ``False`` where the limit cannot be applied
    (no ``resource`` module, or the cap exceeds the hard limit).
    """
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return False
    limit = int(mem_limit_mb) * 1024 * 1024
    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ValueError, OSError):
        return False
    return True


def _synthesis_result_dict(result, verified: bool | None) -> dict:
    """Map a :class:`SynthesisResult` (+ verification verdict) onto the
    worker result schema."""
    status = status_from_finish_reason(
        result.stats.finish_reason, result.solved
    )
    out = {
        "status": status,
        "stats": result.stats.as_dict(),
        "extra": {"engine": result.engine},
    }
    if result.solved:
        if verified is False:
            out["status"] = STATUS_UNSOUND
        from repro.io.real_format import dump_real

        out["gate_count"] = result.circuit.gate_count()
        out["quantum_cost"] = result.circuit.quantum_cost()
        out["circuit"] = dump_real(result.circuit)
    return out


def _run_permutation(payload: dict, options: dict, attempt: int) -> dict:
    from repro.functions.permutation import Permutation
    from repro.synth.rmrls import synthesize

    permutation = Permutation(payload["images"])
    result = synthesize(permutation, options_from_payload(options))
    verified = (
        result.circuit.implements(permutation) if result.solved else None
    )
    out = _synthesis_result_dict(result, verified)
    if (
        out["status"] == STATUS_OK
        and payload.get("apply_templates")
    ):
        from repro.postprocess.templates import simplify

        out.setdefault("extra", {})["template_gate_count"] = simplify(
            result.circuit
        ).gate_count()
    return out


def _run_random_circuit(payload: dict, options: dict, attempt: int) -> dict:
    from repro.io.real_format import load_real
    from repro.synth.rmrls import synthesize

    generator = load_real(payload["real"])
    system = generator.to_pprm()
    result = synthesize(system, options_from_payload(options))
    verified = None
    if result.solved:
        from repro.experiments.table567 import _same_function

        verified = _same_function(result.circuit, generator)
    return _synthesis_result_dict(result, verified)


def _run_benchmark(payload: dict, options: dict, attempt: int) -> dict:
    from repro.benchlib.specs import benchmark
    from repro.experiments.table4 import run_benchmark

    spec = benchmark(payload["name"])
    outcome = run_benchmark(
        spec,
        options_from_payload(options),
        use_portfolio=payload.get("use_portfolio", True),
        apply_templates=payload.get("apply_templates", True),
        strict=False,
    )
    # The searches' summed counters; their times add up too, where a
    # merge keeps the longest.
    stats = dict(
        outcome.stats.as_dict(), elapsed_seconds=outcome.elapsed_seconds
    )
    extra = {"unsound_count": outcome.unsound_count}
    if outcome.unsound_count:
        # Any unverified circuit marks the whole benchmark, even when
        # another search found a verified one.
        return {"status": STATUS_UNSOUND, "stats": stats, "extra": extra}
    if not outcome.solved:
        return {"status": STATUS_UNSOLVED, "stats": stats, "extra": extra}
    from repro.io.real_format import dump_real

    extra["raw_gate_count"] = outcome.raw_gate_count
    return {
        "status": STATUS_OK,
        "gate_count": outcome.gate_count,
        "quantum_cost": outcome.quantum_cost,
        "circuit": dump_real(outcome.circuit),
        "stats": stats,
        "extra": extra,
    }


def _solution_seed_rank(circuit, seeds, reversed_cascade=False) -> int:
    """Which first-level seed a finished circuit descends from.

    The gate the search placed first *is* the depth-1 substitution, so
    matching its ``(target, controls)`` against the ranked seed list
    recovers the seed rank.  That gate is the one closest to the
    inputs, or the last gate when ``reversed_cascade`` (an inverse
    search's circuit, read backwards).  Returns -1 when there is no
    match (a depth-1 solution found during the root expansion —
    identity children never enter the seed pool — or an empty
    circuit).
    """
    if not circuit.gates:
        return -1
    first = circuit.gates[-1 if reversed_cascade else 0]
    for rank, target, factor in seeds:
        if first.target == target and first.controls == factor:
            return int(rank)
    return -1


def _run_portfolio(
    payload: dict, options: dict, attempt: int, runtime: dict | None
) -> dict:
    """One portfolio slice: the serial search restricted to this
    worker's seed ranks (see :mod:`repro.parallel`), reporting the
    winning seed's rank alongside the usual synthesis result.

    A heterogeneous-deck slot carries ``direction`` in its payload:
    ``inverse`` runs :func:`repro.synth.bidirectional.synthesize_inverse`
    and ships the reversed cascade, verified against the forward spec
    (the shared bound needs no translation, since a cascade and its
    reverse have the same gate count).
    """
    from repro.functions.permutation import Permutation
    from repro.parallel.portfolio import spec_from_payload
    from repro.synth.rmrls import synthesize

    synth_options = options_from_payload(options)
    direction = payload.get("direction") or "forward"
    system = spec_from_payload(payload)
    spec = system if isinstance(system, Permutation) else None
    if direction != "forward" and spec is None:
        raise ValueError(
            f"{direction} portfolio slots need an invertible "
            "(permutation) specification"
        )
    bound = (runtime or {}).get("bound")
    recorder = (runtime or {}).get("flight_recorder")
    if bound is not None:
        if recorder is not None:
            # The poll indices and adopted values the search actually
            # sees are what the decision log must carry for a replay to
            # reproduce the pruning.
            from repro.obs.flight import RecordedBound

            bound = RecordedBound(bound, recorder)
        synth_options = synth_options.with_(bound_channel=bound)
    seeds = payload.get("seeds") or []
    if direction == "inverse":
        from repro.synth.bidirectional import synthesize_inverse

        result = synthesize_inverse(spec, synth_options)
    else:
        result = synthesize(system, synth_options)
    verified = None
    if result.solved:
        if spec is not None:
            verified = result.circuit.implements(spec)
        else:
            # A PPRM spec carries its own ground truth: re-deriving
            # the PPRM of the cascade must reproduce the input system.
            verified = str(result.circuit.to_pprm()) == str(system)
    out = _synthesis_result_dict(result, verified)
    extra = out.setdefault("extra", {})
    extra["finish_reason"] = result.stats.finish_reason
    if result.solved:
        extra["depth"] = result.gate_count
        # An inverse slot's seeds are ranks into the inverse first
        # level, whose depth-1 gate ends the reversed cascade.
        extra["solution_rank"] = _solution_seed_rank(
            result.circuit, seeds, reversed_cascade=direction == "inverse"
        )
    extra["slice"] = payload.get("slice")
    extra["direction"] = direction
    if payload.get("variant"):
        extra["variant"] = payload["variant"]
    return out


def _run_probe(payload: dict, options: dict, attempt: int) -> dict:
    result = _probe_behavior(payload, options, attempt)
    if payload.get("pid"):
        result.setdefault("extra", {})["pid"] = os.getpid()
    return result


def _probe_behavior(payload: dict, options: dict, attempt: int) -> dict:
    behavior = payload["behavior"]
    if behavior == "ok":
        if payload.get("sleep"):
            time.sleep(payload["sleep"])
        return {
            "status": STATUS_OK,
            "gate_count": payload.get("gate_count", 1),
            "circuit": "#" * payload["pad"] if payload.get("pad") else None,
            "stats": {"elapsed_seconds": payload.get("elapsed", 0.0)},
        }
    if behavior in (STATUS_UNSOLVED, STATUS_TIMEOUT, STATUS_UNSOUND):
        return {"status": behavior, "stats": {}}
    if behavior == "raise":
        raise RuntimeError(payload.get("message", "injected worker crash"))
    if behavior == "interrupt":
        raise KeyboardInterrupt
    if behavior == "exit":
        os._exit(payload.get("code", 13))
    if behavior == "hang":
        time.sleep(payload.get("seconds", 3600))
        return {"status": STATUS_OK, "gate_count": payload.get("gate_count", 1)}
    if behavior == "oom":
        # Allocate a bounded amount; under a smaller RLIMIT_AS this
        # raises MemoryError (classified oom by worker_entry), without
        # a limit it completes and reports ok.
        mbytes = int(payload.get("mbytes", 256))
        blocks = [bytearray(1024 * 1024) for _ in range(mbytes)]
        return {"status": STATUS_OK, "gate_count": len(blocks)}
    if behavior == "flaky":
        if attempt < int(payload.get("ok_after", 2)):
            raise RuntimeError(f"injected flake on attempt {attempt}")
        return {"status": STATUS_OK, "gate_count": payload.get("gate_count", 1)}
    if behavior == "need_steps":
        # Succeeds only once the retry ladder has escalated max_steps
        # past the threshold.
        budget = options.get("max_steps") or 0
        if budget >= int(payload["min_steps"]):
            return {"status": STATUS_OK, "gate_count": 1}
        return {"status": STATUS_UNSOLVED, "stats": {}}
    raise ValueError(f"unknown probe behavior: {behavior!r}")


_RUNNERS = {
    "permutation": _run_permutation,
    "random_circuit": _run_random_circuit,
    "benchmark": _run_benchmark,
    "probe": _run_probe,
}

#: Runners that additionally receive the task's live ``runtime`` dict
#: (cross-process objects like the portfolio's shared bound).
_RUNTIME_RUNNERS = {
    "portfolio": _run_portfolio,
}


def execute_payload(
    kind: str, payload: dict, options: dict, attempt: int = 1,
    runtime: dict | None = None,
) -> dict:
    """Run one task in the current process.

    Returns the raw result dict (``status`` plus kind-specific keys).
    Exceptions propagate — classification into ``crash``/``oom``/... is
    the caller's job (:func:`worker_entry` in a subprocess, the inline
    executor in-process).
    """
    runtime_runner = _RUNTIME_RUNNERS.get(kind)
    if runtime_runner is not None:
        return runtime_runner(payload, options, attempt, runtime)
    runner = _RUNNERS.get(kind)
    if runner is None:
        raise ValueError(f"unknown task kind: {kind!r}")
    return runner(payload, options, attempt)


def worker_loop(conn, mem_limit_mb: int | None,
                runtime: dict | None = None) -> None:
    """Subprocess main loop: run each attempt read from ``conn`` through
    :func:`worker_entry` and send its result back.

    ``RLIMIT_AS`` is applied once, here; ``runtime`` (the portfolio's
    shared bound) is inherited through the fork, never sent.  EOF, a
    broken pipe or Ctrl-C ends the loop quietly.
    """
    if mem_limit_mb is not None:
        apply_memory_limit(mem_limit_mb)
    try:
        while True:
            conn.send(worker_entry(*conn.recv(), runtime=runtime))
    except (EOFError, OSError, KeyboardInterrupt):
        return


def worker_entry(
    kind: str,
    payload: dict,
    options: dict,
    attempt: int,
    flight: dict | None = None,
    runtime: dict | None = None,
) -> dict:
    """Run one attempt in a worker and return its result dict.

    Every exception is converted to a taxonomy status here so that the
    parent only has to deal with three cases: a result arrived, the
    process died silently, or the parent killed it.

    ``flight`` is the pool's flight-recorder wire dict
    (``{"dir", "task_id"}``): the worker arms an mmap-backed ring at a
    path the pool can re-derive and injects a
    :class:`~repro.obs.flight.FlightObserver` into the search options.
    A clean attempt deletes its ring; any other end only closes it, and
    the pool's ``_reap_flight`` recovers it into the crash dump — the
    same path a silent death (SIGKILL, ``os._exit``) takes.  Recorder
    failures never fail the task.
    """
    recorder = None
    if flight is not None:
        try:
            from repro.obs.flight import (
                FlightObserver,
                arm_worker_recorder,
                flight_every,
            )

            every = flight_every()
            recorder = arm_worker_recorder(
                flight, kind, payload, options, attempt, every=every,
            )
            observer = FlightObserver(recorder, every=every)
            options = dict(options)
            options["observers"] = tuple(
                options.get("observers") or ()
            ) + (observer,)
            runtime = dict(runtime or {})
            runtime["flight_recorder"] = recorder
            runtime["flight_observer"] = observer
            recorder.record("task_start", task_kind=kind, attempt=attempt)
        except Exception:  # pragma: no cover - recording must not kill work
            recorder = None
    try:
        result = execute_payload(kind, payload, options, attempt, runtime)
    except MemoryError:
        result = {
            "status": STATUS_OOM,
            "error": "MemoryError: worker exceeded its memory budget",
        }
    except KeyboardInterrupt:
        result = {"status": STATUS_INTERRUPTED, "error": "KeyboardInterrupt"}
    except BaseException:
        result = {
            "status": STATUS_CRASH,
            "error": traceback.format_exc(limit=20),
        }
    if recorder is not None:
        try:
            from repro.obs.flight import DUMP_STATUSES, discard_ring

            recorder.record("task_result", status=result.get("status"))
            recorder.close()
            if result.get("status") not in DUMP_STATUSES:
                discard_ring(recorder.path)
        except Exception:  # pragma: no cover - recording must not kill work
            pass
    return result
