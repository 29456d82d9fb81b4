"""Task definitions with deterministic identities.

A :class:`Task` is a *declarative* description of one synthesis job —
kind, JSON-safe payload, and serialized option overrides — so the same
job can run in-process, in an isolated worker, or be recognized in a
resume ledger.  The task id is a content hash of everything that
affects the result (kind, payload, options, sweep namespace), so
regenerating a sweep from the same seed reproduces the same ids and a
resumed sweep skips exactly the finished work.

``meta`` carries consumer-side labels (sample index, variable count)
that do *not* enter the id.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field

from repro.applog import canonical_json
from repro.synth.options import SynthesisOptions

__all__ = [
    "Task",
    "task_fingerprint",
    "options_payload",
    "options_from_payload",
    "permutation_task",
    "portfolio_task",
    "pprm_task",
    "random_circuit_task",
    "benchmark_task",
    "probe_task",
]

#: Option fields that hold live objects (they cannot cross a process
#: boundary) or run-local plumbing like the trace shard directory —
#: none of them affect the synthesized result, so none may enter the
#: task fingerprint.
_UNSERIALIZABLE_OPTIONS = (
    "observers", "phase_timer", "bound_channel", "trace_dir",
    "flight_dir",
)


def options_payload(options: SynthesisOptions | None) -> dict:
    """Serialize options to the JSON-safe configuration fields."""
    if options is None:
        return {}
    data = {}
    for f in dataclasses.fields(options):
        if f.name in _UNSERIALIZABLE_OPTIONS:
            continue
        data[f.name] = getattr(options, f.name)
    return data


def options_from_payload(payload: dict) -> SynthesisOptions:
    """Rebuild :class:`SynthesisOptions` from a task's option dict."""
    known = {f.name for f in dataclasses.fields(SynthesisOptions)}
    return SynthesisOptions(
        **{key: value for key, value in payload.items() if key in known}
    )


def task_fingerprint(
    kind: str, payload: dict, options: dict, namespace: str = ""
) -> str:
    """Deterministic 16-hex-digit id for a task definition."""
    canonical = canonical_json(
        {
            "namespace": namespace,
            "kind": kind,
            "payload": payload,
            "options": options,
        },
        default=str,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Task:
    """One unit of sweep work.

    ``kind`` selects the worker-side runner (see
    :mod:`repro.harness.worker`); ``payload`` and ``options`` must be
    JSON-serializable so the task can cross a process boundary and be
    fingerprinted.
    """

    kind: str
    payload: dict
    options: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    namespace: str = ""
    task_id: str = ""
    # Live per-run objects handed to the worker process (e.g. the
    # portfolio's shared incumbent bound).  Excluded from the
    # fingerprint and from equality: runtime plumbing never changes
    # what the task computes, only how fast it stops.
    runtime: dict | None = field(default=None, compare=False, repr=False)
    # Wire-form :class:`repro.obs.spans.TraceContext` naming the parent
    # span this task's work hangs off.  Pure observability: excluded
    # from the fingerprint and equality exactly like ``runtime``, so a
    # traced run and an untraced run of the same sweep share task ids
    # (and therefore resume ledgers).
    trace: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.task_id:
            object.__setattr__(
                self,
                "task_id",
                task_fingerprint(
                    self.kind, self.payload, self.options, self.namespace
                ),
            )

    def label(self) -> str:
        """Human-readable handle for error messages and logs."""
        return str(self.meta.get("label", self.task_id))


def permutation_task(
    images,
    options: SynthesisOptions | None = None,
    meta: dict | None = None,
    namespace: str = "",
    apply_templates: bool = False,
) -> Task:
    """A task synthesizing (and verifying) one permutation."""
    payload = {"images": list(images)}
    if apply_templates:
        payload["apply_templates"] = True
    return Task(
        kind="permutation",
        payload=payload,
        options=options_payload(options),
        meta=dict(meta or {}),
        namespace=namespace,
    )


def pprm_task(
    system_text: str,
    options: SynthesisOptions | None = None,
    meta: dict | None = None,
    namespace: str = "",
) -> Task:
    """A task synthesizing a PPRM system given in parseable text form
    (no verification — the spec is the system itself)."""
    return Task(
        kind="pprm",
        payload={"system": system_text},
        options=options_payload(options),
        meta=dict(meta or {}),
        namespace=namespace,
    )


def random_circuit_task(
    real_text: str,
    options: SynthesisOptions | None = None,
    meta: dict | None = None,
    namespace: str = "",
) -> Task:
    """A Tables V-VII task: resynthesize the function computed by a
    generator circuit given as RevLib ``.real`` text."""
    return Task(
        kind="random_circuit",
        payload={"real": real_text},
        options=options_payload(options),
        meta=dict(meta or {}),
        namespace=namespace,
    )


def benchmark_task(
    name: str,
    options: SynthesisOptions | None = None,
    use_portfolio: bool = True,
    apply_templates: bool = True,
    meta: dict | None = None,
    namespace: str = "",
) -> Task:
    """A Table IV task: run the benchmark portfolio for one named spec."""
    return Task(
        kind="benchmark",
        payload={
            "name": name,
            "use_portfolio": use_portfolio,
            "apply_templates": apply_templates,
        },
        options=options_payload(options),
        meta=dict(meta or {"label": name}),
        namespace=namespace,
    )


def portfolio_task(
    payload_spec: dict,
    seeds,
    slice_index: int,
    options: SynthesisOptions | None = None,
    runtime: dict | None = None,
    meta: dict | None = None,
    namespace: str = "portfolio",
    trace: dict | None = None,
) -> Task:
    """One portfolio slice: search restricted to a set of seed ranks.

    ``payload_spec`` is ``{"images": [...]}`` for a permutation spec or
    ``{"system": "..."}`` for a parseable PPRM system;  ``seeds`` is the
    full ranked first level as ``[rank, target, factor]`` triples (the
    worker uses it to report which seed produced its solution);  the
    assigned slice itself travels in ``options`` as
    ``portfolio_seed_ranks``.  A heterogeneous-deck slot additionally
    carries ``variant`` (the strategy name) and ``direction``
    (``forward``/``inverse``) in ``payload_spec`` —
    both affect the result, so both enter the fingerprint.  ``runtime``
    may carry the live shared bound under key ``"bound"``.
    """
    payload = dict(payload_spec)
    payload["seeds"] = [list(seed) for seed in seeds]
    payload["slice"] = slice_index
    return Task(
        kind="portfolio",
        payload=payload,
        options=options_payload(options),
        meta=dict(meta or {"label": f"portfolio:slice{slice_index}"}),
        namespace=namespace,
        runtime=runtime,
        trace=trace,
    )


def probe_task(
    behavior: str,
    meta: dict | None = None,
    namespace: str = "probe",
    options: dict | None = None,
    **params,
) -> Task:
    """A fault-injection task for tests and CI smoke runs.

    ``behavior`` is one of ``ok``, ``unsolved``, ``timeout``,
    ``unsound``, ``raise`` (unhandled exception), ``exit`` (raw
    ``os._exit``), ``hang`` (sleep ``seconds``), ``oom`` (allocate
    ``mbytes`` of memory), ``flaky`` (fail until attempt ``ok_after``),
    or ``need_steps`` (succeed once the retry ladder escalates
    ``max_steps`` past ``min_steps``).  ``pid`` reports the worker's
    pid in ``extra``; ``ok`` also takes ``pad`` (a ``circuit`` of that
    many bytes).  Parameters ride in ``params``;
    ``options`` feeds the escalation ladder like any real task's
    options.
    """
    payload = {"behavior": behavior}
    payload.update(params)
    return Task(
        kind="probe",
        payload=payload,
        options=dict(options or {}),
        meta=dict(meta or {"label": f"probe:{behavior}"}),
        namespace=namespace,
    )
