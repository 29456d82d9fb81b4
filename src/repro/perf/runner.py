"""Drive the micro-benchmark suite and assemble one bench report.

:func:`run_bench` is the engine behind ``rmrls bench``: it times the
requested kernels and workloads, folds the results into the flat
``metrics`` comparison surface, and returns a validated
``rmrls-bench-report`` document (see :mod:`repro.perf.report`).
"""

from __future__ import annotations

from repro.perf.hotops import HotOpCounters
from repro.perf.kernels import (
    KERNELS,
    WORKLOADS,
    run_kernel,
    run_workload,
)
from repro.perf.report import build_bench_report, validate_bench_report

__all__ = ["run_bench", "render_bench_report"]


def _select(requested, known: dict, what: str) -> list[str]:
    """Resolve a ``--kernels``/``--workloads`` style selection.

    ``None`` means all; ``"none"`` (or an empty sequence) means none;
    otherwise a comma-separated string or iterable of names.
    """
    if requested is None:
        return list(known)
    if isinstance(requested, str):
        requested = [
            part.strip() for part in requested.split(",") if part.strip()
        ]
    names = list(requested)
    if names == ["none"]:
        return []
    for name in names:
        if name not in known:
            raise ValueError(
                f"unknown {what} {name!r}; known: {', '.join(known)}"
            )
    return names


def run_bench(
    *,
    quick: bool = False,
    kernels=None,
    workloads=None,
    repeats: int | None = None,
    warmup: int | None = None,
    workload_name: str | None = None,
    progress=None,
) -> dict:
    """Run the suite; return the validated bench-report document.

    ``quick`` shrinks every kernel and workload to its smoke-test size
    (the full ``--quick`` suite stays under ~2 minutes on commodity
    hardware).  ``kernels``/``workloads`` filter by name (``"none"``
    skips a whole granularity).  ``repeats``/``warmup`` override the
    per-kernel defaults — test hooks, mostly.  ``progress`` is an
    optional ``callable(str)`` for status lines.
    """
    kernel_list = _select(kernels, KERNELS, "kernel")
    workload_list = _select(workloads, WORKLOADS, "workload")
    say = progress if progress is not None else (lambda message: None)

    metrics: dict = {}
    kernel_sections: dict = {}
    for name in kernel_list:
        say(f"kernel {name}")
        timing = run_kernel(
            name,
            quick=quick,
            repeats=repeats,
            warmup=warmup,
        )
        kernel_sections[name] = timing.as_dict()
        metrics[f"kernel_{name}_ns_per_op"] = timing.ns_per_op

    workload_sections: dict = {}
    totals = HotOpCounters()
    for name in workload_list:
        say(f"workload {name}")
        section = run_workload(name, quick=quick)
        workload_sections[name] = section
        metrics[f"workload_{name}_seconds"] = section["seconds"]
        if "steps_per_s" in section:
            metrics[f"workload_{name}_steps_per_s"] = section["steps_per_s"]
        if "ns_per_substitution" in section:
            metrics[f"workload_{name}_ns_per_substitution"] = section[
                "ns_per_substitution"
            ]
        # Workloads may publish extra comparison metrics of their own
        # (e.g. the portfolio workload's serial/portfolio walls).
        extra = (section.get("summary") or {}).get("metrics") or {}
        for key, value in extra.items():
            if isinstance(value, (int, float)):
                metrics[f"workload_{name}_{key}"] = value
        totals.merge_dict(section["hot_ops"])

    for name, value in totals.as_dict().items():
        if value:
            metrics[f"hotop_{name}"] = value

    report = build_bench_report(
        workload=(
            workload_name
            if workload_name is not None
            else ("quick" if quick else "full")
        ),
        kernels=kernel_sections,
        workloads=workload_sections,
        hot_ops=totals.as_dict(),
        metrics=metrics,
        config={
            "quick": quick,
            "kernels": kernel_list,
            "workloads": workload_list,
            "repeats": repeats,
            "warmup": warmup,
        },
    )
    return validate_bench_report(report)


def render_bench_report(report: dict) -> str:
    """Human-readable summary of one bench report."""
    git = report.get("git") or {}
    sha = git.get("sha") or "unknown"
    dirty = " (dirty)" if git.get("dirty") else ""
    lines = [
        f"rmrls bench — workload {report['workload']!r}, "
        f"commit {sha[:12]}{dirty}",
    ]
    if report["kernels"]:
        lines.append(
            f"  {'kernel':<26} {'ns/op':>10} {'ops/s':>14} "
            f"{'reps':>5} {'rej':>4}"
        )
        for name, timing in report["kernels"].items():
            lines.append(
                f"  {name:<26} {timing['ns_per_op']:>10,.1f} "
                f"{timing['ops_per_s']:>14,.0f} "
                f"{timing['repeats']:>5} {timing['rejected']:>4}"
            )
    if report["workloads"]:
        lines.append(
            f"  {'workload':<26} {'seconds':>10} {'steps/s':>14} "
            f"{'ns/sub':>10}"
        )
        for name, section in report["workloads"].items():
            steps_per_s = section.get("steps_per_s")
            ns_per_sub = section.get("ns_per_substitution")
            lines.append(
                f"  {name:<26} {section['seconds']:>10.3f} "
                f"{'-' if steps_per_s is None else format(steps_per_s, ',.0f'):>14} "
                f"{'-' if ns_per_sub is None else format(ns_per_sub, ',.0f'):>10}"
            )
    hot = {k: v for k, v in report["hot_ops"].items() if v}
    if hot:
        lines.append("  hot ops: " + ", ".join(
            f"{name}={value:,}" for name, value in hot.items()
        ))
    return "\n".join(lines)
