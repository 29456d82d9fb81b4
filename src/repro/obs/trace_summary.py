"""Offline analysis of JSONL search traces (``rmrls trace summarize``).

A :class:`~repro.obs.jsonl.JsonlTraceObserver` file captures the whole
search as one record per event.  :func:`summarize_trace` folds such a
stream into the questions people actually ask of it: which
substitutions the search applies most, how deep the queue runs
(percentiles over the per-pop ``queue_size`` samples), when restarts
fired, and how the run ended.
"""

from __future__ import annotations

import math
from collections import Counter as TallyCounter

from repro.applog import read_log

__all__ = ["summarize_trace", "render_trace_summary"]

#: Queue-depth percentiles reported by the summary.
_PERCENTILES = (50, 90, 99)


def _percentile(ordered: list, percent: int):
    """Nearest-rank percentile over a pre-sorted sample list.

    ``percent`` is an integer so whole ranks stay exact (``0.9 * 100``
    is a hair above 90, and its ceiling is 91).
    """
    if not ordered:
        return None
    rank = max(1, math.ceil(percent * len(ordered) / 100))
    return ordered[rank - 1]


def summarize_trace(stream, top: int = 10) -> dict:
    """Fold a JSONL trace into a summary dict.

    ``stream`` is an open trace file (anything with ``read()``); ``top``
    caps the substitution-frequency table.  Returns a JSON-safe dict with
    ``events`` (count per event kind), ``top_substitutions``
    (``[{substitution, count}]`` sorted by count), ``queue_depth``
    (p50/p90/p99/max over pop-time samples), ``restarts``
    (``[{step, seed}]`` timeline), ``solutions``
    (``[{step, node, depth}]``), ``finish`` (reason + final stats,
    when the trace ran to completion), and ``skipped_lines``.

    Damaged lines — truncated JSON from a killed writer, interleaved
    garbage, checksum mismatches (:mod:`repro.applog`), records without
    an ``event`` key — are skipped and
    *counted*, never raised: a trace cut short by SIGKILL or OOM is a
    normal artifact of the harness, and the partial summary (with its
    skip count) is exactly what post-mortems need.
    """
    events: TallyCounter = TallyCounter()
    substitutions: TallyCounter = TallyCounter()
    queue_samples: list[int] = []
    restarts: list[dict] = []
    solutions: list[dict] = []
    finish = None
    last_step = 0
    records, problems = read_log(
        stream, lambda r: r if r.get("event") is not None else None
    )
    for _, record in records:
        kind = record["event"]
        events[kind] += 1
        last_step = record.get("step", last_step)
        if kind == "child":
            substitution = record.get("sub")
            if substitution:
                substitutions[substitution] += 1
        elif kind == "pop":
            size = record.get("queue_size")
            if size is not None:
                queue_samples.append(size)
        elif kind == "restart":
            restarts.append(
                {"step": record.get("step"), "seed": record.get("seed")}
            )
        elif kind == "solution":
            solutions.append({
                "step": record.get("step"),
                "node": record.get("node"),
                "depth": record.get("depth"),
            })
        elif kind == "finish":
            finish = {
                "reason": record.get("reason"),
                "stats": record.get("stats"),
            }

    queue_samples.sort()
    queue_depth = {
        f"p{percent}": _percentile(queue_samples, percent)
        for percent in _PERCENTILES
    }
    queue_depth["max"] = queue_samples[-1] if queue_samples else None
    queue_depth["samples"] = len(queue_samples)
    return {
        "events": dict(sorted(events.items())),
        "steps": last_step,
        "top_substitutions": [
            {"substitution": substitution, "count": count}
            for substitution, count in substitutions.most_common(top)
        ],
        "distinct_substitutions": len(substitutions),
        "queue_depth": queue_depth,
        "restarts": restarts,
        "solutions": solutions,
        "finish": finish,
        "skipped_lines": len(problems),
    }


def render_trace_summary(summary: dict) -> str:
    """Human-readable rendering of a :func:`summarize_trace` result."""
    lines = []
    events = summary["events"]
    lines.append(
        "events: " + (
            ", ".join(f"{kind}={count}" for kind, count in events.items())
            or "none"
        )
    )
    if summary.get("skipped_lines"):
        lines.append(
            f"skipped {summary['skipped_lines']} malformed line(s) "
            f"(truncated or interleaved trace)"
        )
    depth = summary["queue_depth"]
    if depth["samples"]:
        lines.append(
            f"queue depth (over {depth['samples']} pops): "
            f"p50={depth['p50']}  p90={depth['p90']}  "
            f"p99={depth['p99']}  max={depth['max']}"
        )
    if summary["top_substitutions"]:
        lines.append(
            f"top substitutions "
            f"({summary['distinct_substitutions']} distinct):"
        )
        width = max(
            len(entry["substitution"])
            for entry in summary["top_substitutions"]
        )
        for entry in summary["top_substitutions"]:
            lines.append(
                f"  {entry['substitution']:<{width}}  {entry['count']:>6}"
            )
    if summary["restarts"]:
        timeline = ", ".join(
            f"step {restart['step']} (seed node {restart['seed']})"
            for restart in summary["restarts"]
        )
        lines.append(f"restarts: {timeline}")
    for solution in summary["solutions"]:
        lines.append(
            f"solution at step {solution['step']}: node "
            f"{solution['node']}, depth {solution['depth']}"
        )
    finish = summary["finish"]
    if finish is not None:
        stats = finish.get("stats") or {}
        lines.append(
            f"finish: {finish['reason']} after {stats.get('steps', '?')} "
            f"steps, {stats.get('elapsed_seconds', 0.0):.3f}s"
        )
        hot = {
            name: value
            for name, value in (stats.get("hot_ops") or {}).items()
            if value
        }
        if hot:
            lines.append("hot ops: " + ", ".join(
                f"{name}={value:,}" for name, value in hot.items()
            ))
    else:
        lines.append("finish: (trace truncated — no finish event)")
    return "\n".join(lines)
