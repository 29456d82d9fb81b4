"""A lightweight in-process metrics registry (no external deps).

Three instrument kinds, mirroring the usual client-library trio but
kept deliberately small: monotone :class:`Counter`, last-value
:class:`Gauge`, and fixed-bucket :class:`Histogram` (cumulative counts
per upper bound, plus ``sum``/``count`` for averages).  A
:class:`MetricsRegistry` names and snapshots them;
:class:`MetricsObserver` populates a registry from the search's
observer event stream.
"""

from __future__ import annotations

import bisect

from repro.obs.observer import (
    PRUNE_CHILD_DEPTH,
    PRUNE_DEPTH,
    PRUNE_LOWER_BOUND,
    SearchObserver,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsObserver",
    "labeled_key",
]


def labeled_key(name: str, labels: dict | None) -> str:
    """The registry key for ``name`` under ``labels``.

    Unlabeled metrics keep their bare name; labeled ones get the
    Prometheus-style ``name{k="v",...}`` form with keys sorted, so the
    same label set always maps to the same key.
    """
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{value}"' for key, value in sorted(labels.items())
    )
    return f"{name}{{{inner}}}"


def _label_fields(name: str, labels: dict | None) -> dict:
    # Snapshot entries for labeled metrics carry the base name and the
    # label set, so a reader need not parse the key; unlabeled entries
    # keep the pre-label snapshot shape untouched.
    if not labels:
        return {}
    return {"name": name, "labels": dict(labels)}


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value", "labels")

    kind = "counter"

    def __init__(self, name: str, labels: dict | None = None):
        self.name = name
        self.labels = dict(labels) if labels else None
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def as_dict(self) -> dict:
        return {
            "kind": self.kind, "value": self.value,
            **_label_fields(self.name, self.labels),
        }


class Gauge:
    """A value that can go up and down; remembers its maximum."""

    __slots__ = ("name", "value", "max_value", "labels")

    kind = "gauge"

    def __init__(self, name: str, labels: dict | None = None):
        self.name = name
        self.labels = dict(labels) if labels else None
        self.value = 0
        self.max_value = 0

    def set(self, value) -> None:
        """Record the current value."""
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def as_dict(self) -> dict:
        return {
            "kind": self.kind, "value": self.value, "max": self.max_value,
            **_label_fields(self.name, self.labels),
        }


class Histogram:
    """Fixed-bucket distribution with non-cumulative bucket counts.

    ``bounds`` are inclusive upper bounds in increasing order; a final
    overflow bucket catches everything larger.  ``observe`` costs one
    bisection — cheap enough for the search hot path when metrics are
    enabled.
    """

    __slots__ = (
        "name", "bounds", "counts", "count", "total", "minimum", "maximum",
        "labels",
    )

    kind = "histogram"

    def __init__(self, name: str, bounds, labels: dict | None = None):
        bounds = tuple(bounds)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        self.name = name
        self.labels = dict(labels) if labels else None
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = None
        self.maximum = None

    def observe(self, value) -> None:
        """Add one sample."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float | None:
        return None if self.count == 0 else self.total / self.count

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            **_label_fields(self.name, self.labels),
        }

    def render(self, width: int = 40) -> str:
        """ASCII bar chart of the bucket counts (for ``rmrls profile``)."""
        labels = [f"<= {bound}" for bound in self.bounds] + [
            f"> {self.bounds[-1]}"
        ]
        label_width = max(len(label) for label in labels)
        peak = max(self.counts) or 1
        lines = [f"{self.name}  (n={self.count}, mean="
                 f"{0.0 if self.mean is None else self.mean:.2f})"]
        for label, count in zip(labels, self.counts):
            bar = "#" * round(width * count / peak)
            lines.append(f"  {label:>{label_width}}  {count:>8}  {bar}")
        return "\n".join(lines)


class MetricsRegistry:
    """Named metrics with idempotent creation and dict snapshots.

    Metrics may carry a label set (``registry.counter("hits",
    labels={"worker": "w1"})``); each distinct label set is its own
    time series, keyed Prometheus-style as ``hits{worker="w1"}``.
    """

    def __init__(self):
        self._metrics: dict[str, object] = {}

    def _get_or_create(self, name: str, labels, factory, kind: str):
        key = labeled_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        elif metric.kind != kind:
            raise ValueError(
                f"metric {key!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, labels: dict | None = None) -> Counter:
        """Get or create the counter ``name`` (under ``labels``)."""
        return self._get_or_create(
            name, labels, lambda: Counter(name, labels), "counter"
        )

    def gauge(self, name: str, labels: dict | None = None) -> Gauge:
        """Get or create the gauge ``name`` (under ``labels``)."""
        return self._get_or_create(
            name, labels, lambda: Gauge(name, labels), "gauge"
        )

    def histogram(
        self, name: str, bounds=None, labels: dict | None = None,
    ) -> Histogram:
        """Get or create the histogram ``name`` (``bounds`` required on
        first use; ignored afterwards)."""
        key = labeled_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            if bounds is None:
                raise ValueError(
                    f"histogram {key!r} needs bucket bounds on first use"
                )
            metric = Histogram(name, bounds, labels)
            self._metrics[key] = metric
        elif metric.kind != "histogram":
            raise ValueError(
                f"metric {key!r} already registered as {metric.kind}"
            )
        return metric

    def get(self, name: str):
        """Return the metric ``name`` or ``None``."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def as_dict(self) -> dict:
        """Snapshot every metric as plain dicts (JSON-safe)."""
        return {
            name: self._metrics[name].as_dict() for name in self.names()
        }

    def __len__(self) -> int:
        return len(self._metrics)


#: Default bucket bounds for the search histograms.  ``elim`` can be
#: negative (growth substitutions); queue sizes are powers of four up
#: to the dedupe-free blowup range.
ELIM_BOUNDS = (-4, -2, -1, 0, 1, 2, 3, 4, 6, 8, 12, 16)
CHILDREN_BOUNDS = (0, 1, 2, 4, 8, 16, 32, 64, 128)
QUEUE_BOUNDS = (1, 4, 16, 64, 256, 1024, 4096, 16384, 65536)

#: The prune reasons ``stats.nodes_pruned_depth`` lumps together.  The
#: growth and greedy reasons have their own stats fields and so no
#: counter here.
DEPTH_PRUNE_REASONS = (PRUNE_DEPTH, PRUNE_CHILD_DEPTH, PRUNE_LOWER_BOUND)


class MetricsObserver(SearchObserver):
    """Populate a :class:`MetricsRegistry` from search events.

    It records only what the search's own ``SearchStats`` does not
    carry (steps, nodes, prunes per stats bucket, solutions, restarts
    and hot-op counts live there alone):

    * counters ``search_pruned_<reason>`` for the
      :data:`DEPTH_PRUNE_REASONS`, counted per event — the only place
      the depth / child-depth / lower-bound split of
      ``stats.nodes_pruned_depth`` exists;
    * histograms ``elim`` (terms eliminated per accepted child),
      ``children_per_expansion``, and ``queue_size`` (sampled at every
      queue-size change).
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._elim = self.registry.histogram("elim", ELIM_BOUNDS)
        self._children_hist = self.registry.histogram(
            "children_per_expansion", CHILDREN_BOUNDS
        )
        self._queue_hist = self.registry.histogram("queue_size", QUEUE_BOUNDS)
        self._open_expansion = False
        self._children_this_expansion = 0

    def _flush_expansion(self) -> None:
        if self._open_expansion:
            self._children_hist.observe(self._children_this_expansion)
            self._children_this_expansion = 0
            self._open_expansion = False

    def on_expand(self, parent):
        self._flush_expansion()
        self._open_expansion = True

    def on_child(self, child, parent):
        if parent is None:
            return
        self._elim.observe(child.elim)
        if self._open_expansion:
            self._children_this_expansion += 1

    def on_prune(self, node, reason, count=1):
        if reason in DEPTH_PRUNE_REASONS:
            self.registry.counter(f"search_pruned_{reason}").inc(count)

    def on_queue(self, size):
        self._queue_hist.observe(size)

    def on_finish(self, reason, stats):
        self._flush_expansion()
