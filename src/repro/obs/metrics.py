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

from repro.obs.observer import SearchObserver

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
    # label set so merge_snapshot can rebuild them; unlabeled entries
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
        #: Per-source tally of :meth:`merge_snapshot` calls — the
        #: provenance record of which processes fed this registry.
        self.merge_counts: dict[str, int] = {}

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

    def merge_snapshot(self, snapshot: dict, source: str | None = None) -> None:
        """Merge an :meth:`as_dict` snapshot into this registry.

        The cross-process aggregation primitive: subprocess workers
        serialize their registries over the result channel and the
        parent folds them in here.  Counters add; gauges keep the
        snapshot's last value and the running maximum of maxima;
        histograms add bucket counts (their bounds must match — a
        bounds mismatch means two code versions disagree about the
        metric and is reported loudly rather than merged wrongly).

        ``source`` names where the snapshot came from (a slice label, a
        worker shard, ...); each merge is tallied per source in
        :attr:`merge_counts` so aggregates keep their provenance.  A
        *negative* counter value in the snapshot is rejected before any
        entry is applied — a corrupt or garbled snapshot must not
        silently poison the aggregate.
        """
        origin = source if source is not None else "<anonymous>"
        for key, data in snapshot.items():
            if data.get("kind") == "counter" and data.get("value", 0) < 0:
                raise ValueError(
                    f"rejecting snapshot from {origin!r}: counter {key!r} "
                    f"carries negative delta {data['value']} "
                    f"(counters are monotone; this snapshot is corrupt)"
                )
        self.merge_counts[origin] = self.merge_counts.get(origin, 0) + 1
        for key, data in snapshot.items():
            kind = data.get("kind")
            name = data.get("name", key)
            labels = data.get("labels")
            if kind == "counter":
                self.counter(name, labels=labels).inc(data["value"])
            elif kind == "gauge":
                gauge = self.gauge(name, labels=labels)
                gauge.set(data["value"])
                if data.get("max", 0) > gauge.max_value:
                    gauge.max_value = data["max"]
            elif kind == "histogram":
                histogram = self.histogram(
                    name, data["bounds"], labels=labels
                )
                if list(histogram.bounds) != list(data["bounds"]):
                    raise ValueError(
                        f"histogram {key!r} bounds mismatch: "
                        f"{list(histogram.bounds)} vs {data['bounds']}"
                    )
                for index, count in enumerate(data["counts"]):
                    histogram.counts[index] += count
                histogram.count += data["count"]
                histogram.total += data["sum"]
                for extreme, better in (
                    ("minimum", min), ("maximum", max)
                ):
                    value = data["max" if extreme == "maximum" else "min"]
                    if value is None:
                        continue
                    current = getattr(histogram, extreme)
                    setattr(
                        histogram,
                        extreme,
                        value if current is None else better(current, value),
                    )
            else:
                raise ValueError(
                    f"snapshot entry {name!r} has unknown kind {kind!r}"
                )

    def __len__(self) -> int:
        return len(self._metrics)


#: Default bucket bounds for the search histograms.  ``elim`` can be
#: negative (growth substitutions); queue sizes are powers of four up
#: to the dedupe-free blowup range.
ELIM_BOUNDS = (-4, -2, -1, 0, 1, 2, 3, 4, 6, 8, 12, 16)
CHILDREN_BOUNDS = (0, 1, 2, 4, 8, 16, 32, 64, 128)
QUEUE_BOUNDS = (1, 4, 16, 64, 256, 1024, 4096, 16384, 65536)


class MetricsObserver(SearchObserver):
    """Populate a :class:`MetricsRegistry` from search events.

    Registered metrics (all under the ``search_`` namespace):

    * counters ``search_steps``, ``search_expansions``,
      ``search_children`` (non-root nodes created),
      ``search_solutions``, ``search_restarts``,
      ``search_finish_<reason>`` per finish reason, and ``hotop_<name>``
      per hot-op count (see :data:`repro.synth.stats.HOT_OP_FIELDS`),
      all published from the search's own ``stats`` at finish;
    * counters ``search_pruned_<reason>`` per prune reason and
      ``search_guard_<kind>`` per guard-rail event, counted per event;
    * gauges ``search_queue_size`` (current; max tracks the peak) and
      ``search_best_depth`` (best solution depth so far);
    * histograms ``elim`` (terms eliminated per accepted child),
      ``children_per_expansion``, and ``queue_size`` (sampled at every
      queue-size change).
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._steps = self.registry.counter("search_steps")
        self._expansions = self.registry.counter("search_expansions")
        self._children = self.registry.counter("search_children")
        self._solutions = self.registry.counter("search_solutions")
        self._restarts = self.registry.counter("search_restarts")
        self._queue_gauge = self.registry.gauge("search_queue_size")
        self._best_depth = self.registry.gauge("search_best_depth")
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
        self.registry.counter(f"search_pruned_{reason}").inc(count)

    def on_guard(self, kind, count=1):
        self.registry.counter(f"search_guard_{kind}").inc(count)

    def on_solution(self, node, parent):
        self._best_depth.set(node.depth)

    def on_queue(self, size):
        self._queue_gauge.set(size)
        self._queue_hist.observe(size)

    def on_finish(self, reason, stats):
        self._flush_expansion()
        self._steps.inc(stats.steps)
        self._expansions.inc(stats.nodes_expanded)
        self._children.inc(stats.nodes_created - 1)
        self._solutions.inc(stats.solutions_found)
        self._restarts.inc(stats.restarts)
        self.registry.counter(f"search_finish_{reason}").inc()
        for name, value in getattr(stats, "hot_ops", {}).items():
            if value:
                self.registry.counter(f"hotop_{name}").inc(value)
