"""Performance instrumentation for the RMRLS reproduction.

End-to-end and per-layer measurement lives in ``perfbench/`` (see
``docs/benchmarking.md``); this package holds what the search and the
``rmrls bench`` kernel table need:

* **hot-op counters** (:mod:`repro.perf.hotops`) — always-on integer
  counters at the search's innermost loops (substitutions applied,
  PPRM terms walked, queue and dedupe-table traffic, restart
  overhead), surfaced through ``SearchStats.hot_ops``, the metrics
  registry (``hotop_*``), and a process-global aggregate;
* **kernel micro-suite** (:mod:`repro.perf.kernels`,
  :mod:`repro.perf.timing`) — the search's inner-loop operations timed
  over fixed seeded inputs with warmup, repeats, and MAD outlier
  rejection;
* :func:`repro.perf.report.git_info` — the commit a measurement was
  taken at.
"""

from repro.perf.hotops import (
    HOT_OP_FIELDS,
    HotOpCounters,
    global_counters,
    snapshot_global,
)
from repro.perf.kernels import KERNELS, kernel_names, run_kernel
from repro.perf.report import git_info
from repro.perf.timing import TimingResult, mad_keep_mask, time_callable

__all__ = [
    "HOT_OP_FIELDS",
    "HotOpCounters",
    "global_counters",
    "snapshot_global",
    "TimingResult",
    "mad_keep_mask",
    "time_callable",
    "KERNELS",
    "kernel_names",
    "run_kernel",
    "git_info",
]
