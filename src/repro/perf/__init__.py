"""Performance instrumentation for the RMRLS reproduction.

End-to-end and per-layer measurement lives in ``perfbench/`` (see
``docs/benchmarking.md``); the search's hot-op counts live in
``SearchStats.hot_ops`` (:data:`repro.synth.stats.HOT_OP_FIELDS`).
This package holds the rest:

* **engine kernels** (:mod:`repro.perf.kernels`,
  :mod:`repro.perf.timing`) — the search's two per-expansion engine
  calls timed over fixed seeded inputs with warmup, repeats, and MAD
  outlier rejection, for the tier-1 engine speed gates;
* :func:`repro.perf.report.git_info` — the commit a measurement was
  taken at.
"""

from repro.perf.kernels import KERNELS, kernel_names, run_kernel
from repro.perf.report import git_info
from repro.perf.timing import TimingResult, mad_keep_mask, time_callable

__all__ = [
    "TimingResult",
    "mad_keep_mask",
    "time_callable",
    "KERNELS",
    "kernel_names",
    "run_kernel",
    "git_info",
]
