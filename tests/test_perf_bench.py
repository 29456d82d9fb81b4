"""The kernel micro-suite, ``git_info``, and the engine gates."""

import pytest

from repro.perf.hotops import HotOpCounters
from repro.perf.kernels import KERNELS, kernel_names, run_kernel
from repro.perf.report import git_info
from repro.pprm.engine import ENGINES, lane_engine


class TestGitInfo:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("RMRLS_GIT_SHA", "cafe0001")
        assert git_info() == {"sha": "cafe0001", "dirty": None}

    def test_outside_repository(self, tmp_path):
        info = git_info(cwd=str(tmp_path))
        assert info["sha"] is None

    def test_inside_repository(self):
        info = git_info()
        assert info["sha"] is None or len(info["sha"]) == 40


class TestKernels:
    def test_names(self):
        assert kernel_names() == list(KERNELS)
        assert "pprm_substitute" in KERNELS

    def test_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            run_kernel("bogus")

    def test_run_kernel_quick(self):
        result = run_kernel("queue_churn", quick=True, repeats=3)
        assert result.ns_per_op > 0
        assert len(result.samples) == 3

    def test_kernels_deterministic_ops(self):
        # Fixed seeds: the op count of a kernel is part of the
        # measurement contract and must not drift between runs.
        first = run_kernel("dedupe_probe", quick=True, repeats=1, warmup=0)
        second = run_kernel("dedupe_probe", quick=True, repeats=1, warmup=0)
        assert first.ops == second.ops


class TestPackedEngineGate:
    """The packed backend earns its place on the search path only while
    it is at least as fast as reference on the two calls the search
    makes per expansion, at the kernel fixture's 5 variables."""

    @pytest.mark.parametrize(
        "kernel", ["child_state", "enumerate_substitutions"]
    )
    def test_packed_at_least_as_fast_as_reference(self, kernel):
        reference = run_kernel(kernel, quick=True, engine=ENGINES["reference"])
        packed = run_kernel(kernel, quick=True, engine=ENGINES["packed"])
        speedup = reference.ns_per_op / packed.ns_per_op
        assert speedup >= 1.0, (
            f"packed slower than reference on {kernel}: {speedup:.2f}x"
        )


class TestLaneEngineGate:
    """The lane backend earns its width band only while its one-int
    child state is at least as fast as packed's per-output tuple, at
    the kernel fixture's 5 variables."""

    def test_lanes_at_least_as_fast_as_packed_on_child_state(self):
        packed = run_kernel("child_state", quick=True, engine=ENGINES["packed"])
        lanes = run_kernel("child_state", quick=True, engine=lane_engine(5))
        speedup = packed.ns_per_op / lanes.ns_per_op
        assert speedup >= 1.0, (
            f"lanes slower than packed on child_state: {speedup:.2f}x"
        )


class TestHotOpTotalsHelper:
    def test_merge_dict_tolerates_foreign_keys(self):
        totals = HotOpCounters()
        totals.merge_dict({"queue_pops": 1, "from_the_future": 2})
        assert totals.queue_pops == 1
