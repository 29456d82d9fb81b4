"""Flight recorder: ring-file durability, crash dumps, pool recovery.

The ring tests tamper with the on-disk bytes directly (a torn slot is
exactly one mid-memcpy SIGKILL away); the pool tests inject a real
SIGKILL via ``RMRLS_FLIGHT_FAULTS`` and assert the coordinator turns
the victim's ring into a validated, replayable crash dump.
"""

import atexit
import io
import json
import os
import random
import time

import pytest

from repro.functions.permutation import Permutation
from repro.harness import WorkerPool, permutation_task, probe_task
from repro.harness.worker import worker_entry
from repro.obs import ProgressObserver
from repro.obs.flight import (
    DUMP_STATUSES,
    EVERY_ENV_VAR,
    FAULTS_ENV_VAR,
    FlightObserver,
    FlightRecorder,
    RingFile,
    build_postmortem,
    dump_checksum,
    fold_digest,
    load_dump,
    parse_faults,
    recover_ring,
    render_postmortem,
    replay_dump,
    scan_flight_dir,
    validate_dump,
)
from repro.synth.options import SynthesisOptions
from repro.synth.rmrls import synthesize


class TestRingFile:
    def test_roundtrip_preserves_order(self, tmp_path):
        ring = RingFile(str(tmp_path / "r.ring"))
        for index in range(10):
            ring.append({"k": "step", "seq": index})
        ring.close()
        records, dropped = RingFile.read(str(tmp_path / "r.ring"))
        assert dropped == 0
        assert [record["seq"] for record in records] == list(range(10))

    def test_eviction_keeps_newest_slot_count(self, tmp_path):
        ring = RingFile(str(tmp_path / "r.ring"), slot_count=8)
        for index in range(20):
            ring.append({"k": "step", "seq": index})
        ring.close()
        records, dropped = RingFile.read(str(tmp_path / "r.ring"))
        assert dropped == 0
        assert [record["seq"] for record in records] == list(range(12, 20))

    def test_oversize_payload_keeps_the_envelope(self, tmp_path):
        ring = RingFile(str(tmp_path / "r.ring"), slot_size=64)
        ring.append({"k": "step", "seq": 3, "t": 0.5, "blob": "x" * 500})
        ring.close()
        [record], dropped = RingFile.read(str(tmp_path / "r.ring"))
        assert dropped == 0
        assert record["truncated"] is True
        assert record["seq"] == 3
        assert "blob" not in record

    def test_torn_slot_fails_crc_and_is_counted(self, tmp_path):
        path = str(tmp_path / "r.ring")
        ring = RingFile(path, slot_size=64)
        for index in range(3):
            ring.append({"k": "step", "seq": index})
        ring.close()
        # Flip payload bytes inside the middle slot: header is 32
        # bytes, so slot 1 starts at 32 + 64.
        with open(path, "r+b") as handle:
            handle.seek(32 + 64 + 8)
            handle.write(b"\xff\xff\xff\xff")
        records, dropped = RingFile.read(path)
        assert dropped == 1
        assert [record["seq"] for record in records] == [0, 2]

    def test_non_ring_file_is_rejected(self, tmp_path):
        path = tmp_path / "junk.ring"
        path.write_bytes(b"not a ring at all" * 16)
        with pytest.raises(ValueError, match="bad magic"):
            RingFile.read(str(path))


class TestFaultSpecs:
    def test_absent_and_none_disable(self):
        assert parse_faults(None) is None
        assert parse_faults("") is None
        assert parse_faults("none") is None

    def test_sigkill_at_n(self):
        assert parse_faults("sigkill@7") == ("sigkill", 7)

    def test_bad_specs_raise(self):
        with pytest.raises(ValueError):
            parse_faults("sigkill@0")
        with pytest.raises(ValueError):
            parse_faults("explode@3")


class TestDigest:
    def test_deterministic_and_order_sensitive(self):
        a = fold_digest(fold_digest(0, 1, 2), 3)
        assert a == fold_digest(0, 1, 2, 3)
        assert fold_digest(0, 1, 2) != fold_digest(0, 2, 1)
        assert 0 <= a < (1 << 64)


class TestDumps:
    def test_write_then_load_roundtrips(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path / "p.ring"),
                                  meta={"process": "t"}, faults="none")
        recorder.record("step", step=1, digest=42)
        recorder.decision("bound_adopted", poll=1, depth=9)
        path = recorder.write_dump(reason="crash", error="synthetic")
        document = load_dump(path)
        assert document["reason"] == "crash"
        assert document["decisions"][0]["depth"] == 9
        # write_dump retires the ring: a clean dump leaves no ring
        # behind for the coordinator to double-recover.
        assert not os.path.exists(str(tmp_path / "p.ring"))

    def test_tampered_dump_fails_validation(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path / "p.ring"),
                                  meta={"process": "t"}, faults="none")
        recorder.record("step", step=1, digest=42)
        path = recorder.write_dump(reason="crash", error=None)
        with open(path) as handle:
            document = json.load(handle)
        document["events"][0]["digest"] = 43
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(ValueError, match="checksum"):
            load_dump(path)
        document["checksum"] = dump_checksum(document)
        validate_dump(document)  # re-checksummed tamper is consistent

    def test_clean_exit_leaves_nothing(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path / "p.ring"),
                                  meta={"process": "t"}, faults="none")
        recorder.record("step", step=1)
        recorder.decision("bound_adopted", poll=1, depth=5)
        recorder.discard()
        assert os.listdir(tmp_path) == []

    def test_recover_ring_marks_recovered(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path / "p.ring"),
                                  meta={"process": "t"}, faults="none")
        for index in range(5):
            recorder.record("step", step=index, digest=index)
        recorder.decision("bound_adopted", poll=2, depth=7)
        recorder.close()  # simulate a silent death: files stay behind
        document = recover_ring(str(tmp_path / "p.ring"),
                                reason="oom", error="killed")
        validate_dump(document)
        assert document["recovered"] is True
        assert document["reason"] == "oom"
        assert len(document["events"]) == 6  # 5 steps + the decision
        assert document["decisions"][0]["poll"] == 2


class TestScan:
    def test_counts_rings_and_dumps(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path / "a.ring"),
                                  meta={}, faults="none")
        recorder.record("step", step=1)
        other = FlightRecorder(str(tmp_path / "b.ring"),
                               meta={}, faults="none")
        other.record("step", step=1)
        other.write_dump(reason="crash", error=None)
        counts = scan_flight_dir(str(tmp_path))
        assert counts == {"rings": 1, "dumps": 1}
        recorder.discard()


class TestPostmortemTail:
    @pytest.fixture
    def flight_dir(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path / "p.ring"),
                                  meta={"process": "t"}, faults="none")
        for index in range(4):
            recorder.record("step", step=index)
        recorder.write_dump(reason="crash", error=None)
        return str(tmp_path)

    def test_tail_keeps_the_last_events(self, flight_dir):
        document = build_postmortem(flight_dir, tail=1)
        assert [item["event"]["step"] for item in document["timeline"]] == [3]
        rendered = render_postmortem(
            build_postmortem(flight_dir), timeline_tail=2
        )
        assert "step=2" in rendered and "step=3" in rendered
        assert "step=1" not in rendered

    @pytest.mark.parametrize("tail", [0, -1])
    def test_tail_below_one_is_rejected(self, flight_dir, tail):
        with pytest.raises(ValueError, match="tail"):
            build_postmortem(flight_dir, tail=tail)
        with pytest.raises(ValueError, match="timeline_tail"):
            render_postmortem(build_postmortem(flight_dir),
                              timeline_tail=tail)

    @pytest.mark.parametrize("flag", ["--tail", "--timeline"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_cli_exits_2_with_usage(self, flight_dir, capsys, flag, value):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["postmortem", flight_dir, flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: rmrls postmortem")
        assert flag in err


#: Overhead budget of an armed observer, as a share of one bare step.
_BUDGET_PCT = 5.0


class _Node:
    __slots__ = ("depth", "terms")

    def __init__(self, depth, terms):
        self.depth = depth
        self.terms = terms


def _per_call_ns(on_step, calls=100_000, loops=5):
    """Median wall of ``loops`` tight loops of ``on_step``, per call.

    Differencing two nearly-equal search walls cannot resolve a ~1%
    effect under shared-machine noise, so each gate times the armed
    observer's ``on_step`` directly (exactly the call the search adds
    per step, strided work included) and divides by the bare step cost.
    """
    node = _Node(depth=7, terms=12)
    walls = []
    for _ in range(loops):
        start = time.perf_counter()
        for step in range(1, calls + 1):
            on_step(step, node, 64)
        walls.append(time.perf_counter() - start)
    return sorted(walls)[loops // 2] / calls * 1e9


@pytest.fixture(scope="module")
def bare_step_ns():
    """Median cost of one search step over 12 seeded 3-variable specs,
    each burning the same 400-step cap (not ``stop_at_first``)."""
    rng = random.Random(0xBE7C4)
    specs = []
    for _ in range(12):
        images = list(range(8))
        rng.shuffle(images)
        specs.append(Permutation(images))
    walls = []
    steps = 0
    for _ in range(3):
        start = time.perf_counter()
        steps = sum(
            synthesize(spec, max_steps=400, dedupe_states=True).stats.steps
            for spec in specs
        )
        walls.append(time.perf_counter() - start)
    return sorted(walls)[1] / steps * 1e9


class TestOverheadBudget:
    def test_recorder_stays_within_five_percent_of_a_step(
        self, tmp_path, bare_step_ns
    ):
        recorder = FlightRecorder(str(tmp_path / "bench.ring"),
                                  meta={"process": "bench"}, faults="none")
        try:
            step_ns = _per_call_ns(FlightObserver(recorder).on_step)
        finally:
            recorder.discard()
        overhead_pct = step_ns / bare_step_ns * 100.0
        assert overhead_pct < _BUDGET_PCT, (
            f"flight recorder adds {overhead_pct:.2f}% to a search step "
            f"({step_ns:.0f} ns over {bare_step_ns:.0f} ns)"
        )

    def test_progress_stays_within_five_percent_of_a_step(
        self, bare_step_ns
    ):
        observer = ProgressObserver(every=512, stream=io.StringIO())
        step_ns = _per_call_ns(observer.on_step)
        overhead_pct = step_ns / bare_step_ns * 100.0
        assert overhead_pct < _BUDGET_PCT, (
            f"progress lines add {overhead_pct:.2f}% to a search "
            f"step ({step_ns:.0f} ns over {bare_step_ns:.0f} ns)"
        )


def _shuffled_permutation(seed: int, size: int = 16) -> list[int]:
    images = list(range(size))
    random.Random(seed).shuffle(images)
    return images


class TestPoolRecovery:
    def test_sigkilled_worker_leaves_replayable_dump(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv(EVERY_ENV_VAR, "1")
        monkeypatch.setenv(FAULTS_ENV_VAR, "sigkill@20")
        task = permutation_task(
            _shuffled_permutation(2004),
            options=SynthesisOptions(max_steps=4000),
        )
        pool = WorkerPool(flight_dir=str(tmp_path))
        [outcome] = pool.run([task])
        assert outcome.status in DUMP_STATUSES
        dump_path = outcome.extra["flight_dump"]
        document = load_dump(dump_path)
        assert document["recovered"] is True
        assert document["meta"]["task_id"] == task.task_id
        assert document["last_step"] > 0
        verdict = replay_dump(document)
        assert verdict["ok"] is True
        assert verdict["checked"] > 0
        # Every ring was either dumped or discarded.
        assert scan_flight_dir(str(tmp_path))["rings"] == 0

    def test_clean_worker_leaves_no_dump(self, tmp_path, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        task = permutation_task(
            [1, 0, 2, 3], options=SynthesisOptions(max_steps=4000)
        )
        pool = WorkerPool(flight_dir=str(tmp_path))
        [outcome] = pool.run([task])
        assert outcome.status == "ok"
        assert scan_flight_dir(str(tmp_path)) == {"rings": 0, "dumps": 0}

    def test_reused_worker_keeps_no_recorder_per_attempt(self, tmp_path,
                                                          monkeypatch):
        # A worker runs many attempts: none may leave an atexit
        # handler (or the recorder it holds) behind.
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        handlers = atexit._ncallbacks()
        for attempt in range(1, 4):
            result = worker_entry(
                "probe", {"behavior": "ok"}, {}, attempt,
                flight={"dir": str(tmp_path), "task_id": "reused"},
            )
            assert result["status"] == "ok"
        assert atexit._ncallbacks() == handlers
        with WorkerPool(flight_dir=str(tmp_path)) as pool:
            outcomes = pool.run([
                probe_task("ok", namespace=f"reused{index}", pid=True)
                for index in range(3)
            ])
        assert [outcome.status for outcome in outcomes] == ["ok"] * 3
        assert len({outcome.extra["pid"] for outcome in outcomes}) == 1
        assert scan_flight_dir(str(tmp_path)) == {"rings": 0, "dumps": 0}
