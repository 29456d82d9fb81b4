"""Distributed tracing: spans, shards and collation.

Covers the cross-process observability substrate end to end — wire
contexts and clock-offset negotiation, tolerant shard readers,
byte-identical collation (property-tested over randomized
interleavings), retry-chain causality through the worker pool
(including SIGKILL and OOM attempts), and the ``rmrls trace collate``
command.
"""

import io
import json
import os
import random

import pytest

from repro.functions.permutation import Permutation
from repro.harness import HarnessConfig, RetryPolicy, probe_task, run_sweep
from repro.obs import (
    ProgressObserver,
    ShardWriter,
    TRACE_SCHEMA,
    TRACE_SCHEMA_VERSION,
    TraceContext,
    TraceSession,
    TraceValidationError,
    WorkerTraceSession,
    collate_shards,
    collate_to_file,
    load_collated,
    validate_trace,
    write_collated,
)
from repro.parallel.portfolio import synthesize_portfolio
from repro.synth.options import SynthesisOptions


class TestTraceContext:
    def test_wire_roundtrip(self):
        context = TraceContext("abcd", "coord-1", 12.5, 0.25, "/tmp/t")
        rebuilt = TraceContext.from_wire(context.to_wire())
        assert rebuilt.trace_id == "abcd"
        assert rebuilt.span_id == "coord-1"
        assert rebuilt.t0 == 12.5
        assert rebuilt.sent_at == 0.25
        assert rebuilt.trace_dir == "/tmp/t"

    def test_wire_is_json_safe(self):
        wire = TraceContext("abcd", "coord-1", 1.0, 0.0, "/tmp/t").to_wire()
        assert json.loads(json.dumps(wire)) == wire


class TestSessions:
    def test_meta_is_first_line_and_stamps_schema(self, tmp_path):
        session = TraceSession.create(str(tmp_path))
        session.close()
        first = json.loads(
            (tmp_path / "coord.jsonl").read_text().splitlines()[0]
        )
        assert first["kind"] == "meta"
        assert first["schema"] == TRACE_SCHEMA
        assert first["v"] == TRACE_SCHEMA_VERSION
        assert first["process"] == "coord"
        assert first["pid"] == os.getpid()

    def test_span_ids_are_unique_and_process_scoped(self, tmp_path):
        session = TraceSession.create(str(tmp_path))
        ids = [session.begin_span(f"s{i}").span_id for i in range(5)]
        session.close()
        assert len(set(ids)) == 5
        assert all(span_id.startswith("coord-") for span_id in ids)

    def test_span_start_then_end_records(self, tmp_path):
        session = TraceSession.create(str(tmp_path))
        span = session.begin_span("work", task_id="t1")
        span.end(status="ok", gates=4)
        session.close()
        lines = [
            json.loads(line)
            for line in (tmp_path / "coord.jsonl").read_text().splitlines()
        ]
        kinds = [line["kind"] for line in lines]
        assert kinds == ["meta", "start", "span"]
        assert lines[1]["attrs"] == {"task_id": "t1"}
        assert lines[2]["attrs"] == {"task_id": "t1", "gates": 4}
        assert lines[2]["status"] == "ok"
        assert lines[2]["end"] >= lines[2]["start"]

    def test_context_manager_marks_errors(self, tmp_path):
        session = TraceSession.create(str(tmp_path))
        with pytest.raises(RuntimeError):
            with session.span("boom"):
                raise RuntimeError("x")
        session.close()
        last = json.loads(
            (tmp_path / "coord.jsonl").read_text().splitlines()[-1]
        )
        assert last["kind"] == "span"
        assert last["status"] == "error"

    def test_worker_session_shares_trace_and_clock(self, tmp_path):
        coordinator = TraceSession.create(str(tmp_path))
        root = coordinator.begin_span("root")
        worker = WorkerTraceSession.from_wire(coordinator.context_for(root))
        span = worker.begin_span("task", parent=worker.parent_span_id)
        span.end(status="ok")
        worker.close()
        root.end(status="ok")
        coordinator.close()
        collated = collate_shards(str(tmp_path))
        validate_trace(collated)
        spans = [r for r in collated["records"] if r["kind"] == "span"]
        assert {s["trace_id"] for s in spans} == {coordinator.trace_id}
        child = next(s for s in spans if s["name"] == "task")
        assert child["parent_id"] == root.span_id
        # Shared CLOCK_MONOTONIC on Linux: the handshake negotiates a
        # zero offset, and the child cannot precede the launch instant.
        assert worker.clock_offset == 0.0
        parent = next(s for s in spans if s["name"] == "root")
        assert child["start"] >= parent["start"]

    def test_clock_offset_negotiated_when_clocks_diverge(self, tmp_path):
        coordinator = TraceSession.create(str(tmp_path))
        root = coordinator.begin_span("root")
        wire = coordinator.context_for(root)
        # Simulate a worker whose monotonic clock reads far behind the
        # coordinator's: its raw trace-relative reading lands before
        # sent_at, so the handshake must shift it forward.
        import time as _time

        wire = dict(wire, t0=_time.monotonic() + 100.0, sent_at=50.0)
        worker = WorkerTraceSession.from_wire(wire)
        assert worker.clock_offset > 0.0
        assert worker.now() >= 50.0
        worker.close()
        coordinator.close()

    def test_one_flushed_line_per_record(self, tmp_path):
        # A reader opening the shard mid-run sees only complete lines.
        session = TraceSession.create(str(tmp_path))
        session.begin_span("alpha")
        with open(tmp_path / "coord.jsonl") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)
        session.close()


def _write_shard(path, records):
    writer = ShardWriter(str(path))
    for record in records:
        writer.write(record)
    writer.close()


def _span_record(span_id, name, start, end, parent=None, process="p0",
                 status="ok", attrs=None, trace_id="t" * 16):
    return {
        "v": TRACE_SCHEMA_VERSION,
        "kind": "span",
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent,
        "name": name,
        "process": process,
        "start": start,
        "end": end,
        "status": status,
        "attrs": dict(attrs or {}),
    }


def _meta_record(process, trace_id="t" * 16):
    return {
        "v": TRACE_SCHEMA_VERSION,
        "schema": TRACE_SCHEMA,
        "kind": "meta",
        "trace_id": trace_id,
        "process": process,
        "pid": 1,
        "clock_offset": 0.0,
    }


def _event_record(name, time_, span=None, process="p0", attrs=None,
                  trace_id="t" * 16):
    return {
        "v": TRACE_SCHEMA_VERSION,
        "kind": "event",
        "trace_id": trace_id,
        "span_id": span,
        "name": name,
        "process": process,
        "time": time_,
        "attrs": dict(attrs or {}),
    }


class TestCollation:
    def test_truncated_tail_line_skipped_and_counted(self, tmp_path):
        _write_shard(tmp_path / "a.jsonl", [
            _meta_record("a"),
            _span_record("a-1", "root", 0.0, 1.0, process="a"),
        ])
        with open(tmp_path / "a.jsonl", "a") as handle:
            handle.write('{"kind": "span", "trunc')  # SIGKILL mid-write
        collated = collate_shards(str(tmp_path))
        assert collated["header"]["skipped_lines"] == 1
        assert collated["header"]["skipped_by_shard"] == {"a.jsonl": 1}
        assert len(collated["records"]) == 2

    def test_interleaved_garbage_skipped(self, tmp_path):
        shard = tmp_path / "a.jsonl"
        good = [
            _meta_record("a"),
            _span_record("a-1", "root", 0.0, 1.0, process="a"),
        ]
        text = "\n".join(
            json.dumps(record) for record in good
        )
        shard.write_text(f"not json\n{text}\n[1, 2]\n")
        collated = collate_shards(str(tmp_path))
        assert collated["header"]["skipped_lines"] == 2
        assert len(collated["records"]) == 2

    def test_mixed_trace_ids_rejected(self, tmp_path):
        _write_shard(tmp_path / "a.jsonl", [_meta_record("a", "a" * 16)])
        _write_shard(tmp_path / "b.jsonl", [_meta_record("b", "b" * 16)])
        with pytest.raises(TraceValidationError, match="different traces"):
            collate_shards(str(tmp_path))

    def test_start_superseded_by_end_open_span_kept(self, tmp_path):
        start = {
            "v": TRACE_SCHEMA_VERSION,
            "kind": "start",
            "trace_id": "t" * 16,
            "span_id": "a-1",
            "parent_id": None,
            "name": "done",
            "process": "a",
            "start": 0.0,
            "attrs": {},
        }
        open_start = dict(start, span_id="a-2", name="died", start=0.5)
        _write_shard(tmp_path / "a.jsonl", [
            _meta_record("a"),
            start,
            _span_record("a-1", "done", 0.0, 1.0, process="a"),
            open_start,  # the worker was SIGKILLed before ending it
        ])
        collated = collate_shards(str(tmp_path))
        kinds = [(r["kind"], r.get("span_id")) for r in collated["records"]]
        assert ("start", "a-1") not in kinds
        assert ("start", "a-2") in kinds
        assert ("span", "a-1") in kinds
        assert collated["header"]["open_spans"] == 1

    def test_collated_output_excluded_from_rescan(self, tmp_path):
        _write_shard(tmp_path / "a.jsonl", [
            _meta_record("a"),
            _span_record("a-1", "root", 0.0, 1.0, process="a"),
        ])
        out = tmp_path / "collated.trace.jsonl"
        collate_to_file(str(tmp_path), str(out))
        again = collate_shards(str(tmp_path))
        assert again["header"]["shards"] == ["a.jsonl"]
        assert len(again["records"]) == 2

    def test_load_collated_roundtrip(self, tmp_path):
        _write_shard(tmp_path / "a.jsonl", [
            _meta_record("a"),
            _span_record("a-1", "root", 0.0, 1.0, process="a"),
        ])
        collated = collate_shards(str(tmp_path))
        stream = io.StringIO()
        write_collated(collated, stream)
        stream.seek(0)
        loaded = load_collated(stream)
        assert loaded["header"]["trace_id"] == collated["header"]["trace_id"]
        assert loaded["records"] == collated["records"]

    def test_validate_rejects_orphan_parent(self, tmp_path):
        _write_shard(tmp_path / "a.jsonl", [
            _meta_record("a"),
            _span_record("a-1", "child", 0.0, 1.0, parent="ghost-9",
                         process="a"),
        ])
        collated = collate_shards(str(tmp_path))
        with pytest.raises(TraceValidationError, match="ghost-9"):
            validate_trace(collated)

    def test_validate_rejects_wrong_schema_version(self, tmp_path):
        _write_shard(tmp_path / "a.jsonl", [
            _meta_record("a"),
            _span_record("a-1", "root", 0.0, 1.0, process="a"),
        ])
        collated = collate_shards(str(tmp_path))
        collated["header"]["v"] = TRACE_SCHEMA_VERSION + 1
        with pytest.raises(TraceValidationError, match="version"):
            validate_trace(collated)


class TestCollationDeterminism:
    """Satellite: byte-identical collation regardless of interleaving."""

    PROCESSES = ("coord", "worker-coord-2", "worker-coord-3")

    def _records(self, rng):
        records = []
        serial = {process: 0 for process in self.PROCESSES}
        for _ in range(40):
            process = rng.choice(self.PROCESSES)
            serial[process] += 1
            span_id = f"{process}-{serial[process]}"
            # Coarse timestamps force plenty of ties, exercising the
            # kind-rank / span-id / canonical-JSON tiebreaks.
            start = rng.choice([0.0, 0.1, 0.2, 0.3])
            if rng.random() < 0.3:
                records.append(_event_record(
                    "progress", start, span=span_id, process=process,
                    attrs={"step": serial[process]},
                ))
            else:
                records.append(_span_record(
                    span_id, f"work:{serial[process]}", start,
                    start + 0.05, process=process,
                ))
        return records

    def _collate_bytes(self, tmp_path, name, records, rng):
        directory = tmp_path / name
        directory.mkdir()
        shards = {
            process: [_meta_record(process)]
            for process in self.PROCESSES
        }
        # Randomized interleaving: each record lands in a random
        # process's shard file, in random arrival order.
        shuffled = list(records)
        rng.shuffle(shuffled)
        for record in shuffled:
            shards[rng.choice(self.PROCESSES)].append(record)
        for process, assigned in shards.items():
            _write_shard(directory / f"{process}.jsonl", assigned)
        out = directory / "out.trace.jsonl"
        collate_to_file(str(directory), str(out))
        return out.read_bytes()

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_byte_identical_over_randomized_interleavings(
        self, tmp_path, seed
    ):
        rng = random.Random(seed)
        records = self._records(rng)
        reference = self._collate_bytes(
            tmp_path, "ref", records, random.Random(seed + 100)
        )
        for trial in range(3):
            again = self._collate_bytes(
                tmp_path, f"trial{trial}", records,
                random.Random(seed + 200 + trial),
            )
            assert again == reference

    def test_listing_order_independence(self, tmp_path, monkeypatch):
        rng = random.Random(7)
        records = self._records(rng)
        reference = self._collate_bytes(
            tmp_path, "ref", records, random.Random(8)
        )
        real_listdir = os.listdir
        monkeypatch.setattr(
            os, "listdir", lambda path: list(reversed(real_listdir(path)))
        )
        reversed_order = self._collate_bytes(
            tmp_path, "rev", records, random.Random(8)
        )
        assert reversed_order == reference


class TestRetryChainTracing:
    """Satellite: retries reuse the trace id, fresh span ids, and a
    ``retry_of`` link — visible in the collated timeline."""

    def _attempt_spans(self, trace_dir, label):
        collated = collate_shards(str(trace_dir))
        validate_trace(collated)
        spans = [
            record for record in collated["records"]
            if record["kind"] == "span"
            and record["name"] == f"attempt:{label}"
        ]
        spans.sort(key=lambda record: record["attrs"]["attempt"])
        return collated, spans

    def _assert_chain(self, collated, spans, statuses):
        assert [span["status"] for span in spans] == statuses
        assert len({span["trace_id"] for span in spans}) == 1
        assert len({span["span_id"] for span in spans}) == len(spans)
        for earlier, later in zip(spans, spans[1:]):
            assert later["attrs"]["retry_of"] == earlier["span_id"]
        assert "retry_of" not in spans[0]["attrs"]

    def test_inline_retry_chain(self, tmp_path):
        task = probe_task("flaky", ok_after=3,
                          meta={"label": "p"}, namespace="t")
        config = HarnessConfig(
            isolate=False, retry=RetryPolicy(max_retries=2),
            trace_dir=str(tmp_path / "trace"),
        )
        report = run_sweep("s", [task], config=config)
        assert report.completed == 1
        collated, spans = self._attempt_spans(tmp_path / "trace", "p")
        self._assert_chain(collated, spans, ["crash", "crash", "ok"])

    def test_pool_retry_chain(self, tmp_path):
        task = probe_task("flaky", ok_after=2,
                          meta={"label": "p"}, namespace="t")
        config = HarnessConfig(
            isolate=True, jobs=1, retry=RetryPolicy(max_retries=1),
            trace_dir=str(tmp_path / "trace"),
        )
        report = run_sweep("s", [task], config=config)
        assert report.completed == 1
        collated, spans = self._attempt_spans(tmp_path / "trace", "p")
        self._assert_chain(collated, spans, ["crash", "ok"])
        # Each attempt ran on its own worker process, in its own shard
        # named after the attempt span the coordinator minted.
        task_spans = [
            record for record in collated["records"]
            if record["kind"] == "span" and record["name"] == "task:probe"
        ]
        assert len(task_spans) == 2
        parents = {span["parent_id"] for span in task_spans}
        assert parents == {span["span_id"] for span in spans}

    def test_sigkilled_attempt_visible_in_chain(self, tmp_path):
        task = probe_task("hang", seconds=30.0,
                          meta={"label": "p"}, namespace="t")
        config = HarnessConfig(
            isolate=True, jobs=1, wall_seconds=0.3,
            retry=RetryPolicy(max_retries=1, time_factor=1.0),
            trace_dir=str(tmp_path / "trace"),
        )
        run_sweep("s", [task], config=config)
        collated, spans = self._attempt_spans(tmp_path / "trace", "p")
        self._assert_chain(collated, spans, ["hang", "hang"])
        assert all(span["attrs"].get("killed") for span in spans)
        # The SIGKILLed worker never ended its task span: it survives
        # collation as an open ``start`` record.
        open_tasks = [
            record for record in collated["records"]
            if record["kind"] == "start"
            and record["name"] == "task:probe"
        ]
        assert len(open_tasks) == 2
        assert collated["header"]["open_spans"] >= 2

    def test_oom_attempt_visible_in_chain(self, tmp_path):
        task = probe_task("oom", mbytes=4096,
                          meta={"label": "p"}, namespace="t")
        config = HarnessConfig(
            isolate=True, jobs=1, mem_limit_mb=128,
            retry=RetryPolicy(max_retries=1, mem_factor=1.0),
            trace_dir=str(tmp_path / "trace"),
        )
        run_sweep("s", [task], config=config)
        collated, spans = self._attempt_spans(tmp_path / "trace", "p")
        self._assert_chain(collated, spans, ["oom", "oom"])


class TestTracedPortfolioEndToEnd:
    def test_two_job_race_collates_to_causal_timeline(self, tmp_path):
        trace_dir = tmp_path / "trace"
        options = SynthesisOptions(
            trace_dir=str(trace_dir), stop_at_first=True, max_steps=20_000,
        )
        result = synthesize_portfolio(
            Permutation([1, 0, 3, 2, 5, 7, 4, 6]), options, jobs=2,
        )
        assert result.solved
        collated = collate_shards(str(trace_dir))
        validate_trace(collated)
        spans = [r for r in collated["records"] if r["kind"] == "span"]
        names = {span["name"] for span in spans}
        assert "portfolio" in names
        assert any(name.startswith("attempt:") for name in names)
        assert "task:portfolio" in names
        # Causal linkage: every task span's parent is an attempt span
        # minted by the coordinator; every attempt's parent is the root.
        by_id = {span["span_id"]: span for span in spans}
        root = next(s for s in spans if s["name"] == "portfolio")
        for span in spans:
            if span["name"] == "task:portfolio":
                attempt = by_id[span["parent_id"]]
                assert attempt["name"].startswith("attempt:")
                assert attempt["parent_id"] == root["span_id"]
        events = {
            record["name"]
            for record in collated["records"]
            if record["kind"] == "event"
        }
        assert "incumbent_arrived" in events
        assert "search_finished" in events

    def test_untraced_run_writes_nothing(self, tmp_path):
        options = SynthesisOptions(stop_at_first=True, max_steps=20_000)
        result = synthesize_portfolio(
            Permutation([1, 0, 3, 2, 5, 7, 4, 6]), options, jobs=2,
        )
        assert result.solved
        assert list(tmp_path.iterdir()) == []

    def test_trace_dir_never_enters_task_fingerprint(self):
        from repro.harness.tasks import permutation_task

        bare = permutation_task([1, 0, 2, 3], options=SynthesisOptions())
        traced = permutation_task(
            [1, 0, 2, 3],
            options=SynthesisOptions(trace_dir="/tmp/somewhere"),
        )
        assert bare.task_id == traced.task_id


class TestCliTracing:
    def _trace_dir(self, tmp_path):
        directory = tmp_path / "trace"
        session = TraceSession.create(str(directory))
        root = session.begin_span("sweep:demo")
        child = session.begin_span("attempt:x", parent=root)
        child.end(status="ok")
        root.end(status="ok")
        session.close()
        return directory

    def test_collate_command(self, tmp_path, capsys):
        from repro.cli import main

        directory = self._trace_dir(tmp_path)
        assert main(["trace", "collate", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "collated.trace.jsonl" in out
        collated_path = directory / "collated.trace.jsonl"
        with open(collated_path) as handle:
            collated = validate_trace(load_collated(handle))
        names = [r["name"] for r in collated["records"] if r["kind"] == "span"]
        assert sorted(names) == ["attempt:x", "sweep:demo"]

    def test_collate_output_inside_shard_dir_is_not_a_shard(
        self, tmp_path, capsys,
    ):
        # A collated file written into the shard directory, under any
        # name, must not be read back as a shard by the next collate.
        from repro.cli import main

        directory = self._trace_dir(tmp_path)
        merged = directory / "merged.jsonl"
        assert main(["trace", "collate", str(directory), "-o",
                     str(merged)]) == 0
        first = merged.read_text()
        again = tmp_path / "again.jsonl"
        assert main(["trace", "collate", str(directory), "-o",
                     str(again)]) == 0
        capsys.readouterr()
        assert again.read_text() == first
        with open(again) as handle:
            header = load_collated(handle)["header"]
        assert header["shards"] == ["coord.jsonl"]

    def test_collate_missing_dir_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", "collate", str(tmp_path / "absent")]) == 2
        assert "collate failed" in capsys.readouterr().err

    def test_synth_jobs_trace_dir_shards_collate(self, tmp_path, capsys):
        from repro.cli import main

        trace_dir = tmp_path / "trace"
        code = main([
            "synth", "--spec", "1,0,3,2,5,7,4,6", "--jobs", "2",
            "--trace-dir", str(trace_dir),
        ])
        capsys.readouterr()
        assert code == 0
        collated = validate_trace(collate_shards(str(trace_dir)))
        assert len(collated["header"]["shards"]) >= 3
        names = {r["name"] for r in collated["records"] if r["kind"] == "span"}
        assert "portfolio" in names and "task:portfolio" in names


class TestSpanProgressObserver:
    def test_events_flow_to_shard(self, tmp_path):
        from repro.synth.rmrls import synthesize

        session = TraceSession.create(str(tmp_path))
        span = session.begin_span("task:perm")
        observer = ProgressObserver(every=8, session=session, span=span)
        result = synthesize(
            Permutation([1, 0, 3, 2, 5, 7, 4, 6]),
            SynthesisOptions(observers=(observer,)),
        )
        span.end(status="ok")
        session.close()
        assert result.solved
        collated = collate_shards(str(tmp_path))
        events = [
            record for record in collated["records"]
            if record["kind"] == "event"
        ]
        names = {event["name"] for event in events}
        assert "progress" in names
        assert "solution_found" in names
        assert "search_finished" in names
        assert all(
            event["span_id"] == span.span_id for event in events
        )

    def test_every_must_be_positive(self):
        with pytest.raises(ValueError):
            ProgressObserver(every=0, session=None)
