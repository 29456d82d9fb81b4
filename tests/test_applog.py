"""The shared append-log primitive (repro.applog) and its four real logs.

Property tests run over a sweep ledger, a trace shard, a store segment
and a flight decisions sidecar, each written by its production writer:
a truncation anywhere inside the last line costs at most that line,
and a flipped value byte in any interior line costs exactly that line.
A guard test keeps CRC, fsync and atomic-rename code from regrowing
outside ``repro/applog.py``.
"""

import ast
import io
import json
import os
from pathlib import Path

import pytest

from repro.applog import (
    AppendLog,
    atomic_write,
    checksum,
    encode_line,
    read_log,
)
from repro.circuits.circuit import Circuit
from repro.functions.permutation import Permutation
from repro.gates.toffoli import ToffoliGate
from repro.harness import SweepLedger, TaskOutcome, read_ledger
from repro.obs import JsonlTraceObserver
from repro.obs.flight import FlightRecorder
from repro.store import CircuitStore, canonicalize
from repro.synth.rmrls import synthesize

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _write_ledger(tmp_path):
    path = str(tmp_path / "ledger.jsonl")
    with SweepLedger(path, sweep="s") as ledger:
        for index in range(5):
            ledger.record(TaskOutcome(
                task_id=f"task{index}", status="ok", gate_count=index + 2,
                circuit=".version 1.0\n.numvars 3\n",
            ))
    return path


def _write_search_trace(tmp_path):
    path = str(tmp_path / "search.jsonl")
    with JsonlTraceObserver.open(path) as observer:
        synthesize(Permutation([1, 0, 7, 2, 3, 4, 5, 6]),
                   observers=(observer,))
    return path


def _write_store_segment(tmp_path):
    root = str(tmp_path / "store")
    store = CircuitStore(root, fsync=False)
    # Five circuits in five distinct relabeling classes.
    for gates in (
        [ToffoliGate(0, 0)],
        [ToffoliGate(0, 0), ToffoliGate(0, 1)],
        [ToffoliGate(0, 0), ToffoliGate(0, 1), ToffoliGate(0, 2)],
        [ToffoliGate(0b001, 1)],
        [ToffoliGate(0b011, 2)],
    ):
        circuit = Circuit(3, gates)
        store.put(canonicalize(circuit.to_permutation()), circuit)
    store.close()
    (name,) = os.listdir(os.path.join(root, "segments"))
    return os.path.join(root, "segments", name)


def _write_decisions(tmp_path):
    recorder = FlightRecorder(
        str(tmp_path / "w.ring"), meta={"process": "t"}, faults="none"
    )
    for index in range(5):
        recorder.decision("bound_adopted", poll=index + 1, depth=20 - index)
    recorder.close()
    return str(tmp_path / "w.ring.decisions.jsonl")


WRITERS = {
    "ledger": _write_ledger,
    "search_trace": _write_search_trace,
    "store_segment": _write_store_segment,
    "decisions": _write_decisions,
}


def _values(scan):
    return [record for _, record in scan.records]


def _flips(line: str):
    """Yield ``line`` with one byte changed inside each top-level string
    or integer value, keeping the JSON well-formed."""
    for key, value in json.loads(line).items():
        if key == "sum" or isinstance(value, bool):
            continue
        if not isinstance(value, (str, int)):
            continue
        token = json.dumps(value)
        start = line.index(f'"{key}":{token}') + len(key) + 3
        if isinstance(value, int):
            offset = len(token) - 1
        else:
            text = token[1:-1].split("\\")[0]
            alnum = [i for i, char in enumerate(text) if char.isalnum()]
            if not alnum:
                continue
            offset = alnum[0] + 1
        char = line[start + offset]
        if char.isdigit():
            new = str((int(char) + 1) % 10)
        else:
            new = "b" if char != "b" else "c"
        yield line[: start + offset] + new + line[start + offset + 1:]


@pytest.fixture(params=sorted(WRITERS))
def log_path(request, tmp_path):
    return WRITERS[request.param](tmp_path)


class TestProperties:
    def test_every_line_carries_a_valid_sum(self, log_path):
        lines = Path(log_path).read_text().splitlines()
        assert len(lines) >= 5
        for line in lines:
            record = json.loads(line)
            assert record["sum"] == checksum(record)
            assert line == encode_line(record)

    def test_truncation_inside_last_line_keeps_the_prefix(self, log_path):
        data = Path(log_path).read_bytes()
        intact = _values(read_log(log_path))
        assert len(intact) == data.count(b"\n")
        start = data.rindex(b"\n", 0, len(data) - 1) + 1
        for cut in range(start, len(data)):
            scan = read_log(io.BytesIO(data[:cut]))
            kinds = [problem["kind"] for problem in scan.problems]
            if cut == len(data) - 1:  # only the newline is missing
                assert _values(scan) == intact and kinds == []
                continue
            assert _values(scan) == intact[:-1], cut
            assert kinds == ([] if cut == start else ["torn"]), cut

    def test_value_flip_in_interior_line_drops_only_that_line(
        self, log_path
    ):
        lines = Path(log_path).read_text().splitlines()
        intact = _values(read_log(log_path))
        flips = 0
        for index in range(1, len(lines) - 1):
            for flipped in _flips(lines[index]):
                damaged = lines[:index] + [flipped] + lines[index + 1:]
                scan = read_log(io.StringIO("\n".join(damaged) + "\n"))
                assert scan.problems == [
                    {"line": index + 1, "kind": "checksum", "raw": flipped}
                ]
                assert _values(scan) == intact[:index] + intact[index + 1:]
                flips += 1
        assert flips >= 3


class TestReader:
    def test_lines_without_sum_still_read(self):
        scan = read_log(io.StringIO('{"a":1}\n{"b":2,"sum":"00000000"}\n'))
        assert _values(scan) == [{"a": 1}]
        assert [p["kind"] for p in scan.problems] == ["checksum"]

    def test_problem_kinds(self):
        text = (
            encode_line({"kind": "x"}) + "\n"
            + "not json\n"
            + encode_line({"other": 1}) + "\n"
            + '{"kind": "y"'
        )
        scan = read_log(
            io.StringIO(text), lambda r: r if "kind" in r else None
        )
        assert _values(scan) == [{"kind": "x"}]
        assert [(p["line"], p["kind"]) for p in scan.problems] == [
            (2, "malformed"), (3, "rejected"), (4, "torn"),
        ]

    def test_accept_value_is_kept_and_errors_reject(self):
        text = encode_line({"n": 2}) + "\n" + encode_line({"m": 1}) + "\n"
        scan = read_log(io.StringIO(text), lambda record: record["n"] * 10)
        assert scan.records == [(1, 20)]
        assert scan.problems[0]["kind"] == "rejected"

    def test_append_log_and_atomic_write(self, tmp_path):
        path = str(tmp_path / "sub" / "log.jsonl")
        for truncate, value in ((False, 1), (False, 2), (True, 3)):
            log = AppendLog(path, truncate=truncate)
            log.write({"a": value})
            log.close()
            if value == 2:
                assert _values(read_log(path)) == [{"a": 1}, {"a": 2}]
        assert _values(read_log(path)) == [{"a": 3}]
        target = tmp_path / "doc.json"  # paths may be PathLike
        atomic_write(target, "old\n")
        atomic_write(target, "new\n", fsync=False)
        assert Path(target).read_text() == "new\n"
        assert sorted(os.listdir(tmp_path)) == ["doc.json", "sub"]


class TestLedgerDamage:
    def test_torn_header_loads_empty_and_resumes(self, tmp_path):
        # SIGKILL between creating the ledger and its first flush: the
        # file holds half a header line and nothing else.
        path = str(tmp_path / "ledger.jsonl")
        SweepLedger(path, sweep="s").open().close()
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[: len(data) // 2])
        ledger = SweepLedger(path, sweep="s")
        assert ledger.load() == {}
        assert ledger.skipped_lines == 0
        with ledger:
            ledger.record(TaskOutcome(task_id="aaa", status="ok"))
        reloaded = SweepLedger(path, sweep="s")
        assert set(reloaded.load()) == {"aaa"}
        assert reloaded.skipped_lines == 0
        assert len(Path(path).read_text().splitlines()) == 2

    def test_terminated_foreign_header_still_refused(self, tmp_path):
        # Complete but unterminated, and terminated but unparseable:
        # neither is a header torn mid-write.
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"schema": "something-else"}')
        with pytest.raises(ValueError, match="not a"):
            SweepLedger(str(path), sweep="s").load()
        path.write_text("half a header\n")
        with pytest.raises(ValueError, match="not a"):
            SweepLedger(str(path), sweep="s").load()

    def test_edited_gate_count_is_skipped_and_counted(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with SweepLedger(path, sweep="s") as ledger:
            ledger.record(TaskOutcome(task_id="aaa", status="ok",
                                      gate_count=3))
            ledger.record(TaskOutcome(task_id="bbb", status="ok",
                                      gate_count=3))
        text = Path(path).read_text()
        lines = text.splitlines(keepends=True)
        lines[1] = lines[1].replace('"gate_count":3', '"gate_count":2')
        Path(path).write_text("".join(lines))
        ledger = SweepLedger(path, sweep="s")
        assert set(ledger.load()) == {"bbb"}
        assert ledger.skipped_lines == 1
        assert read_ledger(path)["skipped_lines"] == 1


def _calls(tree, module, names):
    """Yield line numbers of ``module.name(...)`` calls in ``tree``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == module
            and node.attr in names
        ):
            yield node.lineno


class TestOnePrimitive:
    def test_crc_fsync_and_replace_live_only_in_applog(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            relative = path.relative_to(SRC).as_posix()
            if relative == "applog.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            # The flight recorder's binary mmap ring keeps its own
            # per-slot CRC; it is not a JSONL log.
            allowed_crc = {
                line
                for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "RingFile"
                for line in range(node.lineno, node.end_lineno + 1)
            }
            for line in _calls(tree, "zlib", {"crc32"}):
                if line not in allowed_crc:
                    offenders.append(f"{relative}:{line} zlib.crc32")
            for line in _calls(tree, "os", {"fsync", "replace", "rename"}):
                offenders.append(f"{relative}:{line} os fsync/replace")
        assert offenders == [], (
            "CRC, fsync and atomic rename belong in repro/applog.py: "
            + ", ".join(offenders)
        )
