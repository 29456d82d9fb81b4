"""The corpus-backed regression oracle.

``results/coverage3.jsonl`` records the best-known gate count for every
canonical class of 3-variable reversible functions.  These tests hold
every engine to that standard: re-synthesizing a seeded sample of
classes must never need *more* gates than the corpus records.  A
regression fails with a per-class diff table, because "the engine got
worse on these 7 functions" is actionable and "assert failed" is not.

``RMRLS_CORPUS`` points the suite at an alternative coverage file —
the CI smoke job builds a 2-shard slice from scratch and runs this
same suite against it.  The deep pass (2,000 classes, every engine)
runs under ``RMRLS_SLOW=1``.
"""

import os
import random
from collections import Counter
from pathlib import Path

import pytest

from repro.baselines.optimal import optimal_distances
from repro.cli import main
from repro.functions.permutation import Permutation
from repro.harness.tasks import options_from_payload
from repro.sweeps import (
    circuit_from_record,
    coverage_histogram,
    get_universe,
    load_coverage,
    validate_coverage,
)
from repro.sweeps.manifest import load_manifest
from repro.synth import rmrls
from repro.synth.rmrls import synthesize

from conftest import SEARCH_BACKENDS

DEFAULT_CORPUS = (
    Path(__file__).resolve().parent.parent / "results" / "coverage3.jsonl"
)
CORPUS_PATH = Path(os.environ.get("RMRLS_CORPUS") or DEFAULT_CORPUS)

#: Seeded sample sizes: the fast pass splits ~300 classes between the
#: three engines; the slow pass deep-checks 2,000.
SAMPLE_PER_ENGINE = 100
SLOW_SAMPLE_TOTAL = 2000

_SEED = 0xC0FFEE


def _corpus():
    if not CORPUS_PATH.exists():
        pytest.skip(f"coverage corpus not found at {CORPUS_PATH}")
    return load_coverage(str(CORPUS_PATH))


def _is_committed_full_corpus(header) -> bool:
    """True for the repository's full 40,320-function corpus (as
    opposed to a CI slice pointed at via RMRLS_CORPUS)."""
    return (
        header.get("universe") == "perm3"
        and header.get("items") == get_universe("perm3").size
    )


def _sample_solved(records, count, seed):
    solved = [record for record in records if record.get("status") == "ok"]
    if not solved:
        pytest.skip("corpus has no solved classes to sample")
    rng = random.Random(seed)
    if count >= len(solved):
        return solved
    return rng.sample(solved, count)


def _resynthesize_and_diff(records, header, engine, monkeypatch):
    """Re-synthesize ``records`` under ``engine``; return regressions."""
    options = options_from_payload(dict(header.get("options") or {}))
    monkeypatch.setattr(rmrls, "search_engine", SEARCH_BACKENDS[engine])
    regressions = []
    for record in records:
        spec = Permutation(list(record["images"]))
        result = synthesize(spec, options)
        if not result.solved:
            regressions.append((record, None))
        elif result.circuit.gate_count() > record["gates"]:
            regressions.append((record, result.circuit.gate_count()))
    return regressions


def _fail_with_diff_table(engine, regressions, total):
    rows = [
        f"  {'class':>6}  {'images':<26}  {'best-known':>10}  {'now':>5}",
    ]
    for record, gates in regressions:
        rows.append(
            f"  {record['class_rank']:>6}  "
            f"{str(record['images']):<26}  "
            f"{record['gates']:>10}  "
            f"{'unsolved' if gates is None else gates:>5}"
        )
    pytest.fail(
        f"engine '{engine}' regressed {len(regressions)}/{total} sampled "
        f"classes against the coverage corpus:\n" + "\n".join(rows),
        pytrace=False,
    )


class TestCorpusIntegrity:
    def test_corpus_validates_with_replay(self):
        _corpus()
        report = validate_coverage(str(CORPUS_PATH), replay=32)
        assert report["records"] > 0
        assert report["replayed"] > 0

    def test_committed_corpus_covers_all_40320_functions(self):
        header, records = _corpus()
        if not _is_committed_full_corpus(header):
            pytest.skip("RMRLS_CORPUS points at a partial slice")
        assert header["items"] == 6828
        assert len(records) == 6828
        assert sum(record["class_size"] for record in records) == 40320
        assert all(record["status"] == "ok" for record in records)

    def test_histogram_agrees_with_paper_table1(self):
        """The corpus's weighted gate-count distribution must sit in the
        ballpark Table I establishes for the paper's own NCT run: no
        function above the optimal-NCT bound plus slack, and an average
        close to the published 6.10."""
        from repro.experiments.paper_data import TABLE1, TABLE1_AVERAGES

        header, records = _corpus()
        if not _is_committed_full_corpus(header):
            pytest.skip("RMRLS_CORPUS points at a partial slice")
        histogram = coverage_histogram(records, weighted=True)
        assert sum(histogram.values()) == 40320
        # Nothing may beat 0 gates, and the worst class must stay
        # within the paper's observed NCT worst case (9) + 1 slack.
        assert min(histogram) >= 0
        assert max(histogram) <= max(TABLE1["ours_nct"]) + 1
        # The identity is the unique 0-gate function; 12 NOT-only
        # functions need exactly 1 gate.  These small classes are
        # search-order independent and must match the paper exactly.
        assert histogram[0] == TABLE1["ours_nct"][0] == 1
        assert histogram[1] == TABLE1["ours_nct"][1] == 12
        average = (
            sum(gates * count for gates, count in histogram.items()) / 40320
        )
        assert abs(average - TABLE1_AVERAGES["ours_nct"]) < 0.15


class TestCommittedFilesStillLoad:
    """The committed ``results/coverage3.*`` files predate the width
    rule: their headers pin ``options.engine = "packed"``, an option
    that no longer exists.  They must keep loading and backing Table I
    byte-for-byte as committed."""

    RESULTS = DEFAULT_CORPUS.parent

    def test_header_still_records_the_old_engine_option(self):
        header, records = load_coverage(str(DEFAULT_CORPUS))
        assert header["options"]["engine"] == "packed"
        assert len(records) == 6828
        report = validate_coverage(str(DEFAULT_CORPUS), replay=8)
        assert report["complete"] and report["replayed"] > 0

    def test_engine_key_goes_through_options_from_payload(self):
        header, _records = load_coverage(str(DEFAULT_CORPUS))
        options = options_from_payload(dict(header["options"]))
        assert not hasattr(options, "engine")
        assert options.max_steps == header["options"]["max_steps"]
        assert options_from_payload({"engine": "reference"}) \
            == options_from_payload({})

    def test_manifest_fingerprint_still_verifies(self):
        manifest = load_manifest(
            str(self.RESULTS / "coverage3.manifest.json")
        )
        assert manifest.fingerprint == "6a49823bab04a58e"
        assert manifest.items == 6828

    def test_backs_table1_corpus(self, capsys):
        code = main(
            ["table1", "--corpus", str(DEFAULT_CORPUS), "--sample", "0"]
        )
        assert code == 0
        assert "measured avg: 6.11" in capsys.readouterr().out


class TestCorpusRegression:
    @pytest.mark.parametrize("engine", ["reference", "packed", "lanes"])
    def test_sampled_classes_not_regressed(self, engine, monkeypatch):
        header, records = _corpus()
        sample = _sample_solved(
            records, SAMPLE_PER_ENGINE,
            _SEED + {"reference": 1, "packed": 2, "lanes": 3}[engine],
        )
        regressions = _resynthesize_and_diff(
            sample, header, engine, monkeypatch
        )
        if regressions:
            _fail_with_diff_table(engine, regressions, len(sample))

    @pytest.mark.slow
    @pytest.mark.parametrize("engine", ["reference", "packed", "lanes"])
    def test_deep_pass_2000_classes(self, engine, monkeypatch):
        header, records = _corpus()
        sample = _sample_solved(
            records, SLOW_SAMPLE_TOTAL // 2, _SEED ^ 0x510
        )
        regressions = _resynthesize_and_diff(
            sample, header, engine, monkeypatch
        )
        if regressions:
            _fail_with_diff_table(engine, regressions, len(sample))


class TestTable1FromCorpus:
    def test_ours_column_comes_from_corpus_without_synthesis(self):
        from repro.experiments.table1 import run_table1

        header, records = _corpus()
        results = run_table1(
            sample=0, include_miller=False, corpus=str(CORPUS_PATH)
        )
        ours = results["ours_nct"]
        assert ours.histogram == dict(
            sorted(coverage_histogram(records, weighted=True).items())
        )
        assert ours.attempted == header["functions"]
        assert "sweep" not in ours.extras  # no synthesis ran
        assert ours.extras["corpus"]["body_digest"] == \
            header["body_digest"]
        # The exhaustive optimal columns still compute live.
        assert results["optimal_nct"].attempted > 0


class TestCorpusAsOracle:
    def test_recorded_circuits_simulate_their_class(self, rng):
        header, records = _corpus()
        for record in rng.sample(
            [r for r in records if r.get("status") == "ok"],
            min(50, len(records)),
        ):
            circuit = circuit_from_record(record)
            assert circuit.implements(Permutation(list(record["images"])))
            assert circuit.gate_count() == record["gates"]

    def test_corpus_inverse_circuits_compute_inverse_functions(self, rng):
        """Inverse-of-circuit is the free second oracle: the reversed
        cascade must simulate to the representative's inverse."""
        header, records = _corpus()
        for record in rng.sample(
            [r for r in records if r.get("status") == "ok"],
            min(25, len(records)),
        ):
            spec = Permutation(list(record["images"]))
            inverse = circuit_from_record(record).inverse()
            assert inverse.implements(spec.inverse())

    def test_no_class_beats_its_exact_optimum(self):
        """Every class against the exact BFS optimum: a class below it
        would be an unsound circuit.  On the committed corpus the
        weighted gap histogram is pinned as well."""
        header, records = _corpus()
        optimum = optimal_distances(3)
        functions, classes, beaten = Counter(), Counter(), []
        for record in records:
            if record.get("status") != "ok":
                continue
            gap = record["gates"] - optimum[tuple(record["images"])]
            if gap < 0:
                beaten.append((record["class_rank"], record["gates"], gap))
            functions[gap] += record["class_size"]
            classes[gap] += 1
        assert not beaten, f"classes below the optimum: {beaten[:10]}"
        if not _is_committed_full_corpus(header):
            return
        assert functions == {0: 31080, 1: 8799, 2: 441}
        assert classes == {0: 5271, 1: 1481, 2: 76}
        mean = sum(gap * count for gap, count in functions.items()) / 40320
        assert mean == pytest.approx(0.2401, abs=5e-5)
