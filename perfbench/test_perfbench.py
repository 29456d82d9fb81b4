"""Unit tests of the benchmark's own pieces (no search is run).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import inputs  # noqa: E402
from measure import (  # noqa: E402
    NullTracer,
    SpeedProbe,
    Tracer,
    count_summary,
    split_by_outcome,
    tail_percentile,
)


class TestTailPercentile:
    def test_twenty_samples_give_the_median(self):
        value, percentile, count = tail_percentile(range(1, 21))
        assert (value, percentile, count) == (10, 50.0, 20)

    def test_hundred_samples_give_p90_not_p95(self):
        value, percentile, count = tail_percentile(range(1, 101))
        assert (value, percentile, count) == (90, 90.0, 100)

    def test_ten_samples_beyond_are_required(self):
        for count in (200, 1000, 5000):
            values = list(range(count))
            value, percentile, _ = tail_percentile(values)
            beyond = sum(1 for v in values if v > value)
            assert beyond >= 10
            higher = [p for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
                      if p > percentile]
            for p in higher:
                rank = -(-p * count // 100)
                assert count - rank < 10

    def test_too_few_samples(self):
        assert tail_percentile(range(19)) is None

    def test_order_does_not_matter(self):
        values = list(range(50))
        random.Random(3).shuffle(values)
        assert tail_percentile(values) == tail_percentile(sorted(values))

    def test_min_inputs_is_the_smallest_sample_above_the_median(self):
        from workloads import MIN_INPUTS

        assert tail_percentile(range(MIN_INPUTS))[1] > 50
        assert tail_percentile(range(MIN_INPUTS - 1))[1] == 50

    def test_default_sizes_report_a_tail_above_the_median(self):
        from workloads import WORKLOADS

        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            seconds = json.load(handle)["run_seconds"]
        for workload in WORKLOADS.values():
            count = workload.size(seconds)
            assert tail_percentile(range(count))[1] > 50, workload.name


def test_split_by_outcome_keeps_arrival_order():
    samples = [("hit", 1.0), ("miss", 9.0), ("hit", 2.0), ("miss", 7.0),
               ("error", 0.5)]
    assert split_by_outcome(samples) == {
        "hit": [1.0, 2.0], "miss": [9.0, 7.0], "error": [0.5],
    }


def test_count_summary_digests_sequences():
    summary = count_summary({"steps": 40, "gates": (3, 5), "rate": 0.5})
    assert list(summary) == ["gates", "rate", "steps"]
    assert summary["steps"] == 40 and summary["rate"] == 0.5
    assert summary["gates"].startswith("2:")
    assert summary == count_summary({"gates": [3, 5], "steps": 40,
                                     "rate": 0.5})
    assert summary != count_summary({"steps": 40, "gates": (5, 3),
                                     "rate": 0.5})
    json.dumps(summary)


def test_tracer_self_time_excludes_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 10.0, 11.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer", request=7):
        with tracer.span("inner", request=7):
            pass
        with tracer.span("inner", request=7):
            pass
    # outer 0..11, inner 1..3 and 4..10
    assert tracer.self_times() == {"outer": 11.0 - 2.0 - 6.0, "inner": 8.0}
    assert [span["parent"] for span in tracer.spans] == [None, 0, 0]
    assert {span["request"] for span in tracer.spans} == {7}


def test_null_tracer_records_nothing():
    tracer = NullTracer()
    with tracer.span("anything", request=1):
        pass
    assert not tracer.spans


def test_speed_probe_samples_on_its_interval():
    now = [0.0]

    def loop():  # twice the nominal calibration time
        now[0] += 0.01

    probe = SpeedProbe(interval=0.1, clock=lambda: now[0], loop=loop)
    probe.maybe_sample()
    now[0] += 0.05
    probe.maybe_sample()  # 0.06: not due until 0.11
    now[0] += 0.06
    probe.maybe_sample()
    assert len(probe.samples) == 2
    assert probe.seconds == pytest.approx(0.02)
    assert probe.factor() == pytest.approx(2.0)


def test_speed_probe_local_factor_uses_the_nearest_samples():
    now = [0.0]
    durations = iter([0.005] * 5 + [0.015] * 5)

    def loop():
        now[0] += next(durations)

    probe = SpeedProbe(interval=0.0, clock=lambda: now[0], loop=loop)
    for _ in range(10):
        probe.maybe_sample()
        now[0] += 1.0
    assert probe.local_factor(probe.times[1]) == pytest.approx(1.0)
    assert probe.local_factor(probe.times[8]) == pytest.approx(3.0)
    assert probe.local_factor(-5.0) == pytest.approx(1.0)
    assert probe.local_factor(99.0) == pytest.approx(3.0)


def test_reference_times_scale_each_call_by_its_own_speed():
    from workloads import PassResult

    run = PassResult(wall=10.0, latencies=[("solved", 2.0), ("solved", 6.0)],
                     speed=2.0, call_speeds=[1.0, 3.0])
    assert run.reference_latencies() == [2.0, 2.0]
    # 2 s between the calls, at the pass mean speed
    assert run.reference_wall() == pytest.approx(2.0 + 2.0 + 1.0)
    raw = PassResult(wall=10.0, latencies=[("hit", 2.0)])
    assert raw.reference_latencies() == [2.0]
    assert raw.reference_wall() == 10.0
    # serve_mix: hits divided by the null round-trip slowdown, misses
    # and the time between requests raw
    served = PassResult(wall=10.0, latencies=[("hit", 2.0), ("miss", 6.0)],
                        call_speeds=[2.0, 1.0], ipc=2.0)
    assert served.reference_latencies() == [1.0, 6.0]
    assert served.reference_wall() == pytest.approx(1.0 + 6.0 + 2.0)


def test_speed_probe_median_factor_ignores_stalls():
    now = [0.0]
    durations = iter([0.001] * 4 + [0.1])

    def loop():
        now[0] += next(durations)

    probe = SpeedProbe(interval=0.0, clock=lambda: now[0], loop=loop,
                       nominal=0.001)
    for _ in range(5):
        probe.maybe_sample()
    assert probe.median_factor() == pytest.approx(1.0)
    assert probe.factor() == pytest.approx(20.8)


def test_null_server_answers_each_round_trip(tmp_path):
    import threading

    import null_server

    path = str(tmp_path / "null.sock")
    server = null_server.NullServer(path, null_server._Handler)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01})
    thread.start()
    try:
        for _ in range(3):
            response = null_server.round_trip(path)
            assert json.loads(response) == {"op": "null", "status": "ok"}
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


class TestGenerators:
    def test_table2_specs_repeat_per_seed(self):
        costs = [index % 50 for index in range(inputs.TABLE2_POOL_SIZE)]
        specs = inputs.table2_specs(costs, 5, 12)
        assert specs == inputs.table2_specs(costs, 5, 12)
        assert specs != inputs.table2_specs(costs, 6, 12)
        pool = inputs.table2_pool()
        assert pool == inputs.table2_pool()
        for images in specs:
            assert images in pool
            assert sorted(images) == list(range(16))

    def test_relabel_is_a_wire_renaming(self):
        images = list(range(8))
        random.Random(1).shuffle(images)
        assert inputs.relabel(images, (0, 1, 2)) == images
        swapped = inputs.relabel(images, (1, 0, 2))
        assert sorted(swapped) == list(range(8))
        assert inputs.relabel(swapped, (1, 0, 2)) == images

    def test_stratified_ranks_take_one_class_per_stratum(self):
        costs = [rank % 37 for rank in range(370)]
        ranks = inputs.stratified_ranks(costs, 4, 10, "t")
        assert ranks == inputs.stratified_ranks(costs, 4, 10, "t")
        assert ranks != inputs.stratified_ranks(costs, 5, 10, "t")
        ordered = sorted(range(370), key=lambda rank: (costs[rank], rank))
        strata = sorted(ordered.index(rank) // 37 for rank in ranks)
        assert strata == list(range(10))

    def _corpus(self, size=300):
        rng = random.Random(0)
        records = []
        for _ in range(size):
            images = list(range(8))
            rng.shuffle(images)
            records.append({"images": images})
        return records, [rank % 100 for rank in range(size)]

    def test_serve_stream_repeats_per_seed(self):
        records, costs = self._corpus()
        first = inputs.serve_stream(records, costs, 3, 80, light_cost=20)
        assert first == inputs.serve_stream(records, costs, 3, 80, 20)
        assert first != inputs.serve_stream(records, costs, 4, 80, 20)

    def test_serve_stream_mix(self):
        records, costs = self._corpus()
        stream = inputs.serve_stream(records, costs, 3, 80, light_cost=20)
        kinds = [request.kind for request in stream.requests]
        assert len(kinds) == 80
        assert kinds.count("miss") == 12
        assert kinds.count("seeded") + kinds.count("repeat") == 68
        seen = set()
        for request in stream.requests:
            if request.kind == "miss":
                assert request.rank not in seen
                assert costs[request.rank] <= 20
                assert request.rank not in stream.seeded_ranks
            elif request.kind == "repeat":
                assert request.rank in seen
            else:
                assert request.rank in stream.seeded_ranks
            seen.add(request.rank)
            assert sorted(request.images) == list(range(8))
