"""Tests for the Linear Road subsystem: generator, queries, validation.

The flagship property: the DataCell network's outputs are *batch
invariant* — replaying the same log one tick at a time or all at once
yields identical tolls/alerts — and always match the independent
sequential oracle.
"""

import pytest

from repro.linearroad import (
    LinearRoadConfig,
    LinearRoadGenerator,
    LinearRoadHarness,
    LinearRoadReference,
    toll_formula,
)
from repro.linearroad.model import (
    NUM_SEGMENTS,
    REPORT_INTERVAL,
    PositionReport,
)
from repro.errors import LinearRoadError


SMALL = LinearRoadConfig(
    scale=0.5, duration=300, cars_per_minute=60,
    accident_probability=0.01, seed=13,
)

CONGESTED = LinearRoadConfig(
    scale=0.5, duration=360, cars_per_minute=400,
    accident_probability=0.004, seed=11,
)


class TestModel:
    def test_toll_formula(self):
        assert toll_formula(50) == 0
        assert toll_formula(51) == 2
        assert toll_formula(60) == 200
        assert toll_formula(10) == 0

    def test_config_validation(self):
        with pytest.raises(LinearRoadError):
            LinearRoadConfig(scale=0)
        with pytest.raises(LinearRoadError):
            LinearRoadConfig(duration=-1)

    def test_num_xways_scales(self):
        assert LinearRoadConfig(scale=0.5).num_xways == 1
        assert LinearRoadConfig(scale=1.0).num_xways == 1
        assert LinearRoadConfig(scale=2.0).num_xways == 2

    def test_report_as_row(self):
        r = PositionReport(30, 1, 55, 0, 2, 0, 42, 42 * 5280)
        assert r.as_row() == (30, 1, 55, 0, 2, 0, 42, 221760)


class TestGenerator:
    def test_deterministic(self):
        a = LinearRoadGenerator(SMALL).generate()
        b = LinearRoadGenerator(SMALL).generate()
        assert a == b

    def test_reports_time_ordered(self):
        reports = LinearRoadGenerator(SMALL).generate()
        times = [r.t for r in reports]
        assert times == sorted(times)

    def test_reports_in_domain(self):
        for r in LinearRoadGenerator(SMALL).generate():
            assert 0 <= r.seg < NUM_SEGMENTS
            assert 0 <= r.speed <= 100
            assert r.dir in (0, 1)
            assert 0 <= r.lane <= 4
            assert r.t % REPORT_INTERVAL == 0

    def test_one_report_per_car_per_tick(self):
        reports = LinearRoadGenerator(SMALL).generate()
        seen = set()
        for r in reports:
            key = (r.t, r.vid)
            assert key not in seen
            seen.add(key)

    def test_accidents_occur(self):
        gen = LinearRoadGenerator(SMALL)
        gen.generate()
        assert gen.accidents_caused > 0

    def test_stopped_cars_repeat_position(self):
        reports = LinearRoadGenerator(SMALL).generate()
        by_vid = {}
        stopped_repeats = 0
        for r in reports:
            prev = by_vid.get(r.vid)
            if prev and r.speed == 0 and prev.speed == 0 and r.pos == prev.pos:
                stopped_repeats += 1
            by_vid[r.vid] = r
        assert stopped_repeats > 0

    def test_balance_requests_reference_real_vids(self):
        gen = LinearRoadGenerator(SMALL)
        reports = gen.generate()
        vids = {r.vid for r in reports}
        requests = gen.balance_requests(reports, rate=0.05)
        assert requests, "some requests generated"
        for t, vid, qid in requests:
            assert vid in vids


class TestReference:
    def test_reference_is_idempotent(self):
        reports = LinearRoadGenerator(SMALL).generate()
        ref = LinearRoadReference(reports).compute()
        tolls_before = list(ref.tolls)
        ref.compute()
        assert ref.tolls == tolls_before

    def test_congested_reference_produces_tolls(self):
        reports = LinearRoadGenerator(CONGESTED).generate()
        ref = LinearRoadReference(reports).compute()
        nonzero = [t for t in ref.tolls if t[3] > 0]
        assert nonzero, "congested scenario must assess tolls"

    def test_accident_scenario_produces_alerts(self):
        reports = LinearRoadGenerator(CONGESTED).generate()
        ref = LinearRoadReference(reports).compute()
        assert ref.alerts, "pile-ups must trigger alerts"

    def test_balances_accumulate(self):
        reports = LinearRoadGenerator(CONGESTED).generate()
        ref = LinearRoadReference(reports).compute()
        paying = [v for v, toll, t in ref._toll_history]
        assert paying
        vid = paying[0]
        end = max(r.t for r in reports) + 1
        assert ref.balance_before(vid, end) > 0
        assert ref.balance_before(vid, 0) == 0


class TestHarness:
    def test_validated_run(self):
        result = LinearRoadHarness(SMALL).run()
        assert result.valid, result.validation_problems
        assert result.reports > 0
        assert result.tolls, "every crossing gets a toll notification"

    def test_congested_run_assesses_tolls_and_alerts(self):
        result = LinearRoadHarness(CONGESTED).run()
        assert result.valid, result.validation_problems
        assert any(t[3] > 0 for t in result.tolls)
        assert result.alerts

    def test_batch_invariance(self):
        """Same outputs whether replayed tick-by-tick or all at once."""
        gen = LinearRoadGenerator(SMALL)
        reports = gen.generate()
        requests = gen.balance_requests(reports)
        one = LinearRoadHarness(SMALL).run(
            reports, requests, ticks_per_batch=1, validate=False
        )
        big = LinearRoadHarness(SMALL).run(
            reports, requests, ticks_per_batch=10_000, validate=False
        )
        assert sorted(one.tolls) == sorted(big.tolls)
        assert sorted(one.alerts) == sorted(big.alerts)
        assert sorted(one.balances) == sorted(big.balances)

    def test_balance_responses_match_oracle(self):
        gen = LinearRoadGenerator(CONGESTED)
        reports = gen.generate()
        requests = gen.balance_requests(reports, rate=0.02)
        result = LinearRoadHarness(CONGESTED).run(reports, requests)
        assert result.valid, result.validation_problems
        assert result.balances

    def test_metrics_populated(self):
        result = LinearRoadHarness(SMALL).run()
        assert result.throughput > 0
        assert result.max_response_time >= result.avg_response_time >= 0
        assert result.tick_latencies

    def test_network_publishes_to_the_cell_registry(self):
        from repro.obs.metrics import default_registry

        def lr_series():
            return {(f.name, key) for f in default_registry().families()
                    for key in f.children()
                    if any(v.startswith("lr_") for v in key)}

        before = lr_series()
        harness = LinearRoadHarness(SMALL)
        harness.run(validate=False)
        text = harness.cell.prometheus_text()
        line = next(
            line for line in text.splitlines() if line.startswith(
                'datacell_factory_tuples_in_total{factory="lr_stats_f"}'))
        assert float(line.split()[-1]) > 0
        assert 'datacell_emitter_delivered_total{emitter="lr_toll_e"}' \
            in text
        assert lr_series() == before
