"""Tests for the Linear Road subsystem: generator, queries, validation.

The flagship property: the DataCell network's outputs are *batch
invariant* — replaying the same log one tick at a time or all at once
yields identical tolls/alerts — and always match the independent
sequential oracle.
"""

import dataclasses
from functools import lru_cache

import pytest

from repro.core.basket import Basket
from repro.linearroad import (
    LinearRoadConfig,
    LinearRoadGenerator,
    LinearRoadHarness,
    LinearRoadReference,
    toll_formula,
)
from repro.linearroad.model import (
    LAV_WINDOW_MINUTES,
    NUM_SEGMENTS,
    POSITION_REPORT_COLUMNS,
    REPORT_INTERVAL,
    PositionReport,
)
from repro.linearroad.queries import (
    AccidentDetectionPlan,
    SegmentStatisticsPlan,
    TollNotificationPlan,
    TollState,
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


CONFIGS = {"SMALL": SMALL, "CONGESTED": CONGESTED}


@lru_cache(maxsize=None)
def _log(name):
    """A config's reports and balance requests (rate 0.2)."""
    gen = LinearRoadGenerator(CONFIGS[name])
    reports = gen.generate()
    return reports, gen.balance_requests(reports, rate=0.2)


@lru_cache(maxsize=None)
def _replay(name, ticks_per_batch):
    reports, requests = _log(name)
    return LinearRoadHarness(CONFIGS[name]).run(
        reports, requests, ticks_per_batch=ticks_per_batch)


def _positions(rows):
    """A position-report snapshot holding ``rows`` (t, vid, speed, xway,
    lane, dir, seg, pos), in order."""
    basket = Basket("lr_position", POSITION_REPORT_COLUMNS)
    basket.insert_rows(rows)
    return {"lr_position": basket.snapshot()}


def _report(t, vid, seg, speed=50, lane=1):
    return (t, vid, speed, 0, lane, 0, seg, seg * 5280)


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

    @pytest.mark.parametrize("name,ticks_per_batch", [
        pytest.param(name, ticks, id=f"{name}-{ticks}")
        for name in CONFIGS for ticks in (1, 2, 7, 10_000)
    ])
    def test_batch_invariance(self, name, ticks_per_batch):
        """Same outputs, equal to the oracle's, for any batching."""
        result = _replay(name, ticks_per_batch)
        assert result.valid, result.validation_problems
        one = _replay(name, 1)
        assert sorted(result.tolls) == sorted(one.tolls)
        assert sorted(result.alerts) == sorted(one.alerts)
        assert sorted(result.balances) == sorted(one.balances)

    def test_congested_balances_match_oracle_at_high_rate(self):
        result = _replay("CONGESTED", 1)
        assert result.valid, result.validation_problems
        assert any(balance > 0 for _, _, balance in result.balances)

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

    def test_plan_state_is_bounded(self):
        """Replaying D and then 2D ticks keeps state to what later
        reports can read: LAV-window stats minutes and live spans."""
        ticks = 40
        config = dataclasses.replace(SMALL, duration=ticks * REPORT_INTERVAL)
        reports = LinearRoadGenerator(config).generate()
        harness = LinearRoadHarness(config)
        bound = LAV_WINDOW_MINUTES + 2
        for end in (ticks // 2, ticks):
            for tick in range(end - ticks // 2, end):
                harness.run([r for r in reports
                             if r.t // REPORT_INTERVAL == tick],
                            [], validate=False)
                assert harness.stats_plan.retained_minutes <= bound
                assert harness.toll_plan.retained_minutes <= bound
            # the spans kept are exactly those a report at or after the
            # watermark can see: open, or cleared at the watermark
            seen = [r for r in reports if r.t // REPORT_INTERVAL < end]
            watermark = max(r.t for r in seen)
            spans = LinearRoadReference(seen).compute()._accident_spans
            live = sum(1 for per_segment in spans.values()
                       for _, clear in per_segment
                       if clear is None or clear >= watermark)
            assert harness.toll_plan.retained_spans == live
            assert all(harness.accident_plan._stopped_at.values())
        assert harness.toll_plan.retained_spans < (
            harness.accident_plan.accidents_detected)

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


class TestPlans:
    """The columnar plans driven directly with hand-made batches."""

    def test_two_reports_of_a_vid_crossing_in_one_batch(self):
        plan = TollNotificationPlan()
        # vid 2 interleaves, so the vids of the batch are not ascending
        rows = [_report(0, 1, 10), _report(0, 2, 20),
                _report(30, 1, 11), _report(30, 2, 20)]
        out = plan.run(_positions(rows)).results["lr_tolls"].rows()
        assert sorted(out) == [(1, 0, 0.0, 0), (1, 30, 0.0, 0),
                               (2, 0, 0.0, 0)]

    def test_two_reports_of_a_vid_in_one_segment_in_one_batch(self):
        plan = TollNotificationPlan()
        out = plan.run(_positions(
            [_report(0, 5, 10), _report(30, 5, 10)])).results["lr_tolls"]
        assert out.rows() == [(5, 0, 0.0, 0)]
        # the next batch remembers the segment too
        assert plan.run(_positions([_report(60, 5, 10)])).results == {}

    def test_batched_and_one_by_one_agree(self):
        rows = [_report(t, vid, seg)
                for t, vid, seg in [(0, 3, 1), (0, 1, 1), (30, 3, 2),
                                    (30, 1, 1), (60, 1, 2), (60, 3, 2)]]
        batched = TollNotificationPlan().run(_positions(rows))
        single = TollNotificationPlan()
        one_by_one = []
        for row in rows:
            out = single.run(_positions([row])).results.get("lr_tolls")
            one_by_one.extend(out.rows() if out else [])
        assert sorted(batched.results["lr_tolls"].rows()) == sorted(
            one_by_one)

    def test_stats_report_behind_emitted_minute_raises(self):
        plan = SegmentStatisticsPlan()
        plan.run(_positions([_report(30, 1, 4), _report(150, 1, 5)]))
        with pytest.raises(ValueError, match="t=30"):
            plan.run(_positions([_report(30, 2, 4)]))

    @pytest.mark.parametrize("plan", [
        SegmentStatisticsPlan, AccidentDetectionPlan, TollNotificationPlan])
    def test_negative_vid_raises(self, plan):
        with pytest.raises(ValueError, match="-3"):
            plan().run(_positions([_report(0, -3, 4, speed=0)]))

    @pytest.mark.parametrize("plan", [
        SegmentStatisticsPlan, TollNotificationPlan])
    @pytest.mark.parametrize("seg,direction", [(NUM_SEGMENTS, 0), (-1, 0),
                                               (4, 2)])
    def test_segment_out_of_range_raises(self, plan, seg, direction):
        row = (0, 1, 50, 0, 1, direction, seg, 0)
        with pytest.raises(ValueError, match="segments need"):
            plan().run(_positions([row]))

    def test_toll_report_behind_watermark_raises(self):
        plan = TollNotificationPlan()
        plan.run(_positions([_report(120, 1, 4)]))
        with pytest.raises(ValueError, match="t=90"):
            plan.run(_positions([_report(90, 2, 4)]))


class TestTollState:
    def test_assessment_at_request_time_is_not_counted(self):
        state = TollState()
        state.assess(7, 10, 60)
        state.assess(7, 0, 90)  # zero tolls are not assessed
        state.assess(7, 5, 120)
        assert state.balance_before(7, 60) == 0
        assert state.balance_before(7, 61) == 10
        assert state.balance_before(7, 120) == 10
        assert state.balance_before(7, 121) == 15
        assert state.balance_before(8, 121) == 0
        assert state.balances == {7: 15}

    def test_same_time_assessments_all_count_after_it(self):
        state = TollState()
        state.assess(7, 10, 60)
        state.assess(7, 4, 60)
        assert state.balance_before(7, 60) == 0
        assert state.balance_before(7, 61) == 14

    def test_out_of_order_assessment_raises(self):
        state = TollState()
        state.assess(7, 10, 60)
        with pytest.raises(ValueError, match="t=30"):
            state.assess(7, 10, 30)
