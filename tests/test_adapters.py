"""Tests for replay sources and workload generators."""

import pytest

from repro.adapters.channels import InMemoryChannel
from repro.adapters.generators import (
    gaussian_doubles,
    network_packets,
    sensor_readings,
    stock_ticks,
    uniform_ints,
    zipf_ints,
)
from repro.adapters.replay import ReplaySource, load_csv_rows
from repro.core.clock import LogicalClock
from repro.errors import AdapterError


class TestReplay:
    def make(self, clock=None):
        events = [(0.0, (1,)), (1.0, (2,)), (2.0, (3,)), (2.0, (4,))]
        channel = InMemoryChannel()
        return ReplaySource(events, channel, clock), channel

    def test_requires_time_order(self):
        with pytest.raises(AdapterError):
            ReplaySource([(2.0, (1,)), (1.0, (2,))], InMemoryChannel())

    def test_pump_all(self):
        source, channel = self.make()
        assert source.pump_all() == 4
        assert channel.pending() == 4
        assert source.exhausted

    def test_pump_batch(self):
        source, channel = self.make()
        assert source.pump_batch(2) == 2
        assert source.remaining == 2

    def test_paced_pump(self):
        clock = LogicalClock()
        source, channel = self.make(clock)
        assert source.pump() == 1  # t=0 event
        clock.advance(1.0)
        assert source.pump() == 1
        clock.advance(5.0)
        assert source.pump() == 2
        assert source.pump() == 0

    def test_pump_with_explicit_time(self):
        source, channel = self.make()
        assert source.pump(now=1.5) == 2

    def test_pump_needs_clock_or_time(self):
        source, _ = self.make()
        with pytest.raises(AdapterError):
            source.pump()

    def test_next_timestamp(self):
        source, _ = self.make()
        assert source.next_timestamp() == 0.0
        source.pump_all()
        assert source.next_timestamp() is None

    def test_load_csv_from_text(self):
        rows = load_csv_rows("a,b\n1,2\n3,4\n", from_text=True)
        assert rows == [["1", "2"], ["3", "4"]]

    def test_load_csv_no_header(self):
        rows = load_csv_rows("1,2\n", from_text=True, has_header=False)
        assert rows == [["1", "2"]]


class TestGenerators:
    def test_deterministic_under_seed(self):
        assert uniform_ints(10, seed=1) == uniform_ints(10, seed=1)
        assert stock_ticks(10, seed=2) == stock_ticks(10, seed=2)

    def test_uniform_bounds(self):
        for (v,) in uniform_ints(200, low=5, high=9, seed=3):
            assert 5 <= v <= 9

    def test_zipf_is_skewed(self):
        from collections import Counter

        counts = Counter(v for (v,) in zipf_ints(3000, n_values=100, seed=4))
        most = counts.most_common(1)[0][1]
        assert most > 3000 / 100 * 3, "head key far above uniform share"

    def test_gaussian_shape(self):
        values = [v for (v,) in gaussian_doubles(2000, mean=10, stddev=1, seed=5)]
        mean = sum(values) / len(values)
        assert 9.5 < mean < 10.5

    def test_sensor_readings_have_anomalies(self):
        rows = sensor_readings(2000, anomaly_rate=0.05, seed=6)
        hot = [t for _, t in rows if t > 35.0]
        assert 20 < len(hot) < 300

    def test_stock_ticks_structure(self):
        for sym, price, qty in stock_ticks(50, seed=7):
            assert isinstance(sym, str) and price > 0 and qty >= 1

    def test_network_packets_suspicious_rate(self):
        rows = network_packets(3000, attack_rate=0.02, seed=8)
        bad = [r for r in rows if r[2] == 31337]
        assert 20 < len(bad) < 150

