"""Tests for the workload generators."""

from repro.adapters.generators import (
    gaussian_doubles,
    network_packets,
    sensor_readings,
    stock_ticks,
    uniform_ints,
    zipf_ints,
)


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

