"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    NULL_INSTRUMENT,
    Tally,
    default_registry,
    set_default_registry,
)


def observe_counted(h, values):
    """Feed ``values`` to ``h`` as one weighted observation per distinct
    value."""
    distinct, counts = np.unique(np.asarray(values), return_counts=True)
    for value, count in zip(distinct.tolist(), counts.tolist()):
        h.observe(value, count)


def hammer(fn, threads=8, iterations=10_000):
    """Run ``fn`` from N threads concurrently; a barrier maximizes overlap."""
    barrier = threading.Barrier(threads)

    def work():
        barrier.wait()
        for _ in range(iterations):
            fn()

    pool = [threading.Thread(target=work) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()


class TestCounter:
    def test_inc(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_rejected(self):
        with pytest.raises(ObservabilityError):
            Counter().inc(-1)

    def test_thread_safety_exact_total(self):
        c = Counter()
        hammer(c.inc)
        assert c.value == 8 * 10_000


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12

    def test_set_max_ratchets(self):
        g = Gauge()
        g.set_max(5)
        g.set_max(3)
        assert g.value == 5
        g.set_max(9)
        assert g.value == 9

    def test_thread_safety_exact_total(self):
        g = Gauge()
        hammer(lambda: g.inc(1))
        assert g.value == 8 * 10_000


class TestHistogram:
    def test_count_sum_min_max(self):
        h = Histogram(buckets=[1, 10, 100])
        for v in (0.5, 5, 50, 500):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(555.5)
        snap = h.snapshot()
        assert snap["min"] == 0.5
        assert snap["max"] == 500

    def test_empty_snapshot(self):
        snap = Histogram().snapshot()
        assert snap["count"] == 0
        assert snap["p99"] == 0.0

    def test_needs_buckets(self):
        with pytest.raises(ObservabilityError):
            Histogram(buckets=[])

    def test_percentile_range_check(self):
        with pytest.raises(ObservabilityError):
            Histogram().percentile(101)

    def test_percentile_against_numpy(self):
        # Percentiles are bucket-interpolated: accuracy is bounded by the
        # width of the containing bucket, so compare within that tolerance.
        rng = np.random.default_rng(7)
        # rounded, so most values repeat and carry a weight above one
        values = np.round(rng.uniform(1e-4, 0.5, size=5_000), 3)
        h = Histogram()  # default LATENCY_BUCKETS
        observe_counted(h, values)
        assert h.count == len(values)
        for q in (50, 95, 99):
            exact = float(np.percentile(values, q))
            est = h.percentile(q)
            idx = np.searchsorted(LATENCY_BUCKETS, exact)
            lo = LATENCY_BUCKETS[idx - 1] if idx > 0 else 0.0
            hi = LATENCY_BUCKETS[min(idx, len(LATENCY_BUCKETS) - 1)]
            width = hi - lo
            assert abs(est - exact) <= width, f"p{q}: {est} vs {exact}"

    def test_percentile_clamped_to_observed(self):
        h = Histogram(buckets=[1.0])
        h.observe(0.25)
        h.observe(0.75)
        assert 0.25 <= h.percentile(50) <= 0.75
        assert h.percentile(100) == 0.75

    def test_weighted_observe_matches_observe(self):
        a, b = Histogram(), Histogram()
        values = [(1e-4, 3), (3e-3, 1), (0.02, 7), (0.9, 2), (20.0, 5)]
        for v, k in values:
            for _ in range(k):
                a.observe(v)
            b.observe(v, k)
        assert a.bucket_counts() == b.bucket_counts()
        assert a.count == b.count == 18
        assert a.sum == pytest.approx(b.sum, rel=1e-12)
        for key in ("min", "max", "p50", "p95", "p99"):
            assert a.snapshot()[key] == pytest.approx(b.snapshot()[key])

    def test_weighted_observe_of_nothing_is_noop(self):
        h = Histogram()
        h.observe(5.0, 0)
        assert h.count == 0
        assert h.snapshot()["max"] == 0.0
        h.observe(1.0)
        assert (h.count, h.snapshot()["max"]) == (1, 1.0)

    @given(
        st.one_of(
            st.sampled_from((1.0, 10.0, 100.0, 100.5, 1e6)),  # bounds, +Inf
            st.floats(-1e3, 1e3, allow_nan=False),  # negatives included
        ),
        st.integers(1, 1000),
        st.lists(st.floats(-5.0, 500.0, allow_nan=False), max_size=40),
    )
    def test_weighted_observe_is_repeated_observe(self, value, k, history):
        # observe(v, k) leaves what k observe(v) calls would, on top of
        # any earlier history: same buckets, count, min and max, and a
        # sum within rounding of the k separate additions
        a, b = Histogram(buckets=[1, 10, 100]), Histogram(buckets=[1, 10, 100])
        for v in history:
            a.observe(v)
            b.observe(v)
        for _ in range(k):
            a.observe(value)
        b.observe(value, k)
        assert a.bucket_counts() == b.bucket_counts()
        assert (a.count, a.snapshot()["min"], a.snapshot()["max"]) \
            == (b.count, b.snapshot()["min"], b.snapshot()["max"])
        magnitude = sum(abs(v) for v in history) + k * abs(value)
        assert abs(a.sum - b.sum) <= 1e-12 * magnitude

    def test_thread_safety_exact_count(self):
        h = Histogram(buckets=[1, 2, 3])
        hammer(lambda: h.observe(1.5))
        assert h.count == 8 * 10_000
        assert h.bucket_counts()[1][1] == 8 * 10_000

    def test_bucket_counts_cumulative_inf(self):
        h = Histogram(buckets=[1, 10])
        for v in (0.5, 5, 50):
            h.observe(v)
        assert h.bucket_counts() == [(1, 1), (10, 2), (float("inf"), 3)]


class TestPercentileAccuracyContract:
    """Pins the error bounds documented on ``Histogram.percentile``.

    The estimator interpolates linearly inside the containing bucket, so
    its absolute error is bounded by that bucket's width; mass piled at a
    bucket's lower edge biases the estimate upward but never out of the
    bucket; and everything past the largest finite bound degrades to the
    observed max.
    """

    @pytest.mark.parametrize("q", [50, 99])
    def test_error_bounded_by_bucket_width_skewed(self, q):
        # a heavy-tailed distribution stresses the sparse upper buckets,
        # where the bound is loosest — it must still hold
        rng = np.random.default_rng(11)
        values = np.round(
            np.minimum(rng.lognormal(-4.0, 1.5, size=8_000), 50.0), 4)
        h = Histogram()  # default LATENCY_BUCKETS
        observe_counted(h, values)
        exact = float(np.percentile(values, q))
        est = h.percentile(q)
        idx = np.searchsorted(LATENCY_BUCKETS, exact)
        lo = LATENCY_BUCKETS[idx - 1] if idx > 0 else 0.0
        hi = LATENCY_BUCKETS[min(idx, len(LATENCY_BUCKETS) - 1)]
        assert abs(est - exact) <= hi - lo, f"p{q}: {est} vs {exact}"

    def test_lower_edge_mass_biases_upward_within_bucket(self):
        # 99 observations at a bucket's lower edge plus one at its upper
        # bound: the true p50 is 1.0, but uniform-within-bucket
        # interpolation drags the estimate toward the upper bound.  The
        # bias must stay inside the (1.0, 10.0] bucket.
        h = Histogram(buckets=[1.0, 10.0])
        h.observe(1.0 + 1e-9, 99)
        h.observe(10.0)
        true_p50 = 1.0
        est = h.percentile(50)
        assert est > true_p50 + 1.0  # visibly biased upward...
        assert 1.0 < est <= 10.0  # ...but never leaves the bucket
        assert est - true_p50 <= 10.0 - 1.0  # bound = bucket width

    def test_upper_edge_mass_biases_downward_within_bucket(self):
        h = Histogram(buckets=[1.0, 10.0])
        h.observe(10.0 - 1e-9, 99)
        h.observe(1.5)
        est = h.percentile(50)
        assert est < 10.0 - 1e-9  # biased downward
        assert 1.0 < est <= 10.0  # still inside the bucket

    def test_inf_bucket_interpolates_toward_observed_max(self):
        # the +Inf bucket has no upper bound, so the observed max stands
        # in for it: estimates stay within [min, max] of the open tail,
        # and the error bound widens to that whole tail
        h = Histogram(buckets=[1.0, 10.0])
        observe_counted(h, [20.0, 30.0, 30.0, 40.0, 400.0])
        for q in (1, 50, 99):
            assert 20.0 <= h.percentile(q) <= 400.0
        assert h.percentile(100) == 400.0
        # the estimates are monotone in q even with no bucket structure
        assert h.percentile(50) <= h.percentile(99)


class TestRegistry:
    def test_labels_isolated(self):
        reg = MetricsRegistry()
        fam = reg.counter("hits_total", "hits", ("who",))
        fam.labels("a").inc(2)
        fam.labels("b").inc(3)
        assert reg.value("hits_total", ("a",)) == 2
        assert reg.value("hits_total", ("b",)) == 3

    def test_label_arity_checked(self):
        reg = MetricsRegistry()
        fam = reg.counter("c_total", labels=("x",))
        with pytest.raises(ObservabilityError):
            fam.labels("a", "b")

    def test_labelless_delegation(self):
        reg = MetricsRegistry()
        reg.counter("n_total").inc(4)
        assert reg.value("n_total") == 4

    def test_reregistration_same_kind_ok(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", labels=("l",))
        b = reg.counter("x_total", labels=("l",))
        assert a is b

    def test_reregistration_kind_conflict(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ObservabilityError):
            reg.gauge("x_total")

    def test_value_unknown_is_none(self):
        reg = MetricsRegistry()
        assert reg.value("nope") is None
        assert reg.histogram_snapshot("nope") is None

    def test_collect_shape(self):
        reg = MetricsRegistry()
        reg.gauge("depth", "d", ("basket",)).labels("b1").set(7)
        out = reg.collect()
        assert out["depth"]["kind"] == "gauge"
        assert out["depth"]["samples"][("b1",)]["value"] == 7

    def test_disabled_registry_is_noop(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("x_total")
        assert c is NULL_INSTRUMENT
        c.inc()
        c.labels("a").observe(1)  # all absorb silently
        assert reg.value("x_total") is None
        assert reg.to_prometheus_text() == ""

    def test_series_read_from_tallies(self):
        reg = MetricsRegistry()
        first, second, depth, newer = Tally(), Tally(), Tally(), Tally()
        rows = reg.counter("rows_total", "rows", ("q",))
        rows.read_from(first, "a")
        gauge = reg.gauge("depth", "d", ("q",))
        gauge.read_from(depth, "a")
        first.value += 3
        depth.value = 7
        assert reg.value("rows_total", ("a",)) == 3
        assert 'rows_total{q="a"} 3' in reg.to_prometheus_text()
        # an owner re-created under the same labels continues a counter;
        # a gauge reads the newest owner
        rows.read_from(second, "a")
        gauge.read_from(newer, "a")
        second.value += 2
        newer.value = 1
        assert reg.value("rows_total", ("a",)) == 5
        assert reg.collect()["depth"]["samples"][("a",)]["value"] == 1

    def test_tally_series_rejects_histograms_and_direct_updates(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            reg.histogram("h_seconds").read_from(Tally())
        family = reg.counter("c_total", labels=("l",))
        family.labels("x").inc()
        with pytest.raises(ObservabilityError):
            family.read_from(Tally(), "x")
        MetricsRegistry(enabled=False).counter("c_total").read_from(Tally())

    def test_default_registry_swap(self):
        fresh = MetricsRegistry()
        previous = set_default_registry(fresh)
        try:
            assert default_registry() is fresh
        finally:
            set_default_registry(previous)


class TestPrometheusText:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "requests", ("code",)).labels("200").inc(5)
        reg.gauge("temp").set(1.5)
        text = reg.to_prometheus_text()
        assert "# HELP req_total requests" in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{code="200"} 5' in text
        assert "# TYPE temp gauge" in text
        assert "temp 1.5" in text
        assert text.endswith("\n")

    def test_histogram_exposition(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", "latency", buckets=[0.1, 1.0])
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        text = reg.to_prometheus_text()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text
        assert "lat_seconds_sum 5.55" in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labels=("q",)).labels('a"b\\c').inc()
        text = reg.to_prometheus_text()
        assert r'c_total{q="a\"b\\c"} 1' in text

    def test_label_newline_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labels=("q",)).labels("line1\nline2").inc()
        text = reg.to_prometheus_text()
        assert r'c_total{q="line1\nline2"} 1' in text
        # escaping must keep the exposition line-oriented: no sample line
        # may be split by a raw label newline
        assert "line1\nline2" not in text

    def test_label_escape_order_backslash_first(self):
        # a pre-escaped-looking value must round-trip: \n in the input is
        # backslash+n, not a newline, and must render as \\n
        reg = MetricsRegistry()
        reg.counter("c_total", labels=("q",)).labels("a\\nb").inc()
        text = reg.to_prometheus_text()
        assert 'c_total{q="a\\\\nb"} 1' in text

    def test_help_text_escaping(self):
        reg = MetricsRegistry()
        reg.counter(
            "c_total", "first line\nsecond \\ line", ("l",)
        ).labels("x").inc()
        text = reg.to_prometheus_text()
        assert r"# HELP c_total first line\nsecond \\ line" in text
        for line in text.splitlines():
            if line.startswith("# HELP"):
                assert "second" in line  # HELP stayed a single line

    def test_help_quotes_stay_verbatim(self):
        # per the text format, double quotes are only escaped inside
        # label values, not HELP text
        reg = MetricsRegistry()
        reg.counter("c_total", 'the "hot" path', ("l",)).labels("x").inc()
        text = reg.to_prometheus_text()
        assert '# HELP c_total the "hot" path' in text

    def test_empty_family_omitted(self):
        reg = MetricsRegistry()
        reg.counter("never_used_total", "unused", ("l",))
        assert "never_used_total" not in reg.to_prometheus_text()

    def test_help_and_type_once_per_family(self):
        # many children must not repeat the family header: exactly one
        # HELP and one TYPE line no matter how many label values exist
        reg = MetricsRegistry()
        fam = reg.counter("req_total", "requests", ("code",))
        for code in ("200", "404", "500"):
            fam.labels(code).inc()
        lines = reg.to_prometheus_text().splitlines()
        assert lines.count("# HELP req_total requests") == 1
        assert lines.count("# TYPE req_total counter") == 1
        samples = [ln for ln in lines if ln.startswith("req_total{")]
        assert len(samples) == 3

    def test_help_and_type_once_per_histogram_family(self):
        # histograms fan each child out into bucket/sum/count samples,
        # which must all share a single family header
        reg = MetricsRegistry()
        fam = reg.histogram(
            "lat_seconds", "latency", ("op",), buckets=[0.1, 1.0]
        )
        fam.labels("read").observe(0.05)
        fam.labels("write").observe(0.5)
        lines = reg.to_prometheus_text().splitlines()
        assert lines.count("# HELP lat_seconds latency") == 1
        assert lines.count("# TYPE lat_seconds histogram") == 1
        assert sum(ln.startswith("lat_seconds_bucket{") for ln in lines) == 6
        assert sum(ln.startswith("lat_seconds_sum{") for ln in lines) == 2
        assert sum(ln.startswith("lat_seconds_count{") for ln in lines) == 2

    def test_headers_precede_their_samples(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "the a counter").inc()
        reg.gauge("b", "the b gauge").set(2)
        lines = reg.to_prometheus_text().splitlines()
        for name in ("a_total", "b"):
            help_i = next(
                i for i, ln in enumerate(lines)
                if ln.startswith(f"# HELP {name} ")
            )
            assert lines[help_i + 1].startswith(f"# TYPE {name} ")
            assert lines[help_i + 2].startswith(name)

class TestCardinalityGuard:
    def test_cap_drops_new_label_sets(self):
        import warnings

        registry = MetricsRegistry(max_label_sets=2)
        counter = registry.counter("churn_total", "", ("who",))
        counter.labels("a").inc()
        counter.labels("b").inc()
        with pytest.warns(RuntimeWarning, match="cardinality cap"):
            dropped = counter.labels("c")
        assert dropped is NULL_INSTRUMENT
        dropped.inc(100)  # absorbed, never recorded
        assert registry.value("churn_total", ("c",)) is None
        # existing label sets keep working at the cap
        counter.labels("a").inc()
        assert registry.value("churn_total", ("a",)) == 2
        # the warning is emitted once per family, not once per drop
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counter.labels("d")

    def test_default_cap_is_roomy(self):
        registry = MetricsRegistry()
        counter = registry.counter("ok_total", "", ("who",))
        for i in range(100):
            counter.labels(str(i)).inc()
        assert len(counter.children()) == 100
