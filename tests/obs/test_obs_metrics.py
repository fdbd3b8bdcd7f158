"""Counters, gauges, histograms, and the registry."""

import bisect
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import (
    LOG_SECONDS_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def bucket_edges(bounds, value):
    """(lower, upper) edges of the bucket ``Histogram.observe`` puts
    ``value`` in; the first and the overflow bucket are open-ended."""
    index = bisect.bisect_left(bounds, value)
    lower = bounds[index - 1] if index else -math.inf
    upper = bounds[index] if index < len(bounds) else math.inf
    return lower, upper


def exact_percentile(ordered, q):
    """The ``max(1, ceil(q * n))``-th smallest value: the covering one."""
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class TestCounter:
    def test_accumulates(self):
        c = Counter("n")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("n").inc(-1)


class TestGauge:
    def test_last_value_wins(self):
        g = Gauge("rate")
        g.set(0.25)
        g.set(0.75)
        assert g.value == 0.75


class TestHistogram:
    def test_exact_aggregates(self):
        h = Histogram("t")
        for value in (1e-5, 2e-5, 4e-3):
            h.observe(value)
        assert h.count == 3
        assert h.total == pytest.approx(1e-5 + 2e-5 + 4e-3)
        assert h.max == 4e-3
        assert h.mean == pytest.approx(h.total / 3)

    def test_default_bounds_are_log_scale(self):
        assert LOG_SECONDS_BOUNDS[0] == 1e-6
        ratios = {
            round(b / a)
            for a, b in zip(LOG_SECONDS_BOUNDS, LOG_SECONDS_BOUNDS[1:])
        }
        assert ratios == {4}

    def test_quantile_interpolates_within_the_bucket(self):
        h = Histogram("t")
        for value in (2e-6, 2e-6, 3.5e-6, 3.5e-6):
            h.observe(value)  # all in the (1e-6, 4e-6] bucket
        # Halfway through the bucket's count is halfway between its edges.
        assert h.quantile(0.5) == pytest.approx(2.5e-6)
        assert h.quantile(0.25) == 2e-6  # 1.75e-6, clamped up to the min
        assert h.quantile(1.0) == 3.5e-6  # 4e-6, clamped down to the max

        h = Histogram("t")
        for _ in range(100):
            h.observe(3e-6)  # lands in the (1e-6, 4e-6] bucket
        h.observe(3e-5)  # lands in the (1.6e-5, 6.4e-5] bucket
        assert h.quantile(0.5) == 3e-6  # 2.515e-6, clamped up to the min
        assert h.quantile(1.0) == 3e-5  # capped at the observed max

    def test_quantile_brackets_the_exact_percentile(self):
        """The bucket that brackets the exact percentile brackets the
        quantile too, and every quantile stays inside [min, max]."""
        rng = random.Random(7)
        sample = [rng.lognormvariate(-9.0, 2.0) for _ in range(500)]
        h = Histogram("t")
        for value in sample:
            h.observe(value)
        ordered = sorted(sample)
        for step in range(101):
            q = step / 100
            lower, upper = bucket_edges(h.bounds, exact_percentile(ordered, q))
            assert lower <= h.quantile(q) <= upper
            assert min(sample) <= h.quantile(q) <= max(sample)

        # All in one bucket, above its lower bound: every quantile stays
        # inside the observed [min, max], through the wire form too.
        lower, upper = h.bounds[3], h.bounds[4]
        sample = [rng.uniform(lower + 0.5 * (upper - lower), upper) for _ in range(50)]
        h = Histogram("t")
        for value in sample:
            h.observe(value)
        assert h.counts[4] == len(sample)
        assert (h.min, h.max) == (min(sample), max(sample))
        wired = Histogram.from_wire(h.to_wire())
        assert h.quantile(0.0) == min(sample)
        for step in range(101):
            q = step / 100
            assert min(sample) <= h.quantile(q) <= max(sample)
            assert wired.quantile(q) == h.quantile(q)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=40
        ),
        qs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
    )
    def test_quantile_is_bounded_bucketed_and_monotone(self, values, qs):
        h = Histogram("t")
        for value in values:
            h.observe(value)
        ordered = sorted(values)
        previous = -math.inf
        for q in sorted(qs):
            got = h.quantile(q)
            assert h.min <= got <= h.max
            lower, upper = bucket_edges(h.bounds, exact_percentile(ordered, q))
            assert lower <= got <= upper
            assert got >= previous
            previous = got

    def test_quantile_edge_cases(self):
        h = Histogram("t")
        assert h.quantile(0.5) == 0.0
        h.observe(1e9)  # overflow bucket reports the exact max
        assert h.quantile(0.99) == 1e9
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_merge_requires_equal_bounds(self):
        a = Histogram("t")
        b = Histogram("t", bounds=(0.1, 1.0))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_carries_the_min(self):
        a, b, empty = Histogram("t"), Histogram("t"), Histogram("t")
        a.observe(2e-2)
        b.observe(3e-5)
        b.observe(4e-2)
        empty.merge(a)
        assert (empty.min, empty.max) == (2e-2, 2e-2)
        a.merge(b)
        assert (a.min, a.max) == (3e-5, 4e-2)
        a.merge(Histogram("t"))
        assert a.min == 3e-5
        assert Histogram.from_wire(a.to_wire()).min == 3e-5

    def test_merge_folds_counts(self):
        a, b = Histogram("t"), Histogram("t")
        a.observe(1e-5)
        b.observe(2e-2)
        b.observe(3e-2)
        a.merge(b)
        assert a.count == 3
        assert a.max == 3e-2
        assert sum(a.counts) == 3

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("t", bounds=(1.0, 0.1))


class TestRegistry:
    def test_get_or_create_returns_the_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_flattens_to_plain_floats(self):
        reg = MetricsRegistry()
        reg.counter("evals").inc(7)
        reg.gauge("hit_rate").set(0.5)
        h = reg.histogram("secs")
        h.observe(0.25)
        snap = reg.snapshot()
        assert snap["evals"] == 7.0
        assert snap["hit_rate"] == 0.5
        assert snap["secs.count"] == 1.0
        assert snap["secs.sum"] == 0.25
        assert snap["secs.max"] == 0.25
        assert all(isinstance(v, float) for v in snap.values())

    def test_scoped_namespaces_every_instrument(self):
        reg = MetricsRegistry()
        scoped = reg.scoped("partition")
        scoped.counter("moves").inc(3)
        scoped.gauge("rate").set(0.1)
        assert reg.snapshot() == {"partition.moves": 3.0, "partition.rate": 0.1}

    def test_scoped_views_share_storage(self):
        reg = MetricsRegistry()
        reg.scoped("p").counter("n").inc()
        reg.scoped("p").counter("n").inc()
        assert reg.snapshot()["p.n"] == 2.0

    def test_nested_scopes_compose(self):
        reg = MetricsRegistry()
        reg.scoped("a").scoped("b").counter("n").inc()
        assert "a.b.n" in reg.snapshot()
