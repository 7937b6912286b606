import math

import pytest

from vbspool.erlang import (
    LimitBounds,
    asymptotic_utilization,
    dimension_radio,
    erlang_b,
    large_pool_limit,
    truncated_poisson_mean,
)


def erlang_b_series(k, a):
    """Direct evaluation of the truncated-Poisson tail formula."""
    terms = [1.0]
    for i in range(1, k + 1):
        terms.append(terms[-1] * a / i)
    return terms[-1] / math.fsum(terms)


def truncated_mean_series(k, a):
    terms = [1.0]
    for i in range(1, k + 1):
        terms.append(terms[-1] * a / i)
    return math.fsum(i * t for i, t in enumerate(terms)) / math.fsum(terms)


class TestErlangB:
    def test_zero_servers_block_everything(self):
        assert erlang_b(0, 0.3) == 1.0
        assert erlang_b(0, 42.0) == 1.0

    def test_single_server(self):
        assert erlang_b(1, 1.0) == pytest.approx(0.5, abs=0)

    def test_dimensioning_point(self):
        assert erlang_b(28, 17.8) <= 1e-2
        assert erlang_b(27, 17.8) > 1e-2

    @pytest.mark.parametrize("k", [1, 2, 5, 20, 50, 100])
    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 3.0, 17.8, 50.0])
    def test_recurrence_matches_direct_series(self, k, a):
        assert erlang_b(k, a) == pytest.approx(
            erlang_b_series(k, a), rel=1e-12
        )

    def test_strictly_decreasing_in_k(self):
        for a in (0.5, 3.0, 17.8):
            values = [erlang_b(k, a) for k in range(0, 40)]
            assert all(x > y for x, y in zip(values, values[1:]))

    def test_strictly_increasing_in_a(self):
        for k in (1, 5, 28):
            values = [erlang_b(k, a) for a in (0.5, 1, 2, 5, 10, 20)]
            assert all(x < y for x, y in zip(values, values[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            erlang_b(-1, 1.0)
        with pytest.raises(ValueError):
            erlang_b(3, 0.0)
        with pytest.raises(ValueError):
            erlang_b(3, math.inf)


class TestTruncatedPoissonMean:
    def test_single_server_half(self):
        # 1 * (1/1!) / (1 + 1)
        assert truncated_poisson_mean(1, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_large_k_approaches_load(self):
        assert truncated_poisson_mean(200, 17.8) == pytest.approx(
            17.8, rel=1e-12
        )

    def test_matches_direct_series(self):
        for k, a in [(28, 17.8), (5, 2.0), (10, 0.5), (3, 3.0)]:
            assert truncated_poisson_mean(k, a) == pytest.approx(
                truncated_mean_series(k, a), rel=1e-12
            )

    def test_bounded_by_load_and_servers(self):
        for k in (1, 3, 10, 28):
            for a in (0.5, 2.0, 17.8, 40.0):
                mean = truncated_poisson_mean(k, a)
                assert mean <= min(a, k) + 1e-12


class TestDimensionRadio:
    def test_paper_parameter_point(self):
        assert dimension_radio(17.8, 1e-2) == 28

    def test_single_server_suffices(self):
        assert dimension_radio(1.0, 0.5) == 1

    def test_looser_threshold_needs_no_more(self):
        assert dimension_radio(17.8, 3e-2) <= 28

    def test_bracketing(self):
        for a, p in [(1.0, 0.1), (17.8, 1e-2), (5.0, 1e-3), (0.2, 0.3)]:
            k = dimension_radio(a, p)
            assert erlang_b(k, a) <= p
            if k > 0:
                assert erlang_b(k - 1, a) > p

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            dimension_radio(1.0, 0.0)
        with pytest.raises(ValueError):
            dimension_radio(1.0, 1.0)

    @pytest.mark.parametrize("a", [-1.0, 0.0, math.inf, math.nan])
    def test_rejects_bad_load(self, a):
        with pytest.raises(ValueError, match="offered load"):
            dimension_radio(a, 0.01)


class TestLargePoolLimit:
    def test_dimensioned_point(self):
        bounds = large_pool_limit(28, 17.8, 1e-2)
        assert bounds.lower == pytest.approx(17.8 * 0.99 / 28)
        assert bounds.upper == pytest.approx(17.8 / 28)

    def test_bounds_collapse_as_threshold_vanishes(self):
        bounds = large_pool_limit(1, 0.5, 1e-12)
        assert bounds.lower == pytest.approx(0.5, rel=1e-9)
        assert bounds.upper == 0.5

    def test_underdimensioned_pool_rejected(self):
        with pytest.raises(ValueError):
            large_pool_limit(10, 11.0, 0.1)

    @pytest.mark.parametrize("a", [-1.0, 0.0, math.inf, math.nan])
    def test_rejects_bad_load(self, a):
        with pytest.raises(ValueError, match="offered load"):
            large_pool_limit(3, a, 0.01)

    def test_limit_bounds_validation(self):
        with pytest.raises(ValueError):
            LimitBounds(lower=0.8, upper=0.5)
        with pytest.raises(ValueError):
            LimitBounds(lower=0.5, upper=1.2)

    def test_point_estimate_inside_interval(self):
        for a, p in [(17.8, 1e-2), (17.8, 3e-2), (5.0, 1e-3), (1.0, 0.2)]:
            k = dimension_radio(a, p)
            bounds = large_pool_limit(k, a, p)
            eta = asymptotic_utilization(k, a)
            assert bounds.lower <= eta <= bounds.upper
