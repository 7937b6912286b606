import itertools
import math

import pytest

from vbspool.analytic import (
    RecursionTable,
    compute_blocking,
    get_table,
    stationary_probability,
)
from vbspool.erlang import erlang_b
from vbspool.model import PoolConfig, StateVector, TrafficModel
from vbspool.oracle import blocking_direct, enumerate_states


def pool(m, k, n, a=1.0):
    return PoolConfig(m, k, n, TrafficModel.from_load(a))


def brute_c(n, m, k, a):
    """Exhaustive-enumeration reference for the normalized level weight."""
    total = 0.0
    for occ in itertools.product(range(k + 1), repeat=m):
        if sum(occ) == n:
            total += math.prod(a**x / math.factorial(x) for x in occ)
    return math.exp(-a * m) * total


def brute_r(n, m, k, a):
    total = 0.0
    for occ in itertools.product(range(k + 1), repeat=m):
        if sum(occ) < n:
            total += math.prod(a**x / math.factorial(x) for x in occ)
    return math.exp(-a * m) * total


class TestRecursionValues:
    def test_zero_level_is_empty_state(self):
        assert get_table(2, 1.0).c(0, 3) == pytest.approx(math.exp(-3), rel=1e-14)

    def test_level_one_two_vbs(self):
        # states (1,0) and (0,1)
        assert get_table(3, 1.0).c(1, 2) == pytest.approx(
            2 * math.exp(-2), rel=1e-14
        )

    def test_top_level_single_state(self):
        # only (3,3)
        assert get_table(3, 1.0).c(6, 2) == pytest.approx(
            (1 / math.factorial(3)) ** 2 * math.exp(-2), rel=1e-14
        )

    def test_r_of_zero_is_empty_sum(self):
        assert get_table(3, 1.0).r(0, 2) == 0.0
        assert get_table(2, 0.7).r(0, 5) == 0.0

    def test_r_of_one_is_zero_state(self):
        assert get_table(3, 1.0).r(1, 2) == pytest.approx(
            math.exp(-2), rel=1e-14
        )

    def test_r_above_box_is_full_mass(self):
        expect = sum(math.exp(-1) / math.factorial(i) for i in range(4)) ** 2
        assert get_table(3, 1.0).r(7, 2) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
    def test_matches_exhaustive_enumeration(self, m, k, a):
        for n in range(m * k + 1):
            assert get_table(k, a).c(n, m) == pytest.approx(
                brute_c(n, m, k, a), rel=1e-12
            )
        for n in range(m * k + 2):
            assert get_table(k, a).r(n, m) == pytest.approx(
                brute_r(n, m, k, a), rel=1e-12
            )

    def test_table_coherence(self):
        table = RecursionTable(3, 1.5)
        for m in (1, 2, 4):
            for n in range(m * 3 + 1):
                assert table.r(n + 1, m) - table.r(n, m) == pytest.approx(
                    table.c(n, m), rel=1e-12, abs=1e-300
                )

    def test_all_entries_normalized(self):
        table = RecursionTable(28, 17.8)
        for m in (1, 10, 50, 100):
            for n in range(m * 28 + 1):
                assert 0.0 <= table.c(n, m) <= 1.0
                assert 0.0 <= table.r(n, m) <= 1.0

    @pytest.mark.parametrize("a", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_load(self, a):
        with pytest.raises(ValueError, match="offered load"):
            RecursionTable(3, a)

    def test_argument_errors(self):
        table = RecursionTable(3, 1.0)
        with pytest.raises(ValueError):
            table.c(-1, 2)
        with pytest.raises(ValueError):
            table.c(7, 2)
        with pytest.raises(ValueError):
            table.r(8, 2)
        with pytest.raises(ValueError):
            table.c(0, 0)


class TestComputeBlocking:
    def test_single_vbs_is_erlang_b(self):
        report = compute_blocking(pool(1, 5, 5, a=2.0))
        assert report.p_radio == 0.0
        assert report.p_comp == pytest.approx(erlang_b(5, 2.0), rel=1e-12)
        assert report.p_total == pytest.approx(erlang_b(5, 2.0), rel=1e-12)

    def test_fully_provisioned_pool_is_erlang_b(self):
        report = compute_blocking(pool(2, 3, 6))
        assert report.p_total == pytest.approx(erlang_b(3, 1.0), rel=1e-12)

    def test_matches_oracle_on_truncated_space(self):
        cfg = pool(2, 3, 4)
        got = compute_blocking(cfg)
        want = blocking_direct(cfg)
        assert got.p_radio == pytest.approx(want.p_radio, rel=1e-12)
        assert got.p_comp == pytest.approx(want.p_comp, rel=1e-12)
        assert got.p_total == pytest.approx(want.p_total, rel=1e-12)

    def test_no_radio_blocking_when_n_at_most_k(self):
        for n in range(0, 4):
            report = compute_blocking(pool(3, 3, n))
            assert report.p_radio == 0.0

    def test_total_is_sum_of_parts(self):
        report = compute_blocking(pool(3, 2, 4, a=0.8))
        assert report.p_total == report.p_radio + report.p_comp
        assert report.p_total <= 1.0

    def test_nonincreasing_in_n(self):
        for a in (0.5, 1.0, 3.0):
            totals = [
                compute_blocking(pool(3, 4, n, a)).p_total for n in range(13)
            ]
            assert all(x >= y - 1e-15 for x, y in zip(totals, totals[1:]))

    def test_empty_pool_blocks_everything(self):
        report = compute_blocking(pool(4, 2, 0))
        assert report.p_total == 1.0
        assert report.p_comp == 1.0


class TestStationaryProbability:
    def test_zero_state_is_normalization_constant(self):
        cfg = pool(2, 3, 4)
        table = RecursionTable(3, 1.0)
        p0 = stationary_probability(cfg, StateVector((0, 0)))
        assert p0 == pytest.approx(
            math.exp(-2) / table.r(5, 2), rel=1e-12
        )

    def test_distribution_sums_to_one(self):
        for m, k, n in [(2, 3, 4), (3, 2, 5), (4, 4, 9)]:
            for a in (0.5, 1.0, 3.0):
                cfg = pool(m, k, n, a)
                total = sum(
                    stationary_probability(cfg, s)
                    for s in enumerate_states(cfg)
                )
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_permutation_symmetry(self):
        cfg = pool(2, 3, 4)
        assert stationary_probability(
            cfg, StateVector((1, 2))
        ) == stationary_probability(cfg, StateVector((2, 1)))

    def test_state_outside_space_rejected(self):
        with pytest.raises(ValueError):
            stationary_probability(pool(2, 3, 4), StateVector((3, 2)))
