import itertools
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from vbspool.analytic import (
    RecursionTable,
    _square,
    blocking_curve,
    compute_blocking,
    get_table,
)
from vbspool.erlang import erlang_b
from vbspool.model import PoolConfig, TrafficModel
from vbspool.oracle import blocking_direct
from vbspool.planner import gain_vs_pool_size

from labelled import enumerate_states, product_form


def pool(m, k, n, a=1.0):
    return PoolConfig(m, k, n, TrafficModel.from_load(a))


def phi(k, a):
    """The capped exponential sum: the mass of a^i / i! over i = 0..K."""
    return math.fsum(a**i / math.factorial(i) for i in range(k + 1))


def brute_c(n, m, k, a):
    """Exhaustive-enumeration reference for the normalized level weight."""
    total = 0.0
    for occ in itertools.product(range(k + 1), repeat=m):
        if sum(occ) == n:
            total += math.prod(a**x / math.factorial(x) for x in occ)
    return total / phi(k, a) ** m


def sequential_columns(k, a, m_max):
    """Reference: column m of c is column m - 1 convolved with the pmf."""
    pmf = RecursionTable(k, a).poisson_pmf
    cols = [None, pmf]
    while len(cols) <= m_max:
        cols.append(np.convolve(cols[-1], pmf))
    return cols


def column(table, m):
    return np.array([table.c(n, m) for n in range(m * table.k_radio + 1)])


def below(table, m):
    return np.array([table.r(n, m) for n in range(m * table.k_radio + 2)])


@pytest.fixture
def convolve_operands(monkeypatch):
    """Every operand np.convolve receives while the test runs."""
    operands = []
    convolve = np.convolve

    def spy(x, y):
        operands.extend((x, y))
        return convolve(x, y)

    monkeypatch.setattr(np, "convolve", spy)
    return operands


def brute_r(n, m, k, a):
    total = 0.0
    for occ in itertools.product(range(k + 1), repeat=m):
        if sum(occ) < n:
            total += math.prod(a**x / math.factorial(x) for x in occ)
    return total / phi(k, a) ** m


class TestRecursionValues:
    def test_zero_level_is_empty_state(self):
        assert get_table(2, 1.0).c(0, 3) == pytest.approx(
            phi(2, 1.0) ** -3, rel=1e-14
        )

    def test_level_one_two_vbs(self):
        # states (1,0) and (0,1)
        assert get_table(3, 1.0).c(1, 2) == pytest.approx(
            2 * phi(3, 1.0) ** -2, rel=1e-14
        )

    def test_top_level_single_state(self):
        # only (3,3)
        assert get_table(3, 1.0).c(6, 2) == pytest.approx(
            (1 / math.factorial(3)) ** 2 * phi(3, 1.0) ** -2, rel=1e-14
        )

    def test_r_of_zero_is_empty_sum(self):
        assert get_table(3, 1.0).r(0, 2) == 0.0
        assert get_table(2, 0.7).r(0, 5) == 0.0

    def test_r_of_one_is_zero_state(self):
        assert get_table(3, 1.0).r(1, 2) == pytest.approx(
            phi(3, 1.0) ** -2, rel=1e-14
        )

    def test_r_above_box_is_full_mass(self):
        expect = (sum(1 / math.factorial(i) for i in range(4)) / phi(3, 1.0)) ** 2
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


class TestColumnsOnDemand:
    POOLS = [1, 2, 3, 7, 43, 299, 300, 511, 1023, 1024]

    @pytest.mark.parametrize("k, a", [(28, 17.8), (12, 5.404659)])
    def test_match_sequential_reference(self, k, a):
        # the split regroups sums and products of non-negative terms, so
        # each entry keeps its own relative accuracy down to where
        # subnormals lose digits
        ref = sequential_columns(k, a, max(self.POOLS))
        table = RecursionTable(k, a)
        for m in self.POOLS:
            got, want = column(table, m), ref[m]
            kept = want > 1e-280
            assert np.all(np.abs(got - want)[kept] <= 1e-13 * want[kept]), m

    def test_bits_do_not_depend_on_read_order(self):
        up, down = RecursionTable(28, 17.8), RecursionTable(28, 17.8)
        cols_up = {m: (column(up, m), below(up, m)) for m in self.POOLS}
        cols_down = {m: (column(down, m), below(down, m)) for m in reversed(self.POOLS)}
        for m in self.POOLS:
            assert np.array_equal(cols_up[m][0], cols_down[m][0])
            assert np.array_equal(cols_up[m][1], cols_down[m][1])

    def test_convolves_normal_nonzero_spans_only(self, convolve_operands):
        # zero tails are not convolved, and no operand is subnormal, so
        # no product is subnormal or a multiply by zero
        RecursionTable(28, 17.8).c(0, 1024)
        assert len(convolve_operands) >= 20
        tiny = np.finfo(float).tiny
        for x in convolve_operands:
            assert x[0] != 0.0 and x[-1] != 0.0
            assert np.all((x == 0.0) | (np.abs(x) >= tiny))

    def test_study_multiply_adds_are_bounded(self, convolve_operands):
        # an odd column is square(column m // 2) convolved with the pmf,
        # and a square multiplies each pair of distinct terms once: the
        # study to M = 2**10 makes 4.77e7 multiply-adds, where convolving
        # columns (m - 1)/2 and (m + 1)/2 made 7.98e7
        get_table.cache_clear()
        gain_vs_pool_size([2**i for i in range(1, 11)], 17.8, 1e-2)
        pairs = zip(convolve_operands[::2], convolve_operands[1::2])
        assert sum(x.size * y.size for x, y in pairs) <= 5.0e7

    def test_pair_read_multiply_adds_are_bounded(self, convolve_operands):
        # columns 2047 and 2046 from a fresh table: 1.96e8 multiply-adds,
        # where convolving columns (m - 1)/2 and (m + 1)/2 made 3.50e8
        table = RecursionTable(28, 17.8)
        table.r(0, 2047)
        table.r(0, 2046)
        pairs = zip(convolve_operands[::2], convolve_operands[1::2])
        assert sum(x.size * y.size for x, y in pairs) <= 2.2e8

    @pytest.mark.parametrize("m", [1024, 4096])
    def test_full_mass_is_pmf_mass_to_the_power(self, m):
        # r(M*K + 1, M) sums column M: the probability that no VBS
        # exceeds K, which is (sum of the capped pmf)^M
        table = RecursionTable(28, 17.8)
        with localcontext() as ctx:
            ctx.prec = 40
            mass = sum(Fraction(float(x)) for x in table.poisson_pmf)
            exact = (Decimal(mass.numerator) / Decimal(mass.denominator)) ** m
        got = table.r(m * 28 + 1, m)
        assert abs(Decimal(got) - exact) <= Decimal(1e-12) * exact

    def test_table_cache_is_bounded(self):
        # a long-lived process that studies many loads keeps the 16 most
        # recently used tables; an evicted one is rebuilt on its next read
        get_table.cache_clear()
        tables = [get_table(3, 1.0 + i) for i in range(17)]
        assert get_table.cache_info().currsize == 16
        assert get_table(3, 17.0) is tables[-1]
        rebuilt = get_table(3, 1.0)
        assert rebuilt is not tables[0]
        assert np.array_equal(rebuilt.poisson_pmf, tables[0].poisson_pmf)

    def test_planning_study_memory_is_bounded(self):
        # the sequential table to M = 1024 at K = 28 holds 235 MB of
        # columns; the study reads only columns M and M - 1
        get_table.cache_clear()
        tracemalloc.start()
        try:
            gain_vs_pool_size([2**i for i in range(1, 11)], 17.8, 1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25e6, f"peak {peak / 1e6:.1f} MB"


class TestSquare:
    @pytest.mark.parametrize("n", [1, 2, 999, 1000, 1025, 4097])
    def test_equals_direct_convolution(self, n):
        # sizes below, at and above the split into halves, odd and even
        x = np.random.default_rng(n).uniform(0.5, 2.0, n)
        got, want = _square(x), np.convolve(x, x)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-14 * want)

    def test_column_matches_extended_precision_sequential_build(self):
        # column 1024 as 1023 sequential convolutions of the same float pmf
        # in extended precision: the squares keep every normal entry
        # within 5e-14 (2.3e-14; convolving columns 511 and 512 gave 1.7e-14)
        table = RecursionTable(28, 17.8)
        pmf = table.poisson_pmf.astype(np.longdouble)
        want = pmf
        for _ in range(1023):
            want = np.convolve(want, pmf)
        got = column(table, 1024)
        normal = got >= np.finfo(float).tiny
        assert np.count_nonzero(normal) > 9000
        err = np.abs(got[normal] - want[normal]) / want[normal]
        assert err.max() <= 5e-14


class TestEdgeLoads:
    @pytest.mark.parametrize("k", [1, 28, 800])
    @pytest.mark.parametrize("a", [1e-3, 0.5, 17.8, 700.0, 800.0, 1000.0, 1e5])
    def test_pmf_is_the_truncated_poisson_law(self, k, a):
        # mass 1, and p_K = (a^K / K!) / phi(a) is Erlang-B(K, a)
        pmf = RecursionTable(k, a).poisson_pmf
        assert abs(math.fsum(pmf) - 1.0) <= 4 * math.ulp(1.0)
        b = erlang_b(k, a)
        if b >= np.finfo(float).tiny:
            assert pmf[k] == pytest.approx(b, rel=1e-14)

    def test_load_far_above_k_is_answered(self, convolve_operands):
        # at a = 1000, K = 30 the law peaks at p_30 and p_0 is 2.6e-58,
        # so no operand is empty; p_comp is the level-2 weight 2 a^2 over
        # the reachable weight 1 + 2a + 2a^2
        a = 1000.0
        report = compute_blocking(pool(2, 30, 2, a))
        assert report.p_comp == pytest.approx(
            2 * a**2 / (1 + 2 * a + 2 * a**2), rel=1e-12
        )
        assert all(x.size for x in convolve_operands)

    @pytest.mark.parametrize("k, a", [(30, 1e12), (800, 800.0)], ids=["30", "800"])
    def test_leading_zeros_match_full_length_reference(self, k, a):
        # p_0 = p_K K! / a^K underflows but p_K does not: the pmf starts
        # with zeros
        table = RecursionTable(k, a)
        pmf = table.poisson_pmf
        assert pmf[0] == 0.0 and pmf[k] > 0.0
        ref = sequential_columns(k, a, 16)
        for m in (1, 2, 3, 7, 16):
            got, want = column(table, m), ref[m]
            kept = want > 1e-280
            assert np.all(np.abs(got - want)[kept] <= 1e-13 * want[kept]), m
            assert np.all(got[~kept] <= 1e-280), m

    def test_pmf_below_normal_range_keeps_erlang_b(self):
        # one VBS with N < K is an Erlang loss system with N servers
        report = compute_blocking(pool(1, 30, 29, 800.0))
        assert report.p_comp == pytest.approx(erlang_b(29, 800.0), rel=1e-12)


class TestComputeBlocking:
    def test_single_vbs_is_erlang_b(self):
        report = compute_blocking(pool(1, 5, 5, a=2.0))
        assert report.p_radio == 0.0
        assert report.p_comp == pytest.approx(erlang_b(5, 2.0), rel=1e-12)
        assert report.p_total == pytest.approx(erlang_b(5, 2.0), rel=1e-12)

    def test_fully_provisioned_pool_is_erlang_b(self):
        report = compute_blocking(pool(2, 3, 6))
        assert report.p_total == pytest.approx(erlang_b(3, 1.0), rel=1e-12)

    def test_fully_provisioned_pool_splits_without_cancellation(self):
        # at N = M*K the VBSs are independent: p_comp = B^M and
        # p_radio = B - B^M, here 1e-6 next to B = 1 - 1e-6
        m, k, a = 2, 1, 1e6
        b = erlang_b(k, a)
        report = compute_blocking(pool(m, k, m * k, a))
        assert report.p_total == b
        assert report.p_comp == b**m
        exact = Fraction(b) - Fraction(b) ** m
        assert abs(Fraction(report.p_radio) - exact) <= 1e-15 * exact

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


class TestBlockingCurve:
    @staticmethod
    def assert_rows_are_compute_blocking(m, k, a, curve):
        n, p_radio, p_comp, p_total = (x.tolist() for x in curve)
        assert n == list(range(m * k, m * k - len(n), -1))
        for row in zip(n, p_radio, p_comp, p_total):
            report = compute_blocking(pool(m, k, row[0], a))
            assert row[1:] == (report.p_radio, report.p_comp, report.p_total)

    @staticmethod
    def assert_stops_at_first_excess(curve, stop):
        p_total = curve[3]
        assert p_total[-1] > stop
        assert (p_total[:-1] <= stop).all()

    @pytest.mark.parametrize("m, k, a", [(1, 5, 3.0), (2, 5, 3.0), (10, 28, 17.8)])
    def test_full_descent_is_compute_blocking_bit_for_bit(self, m, k, a):
        # every row, N <= K (no radio term) and N = M*K (closed form) included
        curve = blocking_curve(m, k, a, math.inf)
        assert curve[0][-1] == 0
        self.assert_rows_are_compute_blocking(m, k, a, curve)

    def test_overloaded_pool_down_to_lowest_nonzero_weight(self):
        # at M = 60 the weights are nonzero from N = 96 up; there
        # r(N+1, M) = c(N, M), so p_comp = 1 exactly ends any stop below 1
        curve = blocking_curve(60, 28, 17.8, 0.99)
        assert curve[0][-1] == 96
        assert curve[2][-1] == 1.0
        self.assert_rows_are_compute_blocking(60, 28, 17.8, curve)
        self.assert_stops_at_first_excess(curve, 0.99)

    @pytest.mark.parametrize("stop", [1e-2, 0.5])
    def test_early_stop_at_large_pool(self, stop):
        curve = blocking_curve(1024, 28, 17.8, stop)
        assert curve[0][-1] > 0
        self.assert_rows_are_compute_blocking(1024, 28, 17.8, curve)
        self.assert_stops_at_first_excess(curve, stop)

    def test_stop_below_full_pool_blocking_keeps_one_row(self):
        curve = blocking_curve(4, 8, 17.8, 0.5)
        assert curve[0].tolist() == [32]
        assert curve[3][0] == erlang_b(8, 17.8) > 0.5

    def test_full_descent_into_underflow_raises_at_largest_n(self):
        with pytest.raises(ValueError, match=r"underflow.*M=60, N=95\b"):
            blocking_curve(60, 28, 17.8, math.inf)

    def test_loose_threshold_column_answers_below_full_pool(self):
        # at a = 17.8, K = 10 the capped terms hold 0.0335 of the Poisson
        # mass, and 0.0335^256 would underflow every weight of column 256;
        # the truncated law keeps mass 1, and the curve crosses 0.5 just
        # below the exact n_min of 2285 (integer reference)
        curve = blocking_curve(256, 10, 17.8, 0.5)
        assert curve[0][-1] + 1 == 2285
        self.assert_rows_are_compute_blocking(256, 10, 17.8, curve)
        self.assert_stops_at_first_excess(curve, 0.5)


class TestStationaryProbability:
    def test_distribution_sums_to_one(self):
        # the product form over every enumerated state: the recursion's
        # normalization constant r(N+1, M) is the sum of the weights
        for m, k, n in [(2, 3, 4), (3, 2, 5), (4, 4, 9)]:
            for a in (0.5, 1.0, 3.0):
                cfg = pool(m, k, n, a)
                total = sum(product_form(cfg, s) for s in enumerate_states(cfg))
                assert total == pytest.approx(1.0, abs=1e-10)
