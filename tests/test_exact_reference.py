"""Exact-arithmetic reference at the paper's operating point.

Every probability here is a ratio of Python integers; the only rounding
is the final int / int division, which is correctly rounded. The load is
a = 89/5 (the value 17.8) and the radio dimensioning is K = 28. Nothing
below uses the library's recursion, floats or numpy: the level weights
come from counting.

The weight of total occupancy n in a pool of m VBSs is (a^n / n!) T_m(n),
where T_m(n) counts the ways to assign n labelled sessions to m VBSs with
at most K on each. T_m has the exponential generating function E(x)^m
with E(x) = sum_{i<=K} x^i / i!, and E' = E - x^K / K! gives

    T_m(n) = m * (T_m(n-1) - C(n-1, K) * T_{m-1}(n-1-K)).

These tests are the evidence behind acceptance criteria 5 and 6: the
curves and dimensioning points those criteria judge are exact.
"""

import functools
import json
import math
from fractions import Fraction

import pytest

from vbspool import analytic
from vbspool.analytic import blocking_curve, compute_blocking
from vbspool.cli import main
from vbspool.erlang import dimension_radio
from vbspool.model import PoolConfig, TrafficModel
from vbspool.oracle import blocking_direct
from vbspool.planner import dimension_pool, gain_vs_pool_size, knee_point

A_NUM, A_DEN = 89, 5  # a = 89/5
K = 28
POOL_SIZES = [2, 4, 8, 16, 32, 64]
N_MIN = [49, 89, 166, 314, 606, 1182]


def level_counts(m_max, k):
    """T_m(n) for m = 0..m_max and n = 0..m*k."""
    cols = [[1]]
    for m in range(1, m_max + 1):
        prev = cols[-1]
        col = [1]
        for n in range(1, m * k + 1):
            j = n - 1 - k
            spill = math.comb(n - 1, k) * prev[j] if 0 <= j < len(prev) else 0
            col.append(m * (col[-1] - spill))
        cols.append(col)
    return cols


def exact_curve(m, counts, k=K):
    """(radio, comp, den) integers for N = 0..m*k, where p_radio =
    radio/den and p_comp = comp/den.

    Every weight is scaled by top! * 5^top (top = m*k) so that all of them
    are integers.
    """
    top = m * k
    scale = [1] * (top + 1)  # 5^(top-n) * top! / n!
    for n in range(top, 0, -1):
        scale[n - 1] = scale[n] * n * A_DEN

    def below(col):
        sums = [0]
        for n, t in enumerate(col):
            sums.append(sums[-1] + A_NUM**n * scale[n] * t)
        return sums

    pool_below = below(counts[m])
    rest_below = below(counts[m - 1])
    # a^K / K! = 89^K / (5^K K!)
    radio_factor = A_NUM**k
    comp_factor = A_DEN**k * math.factorial(k)
    rows = []
    for n in range(top + 1):
        den = pool_below[n + 1] * comp_factor
        comp = (pool_below[n + 1] - pool_below[n]) * comp_factor
        radio = radio_factor * rest_below[n - k] if n > k else 0
        rows.append((radio, comp, den))
    return rows


@functools.lru_cache(maxsize=None)
def exact_rows(m, k=K):
    """exact_curve(m, level_counts(m, k), k), shared by the tests that read
    the same pool."""
    return exact_curve(m, level_counts(m, k), k)


def exact_n_min(rows):
    """Smallest N such that every N' >= N has p_total <= 1/100."""
    n_min = len(rows) - 1
    while n_min > 0:
        radio, comp, den = rows[n_min - 1]
        if 100 * (radio + comp) > den:
            break
        n_min -= 1
    return n_min


def rel_err(x, y):
    if x == 0.0 and y == 0.0:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def test_level_counts_match_direct_convolution():
    # T_m(n) = sum_i C(n, i) T_{m-1}(n-i): pick the sessions of VBS m.
    k = 3
    cols = level_counts(5, k)
    for m in range(1, 6):
        direct = [
            sum(
                math.comb(n, i) * cols[m - 1][n - i]
                for i in range(k + 1)
                if 0 <= n - i <= (m - 1) * k
            )
            for n in range(m * k + 1)
        ]
        assert cols[m] == direct


def test_radio_dimensioning_is_exact():
    a = Fraction(A_NUM, A_DEN)
    b, k = Fraction(1), 0
    while b > Fraction(1, 100):
        k += 1
        b = a * b / (k + a * b)
    assert k == K
    assert dimension_radio(17.8, 1e-2) == K


@pytest.mark.parametrize("m", [10, 30, 41])
def test_full_descent_sweep_matches_exact(m):
    sweep = dimension_pool(m, 17.8, 1e-2, full_descent=True)
    rows = exact_curve(m, level_counts(m, K))
    assert [p.n_comp for p in sweep.points] == list(range(m * K, -1, -1))
    worst = 0.0
    for pt in sweep.points:
        radio, comp, den = rows[pt.n_comp]
        worst = max(
            worst,
            rel_err(pt.p_radio, radio / den),
            rel_err(pt.p_comp, comp / den),
            rel_err(pt.p_total, (radio + comp) / den),
        )
    assert worst <= 1e-12, f"M={m}: worst relative error {worst:.3e}"


@pytest.mark.parametrize("m", [10, 30])
def test_p_total_monotone_and_above_little_bound(m):
    # p_total(N) falls strictly with N, so the first N above p_th on
    # gain_vs_pool_size's descent from M*K lies just below n_min; and
    # p_total(N) >= 1 - N/(M*a) since the mean occupancy
    # E[T] = M*a*(1 - p_total) is at most N (Little's law)
    rows = exact_curve(m, level_counts(m, K))
    for (r0, c0, d0), (r1, c1, d1) in zip(rows, rows[1:]):
        assert (r1 + c1) * d0 < (r0 + c0) * d1
    for n, (radio, comp, den) in enumerate(rows):
        # 1 - N/(M*a) = (89 M - 5 N) / (89 M)
        assert A_NUM * m * (radio + comp) >= (A_NUM * m - A_DEN * n) * den


def test_n_min_matches_exact():
    counts = level_counts(max(POOL_SIZES), K)
    exact = [exact_n_min(exact_curve(m, counts)) for m in POOL_SIZES]
    assert exact == N_MIN
    rows = gain_vs_pool_size(POOL_SIZES, 17.8, 1e-2)
    assert [r[1] for r in rows] == exact


def test_m60_matches_exact_above_overloaded_band():
    # N <= 130 at M = 60 is the overloaded band where the normalized
    # weights are subnormal or zero; above it every point is accurate
    m = 60
    rows = exact_curve(m, level_counts(m, K))
    worst = 0.0
    for n in range(131, m * K + 1):
        report = compute_blocking(PoolConfig(m, K, n, TrafficModel.from_load(17.8)))
        radio, comp, den = rows[n]
        worst = max(
            worst,
            rel_err(report.p_radio, radio / den),
            rel_err(report.p_comp, comp / den),
            rel_err(report.p_total, (radio + comp) / den),
        )
    assert worst <= 1e-12, f"worst relative error {worst:.3e}"


@pytest.mark.parametrize(
    "m, k, p_th, n_min", [(4, 8, "0.6", 30), (10, 6, "0.7", 55), (30, 9, "0.55", 244)]
)
def test_n_min_above_the_sweep_ceiling_matches_exact(m, k, p_th, n_min):
    # p_th above the early-stopping sweep's 0.5 ceiling, so a sweep cut
    # at the ceiling would stop above the crossing
    th = Fraction(p_th)
    rows = exact_curve(m, level_counts(m, k), k)
    exact = next(
        n for n in range(m * k + 1)
        if all(radio + comp <= th * den for radio, comp, den in rows[n:])
    )
    assert exact == n_min
    assert dimension_radio(17.8, float(th)) == k
    for full in (False, True):
        assert dimension_pool(m, 17.8, float(th), full_descent=full).n_min == n_min
    assert gain_vs_pool_size([m], 17.8, float(th))[0][1] == n_min


def test_knee_above_the_sweep_ceiling_matches_exact():
    # the knee is the largest N where p_comp exceeds p_radio; at
    # (M, K, p_th) = (4, 8, 0.6) it lies below where the 0.5 ceiling stops
    rows = exact_curve(4, level_counts(4, 8), 8)
    knee = max(n for n, (radio, comp, _) in enumerate(rows) if comp > radio)
    assert knee == 30
    assert knee_point(dimension_pool(4, 17.8, 0.6)) == knee


def test_knee_below_the_sweep_rows_matches_exact():
    # at (M, K, p_th) = (30, 9, 0.55) radio blocking leads on every row
    # of the early-stopping sweep (N = 270 down to 243), so the knee is
    # read from the curve below them
    rows = exact_curve(30, level_counts(30, 9), 9)
    knee = max(n for n, (radio, comp, _) in enumerate(rows) if comp > radio)
    assert knee == 237
    sweep = dimension_pool(30, 17.8, 0.55)
    assert all(pt.p_comp <= pt.p_radio for pt in sweep.points)
    assert sweep.points[-1].n_comp > knee
    assert knee_point(sweep) == knee


@pytest.mark.parametrize(
    "m, k, p_th, n_min", [(128, 6, "0.7", 686), (64, 2, "0.9", 115)]
)
def test_loose_threshold_studies_match_exact(m, k, p_th, n_min):
    # the capped terms hold a small share of the Poisson mass at K = 6
    # and K = 2, so scaled by e^-a column M would hold that share to the
    # power M and underflow; the truncated law keeps every column at mass 1
    th = Fraction(p_th)
    rows = exact_curve(m, level_counts(m, k), k)
    exact = next(
        n for n in range(m * k + 1)
        if all(radio + comp <= th * den for radio, comp, den in rows[n:])
    )
    assert exact == n_min
    assert dimension_radio(17.8, float(th)) == k
    assert gain_vs_pool_size([m], 17.8, float(th))[0][1] == n_min
    assert dimension_pool(m, 17.8, float(th)).n_min == n_min
    curve = blocking_curve(m, k, 17.8, float(th))
    for n, p_radio, p_comp, p_total in zip(*(x.tolist() for x in curve)):
        radio, comp, den = rows[n]
        assert rel_err(p_radio, radio / den) <= 1e-12, n
        assert rel_err(p_comp, comp / den) <= 1e-12, n
        assert rel_err(p_total, (radio + comp) / den) <= 1e-12, n


def test_m60_k6_full_descent_and_oracle_match_exact():
    # at K = 6 the truncated law keeps every weight of column 60 normal,
    # so the recursion answers at every N; the lumped chain at N = 20
    # has 1513 states
    rows = exact_curve(60, level_counts(60, 6), 6)
    curve = blocking_curve(60, 6, 17.8, math.inf)
    assert curve[0].tolist() == list(range(360, -1, -1))
    for n, p_radio, p_comp, p_total in zip(*(x.tolist() for x in curve)):
        radio, comp, den = rows[n]
        assert rel_err(p_radio, radio / den) <= 1e-12, n
        assert rel_err(p_comp, comp / den) <= 1e-12, n
        assert rel_err(p_total, (radio + comp) / den) <= 1e-12, n
    report = blocking_direct(PoolConfig(60, 6, 20, TrafficModel.from_load(17.8)))
    radio, comp, den = rows[20]
    assert rel_err(report.p_radio, radio / den) <= 1e-12
    assert rel_err(report.p_comp, comp / den) <= 1e-12
    assert rel_err(report.p_total, (radio + comp) / den) <= 1e-12


@pytest.mark.parametrize("m, k, n", [(60, 28, 16)])
def test_oracle_matches_exact_where_the_recursion_refuses(m, k, n):
    # the reachable weight underflows at the offered load, and the
    # recursion reads the row at a tilted load; the lumped chain has 915
    # states
    config = PoolConfig(m, k, n, TrafficModel.from_load(17.8))
    radio, comp, den = exact_rows(m, k)[n]
    for report in (blocking_direct(config), compute_blocking(config)):
        worst = max(
            rel_err(report.p_radio, radio / den),
            rel_err(report.p_comp, comp / den),
            rel_err(report.p_total, (radio + comp) / den),
        )
        assert worst <= 1e-12, f"worst relative error {worst:.3e}"


def test_oracle_command_answers_where_the_recursion_refuses(capsys):
    # the weights at the offered load underflow at (60, 28, 16); the
    # command reports the oracle's answer and its deviation from the
    # recursion's, and exits 0 with no warning
    code = main(
        ["oracle", "--m", "60", "--k", "28", "--n", "16", "--a", "17.8",
         "--format", "json"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    result = json.loads(captured.out)["result"]
    assert result["max_relative_deviation"] <= 1e-9
    radio, comp, den = exact_rows(60)[16]
    assert abs(result["p_radio"] - radio / den) <= 1e-12
    assert abs(result["p_comp"] - comp / den) <= 1e-12


def exact_point(m, k, n, a):
    """(p_radio, p_comp) as Fractions at N = n for the Fraction load a,
    from the counts T_j(i) for i <= n only."""
    cols = [[1] + [0] * n]
    for j in range(1, m + 1):
        prev, col = cols[-1], [1]
        for i in range(1, n + 1):
            spill = math.comb(i - 1, k) * prev[i - 1 - k] if i > k else 0
            col.append(j * (col[-1] - spill))
        cols.append(col)
    weight = [a**i / math.factorial(i) for i in range(n + 1)]
    den = sum(w * t for w, t in zip(weight, cols[m]))
    rest = sum(w * t for w, t in zip(weight[: max(n - k, 0)], cols[m - 1]))
    return weight[k] * rest / den if k <= n else 0, weight[n] * cols[m][n] / den


def test_m60_matches_exact_in_the_overloaded_band():
    # N <= 139 at M = 60 is read at a tilted load: the weights at the
    # offered load are 0 below N = 96 and subnormal up to N = 130
    m = 60
    rows = exact_rows(m)
    worst = 0.0
    for n in range(131):
        report = compute_blocking(PoolConfig(m, K, n, TrafficModel.from_load(17.8)))
        radio, comp, den = rows[n]
        worst = max(
            worst,
            rel_err(report.p_radio, radio / den),
            rel_err(report.p_comp, comp / den),
            rel_err(report.p_total, (radio + comp) / den),
        )
    assert worst <= 1e-12, f"worst relative error {worst:.3e}"


@pytest.mark.parametrize(
    "m, k, n, a",
    [(100, 28, 300, Fraction(A_NUM, A_DEN)), (100, 28, 428, Fraction(A_NUM, A_DEN)),
     (150, 28, 34, Fraction(5)), (202, 28, 113, Fraction(5))],
)
def test_tilted_rows_match_exact(m, k, n, a):
    # r(N+1, M) at M = 100, and r(N-K, M-1) of p_radio at a = 5, hold
    # weights below the normal range at the offered load (p_radio read
    # there was 10% and 5% off at a = 5)
    radio, comp = exact_point(m, k, n, a)
    report = compute_blocking(PoolConfig(m, k, n, TrafficModel.from_load(float(a))))
    assert rel_err(report.p_radio, float(radio)) <= 1e-12
    assert rel_err(report.p_comp, float(comp)) <= 1e-12
    assert rel_err(report.p_total, float(radio + comp)) <= 1e-12


@pytest.mark.parametrize("m, n", [(60, 0), (60, 40), (60, 139), (1024, 9114), (1024, 13435)])
def test_tilted_rows_agree_at_neighbouring_rungs(m, n, monkeypatch):
    # the tilt is exact, so a tilted row read one rung above or below its
    # nearest agrees with it
    nearest = analytic._nearest_rung(m, K, 17.8, n)
    config = PoolConfig(m, K, n, TrafficModel.from_load(17.8))
    report = compute_blocking(config)
    for rung in (nearest - 1, nearest + 1):
        monkeypatch.setattr(analytic, "_nearest_rung", lambda *args: rung)
        if rung >= 1:
            moved = compute_blocking(config)
            assert rel_err(moved.p_radio, report.p_radio) <= 1e-12
            assert rel_err(moved.p_comp, report.p_comp) <= 1e-12


def test_early_stopping_sweep_ends_at_the_half_crossing():
    # at M = 1024 the rows N <= 13435 are tilted; the curve stopped at 0.5
    # ends on the first row above it, N = 9114 with p_total 0.500033
    curve = blocking_curve(1024, K, 17.8, 0.5)
    assert curve[0][-1] == 9114
    assert curve[3][-1] == pytest.approx(0.500033, abs=1e-6)
    assert curve[3][-2] <= 0.5
