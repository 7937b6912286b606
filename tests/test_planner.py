import gc
import io
import json
import re

import pytest

from vbspool.analytic import compute_blocking
from vbspool.erlang import asymptotic_utilization, dimension_radio, erlang_b
from vbspool.model import PoolConfig, TrafficModel
from vbspool.planner import (
    SweepResult,
    dimension_pool,
    gain_vs_pool_size,
    knee_point,
    sweep_summary,
    sweep_to_csv,
)


class TestDimensionPool:
    def test_single_vbs_has_no_gain(self):
        sweep = dimension_pool(1, 17.8, 1e-2)
        assert sweep.k_radio == 28
        assert sweep.n_min == 28
        assert sweep.pooling_gain == 0.0

    def test_pooling_beats_full_provisioning(self):
        sweep = dimension_pool(10, 17.8, 1e-2)
        assert sweep.n_min < 280
        assert 0.0 < sweep.pooling_gain < 1.0

    def test_full_provisioning_meets_threshold(self):
        for m, a, pth in [(1, 1.0, 0.5), (5, 3.0, 1e-2), (10, 17.8, 1e-2)]:
            sweep = dimension_pool(m, a, pth)
            top = sweep.points[0]
            assert top.n_comp == m * sweep.k_radio
            assert top.p_total == pytest.approx(
                erlang_b(sweep.k_radio, a), rel=1e-12
            )
            assert top.p_total <= pth

    def test_threshold_bracketing(self):
        sweep = dimension_pool(10, 17.8, 1e-2, full_descent=True)
        by_n = {p.n_comp: p for p in sweep.points}
        assert by_n[sweep.n_min].p_total <= 1e-2
        assert by_n[sweep.n_min - 1].p_total > 1e-2

    def test_curve_monotone_in_n(self):
        sweep = dimension_pool(4, 3.0, 1e-2, full_descent=True)
        totals = [p.p_total for p in sweep.points]  # descending N
        assert all(x <= y + 1e-15 for x, y in zip(totals, totals[1:]))

    def test_early_stop_vs_full_descent(self):
        partial = dimension_pool(4, 3.0, 1e-2)
        full = dimension_pool(4, 3.0, 1e-2, full_descent=True)
        assert len(full.points) == 4 * full.k_radio + 1
        assert len(partial.points) <= len(full.points)
        assert partial.n_min == full.n_min
        assert partial.points[-1].p_total > 0.5 or partial.points[-1].n_comp == 0

    def test_underflow_is_domain_error(self):
        # the recursion underflows below N = 96 at M = 60; the sweep
        # names the first such N
        with pytest.raises(ValueError, match="underflow") as exc:
            dimension_pool(60, 17.8, 1e-2, full_descent=True)
        found = re.search(r"M=60, N=(\d+)\b", str(exc.value))
        assert found
        n = int(found.group(1))
        assert n == 95
        traffic = TrafficModel.from_load(17.8)
        with pytest.raises(ValueError, match=f"underflow.*M=60, N={n}\\b"):
            compute_blocking(PoolConfig(60, 28, n, traffic))
        assert compute_blocking(PoolConfig(60, 28, n + 1, traffic)).p_comp > 0.0

    def test_normalized_axis(self):
        sweep = dimension_pool(2, 1.0, 0.5)
        for p in sweep.points:
            assert p.normalized_n == p.n_comp / (2 * sweep.k_radio)


class TestKneePoint:
    def test_single_vbs_knee_at_top(self):
        # p_radio is identically 0, so the crossover is at N = K
        sweep = dimension_pool(1, 1.0, 0.5)
        assert knee_point(sweep) == sweep.k_radio

    def test_knee_near_threshold_crossing(self):
        sweep = dimension_pool(10, 17.8, 1e-2)
        knee = knee_point(sweep)
        assert abs(knee - sweep.n_min) <= 5

    def test_crossover_sides(self):
        sweep = dimension_pool(10, 17.8, 1e-2, full_descent=True)
        knee = knee_point(sweep)
        for p in sweep.points:
            if p.n_comp > knee:
                assert p.p_comp <= p.p_radio
        by_n = {p.n_comp: p for p in sweep.points}
        assert by_n[knee].p_comp > by_n[knee].p_radio

    def test_sentinel_when_sweep_stops_above_crossover(self):
        full = dimension_pool(10, 17.8, 1e-2, full_descent=True)
        knee = knee_point(full)
        truncated = SweepResult(
            m_vbs=full.m_vbs,
            k_radio=full.k_radio,
            a=full.a,
            p_threshold=full.p_threshold,
            points=tuple(p for p in full.points if p.n_comp > knee),
            n_min=full.n_min,
            pooling_gain=full.pooling_gain,
            limit_bounds=full.limit_bounds,
        )
        assert knee_point(truncated) == full.m_vbs * full.k_radio

    def test_one_point_sweep_knee_is_full_provisioning(self):
        # K = 8: p_total(N = M*K) = 0.586 is already above the ceiling,
        # so the sweep stops after its first point
        sweep = dimension_pool(4, 17.8, 0.6)
        assert sweep.k_radio == 8
        assert len(sweep.points) == 1
        assert knee_point(sweep) == 32
        assert sweep_summary(sweep)["knee"] == 32


class TestGainVsPoolSize:
    def test_single_vbs_row(self):
        rows = gain_vs_pool_size([1], 1.0, 0.5)
        assert rows == [(1, 1, 1.0, 0.0)]

    def test_gain_nondecreasing_in_pool_size(self):
        for a, pth in [(8.0, 1e-2), (17.8, 1e-2), (17.8, 3e-2)]:
            rows = gain_vs_pool_size([1, 2, 4, 8, 16], a, pth)
            gains = [r[3] for r in rows]
            assert all(x <= y + 1e-12 for x, y in zip(gains, gains[1:]))

    def test_rows_match_dimension_pool(self):
        # 1.0/0.5 dimensions K = 1 < a, the regime without limit bounds
        small = [1, 2, 5, 16, 40]
        cases = [(17.8, 1e-2, small), (8.0, 1e-3, small), (17.8, 0.5, small),
                 (1.0, 0.5, small), (17.8, 1e-2, [64, 256, 1024])]
        for a, pth, pools in cases:
            want = []
            for m in pools:
                s = dimension_pool(m, a, pth)
                want.append((m, s.n_min, s.n_min / (m * s.k_radio), s.pooling_gain))
            assert gain_vs_pool_size(pools, a, pth) == want

    @pytest.mark.parametrize("m", [64, 512])
    def test_tie_case_brackets_threshold(self, m):
        # K = 1 and Erlang-B(1, 1) = 0.5 exactly: p_total lies within
        # rounding of 0.5 for many N (the exact n_min is M*K), so any
        # computed crossing is valid if it brackets the threshold
        (row,) = gain_vs_pool_size([m], 1.0, 0.5)
        n_min = row[1]
        p_total = [
            compute_blocking(PoolConfig(m, 1, n, TrafficModel.from_load(1.0))).p_total
            for n in (n_min, n_min - 1)
        ]
        assert p_total[0] <= 0.5 < p_total[1]

    @pytest.mark.parametrize("m", [64, 512])
    def test_tie_case_entry_points_agree_on_exact_answer(self, m):
        # at N = M*K p_total is Erlang-B(1, 1) = 0.5 <= p_th exactly and
        # every smaller N blocks more, so both entry points give M*K
        assert dimension_pool(m, 1.0, 0.5).n_min == m
        assert gain_vs_pool_size([m], 1.0, 0.5) == [(m, m, 1.0, 0.0)]

    def test_underflow_is_domain_error(self):
        # at a = 17.8, p_th = 0.5 (K = 10) the capped pmf holds 0.0335 of
        # the mass, and 0.0335^256 underflows every weight of column 256,
        # so no n_min is reported (the exact one is 2285, not M*K)
        with pytest.raises(ValueError, match=r"underflow.*M=256, N="):
            gain_vs_pool_size([256], 17.8, 0.5)

    def test_small_pools_keep_their_rows(self):
        assert gain_vs_pool_size([2, 4, 8, 16, 32, 64], 17.8, 0.5) == [
            (2, 20, 1.0, 0.0),
            (4, 38, 0.95, 1 - 38 / 40),
            (8, 75, 0.9375, 0.0625),
            (16, 147, 0.91875, 1 - 147 / 160),
            (32, 290, 0.90625, 0.09375),
            (64, 575, 0.8984375, 0.1015625),
        ]

    def test_pool_size_below_one_is_rejected(self):
        for m in (0, -3):
            with pytest.raises(ValueError, match="pool size"):
                gain_vs_pool_size([2, m], 17.8, 1e-2)
            with pytest.raises(ValueError, match="pool size"):
                dimension_pool(m, 17.8, 1e-2)

    def test_study_runs_no_garbage_collection(self):
        # a study keeps no per-point objects, so however long its sweeps
        # it never fills the youngest generation; a collection there can
        # promote into, and trigger, a scan of the whole heap
        pools = [2**i for i in range(1, 9)]
        gain_vs_pool_size(pools, 19.3, 1e-2)  # table built outside the count
        runs = []

        def count(phase, info):
            if phase == "start":
                runs.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            gain_vs_pool_size(pools, 19.3, 1e-2)
        finally:
            gc.callbacks.remove(count)
        assert runs == []

    def test_normalized_n_min_above_asymptote(self):
        # E[k]/K, the utilization of a fully provisioned pool, is not the
        # limit of normalized n_min (that is a(1 - p_th)/K), but it lies
        # below normalized n_min at these small pools
        k = dimension_radio(17.8, 1e-2)
        floor = asymptotic_utilization(k, 17.8)
        rows = gain_vs_pool_size([2, 8, 32], 17.8, 1e-2)
        assert all(r[2] >= floor for r in rows), (
            f"normalized n_min {[r[2] for r in rows]} below E[k]/K {floor}"
        )

    def test_n_min_above_little_bound_to_4096(self):
        # by Little's law p_total >= 1 - N/(M*a), so n_min >= M*a*(1 - p_th)
        # at every M; E[k]/K is no floor: at M = 4096 normalized n_min
        # (0.630912) lies below it (0.631693)
        a, pth = 17.8, 1e-2
        pools = [2**i for i in range(1, 13)]
        rows = gain_vs_pool_size(pools, a, pth)
        for m, n_min, _, _ in rows:
            assert n_min >= m * a * (1 - pth), (m, n_min)
        k = dimension_radio(a, pth)
        assert rows[-1][2] < asymptotic_utilization(k, a)

    def test_stricter_qos_increases_gain(self):
        for m in (5, 30):
            strict = dimension_pool(m, 17.8, 1e-2).pooling_gain
            loose = dimension_pool(m, 17.8, 3e-2).pooling_gain
            assert strict >= loose

    def test_heavier_load_reduces_gain(self):
        gains = [
            dimension_pool(10, a, 1e-2).pooling_gain for a in (10.0, 17.8, 25.0)
        ]
        assert all(x >= y - 1e-12 for x, y in zip(gains, gains[1:]))


class TestSerialization:
    def test_csv_round_trip(self):
        sweep = dimension_pool(2, 1.0, 0.5)
        buf = io.StringIO()
        sweep_to_csv(sweep, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("# vbspool sweep m=2")
        assert lines[1] == "n,normalized_n,p_radio,p_comp,p_total"
        for line, point in zip(lines[2:], sweep.points):
            n, norm, pr, pc, pt = line.split(",")
            assert int(n) == point.n_comp
            assert float(pr) == pytest.approx(point.p_radio, rel=1e-11)
            assert float(pt) == pytest.approx(point.p_total, rel=1e-11)

    def test_summary_fields(self):
        sweep = dimension_pool(4, 3.0, 1e-2)
        summary = sweep_summary(sweep)
        assert summary["n_min"] == sweep.n_min
        assert summary["knee"] == knee_point(sweep)
        assert summary["limit_lower"] <= summary["limit_upper"]

    def test_loose_threshold_has_no_limit_bounds(self):
        # K = 10 < a = 17.8: the large-pool bounds do not exist, but the
        # sweep itself is well defined
        sweep = dimension_pool(4, 17.8, 0.5)
        assert sweep.k_radio == 10
        assert sweep.limit_bounds is None
        p_total = {pt.n_comp: pt.p_total for pt in sweep.points}
        assert p_total[sweep.n_min] <= 0.5 < p_total[sweep.n_min - 1]
        summary = sweep_summary(sweep)
        assert summary["limit_lower"] is None
        assert summary["limit_upper"] is None
        assert json.loads(json.dumps(summary))["n_min"] == sweep.n_min
