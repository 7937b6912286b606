import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import vbspool
from vbspool.analytic import compute_blocking
from vbspool.erlang import erlang_b
from vbspool.model import PoolConfig, TrafficModel
from vbspool.simulator import SimConfig, _run_replication, simulate


def pool(m, k, n, a=1.0, lam=None, mu=1.0):
    if lam is not None:
        return PoolConfig(m, k, n, TrafficModel(lam=lam, mu=mu))
    return PoolConfig(m, k, n, TrafficModel.from_load(a))


class Replay:
    """Stands in for the generator: every batch is the scripted uniforms."""

    def __init__(self, uniforms):
        self.uniforms = uniforms

    def random(self, size):
        return np.array(self.uniforms)


class TestSimConfig:
    def test_default_warmup_is_ten_percent(self):
        sim = SimConfig(pool=pool(1, 1, 1), horizon_sessions=1000)
        assert sim.warmup_sessions == 100

    def test_warmup_must_fit_in_horizon(self):
        with pytest.raises(ValueError):
            SimConfig(pool=pool(1, 1, 1), horizon_sessions=10, warmup_sessions=10)
        with pytest.raises(ValueError):
            SimConfig(pool=pool(1, 1, 1), horizon_sessions=10, warmup_sessions=-1)

    @pytest.mark.parametrize("horizon", [0, -5])
    def test_horizon_must_be_positive(self, horizon):
        # a blocking estimate needs at least one offered session
        with pytest.raises(ValueError, match="horizon_sessions must be >= 1"):
            SimConfig(pool=pool(1, 1, 1), horizon_sessions=horizon)
        with pytest.raises(ValueError, match="horizon_sessions must be >= 1"):
            SimConfig(
                pool=pool(1, 1, 1), horizon_sessions=horizon, warmup_sessions=0
            )

    def test_replications_positive(self):
        with pytest.raises(ValueError):
            SimConfig(pool=pool(1, 1, 1), horizon_sessions=10, replications=0)


class TestSimulate:
    def test_deterministic_given_seed(self):
        sim = SimConfig(
            pool=pool(2, 2, 3), horizon_sessions=5000, replications=3, seed=11
        )
        assert simulate(sim) == simulate(sim)

    def test_different_seeds_differ(self):
        base = dict(pool=pool(2, 2, 3), horizon_sessions=5000, replications=3)
        a = simulate(SimConfig(seed=1, **base))
        b = simulate(SimConfig(seed=2, **base))
        assert a.p_total_hat != b.p_total_hat

    def test_single_server_loss_system(self):
        sim = SimConfig(
            pool=pool(1, 1, 1), horizon_sessions=200_000, replications=5, seed=7
        )
        est = simulate(sim)
        assert est.p_radio_hat == 0.0  # N = K = 1: the pool fills first
        assert abs(est.p_total_hat - 0.5) <= 3 * est.ci_halfwidth[2]

    def test_total_is_sum_of_labels(self):
        sim = SimConfig(
            pool=pool(3, 2, 4), horizon_sessions=20_000, replications=4, seed=3
        )
        est = simulate(sim)
        assert est.p_total_hat == pytest.approx(
            est.p_radio_hat + est.p_comp_hat, abs=1e-15
        )
        for rep in est.per_replication:
            assert rep[2] == pytest.approx(rep[0] + rep[1], abs=1e-15)
            assert 0.0 <= rep[2] <= 1.0

    def test_time_scaling_invariance(self):
        # the jump chain reads only a = lam/mu, so any common scale of
        # lambda and mu gives bit-identical results per seed
        def run(lam, mu):
            sim = SimConfig(
                pool=pool(2, 3, 4, lam=lam, mu=mu),
                horizon_sessions=30_000,
                replications=3,
                seed=5,
            )
            return simulate(sim).per_replication

        slow = run(1.0, 1.0)
        assert run(2.0, 2.0) == slow
        assert run(0.3, 0.3) == slow

    def test_ci_is_student_t_over_replications(self):
        sim = SimConfig(
            pool=pool(3, 2, 4), horizon_sessions=5000, replications=4, seed=3
        )
        est = simulate(sim)
        data = np.asarray(est.per_replication)
        sem = data.std(axis=0, ddof=1) / np.sqrt(4)
        assert est.ci_halfwidth == tuple(stats.t.ppf(0.975, 3) * sem)

    def test_single_replication_has_no_ci(self):
        sim = SimConfig(pool=pool(1, 1, 1), horizon_sessions=1000, seed=1)
        est = simulate(sim)
        assert all(np.isnan(h) for h in est.ci_halfwidth)

    def test_matches_erlang_b_for_single_vbs(self):
        sim = SimConfig(
            pool=pool(1, 3, 3, a=2.0),
            horizon_sessions=100_000,
            replications=8,
            seed=13,
        )
        est = simulate(sim)
        assert abs(est.p_total_hat - erlang_b(3, 2.0)) <= 3 * est.ci_halfwidth[2]

    def test_components_match_recursion(self):
        # each component expects more than 500 blocked sessions here
        # (about 5700 radio, 24700 computational), enough for its
        # t-interval to hold
        cfg = pool(4, 5, 12, a=3.0)
        sim = SimConfig(pool=cfg, horizon_sessions=20_000, replications=8, seed=1)
        est = simulate(sim)
        exact = compute_blocking(cfg)
        assert abs(est.p_radio_hat - exact.p_radio) <= 5 * est.ci_halfwidth[0]
        assert abs(est.p_comp_hat - exact.p_comp) <= 5 * est.ci_halfwidth[1]

    def test_rounding_never_picks_out_of_range(self):
        # with u = 1 - 2**-53, x / a rounds up to M for (M, a) = (3, 17.8)
        # at T = 0, and x - M*a rounds up to T for (1, 0.7) at T = 3
        top = 1 - 2**-53
        assert _run_replication(pool(3, 2, 4, a=17.8), 1, 0, Replay([top])) == (
            0.0, 0.0, 0.0
        )
        assert _run_replication(
            pool(1, 5, 5, a=0.7), 4, 0, Replay([0.0, 0.0, 0.0, top, 0.0])
        ) == (0.0, 0.0, 0.0)


class TestAdmissionRule:
    # with a = 1 and T sessions in service, u = 0.1 gives x = 0.1 * (M + T)
    # < 1: an arrival at the first VBS, while T <= 7

    def test_radio_full_vbs_blocks_below_full_pool(self):
        # the first arrival is admitted; the second finds its VBS full
        # (K = 1) with one of N = 2 c-servers free
        assert _run_replication(pool(2, 1, 2), 2, 0, Replay([0.1, 0.1])) == (
            0.5, 0.0, 0.5
        )

    def test_full_pool_blocks_before_radio(self):
        # the second arrival finds both its VBS (K = 1) and the pool
        # (N = 1) full, and counts as compute-blocked
        assert _run_replication(pool(2, 1, 1), 2, 0, Replay([0.1, 0.1])) == (
            0.0, 0.5, 0.5
        )


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import, and every CLI command
    # would pay it
    src = str(Path(vbspool.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, vbspool; print('scipy.stats' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
