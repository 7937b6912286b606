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
from vbspool.model import (
    Outcome,
    PoolConfig,
    StateVector,
    TrafficModel,
    classify_blocking,
)
from vbspool.simulator import SimConfig, _run_replication, simulate, simulate_trace


def pool(m, k, n, a=1.0, lam=None, mu=1.0):
    if lam is not None:
        return PoolConfig(m, k, n, TrafficModel(lam=lam, mu=mu))
    return PoolConfig(m, k, n, TrafficModel.from_load(a))


class TestSimConfig:
    def test_default_warmup_is_ten_percent(self):
        sim = SimConfig(pool=pool(1, 1, 1), horizon_sessions=1000)
        assert sim.warmup_sessions == 100

    def test_warmup_must_fit_in_horizon(self):
        with pytest.raises(ValueError):
            SimConfig(pool=pool(1, 1, 1), horizon_sessions=10, warmup_sessions=10)
        with pytest.raises(ValueError):
            SimConfig(pool=pool(1, 1, 1), horizon_sessions=10, warmup_sessions=-1)

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
        class Replay:
            def __init__(self, uniforms):
                self.uniforms = uniforms

            def random(self, size):
                return np.array(self.uniforms)

        top = 1 - 2**-53
        assert _run_replication(pool(3, 2, 4, a=17.8), 1, 0, Replay([top])) == (
            0.0, 0.0, 0.0
        )
        assert _run_replication(
            pool(1, 5, 5, a=0.7), 4, 0, Replay([0.0, 0.0, 0.0, top, 0.0])
        ) == (0.0, 0.0, 0.0)


class TestTrace:
    def collect(self, sim):
        events = []
        simulate_trace(sim, lambda t, kind, vbs, total: events.append((t, kind, vbs, total)))
        return events

    def test_empty_horizon_no_events(self):
        sim = SimConfig(pool=pool(2, 2, 3), horizon_sessions=0, warmup_sessions=0)
        assert self.collect(sim) == []

    def test_requires_single_replication(self):
        sim = SimConfig(pool=pool(1, 1, 1), horizon_sessions=10, replications=2)
        with pytest.raises(ValueError):
            simulate_trace(sim, lambda *args: None)

    def test_occupancy_never_violates_limits(self):
        cfg = pool(3, 2, 4)
        sim = SimConfig(pool=cfg, horizon_sessions=5000, warmup_sessions=0, seed=9)
        occ = [0] * 3
        for t, kind, vbs, total in self.collect(sim):
            if kind == "arrival_admitted":
                occ[vbs - 1] += 1
            elif kind == "departure":
                occ[vbs - 1] -= 1
            assert sum(occ) == total
            assert 0 <= total <= cfg.n_comp
            assert all(0 <= k <= cfg.k_radio for k in occ)

    def test_blocking_labels_match_model_rule(self):
        cfg = pool(3, 2, 4)
        sim = SimConfig(pool=cfg, horizon_sessions=5000, warmup_sessions=0, seed=21)
        occ = [0] * 3
        expected_label = {
            Outcome.ADMIT: "arrival_admitted",
            Outcome.RADIO_BLOCK: "arrival_radio_blocked",
            Outcome.COMPUTE_BLOCK: "arrival_compute_blocked",
        }
        for t, kind, vbs, total in self.collect(sim):
            if kind == "departure":
                occ[vbs - 1] -= 1
                continue
            outcome = classify_blocking(cfg, StateVector(tuple(occ)), vbs)
            assert kind == expected_label[outcome]
            if kind == "arrival_admitted":
                occ[vbs - 1] += 1

    def test_times_are_nondecreasing(self):
        sim = SimConfig(pool=pool(2, 2, 3), horizon_sessions=2000, warmup_sessions=0, seed=2)
        times = [e[0] for e in self.collect(sim)]
        assert all(x <= y for x, y in zip(times, times[1:]))

    def test_first_event_is_pooled_poisson_arrival(self):
        # the first event of M superposed Poisson(lam) streams is
        # Exp(M * lam); KS-test the first-arrival sample over many seeds
        m, lam = 4, 1.5
        cfg = pool(m, 2, 8, lam=lam)
        firsts = []
        for seed in range(400):
            sim = SimConfig(
                pool=cfg, horizon_sessions=1, warmup_sessions=0, seed=seed
            )
            events = self.collect(sim)
            firsts.append(events[0][0])
        result = stats.kstest(firsts, "expon", args=(0, 1 / (m * lam)))
        assert result.pvalue > 1e-3


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
