"""Monte Carlo simulation of the pool on its embedded jump chain.

Holding times are exponential, so the next transition depends only on
the current state. Measured in mean holding times, arrivals come at rate
M*a, uniform over the VBSs, and each of the T sessions in service leaves
at rate 1. One uniform per event picks the transition, and the run
never keeps a clock. Blocking is estimated by counting offered sessions
(valid by PASTA), with a 95% confidence interval from across-replication
variance. Only a trace sink needs times: simulate_trace draws the
Exp(mu*(M*a + T)) holding time of every state it leaves. Replications
draw their random streams from SeedSequence(seed).spawn, so runs are
reproducible and replications are independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import PoolConfig

_BATCH = 4096  # uniforms drawn from the generator at a time

TraceSink = Callable[[float, str, int, int], None]


@dataclass(frozen=True)
class SimConfig:
    """Run parameters. warmup_sessions defaults to 10% of the horizon."""

    pool: PoolConfig
    horizon_sessions: int
    replications: int = 1
    seed: int = 0
    warmup_sessions: int | None = None

    def __post_init__(self):
        warmup = self.warmup_sessions
        if warmup is None:
            warmup = self.horizon_sessions // 10
            object.__setattr__(self, "warmup_sessions", warmup)
        # horizon == warmup == 0 is allowed as a degenerate trace run
        if warmup < 0 or warmup > max(self.horizon_sessions - 1, 0):
            raise ValueError(
                f"need 0 <= warmup ({warmup}) < horizon ({self.horizon_sessions})"
            )
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")


@dataclass(frozen=True)
class SimEstimate:
    """Point estimates with 95% CI half-widths (radio, comp, total)."""

    p_radio_hat: float
    p_comp_hat: float
    p_total_hat: float
    ci_halfwidth: tuple[float, float, float]
    offered: int
    per_replication: tuple[tuple[float, float, float], ...] = field(repr=False)


def _run_replication(
    pool: PoolConfig,
    horizon: int,
    warmup: int,
    rng: np.random.Generator,
    sink: TraceSink | None = None,
) -> tuple[float, float, float]:
    """One independent run; returns (radio, comp, total) blocked fractions."""
    M, K, N, a = pool.m_vbs, pool.k_radio, pool.n_comp, pool.a
    mu = pool.traffic.mu  # sets the trace clock only
    arrival_rate = M * a
    occ = [0] * M
    busy: list[int] = []  # the VBS of each session in service, unordered
    t = 0.0
    offered = n_radio = n_comp = 0
    while offered < horizon:
        for u in rng.random(_BATCH).tolist():
            T = len(busy)
            x = u * (arrival_rate + T)
            # min(): rounding can carry x / a to M or x - M*a to T
            if x < arrival_rate:
                m = min(int(x / a), M - 1)
                offered += 1
                # same rule as model.classify_blocking, inlined for the hot loop
                if T == N:
                    event = "arrival_compute_blocked"
                    n_comp += offered > warmup
                elif occ[m] == K:
                    event = "arrival_radio_blocked"
                    n_radio += offered > warmup
                else:
                    event = "arrival_admitted"
                    occ[m] += 1
                    busy.append(m)
            else:
                i = min(int(x - arrival_rate), T - 1)
                m = busy[i]
                busy[i] = busy[-1]
                busy.pop()
                occ[m] -= 1
                event = "departure"
            if sink is not None:
                # the holding time of the state just left, T sessions in service
                t += rng.standard_exponential() / (mu * (arrival_rate + T))
                sink(t, event, m + 1, len(busy))
            if offered == horizon:
                break

    counted = horizon - warmup
    if counted == 0:
        return (0.0, 0.0, 0.0)
    return (n_radio / counted, n_comp / counted, (n_radio + n_comp) / counted)


def simulate(sim: SimConfig) -> SimEstimate:
    """Run all replications and aggregate; deterministic given sim.seed."""
    streams = np.random.SeedSequence(sim.seed).spawn(sim.replications)
    reps = [
        _run_replication(
            sim.pool,
            sim.horizon_sessions,
            sim.warmup_sessions,
            np.random.default_rng(stream),
        )
        for stream in streams
    ]
    data = np.asarray(reps)
    means = data.mean(axis=0)
    if sim.replications > 1:
        # scipy.stats costs about a second to import; stdtrit is the same
        # Student-t quantile without it
        from scipy.special import stdtrit

        sem = data.std(axis=0, ddof=1) / np.sqrt(sim.replications)
        tq = stdtrit(sim.replications - 1, 0.975)
        half = tuple(float(x) for x in tq * sem)
    else:
        half = (float("nan"),) * 3
    counted = sim.horizon_sessions - sim.warmup_sessions
    return SimEstimate(
        p_radio_hat=float(means[0]),
        p_comp_hat=float(means[1]),
        p_total_hat=float(means[2]),
        ci_halfwidth=half,
        offered=counted * sim.replications,
        per_replication=tuple(tuple(r) for r in reps),
    )


def simulate_trace(sim: SimConfig, sink: TraceSink):
    """Stream (time, event, vbs, total_occupancy) tuples for one run."""
    if sim.replications != 1:
        raise ValueError("tracing requires exactly one replication")
    stream = np.random.SeedSequence(sim.seed).spawn(1)[0]
    _run_replication(
        sim.pool,
        sim.horizon_sessions,
        sim.warmup_sessions,
        np.random.default_rng(stream),
        sink=sink,
    )
