"""Event-driven Monte Carlo simulation of the pool.

Estimates blocking probabilities by counting offered sessions (valid by
PASTA), with a 95% confidence interval from across-replication variance.
Replications draw their random streams from SeedSequence(seed).spawn, so
runs are reproducible and replications are independent.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import Outcome, PoolConfig

_ARRIVAL = 0
_DEPARTURE = 1

EVENT_NAMES = {
    Outcome.ADMIT: "arrival_admitted",
    Outcome.RADIO_BLOCK: "arrival_radio_blocked",
    Outcome.COMPUTE_BLOCK: "arrival_compute_blocked",
}

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
    M, K, N = pool.m_vbs, pool.k_radio, pool.n_comp
    lam, mu = pool.traffic.lam, pool.traffic.mu
    occ = [0] * M
    total = 0
    seq = 0  # tie-break by insertion order
    heap: list[tuple[float, int, int, int]] = []
    for m in range(M):
        heapq.heappush(heap, (rng.exponential(1.0 / lam), seq, _ARRIVAL, m))
        seq += 1

    offered = 0
    n_radio = n_comp = 0
    while offered < horizon:
        t, _, kind, m = heapq.heappop(heap)
        if kind == _ARRIVAL:
            offered += 1
            # same rule as model.classify_blocking, inlined for the hot loop
            if total == N:
                outcome = Outcome.COMPUTE_BLOCK
            elif occ[m] == K:
                outcome = Outcome.RADIO_BLOCK
            else:
                outcome = Outcome.ADMIT
            if offered > warmup:
                if outcome is Outcome.RADIO_BLOCK:
                    n_radio += 1
                elif outcome is Outcome.COMPUTE_BLOCK:
                    n_comp += 1
            if outcome is Outcome.ADMIT:
                occ[m] += 1
                total += 1
                heapq.heappush(
                    heap, (t + rng.exponential(1.0 / mu), seq, _DEPARTURE, m)
                )
                seq += 1
            heapq.heappush(
                heap, (t + rng.exponential(1.0 / lam), seq, _ARRIVAL, m)
            )
            seq += 1
            if sink is not None:
                sink(t, EVENT_NAMES[outcome], m + 1, total)
        else:
            occ[m] -= 1
            total -= 1
            if sink is not None:
                sink(t, "departure", m + 1, total)

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
