"""Capacity planning: radio dimensioning, c-server sweeps, knee point,
and pooling gain.

The workflow mirrors how a pool is dimensioned in practice: first pick
the smallest K meeting the blocking threshold with ample c-servers, then
walk N down from M*K and watch the blocking curve for the knee below
which computational blocking takes over. The pooling-gain study needs
only n_min, which it finds by bisection on N: p_total falls strictly
with N, so the curve crosses the threshold once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

from .analytic import compute_blocking
from .erlang import LimitBounds, dimension_radio, erlang_b, large_pool_limit
from .model import PoolConfig, TrafficModel

# a sweep that is not a full descent stops after p_total passes this
CEILING = 0.5


@dataclass(frozen=True)
class SweepPoint:
    n_comp: int
    normalized_n: float
    p_radio: float
    p_comp: float
    p_total: float


@dataclass(frozen=True)
class SweepResult:
    """Blocking curve over N for one (M, K, a, threshold), descending
    from N = M*K, plus the derived planning quantities. limit_bounds is
    None when a > K, where the large-pool bounds are meaningless."""

    m_vbs: int
    k_radio: int
    a: float
    p_threshold: float
    points: tuple[SweepPoint, ...]
    n_min: int
    pooling_gain: float
    limit_bounds: LimitBounds | None


def dimension_pool(
    m_vbs: int,
    a: float,
    p_threshold: float,
    full_descent: bool = False,
) -> SweepResult:
    """Dimension K for the threshold, then sweep N from M*K downward.

    Stops early once p_total exceeds CEILING unless full_descent is
    set. n_min is the smallest N still meeting the threshold and
    pooling_gain = 1 - n_min / (M*K)."""
    if m_vbs < 1:
        raise ValueError(f"pool size must be >= 1, got {m_vbs}")
    k_radio = dimension_radio(a, p_threshold)
    traffic = TrafficModel.from_load(a)
    nk = m_vbs * k_radio
    points: list[SweepPoint] = []
    n_min = nk
    stop = math.inf if full_descent else CEILING
    for n in range(nk, -1, -1):
        report = compute_blocking(PoolConfig(m_vbs, k_radio, n, traffic))
        points.append(
            SweepPoint(
                n_comp=n,
                normalized_n=n / nk,
                p_radio=report.p_radio,
                p_comp=report.p_comp,
                p_total=report.p_total,
            )
        )
        if report.p_total <= p_threshold:
            n_min = n
        if report.p_total > stop:
            break
    return SweepResult(
        m_vbs=m_vbs,
        k_radio=k_radio,
        a=a,
        p_threshold=p_threshold,
        points=tuple(points),
        n_min=n_min,
        pooling_gain=1.0 - n_min / nk,
        limit_bounds=(
            large_pool_limit(k_radio, a, p_threshold) if a <= k_radio else None
        ),
    )


def knee_point(sweep: SweepResult) -> int:
    """Largest N at which computational blocking first exceeds radio
    blocking when descending from M*K; M*K if no crossover in the sweep."""
    for pt in sweep.points:
        if pt.p_comp > pt.p_radio:
            return pt.n_comp
    return sweep.m_vbs * sweep.k_radio


def gain_vs_pool_size(
    m_list: list[int], a: float, p_threshold: float
) -> list[tuple[int, int, float, float]]:
    """(M, n_min, normalized n_min, pooling_gain) per pool size.

    n_min comes from bisection on N. By Little's law p_total =
    1 - E[T]/(M*a) with E[T] <= N the mean occupancy, and E[T] rises
    with N, so p_total falls strictly and misses p_th below M*a*(1-p_th)."""
    k_radio = dimension_radio(a, p_threshold)
    traffic = TrafficModel.from_load(a)
    rows = []
    for m in m_list:
        if m < 1:
            raise ValueError(f"pool size must be >= 1, got {m}")
        nk = m * k_radio
        # p_total(hi) <= p_threshold < p_total(lo). At N = M*K p_total is
        # Erlang-B, within the threshold by dimension_radio; lo is one
        # below the bound's last sure miss, a margin for its rounding
        lo, hi = max(math.ceil(m * a * (1.0 - p_threshold)) - 2, -1), nk
        while hi - lo > 1:
            mid = (lo + hi) // 2
            report = compute_blocking(PoolConfig(m, k_radio, mid, traffic))
            if report.p_total <= p_threshold:
                hi = mid
            else:
                lo = mid
        rows.append((m, hi, hi / nk, 1.0 - hi / nk))
    return rows


def sweep_to_csv(sweep: SweepResult, out: IO[str], metadata: str = ""):
    """CSV dump of the curve; metadata goes in a leading comment line."""
    header = (
        f"# vbspool sweep m={sweep.m_vbs} k={sweep.k_radio} "
        f"a={sweep.a!r} pth={sweep.p_threshold!r}"
    )
    if metadata:
        header += f" {metadata}"
    out.write(header + "\n")
    out.write("n,normalized_n,p_radio,p_comp,p_total\n")
    for pt in sweep.points:
        out.write(
            f"{pt.n_comp},{pt.normalized_n:.12g},{pt.p_radio:.12g},"
            f"{pt.p_comp:.12g},{pt.p_total:.12g}\n"
        )


def sweep_summary(sweep: SweepResult) -> dict:
    """JSON-ready summary with the planning quantities; the limit
    bounds are None when the sweep has none."""
    bounds = sweep.limit_bounds
    return {
        "m": sweep.m_vbs,
        "k": sweep.k_radio,
        "a": sweep.a,
        "p_threshold": sweep.p_threshold,
        "n_min": sweep.n_min,
        "normalized_n_min": sweep.n_min / (sweep.m_vbs * sweep.k_radio),
        "knee": knee_point(sweep),
        "pooling_gain": sweep.pooling_gain,
        "limit_lower": None if bounds is None else bounds.lower,
        "limit_upper": None if bounds is None else bounds.upper,
        "p_total_at_full": erlang_b(sweep.k_radio, sweep.a),
    }
