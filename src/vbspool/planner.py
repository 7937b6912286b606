"""Capacity planning: radio dimensioning, c-server sweeps, knee point,
and pooling gain.

The workflow mirrors how a pool is dimensioned in practice: first pick
the smallest K meeting the blocking threshold with ample c-servers, then
walk N down from M*K and watch the blocking curve for the knee below
which computational blocking takes over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

from .analytic import RecursionTable, compute_blocking, get_table
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


def _descend(m_vbs: int, k_radio: int, a: float, table: RecursionTable, stop: float):
    """(N, report) for N = M*K downward, ending after the first report
    whose p_total exceeds `stop`."""
    traffic = TrafficModel.from_load(a)
    for n in range(m_vbs * k_radio, -1, -1):
        report = compute_blocking(PoolConfig(m_vbs, k_radio, n, traffic), table)
        yield n, report
        if report.p_total > stop:
            return


def dimension_pool(
    m_vbs: int,
    a: float,
    p_threshold: float,
    full_descent: bool = False,
) -> SweepResult:
    """Dimension K for the threshold, then sweep N from M*K downward.

    Stops early once p_total exceeds CEILING unless full_descent is
    set. n_min is the smallest N still meeting the threshold and
    pooling_gain = 1 - n_min / (M*K).
    """
    k_radio = dimension_radio(a, p_threshold)
    table = get_table(k_radio, a)
    nk = m_vbs * k_radio
    points: list[SweepPoint] = []
    n_min = nk
    stop = math.inf if full_descent else CEILING
    for n, report in _descend(m_vbs, k_radio, a, table, stop):
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
    """(M, n_min, normalized n_min, pooling_gain) per pool size, sharing
    one recursion table across all M.

    The same descent as dimension_pool, but only n_min is kept: no curve
    of SweepPoints is built, so a long sweep leaves no objects behind for
    the garbage collector to promote and scan."""
    k_radio = dimension_radio(a, p_threshold)
    table = get_table(k_radio, a)
    rows = []
    for m in m_list:
        nk = m * k_radio
        n_min = min(
            (n for n, report in _descend(m, k_radio, a, table, CEILING)
             if report.p_total <= p_threshold),
            default=nk,
        )
        rows.append((m, n_min, n_min / nk, 1.0 - n_min / nk))
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
