"""Capacity planning: radio dimensioning, c-server sweeps, knee point,
and pooling gain.

The workflow mirrors how a pool is dimensioned in practice: first pick
the smallest K meeting the blocking threshold with ample c-servers, then
walk N down from M*K and watch the blocking curve for the knee below
which computational blocking takes over. Both read one array blocking
curve (analytic.blocking_curve). n_min has one rule, which each reads
from the curve it holds: p_total falls strictly with N, so the curve
crosses the threshold once, and n_min is one more than the first N
above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

from .analytic import blocking_curve
from .erlang import LimitBounds, dimension_radio, large_pool_limit

# a sweep that is not a full descent stops after p_total passes this or p_th
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

    Stops early once p_total exceeds max(CEILING, p_threshold) unless
    full_descent is set, so the points hold the threshold crossing, and
    n_min and pooling_gain = 1 - n_min / (M*K) are read from them by
    _n_min, the rule gain_vs_pool_size uses."""
    k_radio = dimension_radio(a, p_threshold)
    nk = m_vbs * k_radio
    stop = math.inf if full_descent else max(CEILING, p_threshold)
    curve = blocking_curve(m_vbs, k_radio, a, stop)
    rows = zip(*(x.tolist() for x in curve))
    points = tuple(SweepPoint(n, n / nk, *probs) for n, *probs in rows)
    n_min = _n_min(curve, p_threshold)
    return SweepResult(
        m_vbs=m_vbs,
        k_radio=k_radio,
        a=a,
        p_threshold=p_threshold,
        points=points,
        n_min=n_min,
        pooling_gain=1.0 - n_min / nk,
        limit_bounds=(
            large_pool_limit(k_radio, a, p_threshold) if a <= k_radio else None
        ),
    )


def knee_point(sweep: SweepResult) -> int:
    """Largest N at which computational blocking first exceeds radio
    blocking when descending from M*K. When the sweep's rows hold no
    crossover, the curve is read on below them to the first N whose
    p_total exceeds 0.9, 0.99, ..., until the rows hold one. As p_total
    rounds to 1 nearly every session is blocked, which radio blocking
    cannot do with a c-server free, so p_comp leads; at N = 0 p_comp is
    1, so the reads end there at the latest. A read ends at its stop, so
    the tilted rows far below a crossover are not read one at a time."""
    for pt in sweep.points:
        if pt.p_comp > pt.p_radio:
            return pt.n_comp
    m, k, a = sweep.m_vbs, sweep.k_radio, sweep.a
    for digits in range(1, 17):  # the last stop is 1 - 1e-16 = nextafter(1, 0)
        n, p_radio, p_comp, _ = blocking_curve(m, k, a, 1.0 - 10.0**-digits)
        if (p_comp > p_radio).any():
            return int(n[(p_comp > p_radio).argmax()])


def _n_min(curve: tuple, p_threshold: float) -> int:
    """One more than the first N of a blocking curve whose p_total
    exceeds p_threshold. A curve stopped at or above the threshold
    holds that row."""
    n, _, _, p_total = curve
    return int(n[(p_total > p_threshold).argmax()]) + 1


def gain_vs_pool_size(
    m_list: list[int], a: float, p_threshold: float
) -> list[tuple[int, int, float, float]]:
    """(M, n_min, normalized n_min, pooling_gain) per pool size.

    The curve descends from N = M*K, where p_total is Erlang-B and within
    the threshold by dimension_radio, and stops at the first N above the
    threshold; n_min is one more (_n_min). p_total falls strictly with
    N, so no smaller N meets the threshold."""
    k_radio = dimension_radio(a, p_threshold)
    rows = []
    for m in m_list:
        nk = m * k_radio
        n_min = _n_min(blocking_curve(m, k_radio, a, p_threshold), p_threshold)
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
        "p_total_at_full": sweep.points[0].p_total,
    }
