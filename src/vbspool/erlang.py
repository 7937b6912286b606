"""Single-VBS quantities: Erlang-B, truncated-Poisson mean, radio
dimensioning, and the large-pool utilization limit."""

from __future__ import annotations

import math
from dataclasses import dataclass


def erlang_b(k_radio: int, a: float) -> float:
    """Blocking probability of an M/M/K/K loss system at offered load a.

    Uses the ascending recurrence B(0) = 1,
    B(i) = a*B(i-1) / (i + a*B(i-1)), which is overflow-free for any K.
    """
    if k_radio < 0:
        raise ValueError(f"k_radio must be >= 0, got {k_radio}")
    if not 0 < a < math.inf:
        raise ValueError(f"offered load must be positive and finite, got {a}")
    b = 1.0
    for i in range(1, k_radio + 1):
        b = a * b / (i + a * b)
    return b


def truncated_poisson_mean(k_radio: int, a: float) -> float:
    """Mean occupancy of one VBS in isolation: a * (1 - erlang_b(K, a))."""
    if k_radio < 1:
        raise ValueError(f"k_radio must be >= 1, got {k_radio}")
    return a * (1.0 - erlang_b(k_radio, a))


def dimension_radio(a: float, p_threshold: float) -> int:
    """Smallest K with erlang_b(K, a) <= p_threshold."""
    if not 0 < a < math.inf:
        raise ValueError(f"offered load must be positive and finite, got {a}")
    if not 0 < p_threshold < 1:
        raise ValueError(f"threshold must be in (0,1), got {p_threshold}")
    b = 1.0
    k = 0
    while b > p_threshold:
        k += 1
        b = a * b / (k + a * b)
    return k


@dataclass(frozen=True)
class LimitBounds:
    """Bounds on the asymptotic c-server utilization of a fully
    provisioned pool (N = M*K) as M grows without bound."""

    lower: float
    upper: float

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper:
            raise ValueError(f"need 0 <= lower <= upper, got {self}")
        if self.upper > 1.0:
            raise ValueError(
                f"upper bound {self.upper} > 1: load exceeds per-VBS capacity"
            )


def large_pool_limit(k_radio: int, a: float, p_threshold: float) -> LimitBounds:
    """Interval [a*(1-p_th)/K, a/K] bracketing the asymptotic utilization.

    Requires a <= K; otherwise the pool is under-dimensioned and the
    bounds are meaningless.
    """
    if k_radio < 1:
        raise ValueError(f"k_radio must be >= 1, got {k_radio}")
    if not 0 < a < math.inf:
        raise ValueError(f"offered load must be positive and finite, got {a}")
    if not 0 < p_threshold < 1:
        raise ValueError(f"threshold must be in (0,1), got {p_threshold}")
    return LimitBounds(
        lower=a * (1.0 - p_threshold) / k_radio, upper=a / k_radio
    )


def asymptotic_utilization(k_radio: int, a: float) -> float:
    """E[k_m]/K, the c-server utilization of a fully provisioned pool
    (N = M*K) at any M. It is not the large-pool limit of normalized
    n_min, which tends to a*(1 - p_th)/K, the lower end of large_pool_limit."""
    return truncated_poisson_mean(k_radio, a) / k_radio
