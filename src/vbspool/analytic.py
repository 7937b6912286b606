"""Exact blocking probabilities via normalized occupancy recursions.

The raw partition sums C(n, m) (weight of states with total occupancy
exactly n) and R(n, m) (total < n) grow like e^{a*m} and overflow double
precision for large pools. All recursions here therefore run on Poisson
probabilities p_i = e^{-a} a^i / i! instead of raw terms a^i / i!, so
every intermediate is the probability of an event under m i.i.d.
Poisson(a) variables and lies in [0, 1]. The normalization constants
cancel exactly in every reported probability.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .erlang import erlang_b
from .model import BlockingReport, PoolConfig, StateVector

# column spans are scaled by 2**SPAN_SCALE before they are convolved
SPAN_SCALE = 510
_LOG_NORMAL = math.log(sys.float_info.min)


class RecursionTable:
    """Normalized occupancy sums for a fixed (K, a), built on demand.

    c(n, m) is the probability that m i.i.d. Poisson(a) variables, each
    capped at K, sum to exactly n (weight of the total-occupancy level);
    r(n, m) is the same with sum strictly below n. Column m of c is the
    m-fold convolution of the capped pmf, built only when read, as column
    h convolved with column m - h, where h is m with its lowest set bit
    cleared (h = m/2 for a power of two). Reading column M builds at most
    2*log2(M) columns. The split depends only on m, so a column's bits
    depend only on (K, a, m), never on which columns were read before.
    Built columns are kept, and the cumulative sums behind r only for
    the columns r reads.

    Only the nonzero span of each operand is convolved, and the product
    lands at the sum of the spans' offsets in a zero column of full
    length m*K + 1. Both spans are scaled by 2**SPAN_SCALE first and the
    product by 2**(-2*SPAN_SCALE) after. A power of two scales exactly
    (only a result below the normal range rounds), every nonzero operand
    is then a normal double, and no product is subnormal unless its true
    value is below 2**-2042. A column sums to at most 1, so nothing
    overflows. The tails of a column hold many subnormal entries, and
    subnormal arithmetic is several times slower than normal.
    """

    def __init__(self, k_radio: int, a: float):
        if k_radio < 1:
            raise ValueError(f"k_radio must be >= 1, got {k_radio}")
        if not 0 < a < math.inf:
            raise ValueError(f"offered load must be positive and finite, got {a}")
        self.k_radio = k_radio
        self.a = a
        # p_i = e^{-a} a^i / i! for i = 0..K by p_i = p_{i-1} a / i, started
        # at p_0 = e^{-a} unless that is below the normal range (a > 708):
        # then at the first normal entry, or at the mode if none is normal
        def log_p(i):
            return i * math.log(a) - math.lgamma(i + 1) - a

        mode = min(int(a), k_radio)
        start = next((i for i in range(mode) if log_p(i) >= _LOG_NORMAL), mode)
        p = np.empty(k_radio + 1)
        p[start] = math.exp(log_p(start))
        for i in range(start + 1, k_radio + 1):
            p[i] = p[i - 1] * a / i
        for i in range(start, 0, -1):
            p[i - 1] = p[i] * i / a
        self.poisson_pmf = p
        self._c: dict[int, np.ndarray] = {1: p}
        self._r: dict[int, np.ndarray] = {}

    def _column(self, m: int) -> np.ndarray:
        col = self._c.get(m)
        if col is None:
            low = m & -m
            h = m - low if m != low else m // 2
            x, y = self._column(h), self._column(m - h)
            col = np.zeros(m * self.k_radio + 1)
            nx, ny = np.flatnonzero(x), np.flatnonzero(y)
            if nx.size and ny.size:
                i, j = nx[0], ny[0]
                span = np.convolve(
                    np.ldexp(x[i : nx[-1] + 1], SPAN_SCALE),
                    np.ldexp(y[j : ny[-1] + 1], SPAN_SCALE),
                )
                col[i + j : i + j + span.size] = np.ldexp(span, -2 * SPAN_SCALE)
            self._c[m] = col
        return col

    def c(self, n: int, m: int) -> float:
        """Normalized level weight: e^{-a m} * C(n, m)."""
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if not 0 <= n <= m * self.k_radio:
            raise ValueError(
                f"n={n} out of range 0..{m * self.k_radio} for m={m}"
            )
        return float(self._column(m)[n])

    def r(self, n: int, m: int) -> float:
        """Normalized below-level weight: e^{-a m} * R(n, m)."""
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if not 0 <= n <= m * self.k_radio + 1:
            raise ValueError(
                f"n={n} out of range 0..{m * self.k_radio + 1} for m={m}"
            )
        below = self._r.get(m)
        if below is None:
            below = self._r[m] = np.concatenate(([0.0], np.cumsum(self._column(m))))
        return float(below[n])


@functools.lru_cache(maxsize=16)
def get_table(k_radio: int, a: float) -> RecursionTable:
    """Shared table for (K, a); its columns are built as they are read.
    The 16 most recently used tables are kept. The cache keys positional
    and keyword calls apart, so callers pass (K, a) positionally."""
    return RecursionTable(k_radio, float(a))


def _reachable_weight(table: RecursionTable, m: int, n: int) -> float:
    """r(N+1, M), the normalized weight of the reachable states and the
    denominator of every probability. Raises ValueError where it
    underflowed to 0, since every ratio over it would be 0/0 (exact
    p_comp at M=60, K=28, N=40, a=17.8: 0.962583)."""
    denom = table.r(n + 1, m)
    if denom == 0.0:
        raise ValueError(
            f"the normalized weight of the reachable states underflowed "
            f"at M={m}, N={n}; the pool is too overloaded for the recursion"
        )
    return denom


def compute_blocking(config: PoolConfig) -> BlockingReport:
    """Exact blocking probabilities for one (M, K, N, a) instance.

    P0_hat = 1 / r(N+1, M); p_comp = P0_hat * c(N, M);
    p_radio = P0_hat * p_K * r(N-K, M-1) for N > K, else 0.
    At N = M*K the VBSs are independent M/M/K/K systems with Erlang-B
    blocking B: p_total = B, p_comp = B^M (every VBS full), and
    p_radio = B - B^M, computed without cancellation. Raises ValueError
    where r(N+1, M) underflowed.
    """
    m, k, n, a = config.m_vbs, config.k_radio, config.n_comp, config.a
    if n == m * k:
        b = erlang_b(k, a)
        p_radio = -b * math.expm1((m - 1) * math.log(b)) if m > 1 and b else 0.0
        return BlockingReport(p_radio=p_radio, p_comp=b**m, p_total=b)
    table = get_table(k, a)
    denom = _reachable_weight(table, m, n)
    p_comp = table.c(n, m) / denom
    if n > k:
        p_k = float(table.poisson_pmf[k])
        p_radio = p_k * table.r(n - k, m - 1) / denom
    else:
        p_radio = 0.0
    return BlockingReport(
        p_radio=p_radio, p_comp=p_comp, p_total=p_radio + p_comp
    )


def stationary_probability(config: PoolConfig, state: StateVector) -> float:
    """Product-form stationary probability of one state. Raises
    ValueError where r(N+1, M) underflowed."""
    if not state.is_valid(config):
        raise ValueError(f"state {state.occupancy} not in state space")
    m, k, n, a = config.m_vbs, config.k_radio, config.n_comp, config.a
    table = get_table(k, a)
    pmf = table.poisson_pmf
    weight = 1.0
    for km in state.occupancy:
        weight *= pmf[km]
    return float(weight) / _reachable_weight(table, m, n)
