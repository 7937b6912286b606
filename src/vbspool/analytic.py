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
_TINY = sys.float_info.min
_LOG_NORMAL = math.log(_TINY)
# a square of fewer entries is one np.convolve
_SQUARE_BASE = 1000


def _span(x: np.ndarray) -> tuple[int, np.ndarray]:
    """Offset and entries of the nonzero span of x; no entries if x is
    all zero."""
    nz = np.flatnonzero(x)
    if not nz.size:
        return 0, x[:0]
    return int(nz[0]), x[nz[0] : nz[-1] + 1]


def _square(x: np.ndarray) -> np.ndarray:
    """x convolved with itself, for a nonempty x of non-negative entries.
    With halves lo and hi, x * x = lo * lo + 2 (lo * hi) + hi * hi, where
    the two squares land on disjoint entries and recurse. Each pair of
    distinct terms is multiplied once, so the square costs about half
    the multiply-adds of np.convolve(x, x). Doubling is exact, and every
    entry is a sum of the same non-negative products, regrouped, so it
    keeps the relative error bound of the direct sum."""
    n = x.size
    if n < _SQUARE_BASE:
        return np.convolve(x, x)
    h = n // 2
    lo, hi = x[:h], x[h:]
    out = np.concatenate((_square(lo), [0.0], _square(hi)))
    out[h : h + n - 1] += 2.0 * np.convolve(lo, hi)
    return out


class RecursionTable:
    """Normalized occupancy sums for a fixed (K, a), built on demand.

    c(n, m) is the probability that m i.i.d. Poisson(a) variables, each
    capped at K, sum to exactly n (weight of the total-occupancy level);
    r(n, m) is the same with sum strictly below n. Column m of c is the
    m-fold convolution of the capped pmf, built only when read, by one
    convolution with the pmf: an even column convolves column m - 1 with
    it, an odd one the square of column m // 2. A square multiplies each
    pair of distinct terms once (_square), so it costs half the
    multiply-adds of convolving two different columns. A query reads
    columns M and M - 1: M = 1024 builds 10 columns with 9 squares, the
    largest of column 511. The split depends only on m, so a column's
    bits depend only on (K, a, m), never on which columns were read
    before. Column 0 is the empty pool, [1.0]: a pool of one VBS reads it
    as column M - 1. Built columns are kept, and the cumulative sums
    behind r only for the columns r reads. At K = 28, a = 17.8 a fresh
    table reads columns 1024 and 1023 in 12 ms, 10**4 and 9999 in
    0.13 s, and 9999 and 9998, which need two squares per halving, in
    0.27 s (2-vCPU Xeon VM; 23 ms, 0.27 s and 0.48 s when an odd column
    convolved columns (m - 1)/2 and (m + 1)/2).

    Only the nonzero span of each operand is convolved, and the product
    lands at the sum of the spans' offsets in a zero column of full
    length m*K + 1. Both spans are scaled by 2**SPAN_SCALE first and the
    product by 2**(-2*SPAN_SCALE) after. A power of two scales exactly
    (only a result below the normal range rounds), every nonzero operand
    is then a normal double, and no product is subnormal unless its true
    value is below 2**-2042. A column sums to at most 1, so nothing
    overflows: a square, taken at scale 2**(2*SPAN_SCALE), is at most
    2**1020, and no partial sum exceeds it. It is scaled back to
    2**SPAN_SCALE before its convolution with the pmf, and its entries
    below the normal range there are dropped: under 2**-1532 unscaled,
    they cannot reach the stored column. The tails of a column hold many
    subnormal entries, and subnormal arithmetic is several times slower
    than normal.
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
        j, y = _span(p)
        self._pmf_span = j, np.ldexp(y, SPAN_SCALE)
        self._c: dict[int, np.ndarray] = {0: np.ones(1), 1: p}
        self._r: dict[int, np.ndarray] = {}

    def _column(self, m: int) -> np.ndarray:
        col = self._c.get(m)
        if col is None:
            # x: the scaled span of square(column m // 2) or of column m - 1
            if m % 2:
                i, x = _span(self._column(m // 2))
                if x.size:
                    x = np.ldexp(_square(np.ldexp(x, SPAN_SCALE)), -SPAN_SCALE)
                    x[x < _TINY] = 0.0  # below 2**-1532 unscaled
                    j, x = _span(x)
                    i = 2 * i + j
            else:
                i, x = _span(self._column(m - 1))
                x = np.ldexp(x, SPAN_SCALE)
            j, y = self._pmf_span
            col = np.zeros(m * self.k_radio + 1)
            if x.size and y.size:
                span = np.convolve(x, y)
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
        return float(self._below(m)[n])

    def _below(self, m: int) -> np.ndarray:
        below = self._r.get(m)
        if below is None:
            below = self._r[m] = np.concatenate(([0.0], np.cumsum(self._column(m))))
        return below


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
    denom = float(table._below(m)[n + 1])
    if denom == 0.0:
        raise ValueError(
            f"the normalized weight of the reachable states underflowed "
            f"at M={m}, N={n}; the pool is too overloaded for the recursion"
        )
    return denom


def _full_pool(m: int, k: int, a: float) -> tuple[float, float, float]:
    """(p_radio, p_comp, p_total) at N = M*K, where the VBSs are
    independent M/M/K/K systems with Erlang-B blocking B: p_total = B,
    p_comp = B^M (every VBS full), and p_radio = B - B^M, computed
    without cancellation."""
    b = erlang_b(k, a)
    p_radio = -b * math.expm1((m - 1) * math.log(b)) if m > 1 and b else 0.0
    return p_radio, b**m, b


def _blocking(table: RecursionTable, m: int, n, denom):
    """(p_radio, p_comp) at N = n below M*K, for an int N with its
    denominator r(N+1, M) as a float, or for an int array with the array
    of them: p_comp = c(N, M) / r(N+1, M) and
    p_radio = p_K r(N-K, M-1) / r(N+1, M). For N <= K the radio index is
    0 and r(0, M-1) = 0, M = 1 included. An int N reads Python floats,
    whose arithmetic is quicker than numpy's on scalars and rounds the
    same."""
    k = table.k_radio
    p_k, level = table.poisson_pmf[k], table._column(m)[n]
    rest = table._below(m - 1)[(n > k) * (n - k)]
    if not isinstance(n, np.ndarray):
        p_k, level, rest = float(p_k), float(level), float(rest)
    return p_k * rest / denom, level / denom


def compute_blocking(config: PoolConfig) -> BlockingReport:
    """Exact blocking probabilities for one (M, K, N, a) instance.

    N = M*K is answered in closed form from Erlang-B, every other N by
    _blocking. Raises ValueError where r(N+1, M) underflowed.
    """
    m, k, n, a = config.m_vbs, config.k_radio, config.n_comp, config.a
    if n == m * k:
        return BlockingReport(*_full_pool(m, k, a))
    table = get_table(k, a)
    p_radio, p_comp = _blocking(table, m, n, _reachable_weight(table, m, n))
    return BlockingReport(p_radio, p_comp, p_radio + p_comp)


def blocking_curve(m: int, k: int, a: float, stop: float) -> tuple[np.ndarray, ...]:
    """Arrays (N, p_radio, p_comp, p_total) over N descending from M*K,
    row for row as compute_blocking: N = M*K in closed form, every other
    N by _blocking on arrays. The rows end at the first N whose p_total
    exceeds stop, that row included, or at N = 0. Raises ValueError where
    r(N+1, M) underflowed within them; at the lowest N with a nonzero
    weight p_comp = c/c = 1, so a stop below 1 ends there."""
    if m < 1:
        raise ValueError(f"pool size must be >= 1, got {m}")
    nk = m * k
    table = get_table(k, a)
    below = table._below(m)
    # below[N+1] = r(N+1, M) rises with N and is 0 exactly for N < lowest
    lowest = min(int(np.searchsorted(below, 0.0, side="right")) - 1, nk)
    n = np.arange(nk, lowest - 1, -1)
    p_radio, p_comp, p_total = np.zeros((3, n.size))
    p_radio[0], p_comp[0], p_total[0] = _full_pool(m, k, a)
    p_radio[1:], p_comp[1:] = _blocking(table, m, n[1:], below[n[1:] + 1])
    p_total[1:] = p_radio[1:] + p_comp[1:]
    over = np.flatnonzero(p_total > stop)
    if not over.size and lowest > 0:
        _reachable_weight(table, m, lowest - 1)  # r(N+1, M) = 0 there: raises
    rows = over[0] + 1 if over.size else n.size
    return n[:rows], p_radio[:rows], p_comp[:rows], p_total[:rows]


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
