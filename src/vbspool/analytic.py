"""Exact blocking probabilities via normalized occupancy recursions.

The raw partition sums C(n, m) (weight of states with total occupancy
exactly n) and R(n, m) (total < n) grow like phi(a)^m, with
phi(a) = sum_{i<=K} a^i / i!, and overflow double precision for large
pools. All recursions here therefore run on the truncated Poisson law
p_i = (a^i / i!) / phi(a), i = 0..K, instead of raw terms a^i / i!, so
every intermediate is the probability of an event under m i.i.d.
truncated Poisson(a) variables and lies in [0, 1], and every column
sums to 1. The normalization constants cancel exactly in every reported
probability.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .erlang import erlang_b
from .model import BlockingReport, PoolConfig

# column spans are scaled by 2**SPAN_SCALE before they are convolved
SPAN_SCALE = 510
_TINY = sys.float_info.min
# a row is untilted, read at the load a, where its weights there are at
# least _FLOOR, and tilted, read at a rung a * 2**(-j/_RUNGS), elsewhere
_FLOOR = 2.0**-1000
_RUNGS = 32
# a square of fewer entries is one np.convolve
_SQUARE_BASE = 1000


def _span(x: np.ndarray) -> tuple[int, np.ndarray]:
    """Offset and entries of the nonzero span of x, which is not all zero."""
    nz = np.flatnonzero(x)
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

    c(n, m) = _column(m)[n] is the probability that m i.i.d. Poisson(a)
    variables, each truncated to 0..K, sum to exactly n: the level weight
    C(n, m) / phi(a)^m. r(n, m) is the same with sum strictly below n.
    poisson_pmf is the truncated law, so its entry K is Erlang-B(K, a).
    Column m of c is its m-fold convolution, built only when read, by one
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
    0.27 s (2-vCPU Xeon VM). A tilted row reads the table of a lower
    load a * 2**(-j/_RUNGS) through the same cache (_tilted).

    Only the nonzero span of each operand is convolved, and the product
    lands at the sum of the spans' offsets in a zero column of full
    length m*K + 1. Both spans are scaled by 2**SPAN_SCALE first and the
    product by 2**(-2*SPAN_SCALE) after. A power of two scales exactly
    (only a result below the normal range rounds), every nonzero operand
    is then a normal double, and no product is subnormal unless its true
    value is below 2**-2042. A column sums to 1 up to rounding, so nothing
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
        # the truncated Poisson law p_i = (a^i / i!) / phi(a), i = 0..K, by
        # ratios from 1 at the mode, where every entry is at most 1
        mode = min(int(a), k_radio)
        p = np.empty(k_radio + 1)
        p[mode] = 1.0
        for i in range(mode + 1, k_radio + 1):
            p[i] = p[i - 1] * a / i
        for i in range(mode, 0, -1):
            p[i - 1] = p[i] * i / a
        p /= math.fsum(p)
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
                x = np.ldexp(_square(np.ldexp(x, SPAN_SCALE)), -SPAN_SCALE)
                x[x < _TINY] = 0.0  # below 2**-1532 unscaled
                j, x = _span(x)
                i = 2 * i + j
            else:
                i, x = _span(self._column(m - 1))
                x = np.ldexp(x, SPAN_SCALE)
            j, y = self._pmf_span
            col = np.zeros(m * self.k_radio + 1)
            span = np.convolve(x, y)
            col[i + j : i + j + span.size] = np.ldexp(span, -2 * SPAN_SCALE)
            self._c[m] = col
        return col

    def r(self, n: int, m: int) -> float:
        """Normalized below-level weight: R(n, m) / phi(a)^m."""
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


def _full_pool(m: int, k: int, a: float) -> tuple[float, float, float]:
    """(p_radio, p_comp, p_total) at N = M*K, where the VBSs are
    independent M/M/K/K systems with Erlang-B blocking B: p_total = B,
    p_comp = B^M (every VBS full), and p_radio = B - B^M, computed
    without cancellation."""
    b = erlang_b(k, a)
    p_radio = -b * math.expm1((m - 1) * math.log(b)) if m > 1 and b else 0.0
    return p_radio, b**m, b


def _blocking(table: RecursionTable, m: int, n):
    """(p_radio, p_comp) at N = n below M*K, for an int N or an int array
    of untilted rows: p_comp = c(N, M) / r(N+1, M) and
    p_radio = p_K r(N-K, M-1) / r(N+1, M). For N <= K the radio index is
    0 and r(0, M-1) = 0, M = 1 included. An int N reads Python floats,
    whose arithmetic is quicker than numpy's on scalars and rounds the
    same, and is read by _tilted where r(N+1, M), or r(N-K, M-1) with
    N > K, is below _FLOOR."""
    k = table.k_radio
    p_k, level = table.poisson_pmf[k], table._column(m)[n]
    rest, denom = table._below(m - 1)[(n > k) * (n - k)], table._below(m)[n + 1]
    if not isinstance(n, np.ndarray):
        p_k, level, rest, denom = float(p_k), float(level), float(rest), float(denom)
        if denom < _FLOOR or n > k and rest < _FLOOR:
            return _tilted(m, k, table.a, n)
    return p_k * rest / denom, level / denom


@functools.lru_cache(maxsize=1024)
def _rung(k: int, a: float, j: int) -> tuple[float, float]:
    """(theta, mean occupancy of one VBS at theta) at rung j >= 1, where
    theta = x a and x = 2**(-j/_RUNGS). The mean theta (1 - B(K, theta))
    is K theta / (K + theta B(K-1, theta))."""
    theta = a * 2.0 ** (-j / _RUNGS)
    return theta, k * theta / (k + theta * erlang_b(k - 1, theta))


@functools.lru_cache(maxsize=64)
def _powers(j: int) -> np.ndarray:
    """x**t = 2**(-j t/_RUNGS) at rung j for t = 0, 1, ... while nonzero."""
    return np.exp2(np.arange(1075 * _RUNGS // j) * (-j / _RUNGS))


def _nearest_rung(m: int, k: int, a: float, n: int) -> int:
    """The rung whose mean M theta (1 - B(K, theta)) is nearest N, by
    bisection: the mean falls with j, and is at most M theta <= max(N, 1)
    at hi."""
    lo, hi = 1, max(1, math.ceil(_RUNGS * (math.log2(a) + math.log2(m / max(n, 1)))))
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if m * _rung(k, a, mid)[1] > n else (lo, mid)
    return lo - (lo > 1 and m * _rung(k, a, lo - 1)[1] - n < n - m * _rung(k, a, lo)[1])


def _tilted(m: int, k: int, a: float, n: int) -> tuple[float, float]:
    """(p_radio, p_comp) at row N < M*K read at its nearest rung, where the
    weights read lie near the peak of the columns. A state's weight at
    load a is its weight at theta times (a/theta)**total, up to a constant
    that cancels (Choudhury, Leung & Whitt, J. ACM 42(5), 1995). So with
    x = theta/a and D = sum_{i<=N} c(i, M) x**(N-i), p_comp = c(N, M) / D and
    p_radio = p_K sum_{i<N-K} c(i, M-1) x**(N-K-i) / D."""
    j = _nearest_rung(m, k, a, n)
    table, x_t = get_table(k, _rung(k, a, j)[0]), _powers(j)

    def tilted_sum(col: np.ndarray, top: int, e: int) -> float:
        # sum_{i<top} col[i] x**(e-i) over the nonzero powers
        i = max(0, e - x_t.size + 1)
        return float((col[i:top] * x_t[e - top + 1 : e - i + 1][::-1]).sum())

    denom = tilted_sum(table._column(m), n + 1, n)
    rest = tilted_sum(table._column(m - 1), n - k, n - k) if n > k else 0.0
    p_k, level = float(table.poisson_pmf[k]), float(table._column(m)[n])
    return p_k * rest / denom, level / denom


def compute_blocking(config: PoolConfig) -> BlockingReport:
    """Exact blocking probabilities for one (M, K, N, a) instance.

    N = M*K is answered in closed form from Erlang-B, every other N by
    _blocking, which reads a tilted row by _tilted.
    """
    m, k, n, a = config.m_vbs, config.k_radio, config.n_comp, config.a
    if n == m * k:
        return BlockingReport(*_full_pool(m, k, a))
    p_radio, p_comp = _blocking(get_table(k, a), m, n)
    return BlockingReport(p_radio, p_comp, p_radio + p_comp)


def blocking_curve(m: int, k: int, a: float, stop: float) -> tuple[np.ndarray, ...]:
    """Arrays (N, p_radio, p_comp, p_total) over N descending from M*K,
    row for row as compute_blocking: N = M*K in closed form, and every
    other row by _blocking. The rows end at the first N whose
    p_total exceeds stop, that row included, or at N = 0, where
    p_comp = 1."""
    if m < 1:
        raise ValueError(f"pool size must be >= 1, got {m}")
    nk = m * k
    table = get_table(k, a)
    # top: the highest tilted row, where r(N+1, M), or r(N-K, M-1) with
    # N > K, is below _FLOOR (both rise with N), or -1. The rows above it
    # are read on arrays, the rest one at a time down to the first above
    # stop, and the rows are held only as far as they are read
    below, rest = table._below(m), table._below(m - 1)
    i, j = np.searchsorted(below, _FLOOR), np.searchsorted(rest, _FLOOR)
    top = int(max(i - 2, j + k - 1 if j > 1 else -1))
    curve = np.zeros((3, nk - top))  # p_radio, p_comp, p_total
    curve[:, 0] = _full_pool(m, k, a)
    curve[:2, 1:] = _blocking(table, m, np.arange(nk - 1, top, -1))
    curve[2, 1:] = curve[0, 1:] + curve[1, 1:]
    over = np.flatnonzero(curve[2] > stop)
    rows = over[0] + 1 if over.size else nk - top
    if not over.size and top >= 0:
        curve = np.hstack((curve, np.zeros((3, top + 1))))
        while rows <= nk and not curve[2, rows - 1] > stop:
            curve[:2, rows] = _blocking(table, m, nk - rows)
            curve[2, rows] = curve[0, rows] + curve[1, rows]
            rows += 1
    return np.arange(nk, nk - rows, -1), *curve[:, :rows]
