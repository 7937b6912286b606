"""Reference values for the benchmark, computed apart from vbspool.

Nothing here imports the package under test. Three constructions:

* ``Columns``: the occupancy distribution of m VBSs by a direct
  convolution written as shifted vector sums. Each column is scaled by
  an exact power of two whose exponent is kept as an integer (a log2
  scale), so raw weights a^n/n!, which overflow long before M = 1024,
  never do, and the scaling itself rounds nothing.
* ``erlang_b_direct``: Erlang-B as the truncated-Poisson ratio
  q_K / sum_{i<=K} q_i with q_i = a^i/i! rounded once from fractions,
  not the library's ascending recurrence.
* ``exact_curve``: blocking probabilities as ratios of Python integers
  at a rational load (a = 89/5 is 17.8). The weight of total occupancy
  n is (a^n/n!) T_m(n), where T_m(n) counts the ways to put n labelled
  sessions on m VBSs with at most K each:
  T_m(n) = m (T_m(n-1) - C(n-1, K) T_{m-1}(n-1-K)).

``self_test`` checks the first two against the third.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

A_EXACT = Fraction(89, 5)
K_EXACT = 28
REL_TOL = 1e-12
# A probability below this is zero for every purpose; where the library's
# normalized weights are subnormal, both sides land below it.
ABS_FLOOR = 1e-280
# Smallest normalized weight (the library's e^{-am} R) that is still a
# normal double with margin. Below it the library's recursion loses
# digits and then underflows.
NORMAL_FLOOR = 1e-290
_LOG2_FLOOR = math.log2(NORMAL_FLOOR)


def close(x: float, y: float, rel: float = REL_TOL) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y)) + ABS_FLOOR


def _weights(k: int, a: float) -> list[float]:
    """q_i = a^i / i! for i = 0..K, each correctly rounded."""
    fa = Fraction(a)
    return [float(fa**i / math.factorial(i)) for i in range(k + 1)]


def erlang_b_direct(k: int, a: float) -> float:
    q = _weights(k, a)
    return q[k] / math.fsum(q)


def mean_occupancy(k: int, a: float) -> float:
    """E[k] of one VBS on its own: the truncated-Poisson mean."""
    q = _weights(k, a)
    return math.fsum(i * x for i, x in enumerate(q)) / math.fsum(q)


def dimension_k(a: float, p_th: float) -> int:
    """Smallest K with Erlang-B(K, a) <= p_th."""
    k = 1
    while erlang_b_direct(k, a) > p_th:
        k += 1
    return k


def load_for_k(k: int, p_th: float, u: float) -> float:
    """An offered load for which the smallest K meeting p_th is k.

    u in [0, 1) places the load inside the interval of such loads,
    clear of its ends by 5% of its width, rounded to 1e-6 Erlang.
    """
    def edge(kk):  # largest a with Erlang-B(kk, a) <= p_th
        lo, hi = 1e-6, 4.0 * kk + 10.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if erlang_b_direct(kk, mid) <= p_th:
                lo = mid
            else:
                hi = mid
        return lo

    lo, hi = edge(k - 1), edge(k)
    return round(lo + (0.05 + 0.9 * u) * (hi - lo), 6)


class Columns:
    """Scaled occupancy columns of m = 0, 1, 2, ... VBSs for one (K, a).

    ``step()`` moves to the next m. ``c[n]`` is the weight of total
    occupancy n and ``cum[n]`` the weight of totals below n, both in
    units of 2^``exp``. Only the current column and the previous
    ``cum`` are kept, so memory stays O(M K).
    """

    def __init__(self, k: int, a: float):
        q = np.array(_weights(k, a))
        _, e = math.frexp(q.max())
        self.k, self.a = k, a
        self.w, self.w_exp = np.ldexp(q, -e), e
        self.m, self.c, self.exp = 0, np.ones(1), 0
        self.cum = np.array([0.0, 1.0])
        self.prev_cum, self.prev_exp = self.cum, 0

    def step(self):
        c = self.c
        out = np.zeros(len(c) + self.k)
        for i, wi in enumerate(self.w):
            out[i:i + len(c)] += wi * c
        _, e = math.frexp(out.max())
        self.prev_cum, self.prev_exp = self.cum, self.exp
        self.c = np.ldexp(out, -e)
        self.exp += self.w_exp + e
        self.cum = np.concatenate(([0.0], np.cumsum(self.c)))
        self.m += 1

    def advance_to(self, m: int):
        if m < self.m:
            raise ValueError(f"columns already at m={self.m} > {m}")
        while self.m < m:
            self.step()

    def _log2_normalized(self, cum, exp, m, n) -> float:
        """log2 of the library's normalized weight e^{-am} R(n, m)."""
        v = cum[n]
        if v <= 0.0:
            return -math.inf
        return math.log2(v) + exp - m * self.a * math.log2(math.e)

    def representable(self, n: int) -> bool:
        """True where every normalized weight the library divides by or
        into at (m, N = n) is a normal double with margin."""
        m, k = self.m, self.k
        if self._log2_normalized(self.cum, self.exp, m, n + 1) < _LOG2_FLOOR:
            return False
        if n > k and m > 1:
            return (
                self._log2_normalized(self.prev_cum, self.prev_exp, m - 1, n - k)
                >= _LOG2_FLOOR
            )
        return True

    def floor(self) -> int:
        """Smallest n from which every N up to m K is representable.

        The radio condition applies only above N = K, so
        ``representable`` can hold at N <= K and fail just above it;
        the search therefore also asks for N = K + 1."""
        m, k = self.m, self.k
        above = min(k + 1, m * k)
        lo, hi = 0, m * k  # the top level is always representable
        while lo < hi:
            mid = (lo + hi) // 2
            if self.representable(mid) and self.representable(max(mid, above)):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def blocking(self, n: int) -> tuple[float, float, float]:
        """(p_radio, p_comp, p_total) of the current m at N = n <= m K."""
        m, k = self.m, self.k
        den = self.cum[n + 1]
        p_comp = float(self.c[n] / den)
        if n > k and m > 1:
            r = float(self.w[k] * self.prev_cum[n - k] / den)
            p_radio = math.ldexp(r, self.w_exp + self.prev_exp - self.exp)
        else:
            p_radio = 0.0
        return p_radio, p_comp, p_radio + p_comp


def level_counts(m_max: int, k: int) -> list[list[int]]:
    """T_m(n) for m = 0..m_max and n = 0..m k."""
    cols = [[1]]
    for m in range(1, m_max + 1):
        prev = cols[-1]
        col = [1]
        for n in range(1, m * k + 1):
            j = n - 1 - k
            spill = math.comb(n - 1, k) * prev[j] if 0 <= j < len(prev) else 0
            col.append(m * (col[-1] - spill))
        cols.append(col)
    return cols


def exact_curve(m: int, counts, k: int = K_EXACT, a: Fraction = A_EXACT,
                n_max: int | None = None) -> list[tuple[float, float, float]]:
    """(p_radio, p_comp, p_total) for N = 0..n_max (default m k), each
    a ratio of integers rounded once."""
    top = m * k
    n_max = top if n_max is None else n_max
    num, den_a = a.numerator, a.denominator
    scale = [1] * (top + 1)  # den_a^(top-n) * top! / n!
    for n in range(top, 0, -1):
        scale[n - 1] = scale[n] * n * den_a

    def below(col, limit):
        sums = [0]
        for n in range(min(len(col), limit)):
            sums.append(sums[-1] + num**n * scale[n] * col[n])
        return sums

    pool = below(counts[m], n_max + 1)
    rest = below(counts[m - 1], n_max + 1)
    radio_factor = num**k
    comp_factor = den_a**k * math.factorial(k)
    rows = []
    for n in range(n_max + 1):
        den = pool[n + 1] * comp_factor
        comp = (pool[n + 1] - pool[n]) * comp_factor
        radio = radio_factor * rest[min(n - k, len(rest) - 1)] if n > k else 0
        rows.append((radio / den, comp / den, (radio + comp) / den))
    return rows


def self_test(pool_sizes=(10, 30)) -> list[str]:
    """Check the float reference against exact integers at a = 89/5,
    K = 28. Returns one message per disagreement."""
    errors = []
    a = float(A_EXACT)
    b_exact, k = Fraction(1), 0
    while b_exact > Fraction(1, 100):  # Erlang-B recurrence in fractions
        k += 1
        b_exact = A_EXACT * b_exact / (k + A_EXACT * b_exact)
    if k != K_EXACT or dimension_k(a, 1e-2) != K_EXACT:
        errors.append(f"dimensioning: exact K={k}, reference {dimension_k(a, 1e-2)}")
    if not close(erlang_b_direct(K_EXACT, a), float(b_exact)):
        errors.append("Erlang-B differs from the exact fraction")
    counts = level_counts(max(pool_sizes), K_EXACT)
    cols = Columns(K_EXACT, a)
    for m in pool_sizes:
        cols.advance_to(m)
        exact = exact_curve(m, counts)
        for n, want in enumerate(exact):
            if not cols.representable(n):
                continue
            got = cols.blocking(n)
            if not all(close(g, w) for g, w in zip(got, want)):
                errors.append(f"M={m} N={n}: reference {got} != exact {want}")
                break
        if not close(exact[-1][2], float(b_exact)):
            errors.append(f"M={m}: exact p_total at N=MK is not Erlang-B")
    return errors
