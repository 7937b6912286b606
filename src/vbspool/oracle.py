"""Brute-force ground truth for small instances, built from the
generator alone.

The labelled chain has one state per occupancy vector (k_1, ..., k_M).
Its rates depend on a state only through h_v, the number of VBSs that
hold v sessions: an arrival at a VBS holding v is admitted at rate
lambda, and a departure from it happens at rate v * mu. Relabelling the
VBSs maps the chain onto itself, so it is strongly lumpable onto the
orbits of relabelling (Kemeny & Snell, Finite Markov Chains, 1960,
sec. 6.3): from every state of an orbit the rate into another orbit is
the same, lambda * h_v for an arrival at a VBS holding v and
mu * v * h_v for a departure from one. The lumped chain has one state
per orbit, held as its non-increasing occupancy vector, and its
stationary vector is the labelled one summed over each orbit. Both
blocking probabilities are orbit sums: p_comp over the orbits with
total N, p_radio over those below N, weighted by h_K / M.

The lumped chain is built from the admission rule and the rates alone,
never from the product form the recursion rests on, so the oracle stays
independent of analytic and the two engines still check each other.
It is the only chain built here: blocking_direct solves it, and
`vbspool oracle --dump-edges` writes its edge list. A state is its
occupancy vector, a plain tuple.

Every transition moves the total occupancy (the level) by exactly one,
so with states ordered by level the generator is block-tridiagonal. The
chain stores its states in that order, and the solve eliminates them
level by level and touches only the two levels a state is still
coupled to: the subtraction-free state reduction of
Grassmann, Taksar & Heyman (Oper. Res. 33, 1985) applied as linear level
reduction (Gaver, Jacobs & Latouche, Adv. Appl. Prob. 16, 1984).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import IO

import numpy as np

from .model import BlockingReport, PoolConfig

STATE_CAP = 10**6
# the level solve's work W = sum over levels L of w_L (w_{L-1} + w_L)^2,
# for w_L orbits on level L, takes about 2 ns per unit (2-vCPU Xeon VM).
# The widest two-level block B has W >= B^3 / 8, so B <= 2048 at the cap:
# one dense block of at most 32 MiB
WORK_CAP = 2**30
# orbit counts saturate here, far above any cap
_SATURATED = 2**61


@dataclass
class EnumeratedChain:
    """Explicit CTMC of a pool: its occupancy vectors in level order
    (by total, lexicographic within a total) and sparse rate triples."""

    config: PoolConfig
    states: list[tuple[int, ...]]
    rate_entries: list[tuple[int, int, float]]


def _level_widths(config: PoolConfig) -> list[int]:
    """Count of non-increasing occupancy vectors with entries <= K and
    sum s, for each level s = 0..N: the partitions of s into at most M
    parts, each at most K. Conjugating a partition swaps the two bounds
    and keeps s, so the count runs over part values up to the larger
    bound and tracks the number of parts up to the smaller. Exact below
    _SATURATED; a count that reaches it is a lower bound."""
    n = config.n_comp
    parts, largest = sorted((min(config.m_vbs, n), min(config.k_radio, n)))
    # ways[j, s]: partitions of s into j parts, each at most the value v
    # reached so far
    ways = np.zeros((parts + 1, n + 1), dtype=np.int64)
    ways[0, 0] = 1
    for v in range(1, largest + 1):
        for j in range(1, parts + 1):
            np.minimum(
                ways[j, v:] + ways[j - 1, : n + 1 - v], _SATURATED, out=ways[j, v:]
            )
    return [sum(map(int, level)) for level in ways.T]


def build_lumped_generator(config: PoolConfig) -> EnumeratedChain:
    """The chain lumped over VBS relabelling: one state per orbit, held
    as its non-increasing occupancy vector, in level order.

    The h_v VBSs holding v sessions share each rate: an arrival at one
    of them is admitted iff the pool has a free c-server (total < N) and
    the VBS a free r-server (v < K), at rate h_v * lambda; a departure
    from one of them has rate h_v * v * mu. Moving the first of them up,
    or the last down, keeps the vector non-increasing. A pool with more
    than STATE_CAP orbits, or whose level solve needs more than WORK_CAP
    units of work, is refused before any state is built.
    """
    widths = _level_widths(config)
    size = sum(widths)
    if size > STATE_CAP:
        at_least = "at least " if size >= _SATURATED else ""
        raise ValueError(
            f"lumped chain has {at_least}{size} states, above the cap of {STATE_CAP}"
        )
    work = sum(w * (v + w) ** 2 for v, w in zip([0] + widths, widths))
    if work > WORK_CAP:
        raise ValueError(
            f"the lumped chain's level solve needs W = {work:.3g} units of work, "
            f"about {2e-9 * work:.3g} s, above the cap of {WORK_CAP:.3g}"
        )
    K, N, M = config.k_radio, config.n_comp, config.m_vbs
    lam, mu = config.traffic.lam, config.traffic.mu
    # grown entry by entry; once an entry or the room left is 0, the
    # rest of the vector is zeros
    states: list[tuple[int, ...]] = []
    stack = [((), 0)]
    while stack:
        head, used = stack.pop()
        top = min(head[-1] if head else K, N - used)
        if top == 0 or len(head) == M:
            states.append(head + (0,) * (M - len(head)))
        else:
            stack.extend((head + (v,), used + v) for v in range(top, -1, -1))
    states.sort(key=lambda s: (sum(s), s))
    index = {occ: i for i, occ in enumerate(states)}
    entries: list[tuple[int, int, float]] = []
    for i, occ in enumerate(states):
        admits = sum(occ) < N
        first = 0
        for v, run in groupby(occ):
            h = len(tuple(run))
            if admits and v < K:
                up = occ[:first] + (v + 1,) + occ[first + 1:]
                entries.append((i, index[up], h * lam))
            if v > 0:
                last = first + h - 1
                down = occ[:last] + (v - 1,) + occ[last + 1:]
                entries.append((i, index[down], h * v * mu))
            first += h
    return EnumeratedChain(config=config, states=states, rate_entries=entries)


def solve_stationary(chain: EnumeratedChain) -> np.ndarray:
    """Unique pi with pi @ Q = 0 and sum(pi) = 1, by direct elimination
    in GTH (state-reduction) form, level by level.

    GTH uses only additions and multiplications of non-negative rates,
    so even stationary probabilities near the underflow threshold keep
    full relative accuracy; a naive solve with a normalization row loses
    small components to absolute rounding.

    chain.states must be in level order (non-decreasing total
    occupancy); they are eliminated from the last to the first, and pi
    is returned in their order. When state k of level L is eliminated
    every higher level is already gone, so k is coupled only to the
    remaining states of levels L-1 and L: each rank-one update and each
    back-substitution dot product is confined to the window [start of
    level L-1, k), and everything outside it is an exact structural
    zero. The arithmetic on the window is that of the dense elimination.
    Only levels L-1 and L are held, as one dense block: the rates
    between them, and level L's block as the elimination of level L+1
    left it. Each eliminated state keeps its window column and departure
    rate for the back substitution, so memory is bounded by the widest
    two-level block and the windows, not by the square of the state
    count. Raises ValueError if the states are out of level order or a
    rate entry does not move the level by exactly one, since the window
    depends on both.
    """
    n = len(chain.states)
    levels = np.array([sum(s) for s in chain.states])
    if np.any(np.diff(levels) < 0):
        raise ValueError("the states are not in level order")
    entries = np.array(chain.rate_entries, dtype=float).reshape(-1, 3)
    src, dst = entries[:, 0].astype(int), entries[:, 1].astype(int)
    if np.any(np.abs(levels[dst] - levels[src]) != 1):
        raise ValueError("a rate entry does not move the level by exactly one")
    top = levels[-1]
    level_start = np.searchsorted(levels, np.arange(top + 2))
    # window[k]: first state of the level below the level of state k
    window = level_start[np.maximum(levels - 1, 0)]
    # rate entries grouped by the upper of the two levels they join
    upper = np.maximum(levels[src], levels[dst])
    by_upper = np.argsort(upper, kind="stable")
    upper_start = np.searchsorted(upper[by_upper], np.arange(top + 2))
    columns = [np.empty(0)] * n
    departure = np.empty(n)
    # level L's block as the elimination of level L+1 left it
    carry = np.zeros((n - level_start[top],) * 2)
    # fold states away from the last down
    for level in range(top, -1, -1):
        lo = level_start[max(level - 1, 0)]
        mid, hi = level_start[level], level_start[level + 1]
        R = np.zeros((hi - lo, hi - lo))
        R[mid - lo:, mid - lo:] = carry
        arcs = by_upper[upper_start[level] : upper_start[level + 1]]
        np.add.at(R, (src[arcs] - lo, dst[arcs] - lo), entries[arcs, 2])
        for k in range(hi - lo - 1, max(mid, 1) - lo - 1, -1):
            row, col = R[k, :k], R[:k, k].copy()
            s = departure[lo + k] = np.add.reduce(row)
            columns[lo + k] = col
            R[:k, :k] += np.multiply.outer(col, row) / s
        carry = R[: mid - lo, : mid - lo]
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = (pi[window[k] : k] @ columns[k]) / departure[k]
    pi /= pi.sum()
    return pi


def blocking_direct(pool: PoolConfig | EnumeratedChain) -> BlockingReport:
    """Blocking probabilities as literal sums over the stationary vector
    of the lumped chain, given the pool or the chain already built from
    it by build_lumped_generator.

    p_comp sums pi over the orbits with total == N; p_radio sums, over
    the orbits with total < N, pi times h_K / M, the share of VBSs that
    are radio-full. Both sums are exactly rounded (math.fsum), so they
    do not depend on the order of the states.
    """
    chain = pool if isinstance(pool, EnumeratedChain) else build_lumped_generator(pool)
    pi = solve_stationary(chain)
    config = chain.config
    K, N, M = config.k_radio, config.n_comp, config.m_vbs
    at_n, below_n = [], []
    for s, p in zip(chain.states, pi.tolist()):
        if sum(s) == N:
            at_n.append(p)
        else:
            below_n.append(s.count(K) * p)
    p_radio = math.fsum(below_n) / M
    p_comp = math.fsum(at_n)
    return BlockingReport(
        p_radio=p_radio, p_comp=p_comp, p_total=p_radio + p_comp
    )


def dump_edges(chain: EnumeratedChain, out: IO[str]):
    """Write one `from_state to_state rate` line per transition."""
    for i, j, rate in chain.rate_entries:
        src = ",".join(map(str, chain.states[i]))
        dst = ",".join(map(str, chain.states[j]))
        out.write(f"{src} {dst} {rate!r}\n")
