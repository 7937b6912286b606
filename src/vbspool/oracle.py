"""Brute-force ground truth for small instances.

Enumerates the full state space, builds the transition-rate list, solves
the global balance equations by GTH state reduction, and computes the
blocking probabilities as direct sums over blocking states. Everything
here is deliberately independent of the recursive solver so the two can
check each other.

Every transition moves the total occupancy (the level) by exactly one,
so with states ordered by level the generator is block-tridiagonal. The
solve eliminates states level by level and touches only the two levels a
state is still coupled to: the subtraction-free state reduction of
Grassmann, Taksar & Heyman (Oper. Res. 33, 1985) applied as linear level
reduction (Gaver, Jacobs & Latouche, Adv. Appl. Prob. 16, 1984).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from .model import BlockingReport, PoolConfig, StateVector, admits, state_space_size

STATE_CAP = 10**6


@dataclass
class EnumeratedChain:
    """Explicit CTMC: states and sparse rate triples."""

    states: list[StateVector]
    rate_entries: list[tuple[int, int, float]]


def enumerate_states(config: PoolConfig) -> list[StateVector]:
    """All states with entries <= K and sum <= N, in lexicographic order."""
    size = state_space_size(config)
    if size > STATE_CAP:
        raise ValueError(
            f"state space has {size} states, above the cap of {STATE_CAP}"
        )
    K, N, M = config.k_radio, config.n_comp, config.m_vbs
    states: list[StateVector] = []
    prefix = [0] * M

    def extend(pos: int, used: int):
        if pos == M:
            states.append(StateVector(tuple(prefix)))
            return
        for k in range(min(K, N - used) + 1):
            prefix[pos] = k
            extend(pos + 1, used + k)
        prefix[pos] = 0

    extend(0, 0)
    return states


def build_generator(config: PoolConfig) -> EnumeratedChain:
    """Transition rates: lambda per admissible arrival, k_m * mu per departure."""
    states = enumerate_states(config)
    index = {s.occupancy: i for i, s in enumerate(states)}
    lam, mu = config.traffic.lam, config.traffic.mu
    entries: list[tuple[int, int, float]] = []
    for i, s in enumerate(states):
        occ = s.occupancy
        for m in range(config.m_vbs):
            if admits(config, s, m + 1):
                up = occ[:m] + (occ[m] + 1,) + occ[m + 1:]
                entries.append((i, index[up], lam))
            if occ[m] > 0:
                down = occ[:m] + (occ[m] - 1,) + occ[m + 1:]
                entries.append((i, index[down], occ[m] * mu))
    return EnumeratedChain(states=states, rate_entries=entries)


def solve_stationary(chain: EnumeratedChain) -> np.ndarray:
    """Unique pi with pi @ Q = 0 and sum(pi) = 1, by direct elimination
    in GTH (state-reduction) form, level by level.

    GTH uses only additions and multiplications of non-negative rates,
    so even stationary probabilities near the underflow threshold keep
    full relative accuracy; a naive solve with a normalization row loses
    small components to absolute rounding.

    States are eliminated in decreasing level (total occupancy), within
    a level in decreasing lexicographic order. When state k of level L
    is eliminated every higher level is already gone, so k is coupled
    only to the remaining states of levels L-1 and L: each rank-one
    update and each back-substitution dot product is confined to the
    window [start of level L-1, k), and everything outside it is an
    exact structural zero. The arithmetic on the window is that of the
    dense elimination. Raises ValueError if a rate entry does not move
    the level by exactly one, since the window depends on it.

    The level order is internal: pi is returned in the order of
    chain.states.
    """
    n = len(chain.states)
    levels = np.array([s.total for s in chain.states])
    entries = np.array(chain.rate_entries, dtype=float).reshape(-1, 3)
    src, dst = entries[:, 0].astype(int), entries[:, 1].astype(int)
    if np.any(np.abs(levels[dst] - levels[src]) != 1):
        raise ValueError("a rate entry does not move the level by exactly one")
    # order[p] is the state at position p; the sort is stable, so each
    # level keeps the lexicographic order
    order = np.argsort(levels, kind="stable")
    position = np.empty(n, dtype=int)
    position[order] = np.arange(n)
    level_start = np.searchsorted(levels[order], np.arange(levels.max() + 1))
    # window[p]: first position of the level below the level of position p
    window = level_start[np.maximum(levels[order] - 1, 0)]
    R = np.zeros((n, n))
    np.add.at(R, (position[src], position[dst]), entries[:, 2])
    # fold states away from the highest position down
    departure = np.empty(n)
    for k in range(n - 1, 0, -1):
        lo = window[k]
        s = R[k, lo:k].sum()
        departure[k] = s
        R[lo:k, lo:k] += np.outer(R[lo:k, k], R[k, lo:k]) / s
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        lo = window[k]
        pi[k] = (pi[lo:k] @ R[lo:k, k]) / departure[k]
    pi /= pi.sum()
    return pi[position]


def blocking_direct(config: PoolConfig) -> BlockingReport:
    """Blocking probabilities as literal sums over the stationary vector.

    p_comp sums pi over states with total == N; p_radio averages, over
    VBSs, the pi-mass of states with that VBS radio-full and total < N.
    """
    chain = build_generator(config)
    pi = solve_stationary(chain)
    K, N, M = config.k_radio, config.n_comp, config.m_vbs
    p_comp = 0.0
    p_radio_sum = 0.0
    for s, p in zip(chain.states, pi):
        if s.total == N:
            p_comp += p
        else:
            full = sum(1 for k in s.occupancy if k == K)
            p_radio_sum += full * p
    p_radio = float(p_radio_sum / M)
    p_comp = float(p_comp)
    return BlockingReport(
        p_radio=p_radio, p_comp=p_comp, p_total=p_radio + p_comp
    )


def dump_edges(chain: EnumeratedChain, out: IO[str]):
    """Write one `from_state to_state rate` line per transition."""
    for i, j, rate in chain.rate_entries:
        src = ",".join(map(str, chain.states[i].occupancy))
        dst = ",".join(map(str, chain.states[j].occupancy))
        out.write(f"{src} {dst} {rate!r}\n")
