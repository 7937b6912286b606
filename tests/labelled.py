"""The labelled chain: the reference the lumped oracle is tested against.

One state per occupancy vector (k_1, ..., k_M), with every entry <= K
and sum <= N; an arrival at VBS m is admitted at rate lambda, and a
departure from it happens at rate k_m * mu. `vbspool.oracle` solves
this chain lumped over VBS relabelling; the tests compare the two, and
check the product form state by state on this one.
"""

from vbspool.model import PoolConfig, StateVector
from vbspool.oracle import STATE_CAP, EnumeratedChain


def state_space_size(config: PoolConfig) -> int:
    """Count of occupancy vectors with every entry <= K and sum <= N."""
    K, N = config.k_radio, config.n_comp
    # DP over VBSs on the total-occupancy distribution
    ways = [1] + [0] * N
    for _ in range(config.m_vbs):
        nxt = [0] * (N + 1)
        for s, w in enumerate(ways):
            if w:
                for k in range(min(K, N - s) + 1):
                    nxt[s + k] += w
        ways = nxt
    return sum(ways)


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
    """Transition rates of the labelled chain: lambda per admitted
    arrival, k_m * mu per departure.

    An arrival at VBS m is admitted iff the pool has a free c-server
    (total < N) and the VBS a free r-server (k_m < K).
    """
    states = enumerate_states(config)
    index = {s.occupancy: i for i, s in enumerate(states)}
    K, N = config.k_radio, config.n_comp
    lam, mu = config.traffic.lam, config.traffic.mu
    entries: list[tuple[int, int, float]] = []
    for i, s in enumerate(states):
        occ = s.occupancy
        for m in range(config.m_vbs):
            if s.total < N and occ[m] < K:
                up = occ[:m] + (occ[m] + 1,) + occ[m + 1:]
                entries.append((i, index[up], lam))
            if occ[m] > 0:
                down = occ[:m] + (occ[m] - 1,) + occ[m + 1:]
                entries.append((i, index[down], occ[m] * mu))
    return EnumeratedChain(config=config, states=states, rate_entries=entries)
