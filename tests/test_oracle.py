import io
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

from vbspool.analytic import compute_blocking, stationary_probability
from vbspool.erlang import erlang_b
from vbspool.model import PoolConfig, StateVector, TrafficModel
from vbspool import oracle
from vbspool.oracle import (
    EnumeratedChain,
    blocking_direct,
    build_lumped_generator,
    dump_edges,
    solve_stationary,
)

from labelled import build_generator, enumerate_states


def pool(m, k, n, a=1.0, lam=None, mu=1.0):
    if lam is not None:
        return PoolConfig(m, k, n, TrafficModel(lam=lam, mu=mu))
    return PoolConfig(m, k, n, TrafficModel.from_load(a))


class TestEnumeration:
    def test_single_vbs(self):
        states = enumerate_states(pool(1, 2, 2))
        assert [s.occupancy for s in states] == [(0,), (1,), (2,)]

    def test_truncated_two_vbs(self):
        states = enumerate_states(pool(2, 3, 4))
        assert len(states) == 13
        occupancies = [s.occupancy for s in states]
        assert occupancies == sorted(occupancies)  # lexicographic
        assert len(set(occupancies)) == 13
        assert all(max(o) <= 3 and sum(o) <= 4 for o in occupancies)

    def test_shared_single_server(self):
        states = enumerate_states(pool(2, 1, 1))
        assert {s.occupancy for s in states} == {(0, 0), (0, 1), (1, 0)}

    def test_cap_refused_with_size(self):
        # 7^8 states, above the cap of 10^6; refused before any is built
        with pytest.raises(ValueError, match="5764801"):
            enumerate_states(pool(8, 6, 48))


class TestGenerator:
    def test_tiny_chain_rates(self):
        chain = build_generator(pool(1, 1, 1, lam=2.0, mu=1.0))
        rates = {
            (chain.states[i].occupancy, chain.states[j].occupancy): r
            for i, j, r in chain.rate_entries
        }
        assert rates == {((0,), (1,)): 2.0, ((1,), (0,)): 1.0}

    def test_arcs_are_unit_steps(self):
        chain = build_generator(pool(3, 2, 4, a=0.7))
        for i, j, rate in chain.rate_entries:
            diff = np.subtract(
                chain.states[j].occupancy, chain.states[i].occupancy
            )
            assert sorted(np.abs(diff)) == [0, 0, 1]
            assert rate > 0

    def test_full_pool_has_no_arrival_arcs(self):
        chain = build_generator(pool(2, 3, 4))
        full = chain.states.index(StateVector((2, 2)))
        lam = 1.0
        outgoing = [
            (j, r) for i, j, r in chain.rate_entries if i == full
        ]
        # only departures (rate k_m * mu, never lam into a larger state)
        for j, rate in outgoing:
            assert chain.states[j].total == 3

    @pytest.mark.parametrize("m_vbs, k, n", [(3, 2, 4), (2, 3, 4), (3, 3, 5)])
    def test_arrival_arc_iff_admitted(self, m_vbs, k, n):
        # an arrival at VBS m is admitted iff total < N and k_m < K; every
        # state and VBS is checked, and each pool reaches every case, a
        # radio-full VBS in a full pool too
        chain = build_generator(pool(m_vbs, k, n, lam=0.7))
        arrivals = {}
        for i, j, rate in chain.rate_entries:
            step = np.subtract(chain.states[j].occupancy, chain.states[i].occupancy)
            if step.sum() == 1:
                arrivals[(i, int(np.argmax(step)))] = rate
        seen = set()
        for i, s in enumerate(chain.states):
            for m in range(m_vbs):
                admitted = s.total < n and s.occupancy[m] < k
                assert arrivals.get((i, m)) == (0.7 if admitted else None)
                seen.add((admitted, s.total == n, s.occupancy[m] == k))
        assert seen == {
            (True, False, False),
            (False, False, True),
            (False, True, False),
            (False, True, True),
        }

    def test_departure_rates_scale_with_occupancy(self):
        chain = build_generator(pool(1, 3, 3, lam=1.0, mu=2.0))
        rates = {
            (chain.states[i].occupancy, chain.states[j].occupancy): r
            for i, j, r in chain.rate_entries
        }
        assert rates[((3,), (2,))] == 6.0
        assert rates[((2,), (1,))] == 4.0


class TestStationary:
    def test_hand_solved_birth_death(self):
        chain = build_generator(pool(1, 2, 2))
        pi = solve_stationary(chain)
        assert pi == pytest.approx(np.array([1, 1, 0.5]) / 2.5, rel=1e-12)

    def test_zero_state_matches_normalization_constant(self):
        for cfg in [pool(2, 3, 4), pool(3, 2, 4, a=2.0)]:
            chain = build_generator(cfg)
            pi = solve_stationary(chain)
            zero = chain.states.index(StateVector((0,) * cfg.m_vbs))
            assert pi[zero] == pytest.approx(
                stationary_probability(cfg, chain.states[zero]), rel=1e-10
            )

    def test_detailed_balance_holds(self):
        chain = build_generator(pool(2, 3, 4))
        pi = solve_stationary(chain)
        rates = {(i, j): r for i, j, r in chain.rate_entries}
        residual = max(
            abs(pi[i] * r - pi[j] * rates[(j, i)])
            for (i, j), r in rates.items()
        )
        assert residual < 1e-12

    def test_matches_product_form_statewise(self):
        cfg = pool(3, 3, 6)
        chain = build_generator(cfg)
        pi = solve_stationary(chain)
        for s, p in zip(chain.states, pi):
            assert p == pytest.approx(
                stationary_probability(cfg, s), abs=1e-10, rel=1e-10
            )


def dense_gth(chain):
    """Reference: GTH elimination on the full dense rate matrix, states in
    the chain's own order, folded from the highest index down."""
    n = len(chain.states)
    R = np.zeros((n, n))
    for i, j, rate in chain.rate_entries:
        R[i, j] += rate
    departure = np.empty(n)
    for k in range(n - 1, 0, -1):
        s = R[k, :k].sum()
        departure[k] = s
        R[:k, :k] += np.outer(R[:k, k], R[k, :k]) / s
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = (pi[:k] @ R[:k, k]) / departure[k]
    return pi / pi.sum()


class TestLevelOrderedSolve:
    @pytest.mark.parametrize(
        "m, k, n, a",
        [
            (4, 5, 20, 3.0),
            (2, 30, 45, 20.0),  # smallest pi about 5e-18
            (3, 6, 10, 30.0),  # overloaded
            (5, 3, 6, 0.05),  # light
            (2, 3, 0, 1.0),  # N = 0: the one-state chain
        ],
    )
    def test_matches_dense_gth_statewise(self, m, k, n, a):
        chain = build_generator(pool(m, k, n, a=a))
        want = dense_gth(chain)
        pi = solve_stationary(chain)
        assert pi.shape == want.shape
        assert np.all(np.abs(pi - want) <= 1e-14 * want)

    def test_two_level_jump_is_refused(self):
        chain = EnumeratedChain(
            config=pool(1, 2, 2),
            states=enumerate_states(pool(1, 2, 2)),
            rate_entries=[(0, 1, 1.0), (1, 0, 1.0), (0, 2, 1.0), (2, 0, 1.0)],
        )
        with pytest.raises(ValueError, match="level"):
            solve_stationary(chain)


class TestLumpedChain:
    def test_rates_scale_with_the_histogram(self):
        # (1, 1, 0): two VBSs hold one session, one holds none
        chain = build_lumped_generator(pool(3, 2, 4, lam=0.7, mu=2.0))
        rates = {
            (chain.states[i].occupancy, chain.states[j].occupancy): r
            for i, j, r in chain.rate_entries
        }
        out = {dst: r for (src, dst), r in rates.items() if src == (1, 1, 0)}
        assert out == {(2, 1, 0): 2 * 0.7, (1, 1, 1): 0.7, (1, 0, 0): 2 * 2.0}
        # total == N: departures only, from the value-2 VBS at 2 * mu
        # and from the two value-1 VBSs at 2 * mu
        out = {dst: r for (src, dst), r in rates.items() if src == (2, 1, 1)}
        assert out == {(1, 1, 1): 4.0, (2, 1, 0): 4.0}

    @pytest.mark.parametrize("a", [0.5, 3.0, 30.0])
    @pytest.mark.parametrize("m, k, n", [(3, 3, 6), (4, 5, 20), (3, 6, 10)])
    def test_orbit_sums_equal_lumped_pi(self, m, k, n, a):
        cfg = pool(m, k, n, a=a)
        labelled = build_generator(cfg)
        lumped = build_lumped_generator(cfg)
        orbit_sums = defaultdict(float)
        for s, p in zip(labelled.states, solve_stationary(labelled)):
            orbit_sums[tuple(sorted(s.occupancy, reverse=True))] += p
        orbits = [s.occupancy for s in lumped.states]
        assert orbits == sorted(orbit_sums)
        assert oracle._orbit_count(cfg) == len(orbits)
        pi = solve_stationary(lumped)
        want = np.array([orbit_sums[o] for o in orbits])
        assert np.all(np.abs(pi - want) <= 1e-14 * want)

    def test_cap_refused_before_any_state_is_built(self, monkeypatch):
        # orbits (x, y) with 2000 >= x >= y and x + y <= 2000: the sum over
        # s <= 2000 of floor(s / 2) + 1 is 1002001, above the cap of 10^6
        def no_state(occupancy):
            raise AssertionError(f"state {occupancy[:3]}... was built")

        monkeypatch.setattr(oracle, "StateVector", no_state)
        with pytest.raises(ValueError, match="1002001"):
            blocking_direct(pool(2, 2000, 2000))


class TestSolveMemory:
    def test_peak_is_well_below_a_dense_matrix(self):
        # the parent's dense rate matrix alone took 8 n^2 bytes
        chain = build_generator(pool(4, 5, 20, a=3.0))
        n = len(chain.states)
        assert n == 1296
        tracemalloc.start()
        try:
            solve_stationary(chain)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 3


class TestBlockingDirect:
    def test_single_vbs_all_blocking_is_computational(self):
        report = blocking_direct(pool(1, 3, 3))
        assert report.p_radio == 0.0
        assert report.p_comp == pytest.approx(erlang_b(3, 1.0), rel=1e-12)

    def test_agrees_with_recursive_solver(self):
        cfg = pool(2, 3, 4)
        direct = blocking_direct(cfg)
        recursive = compute_blocking(cfg)
        assert direct.p_radio == pytest.approx(recursive.p_radio, rel=1e-12)
        assert direct.p_comp == pytest.approx(recursive.p_comp, rel=1e-12)
        assert direct.p_total == pytest.approx(recursive.p_total, rel=1e-12)

    def test_overloaded_pool_beyond_the_recursion(self):
        # at a = 1000 every capped Poisson weight underflows and the
        # recursion refuses the pool; the chain has six states
        report = blocking_direct(pool(2, 30, 2, a=1000.0))
        assert report.p_comp == pytest.approx(0.9990005, rel=1e-6)

    def test_fully_provisioned_is_erlang_b(self):
        report = blocking_direct(pool(2, 3, 6))
        assert report.p_total == pytest.approx(erlang_b(3, 1.0), rel=1e-12)

    def test_averaged_form_equals_symmetry_reduced_form(self):
        # per-VBS radio-block mass averaged over VBSs vs the single-VBS sum
        cfg = pool(3, 2, 5, a=1.3)
        chain = build_generator(cfg)
        pi = solve_stationary(chain)
        single = sum(
            p
            for s, p in zip(chain.states, pi)
            if s.occupancy[0] == 2 and s.total < 5
        )
        assert blocking_direct(cfg).p_radio == pytest.approx(
            single, rel=1e-12
        )


class TestEdgeDump:
    def test_format(self):
        chain = build_generator(pool(1, 1, 1, lam=2.0))
        buf = io.StringIO()
        dump_edges(chain, buf)
        lines = buf.getvalue().splitlines()
        assert lines == ["0 1 2.0", "1 0 1.0"]

    def test_round_trip_rates(self):
        chain = build_lumped_generator(pool(2, 2, 3, a=0.5))
        buf = io.StringIO()
        dump_edges(chain, buf)
        parsed = []
        for line in buf.getvalue().splitlines():
            src, dst, rate = line.split()
            parsed.append(
                (
                    tuple(map(int, src.split(","))),
                    tuple(map(int, dst.split(","))),
                    float(rate),
                )
            )
        assert len(parsed) == len(chain.rate_entries)
        assert parsed[0][2] in (0.5, 1.0, 2.0)
