import itertools
import math

import numpy as np
import pytest

from vbspool.model import (
    PoolConfig,
    TrafficModel,
    parse_config,
)
from vbspool.oracle import build_lumped_generator
from vbspool.simulator import _run_replication

from labelled import state_space_size


def pool(m, k, n, a=1.0):
    return PoolConfig(m, k, n, TrafficModel.from_load(a))


class TestTrafficModel:
    def test_offered_load_is_derived(self):
        t = TrafficModel(lam=3.0, mu=2.0)
        assert t.a == 1.5

    def test_from_load(self):
        t = TrafficModel.from_load(2.5)
        assert t.lam == 2.5 and t.mu == 1.0 and t.a == 2.5

    @pytest.mark.parametrize(
        "lam,mu",
        [
            (0, 1),
            (-1, 1),
            (1, 0),
            (1, -2),
            (math.inf, 1),
            (1, math.inf),
            (1e300, 1e-300),  # a = lam/mu overflows
            (1e-300, 1e300),  # a = lam/mu underflows
        ],
    )
    def test_rejects_nonpositive_rates(self, lam, mu):
        with pytest.raises(ValueError):
            TrafficModel(lam=lam, mu=mu)


class TestPoolConfig:
    def test_overprovisioned_n_is_clamped(self):
        assert pool(2, 3, 99).n_comp == 6
        assert pool(2, 3, 7).n_comp == 6
        assert pool(2, 3, 6).n_comp == 6

    @pytest.mark.parametrize("m,k,n", [(0, 1, 1), (1, 0, 1), (1, 1, -1)])
    def test_rejects_bad_sizes(self, m, k, n):
        with pytest.raises(ValueError):
            pool(m, k, n)

    @pytest.mark.parametrize(
        "m,k,n,field",
        [(2, 3, 4.0, "n_comp"), (2, 3.5, 4, "k_radio"), (2, 3, True, "n_comp"),
         (2.0, 3, 4, "m_vbs")],
    )
    def test_rejects_non_integer_sizes(self, m, k, n, field):
        # refused by name before any arithmetic on the value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            pool(m, k, n)

    def test_numpy_integers_are_accepted(self):
        config = pool(np.int64(2), np.int32(3), np.uint8(4))
        assert (config.m_vbs, config.k_radio, config.n_comp) == (2, 3, 4)


class ArrivalReplay:
    """Stands in for the generator: every batch is the scripted uniforms."""

    def __init__(self, uniforms):
        self.uniforms = uniforms

    def random(self, size):
        return np.array(self.uniforms)


def outcome(cfg, occupancy, vbs):
    """(radio, comp, total) blocked fraction of one arrival at `vbs`
    (1-based) in the state `occupancy`, from the simulator loop.

    With a = 1 and T sessions in service, u = (m + 0.5) / (M + T) is an
    arrival at VBS m + 1; the scripted arrivals build `occupancy` with no
    departure, and all but the last fall in the warm-up.
    """
    M = cfg.m_vbs
    targets = [m for m, k in enumerate(occupancy) for _ in range(k)]
    targets.append(vbs - 1)
    uniforms = [(m + 0.5) / (M + t) for t, m in enumerate(targets)]
    n = len(targets)
    return _run_replication(cfg, n, n - 1, ArrivalReplay(uniforms))


ADMIT = (0.0, 0.0, 0.0)
RADIO_BLOCK = (1.0, 0.0, 1.0)
COMPUTE_BLOCK = (0.0, 1.0, 1.0)


def admits(cfg, state, vbs):
    """True iff the oracle's lumped generator has the arrival arc at
    `vbs` (1-based): from the orbit of `state` to the orbit of the state
    with one more session at `vbs`, each its non-increasing vector."""
    chain = build_lumped_generator(cfg)
    up = list(state)
    up[vbs - 1] += 1
    arcs = {
        (chain.states[i], chain.states[j])
        for i, j, _ in chain.rate_entries
    }
    orbit = tuple(sorted(state, reverse=True))
    return (orbit, tuple(sorted(up, reverse=True))) in arcs


class TestAdmission:
    # the rule: admitted iff total < N and k_m < K; a full pool counts as
    # compute-blocked, whether or not the VBS is radio-full too

    def test_radio_full_vbs_blocks(self):
        cfg = pool(2, 3, 4)
        assert not admits(cfg, (3, 0), 1)
        assert outcome(cfg, (3, 0), 1) == RADIO_BLOCK

    def test_empty_system_admits(self):
        cfg = pool(2, 3, 4)
        assert admits(cfg, (0, 0), 1)
        assert outcome(cfg, (0, 0), 1) == ADMIT

    def test_full_pool_blocks_every_vbs(self):
        cfg = pool(2, 3, 4)
        assert not admits(cfg, (2, 2), 1)
        assert not admits(cfg, (2, 2), 2)
        assert outcome(cfg, (2, 2), 1) == COMPUTE_BLOCK
        assert outcome(cfg, (2, 2), 2) == COMPUTE_BLOCK

    def test_classify_compute_block(self):
        assert outcome(pool(2, 3, 4), (3, 1), 2) == COMPUTE_BLOCK

    def test_classify_radio_block(self):
        assert outcome(pool(3, 3, 5), (3, 1, 0), 1) == RADIO_BLOCK

    def test_classify_admit(self):
        assert outcome(pool(3, 3, 5), (2, 1, 0), 1) == ADMIT

    def test_compute_takes_precedence_over_radio(self):
        # pool full and target VBS radio-full at once
        assert outcome(pool(2, 3, 4), (3, 1), 1) == COMPUTE_BLOCK

    def test_exactly_one_outcome_everywhere(self):
        cfg = pool(3, 2, 4)
        for occ in itertools.product(range(3), repeat=3):
            if sum(occ) > cfg.n_comp:
                continue
            for m in range(1, 4):
                out = outcome(cfg, occ, m)
                assert out in (ADMIT, RADIO_BLOCK, COMPUTE_BLOCK)
                assert admits(cfg, occ, m) == (out == ADMIT)
                if out == COMPUTE_BLOCK:
                    assert sum(occ) == cfg.n_comp
                elif out == RADIO_BLOCK:
                    assert sum(occ) < cfg.n_comp
                    assert occ[m - 1] == cfg.k_radio


class TestStateSpaceSize:
    def test_single_vbs(self):
        assert state_space_size(pool(1, 3, 3)) == 4

    def test_full_box(self):
        assert state_space_size(pool(2, 3, 6)) == 16

    def test_truncated_box(self):
        # 4x4 grid minus the three states with sum > 4
        assert state_space_size(pool(2, 3, 4)) == 13

    def test_matches_exhaustive_enumeration(self):
        for m in range(1, 5):
            for k in range(1, 5):
                for n in range(0, m * k + 1):
                    cfg = pool(m, k, n)
                    count = sum(
                        1
                        for occ in itertools.product(range(k + 1), repeat=m)
                        if sum(occ) <= n
                    )
                    assert state_space_size(cfg) == count


class TestConfigFormat:
    def test_offered_load_shorthand(self):
        cfg = parse_config("m = 2\nk = 3\nn = 4\na = 1.5\n")
        assert cfg.traffic == TrafficModel.from_load(1.5)

    def test_comments_and_blank_lines(self):
        text = "# a pool\nm = 1\n\nk = 2  # radio\nn = 2\nlambda = 1\nmu = 2\n"
        cfg = parse_config(text)
        assert cfg.traffic.a == 0.5

    def test_missing_keys(self):
        with pytest.raises(ValueError, match="missing"):
            parse_config("m = 1\nk = 2\n")
        with pytest.raises(ValueError, match="lambda"):
            parse_config("m = 1\nk = 2\nn = 2\n")

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("nonsense\n")
        # `key = value` is the one syntax; a colon does not separate
        with pytest.raises(ValueError, match="line 2: expected `key = value`"):
            parse_config("m = 2\nk: 3\nn = 4\na = 1\n")

    def test_unknown_key_is_named(self):
        # a misspelt mu must not leave the service rate at its default
        with pytest.raises(ValueError, match="mu_"):
            parse_config("m = 1\nk = 1\nn = 1\nlambda = 2\nmu_ = 2\n")

    def test_load_and_arrival_rate_are_exclusive(self):
        with pytest.raises(ValueError, match="both"):
            parse_config("m = 1\nk = 1\nn = 1\na = 1\nlambda = 2\n")

    def test_repeated_key_is_named(self):
        # a stale second line must not silently replace the first
        with pytest.raises(ValueError, match="line 5: config key `m` is repeated"):
            parse_config("m = 2\nk = 1\nn = 1\na = 1\nm = 5\n")

    def test_malformed_number_names_its_key(self):
        with pytest.raises(ValueError, match="key `m` needs an integer, got '2.5'"):
            parse_config("m = 2.5\nk = 1\nn = 1\na = 1\n")
        with pytest.raises(ValueError, match="key `mu` needs a number, got 'fast'"):
            parse_config("m = 2\nk = 1\nn = 1\nlambda = 1\nmu = fast\n")
