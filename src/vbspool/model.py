"""Model instance and state space of a VBS pool.

A pool has M virtual base stations (VBSs), each with K radio servers
(r-servers), sharing N computational servers (c-servers). Sessions arrive
per-VBS as Poisson(lambda) and hold one r-server of their VBS plus one
pooled c-server for an Exp(mu) time. A session is admitted only if its
VBS has a free r-server and the pool has a free c-server.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class TrafficModel:
    """Per-VBS traffic: arrival rate lam, service rate mu, offered load a = lam/mu."""

    lam: float
    mu: float

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError(
                f"arrival rate must be positive and finite, got {self.lam}"
            )
        if not 0 < self.mu < math.inf:
            raise ValueError(f"service rate must be positive and finite, got {self.mu}")
        if not 0 < self.a < math.inf:
            raise ValueError(f"offered load must be positive and finite, got {self.a}")

    @property
    def a(self) -> float:
        return self.lam / self.mu

    @classmethod
    def from_load(cls, a: float, mu: float = 1.0) -> "TrafficModel":
        """Build from offered load in Erlangs (lam = a * mu)."""
        return cls(lam=a * mu, mu=mu)


@dataclass(frozen=True)
class PoolConfig:
    """One model instance: (M, K, N) plus traffic.

    M, K and N are Python or numpy integers; a float or a bool is
    refused. n_comp > m_vbs * k_radio is accepted but clamped to
    m_vbs * k_radio: provisioning c-servers beyond the r-server total is
    vacuous.
    """

    m_vbs: int
    k_radio: int
    n_comp: int
    traffic: TrafficModel

    def __post_init__(self):
        for name in ("m_vbs", "k_radio", "n_comp"):
            value = getattr(self, name)
            # a plain int skips the slower ABC check
            if type(value) is not int and (
                isinstance(value, bool) or not isinstance(value, numbers.Integral)
            ):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.m_vbs < 1:
            raise ValueError(f"m_vbs must be >= 1, got {self.m_vbs}")
        if self.k_radio < 1:
            raise ValueError(f"k_radio must be >= 1, got {self.k_radio}")
        if self.n_comp < 0:
            raise ValueError(f"n_comp must be >= 0, got {self.n_comp}")
        cap = self.m_vbs * self.k_radio
        if self.n_comp > cap:
            object.__setattr__(self, "n_comp", cap)

    @property
    def a(self) -> float:
        return self.traffic.a


@dataclass(frozen=True)
class BlockingReport:
    """Radio, computational, and total session blocking probabilities."""

    p_radio: float
    p_comp: float
    p_total: float


def parse_config(text: str) -> PoolConfig:
    """Parse the key-value config format.

    Keys: m, k, n, and either (lambda, mu) or a (with mu defaulting to 1).
    Lines are `key = value`; blank lines and #-comments are ignored. An
    unknown or repeated key, a malformed number, or both a and lambda is
    an error that names the key.
    """
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        if not eq:
            raise ValueError(f"line {lineno}: expected `key = value`: {raw!r}")
        key = key.strip().lower()
        if key in fields:
            raise ValueError(f"line {lineno}: config key `{key}` is repeated")
        fields[key] = val.strip()

    unknown = fields.keys() - {"m", "k", "n", "a", "lambda", "mu"}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = {"m", "k", "n"} - fields.keys()
    if missing:
        raise ValueError(f"missing config keys: {sorted(missing)}")
    if "a" in fields and "lambda" in fields:
        raise ValueError("config gives both `a` and `lambda`; give one")
    if "a" not in fields and "lambda" not in fields:
        raise ValueError("config needs either `a` or `lambda` (and `mu`)")

    def number(key: str, kind: type):
        try:
            return kind(fields[key])
        except ValueError:
            kind_name = "an integer" if kind is int else "a number"
            raise ValueError(
                f"config key `{key}` needs {kind_name}, got {fields[key]!r}"
            ) from None

    mu = number("mu", float) if "mu" in fields else 1.0
    if "a" in fields:
        traffic = TrafficModel.from_load(number("a", float), mu=mu)
    else:
        traffic = TrafficModel(lam=number("lambda", float), mu=mu)
    return PoolConfig(
        m_vbs=number("m", int),
        k_radio=number("k", int),
        n_comp=number("n", int),
        traffic=traffic,
    )
