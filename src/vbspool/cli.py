"""Command-line front end.

Thin wrappers over the library: `blocking`, `sweep`, `simulate`, `limit`,
`dimension`, and `oracle`. Exit codes: 0 success, 1 domain error, bad
flag value or file that cannot be read or written (or, for `oracle`,
engines that disagree), 2 usage error. Every emitted file or
record echoes the parameters that produced it, so figures can be
regenerated from the artifact alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .analytic import compute_blocking
from .erlang import (
    asymptotic_utilization,
    dimension_radio,
    erlang_b,
    large_pool_limit,
)
from .model import PoolConfig, TrafficModel, parse_config
from .oracle import blocking_direct, build_lumped_generator, dump_edges
from .planner import dimension_pool, sweep_summary, sweep_to_csv
from .simulator import SimConfig, simulate

OUTDIR_ENV = "VBSPOOL_OUTDIR"
# largest relative deviation between the oracle and the recursion that
# `oracle` accepts
ORACLE_TOLERANCE = 1e-9


def _json_float(x: float) -> float | None:
    """x to 12 significant digits. NaN marks an undefined value, such as
    the half-width of a single replication; strict JSON writes it null."""
    return None if math.isnan(x) else float(f"{x:.12g}")


def _text(x) -> str:
    """One record value as the human and csv formats write it."""
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def _emit(result: dict, params: dict, fmt: str, output: str | None):
    """Write one flat record in the requested format."""
    out = open(output, "w") if output else sys.stdout
    try:
        if fmt == "human":
            for key, val in result.items():
                out.write(f"{key} = {_text(val)}\n")
        elif fmt == "json":
            record = {
                "version": __version__,
                "params": params,
                "result": {
                    k: _json_float(v) if isinstance(v, float) else v
                    for k, v in result.items()
                },
            }
            json.dump(record, out, indent=2, allow_nan=False)
            out.write("\n")
        else:  # csv
            meta = " ".join(f"{k}={v}" for k, v in params.items())
            out.write(f"# vbspool v{__version__} {meta}\n")
            out.write(",".join(result.keys()) + "\n")
            out.write(",".join(map(_text, result.values())) + "\n")
    finally:
        if output:
            out.close()


def _pool_from_args(args) -> PoolConfig:
    """Build a PoolConfig from --config plus flag overrides."""
    if args.mu is not None and args.lam is None:
        print("usage error: --mu needs --lambda", file=sys.stderr)
        raise SystemExit(2)
    base = None
    if getattr(args, "config", None):
        base = parse_config(Path(args.config).read_text())
    m = args.m if args.m is not None else (base.m_vbs if base else None)
    k = args.k if args.k is not None else (base.k_radio if base else None)
    n = args.n if args.n is not None else (base.n_comp if base else None)
    if args.a is not None:
        traffic = TrafficModel.from_load(args.a)
    elif args.lam is not None:
        # --lambda replaces the file's arrival rate, not its service rate
        mu = args.mu if args.mu is not None else (base.traffic.mu if base else 1.0)
        traffic = TrafficModel(lam=args.lam, mu=mu)
    elif base is not None:
        traffic = base.traffic
    else:
        traffic = None
    missing = [
        name
        for name, val in (("--m", m), ("--k", k), ("--n", n), ("--a/--lambda", traffic))
        if val is None
    ]
    if missing:
        print(
            f"usage error: missing required parameters: {', '.join(missing)}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    config = PoolConfig(m_vbs=m, k_radio=k, n_comp=n, traffic=traffic)
    if config.n_comp != n:
        print(
            f"warning: n clamped from {n} to {config.n_comp} (= m*k)",
            file=sys.stderr,
        )
    return config


def _pool_params(config: PoolConfig) -> dict:
    return {
        "m": config.m_vbs,
        "k": config.k_radio,
        "n": config.n_comp,
        "a": config.a,
    }


def _below_normal(probs, n_comp: int, k_radio: int) -> list[tuple[str, float]]:
    """(name, value) of each of probs.p_radio, p_comp and p_total that
    is below the normal range although its true value is positive: p_comp
    and p_total are positive at every N, p_radio iff N > K."""
    return [
        (name, value)
        for name in ("p_radio", "p_comp", "p_total")
        if (value := getattr(probs, name)) < sys.float_info.min
        and (name != "p_radio" or n_comp > k_radio)
    ]


def cmd_blocking(args) -> int:
    config = _pool_from_args(args)
    report = compute_blocking(config)
    result = {
        "p_radio": report.p_radio,
        "p_comp": report.p_comp,
        "p_total": report.p_total,
    }
    _emit(result, _pool_params(config), args.format, args.output)
    for name, value in _below_normal(report, config.n_comp, config.k_radio):
        print(
            f"warning: {name} = {value:.12g} is below the normal range; "
            f"the true value is positive and this one has lost its digits",
            file=sys.stderr,
        )
    return 0


def cmd_sweep(args) -> int:
    # compute every sweep first, so a failing pool size writes nothing
    sweeps = [
        dimension_pool(m, args.a, args.pth, full_descent=args.full_descent)
        for m in args.m
    ]
    outdir = Path(args.outdir or os.environ.get(OUTDIR_ENV, "."))
    outdir.mkdir(parents=True, exist_ok=True)
    for sweep in sweeps:
        path = outdir / f"sweep_m{sweep.m_vbs}_a{args.a:g}_pth{args.pth:g}.csv"
        with open(path, "w") as f:
            sweep_to_csv(sweep, f, metadata=f"version={__version__}")
        print(f"wrote {path}")
        lost = sum(
            bool(_below_normal(pt, pt.n_comp, sweep.k_radio)) for pt in sweep.points
        )
        if lost:
            print(
                f"warning: m={sweep.m_vbs}: {lost} rows hold a probability "
                f"below the normal range; those values have lost their digits",
                file=sys.stderr,
            )
    summary_path = outdir / f"sweep_summary_a{args.a:g}_pth{args.pth:g}.json"
    with open(summary_path, "w") as f:
        json.dump(
            {
                "version": __version__,
                "params": {"a": args.a, "pth": args.pth, "m": args.m},
                "sweeps": [sweep_summary(s) for s in sweeps],
            },
            f,
            indent=2,
            allow_nan=False,
        )
        f.write("\n")
    print(f"wrote {summary_path}")
    return 0


def cmd_simulate(args) -> int:
    config = _pool_from_args(args)
    # SimConfig checks these too, but its messages name its fields
    if args.sessions < 1:
        raise ValueError(
            f"--sessions (horizon_sessions) must be >= 1, got {args.sessions}"
        )
    if args.warmup is not None and not 0 <= args.warmup < args.sessions:
        raise ValueError(
            f"--warmup must be in 0..{args.sessions - 1} (below --sessions), "
            f"got {args.warmup}"
        )
    if args.reps < 1:
        raise ValueError(f"--reps must be >= 1, got {args.reps}")
    sim = SimConfig(
        pool=config,
        horizon_sessions=args.sessions,
        warmup_sessions=args.warmup,
        replications=args.reps,
        seed=args.seed,
    )
    est = simulate(sim)
    _emit(
        {
            "p_radio_hat": est.p_radio_hat,
            "p_comp_hat": est.p_comp_hat,
            "p_total_hat": est.p_total_hat,
            "ci_radio": est.ci_halfwidth[0],
            "ci_comp": est.ci_halfwidth[1],
            "ci_total": est.ci_halfwidth[2],
            "offered": est.offered,
        },
        {
            **_pool_params(config),
            "sessions": args.sessions,
            "warmup": sim.warmup_sessions,
            "reps": args.reps,
            "seed": args.seed,
        },
        args.format,
        args.output,
    )
    return 0


def cmd_limit(args) -> int:
    k = args.k if args.k is not None else dimension_radio(args.a, args.pth)
    bounds = large_pool_limit(k, args.a, args.pth)
    _emit(
        {
            "k": k,
            "lower": bounds.lower,
            "upper": bounds.upper,
            "full_pool_utilization": asymptotic_utilization(k, args.a),
        },
        {"a": args.a, "pth": args.pth},
        args.format,
        args.output,
    )
    return 0


def cmd_dimension(args) -> int:
    k = dimension_radio(args.a, args.pth)
    _emit(
        {"k": k, "p_blocking": erlang_b(k, args.a)},
        {"a": args.a, "pth": args.pth},
        args.format,
        args.output,
    )
    return 0


def cmd_oracle(args) -> int:
    config = _pool_from_args(args)
    chain = build_lumped_generator(config)
    direct = blocking_direct(chain)
    try:
        recursive = compute_blocking(config)
    except ValueError as exc:
        # the config is valid, so this is the recursion's underflow:
        # the oracle's answer stands with nothing to compare it against
        print(f"warning: no cross-check: {exc}", file=sys.stderr)
        deviation = math.nan
    else:
        deviation = max(
            abs(exact - approx) / max(abs(exact), 1e-300)
            for exact, approx in (
                (direct.p_radio, recursive.p_radio),
                (direct.p_comp, recursive.p_comp),
                (direct.p_total, recursive.p_total),
            )
        )
    if args.dump_edges:
        with open(args.dump_edges, "w") as f:
            dump_edges(chain, f)
    _emit(
        {
            "p_radio": direct.p_radio,
            "p_comp": direct.p_comp,
            "p_total": direct.p_total,
            "max_relative_deviation": deviation,
        },
        _pool_params(config),
        args.format,
        args.output,
    )
    if deviation > ORACLE_TOLERANCE:
        print(
            f"error: oracle and recursion disagree: max relative deviation "
            f"{deviation:.3g} > {ORACLE_TOLERANCE:g}",
            file=sys.stderr,
        )
        return 1
    return 0


def _add_pool_flags(p: argparse.ArgumentParser):
    p.add_argument("--m", type=int, help="number of VBSs")
    p.add_argument("--k", type=int, help="radio servers per VBS")
    p.add_argument("--n", type=int, help="computational servers in the pool")
    load = p.add_mutually_exclusive_group()
    load.add_argument("--a", type=float, help="offered load in Erlangs (= lambda/mu)")
    load.add_argument("--lambda", dest="lam", type=float, help="arrival rate per VBS")
    p.add_argument("--mu", type=float, help="service rate, only with --lambda "
                   "(default: the config file's, else 1)")
    p.add_argument("--config", help="key-value config file (flags override)")


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument(
        "--format", choices=("human", "csv", "json"), default="human"
    )
    p.add_argument("--output", help="write to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vbspool",
        description="Blocking and pooling-gain analysis of VBS pools",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("blocking", help="exact blocking probabilities")
    _add_pool_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_blocking)

    p = sub.add_parser("sweep", help="blocking curve over N, per pool size")
    p.add_argument("--m", type=int, action="append", required=True,
                   help="pool size (repeatable)")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--pth", type=float, required=True,
                   help="total blocking threshold")
    p.add_argument("--full-descent", action="store_true",
                   help="sweep all the way to N=0 (no early stop)")
    p.add_argument("--outdir", help=f"output directory (default ${OUTDIR_ENV} or .)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo blocking estimate")
    _add_pool_flags(p)
    _add_output_flags(p)
    p.add_argument("--sessions", type=int, required=True,
                   help="offered sessions per replication")
    p.add_argument("--warmup", type=int, help="discarded sessions (default 10%%)")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("limit", help="large-pool utilization bounds")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--pth", type=float, required=True)
    p.add_argument("--k", type=int, help="radio servers (default: dimensioned)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("dimension", help="minimum K meeting the threshold")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--pth", type=float, required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_dimension)

    p = sub.add_parser("oracle", help="enumeration cross-check (small instances)")
    _add_pool_flags(p)
    _add_output_flags(p)
    p.add_argument("--dump-edges", help="also write the edge list of the solved "
                   "chain here: one state per orbit of VBS relabelling")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
