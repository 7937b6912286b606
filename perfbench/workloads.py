"""The plan, query and verify workloads: inputs, rounds, metrics, checks.

A workload's round is the same operations every time. As the home
workload of a run, its rounds yield after each operation (query: after
each round), and the run fills those gaps with small rounds of the other
workloads, their side variants. vbspool is imported inside functions,
after run.py has timed its import.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import random
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from contextlib import nullcontext
from pathlib import Path

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
clock = time.perf_counter

STUDY_POOLS = [2**i for i in range(1, 11)]  # M = 2, 4, ..., 1024
PLAN_STUDIES = ((28, 1e-2), (24, 1e-3), (20, 1e-2))  # (K, p_th); a is seeded
PAPER_A, PAPER_PTH, PAPER_K = 17.8, 1e-2, 28
KNEE_POOLS = (10, 30)
LOOSE_PLAN = (4, 17.8, 0.5)  # (M, a, p_th): raises "upper bound 1.78 > 1"

QUERY_LOADS = ((12, 1e-2), (28, 1e-2), (40, 1e-3), (20, 5e-2))  # (K, p_th)
QUERY_M_MAX = 300
QUERIES_PER_ROUND = 2000
ERLANG_SHARE = 1 / 8  # share of queries at N = M K
# (M, K, N, a) below the floor of the seeded stream, where the library's
# normalized weights are subnormal: the first loses digits silently (p_comp
# 0.9065056 against the exact 0.9064635, p_radio 0 against 1.6e-27), the
# second underflows (p_comp 1.0 with underflow=True against 0.962583)
DIGIT_LOSS_QUERY = (60, 28, 100, 17.8)
OVERLOAD_QUERY = (60, 28, 40, 17.8)
CLI_QUERIES = 8  # the CLI processes take these seeded queries in turn

# (M, K, N, a range): 841 and 673 states; the side variant uses a smaller pool
ORACLE_POOLS = ((2, 30, 45, 18.0, 22.0), (3, 8, 18, 4.0, 6.0))
SIDE_ORACLE_POOL = (2, 20, 30, 12.0, 16.0)  # 386 states
SIMULATIONS = (  # (M, K, N, a range, offered sessions per replication)
    (30, 28, 600, 17.8, 17.8, 10000),
    (4, 5, 12, 2.5, 3.5, 5000),
)
REPLICATIONS = 10
CI_MULTIPLE = 5  # simulator estimates must lie within 5 CI half-widths ...
# ... where at least this many blocked sessions are expected; with fewer, the
# per-replication counts are too few and too clustered for a t interval
# (the paper point's p_comp, 1.4e-4, expects about 13)
CI_MIN_EVENTS = 500


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def attempt(fn):
    try:
        return ("ok", fn())
    except Exception as exc:  # an operation that raises counts as failed
        return ("error", f"{type(exc).__name__}: {exc}")


def triple(report) -> tuple[float, float, float]:
    return (report.p_radio, report.p_comp, report.p_total)


class Run:
    """Per-process state of a run: the tracer, if any, and which table
    columns this process has built."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.built: dict[tuple[int, float], int] = {}

    def span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def build_table(self, k: int, a: float, m: int):
        """Build the (K, a) recursion table up to m VBSs through the public
        API, as its own span."""
        from vbspool import analytic

        with self.span("analytic.table_build"):
            analytic.get_table(k, a).r(0, m)
        done = self.built.get((k, a), 0)
        if m > done and self.tracer:
            c = self.tracer.counters
            c["analytic.table_columns"] += m - done
            # column j holds c (jK + 1 doubles) and r (jK + 2 doubles)
            c["analytic.table_mb_computed"] += sum(
                (2 * j * k + 3) * 8 for j in range(done + 1, m + 1)) / 1e6
        self.built[(k, a)] = max(m, done)


class Child:
    """A forked process that runs operations one at a time on request, so
    that every recursion table they build is new to its process and freed
    when it exits. Results, timings and trace totals come back by pickle
    through pipes; the child is waited for in `close`."""

    def __init__(self, run: Run, op):
        sys.stdout.flush()
        sys.stderr.flush()
        from_parent, to_child = os.pipe()
        from_child, to_parent = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            code = 0
            try:
                os.close(to_child)
                os.close(from_child)
                if run.tracer:
                    run.tracer.reset()
                with os.fdopen(from_parent, "rb") as inp, \
                        os.fdopen(to_parent, "wb") as out:
                    while (i := pickle.load(inp)) is not None:
                        t0 = clock()
                        res = op(i)
                        pickle.dump((res, clock() - t0), out)
                        out.flush()
                    pickle.dump(run.tracer.snapshot() if run.tracer else None, out)
            except BaseException:
                traceback.print_exc()
                code = 1
            finally:
                os._exit(code)
        os.close(from_parent)
        os.close(to_parent)
        self.run = run
        self.out = os.fdopen(to_child, "wb")
        self.inp = os.fdopen(from_child, "rb")

    def call(self, i: int):
        pickle.dump(i, self.out)
        self.out.flush()
        return pickle.load(self.inp)  # written by the child above

    def close(self):
        """Stop the child and wait for it; returns its resource usage."""
        snap = None
        try:
            pickle.dump(None, self.out)
            self.out.flush()
            snap = pickle.load(self.inp)
        except (OSError, EOFError):
            pass
        finally:
            self.out.close()
            self.inp.close()
            _, status, usage = os.wait4(self.pid, 0)
        if status != 0:
            raise RuntimeError(f"forked plan process exited with status {status}")
        if snap is not None and self.run.tracer:
            self.run.tracer.merge(snap)
        return usage


class Workload:
    """Bookkeeping shared by the workloads: the first round's results
    (later rounds only record whether they returned the same) and the
    timing samples of every round."""

    gap_every = 1  # yields of a home round per gap for side work

    def __init__(self, side: bool):
        self.side = side
        self.first = None
        self.same = True
        self.infos: list[dict] = []

    def record(self, results, info: dict):
        if self.first is None:
            self.first = results
        elif results != self.first:
            self.same = False
        self.infos.append(info)

    def run_round(self, run: Run):
        for _ in self.round(run):
            pass

    def setup(self, run: Run):
        pass


# -- plan ------------------------------------------------------------------
class Plan(Workload):
    """The planning study: n_min and pooling gain against pool size."""

    name = "plan"

    def __init__(self, rng: random.Random, side: bool):
        super().__init__(side)
        self.pools = [m for m in STUDY_POOLS if m <= (256 if side else 1024)]
        self.ops = [("study", (ref.load_for_k(k, p_th, rng.random()), p_th))
                    for k, p_th in (PLAN_STUDIES[:1] if side else PLAN_STUDIES)]
        if not side:
            self.ops += [("knee", m) for m in KNEE_POOLS]
            self.ops.append(("loose", LOOSE_PLAN))

    def round(self, run: Run):
        child = Child(run, lambda i: attempt(lambda: self._op(run, i)))
        results, plan_s = [], 0.0
        try:
            for i in range(len(self.ops)):
                res, elapsed = child.call(i)
                results.append(res)
                plan_s += elapsed
                yield
        finally:
            usage = child.close()
        self.record(results, {"plan_s": plan_s, "peak_rss_mb": usage.ru_maxrss / 1024})

    def _op(self, run: Run, i: int):
        from vbspool import erlang, planner

        kind, arg = self.ops[i]
        if kind == "study":
            a, p_th = arg
            run.build_table(erlang.dimension_radio(a, p_th), a, self.pools[-1])
            return [tuple(row) for row in planner.gain_vs_pool_size(self.pools, a, p_th)]
        m, a, p_th, full = ((arg, PAPER_A, PAPER_PTH, True) if kind == "knee"
                            else (*arg, False))
        run.build_table(erlang.dimension_radio(a, p_th), a, m)
        s = planner.dimension_pool(m, a, p_th, full_descent=full)
        points = [(p.n_comp, p.normalized_n, p.p_radio, p.p_comp, p.p_total)
                  for p in s.points]
        return points, s.n_min, s.pooling_gain, planner.knee_point(s)

    def samples(self) -> dict:
        return {"plan_s": ([i["plan_s"] for i in self.infos], "s")}

    def peak_rss_mb(self) -> float:
        return statistics.median(i["peak_rss_mb"] for i in self.infos)

    def check(self, results, only=None) -> list:
        knees = [m for i, (kind, m) in enumerate(self.ops)
                 if kind == "knee" and (only is None or i in only)]
        exact = {}
        if knees:
            counts = ref.level_counts(max(knees), PAPER_K)
            exact = {m: ref.exact_curve(m, counts) for m in knees}
        verdicts = []
        for i, ((kind, arg), res) in enumerate(zip(self.ops, results)):
            if only is not None and i not in only:
                verdicts.append(None)
            elif res[0] == "error":
                verdicts.append(res[1])
            elif kind == "study":
                verdicts.append(check_study(*arg, self.pools, res[1]))
            elif kind == "knee":
                verdicts.append(check_knee(arg, res[1], exact[arg]))
            else:
                verdicts.append(check_loose(*arg, res[1]))
        return verdicts

    def doctored(self, results):
        """(label, op index, result) with one n_min moved by one and the
        normalized n_min and gain made to match it."""
        for i, ((kind, _), res) in enumerate(zip(self.ops, results)):
            if kind == "study" and res[0] == "ok":
                m, n_min, norm, _ = res[1][0]
                k = round(n_min / (norm * m))
                return [(f"n_min {step:+d} at M={m}", i,
                         ("ok", [(m, n, n / (m * k), 1.0 - n / (m * k))] + res[1][1:]))
                        for step in (1, -1) for n in [n_min + step]]
        return []


def threshold_error(cols, n_min: int, p_th: float) -> str | None:
    """n_min must meet p_th and n_min - 1 must not (within 1e-12)."""
    p = cols.blocking(n_min)[2]
    if p > p_th * (1 + 1e-12):
        return f"p_total({n_min}) = {p:.6g} above {p_th:g}"
    if n_min > 0:
        q = cols.blocking(n_min - 1)[2]
        if q <= p_th * (1 - 1e-12):
            return f"p_total({n_min - 1}) = {q:.6g} also meets {p_th:g}"
    return None


def check_study(a, p_th, pools, rows) -> str | None:
    k = ref.dimension_k(a, p_th)
    if [r[0] for r in rows] != pools:
        return f"pool sizes {[r[0] for r in rows]} != {pools}"
    floor = ref.mean_occupancy(k, a) / k
    cols = ref.Columns(k, a)
    prev = math.inf
    for m, n_min, norm, gain in rows:
        if norm != n_min / (m * k) or gain != 1.0 - n_min / (m * k):
            return f"M={m}: normalized n_min or gain is not n_min/(M K), K={k}"
        cols.advance_to(m)
        err = threshold_error(cols, n_min, p_th)
        if err:
            return f"a={a} p_th={p_th} M={m}: {err}"
        if not norm < prev:
            return f"M={m}: normalized n_min {norm} does not fall"
        if norm < floor:
            return f"M={m}: normalized n_min {norm} below E[k]/K = {floor}"
        prev = norm
    return None


def check_knee(m, value, exact) -> str | None:
    points, n_min, gain, knee = value
    k = PAPER_K
    if [p[0] for p in points] != list(range(m * k, -1, -1)):
        return f"M={m}: the full descent does not cover N = MK..0"
    for n, norm, *probs in points:
        if norm != n / (m * k) or not all(map(ref.close, probs, exact[n])):
            return f"M={m} N={n}: {tuple(probs)} != exact {exact[n]}"
    if not ref.close(points[0][4], ref.erlang_b_direct(k, PAPER_A)):
        return f"M={m}: p_total at N=MK is not Erlang-B"
    totals = [row[2] for row in exact]
    if totals[n_min] > PAPER_PTH * (1 + 1e-12) or any(
            t <= PAPER_PTH * (1 - 1e-12) for t in totals[:n_min]):
        return f"M={m}: n_min {n_min} is not the smallest N meeting {PAPER_PTH}"
    if gain != 1.0 - n_min / (m * k):
        return f"M={m}: gain {gain} is not 1 - n_min/(MK)"
    radio_ahead = [row[1] <= row[0] * (1 + 1e-12) for row in exact]
    if exact[knee][1] <= exact[knee][0] * (1 - 1e-12) or not all(radio_ahead[knee + 1:]):
        return f"M={m}: knee {knee} is not where p_comp first exceeds p_radio"
    return None


def check_loose(m, a, p_th, value) -> str | None:
    points, n_min, _, _ = value
    k = ref.dimension_k(a, p_th)
    cols = ref.Columns(k, a)
    cols.advance_to(m)
    if not ref.close(points[0][4], ref.erlang_b_direct(k, a)):
        return "p_total at N=MK is not Erlang-B"
    return threshold_error(cols, n_min, p_th)


# -- query -----------------------------------------------------------------
class Query(Workload):
    """A seeded stream of point compute_blocking queries, plus CLI runs."""

    name = "query"

    def __init__(self, rng: random.Random, side: bool):
        super().__init__(side)
        self.rng = rng
        self.m_max = 100 if side else QUERY_M_MAX
        self.loads = [(k, ref.load_for_k(k, p_th, rng.random()))
                      for k, p_th in (QUERY_LOADS[:2] if side else QUERY_LOADS)]
        self.fixed = () if side else (DIGIT_LOSS_QUERY, OVERLOAD_QUERY)
        self.gap_every = 20
        self.cli_times: list[float] = []
        self.cli_errors: list[str] = []

    def setup(self, run: Run):
        for k, a in self.loads:
            run.build_table(k, a, self.m_max)
        for m, k, _, a in self.fixed:
            run.build_table(k, a, m)

    def make_stream(self):
        """Queries over the seeded loads. N is drawn from the floor of
        `Columns`, the smallest N from which the normalized weights are
        normal doubles for every N up to M K: below it the library fails
        for some seeds and not others, so the regime is kept as the fixed
        queries, which fail every time."""
        rng = self.rng
        floors = []
        for k, a in self.loads:
            cols, lo = ref.Columns(k, a), [0]
            for m in range(1, self.m_max + 1):
                cols.advance_to(m)
                lo.append(cols.floor())
            floors.append(lo)
        queries = []
        for _ in range(1000 if self.side else QUERIES_PER_ROUND):
            i = rng.randrange(len(self.loads))
            k, a = self.loads[i]
            m = rng.randint(1, self.m_max)
            n = m * k if rng.random() < ERLANG_SHARE else rng.randint(floors[i][m], m * k)
            queries.append((m, k, n, a))
        self.cli_queries = rng.sample(queries, CLI_QUERIES)
        self.ops = queries + list(self.fixed)

    def round(self, run: Run):
        from vbspool import analytic, model

        compute = analytic.compute_blocking
        pool, load = model.PoolConfig, model.TrafficModel.from_load
        lat = array("d")
        results = []
        t_start = clock()
        for m, k, n, a in self.ops:
            t0 = clock()
            try:
                res = ("ok", triple(compute(pool(m, k, n, load(a)))))
            except Exception as exc:
                res = ("error", f"{type(exc).__name__}: {exc}")
            lat.append(clock() - t0)
            results.append(res)
        wall = clock() - t_start
        self.record(results, {"wall": wall, "median_us": statistics.median(lat) * 1e6})
        yield

    def samples(self) -> dict:
        out = {
            "queries_per_s": ([len(self.ops) / i["wall"] for i in self.infos], "1/s"),
            "query_us_p50": ([i["median_us"] for i in self.infos], "us"),
        }
        if self.cli_times:
            out["cli_ms_p50"] = ([t * 1e3 for t in self.cli_times], "ms")
        return out

    def cli_round(self):
        """One `vbspool blocking --format json` process; its record must
        equal the library's values rounded to 12 significant digits."""
        from vbspool import analytic, model

        m, k, n, a = self.cli_queries[len(self.cli_times) % len(self.cli_queries)]
        argv = [sys.executable, "-m", "vbspool.cli", "blocking", "--m", str(m),
                "--k", str(k), "--n", str(n), "--a", repr(a), "--format", "json"]
        t0 = clock()
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              env=program_env(), timeout=120)
        self.cli_times.append(clock() - t0)
        if proc.returncode != 0:
            self.cli_errors.append(
                f"cli {argv[3:]} exited {proc.returncode}: {proc.stderr.strip()}")
            return
        record = json.loads(proc.stdout)
        lib = triple(analytic.compute_blocking(
            model.PoolConfig(m, k, n, model.TrafficModel.from_load(a))))
        want = {name: float(f"{v:.12g}")
                for name, v in zip(("p_radio", "p_comp", "p_total"), lib)}
        params = {"m": m, "k": k, "n": n, "a": a}
        if record.get("result") != want or record.get("params") != params:
            self.cli_errors.append(f"cli record {record} != library {want} {params}")

    def check(self, results, only=None) -> list:
        verdicts: list = [None] * len(self.ops)
        by_load: dict[tuple, list[int]] = {}
        counts: dict[tuple, list] = {}
        for i, ((m, k, n, a), res) in enumerate(zip(self.ops, results)):
            if only is not None and i not in only:
                continue
            if res[0] == "error":
                verdicts[i] = res[1]
            elif (m, k, n, a) in self.fixed:
                if (m, k) not in counts:
                    counts[m, k] = ref.level_counts(m, k)
                want = ref.exact_curve(m, counts[m, k], n_max=n)[n]
                if not all(map(ref.close, res[1], want)):
                    verdicts[i] = f"M={m} K={k} N={n} a={a}: {res[1]} != exact {want}"
            else:
                by_load.setdefault((k, a), []).append(i)
        for (k, a), idx in by_load.items():
            cols = ref.Columns(k, a)
            erlang_b = ref.erlang_b_direct(k, a)
            for i in sorted(idx, key=lambda j: self.ops[j][0]):
                m, _, n, _ = self.ops[i]
                cols.advance_to(m)
                got, want = results[i][1], cols.blocking(n)
                if not all(map(ref.close, got, want)):
                    verdicts[i] = f"M={m} K={k} N={n} a={a}: {got} != reference {want}"
                elif n == m * k and not ref.close(got[2], erlang_b):
                    verdicts[i] = f"M={m} K={k} N=MK a={a}: p_total {got[2]} != Erlang-B"
        return verdicts

    def doctored(self, results):
        """(label, op index, result) with one p_comp moved by 1e-6 relative."""
        for i, res in enumerate(results):
            if res[0] == "ok" and res[1][1] > 1e-6 and self.ops[i] not in self.fixed:
                pr, pc, pt = res[1]
                return [("p_comp x (1 + 1e-6)", i, ("ok", (pr, pc * (1 + 1e-6), pt)))]
        return []


# -- verify ----------------------------------------------------------------
class Verify(Workload):
    """The oracle and the simulator against the analytic engine."""

    name = "verify"

    def __init__(self, rng: random.Random, side: bool):
        super().__init__(side)
        pools = (SIDE_ORACLE_POOL,) if side else ORACLE_POOLS
        self.ops = [("oracle", (m, k, n, round(rng.uniform(lo, hi), 4)))
                    for m, k, n, lo, hi in pools]
        for m, k, n, lo, hi, horizon in (SIMULATIONS[1:] if side else SIMULATIONS):
            a = round(rng.uniform(lo, hi), 4) if hi > lo else lo
            horizon = horizon // 2 if side else horizon
            self.ops.append(("sim", (m, k, n, a, horizon, rng.randrange(2**32))))

    def round(self, run: Run):
        results = []
        timing = {"oracle_s": 0.0, "sim_s": 0.0, "sessions": 0}
        for kind, x in self.ops:
            results.append(attempt(lambda: self._op(kind, x, timing)))
            yield
        self.record(results, timing)

    def _op(self, kind, x, timing):
        from vbspool import analytic, model, oracle, simulator

        cfg = model.PoolConfig(*x[:3], model.TrafficModel.from_load(x[3]))
        if kind == "oracle":
            t0 = clock()
            direct = triple(oracle.blocking_direct(cfg))
            timing["oracle_s"] += clock() - t0
            return direct, triple(analytic.compute_blocking(cfg))
        horizon, seed = x[4], x[5]
        sim = simulator.SimConfig(pool=cfg, horizon_sessions=horizon,
                                  replications=REPLICATIONS, seed=seed)
        t0 = clock()
        est = simulator.simulate(sim)
        timing["sim_s"] += clock() - t0
        timing["sessions"] += horizon * REPLICATIONS
        return ((est.p_radio_hat, est.p_comp_hat, est.p_total_hat),
                tuple(est.ci_halfwidth), triple(analytic.compute_blocking(cfg)))

    def samples(self) -> dict:
        return {
            "oracle_s": ([i["oracle_s"] for i in self.infos], "s"),
            "sim_sessions_per_s": ([i["sessions"] / i["sim_s"] for i in self.infos], "1/s"),
        }

    def check(self, results, only=None) -> list:
        verdicts = []
        for i, ((kind, x), res) in enumerate(zip(self.ops, results)):
            if only is not None and i not in only:
                verdicts.append(None)
                continue
            if res[0] == "error":
                verdicts.append(res[1])
                continue
            m, k, n, a = x[:4]
            cols = ref.Columns(k, a)
            cols.advance_to(m)
            want = cols.blocking(n)
            verdict = None
            if kind == "oracle":
                direct, exact = res[1]
                if not all(map(ref.close, direct, exact)):
                    verdict = f"{x}: oracle {direct} != analytic {exact}"
            else:
                est, half, exact = res[1]
                counted = (x[4] - x[4] // 10) * REPLICATIONS  # after the default warm-up
                if not all(abs(e - p) <= CI_MULTIPLE * h
                           for e, p, h in zip(est, exact, half)
                           if p * counted >= CI_MIN_EVENTS):
                    verdict = f"{x}: estimate {est} +- {half} misses {exact}"
            if verdict is None and not all(map(ref.close, exact, want)):
                verdict = f"{x}: analytic {exact} != reference {want}"
            verdicts.append(verdict)
        return verdicts

    def doctored(self, results):
        """(label, op index, result) with one oracle p_comp moved by 1e-6."""
        for i, ((kind, _), res) in enumerate(zip(self.ops, results)):
            if kind == "oracle" and res[0] == "ok":
                (pr, pc, pt), exact = res[1]
                return [("oracle p_comp x (1 + 1e-6)", i,
                         ("ok", ((pr, pc * (1 + 1e-6), pt), exact)))]
        return []


WORKLOADS = {"plan": Plan, "query": Query, "verify": Verify}
