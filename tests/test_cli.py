import json
from dataclasses import replace

import pytest

from vbspool import cli, oracle
from vbspool.analytic import compute_blocking
from vbspool.cli import main
from vbspool.erlang import erlang_b
from vbspool.model import PoolConfig, TrafficModel
from vbspool.oracle import blocking_direct, build_lumped_generator


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBlocking:
    def test_matches_oracle(self, capsys):
        code, out, _ = run(
            capsys, "blocking", "--m", "2", "--k", "3", "--n", "4", "--a", "1"
        )
        assert code == 0
        want = blocking_direct(PoolConfig(2, 3, 4, TrafficModel.from_load(1)))
        values = dict(
            line.split(" = ") for line in out.strip().splitlines()
        )
        assert float(values["p_total"]) == pytest.approx(want.p_total, rel=1e-11)
        assert float(values["p_radio"]) == pytest.approx(want.p_radio, rel=1e-11)

    def test_trivial_half(self, capsys):
        code, out, _ = run(
            capsys, "blocking", "--m", "1", "--k", "1", "--n", "1", "--a", "1"
        )
        assert code == 0
        assert "p_total = 0.5" in out

    def test_overprovisioned_n_warns_and_clamps(self, capsys):
        code, out, err = run(
            capsys, "blocking", "--m", "2", "--k", "3", "--n", "99", "--a", "1"
        )
        assert code == 0
        assert "clamped" in err
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["p_total"]) == pytest.approx(
            erlang_b(3, 1.0), rel=1e-11
        )

    def test_underflow_exits_one(self, capsys):
        # r(N+1, M) underflows to 0; the exact p_comp is 0.962583, not
        # the placeholder 1
        code, out, err = run(
            capsys, "blocking", "--m", "60", "--k", "28", "--n", "40", "--a", "17.8"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "underflow" in err
        assert len(err.splitlines()) == 1

    def test_missing_flags_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["blocking", "--m", "2", "--k", "3"])
        assert exc.value.code == 2

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "blocking", "--m", "2", "--k", "3", "--n", "4", "--a", "1",
            "--format", "json",
        )
        record = json.loads(out)
        assert record["params"]["m"] == 2
        assert 0 < record["result"]["p_total"] < 1

    def test_csv_format_has_metadata(self, capsys):
        code, out, _ = run(
            capsys,
            "blocking", "--m", "2", "--k", "3", "--n", "4", "--a", "1",
            "--format", "csv",
        )
        lines = out.splitlines()
        assert lines[0].startswith("# vbspool v")
        assert "m=2" in lines[0]
        assert lines[1] == "p_radio,p_comp,p_total"

    def test_config_file(self, capsys, tmp_path):
        path = tmp_path / "pool.cfg"
        path.write_text("m = 1\nk = 1\nn = 1\na = 1\n")
        code, out, _ = run(capsys, "blocking", "--config", str(path))
        assert code == 0
        assert "p_total = 0.5" in out

    def test_lambda_mu_flags(self, capsys):
        code, out, _ = run(
            capsys,
            "blocking", "--m", "1", "--k", "1", "--n", "1",
            "--lambda", "2", "--mu", "2",
        )
        assert code == 0
        assert "p_total = 0.5" in out

    def test_lambda_keeps_config_service_rate(self, capsys, tmp_path):
        path = tmp_path / "pool.cfg"
        path.write_text("m = 1\nk = 1\nn = 1\nlambda = 2\nmu = 2\n")
        code, out, _ = run(
            capsys, "blocking", "--config", str(path), "--lambda", "2"
        )
        assert code == 0
        assert "p_total = 0.5" in out

    def test_load_and_lambda_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["blocking", "--m", "2", "--k", "3", "--n", "4",
                  "--a", "5", "--lambda", "2"])
        assert exc.value.code == 2

    def test_mu_needs_lambda(self, capsys, tmp_path):
        path = tmp_path / "pool.cfg"
        path.write_text("m = 2\nk = 3\nn = 4\na = 1\n")
        for traffic in (["--a", "5"], ["--config", str(path)]):
            with pytest.raises(SystemExit) as exc:
                main(["blocking", "--m", "2", "--k", "3", "--n", "4",
                      *traffic, "--mu", "2"])
            assert exc.value.code == 2

    @pytest.mark.parametrize("n", [22591, 28000])
    def test_zero_below_normal_range_warns(self, capsys, n):
        # p_comp is positive at every N, but it underflows to 0 at
        # N = 22591 and, as B^M, at N = M*K; the record is unchanged
        code, out, err = run(
            capsys, "blocking", "--m", "1000", "--k", "28", "--n", str(n),
            "--a", "17.8",
        )
        assert code == 0
        assert "p_comp = 0\n" in out
        (line,) = err.splitlines()
        assert line.startswith("warning: p_comp = 0 ")
        assert "normal range" in line

    def test_paper_point_prints_no_warning(self, capsys):
        code, out, err = run(
            capsys, "blocking", "--m", "30", "--k", "28", "--n", "600",
            "--a", "17.8",
        )
        assert code == 0
        assert "p_comp = 0.000144397645071" in out
        assert err == ""

    def test_zero_service_rate_is_domain_error(self, capsys):
        code, out, err = run(
            capsys,
            "blocking", "--m", "2", "--k", "3", "--n", "4",
            "--lambda", "1", "--mu", "0",
        )
        assert code == 1
        assert out == ""
        assert "service rate" in err


class TestSimulateCommand:
    def test_deterministic_output(self, capsys):
        argv = [
            "simulate", "--m", "1", "--k", "1", "--n", "1", "--a", "1",
            "--sessions", "2000", "--reps", "3", "--seed", "7",
        ]
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    def test_single_replication_json_is_strict(self, capsys):
        # one replication has no half-width; strict parsers reject NaN
        code, out, _ = run(
            capsys,
            "simulate", "--m", "2", "--k", "3", "--n", "4", "--a", "1",
            "--sessions", "1000", "--reps", "1", "--format", "json",
        )

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        record = json.loads(out, parse_constant=reject)
        assert code == 0
        result = record["result"]
        assert result["ci_radio"] is result["ci_comp"] is result["ci_total"] is None

    def test_estimate_brackets_erlang_b(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--m", "1", "--k", "1", "--n", "1", "--a", "1",
            "--sessions", "50000", "--reps", "5", "--seed", "7",
        )
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert abs(float(values["p_total_hat"]) - 0.5) <= 3 * float(
            values["ci_total"]
        )


    def test_empty_horizon_is_domain_error(self, capsys):
        # no offered session, no blocking estimate
        code, out, err = run(
            capsys,
            "simulate", "--m", "2", "--k", "3", "--n", "4", "--a", "1",
            "--sessions", "0", "--reps", "3",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "horizon_sessions" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--sessions", "0"], "--sessions"),
            (["--sessions", "10", "--warmup", "10"], "--warmup"),
            (["--sessions", "10", "--warmup", "-1"], "--warmup"),
            (["--sessions", "10", "--reps", "0"], "--reps"),
        ],
    )
    def test_bad_run_flag_is_named(self, capsys, flags, flag):
        code, out, err = run(
            capsys,
            "simulate", "--m", "2", "--k", "3", "--n", "4", "--a", "1", *flags,
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {flag} ")
        assert len(err.splitlines()) == 1


class TestLimitCommand:
    def test_dimensioned_limit(self, capsys):
        code, out, _ = run(capsys, "limit", "--a", "17.8", "--pth", "1e-2")
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert values["k"] == "28"
        assert float(values["lower"]) == pytest.approx(17.8 * 0.99 / 28)
        assert float(values["upper"]) == pytest.approx(17.8 / 28)
        assert float(values["lower"]) <= float(
            values["full_pool_utilization"]
        ) <= float(values["upper"])

    def test_light_load(self, capsys):
        code, out, _ = run(capsys, "limit", "--a", "1", "--pth", "0.5")
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert values["k"] == "1"
        assert float(values["lower"]) == pytest.approx(0.5)
        assert float(values["upper"]) == pytest.approx(1.0)

    def test_out_of_regime_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "limit", "--a", "5", "--pth", "1e-2", "--k", "3"
        )
        assert code == 1
        assert "error" in err


class TestDimensionCommand:
    def test_paper_point(self, capsys):
        code, out, _ = run(capsys, "dimension", "--a", "17.8", "--pth", "1e-2")
        assert code == 0
        assert "k = 28" in out


class TestOracleCommand:
    def test_cross_check_reports_deviation(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--m", "2", "--k", "3", "--n", "4", "--a", "1"
        )
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["max_relative_deviation"]) < 1e-12

    def test_disagreement_exits_one(self, capsys, monkeypatch):
        # a recursion off by 1e-6 in p_comp is outside the tolerance
        def skewed(config):
            report = compute_blocking(config)
            return replace(report, p_comp=report.p_comp * (1 + 1e-6))

        monkeypatch.setattr(cli, "compute_blocking", skewed)
        code, out, err = run(
            capsys, "oracle", "--m", "2", "--k", "3", "--n", "4", "--a", "1"
        )
        assert code == 1
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["max_relative_deviation"]) > 1e-9
        assert err.startswith("error:") and "disagree" in err
        assert len(err.splitlines()) == 1

    def test_underflow_reports_the_oracle_alone(self, capsys):
        # r(N+1, M) underflows to 0: there is no recursion value to
        # compare the oracle's p_comp = 0.9990005 against, so the record
        # carries the oracle's answer and a null deviation
        code, out, err = run(
            capsys, "oracle", "--m", "2", "--k", "30", "--n", "2", "--a", "1000",
            "--format", "json",
        )
        assert code == 0
        result = json.loads(out)["result"]
        want = blocking_direct(PoolConfig(2, 30, 2, TrafficModel.from_load(1000)))
        assert result["p_comp"] == float(f"{want.p_comp:.12g}")
        assert result["max_relative_deviation"] is None
        assert err.startswith("warning:") and "underflow" in err
        assert "disagree" not in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("dump", [False, True])
    def test_builds_the_chain_once(self, capsys, tmp_path, monkeypatch, dump):
        # the dump writes the chain blocking_direct solved
        builds = []

        def spy(config):
            builds.append(config)
            return build_lumped_generator(config)

        monkeypatch.setattr(oracle, "build_lumped_generator", spy)
        monkeypatch.setattr(cli, "build_lumped_generator", spy)
        argv = ["oracle", "--m", "2", "--k", "3", "--n", "4", "--a", "1"]
        if dump:
            argv += ["--dump-edges", str(tmp_path / "edges.txt")]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert len(builds) == 1

    def test_edge_dump(self, capsys, tmp_path):
        path = tmp_path / "edges.txt"
        code, _, _ = run(
            capsys,
            "oracle", "--m", "1", "--k", "2", "--n", "2", "--a", "1",
            "--dump-edges", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 4  # birth-death chain on {0,1,2}

    def test_edge_dump_is_the_lumped_chain(self, capsys, tmp_path):
        # the chain blocking_direct solves: one state per orbit, held as
        # its non-increasing vector, with rates h * lambda and h * v * mu
        path = tmp_path / "edges.txt"
        code, _, _ = run(
            capsys,
            "oracle", "--m", "2", "--k", "3", "--n", "4", "--a", "1",
            "--dump-edges", str(path),
        )
        assert code == 0
        cfg = PoolConfig(2, 3, 4, TrafficModel.from_load(1))
        lines = path.read_text().splitlines()
        assert len(lines) == len(build_lumped_generator(cfg).rate_entries) == 18
        for line in lines:
            src, dst, rate = line.split()
            src = tuple(map(int, src.split(",")))
            dst = tuple(map(int, dst.split(",")))
            for state in (src, dst):
                assert list(state) == sorted(state, reverse=True)
            # one entry moves: one of the h VBSs holding v gains or
            # loses a session
            (v,) = [x for x, y in zip(src, dst) if x != y]
            h = src.count(v)
            if sum(dst) > sum(src):
                assert float(rate) == h * cfg.traffic.lam
            else:
                assert float(rate) == h * v * cfg.traffic.mu


class TestSweepCommand:
    def test_writes_csv_and_summary(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "sweep", "--m", "2", "--a", "1", "--pth", "0.5",
            "--outdir", str(tmp_path),
        )
        assert code == 0
        csvs = list(tmp_path.glob("sweep_m2_*.csv"))
        assert len(csvs) == 1
        body = csvs[0].read_text().splitlines()
        assert body[1] == "n,normalized_n,p_radio,p_comp,p_total"
        summary = json.loads(
            next(tmp_path.glob("sweep_summary_*.json")).read_text()
        )
        assert summary["sweeps"][0]["m"] == 2

    def test_loose_threshold_reports_null_limits(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "sweep", "--m", "4", "--a", "17.8", "--pth", "0.5",
            "--outdir", str(tmp_path),
        )
        assert code == 0
        summary = json.loads(
            next(tmp_path.glob("sweep_summary_*.json")).read_text()
        )
        row = summary["sweeps"][0]
        assert row["k"] == 10
        assert row["limit_lower"] is None and row["limit_upper"] is None

    def test_one_point_sweep_writes_summary(self, capsys, tmp_path):
        # K = 8 puts p_total(N = M*K) = 0.586 above the 0.5 ceiling but
        # within p_th = 0.6: the sweep runs on past the crossing, so the
        # knee at M = 4 is 30, not M*K (TestKneePoint in test_planner)
        code, _, _ = run(
            capsys,
            "sweep", "--m", "1", "--m", "4", "--a", "17.8", "--pth", "0.6",
            "--outdir", str(tmp_path),
        )
        assert code == 0
        assert len(list(tmp_path.glob("sweep_m*.csv"))) == 2
        summary = json.loads(
            next(tmp_path.glob("sweep_summary_*.json")).read_text()
        )
        assert [row["knee"] for row in summary["sweeps"]] == [8, 30]

    def test_pool_size_below_one_is_domain_error(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "sweep", "--m", "-2", "--a", "17.8", "--pth", "1e-2",
            "--outdir", str(tmp_path),
        )
        assert code == 1
        assert out == ""
        assert "pool size" in err
        assert list(tmp_path.iterdir()) == []

    def test_underflow_exits_one(self, capsys, tmp_path):
        # the full descent at M = 60 reaches N where the recursion
        # underflows; no placeholder row ,0,1,1 is written, and with a
        # good M = 10 before it no file is written for that one either
        for pools in (["--m", "60"], ["--m", "10", "--m", "60"]):
            outdir = tmp_path / str(len(pools))
            outdir.mkdir()
            code, out, err = run(
                capsys,
                "sweep", *pools, "--a", "17.8", "--pth", "1e-2",
                "--full-descent", "--outdir", str(outdir),
            )
            assert code == 1
            assert out == ""
            assert err.startswith("error:") and "underflow" in err and "M=60" in err
            assert len(err.splitlines()) == 1
            assert list(outdir.iterdir()) == []

    def test_outdir_from_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("VBSPOOL_OUTDIR", str(tmp_path))
        code, _, _ = run(capsys, "sweep", "--m", "1", "--a", "1", "--pth", "0.5")
        assert code == 0
        assert list(tmp_path.glob("*.csv"))

    def test_multiple_pool_sizes(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "sweep", "--m", "2", "--m", "3", "--a", "1", "--pth", "0.5",
            "--outdir", str(tmp_path),
        )
        assert code == 0
        assert len(list(tmp_path.glob("sweep_m*.csv"))) == 2


class TestFileErrors:
    # a path that cannot be read or written is one error line, exit 1
    def test_output_in_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(
            capsys,
            "blocking", "--m", "2", "--k", "3", "--n", "4", "--a", "1",
            "--output", str(path),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and str(path) in err
        assert len(err.splitlines()) == 1

    def test_missing_config_file(self, capsys, tmp_path):
        path = tmp_path / "missing.cfg"
        code, out, err = run(capsys, "blocking", "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and str(path) in err
        assert len(err.splitlines()) == 1

    def test_outdir_below_a_file(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run(
            capsys,
            "sweep", "--m", "2", "--a", "1", "--pth", "0.5",
            "--outdir", str(blocker / "sub"),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    def test_edge_dump_in_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "edges.txt"
        code, out, err = run(
            capsys,
            "oracle", "--m", "1", "--k", "2", "--n", "2", "--a", "1",
            "--dump-edges", str(path),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and str(path) in err
        assert len(err.splitlines()) == 1


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        code, _, err = run(
            capsys, "blocking", "--m", "0", "--k", "1", "--n", "1", "--a", "1"
        )
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["blocking", "--m", "2", "--k", "3", "--n", "4", "--a", "inf"],
            ["dimension", "--a", "inf", "--pth", "0.01"],
            ["blocking", "--m", "2", "--k", "3", "--n", "4",
             "--lambda", "1e300", "--mu", "1e-300"],
            ["simulate", "--m", "2", "--k", "3", "--n", "4", "--a", "inf",
             "--sessions", "100"],
            ["limit", "--a", "-1", "--pth", "0.01", "--k", "3"],
        ],
    )
    def test_bad_load_is_domain_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "offered load" in err or "arrival rate" in err

    def test_unknown_command_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
