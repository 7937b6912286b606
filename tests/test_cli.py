import json
from dataclasses import replace

import pytest

from vbspool import cli
from vbspool.analytic import compute_blocking
from vbspool.cli import main
from vbspool.erlang import erlang_b
from vbspool.model import PoolConfig, TrafficModel
from vbspool.oracle import blocking_direct


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


class TestLimitCommand:
    def test_dimensioned_limit(self, capsys):
        code, out, _ = run(capsys, "limit", "--a", "17.8", "--pth", "1e-2")
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert values["k"] == "28"
        assert float(values["lower"]) == pytest.approx(17.8 * 0.99 / 28)
        assert float(values["upper"]) == pytest.approx(17.8 / 28)
        assert float(values["lower"]) <= float(values["asymptote"]) <= float(
            values["upper"]
        )

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

    def test_underflow_exits_one(self, capsys):
        # r(N+1, M) underflows to 0: there is no recursion value to
        # compare the oracle's p_comp = 0.9990005 against
        code, out, err = run(
            capsys, "oracle", "--m", "2", "--k", "30", "--n", "2", "--a", "1000"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "underflow" in err
        assert "disagree" not in err
        assert len(err.splitlines()) == 1

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
        # K = 8 puts p_total(N = M*K) = 0.586 above the ceiling: each
        # sweep holds one point and its knee is M*K
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
        assert [row["knee"] for row in summary["sweeps"]] == [8, 32]

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
        # underflows; no placeholder row ,0,1,1 is written
        code, out, err = run(
            capsys,
            "sweep", "--m", "60", "--a", "17.8", "--pth", "1e-2",
            "--full-descent", "--outdir", str(tmp_path),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "underflow" in err and "M=60" in err
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

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
