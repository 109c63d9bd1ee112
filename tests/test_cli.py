import math

import numpy as np
import pytest

from equidrift import (
    BacktestConfig,
    ModelParams,
    VolMatrix,
    read_matrix_csv,
    rolling_backtest,
    synthetic_panel,
    write_csv,
    write_matrix_csv,
)
from equidrift.cli import main

EXAMPLE_COV = np.array([[4.0, 2.0], [2.0, 5.0]])
EXAMPLE_SQRT = (EXAMPLE_COV + 4.0 * np.eye(2)) / math.sqrt(17.0)


@pytest.fixture
def cov_csv(tmp_path):
    path = tmp_path / "cov.csv"
    write_matrix_csv(path, EXAMPLE_COV)
    return str(path)


@pytest.fixture
def panel_csv(tmp_path):
    params = ModelParams(sigma=VolMatrix(0.2 * np.eye(3)), mu=0.2, r=0.03)
    panel = synthetic_panel(params, days=60, seed=0)
    path = tmp_path / "panel.csv"
    write_csv(panel, path)
    return str(path), panel


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFactorCommand:
    def test_symmetric_root_and_row_sums(self, cov_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run(capsys, ["--out", str(out), "factor", cov_csv, "--method", "sqrt"])
        assert code == 0
        assert "row_sum[1] = 2.425356" in stdout
        assert "row_sum[2] = 2.667892" in stdout
        vol = read_matrix_csv(out / "volatility.csv")
        np.testing.assert_allclose(vol, EXAMPLE_SQRT, atol=1e-12)
        lines = (out / "row_sums.csv").read_text().splitlines()
        assert lines[0] == "asset,row_sum"
        assert float(lines[1].split(",")[1]) == pytest.approx(10 / math.sqrt(17), rel=1e-14)

    def test_cholesky_of_identity(self, tmp_path, capsys):
        path = tmp_path / "eye.csv"
        write_matrix_csv(path, np.eye(3))
        out = tmp_path / "out"
        code, _, _ = run(capsys, ["--out", str(out), "factor", str(path), "--method", "cholesky"])
        assert code == 0
        np.testing.assert_array_equal(read_matrix_csv(out / "volatility.csv"), np.eye(3))

    def test_rotate_reaches_symmetric_root(self, cov_csv, tmp_path, capsys):
        target = tmp_path / "target.csv"
        write_matrix_csv(target, EXAMPLE_SQRT)
        out = tmp_path / "out"
        code, _, _ = run(
            capsys,
            ["--out", str(out), "factor", cov_csv, "--method", "rotate", "--target", str(target)],
        )
        assert code == 0
        vol = read_matrix_csv(out / "volatility.csv")
        assert np.max(np.abs(vol - EXAMPLE_SQRT)) <= 1e-9


class TestWeightsCommand:
    def test_fully_invested_weights(self, cov_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run(capsys, ["--out", str(out), "weights", cov_csv])
        assert code == 0
        assert "kappa = 2.53729577" in stdout
        assert "sum(weights) = 1" in stdout
        lines = (out / "weights.csv").read_text().splitlines()
        assert lines[0] == "asset,weight"
        got = [float(line.split(",")[1]) for line in lines[1:]]
        np.testing.assert_allclose(got, [7 / 13, 6 / 13], rtol=1e-12)

    def test_explicit_kappa_on_volatility_input(self, tmp_path, capsys):
        vol_path = tmp_path / "vol.csv"
        write_matrix_csv(vol_path, np.array([[2.0, 0.0], [1.0, 2.0]]))
        out = tmp_path / "out"
        code, stdout, _ = run(
            capsys,
            ["--out", str(out), "weights", str(vol_path), "--vol", "--kappa", repr(8 / 3)],
        )
        assert code == 0
        lines = (out / "weights.csv").read_text().splitlines()
        got = [float(line.split(",")[1]) for line in lines[1:]]
        np.testing.assert_allclose(got, [1 / 3, 2 / 3], rtol=1e-15)
        assert "driver exposure (equal across drivers) = 1.333333333" in stdout


class TestExitCodes:
    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["factor", str(tmp_path / "nope.csv")])
        assert code == 3
        assert "error:" in err

    def test_not_positive_definite(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        write_matrix_csv(path, np.array([[1.0, 2.0], [2.0, 1.0]]))
        code, _, err = run(capsys, ["factor", str(path)])
        assert code == 5
        assert "error:" in err

    def test_insufficient_history(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        code, _, err = run(
            capsys,
            ["--out", str(tmp_path / "o"), "backtest", path, "--window", "1260"],
        )
        assert code == 6

    def test_usage_error_is_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["factor"])
        assert exc_info.value.code == 2

    def test_validation_error_is_exit_two(self, capsys):
        code, _, err = run(
            capsys,
            ["simulate", "--n", "2", "--lambda", "0.01", "--mu", "0.2", "--r", "0.03",
             "--paths", "10", "--steps", "2"],
        )
        assert code == 2

    def test_infinite_cell_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("date,A,B\n20000103,0.01,inf\n20000104,0.02,0.01\n")
        code, _, err = run(capsys, ["backtest", str(path), "--window", "5", "--every", "2"])
        assert code == 3
        assert "line 2" in err

    def test_non_monotonic_panel(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("date,A,B\n20000104,0.01,0.0\n20000103,0.02,0.01\n")
        code, _, err = run(capsys, ["backtest", str(path), "--window", "5", "--every", "2"])
        assert code == 4

    def test_unknown_config_key(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        cfg = tmp_path / "cfg"
        cfg.write_text("cadence=5\n")
        code, _, err = run(capsys, ["backtest", path, "--config", str(cfg)])
        assert code == 3
        assert "line 1" in err


class TestBacktestCommand:
    BASE = ["--window", "30", "--every", "5", "--no-default-exclusions"]

    def test_report_files_and_schema(self, panel_csv, tmp_path, capsys):
        path, panel = panel_csv
        out = tmp_path / "report"
        code, stdout, _ = run(
            capsys, ["--out", str(out), "backtest", path] + self.BASE
        )
        assert code == 0
        for name in ("returns.csv", "weights.csv", "summary.csv", "summary.txt"):
            assert (out / name).is_file()
        header, values = (out / "summary.csv").read_text().splitlines()
        assert header.split(",") == [
            "sharpe_strategy",
            "sharpe_benchmark",
            "jk_z",
            "jk_p",
            "terminal_wealth_ratio",
            "volatility_ratio",
        ]
        assert len(values.split(",")) == 6
        assert "out-of-sample days: 30" in stdout
        ret_lines = (out / "returns.csv").read_text().splitlines()
        assert ret_lines[0] == "date,strategy,benchmark"
        assert len(ret_lines) == 31

    def test_matches_library_results(self, panel_csv, tmp_path, capsys):
        path, panel = panel_csv
        out = tmp_path / "report"
        code, _, _ = run(capsys, ["--out", str(out), "backtest", path] + self.BASE)
        assert code == 0
        report = rolling_backtest(
            panel,
            BacktestConfig(window_days=30, reestimate_every=5, exclusion_windows=()),
        )
        _, values = (out / "summary.csv").read_text().splitlines()
        got = [float(tok) for tok in values.split(",")]
        want = [
            report.sharpe_strategy,
            report.sharpe_benchmark,
            report.jk_z,
            report.jk_p,
            report.terminal_wealth_ratio,
            report.volatility_ratio,
        ]
        assert got == want

    def test_reruns_are_byte_identical(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(capsys, ["--out", str(out1), "backtest", path] + self.BASE)[0] == 0
        assert run(capsys, ["--out", str(out2), "backtest", path] + self.BASE)[0] == 0
        for name in ("returns.csv", "weights.csv", "summary.csv", "summary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_config_file_and_flag_precedence(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# engine settings\nwindow_days=40\nreestimate_every=5\n")

        out1 = tmp_path / "from-file"
        code, _, _ = run(
            capsys,
            ["--out", str(out1), "backtest", path, "--config", str(cfg),
             "--no-default-exclusions"],
        )
        assert code == 0
        # window 40 over 60 days: rebalances at rows 40, 45, 50, 55
        assert len((out1 / "weights.csv").read_text().splitlines()) == 5

        out2 = tmp_path / "flag-wins"
        code, _, _ = run(
            capsys,
            ["--out", str(out2), "backtest", path, "--config", str(cfg),
             "--window", "30", "--no-default-exclusions"],
        )
        assert code == 0
        assert len((out2 / "weights.csv").read_text().splitlines()) == 7

    def test_output_dir_env_default(self, panel_csv, tmp_path, capsys, monkeypatch):
        path, _ = panel_csv
        target = tmp_path / "from-env"
        monkeypatch.setenv("EQUIDRIFT_OUTPUT_DIR", str(target))
        code, _, _ = run(capsys, ["backtest", path] + self.BASE)
        assert code == 0
        assert (target / "summary.csv").is_file()

    def test_drop_and_exclude_flags(self, panel_csv, tmp_path, capsys):
        path, panel = panel_csv
        out = tmp_path / "report"
        first_oos = int(panel.dates[30])
        code, _, _ = run(
            capsys,
            ["--out", str(out), "backtest", path, "--drop", "A03",
             "--exclude", f"{int(panel.dates[3])}-{int(panel.dates[5])}"]
            + self.BASE,
        )
        assert code == 0
        header = (out / "weights.csv").read_text().splitlines()[0]
        assert header == "date,A01,A02"
        assert str(first_oos) in (out / "returns.csv").read_text()


class TestFigure1Command:
    def test_density_files_and_variance_ordering(self, tmp_path, capsys):
        out = tmp_path / "fig"
        code, stdout, _ = run(capsys, ["--out", str(out), "figure1"])
        assert code == 0
        variances = []
        for n in (1, 5, 25):
            path = out / f"density_n{n}.csv"
            assert path.is_file()
            lines = path.read_text().splitlines()
            assert lines[0] == "wealth,density"
            assert len(lines) == 601
            variances.append(float(stdout.split(f"n={n} variance=")[1].split()[0]))
        assert variances[0] > variances[1] > variances[2]

    def test_custom_counts(self, tmp_path, capsys):
        out = tmp_path / "fig"
        code, _, _ = run(capsys, ["--out", str(out), "figure1", "--n-list", "2,7"])
        assert code == 0
        assert (out / "density_n2.csv").is_file()
        assert (out / "density_n7.csv").is_file()


class TestSimulateCommand:
    ARGS = ["simulate", "--n", "2", "--lambda", "0.1", "--mu", "0.2", "--r", "0.03",
            "--paths", "200", "--steps", "8", "--seed", "1"]

    def test_prints_moment_comparison(self, capsys):
        code, stdout, _ = run(capsys, self.ARGS)
        assert code == 0
        assert "kappa = 0.4117647059" in stdout
        assert "mean: mc=" in stdout and "theory=" in stdout

    def test_save_writes_terminal_wealth(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code, _, _ = run(capsys, ["--out", str(out)] + self.ARGS + ["--save"])
        assert code == 0
        lines = (out / "terminal_wealth.csv").read_text().splitlines()
        assert lines[0] == "path,wealth"
        assert len(lines) == 201

    def test_rejects_fewer_than_two_paths(self, capsys):
        args = [a if a != "200" else "1" for a in self.ARGS]
        code, stdout, err = run(capsys, args)
        assert code == 2
        assert "--paths" in err
        assert "nan" not in stdout

    def test_rejects_nonpositive_initial_wealth(self, capsys):
        code, _, _ = run(capsys, self.ARGS + ["--w0", "0"])
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value", [("--steps", "0"), ("--w0", "0"), ("--horizon", "0"), ("--horizon", "nan")]
    )
    def test_errors_name_the_flag(self, capsys, flag, value):
        code, stdout, err = run(capsys, self.ARGS + [flag, value])
        assert code == 2
        assert err.startswith(f"error: {flag} ")
        assert stdout == ""


class TestCompareCommand:
    def test_identical_series(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        body = "\n".join(
            f"{20000103 + i},{float(r)!r}"
            for i, r in enumerate(rng.normal(0.001, 0.01, 50))
        )
        a = tmp_path / "a.csv"
        a.write_text("date,X\n" + body + "\n")
        code, stdout, _ = run(capsys, ["compare", str(a), str(a)])
        assert code == 0
        assert "z=0" in stdout
        assert "p_one_sided=0.5" in stdout

    def test_column_selection_required_when_ambiguous(self, panel_csv, capsys):
        path, _ = panel_csv
        code, _, err = run(capsys, ["compare", path, path])
        assert code == 2
        code, stdout, _ = run(
            capsys, ["compare", path, path, "--col-a", "A01", "--col-b", "A02"]
        )
        assert code == 0
        assert "rho=" in stdout
