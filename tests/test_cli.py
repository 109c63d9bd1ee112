import argparse
import errno
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import equidrift
from equidrift import (
    BacktestConfig,
    DateRange,
    ModelParams,
    ReturnPanel,
    VolMatrix,
    cholesky,
    estimate_covariance,
    load_csv,
    read_matrix_csv,
    rolling_backtest,
    synthetic_panel,
    write_csv,
    write_matrix_csv,
)
from equidrift import cli, errors, simulate
from equidrift.cli import main

SIMULATE = ["simulate", "--n", "2", "--lambda", "0.1", "--mu", "0.2", "--r", "0.03",
            "--paths", "200", "--steps", "8", "--seed", "1"]
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


def test_imports_need_numpy_only():
    # a fresh interpreter, so modules the test session loaded do not count
    code = (
        "import sys, equidrift, equidrift.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(equidrift.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_one_grammar_and_one_declaration_per_setting():
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            assert action.type not in (int, float), (name, action.option_strings)
            # a flag's type is its one check, so no flag also lists choices
            assert action.choices is None, (name, action.option_strings)
    for name in ("factor", "weights", "backtest"):
        help_text = subparsers.choices[name].format_help()
        assert all(method in help_text for method in cli._METHODS), name
    backtest_dests = {a.dest for a in subparsers.choices["backtest"]._actions}
    for key, (flag, _, _) in cli._SETTINGS.items():
        assert key in cli._CONFIG_KEYS and key in backtest_dests
        assert subparsers.choices["backtest"]._option_string_actions[flag].dest == key


@pytest.mark.parametrize("command", ["simulate", "figure1", "weights", "compare", "backtest"])
def test_every_real_flag_rejects_inf_and_nan(command):
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    real_flags = []
    for action in subparsers.choices[command]._actions:
        try:
            if not isinstance(action.type("1.5"), float):
                continue
        except (TypeError, argparse.ArgumentTypeError):  # no type, or not a real
            continue
        real_flags.append(action.dest)
        for value in ("inf", "-inf", "nan"):
            with pytest.raises(argparse.ArgumentTypeError, match="must be finite"):
                action.type(value)
    assert real_flags


def test_every_error_names_an_exit_kind():
    classes = [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.EquidriftError)
    ]
    assert len(classes) > 1
    for cls in classes:
        assert "EXIT_KIND" in vars(cls), cls
        assert cls.EXIT_KIND in cli.EXIT_CODES, cls
        assert (cls.EXIT_KIND == "internal") == (cls is errors.EquidriftError), cls


class TestFactorCommand:
    def test_symmetric_root_and_row_sums(self, cov_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run(capsys, ["--out", str(out), "factor", cov_csv, "--method", "sqrt"])
        assert code == 0
        assert stdout.startswith("method=sym_sqrt dim=2\n")
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

    @pytest.mark.parametrize("flag", ["--method", "--shrinkage", "--target"])
    def test_volatility_input_rejects_covariance_flags(self, cov_csv, tmp_path, capsys, flag):
        # each was ignored: the run exited 0 with the matrix used as given
        value = {"--method": "cholesky", "--shrinkage": "0.1", "--target": cov_csv}[flag]
        out = tmp_path / "out"
        code, stdout, err = run(
            capsys, ["--out", str(out), "weights", cov_csv, "--vol", flag, value]
        )
        assert (code, stdout) == (2, "")
        assert err == f"error: {flag} does not apply to a --vol matrix\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    @pytest.mark.parametrize("command", ["factor", "weights", "backtest"])
    def test_shrinkage_must_be_finite_and_positive(
        self, panel_csv, tmp_path, capsys, command, value
    ):
        # factor and weights read a covariance that needs the repair
        matrix = tmp_path / "npd.csv"
        write_matrix_csv(matrix, np.array([[1.0, 2.0], [2.0, 1.0]]))
        source = panel_csv[0] if command == "backtest" else str(matrix)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc_info:
            main(["--out", str(out), command, source, f"--shrinkage={value}"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.endswith(f"error: argument --shrinkage: must be finite and positive, got '{value}'")
        assert not out.exists()

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

    def test_impossible_date_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("date,A,B\n20000103,0.01,0.0\n20201399,0.02,0.01\n")
        code, _, err = run(capsys, ["backtest", str(path), "--window", "5", "--every", "2"])
        assert code == 3
        assert "line 3: impossible date 20201399" in err

    @pytest.mark.parametrize("fmt", ["csv", "french"])
    def test_calendar_impossible_date_is_parse_error(self, tmp_path, capsys, fmt):
        path = tmp_path / "p.txt"
        if fmt == "csv":
            path.write_text("date,A,B\n20200228,0.01,0.0\n20200231,0.02,0.01\n")
        else:
            path.write_text("  A B\n20200228 1.0 0.0\n20200231 2.0 1.0\n")
        code, stdout, err = run(
            capsys,
            ["backtest", str(path), "--format", fmt, "--window", "5", "--every", "2"],
        )
        assert code == 3
        assert stdout == ""
        assert "line 3: impossible date 20200231" in err

    @pytest.mark.parametrize("fmt", ["csv", "french"])
    def test_non_ascii_digit_date_is_parse_error(self, tmp_path, capsys, fmt):
        if fmt == "csv":
            a = tmp_path / "a.csv"
            a.write_text("date,X\n20000103,0.01\n2000010\u00b2,0.02\n")
            argv = ["compare", str(a), str(a)]
        else:
            a = tmp_path / "a.txt"
            a.write_text("  A B\n20000103 1.0 0.0\n2000010\u00b2 2.0 1.0\n")
            argv = ["backtest", str(a), "--format", fmt, "--window", "5", "--every", "2"]
        code, stdout, err = run(capsys, argv)
        assert code == 3
        assert stdout == ""
        assert "line 3: bad date '2000010\u00b2'" in err

    @pytest.mark.parametrize(
        "text, line",
        [("1.0,0.0\n0.0,abc\n", 2), ("1.0,0.0\nnan,1.0\n", 2), ("1.0,0.0\n1.0\n", 2), ("", 1)],
        ids=["unparseable", "non-finite", "ragged", "empty"],
    )
    @pytest.mark.parametrize("command", ["factor", "weights --vol", "backtest --target"])
    def test_malformed_matrix_file_is_parse_error(
        self, panel_csv, tmp_path, capsys, text, line, command
    ):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        argv = {
            "factor": ["factor", str(bad)],
            "weights --vol": ["weights", "--vol", str(bad)],
            "backtest --target": [
                "backtest", panel_csv[0], "--method", "rotate", "--target", str(bad),
                "--window", "30", "--every", "5",
            ],
        }[command]
        out = tmp_path / "o"
        code, stdout, err = run(capsys, ["--out", str(out)] + argv)
        assert code == 3
        assert stdout == ""
        assert err.startswith(f"error: line {line}: ")
        assert str(bad) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["factor", "compare", "backtest --format french", "backtest --config"]
    )
    def test_non_utf8_file_is_parse_error(self, panel_csv, tmp_path, capsys, command):
        bad = tmp_path / "bad"
        text, argv = {
            "factor": (b"1.0,0.0\n0.0,\xff1.0\n", ["factor", str(bad)]),
            "compare": (b"date,X\n20000103,0.01\n20000104,\xff\n", ["compare", str(bad), str(bad)]),
            "backtest --format french": (
                b"  A B\n20000103 1.0 0.0\n20000104 \xff 1.0\n",
                ["backtest", str(bad), "--format", "french"],
            ),
            "backtest --config": (
                b"window=30\n\xff=1\n", ["backtest", panel_csv[0], "--config", str(bad)]
            ),
        }[command]
        bad.write_bytes(text)
        out = tmp_path / "o"
        code, stdout, err = run(capsys, ["--out", str(out)] + argv)
        assert code == 3
        assert stdout == ""
        line = 2 if command in ("factor", "backtest --config") else 3
        assert err.startswith(f"error: line {line}: {bad} is not UTF-8: byte 0xff")
        assert not out.exists()

    def test_config_line_without_equals_names_its_line(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        cfg = tmp_path / "cfg"
        cfg.write_text("# engine\nwindow_days 30\n")
        out = tmp_path / "o"
        code, stdout, err = run(capsys, ["--out", str(out), "backtest", path, "--config", str(cfg)])
        assert code == 3
        assert err == "error: line 2: expected key=value, got 'window_days 30'\n"
        assert stdout == "" and not out.exists()

    def test_rotation_target_of_another_size_exits_5_before_any_output(
        self, panel_csv, tmp_path, capsys
    ):
        path, _ = panel_csv
        target = tmp_path / "target.csv"
        write_matrix_csv(target, np.eye(2))
        out = tmp_path / "o"
        code, stdout, err = run(
            capsys,
            ["--out", str(out), "backtest", path, "--method", "rotate", "--target", str(target)]
            + TestBacktestCommand.BASE,
        )
        assert code == 5
        assert err == "error: factor is 3x3 but target is 2x2\n"
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("flag", ["--kappa", "--exposure"])
    def test_overflowing_weights_exit_5(self, tmp_path, capsys, flag):
        # the weights of sigma = 0.001 I overflow, and numpy warns of nothing
        vol = tmp_path / "v.csv"
        write_matrix_csv(vol, 0.001 * np.eye(3))
        out = tmp_path / "o"
        code, stdout, err = run(
            capsys, ["--out", str(out), "weights", str(vol), "--vol", flag, "1e308"]
        )
        assert code == 5
        assert err.startswith("error: weights overflow: kappa ") and err.count("\n") == 1
        assert stdout == "" and not out.exists()

    def test_overflowing_window_exits_5_naming_its_date(self, tmp_path, capsys):
        # a return of 1e200 on row 100 overflows the covariance of every
        # window holding it, first the one for the rebalance on row 110
        params = ModelParams(sigma=VolMatrix(0.2 * np.eye(3)), mu=0.2, r=0.03)
        panel = synthetic_panel(params, days=200, seed=0)
        returns = np.array(panel.returns)
        returns[100, 1] = 1e200
        path = tmp_path / "panel.csv"
        write_csv(ReturnPanel(panel.dates, panel.assets, returns), path)
        out = tmp_path / "o"
        code, stdout, err = run(
            capsys, ["--out", str(out), "backtest", str(path), "--window", "60", "--every", "10"]
        )
        assert code == 5
        assert err == (
            f"error: estimation window ending before date {panel.dates[110]} is not "
            "factorable: sample covariance overflows: it has non-finite entries\n"
        )
        assert stdout == "" and not out.exists()

    def test_overflowing_statistics_are_a_stats_error(self, tmp_path, capsys):
        # a return of 1e200 on row 195 lies after the last rebalance's
        # window, so the weights stand and only the summary statistics overflow
        params = ModelParams(sigma=VolMatrix(0.2 * np.eye(3)), mu=0.2, r=0.03)
        panel = synthetic_panel(params, days=200, seed=0)
        returns = np.array(panel.returns)
        returns[195, 0] = 1e200
        path = tmp_path / "panel.csv"
        write_csv(ReturnPanel(panel.dates, panel.assets, returns), path)
        out = tmp_path / "o"
        code, stdout, err = run(
            capsys, ["--out", str(out), "backtest", str(path), "--window", "60", "--every", "10"]
        )
        assert (code, err) == (0, "")
        summary = (out / "summary.txt").read_text().splitlines()
        assert [line for line in summary if line.startswith("stats_error=")] == [
            line for line in stdout.splitlines() if line.startswith("stats_error=")
        ]
        assert any(
            line.startswith("stats_error=ZeroVariance: sample moments overflow: ")
            for line in summary
        )
        assert {"sharpe_strategy=nan", "jk_z=nan", "jk_p=nan"} <= set(summary)

    @pytest.mark.parametrize("command", ["factor", "weights", "backtest"])
    def test_rotate_without_target_is_usage_error(
        self, cov_csv, panel_csv, tmp_path, capsys, command
    ):
        # backtest printed the library's "factorization 'rotate' needs rotation_target"
        argv = {
            "factor": ["factor", cov_csv],
            "weights": ["weights", cov_csv],
            "backtest": ["backtest", panel_csv[0]] + TestBacktestCommand.BASE,
        }[command]
        out = tmp_path / "o"
        code, stdout, err = run(capsys, ["--out", str(out)] + argv + ["--method", "rotate"])
        assert code == 2
        assert err == "error: --method rotate requires --target\n"
        assert stdout == "" and not out.exists()

    def test_config_rotate_without_target_names_its_line(self, panel_csv, tmp_path, capsys):
        # exited 2 with the library's message, naming no line
        cfg = tmp_path / "cfg"
        cfg.write_text("# engine\nfactorization=rotate\n")
        out = tmp_path / "o"
        code, stdout, err = run(
            capsys,
            ["--out", str(out), "backtest", panel_csv[0], "--config", str(cfg)]
            + TestBacktestCommand.BASE,
        )
        assert code == 3
        assert err == "error: line 2: factorization: rotate requires target\n"
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize(
        "flags, lines, code, want",
        [
            (["--window", "20", "--every", "20"], "", 2, "--window must exceed --every"),
            (["--every", "20"], "window_days=20\n", 2, "--window must exceed --every"),
            ([], "window_days=20\nreestimate_every=20\n", 3,
             "line 1: window_days: must exceed reestimate_every"),
            ([], "reestimate_every=1300\n", 3, "line 1: reestimate_every: must be below window_days"),
        ],
        ids=["flags", "flag-and-file", "file", "file-cadence"],
    )
    def test_window_not_above_cadence_names_its_flag_or_line(
        self, panel_csv, tmp_path, capsys, flags, lines, code, want
    ):
        # each printed "window_days must exceed reestimate_every" and exited 2
        cfg = tmp_path / "cfg"
        cfg.write_text(lines)
        out = tmp_path / "o"
        argv = ["--out", str(out), "backtest", panel_csv[0], "--config", str(cfg)]
        got = run(capsys, argv + flags + ["--no-default-exclusions"])
        assert got == (code, "", f"error: {want}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["factor", "weights", "backtest"])
    def test_target_without_rotate_is_usage_error(
        self, cov_csv, panel_csv, tmp_path, capsys, command
    ):
        # each read the target and exited 0 with another method's output
        target = tmp_path / "target.csv"
        write_matrix_csv(target, np.eye(3))
        argv = {
            "factor": ["factor", cov_csv],
            "weights": ["weights", cov_csv, "--method", "cholesky"],
            "backtest": ["backtest", panel_csv[0]] + TestBacktestCommand.BASE,
        }[command]
        out = tmp_path / "o"
        code, stdout, err = run(capsys, ["--out", str(out)] + argv + ["--target", str(target)])
        assert code == 2
        assert err == "error: --target requires --method rotate\n"
        assert stdout == "" and not out.exists()

    def test_config_target_without_rotate_names_its_line(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        target = tmp_path / "target.csv"
        write_matrix_csv(target, np.eye(3))
        cfg = tmp_path / "cfg"
        cfg.write_text(f"# engine\nfactorization=cholesky\ntarget={target}\n")
        out = tmp_path / "o"
        code, stdout, err = run(
            capsys,
            ["--out", str(out), "backtest", path, "--config", str(cfg)] + TestBacktestCommand.BASE,
        )
        assert code == 3
        assert err == "error: line 3: target: requires factorization=rotate\n"
        assert stdout == "" and not out.exists()
        # the flag overrides the file's method, so the file's target is used
        code, _, _ = run(
            capsys,
            ["--out", str(out), "backtest", path, "--config", str(cfg), "--method", "rotate"]
            + TestBacktestCommand.BASE,
        )
        assert code == 0 and (out / "summary.txt").is_file()

    @pytest.mark.parametrize(
        "lines",
        [
            ["exclude=20000110-20000111", "# more", "exclude=20000120-20000121"],
            ["window_days=30", "", "window_days=20"],
        ],
        ids=["exclude", "window_days"],
    )
    def test_repeated_config_key_names_both_lines(self, panel_csv, tmp_path, capsys, lines):
        path, _ = panel_csv
        key = lines[0].split("=")[0]
        cfg = tmp_path / "cfg"
        cfg.write_text("reestimate_every=5\n" + "\n".join(lines) + "\n")
        out = tmp_path / "o"
        code, stdout, err = run(capsys, ["--out", str(out), "backtest", path, "--config", str(cfg)])
        assert code == 3
        assert err == f"error: line 4: {key}: repeated; first set on line 2\n"
        assert stdout == "" and not out.exists()

    def test_empty_asset_name_exits_3_naming_its_column(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("date,,B\n20000103,0.01,0.02\n")
        out = tmp_path / "o"
        code, stdout, err = run(capsys, ["--out", str(out), "backtest", str(path)])
        assert code == 3
        assert err == "error: line 1: column 2: empty asset name\n"
        assert stdout == "" and not out.exists()

    def test_unknown_config_key(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        cfg = tmp_path / "cfg"
        cfg.write_text("cadence=5\n")
        code, _, err = run(capsys, ["backtest", path, "--config", str(cfg)])
        assert code == 3
        assert "line 1" in err

    @pytest.mark.parametrize(
        "value",
        [
            "exposure=0_5",
            "window_days=３０",
            "window_days=abc",
            "exclude=2000_0103-20000104",
            "factorization=choleksy",
            "format=xml",
        ],
    )
    def test_config_value_outside_the_grammar_names_its_line(
        self, panel_csv, tmp_path, capsys, value
    ):
        # int() and float() read the first two as 5.0 and 30; the last two
        # name no method or format
        path, _ = panel_csv
        cfg = tmp_path / "cfg"
        cfg.write_text(f"# engine\nreestimate_every=5\n{value}\n")
        out = tmp_path / "o"
        code, stdout, err = run(capsys, ["--out", str(out), "backtest", path, "--config", str(cfg)])
        assert code == 3
        assert err.startswith(f"error: line 3: {value.split('=')[0]}: ")
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["backtest", "p.csv", "--exposure", "0_5"], "--exposure"),
            (["backtest", "p.csv", "--window", "３０"], "--window"),
            (["backtest", "p.csv", "--exclude", "2000_0103-20000104"], "--exclude"),
            (["backtest", "p.csv", "--date-range", "+20000103"], "--date-range"),
            (["simulate", "--lambda", "0.1", "--mu", "0.2", "--r", "0.03", "--paths", "1_000"],
             "--paths"),
            (["simulate", "--lambda", "0.1", "--mu", "0.2", "--r", "0.03", "--seed", "７"],
             "--seed"),
            (["figure1", "--n-list", "1,٥"], "--n-list"),
            (["compare", "a.csv", "b.csv", "--rf-daily", "0_1"], "--rf-daily"),
            # inside the grammar, outside the flag's range
            (["simulate", "--lambda", "0.1", "--mu", "0.2", "--r", "0.03", "--n", "0"], "--n"),
            (["simulate", "--lambda", "0.1", "--mu", "0.2", "--r", "0.03", "--n", "-1"], "--n"),
            (["simulate", "--lambda", "0.1", "--mu", "0.2", "--r", "0.03", "--seed", "-1"],
             "--seed"),
            (["figure1", "--grid-min", "0"], "--grid-min"),
            (["figure1", "--grid-max", "-1"], "--grid-max"),
            *((SIMULATE + [flag, value], flag) for flag, value in [
                ("--steps", "0"), ("--w0", "0"), ("--horizon", "0"), ("--horizon", "nan"),
                ("--horizon", "inf"), ("--w0", "inf"), ("--lambda", "inf"),
                ("--sigma-scale", "inf"), ("--sigma-scale", "0"), ("--paths", "1"),
                ("--r", "0"), ("--r", "-0.01"),
            ]),
            *((["figure1", flag, value], flag) for flag, value in [
                ("--t", "0"), ("--t", "-1"), ("--w", "0"), ("--w", "-1"), ("--n-list", "1,1"),
                ("--grid-points", "0"), ("--grid-points", "-3"), ("--grid-max", "inf"),
            ]),
            (["weights", "m.csv", "--kappa", "0"], "--kappa"),
            (["weights", "m.csv", "--kappa", "inf"], "--kappa"),
            (["weights", "m.csv", "--exposure", "0"], "--exposure"),
            (["weights", "m.csv", "--exposure", "nan"], "--exposure"),
            (["weights", "m.csv", "--exposure", "inf"], "--exposure"),
            (["compare", "a.csv", "b.csv", "--rf-daily", "inf"], "--rf-daily"),
        ],
    )
    def test_flag_outside_the_grammar_is_usage_error(self, capsys, tmp_path, argv, flag):
        # int() and float() read the values outside the grammar; the parser
        # rejects both kinds before any file is read or written
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc_info:
            main(["--out", str(out)] + argv)
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert f"error: argument {flag}: " in captured.err
        assert captured.out == ""
        assert not out.exists()


    @pytest.mark.parametrize(
        "flag, key, value, message",
        [
            ("--rf", "rf_annual", "inf", "must be finite"),
            ("--rf", "rf_annual", "nan", "must be finite"),
            ("--exposure", "exposure", "nan", "must be finite and non-zero"),
            ("--exposure", "exposure", "-inf", "must be finite and non-zero"),
            ("--exposure", "exposure", "0", "must be finite and non-zero"),
            ("--window", "window_days", "0", "must be positive"),
            ("--window", "window_days", "-30", "must be positive"),
            ("--every", "reestimate_every", "0", "must be positive"),
            ("--shrinkage", "shrinkage", "inf", "must be finite and positive"),
            ("--shrinkage", "shrinkage", "0", "must be finite and positive"),
            ("--format", "format", "xml", "expected one of csv, french"),
            (
                "--method",
                "factorization",
                "bogus",
                "expected one of cholesky, sym_sqrt, sqrt, rotate",
            ),
        ],
    )
    def test_backtest_range_errors_name_the_flag_or_the_key_and_line(
        self, panel_csv, tmp_path, capsys, flag, key, value, message
    ):
        path, _ = panel_csv
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc_info:
            main(["--out", str(out), "backtest", path, f"{flag}={value}"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == f"equidrift backtest: error: argument {flag}: {message}, got '{value}'"
        cfg = tmp_path / "cfg"
        cfg.write_text(f"# engine\n{key}={value}\n")
        code, stdout, err = run(capsys, ["--out", str(out), "backtest", path, "--config", str(cfg)])
        assert code == 3
        assert err == f"error: line 2: {key}: {message}, got '{value}'\n"
        assert stdout == "" and not out.exists()


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

    def test_failed_write_leaves_no_report(self, panel_csv, tmp_path, capsys, monkeypatch):
        opened = []

        def open_failing_third(path, *args, **kwargs):
            opened.append(path)
            if len(opened) == 3:
                raise OSError(28, "No space left on device")
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", open_failing_third, raising=False)
        out = tmp_path / "report"
        code, stdout, err = run(capsys, ["--out", str(out), "backtest", panel_csv[0]] + self.BASE)
        assert code != 0
        assert "No space left on device" in err
        assert len(opened) == 3
        assert list(out.iterdir()) == []

    def test_full_disk_exits_3_naming_the_file(self, panel_csv, tmp_path, capsys, monkeypatch):
        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def writelines(self, lines):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        opened = []

        def full_on_third_write(path, *args, **kwargs):
            opened.append(path)
            fh = open(path, *args, **kwargs)
            return FullDisk(fh) if len(opened) == 3 else fh

        monkeypatch.setattr(cli, "open", full_on_third_write, raising=False)
        out = tmp_path / "report"
        code, _, err = run(capsys, ["--out", str(out), "backtest", panel_csv[0]] + self.BASE)
        assert code == 3
        assert os.strerror(errno.ENOSPC) in err
        assert str(out / "summary.csv") in err
        assert len(opened) == 3
        assert list(out.iterdir()) == []

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

    def test_no_flags_means_library_defaults(self, panel_csv, tmp_path, capsys, monkeypatch):
        path, _ = panel_csv
        seen = []

        def spy(panel, config):
            seen.append(config)
            return rolling_backtest(panel, config)

        monkeypatch.setattr(cli, "rolling_backtest", spy)
        code, _, _ = run(capsys, ["--out", str(tmp_path / "o"), "backtest", path])
        # 60 days fall short of the default 1260-day window
        assert code == 6
        assert seen == [BacktestConfig()]

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


    def test_date_range_slices_the_panel(self, panel_csv, tmp_path, capsys):
        path, panel = panel_csv
        span = DateRange(int(panel.dates[5]), int(panel.dates[54]))
        out = tmp_path / "report"
        code, stdout, _ = run(
            capsys,
            ["--out", str(out), "backtest", path, "--date-range", f"{span.start}-{span.end}"]
            + self.BASE,
        )
        assert code == 0
        assert "out-of-sample days: 20" in stdout
        report = rolling_backtest(
            panel.slice(span),
            BacktestConfig(window_days=30, reestimate_every=5, exclusion_windows=()),
        )
        dates = [int(line.split(",")[0]) for line in (out / "returns.csv").read_text().splitlines()[1:]]
        assert dates == report.dates.tolist()
        _, values = (out / "summary.csv").read_text().splitlines()
        assert [float(tok) for tok in values.split(",")] == [
            report.sharpe_strategy,
            report.sharpe_benchmark,
            report.jk_z,
            report.jk_p,
            report.terminal_wealth_ratio,
            report.volatility_ratio,
        ]

    def test_leveraged_window_keeps_the_chain_weights(self, tmp_path, capsys):
        # Asset 1 is scaled so that the Cholesky unit solution x of the one
        # window sums to about 1e-9 of its size: the fully invested weights
        # have |w|_1 near 2e9 and sum to 1 within WeightVector's
        # 1e-12 * |w|_1, but not within 1e-10. A report re-check at 1e-10
        # rejected the weights the public chain built (exit 2, no files).
        rng = np.random.default_rng(6)
        sigma = VolMatrix(0.2 * np.eye(4) + 0.1 * rng.normal(size=(4, 4)))
        panel = synthetic_panel(ModelParams(sigma=sigma, mu=0.2, r=0.03), days=70, seed=0)
        vol = cholesky(estimate_covariance(panel.take_rows(0, 60)))
        x = np.linalg.solve(vol.entries.T, np.ones(4))
        scale = -x[1] / (x.sum() - x[1])
        assert scale > 0.0
        returns = panel.returns.copy()
        returns[:, 1] *= scale * (1.0 + 1e-9)
        path = tmp_path / "leveraged.csv"
        write_csv(ReturnPanel(panel.dates, panel.assets, returns), path)
        out = tmp_path / "report"
        argv = ["backtest", str(path), "--window", "60", "--every", "10", "--method", "cholesky"]
        code, _, err = run(capsys, ["--out", str(out)] + argv)
        assert (code, err) == (0, "")
        weights = np.loadtxt(out / "weights.csv", delimiter=",", skiprows=1)[1:]
        size = np.abs(weights).sum()
        assert size > 1e9
        assert 1e-10 < abs(weights.sum() - 1.0) <= 1e-12 * size

    def test_degenerate_statistics_report_their_error(self, tmp_path, capsys):
        # all-zero returns: shrinkage makes every window factorable, and the
        # constant return series leave the Sharpe machinery nothing to test
        path = tmp_path / "zeros.csv"
        path.write_text("date,Z0,Z1\n" + "".join(f"{2000 + i}0103,0.0,0.0\n" for i in range(40)))
        out = tmp_path / "report"
        code, stdout, _ = run(
            capsys, ["--out", str(out), "backtest", str(path), "--shrinkage", "1e-6"] + self.BASE
        )
        assert code == 0
        report = rolling_backtest(
            load_csv(path),
            BacktestConfig(
                window_days=30, reestimate_every=5, exclusion_windows=(), shrinkage=1e-6
            ),
        )
        assert report.stats_error is not None
        line = f"stats_error={report.stats_error}"
        assert (out / "summary.txt").read_text().splitlines()[-1] == line
        assert stdout.splitlines()[-2:] == [line, f"wrote report to {out}"]


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

    @pytest.mark.parametrize(
        "rates, flag",
        [
            (["--mu", "0.01", "--r", "0.03"], "--mu"),
            (["--lambda", "0.01", "--r", "0.03"], "--lambda"),
            (["--lambda", "0.03", "--r", "0.03"], "--lambda"),
        ],
    )
    def test_rate_order_names_the_flag(self, tmp_path, capsys, rates, flag):
        out = tmp_path / "fig"
        code, stdout, err = run(capsys, ["--out", str(out), "figure1"] + rates)
        assert code == 2
        assert err == f"error: {flag} must exceed --r\n"
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("grid_min, grid_max", [("3", "1"), ("2", "2")])
    def test_grid_must_ascend(self, tmp_path, capsys, grid_min, grid_max):
        # both wrote a grid that exits 0: descending, or four equal rows
        out = tmp_path / "fig"
        argv = ["figure1", "--grid-min", grid_min, "--grid-max", grid_max, "--grid-points", "4"]
        code, stdout, err = run(capsys, ["--out", str(out)] + argv)
        assert code == 2
        assert err == "error: --grid-max must exceed --grid-min\n"
        assert stdout == ""
        assert not out.exists()


class TestSimulateCommand:
    ARGS = SIMULATE

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

    def test_output_does_not_depend_on_lane_count(self, tmp_path, capsys, pin_lanes):
        paths = 2 * -(-simulate._MIN_LANE_WORK // (252 * 5))  # two lanes' worth
        args = ["simulate", "--n", "5", "--lambda", "0.1", "--mu", "0.2", "--r", "0.03",
                "--paths", str(paths), "--steps", "252", "--seed", "4", "--save"]
        outputs = []
        for lanes in (1, 2):
            pin_lanes(lanes)
            out = tmp_path / f"lanes{lanes}"
            code, stdout, _ = run(capsys, ["--out", str(out)] + args)
            assert code == 0
            saved = (out / "terminal_wealth.csv").read_bytes()
            outputs.append((stdout.replace(str(out), "<out>"), saved))
        assert outputs[1] == outputs[0]
        assert len(outputs[0][1].splitlines()) == paths + 1

    def test_vol_file_sets_the_model(self, tmp_path, capsys):
        # the scaled identity that --n 2 builds, read from a file instead
        vol = tmp_path / "vol.csv"
        write_matrix_csv(vol, 0.2 * np.eye(2))
        code, from_n, _ = run(capsys, self.ARGS)
        assert code == 0
        argv = list(self.ARGS)
        argv[1:3] = ["--vol", str(vol)]
        code, from_vol, _ = run(capsys, argv)
        assert code == 0
        assert from_vol == from_n

    def test_needs_n_or_vol(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code, stdout, err = run(capsys, ["--out", str(out)] + self.ARGS[:1] + self.ARGS[3:])
        assert code == 2
        assert err == "error: provide --n or --vol\n"
        assert stdout == "" and not out.exists()

    def test_rejects_nonpositive_initial_wealth(self, tmp_path, capsys):
        out = tmp_path / "sim"
        for w0 in ("0", "-0.5"):
            with pytest.raises(SystemExit) as exc_info:
                main(["--out", str(out)] + self.ARGS + ["--w0", w0, "--save"])
            assert exc_info.value.code == 2
            assert capsys.readouterr().out == ""
            assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--w0", "0"), ("--horizon", "-1")])
    def test_errors_name_the_flag(self, capsys, flag, value):
        # the whole line: the subcommand, the flag and the rule its type declares
        with pytest.raises(SystemExit) as exc_info:
            main(self.ARGS + [flag, value])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == (
            f"equidrift simulate: error: argument {flag}: "
            f"must be finite and positive, got '{value}'"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "rates, flag",
        [
            (["--mu", "0.03"], "--mu"),
            (["--mu", "0.01"], "--mu"),
            (["--lambda", "0.03"], "--lambda"),
        ],
    )
    def test_rate_order_names_the_flag(self, tmp_path, capsys, rates, flag):
        out = tmp_path / "sim"
        code, stdout, err = run(capsys, ["--out", str(out)] + self.ARGS + rates + ["--save"])
        assert code == 2
        assert err == f"error: {flag} must exceed --r\n"
        assert stdout == ""
        assert not out.exists()


class TestCompareCommand:
    def test_identical_series(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        body = "\n".join(
            f"{2000 + i}0103,{float(r)!r}"
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

    def test_named_column_must_exist_and_be_complete(self, tmp_path, capsys):
        path = tmp_path / "gappy.csv"
        path.write_text("date,X,Y\n" + "".join(
            f"{2000 + i}0103,0.01,{'' if i == 3 else 0.02}\n" for i in range(20)
        ))
        for col_a, code, message in (
            ("Z", 2, f"{path} has no column 'Z'"),
            ("Y", 6, f"column 'Y' in {path} has missing values"),
        ):
            got = run(capsys, ["compare", str(path), str(path), "--col-a", col_a, "--col-b", "X"])
            assert got == (code, "", f"error: {message}\n")

    def test_different_dates_are_mismatched_series(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        dates = [f"{2000 + i}0103" for i in range(50)]
        rows = [f"{d},{float(r)!r}\n" for d, r in zip(dates, rng.normal(0.001, 0.01, 50))]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("date,X\n" + "".join(rows))
        rows[30] = rows[30].replace("20300103", "20300104")
        b.write_text("date,X\n" + "".join(rows))
        code, stdout, err = run(capsys, ["compare", str(a), str(b)])
        assert code == 7
        assert stdout == ""
        assert f"data row 31 is 20300103 in {a} but 20300104 in {b}" in err

    def test_overflowing_series_is_a_stats_error(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("date,X\n" + "".join(
            f"{2000 + i}0103,{1e200 if i == 10 else 0.001 * (i % 7)}\n" for i in range(50)
        ))
        b.write_text("date,X\n" + "".join(f"{2000 + i}0103,{0.002 * (i % 5)}\n" for i in range(50)))
        code, stdout, err = run(capsys, ["compare", str(a), str(b)])
        assert (code, stdout) == (7, "")
        assert err.startswith("error: sample moments overflow: sd ") and err.count("\n") == 1
