"""The benchmark's workloads.

Each workload makes its inputs from a seed, names the ``equidrift`` CLI call
that the closed loop times, runs the same work through the library for
``api_s``, checks outputs against the numpy-only oracle, and runs one traced
in-process iteration for the per-layer numbers. Why each workload exists is
written in ``NOTES.md`` next to this file.

The traced iteration calls ``equidrift.cli.main`` in this process with the
names the CLI module imported from other layers (loaders, engine, simulator)
replaced by span-recording wrappers, then replays the engine's public chain
``estimation_window -> estimate_covariance -> factor ->
pi_star_fully_invested`` once per rebalance under a ``rebalance`` span and
checks each replayed weight vector bitwise against the engine's.
"""

from __future__ import annotations

import datetime
import hashlib
import io
import json
import re
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import equidrift.cli as cli
from equidrift import (
    BacktestConfig,
    ModelParams,
    TargetMatrix,
    VolMatrix,
    cholesky,
    estimate_covariance,
    estimation_window,
    jobson_korkie_memmel,
    load_csv,
    load_french,
    pi_star,
    pi_star_fully_invested,
    procrustes_rotate,
    read_matrix_csv,
    replay_wealth,
    rolling_backtest,
    sharpe,
    simulate_paths,
    sym_sqrt,
    synthetic_panel,
)

import oracle

#: The CLI's default estimation exclusion, the week of 1987-10-19. The oracle
#: gets it from here rather than from the package.
BLACK_MONDAY = (19871019, 19871023)
RF_ANNUAL = 0.03

#: Asset names of the industry-format file; ``Hlth`` carries missing codes
#: and is dropped by the CLI call.
FRENCH_ASSETS = (
    "Agric", "Food", "Soda", "Beer", "Smoke", "Toys",
    "Fun", "Books", "Hshld", "Clths", "Hlth",
)
FRENCH_DROP = "Hlth"
FRENCH_MISSING_SHARE = 0.02


@dataclass
class Inputs:
    """Generated input files with their SHA-256, plus the values written."""

    seed: int
    files: dict[str, Path]
    values: dict = field(default_factory=dict)

    @property
    def hashes(self) -> dict[str, str]:
        return {name: _sha256(path) for name, path in self.files.items()}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digest_outputs(outdir: Path, stdout: str) -> str:
    """One hash over the CLI's stdout and every file it wrote."""
    digest = hashlib.sha256(stdout.encode())
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _weekdays(start: datetime.date, days: int) -> np.ndarray:
    out = []
    day = start
    while len(out) < days:
        if day.weekday() < 5:
            out.append(day.year * 10000 + day.month * 100 + day.day)
        day += datetime.timedelta(days=1)
    return np.array(out, dtype=np.int64)


def _synthetic_returns(seed: int, n: int, days: int) -> np.ndarray:
    """Daily returns of ``synthetic_panel`` on a seeded volatility matrix.

    Rows of the volatility matrix share one strong common driver, as
    industry portfolios share the market, and have annual volatility
    between 15% and 35%.
    """
    rng = np.random.default_rng([seed, 1])
    a = rng.standard_normal((n, n))
    a[:, 0] += 2.0
    a *= rng.uniform(0.15, 0.35, (n, 1)) / np.linalg.norm(a, axis=1, keepdims=True)
    params = ModelParams(sigma=VolMatrix(a), mu=0.08, r=RF_ANNUAL)
    return synthetic_panel(params, days, seed).returns


@contextmanager
def _patched(module, replacements: dict):
    saved = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def traced_main(tracer, argv: list[str], layers: dict[str, str], observe) -> tuple[int, str]:
    """Run ``cli.main(argv)`` in process under a ``cli.main`` span.

    ``layers`` maps a name the CLI module imported to the span recorded
    around each call of it; ``observe(span, args, result)`` sees every such
    call. Returns the exit code and what the CLI printed.
    """

    def wrap(attr: str, span: str):
        fn = getattr(cli, attr)

        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(span, args, result)
            return result

        return tracer.wrap(span, call)

    out = io.StringIO()
    replacements = {attr: wrap(attr, span) for attr, span in layers.items()}
    with _patched(cli, replacements), redirect_stdout(out):
        with tracer.span("cli.main"):
            code = cli.main(argv)
    return code, out.getvalue()


class BacktestWorkload:
    """``equidrift backtest`` on a synthetic panel written as CSV or in the
    industry text format."""

    engine_spans = ("backtest.rolling_backtest",)

    def __init__(
        self,
        name: str,
        fmt: str,
        n_assets: int,
        days: int,
        start: datetime.date,
        window: int = 1260,
        every: int = 20,
        method: str = "sym_sqrt",
        exposure: float = 1.0,
    ):
        self.name = name
        self.fmt = fmt
        self.n_assets = n_assets
        self.days = days
        self.start = start
        self.window = window
        self.every = every
        self.method = method
        self.exposure = exposure

    # -- inputs ----------------------------------------------------------------

    def setup(self, seed: int, workdir: Path) -> Inputs:
        workdir.mkdir(parents=True, exist_ok=True)
        returns = _synthetic_returns(seed, self.n_assets, self.days)
        dates = _weekdays(self.start, self.days)
        if self.fmt == "csv":
            files = {"returns": workdir / "returns.csv"}
            assets = [f"A{i + 1:02d}" for i in range(self.n_assets)]
            _write_csv(files["returns"], dates, assets, returns)
        else:
            files = {"returns": workdir / "industries.txt"}
            returns = self._write_french(files["returns"], seed, dates, returns)
        values = {"dates": dates, "returns": returns}
        if self.method == "rotate":
            files["target"] = workdir / "target.csv"
            values["target"] = rotation_target(returns.shape[1])
            with open(files["target"], "w", encoding="utf-8") as fh:
                fh.writelines(",".join(map(repr, row)) + "\n" for row in values["target"].tolist())
        return Inputs(seed=seed, files=files, values=values)

    def _write_french(self, path: Path, seed: int, dates, returns) -> np.ndarray:
        """Write percent returns to two decimals; returns the decimal values
        the loader will read for the assets the CLI keeps."""
        hundredths = np.rint(returns * 1e4).astype(np.int64)
        rng = np.random.default_rng([seed, 2])
        drop = FRENCH_ASSETS.index(FRENCH_DROP)
        hundredths[rng.random(self.days) < FRENCH_MISSING_SHARE, drop] = -9999
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("  Synthetic daily industry returns, equidrift benchmark\n\n")
            fh.write("  Average Value Weighted Returns -- Daily\n")
            fh.write("         " + " ".join(f"{a:>6}" for a in FRENCH_ASSETS) + "\n")
            fh.writelines(
                f"{d} " + " ".join(f"{k / 100:6.2f}" for k in row) + "\n"
                for d, row in zip(dates.tolist(), hundredths.tolist())
            )
            # A second block, as the real files have; the loader reads only the first.
            fh.write("\n  Average Equal Weighted Returns -- Daily\n")
            fh.write("         " + " ".join(f"{a:>6}" for a in FRENCH_ASSETS) + "\n")
            fh.write(f"{dates[0]} " + " ".join("  0.00" for _ in FRENCH_ASSETS) + "\n")
        kept = np.delete(hundredths, drop, axis=1)
        return kept / 100.0 / 100.0

    def reference(self, inputs: Inputs) -> oracle.BacktestReference:
        spec = oracle.BacktestSpec(
            window=self.window,
            every=self.every,
            method=self.method,
            exposure=self.exposure,
            rf_annual=RF_ANNUAL,
            excluded=(BLACK_MONDAY,),
            target=inputs.values.get("target"),
        )
        return oracle.backtest(inputs.values["dates"], inputs.values["returns"], spec)

    # -- CLI -------------------------------------------------------------------

    def cli_args(self, inputs: Inputs, outdir: Path) -> list[str]:
        argv = ["--out", str(outdir), "backtest", str(inputs.files["returns"])]
        if self.fmt == "french":
            argv += ["--format", "french", "--drop", FRENCH_DROP]
        if self.method != "sym_sqrt":
            argv += ["--method", self.method]
        if self.method == "rotate":
            argv += ["--target", str(inputs.files["target"])]
        if self.window != 1260:
            argv += ["--window", str(self.window)]
        if self.every != 20:
            argv += ["--every", str(self.every)]
        if self.exposure != 1.0:
            argv += ["--exposure", repr(self.exposure)]
        return argv

    def check_cli(self, inputs: Inputs, ref, outdir: Path, stdout: str) -> list[str]:
        try:
            weights = _read_csv_rows(outdir / "weights.csv")
            returns = _read_csv_rows(outdir / "returns.csv")
            summary = _read_csv_rows(outdir / "summary.csv", keys=True)
        except (OSError, ValueError) as exc:
            return [f"unreadable report: {exc}"]
        problems = oracle.compare_backtest(
            ref,
            rebalance_dates=weights[:, 0].astype(np.int64),
            weights=weights[:, 1:],
            dates=returns[:, 0].astype(np.int64),
            strategy=returns[:, 1],
            benchmark=returns[:, 2],
            summary=summary,
        )
        if f"rebalances: {ref.weights.shape[0]}\n" not in stdout:
            problems.append("stdout does not report the rebalance count")
        return problems

    # -- library ---------------------------------------------------------------

    def config(self, inputs: Inputs) -> BacktestConfig:
        target = None
        if self.method == "rotate":
            target = read_matrix_csv(inputs.files["target"])
        return BacktestConfig(
            window_days=self.window,
            reestimate_every=self.every,
            factorization=self.method,
            exposure=self.exposure,
            rotation_target=target,
        )

    def load(self, inputs: Inputs):
        if self.fmt == "csv":
            return load_csv(inputs.files["returns"])
        return load_french(inputs.files["returns"], drop_assets=[FRENCH_DROP])

    def engine(self, panel, config):
        return rolling_backtest(panel, config)

    def check_api(self, ref, report) -> list[str]:
        return oracle.compare_backtest(
            ref,
            rebalance_dates=report.rebalance_dates,
            weights=report.weight_history,
            dates=report.dates,
            strategy=report.strategy_returns,
            benchmark=report.benchmark_returns,
            summary={k: getattr(report, k) for k in oracle.SUMMARY_KEYS},
        )

    # -- traced ----------------------------------------------------------------

    def traced(self, tracer, inputs: Inputs, ref, outdir: Path) -> tuple[int, list[str], dict]:
        seen = {}
        code, stdout = traced_main(
            tracer,
            self.cli_args(inputs, outdir),
            {
                "load_csv": "data.load_csv",
                "load_french": "data.load_french",
                "rolling_backtest": "backtest.rolling_backtest",
            },
            lambda span, args, result: seen.__setitem__(span, (args, result)),
        )
        if code != 0:
            return code, [f"in-process cli.main exited {code}"], {}
        problems = self.check_cli(inputs, ref, outdir, stdout)
        (panel, config), report = seen["backtest.rolling_backtest"]

        window = tracer.wrap("backtest.estimation_window", estimation_window)
        covariance = tracer.wrap("backtest.estimate_covariance", estimate_covariance)
        solve = tracer.wrap("strategy.pi_star_fully_invested", pi_star_fully_invested)
        factor = self._traced_factor(tracer, config)
        replayed = []
        excluded = 0
        with tracer.span("replay"):
            for t in range(config.window_days, panel.n_dates, config.reestimate_every):
                with tracer.span("rebalance"):
                    sample = window(panel, t, config)
                    cov = covariance(sample, shrinkage=config.shrinkage)
                    replayed.append(solve(factor(cov), exposure=config.exposure).weights)
                excluded += sample.n_dates < config.window_days
            rf = config.rf_daily
            strat, bench = report.strategy_returns, report.benchmark_returns
            ratio = tracer.wrap("stats.sharpe", sharpe)
            ratio(strat, rf)
            ratio(bench, rf)
            tracer.wrap("stats.jobson_korkie_memmel", jobson_korkie_memmel)(strat - rf, bench - rf)

        history = report.weight_history
        if len(replayed) != len(history) or any(
            a.tobytes() != b.tobytes() for a, b in zip(replayed, history)
        ):
            problems.append("replayed public chain is not bitwise equal to the engine's weights")
        counts = {
            "data.rows": panel.n_dates,
            "data.bytes": inputs.files["returns"].stat().st_size,
            "backtest.rebalances": int(report.rebalance_dates.size),
            "backtest.excluded_windows": excluded,
        }
        return code, problems, counts

    @staticmethod
    def _traced_factor(tracer, config):
        if config.factorization == "sym_sqrt":
            return tracer.wrap("factorization.sym_sqrt", sym_sqrt)
        chol = tracer.wrap("factorization.cholesky", cholesky)
        if config.factorization == "cholesky":
            return chol
        rotate = tracer.wrap("factorization.procrustes_rotate", procrustes_rotate)
        return lambda cov: rotate(chol(cov), TargetMatrix(config.rotation_target))[0]


class WealthWorkload:
    """``equidrift simulate``: Monte Carlo of optimal terminal wealth."""

    engine_spans = ("simulate.simulate_paths", "simulate.replay_wealth")

    def __init__(self, name: str, n: int, paths: int, steps: int = 252,
                 lam: float = 0.1, mu: float = 0.2, r: float = 0.03, sigma_scale: float = 0.2):
        self.name = name
        self.n = n
        self.paths = paths
        self.steps = steps
        self.lam = lam
        self.mu = mu
        self.r = r
        self.sigma_scale = sigma_scale

    def setup(self, seed: int, workdir: Path) -> Inputs:
        """The workload's only input is its parameter set; it is written so
        that its hash is recorded like any other input file."""
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "simulate.json"
        spec = {
            "n": self.n, "lambda": self.lam, "mu": self.mu, "r": self.r,
            "sigma_scale": self.sigma_scale, "paths": self.paths,
            "steps": self.steps, "horizon": 1.0, "w0": 1.0, "seed": seed,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh, sort_keys=True)
        return Inputs(seed=seed, files={"params": path})

    def reference(self, inputs: Inputs) -> oracle.WealthReference:
        return oracle.wealth_moments(self.lam, self.mu, self.r, self.n, 1.0, 1.0, self.paths)

    def cli_args(self, inputs: Inputs, outdir: Path) -> list[str]:
        return [
            "--out", str(outdir), "simulate",
            "--n", str(self.n), "--lambda", repr(self.lam), "--mu", repr(self.mu),
            "--r", repr(self.r), "--paths", str(self.paths), "--steps", str(self.steps),
            "--seed", str(inputs.seed),
        ]

    def check_cli(self, inputs: Inputs, ref, outdir: Path, stdout: str) -> list[str]:
        mean = re.search(r"^mean: mc=(\S+) theory=(\S+) ", stdout, re.M)
        var = re.search(r"^variance: mc=(\S+) theory=(\S+)$", stdout, re.M)
        if not (mean and var):
            return ["stdout lacks the mean/variance lines"]
        problems = oracle.compare_wealth(ref, float(mean[1]), float(var[1]))
        for label, printed, want in (("mean", mean[2], ref.mean), ("variance", var[2], ref.variance)):
            if printed != f"{want:.8f}":
                problems.append(f"theory {label} printed {printed}, oracle {want:.8f}")
        return problems

    def config(self, inputs: Inputs):
        sigma = VolMatrix(self.sigma_scale * np.eye(self.n))
        params = ModelParams(sigma=sigma, mu=self.mu, r=self.r)
        return params, pi_star(sigma, (self.lam - self.r) / (self.mu - self.r)), inputs.seed

    def load(self, inputs: Inputs):
        return None

    def engine(self, _, config):
        params, policy, seed = config
        paths = simulate_paths(params, 1.0, self.steps, self.paths, seed)
        return replay_wealth(paths, policy, params, 1.0)

    def check_api(self, ref, wealth) -> list[str]:
        return oracle.compare_wealth(ref, float(wealth.mean()), float(wealth.var(ddof=1)))

    def traced(self, tracer, inputs: Inputs, ref, outdir: Path) -> tuple[int, list[str], dict]:
        counts = {}

        def observe(span, args, result):
            if span == "simulate.simulate_paths":
                counts["simulate.pathset_bytes"] = sum(
                    a.nbytes for a in (result.times, result.prices, result.driver_increments)
                )

        code, stdout = traced_main(
            tracer,
            self.cli_args(inputs, outdir),
            {"simulate_paths": "simulate.simulate_paths", "replay_wealth": "simulate.replay_wealth"},
            observe,
        )
        if code != 0:
            return code, [f"in-process cli.main exited {code}"], counts
        return code, self.check_cli(inputs, ref, outdir, stdout), counts


def rotation_target(n: int) -> np.ndarray:
    """Fixed rotation target: each asset loads on its own driver plus half as
    much on every earlier one, at 1% daily scale."""
    return 0.01 * (np.eye(n) + 0.5 * np.tril(np.ones((n, n)), -1))


def _write_csv(path: Path, dates, assets, returns) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date," + ",".join(assets) + "\n")
        fh.writelines(
            f"{d}," + ",".join(map(repr, row)) + "\n"
            for d, row in zip(dates.tolist(), returns.tolist())
        )


def _read_csv_rows(path: Path, keys: bool = False):
    """A report CSV as a float array, or (``keys``) its one row as a dict."""
    with open(path, "r", encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    values = [[float(cell) for cell in row.split(",")] for row in rows]
    if keys:
        if len(values) != 1:
            raise ValueError(f"{path.name} has {len(values)} value rows, expected 1")
        return dict(zip(header.split(","), values[0]))
    return np.array(values)


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline run: 47 industries, 1963-07-01 onward,
        # default config (sym_sqrt, window 1260, every 20, exposure 1).
        BacktestWorkload("backtest-csv47", "csv", 47, 11465, datetime.date(1963, 7, 1)),
        # Same layers, used differently: the industry text parser and the
        # drop path, Cholesky + Procrustes, daily re-estimation on 10 assets,
        # and a cash leg.
        BacktestWorkload(
            "backtest-french-daily", "french", 11, 5040, datetime.date(1983, 7, 1),
            every=1, method="rotate", exposure=0.8,
        ),
        # The only workload that reaches the simulator; 20k paths keeps the
        # peak near 1 GB (see NOTES.md).
        WealthWorkload("mc-wealth", n=5, paths=20000),
    )
}
