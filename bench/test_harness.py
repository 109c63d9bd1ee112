"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root:

    python3 -m pytest -q bench/test_harness.py

It checks that every metric in BENCHMARK.json is produced and printed by
name with its unit, that a corrupted stored weight or summary value fails the
output check and raises the error rate, and that span self time is computed
correctly on a hand-built tree.
"""

import datetime
import json
import os
import shutil
import sys

import pytest

import run

WORKLOADS = run.load_workloads()

from oracle import SUMMARY_KEYS  # noqa: E402
from tracing import Span, Tracer, self_times, totals  # noqa: E402
from workloads import BacktestWorkload, WealthWorkload  # noqa: E402

TINY = (
    BacktestWorkload("tiny-csv", "csv", 5, 400, datetime.date(1987, 1, 5), window=100, every=20),
    BacktestWorkload(
        "tiny-french", "french", 11, 300, datetime.date(1987, 6, 1),
        window=100, every=1, method="rotate", exposure=0.8,
    ),
    WealthWorkload("tiny-mc", n=3, paths=200, steps=20),
)


@pytest.fixture
def workdir():
    path = run.WORK / f"selftest-{os.getpid()}"
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_real_workloads_are_the_documented_three():
    assert sorted(WORKLOADS) == ["backtest-csv47", "backtest-french-daily", "mc-wealth"]
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        contract = json.load(fh)
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_every_metric_prints_with_its_unit(workload, trace, workdir):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        contract = json.load(fh)
    wanted = {m["name"]: m["unit"] for m in contract["per_layer" if trace else "end_to_end"]}

    record, lines = run.run_workload(workload, seed=3, seconds=0, trace=trace, workdir=workdir)

    result = record["result"]
    assert result["correct"] and result["failed"] == 0, record["problems"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(name in line.split() and unit in line.split() for line in lines), name
    json.dumps(result, allow_nan=False)


def test_traced_counts_match_rebalances(workdir):
    record, _ = run.run_workload(TINY[1], seed=3, seconds=0, trace=1, workdir=workdir)
    metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
    assert metrics["backtest.rebalances"] == 200
    for name in ("backtest.estimation_window", "factorization.cholesky",
                 "factorization.procrustes_rotate", "strategy.pi_star_fully_invested"):
        assert metrics[f"{name}_calls"] == 200
    assert metrics["factorization.sym_sqrt_calls"] == 0
    assert 0 < metrics["backtest.excluded_windows"] < 200


def _cli_call(workload, workdir):
    inputs = workload.setup(3, workdir / "inputs")
    outdir = workdir / "out"
    outdir.mkdir(parents=True)
    argv = [sys.executable, "-c", run.CLI_ENTRY, *workload.cli_args(inputs, outdir)]
    _, _, code = run.run_child(argv, workdir / "stdout.txt", workdir / "stderr.txt")
    assert code == 0, (workdir / "stderr.txt").read_text()
    stdout = (workdir / "stdout.txt").read_text()
    return inputs, workload.reference(inputs), outdir, stdout


def _perturb_cell(path, row, col):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * (1 + 1e-6))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "file, row, col",
    [("weights.csv", 3, 2), ("summary.csv", 1, SUMMARY_KEYS.index("jk_z"))],
)
def test_corrupted_output_fails_the_check(file, row, col, workdir):
    workload = TINY[0]
    inputs, ref, outdir, stdout = _cli_call(workload, workdir)
    tally = run.Tally()
    tally.check("clean", workload.check_cli(inputs, ref, outdir, stdout))
    assert tally.error_rate == 0.0, tally.problems

    _perturb_cell(outdir / file, row, col)
    tally.check("corrupted", workload.check_cli(inputs, ref, outdir, stdout))
    assert tally.failed == 1 and tally.error_rate == 0.5


def test_same_seed_regenerates_identical_inputs(workdir):
    for workload in TINY:
        first = workload.setup(5, workdir / workload.name).hashes
        assert workload.setup(5, workdir / workload.name).hashes == first
        assert workload.setup(6, workdir / workload.name).hashes != first


def test_self_time_on_hand_built_tree():
    spans = [
        Span("run", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 3.5, 6.0, 0, 0),  # overlaps a: the union counts once
        Span("c", 8.0, 12.0, 0, 0),  # runs past its parent: clipped
        Span("d", 20.0, 21.0, None, 1),
    ]
    assert self_times(spans) == [10.0 - 7.0, 2.0, 1.0, 2.5, 4.0, 1.0]
    assert totals(spans, 0)["run"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert "d" not in totals(spans, 0)


def test_tracer_counts_an_error_once_in_its_innermost_layer():
    tracer = Tracer()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        with tracer.span("cli.main"):
            tracer.wrap("data.load_csv", fail)()
    assert dict(tracer.errors) == {"data": 1}
    assert [s.name for s in tracer.spans] == ["cli.main", "data.load_csv"]
