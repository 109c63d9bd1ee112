#!/usr/bin/env python3
"""equidrift benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload backtest-csv47 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the workload end to end. One client runs the
``equidrift`` CLI as a subprocess, waits for it to exit and checks its
output, then runs the same work through the library in process; this closed
loop repeats for ``--seconds``. ``--trace 1`` makes the separate traced
in-process run and reports per-layer numbers instead. Human-readable lines
come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Spans and the full
record of a run are written under ``.bench_out/``.

The package is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits with code 2.
"""

import os

#: BLAS threads for this process and every CLI child: fixed, and no larger
#: than the core count of any machine the benchmark targets.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

END_TO_END = {"wall_s": "s", "api_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

#: Spans whose total time is reported as ``<span>_s``.
TIMED_SPANS = (
    "data.load_csv",
    "data.load_french",
    "backtest.rolling_backtest",
    "backtest.estimation_window",
    "backtest.estimate_covariance",
    "factorization.sym_sqrt",
    "factorization.cholesky",
    "factorization.procrustes_rotate",
    "strategy.pi_star_fully_invested",
    "stats.sharpe",
    "stats.jobson_korkie_memmel",
    "simulate.simulate_paths",
    "simulate.replay_wealth",
)
#: The replayed per-rebalance chain; each also reports ``<span>_calls``.
CHAIN_SPANS = (
    "backtest.estimation_window",
    "backtest.estimate_covariance",
    "factorization.sym_sqrt",
    "factorization.cholesky",
    "factorization.procrustes_rotate",
    "strategy.pi_star_fully_invested",
)
STATS_SPANS = ("stats.sharpe", "stats.jobson_korkie_memmel")
LAYERS = ("cli", "data", "backtest", "factorization", "strategy", "stats", "simulate")

PER_LAYER = {
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "data.load_csv_s": "s",
    "data.load_french_s": "s",
    "data.rows": "count",
    "data.bytes": "bytes",
    "backtest.rolling_backtest_s": "s",
    "backtest.rebalances": "count",
    "backtest.excluded_windows": "count",
    "backtest.estimation_window_s": "s",
    "backtest.estimation_window_calls": "count",
    "backtest.estimate_covariance_s": "s",
    "backtest.estimate_covariance_calls": "count",
    "backtest.accounting_s": "s",
    "factorization.sym_sqrt_s": "s",
    "factorization.sym_sqrt_calls": "count",
    "factorization.cholesky_s": "s",
    "factorization.cholesky_calls": "count",
    "factorization.procrustes_rotate_s": "s",
    "factorization.procrustes_rotate_calls": "count",
    "strategy.pi_star_fully_invested_s": "s",
    "strategy.pi_star_fully_invested_calls": "count",
    "stats.sharpe_s": "s",
    "stats.jobson_korkie_memmel_s": "s",
    "simulate.simulate_paths_s": "s",
    "simulate.replay_wealth_s": "s",
    "simulate.pathset_bytes": "bytes",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_s": "s",
}

MIN_CALLS = 3
#: In-process calls before timing. The first calls in a process run slower
#: while the allocator grows its heap; every CLI child pays that cost anyway.
WARMUPS = 1
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 1000, 3.0
IMPORT_REPEATS = 5
MIN_TRACED = 2
CHILD_TIMEOUT_S = 150

CLI_ENTRY = "import sys; from equidrift.cli import main; sys.exit(main())"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import equidrift.cli; "
    "print(repr(time.perf_counter() - t))"
)
NO_QUEUE = (
    "queueing: nothing in equidrift waits on a queue (one process, no pool, "
    "no server), so no waiting time is reported"
)


class Tally:
    """Operations attempted and failed; every failed check counts once."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_child(argv: list[str], stdout_path: Path, stderr_path: Path) -> tuple[float, float, int]:
    """Run one process to exit: (wall seconds from spawn, peak RSS MB, exit code).

    Peak RSS is the child's own, from ``wait4``. ``RUSAGE_CHILDREN`` is a
    running maximum over every child ever waited for, so it would carry one
    workload's peak into every later call.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _tail(path: Path) -> str:
    text = path.read_text(encoding="utf-8", errors="replace").strip()
    return text.splitlines()[-1] if text else "(no stderr)"


def attempt(tally: Tally, what: str, fn) -> None:
    """Record ``fn()``'s problems, or the exception it raised, as one operation."""
    try:
        problems = fn()
    except Exception as exc:  # a failed operation is counted, not fatal
        problems = [f"raised {type(exc).__name__}: {exc}"]
    tally.check(what, problems)


def measure_end_to_end(workload, seed: int, seconds: float, workdir: Path, tally: Tally) -> dict:
    from workloads import digest_outputs

    setups, hashes = [], []
    setup_end = time.perf_counter() + SETUP_BUDGET_S
    while len(setups) < SETUP_MIN or (time.perf_counter() < setup_end and len(setups) < SETUP_MAX):
        start = time.perf_counter()
        inputs = workload.setup(seed, workdir / "inputs")
        setups.append(time.perf_counter() - start)
        hashes.append(inputs.hashes)
    tally.check("setup", [] if all(h == hashes[0] for h in hashes) else ["same seed regenerated different inputs"])

    ref = workload.reference(inputs)
    config = workload.config(inputs)
    outdir = workdir / "cli-out"
    walls, peaks, apis = [], [], []
    digests = []

    def cli_call():
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        argv = [sys.executable, "-c", CLI_ENTRY, *workload.cli_args(inputs, outdir)]
        wall, peak, code = run_child(argv, workdir / "stdout.txt", workdir / "stderr.txt")
        walls.append(wall)
        peaks.append(peak)
        if code != 0:
            return [f"exit code {code}: {_tail(workdir / 'stderr.txt')}"]
        stdout = (workdir / "stdout.txt").read_text(encoding="utf-8")
        problems = workload.check_cli(inputs, ref, outdir, stdout)
        digests.append(digest_outputs(outdir, stdout))
        if digests[-1] != digests[0]:
            problems.append("output is not byte-identical to the first same-seed call")
        return problems

    def api_call(samples):
        start = time.perf_counter()
        try:
            result = workload.engine(workload.load(inputs), config)
        finally:
            samples.append(time.perf_counter() - start)
        return workload.check_api(ref, result)

    for _ in range(WARMUPS):
        attempt(tally, "api warm-up", lambda: api_call([]))
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_CALLS or time.perf_counter() < deadline:
        attempt(tally, f"cli call {len(walls) + 1}", cli_call)
        attempt(tally, f"api call {len(apis) + 1}", lambda: api_call(apis))

    return {
        "metrics": {
            "wall_s": statistics.median(walls),
            "api_s": statistics.median(apis),
            "peak_rss_mb": statistics.median(peaks),
            "setup_s": statistics.median(setups),
        },
        "samples": {"wall_s": walls, "api_s": apis, "peak_rss_mb": peaks, "setup_s": setups},
        "inputs_sha256": hashes[0],
    }


def layer_row(tot: dict, counts: dict, engine_spans, untraced_s: float) -> dict:
    """Per-layer numbers of one traced iteration."""

    def total(name):
        return tot[name]["total_s"] if name in tot else 0.0

    row = {
        "cli.main_s": total("cli.main"),
        "cli.self_s": tot["cli.main"]["self_s"] if "cli.main" in tot else 0.0,
    }
    for name in TIMED_SPANS:
        row[f"{name}_s"] = total(name)
    for name in CHAIN_SPANS:
        row[f"{name}_calls"] = int(tot[name]["calls"]) if name in tot else 0
    row["backtest.accounting_s"] = (
        total("backtest.rolling_backtest")
        - sum(total(n) for n in CHAIN_SPANS)
        - sum(total(n) for n in STATS_SPANS)
        if "backtest.rolling_backtest" in tot
        else 0.0
    )
    row["trace.overhead_s"] = sum(total(n) for n in engine_spans) - untraced_s
    for name in ("data.rows", "data.bytes", "backtest.rebalances", "backtest.excluded_windows",
                 "simulate.pathset_bytes"):
        row[name] = counts.get(name, 0)
    return row


def measure_layers(workload, seed: int, seconds: float, workdir: Path, tally: Tally) -> dict:
    from tracing import Tracer, totals

    inputs = workload.setup(seed, workdir / "inputs")
    ref = workload.reference(inputs)
    config = workload.config(inputs)

    imports = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode == 0:
            imports.append(float(proc.stdout))
        tally.check("import", [] if proc.returncode == 0 else [proc.stderr.strip()[-200:]])

    loaded = workload.load(inputs)
    untraced = []

    def engine_call():
        start = time.perf_counter()
        try:
            result = workload.engine(loaded, config)
        finally:
            untraced.append(time.perf_counter() - start)
        return workload.check_api(ref, result)

    for _ in range(WARMUPS):
        attempt(tally, "engine warm-up", engine_call)

    tracer = Tracer()
    rows = []
    exit_codes = []
    outdir = workdir / "traced-out"
    deadline = time.perf_counter() + seconds
    while len(rows) < MIN_TRACED or time.perf_counter() < deadline:
        tracer.run = len(rows)
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        counts = {}

        def traced_call():
            with tracer.span("run"):
                code, problems, found = workload.traced(tracer, inputs, ref, outdir)
            exit_codes.append(code)
            counts.update(found)
            return problems

        attempt(tally, f"traced run {tracer.run}", traced_call)
        attempt(tally, f"untraced engine {tracer.run}", engine_call)
        rows.append(layer_row(totals(tracer.spans, tracer.run), counts, workload.engine_spans, untraced[-1]))

    metrics = {"cli.import_s": statistics.median(imports) if imports else 0.0}
    for name in rows[0]:
        value = statistics.median(row[name] for row in rows)
        metrics[name] = int(round(value)) if PER_LAYER[name] in ("count", "bytes") else value
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = tracer.errors.get(layer, 0) + (sum(c != 0 for c in exit_codes) if layer == "cli" else 0)

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-s{seed}.json"
    tracer.write(spans_path)
    return {
        "metrics": {name: metrics[name] for name in PER_LAYER},
        "samples": {"iterations": rows, "cli.import_s": imports},
        "spans": totals(tracer.spans, tracer.run),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "inputs_sha256": inputs.hashes,
    }


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(workload_name: str, seed: int, hashes: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "workload": workload_name,
        "seed": seed,
        "inputs_sha256": hashes,
    }


def _tail_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"median of {n}; tail: max {max(samples):.4f} (fewer than 11 samples, no percentile has 10 beyond it)"
    ordered = sorted(samples)
    return f"median of {n}; tail: p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.4f} ({n} samples)"


def run_workload(workload, seed: int, seconds: float, trace: int, workdir: Path) -> tuple[dict, list[str]]:
    """One benchmark run: (record, human-readable lines). ``record["result"]``
    is the contract object printed as the last line."""
    tally = Tally()
    if trace:
        measured = measure_layers(workload, seed, seconds, workdir, tally)
        units = PER_LAYER
    else:
        measured = measure_end_to_end(workload, seed, seconds, workdir, tally)
        units = END_TO_END
    prov = provenance(workload.name, seed, measured["inputs_sha256"])
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": measured["metrics"][name], "unit": unit} for name, unit in units.items()},
    }

    lines = [
        f"equidrift benchmark: workload={workload.name} seed={seed} seconds={seconds} trace={trace}",
        "provenance: " + json.dumps(prov, sort_keys=True),
    ]
    if trace:
        lines.append("traced in-process run; counts are exact, times are medians over iterations")
        lines += [f"  {name:<40} {result['metrics'][name]['value']!r:>24} {unit}" for name, unit in units.items()]
        lines.append("self time per span (last iteration): name, calls, total s, self s")
        for name, row in sorted(measured["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"  {name:<40} {int(row['calls']):>6} {row['total_s']:12.6f} {row['self_s']:12.6f}")
        lines.append(
            "tracing overhead: trace.overhead_s = traced engine span minus untraced engine time; "
            "the replayed chain runs outside the engine span; "
            "simulate.pathset_bytes is computed from the returned arrays' nbytes"
        )
        lines.append(f"spans written to {measured['spans_file']}")
    else:
        lines.append("closed loop: 1 client; each CLI call starts after the previous one exits and is checked")
        notes = {name: _tail_note(measured["samples"][name]) for name in ("wall_s", "api_s")}
        notes["peak_rss_mb"] = f"median over {len(measured['samples']['peak_rss_mb'])} CLI children (wait4)"
        notes["setup_s"] = f"median of {len(measured['samples']['setup_s'])} regenerations"
        for name, unit in units.items():
            lines.append(f"  {name:<14} {result['metrics'][name]['value']:>12.6f} {unit:<6} {notes[name]}")
        lines.append(
            f"  {'error_rate':<14} {tally.error_rate:>12.6f} {'ratio':<6} "
            f"{tally.failed} failed of {tally.attempted} attempted"
        )
    lines.append(NO_QUEUE)
    lines += [f"FAILED {p}" for p in tally.problems[:20]]
    record = {
        "result": result,
        "provenance": prov,
        "samples": measured["samples"],
        "error_rate": tally.error_rate,
        "problems": tally.problems,
    }
    return record, lines


def load_workloads() -> dict:
    """The workload table, importing equidrift from this checkout's ``src/``."""
    if not (SRC / "equidrift" / "cli.py").is_file():
        raise RuntimeError(f"{SRC / 'equidrift'} is missing; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import equidrift

    if Path(equidrift.__file__).resolve().parent != SRC / "equidrift":
        raise RuntimeError(f"imported equidrift from {equidrift.__file__}, not {SRC}")
    from workloads import WORKLOADS

    return WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    try:
        workloads = load_workloads()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {sorted(workloads)}")

    workdir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        record, lines = run_workload(workloads[args.workload], args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-s{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
