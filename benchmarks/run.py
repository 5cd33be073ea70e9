"""Benchmark of the drivenjc command line, run in-process.

    python3 benchmarks/run.py --workload closed_form --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  Each run draws its calls from `--seed`, makes one warm-up call,
then calls `drivenjc.cli.main` for whole cycles of the workload until about
`--seconds` have passed, and checks every call's output.  `--trace 0`
reports the end-to-end metrics; `--trace 1` runs each call untraced and
then traced, and reports per-layer metrics.  The last line of standard
output is one JSON object; the lines before it give each metric by name
with its unit.  `--workload all` runs every workload in turn.
"""

from __future__ import annotations

import os

#: Thread pins of the BLAS libraries, set before numpy loads: the baseline
#: is single-threaded, and BLAS threading on a small machine swamps any
#: change to the Lindblad right-hand side.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import SPAN_BUDGET, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
#: fresh interpreters started per run to time set-up; the median is reported
SETUP_REPEATS = 7
SETUP_CODE = "import drivenjc.cli as cli; cli.make_parser()"
#: the tail is the highest percentile with at least this many calls beyond it
TAIL_BEYOND = 10


def call_cli(cli, argv: list[str]):
    """(exit code or exception text, seconds, stdout) of one in-process call."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # the run goes on; the call counts as failed
        code = f"raised {type(exc).__name__}: {exc}"
    return code, time.perf_counter() - start, out.getvalue()


class Tally:
    """Latencies, rows and check outcomes of the calls of one pass."""

    def __init__(self):
        self.seconds: list[float] = []
        self.rows = 0
        self.failed = 0
        self.problems: list[str] = []
        self.verdict_fails = 0
        self.checked = 0
        self.log: list[dict] = []

    def add(self, call, code, seconds: float, text: str, rng) -> None:
        self.seconds.append(seconds)
        if isinstance(code, str):
            problems, fails, rows = [code], [], 0
        else:
            problems, fails, rows = checks.check(call, text, code, rng)
            self.checked += 1
        self.log.append({"argv": call.argv, "seconds": seconds, "code": code,
                         "rows": rows, "problems": problems, "fails": fails})
        self.rows += rows
        if problems or fails:
            self.failed += 1
        self.verdict_fails += bool(fails) and not problems
        self.problems += [f"{' '.join(call.argv)}: {p}" for p in problems]


def measure(cli, cycles, seconds: float, seed: int, tracer=None):
    """Run whole cycles until the next one would end further past `seconds`.

    With a `tracer`, every call runs twice in a row, untraced and then
    traced, so the tracing overhead is measured on the same calls at the
    same moment; the traced call is the one timed and checked.  A traced
    run also stops once it holds SPAN_BUDGET spans.
    Returns (tally, cycles run, untraced seconds inside calls).
    """
    check_rng = np.random.default_rng([seed, 1])
    tally = Tally()
    done = []
    untraced = 0.0
    cycle_times = []
    start = time.perf_counter()
    for calls in cycles:
        t0 = time.perf_counter()
        for call in calls:
            if tracer is not None:
                untraced += call_cli(cli, call.argv)[1]
                tracer.call_id = len(tally.seconds)
                tracer.install()
                try:
                    code, dt, text = call_cli(cli, call.argv)
                finally:
                    tracer.uninstall()
            else:
                code, dt, text = call_cli(cli, call.argv)
                untraced += dt
            tally.add(call, code, dt, text, check_rng)
        cycle_times.append(time.perf_counter() - t0)
        done.append(calls)
        if (time.perf_counter() - start
                + statistics.fmean(cycle_times) / 2 >= seconds
                or tracer is not None and len(tracer.start) >= SPAN_BUDGET):
            break
    return tally, done, untraced


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND calls above.

    Below 2 * TAIL_BEYOND calls that percentile would sit under the median,
    so the slowest call is reported instead, as percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE]
    # the first start compiles bytecode and fills the page cache
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ[var] for var in THREAD_PINS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from drivenjc import cli

    env = environment()
    print(f"# workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    outdir = str(OUT / f"figs-{workload}-{seed}")
    os.makedirs(outdir, exist_ok=True)
    code, _, _ = call_cli(cli, workloads.WARMUP[workload])
    if code != 0:
        raise SystemExit(f"warm-up call failed: {code}")
    source = workloads.cycles(workload, seed, outdir)

    if not trace:
        setup_s = measure_setup()
        tally, done, _ = measure(cli, source, seconds, seed)
        value, pct = tail(tally.seconds)
        metrics = {
            "setup_s": setup_s,
            "rows_per_s": tally.rows / sum(tally.seconds),
            "call_p50_ms": statistics.median(tally.seconds) * 1e3,
            "call_tail_ms": value * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        with open(OUT / f"calls-{workload}-seed{seed}.json", "w") as fh:
            json.dump(tally.log, fh, indent=0)
        print(f"# {len(tally.seconds)} calls in {len(done)} cycles; "
              f"call_tail_ms is p{pct:.4g} of {len(tally.seconds)} calls")
    else:
        tracer = Tracer()
        tally, done, untraced = measure(cli, source, seconds, seed, tracer)
        metrics = tracer.metrics(len(done), sum(tally.seconds) / untraced)
        path = OUT / f"trace-{workload}-seed{seed}.npz"
        tracer.dump(path, {"workload": workload, "seed": seed, "env": env,
                           "calls": [c.argv for cycle in done for c in cycle]})
        print(f"# {len(tally.seconds)} calls in {len(done)} cycles, traced; "
              f"per-layer figures are per cycle; spans in {path.relative_to(ROOT)}")

    attempted = len(tally.seconds)
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':45s} {tally.failed / attempted:.6g} ratio "
          f"({tally.failed} of {attempted} calls; {tally.verdict_fails} by a "
          f"verify FAIL verdict)")
    print(f"# checked {tally.checked} of {attempted} calls: "
          f"{len(tally.problems)} problems, {tally.verdict_fails} FAIL verdicts")
    for problem in tally.problems[:20]:
        print(f"# problem: {problem}")
    return {"correct": not tally.problems, "attempted": attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "drivenjc" / "cli.py").is_file():
        print(f"error: no drivenjc sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
