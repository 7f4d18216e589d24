"""uavirs benchmark: drive the public CLI in-process on seeded workloads.

usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --workload all [--seed N] [--seconds S]

One run generates the workload's scenario files from --seed, then solves them
through uavirs.cli.main in this one process, in whole passes over the
instances, until --seconds have passed. An untraced run also makes at least
two passes, so every instance is re-solved and the re-solves must reproduce
its CSV byte for byte. Every solve is checked outside the timed region
(bench/checks.py) and a failed check counts as a failed operation. Times are
reported in reference seconds, rescaled by a kernel timed next to each solve
(bench/hostspeed.py), because the host's CPU speed drifts.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced solves of the same instances and reports the per-layer metrics of the
traced ones (bench/layertrace.py). --workload all runs every workload in both
modes, one after another, and prints every metric with its unit.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import instances

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 7
MIN_PASSES = 2  # untraced runs re-solve every instance for the byte-identity check


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; returns that count."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        os.environ[var] = str(min(current, nproc) if current > 0 else nproc)
    return nproc


def src_lines() -> int:
    """Non-blank lines of Python under src/uavirs/."""
    return sum(
        1
        for path in sorted((SRC / "uavirs").rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(args, nproc: int) -> dict:
    import numpy
    import scipy

    try:
        from scipy.optimize._highspy import _core

        highs = (
            f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}."
            f"{_core.HIGHS_VERSION_PATCH}"
        )
    except (ImportError, AttributeError):
        highs = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": highs,
        "platform": platform.platform(),
        "nproc": nproc,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "src_lines": src_lines(),
    }


def measure_setup(workload: str, seed: int, work: Path, probes: range, clock) -> list:
    """Set-up from fresh interpreters, one after another: (wall seconds, start, end)."""
    setups = []
    for i in probes:
        clock.sample()
        clock.sample()
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed),
             str(work / f"setup{i}")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        end = time.perf_counter()
        clock.sample()
        clock.sample()
        setups.append((float(done.stdout.split()[-1]), start, end))
    return setups


class Solver:
    """Solves instances through the CLI and checks every result."""

    def __init__(self, command: str, out_dir: Path, clock):
        import uavirs.cli

        from checks import check_solve, output_paths

        self.cli = uavirs.cli
        self.check_solve = check_solve
        self.output_paths = output_paths
        self.command = command
        self.out_dir = out_dir
        self.clock = clock
        self.tables = {}  # instance -> CSV bytes of its first solve
        self.summaries = {}  # instance -> summary of its first solve
        self.attempted = 0
        self.failed = 0

    def solve(self, path: Path) -> tuple:
        """One timed CLI solve, then its checks; returns (start, end, paused) seconds."""
        rc, start, end, paused = self.clock.timed(
            lambda: self.cli.main([self.command, str(path), "--out", str(self.out_dir), "--quiet"])
        )
        self.attempted += 1
        first = self.tables.get(path)
        if first is None:
            problems, table, summary = self.check_solve(self.command, path, self.out_dir, rc)
            self.tables[path], self.summaries[path] = table, summary
        else:
            problems = [] if rc == 0 else [f"exit code {rc}"]
            table_path, _ = self.output_paths(self.out_dir, path, self.command)
            if table_path.read_bytes() != first:
                problems.append("CSV differs from the first solve of this instance")
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {path.name}: {problem}", file=sys.stderr)
        return start, end, paused

    def mean_min_rate(self) -> float:
        """Mean reported min rate over the checked instances (bps/Hz)."""
        rates = [
            s["achieved_min_rate_bps_hz"] if self.command == "trajopt"
            else s["strategies"]["hybrid"]["min_rate_bps_hz"]
            for s in self.summaries.values()
            if s is not None
        ]
        return statistics.fmean(rates) if rates else 0.0


def passes(paths, seconds: float, min_passes: int):
    """Yield instances in whole passes until time is up and min_passes are done."""
    started = time.perf_counter()
    done = 0
    while done < min_passes or time.perf_counter() - started < seconds:
        yield from paths
        done += 1


def describe(samples) -> str:
    q = statistics.quantiles(samples, n=10) if len(samples) >= 2 else samples
    return (
        f"n={len(samples)} min={min(samples):.6f} median={statistics.median(samples):.6f} "
        f"p90={q[-1]:.6f} max={max(samples):.6f}"
    )


def solve_seconds(times: dict, clock) -> float:
    """Mean over instances of each instance's median solve, in reference seconds.

    The host's CPU speed drifts by up to 1.8x over seconds to minutes, so each
    solve's wall time is rescaled by the reference kernel timed next to it
    (bench/hostspeed.py) before the median is taken. The mean spans instances
    of different sizes, such as the deploy budgets, evenly.
    """
    return statistics.fmean(
        statistics.median(clock.reference_seconds(*solve) for solve in solves)
        for solves in times.values()
    )


def wall_seconds(times: dict) -> list:
    return [end - start - paused for solves in times.values() for start, end, paused in solves]


def run_untraced(args, solver: Solver, paths, work: Path) -> dict:
    clock = solver.clock
    # Set-up probes before and after the solves, so their median spans the run.
    before = SETUP_PROBES // 2 + 1
    setups = measure_setup(args.workload, args.seed, work, range(before), clock)
    times = {}  # instance -> (start, end, paused) of each of its solves
    for path in passes(paths, args.seconds, MIN_PASSES):
        times.setdefault(path, []).append(solver.solve(path))
    setups += measure_setup(args.workload, args.seed, work, range(before, SETUP_PROBES), clock)
    setup = [seconds * clock.speed_factor(start, end) for seconds, start, end in setups]
    print(f"solve wall seconds: {describe(wall_seconds(times))}")
    print(f"solve reference seconds: "
          f"{describe([clock.reference_seconds(*t) for ts in times.values() for t in ts])}")
    print(f"setup wall seconds: {describe([seconds for seconds, _, _ in setups])}")
    print(f"setup reference seconds: {describe(setup)}")
    print(f"reference kernel seconds: {describe([s for _, s in clock.samples])}")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "solve_s": (solve_seconds(times, clock), "s"),
        "min_rate_bps_hz": (solver.mean_min_rate(), "bps/Hz"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def run_traced(args, solver: Solver, paths) -> dict:
    from layertrace import LayerTrace

    trace = LayerTrace()
    plain, traced = {}, {}  # instance -> (start, end, paused) of each solve, without and with trace
    for i, path in enumerate(passes(paths, args.seconds, 1)):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                plain.setdefault(path, []).append(solver.solve(path))
                continue
            trace.install()
            try:
                traced.setdefault(path, []).append(solver.solve(path))
            finally:
                trace.uninstall()
    print(f"untraced solve wall seconds: {describe(wall_seconds(plain))}")
    print(f"traced solve wall seconds:   {describe(wall_seconds(traced))}")
    print("traced functions, per run:")
    print("\n".join(trace.table()))
    metrics = trace.metrics(sum(len(ts) for ts in traced.values()))
    metrics["trace.overhead_ratio"] = (
        solve_seconds(traced, solver.clock) / solve_seconds(plain, solver.clock), "ratio"
    )
    metrics["src_lines"] = (src_lines(), "count")
    return metrics


def run_one(args) -> int:
    if not (SRC / "uavirs" / "__init__.py").is_file():
        print(f"error: no uavirs sources under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path.insert(0, str(SRC))
    command, _ = instances.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        paths = instances.generate(ROOT, args.workload, args.seed, work / "instances")
        from hostspeed import HostClock

        # The trace times layers itself, so traced runs take no samples inside a solve.
        solver = Solver(command, work / "out", HostClock(timer=not args.trace))
        if args.trace:
            metrics = run_traced(args, solver, paths)
        else:
            metrics = run_untraced(args, solver, paths, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload={args.workload} seed={args.seed} instances={len(paths)} "
          f"fail_frac={solver.failed}/{solver.attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value!r} {unit}")
    print("provenance " + json.dumps(provenance(args, nproc), sort_keys=True))
    result = {
        "correct": solver.failed == 0,
        "attempted": solver.attempted,
        "failed": solver.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload with trace 0 and 1; non-zero exit if any run fails a check."""
    ok = True
    for workload in instances.WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True,
            )
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            ok &= done.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    print("all checks passed" if ok else "some runs FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*instances.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
