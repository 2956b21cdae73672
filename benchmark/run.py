"""Benchmark of surfgrow: one workload, one seed, one JSON result line.

Run from the root of a source checkout::

    python3 benchmark/run.py --workload accrete --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: set-up time
(median over fresh interpreters), the time per operation over ``--seconds``
read against the host-speed gauge (``gauge.py``), the tracemalloc peak of
one operation, the oracle error and the share of operations whose outputs
passed their checks.  ``--trace 1`` is a separate run that times half of
``--seconds`` of plain operations and half of operations with every layer
wrapped (see ``tracing.py``) and reports the per-layer metrics with the
tracing overhead.

``op_ref_s`` is the median over the run's operations of each operation's
time in units of the gauge's reference slice, timed during that operation,
scaled to a host on which the slice takes 1 ms.  On a shared host other
tenants slow the machine by up to 2x for minutes at a time; the wall time
moves with them, the ratio much less.  The wall times, their median,
quartiles and count are printed in the ``detail`` line.

Every operation's outputs are checked (``workloads.check``).  Each run also
feeds corrupted copies of one operation's outputs to the same checks and
reports ``correct: false`` unless every corruption is caught.  The last line
of standard output is the result object; the lines before it record the
environment and details such as the quartiles and sample count of the
operation time.  The process runs single-threaded: BLAS and OpenMP pools are
pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 5  # before and again after the timed operations
MIN_TIMED_OPS = 3
MIN_TRACED_OPS = 2
PROBE_TIMEOUT_S = 60

BENCH_DIR = Path(__file__).resolve().parent

# Set-up as a user pays it: a fresh interpreter imports surfgrow and the
# inputs are generated.  Interpreter start-up itself is not counted.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import surfgrow
import workloads
workloads.make_inputs(sys.argv[3], int(sys.argv[4]))
print(repr(time.perf_counter() - start))
"""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    caches = {name[3:].lower(): os.sysconf(name)
              for name in ("SC_LEVEL1_DCACHE_SIZE", "SC_LEVEL2_CACHE_SIZE",
                           "SC_LEVEL3_CACHE_SIZE") if name in os.sysconf_names}
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "cache_bytes": caches, "platform": platform.platform(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def _measure_setup(root: Path, workload: str, seed: int, count: int) -> list[float]:
    cmd = [sys.executable, "-c", SETUP_PROBE, str(root / "src"), str(BENCH_DIR),
           workload, str(seed)]
    samples = []
    for _ in range(count):
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


class Runner:
    """Runs and checks operations of one workload; tallies the outcomes."""

    def __init__(self, workloads, inputs, scratch: Path):
        self.wl = workloads
        self.inputs = inputs
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.accuracy = None
        self.self_test_ok = None

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"operation {self.attempted} failed: {message}", file=sys.stderr)

    def attempt(self, memory: bool = False, self_test: bool = False, gauge=None):
        """One operation; returns (seconds, tracemalloc peak bytes or None).

        With a ``gauge`` the host-speed gauge samples during the operation
        only, and its slices are left in ``gauge.slices``.
        """
        work = Path(tempfile.mkdtemp(dir=self.scratch))
        self.attempted += 1
        peak = None
        try:
            if memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                with gauge or contextlib.nullcontext():
                    produced = self.wl.run_op(self.inputs, work)
            except Exception:  # a raising operation is a failed operation
                self._fail(traceback.format_exc())
                return time.perf_counter() - start, None
            finally:
                elapsed = time.perf_counter() - start
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            obs = self.wl.observe(self.inputs, produced, work)
            problems = self.wl.check(self.inputs, obs, self.reference)
            if self.accuracy is None:
                self.accuracy = self.wl.accuracy(self.inputs, obs)
            if problems:
                self._fail("; ".join(problems))
            elif self.reference is None:
                self.reference = self.wl.reference_files(obs)
            if self_test:
                self.self_test_ok = self._self_test(produced, work)
            return elapsed, peak
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _self_test(self, produced, work) -> bool:
        """Every corrupted copy of a correct operation must be counted failed."""
        caught = total = 0
        for obs in self.wl.corruptions(self.inputs, produced, work):
            total += 1
            caught += bool(self.wl.check(self.inputs, obs, self.reference))
        return total > 0 and caught == total

    def timed(self, seconds: float, min_ops: int) -> list[float]:
        times = []
        start = time.perf_counter()
        while len(times) < min_ops or time.perf_counter() - start < seconds:
            times.append(self.attempt()[0])
        return times

    def gauged(self, gauge_mod, seconds: float, min_ops: int) -> list:
        """Operations timed with the host-speed gauge: a list of GaugedTime."""
        gauge = gauge_mod.SpeedGauge()
        times = []
        start = time.perf_counter()
        while len(times) < min_ops or time.perf_counter() - start < seconds:
            wall, _ = self.attempt(gauge=gauge)
            times.append(gauge_mod.gauged(wall, gauge.slices))
        return times


def _end_to_end(root, runner, args) -> tuple[dict, dict]:
    import gauge
    # The first probe fills the bytecode cache and is discarded.
    setup = _measure_setup(root, args.workload, args.seed, SETUP_SAMPLES + 1)[1:]
    _, peak = runner.attempt(memory=True, self_test=True)
    for _ in range(10):
        gauge.reference_slice()
    ops = runner.gauged(gauge, args.seconds, MIN_TIMED_OPS)
    setup += _measure_setup(root, args.workload, args.seed, SETUP_SAMPLES)
    # With no observable output the error reads 1.0, far above any limit.
    acc = runner.accuracy or {"err_linf": 1.0, "err_linf_raw": 1.0}
    times = [op.wall_s for op in ops]
    ref = [op.ref_s for op in ops]
    metrics = {
        "setup_s": statistics.median(setup),
        "op_ref_s": statistics.median(ref),
        "peak_mem_mb": (peak or 0) / 1e6,
        "err_linf": acc["err_linf"],
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
    }
    details = {"setup_s_samples": setup, "op_s_samples": times,
               "op_s_median": statistics.median(times),
               "op_s_quartiles": statistics.quantiles(times, n=4),
               "op_ref_s_samples": ref, "op_ref_s_quartiles": statistics.quantiles(ref, n=4),
               "op_samples": len(times),
               "gauge_slice_s_median": statistics.median(op.slice_s for op in ops),
               "gauge_slices_per_op": statistics.median(op.slices for op in ops),
               "gauge_share": sum(t - op.net_s for t, op in zip(times, ops)) / sum(times),
               "err_linf_raw": acc["err_linf_raw"],
               "fail_frac": runner.failed / runner.attempted}
    return metrics, details


def _per_layer(tracing, runner, args) -> tuple[dict, dict, list[str]]:
    runner.attempt(self_test=True)
    plain = runner.timed(args.seconds / 2, MIN_TRACED_OPS)
    trace = tracing.LayerTrace()
    traced, per_op = [], []
    start = time.perf_counter()
    with trace:
        while len(per_op) < MIN_TRACED_OPS or time.perf_counter() - start < args.seconds / 2:
            trace.reset()
            elapsed, _ = runner.attempt()
            traced.append(elapsed)
            per_op.append(trace.op_metrics(elapsed))
    problems = []
    if not trace.restored():
        problems.append("traced functions were not restored")
    unsteady = tracing.counts_repeat(per_op)
    if unsteady:
        problems.append(f"counts differ between traced operations: {unsteady}")
    metrics = tracing.median_metrics(per_op)
    metrics["trace.overhead"] = min(traced) / min(plain) - 1.0
    acc = runner.accuracy or {"pathline_gap": 1.0, "sweep_excess_dex": 1.0}
    metrics["scenarios.pathline_gap"] = acc["pathline_gap"]
    metrics["scenarios.sweep_excess_dex"] = acc["sweep_excess_dex"]
    details = {"plain_op_s": min(plain), "traced_op_s": min(traced),
               "traced_samples": len(traced), "missing_spans": trace.missing}
    return metrics, details, problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "surfgrow" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a surfgrow source checkout "
              "(src/surfgrow and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    import surfgrow
    import workloads
    if Path(surfgrow.__file__).resolve().parent != (root / "src" / "surfgrow").resolve():
        print(f"error: imported surfgrow from {surfgrow.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    inputs = workloads.make_inputs(args.workload, args.seed)
    (root / ".bench_work").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=root / ".bench_work"))
    runner = Runner(workloads, inputs, scratch)
    problems = []
    try:
        if args.trace:
            import tracing
            metrics, details, problems = _per_layer(tracing, runner, args)
        else:
            metrics, details = _end_to_end(root, runner, args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not runner.self_test_ok:
        problems.append("self-test: a corrupted output passed the checks")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    details.update(workload=args.workload, seed=args.seed, alpha=inputs.alpha,
                   attempted=runner.attempted, self_test_ok=runner.self_test_ok)
    print("env " + json.dumps(_environment(), sort_keys=True))
    print("detail " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
