#!/usr/bin/env python3
"""Benchmark for the substream package.

    python3 perfbench/run.py --workload graph-nis --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, untraced

One workload runs in this process, set up several times and then passed
over until ``--seconds`` have gone by.  The last line of standard output
is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced pass with ``--trace 1``.  ``--workload all`` runs each
workload in a fresh process of its own and prints every metric with its
unit.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# Before numpy loads: OpenBLAS would otherwise start one thread per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

try:
    import numpy as np
    import substream
    from scipy.special import betainc
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the package from {ROOT / 'src'}: {exc}")
if not Path(substream.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"perfbench: substream was imported from {substream.__file__}, "
             f"not from {ROOT / 'src'}")

import tracing
from workloads import WORKLOADS, Clock

MIN_PASSES = 3
MIN_CELLS = 100          # a p90 needs ten samples beyond it
MIN_SETUPS = 3
MAX_SETUPS = 9
SETUP_BUDGET_S = 2.0     # stop repeating the set-up past this total
TRACE_MIN_PLAIN = 2      # untraced passes in a traced run, for the overhead
HARD_STOP_S = 150.0      # the run must end well inside 180 s

DEFAULT_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def environment(seed: int) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "seed": seed}


def hd_quantile(xs, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of
    every order statistic.  Cell times cluster by algorithm, and the one
    or two samples a plain percentile picks can sit on either side of a
    gap between clusters; the weighted mean moves smoothly instead."""
    x = np.sort(np.asarray(xs, dtype=float))
    n = len(x)
    edges = betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def digest(rows) -> str:
    """Hash of the first pass's deterministic columns, for information:
    a later change that alters any output shows up as a new digest."""
    lines = [",".join(map(repr, (*r.key, r.value, r.oracle_calls, r.peak)))
             for r in sorted(rows, key=lambda r: repr(r.key))]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


class Run:
    """One workload, one seed: set-up, passes, checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, scale: str,
                 workdir: Path):
        self.w = WORKLOADS[workload](seed, scale, workdir)
        self.seconds = seconds
        self.passes: list[list] = []
        self.setup_times: list[float] = []
        self.notes: list[str] = []
        self.started = time.perf_counter()

    def setup(self, repeats: bool):
        """Build the cells, timing each build.  The first build is kept
        for the output checks, the last one is run."""
        tracing.assert_unpatched()
        first = last = None
        while True:
            last = None  # free the previous build before timing the next
            built, _, secs = Clock().run(self.w.setup)
            self.setup_times.append(secs)
            if first is None:
                first = built
            else:
                last = built
            n = len(self.setup_times)
            if not repeats or n >= MAX_SETUPS or (
                    n >= MIN_SETUPS and sum(self.setup_times) >= SETUP_BUDGET_S):
                break
        self.check_build = first
        self.built = first if last is None else last

    def one_pass(self, tracer=None) -> list:
        rows = self.w.run_pass(self.built, tracer)
        self.passes.append(rows)
        return rows

    def timed_passes(self, min_passes: int, min_cells: int, since: float):
        tracing.assert_unpatched()
        while True:
            t0 = time.perf_counter()
            self.one_pass()
            now = time.perf_counter()
            done = len(self.passes)
            cells = sum(len(p) for p in self.passes)
            if now - self.started > HARD_STOP_S:
                break
            if (done >= min_passes and cells >= min_cells
                    and now - since + (now - t0) > self.seconds):
                break

    def judge(self) -> tuple[int, int]:
        """Check the first pass on the separately built instances and
        require every later pass to repeat it exactly."""
        first = self.passes[0]
        expected = {r.key: r.outcome() for r in first}
        self.w.check(first, self.check_build)
        attempted = failed = 0
        for rows in self.passes:
            for r in rows:
                attempted += 1
                if r.error is None and rows is not first and \
                        r.outcome() != expected[r.key]:
                    r.error = "outcome differs from the first pass"
                if r.error is not None:
                    failed += 1
                    print(f"perfbench: failed {r.key}: {r.error}",
                          file=sys.stderr)
        self.first = first
        return attempted, failed

    def end_to_end(self, attempted: int, failed: int) -> dict:
        pass_s = [sum(r.seconds for r in rows) for rows in self.passes]
        cell_ms = [r.seconds * 1e3 for rows in self.passes for r in rows]
        values = [r.value for r in self.first]
        return {
            "run_s": (statistics.median(pass_s), "s"),
            "setup_s": (statistics.median(self.setup_times), "s"),
            "cell_ms_p50": (hd_quantile(cell_ms, 0.5), "ms"),
            "cell_ms_p90": (hd_quantile(cell_ms, 0.9), "ms"),
            "peak_elements_max": (max(r.peak for r in self.first), "elements"),
            "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MiB"),
            "value_geomean": (math.exp(statistics.fmean(
                math.log(max(v, 1e-12)) for v in values)), "objective"),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
        }


def run_untraced(run: Run) -> tuple[dict, int, int]:
    run.setup(repeats=True)
    run.timed_passes(MIN_PASSES, MIN_CELLS, since=time.perf_counter())
    attempted, failed = run.judge()
    metrics = run.end_to_end(attempted, failed)
    run.notes += [
        f"passes={len(run.passes)} cells={attempted} "
        f"cells_per_pass={len(run.first)} setups={len(run.setup_times)}",
        "pass_s " + " ".join(f"{sum(r.seconds for r in rows):.3f}"
                             for rows in run.passes),
        "pass_wall_s " + " ".join(f"{sum(r.wall for r in rows):.3f}"
                                  for rows in run.passes),
        "setup_s " + " ".join(f"{t:.3f}" for t in run.setup_times)]
    return metrics, attempted, failed


def run_traced(run: Run, spans_path: Path) -> tuple[dict, int, int]:
    """One traced set-up and pass with wrappers installed, then untraced
    passes of the same cells for the overhead figure."""
    run.setup(repeats=False)
    tracer = tracing.Tracer()
    since = time.perf_counter()
    installed = tracing.install(tracer)
    try:
        run.built = run.w.setup()
        traced = run.one_pass(tracer)
    finally:
        tracing.uninstall(installed)
    run.timed_passes(1 + TRACE_MIN_PLAIN, 0, since)
    attempted, failed = run.judge()
    # wall times, comparable with the spans; the overhead compares the
    # times scaled to the reference speed, which drift far less
    plain = run.passes[1:]
    layers = tracing.layer_metrics(tracer)
    layers.update({
        "trace.traced_run_s": sum(r.wall for r in traced),
        "trace.untraced_run_s": statistics.median(
            sum(r.wall for r in rows) for rows in plain),
        "trace.overhead_frac": sum(r.seconds for r in traced) / statistics.median(
            sum(r.seconds for r in rows) for rows in plain) - 1.0})
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    run.notes.append(f"spans={layers['trace.spans']} written to {spans_path}")
    return ({k: (v, tracing.unit_of(k)) for k, v in layers.items()},
            attempted, failed)


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            scale: str = "full", spans_path: Path | None = None,
            quiet: bool = False) -> dict:
    """Run one workload in this process; returns the result object."""
    env = environment(seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        run = Run(workload, seed, seconds, scale, Path(tmp))
        run.w.prepare()
        if trace:
            path = spans_path or ROOT / ".perfbench-out" / f"spans-{workload}.npz"
            metrics, attempted, failed = run_traced(run, path)
        else:
            metrics, attempted, failed = run_untraced(run)
    if not quiet:
        print(f"# workload={workload} trace={int(trace)} "
              + " ".join(f"{k}={v}" for k, v in env.items()))
        for note in run.notes:
            print(f"# {note}")
        print(f"# digest {workload} {digest(run.first)}")
        print(f"# failed_frac {failed / attempted!r} ratio")
        for name, (value, unit) in metrics.items():
            print(f"{name:34s} {value!r:>24} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in a fresh process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
    return merged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, default=None,
                    help="span file of a traced run (default "
                         ".perfbench-out/spans-<workload>.npz)")
    args = ap.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace), spans_path=args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
