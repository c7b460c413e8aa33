"""The benchmark's four workloads.

Each workload turns the benchmark seed into inputs, builds its cells
through the package's public functions (the timed set-up), runs one pass
over every cell, and checks each result on a separately built system and
objective.  A cell is one algorithm run on one built instance, or one
counterexample verification.

Sizes are scaled so that one run of ``run_seconds`` holds at least 100
cells (the minimum for a 90th percentile with ten samples beyond it) in
at least three passes; ``tiny`` sizes exist for the smoke tests.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from substream import baselines, bench, constraints, counterexamples, objectives

# relative tolerance for re-checking a reported value on a fresh objective
VALUE_RTOL = 1e-9


@dataclass
class Row:
    """Outcome of one cell in one pass."""

    key: tuple
    wall: float
    seconds: float  # wall time at the reference speed
    value: float = math.nan
    oracle_calls: int = -1
    peak: int = -1
    error: str | None = None
    solution: tuple[int, ...] | None = None

    def outcome(self) -> tuple:
        """What must repeat exactly from pass to pass."""
        return (self.value, self.oracle_calls, self.peak, self.error)


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


# On a shared machine the CPU's speed drifts by a quarter or more over
# seconds, and a small allocate-and-add loop slows down together with the
# workload.  Every timed region is therefore bracketed by that fixed
# calibration loop, and its wall time is rescaled to seconds at one
# reference speed: the speed at which the loop takes CALIBRATION_REF_S.
CALIBRATION_LOOPS = 12_000
CALIBRATION_REF_S = 0.010


def calibrate() -> float:
    started = time.perf_counter()
    acc = 0
    for j in range(CALIBRATION_LOOPS):
        acc += sum([(j * 31 + i) & 1023 for i in range(3)])
    return time.perf_counter() - started


class Clock:
    """Times regions at the reference speed.  Consecutive regions share the
    calibration run between them; with a tracer, each region is one trace."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.last = calibrate()

    def run(self, fn):
        """(result, wall seconds, seconds at the reference speed) of ``fn()``."""
        if self.tracer is not None:
            self.tracer.new_trace()
        started = time.perf_counter()
        try:
            out = fn()
        finally:
            wall = time.perf_counter() - started
            if self.tracer is not None:
                self.tracer.end_trace()
            before, self.last = self.last, calibrate()
        return out, wall, wall * 2.0 * CALIBRATION_REF_S / (before + self.last)


def _cell(clock: Clock, key, fn) -> tuple[Row, object]:
    """Run one cell; an exception fails the cell instead of the run."""

    def call():
        try:
            return fn(), None
        except Exception as exc:
            return None, f"{type(exc).__name__}: {exc}"

    (out, err), wall, secs = clock.run(call)
    return Row(key=key, wall=wall, seconds=secs, error=err), out


class Workload:
    """A workload's inputs, set-up, passes and checks.  The defaults run
    ``bench.run_algorithm`` on cells built by ``bench.build_cell``."""

    name = ""
    algorithms: tuple[str, ...] = ()

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir

    def prepare(self) -> None:
        """Draw the seeded inputs and write any files the configs name."""

    def configs(self) -> list[tuple[str, dict, object, int]]:
        """(label, config, sweep value, instance seed) per built instance."""
        raise NotImplementedError

    def setup(self) -> list[tuple[str, object, object, int]]:
        return [(label, bench.build_cell(cfg, sweep, seed), sweep, seed)
                for label, cfg, sweep, seed in self.configs()]

    def run_pass(self, built, tracer=None) -> list[Row]:
        clock = Clock(tracer)
        rows = []
        for label, cell, sweep, seed in built:
            for algo in self.algorithms:
                rows.append(self._run_cell(clock, (label, algo, sweep, seed),
                                           algo, cell))
        return rows

    def _run_cell(self, clock, key, algo, cell) -> Row:
        f = cell.objective_factory()
        before = f.evaluations
        row, out = _cell(clock, key, lambda: bench.run_algorithm(
            algo, cell.sys, f, cell.stream, {}))
        if out is not None:
            solution, peak = out
            # read back as bench.run_experiment does; its oracle_calls
            # column includes this evaluation
            row.value = f.value(solution)
            row.oracle_calls = f.evaluations - before
            row.peak = peak
            row.solution = tuple(solution)
        return row

    def check(self, rows: list[Row], built) -> None:
        """Re-check each solution on a separately built system and objective."""
        fresh = {(label, sweep, seed): cell for label, cell, sweep, seed in built}
        for row in rows:
            if row.error is not None:
                continue
            label, _, sweep, seed = row.key
            cell = fresh[(label, sweep, seed)]
            if not cell.sys.is_independent(row.solution):
                row.error = "solution is not independent"
                continue
            value = cell.objective_factory().value(row.solution)
            if abs(value - row.value) > VALUE_RTOL * max(1.0, abs(value)):
                row.error = f"value mismatch: reported {row.value!r}, fresh {value!r}"


class GraphNIS(Workload):
    name = "graph-nis"
    algorithms = ("framework", "sieve_streaming", "streaming_greedy")
    SIZES = {"full": dict(n=500, er_p=(0.05, 0.1, 0.2), k_ring=20,
                          ws_beta=(0.1, 0.5), instances=1),
             "tiny": dict(n=40, er_p=(0.1, 0.3), k_ring=4, ws_beta=(0.3,),
                          instances=1)}

    def configs(self):
        size = self.SIZES[self.scale]
        out = []
        for seed in _seeds(self.seed, size["instances"]):
            families = [("er", "p", p, {"model": "er", "n": size["n"], "p": p,
                                        "edge_weights": "exp"})
                        for p in size["er_p"]]
            families += [("ws", "beta", b, {"model": "ws", "n": size["n"],
                                            "k_ring": size["k_ring"], "beta": b,
                                            "edge_weights": "exp"})
                         for b in size["ws_beta"]]
            for family, param, value, instance in families:
                for kind in ("linear", "cut"):
                    cfg = {"instance": instance,
                           "objective": {"kind": kind, "node_weights": "exp"},
                           "constraint": {"type": "node_independent_set"},
                           "sweep": {"param": param}}
                    out.append((f"{family}-{kind}", cfg, value, seed))
        return out


def _write_features(path: Path, n: int, d: int, clusters: int, seed: int) -> None:
    """Gaussian blobs around uniformly placed centres, as ``id,f1..fd``."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.0, 10.0, size=(clusters, d))
    points = centres[rng.integers(0, clusters, size=n)] + rng.normal(size=(n, d))
    with open(path, "w") as fh:
        fh.write("id," + ",".join(f"f{j + 1}" for j in range(d)) + "\n")
        for i, row in enumerate(points):
            fh.write(f"{i}," + ",".join(repr(float(x)) for x in row) + "\n")


class FeatureCardinality(Workload):
    name = "feature-cardinality"
    algorithms = ("framework", "sieve_streaming", "streaming_greedy")
    SIZES = {"full": dict(n=300, d=5, clusters=8, rho=20, instances=3),
             "tiny": dict(n=40, d=5, clusters=3, rho=5, instances=1)}

    def prepare(self):
        size = self.SIZES[self.scale]
        self.files = []
        for seed in _seeds(self.seed, size["instances"]):
            path = self.workdir / f"features-{seed}.csv"
            _write_features(path, size["n"], size["d"], size["clusters"], seed)
            self.files.append((seed, path))

    def configs(self):
        size = self.SIZES[self.scale]
        out = []
        for seed, path in self.files:
            for kind in ("facility", "logdet", "coverage_minus_dispersion"):
                cfg = {"objective": {"kind": kind, "features": str(path)},
                       "constraint": {"type": "cardinality", "rho": size["rho"],
                                      "n": size["n"]}}
                out.append((kind, cfg, 0, seed))
        return out


def _write_gnm(path: Path, n: int, m: int, seed: int) -> None:
    """A uniform random graph with exactly ``m`` edges, as a TSV edge list.

    A fixed edge count keeps the planarity work, which grows with the
    square of the edge count, from swinging with the seed."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    with open(path, "w") as fh:
        for u, v in random.Random(seed).sample(pairs, m):
            fh.write(f"{u}\t{v}\t1.0\n")


class EdgePlanarityKnapsack(Workload):
    name = "edge-planarity-knapsack"
    algorithms = ("framework", "sieve_streaming", "streaming_greedy",
                  "repeated_greedy")
    SIZES = {"full": dict(n=20, m=57, k_ring=4, beta=0.3, instances=4),
             "tiny": dict(n=10, m=18, k_ring=4, beta=0.3, instances=1)}

    def prepare(self):
        size = self.SIZES[self.scale]
        self.files = []
        for seed in _seeds(self.seed, size["instances"]):
            path = self.workdir / f"gnm-{seed}.tsv"
            _write_gnm(path, size["n"], size["m"], seed)
            self.files.append((seed, path))

    def configs(self):
        size = self.SIZES[self.scale]
        n = size["n"]
        ws = {"model": "ws", "n": n, "k_ring": size["k_ring"], "beta": size["beta"]}
        budget = n / 4.0
        out = []
        for seed, path in self.files:
            gnm = {"edge_list": str(path)}
            cells = [
                ("gnm-planarity", gnm, {"type": "planarity"}),
                ("gnm-degree-knapsack", gnm, {"type": "knapsack", "budget": budget,
                                              "cost_rule": "degree"}),
                ("ws-planarity-knapsack", ws, {"intersect": [
                    {"type": "planarity"},
                    {"type": "knapsack", "budget": budget,
                     "cost_rule": "random_int"}]}),
            ]
            out += [(label, {"instance": instance, "objective": {"kind": "linear"},
                             "constraint": constraint, "ground": "edges"}, 0, seed)
                    for label, instance, constraint in cells]
        return out


class SwapAdversarial(Workload):
    """The g1/g2 counterexamples, verified end to end."""

    name = "swap-adversarial"
    SIZES = {"full": dict(g2_rho=(36, 40, 44, 48, 52, 56, 60, 64),
                          g1_rho=(150, 200, 250, 300, 350, 400)),
             "tiny": dict(g2_rho=(4, 5, 6), g1_rho=(4, 6, 8))}

    def prepare(self):
        size = self.SIZES[self.scale]
        rng = random.Random(self.seed)
        # g2 has no free parameter; the seed draws each g1 instance's epsilon
        self.cells = [("g2", rho, None) for rho in size["g2_rho"]]
        self.cells += [("g1", rho, round(rng.uniform(0.01, 0.1), 6))
                       for rho in size["g1_rho"]]

    def setup(self):
        built = []
        for family, rho, eps in self.cells:
            inst = (counterexamples.build_g2(rho) if family == "g2"
                    else counterexamples.build_g1(rho, eps))
            built.append(((family, rho, eps), inst,
                          objectives.make_directed_cut(inst.graph)))
        return built

    def run_pass(self, built, tracer=None) -> list[Row]:
        clock = Clock(tracer)
        rows = []
        for (family, rho, eps), _, _ in built:
            if family == "g2":
                call = lambda: counterexamples.verify_ratio_swap_counterexample(rho)
            else:
                call = lambda: counterexamples.verify_preemption_counterexample(rho, eps)
            row, report = _cell(clock, (family, rho, eps), call)
            if report is not None:
                row.value = report.f_S
                if not report.holds:
                    failed = [k for k, ok in report.checks.items() if not ok]
                    row.error = f"counterexample does not hold: {failed}"
            rows.append(row)
        return rows

    def check(self, rows: list[Row], built) -> None:
        """Replay each swap stream on the set-up instance, polling the
        stored count for the peak and counting the objective's evaluations;
        the replayed solution must match the report on a fresh objective."""
        fresh = {key: (inst, f) for key, inst, f in built}
        for row in rows:
            if row.error is not None:
                continue
            inst, f = fresh[row.key]
            sys = constraints.cardinality_system(inst.graph.n_vertices, inst.rho)
            comp = (baselines.RatioSwapStream(sys, f) if row.key[0] == "g2"
                    else baselines.PreemptionStream(sys, f))
            peak = 0
            for u in inst.stream:
                comp.push([u])
                peak = max(peak, comp.stored_count())
            solution = comp.finish().solution
            row.peak = max(peak, comp.stored_count())
            row.oracle_calls = f.evaluations
            value = objectives.make_directed_cut(inst.graph).value(solution)
            if not sys.is_independent(solution):
                row.error = "replayed solution is not independent"
            elif abs(value - row.value) > VALUE_RTOL * max(1.0, abs(value)):
                row.error = f"value mismatch: reported {row.value!r}, replay {value!r}"


WORKLOADS = {w.name: w for w in (GraphNIS, FeatureCardinality,
                                 EdgePlanarityKnapsack, SwapAdversarial)}
