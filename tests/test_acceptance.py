"""Acceptance gate: one test per shipped guarantee, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py -v``).

Random instances are drawn from fixed seeds, so every run checks the same
frozen population.
"""

import math
import time
from collections import defaultdict

from substream import (AdaptiveSieve, AutoThresholdSieve, CascadeConfig,
                       ThresholdSieve, brute_force_opt,
                       cardinality_system, cascade_run, contract_audit,
                       exact_rho, exchange_witness,
                       labeled_limit_system,
                       repeated_greedy, unweighted_greedy,
                       verify_preemption_counterexample,
                       verify_ratio_swap_counterexample, w_sequence,
                       w_sequence_closed_form, w_sequence_total)
from substream import bench
from substream.prng import SplitMix64
from substream.streaming import _ceil_log2

from helpers import (downward_closure_violations, max_feasible_singleton,
                     random_cut, random_labels, random_modular, random_system,
                     random_independent_set, sample_oracles,
                     submodularity_violations)


def _report(num: int, description: str, ok: bool, started: float,
            limit: float | None = None):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} ({elapsed:.1f}s): {description}")
    assert ok, f"criterion {num} failed: {description}"
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def _random_instance(rng, n_lo, n_hi, objective, constraint):
    n = rng.randint(n_lo, n_hi)
    f = random_modular(rng, n) if objective == "modular" else random_cut(rng, n)
    if constraint == "cardinality":
        sys = cardinality_system(n, rng.randint(1, max(1, n // 3)))
    else:
        sys = labeled_limit_system(random_labels(rng, n), rng.randint(1, 3),
                                   rng.randint(2, max(2, n // 2)))
    return n, f, sys


def test_criterion_01_weight_sequence_identities():
    started = time.perf_counter()
    ok = True
    for rho in range(1, 65):
        rec = w_sequence(rho)
        closed = w_sequence_closed_form(rho)
        ok &= all(abs(a - b) <= 1e-9 for a, b in zip(rec, closed))
        ok &= all(w <= 1.0 + math.e + 1e-9 for w in rec)
        ok &= abs(sum(rec) - w_sequence_total(rho)) <= 1e-9
    _report(1, "bait-weight recurrence matches closed form, bound and total "
               "for rho 1..64", ok, started, limit=1.0)


def test_criterion_02_ratio_swap_counterexample():
    started = time.perf_counter()
    ok = True
    for rho in (4, 8, 16, 32):
        r = verify_ratio_swap_counterexample(rho)
        ok &= r.holds
        ok &= abs(r.f_S - w_sequence_total(rho)) <= 1e-9
        ok &= r.f_S <= math.e * rho + 1e-9
        ok &= r.f_S <= (math.e / rho) * r.f_union + 1e-9
    _report(2, "best-replacement swap keeps only the bait block on family g2 "
               "(rho 4..32)", ok, started, limit=2.0)


def test_criterion_03_preemption_counterexample():
    started = time.perf_counter()
    ok = True
    for rho in (2, 4, 8, 16):
        r = verify_preemption_counterexample(rho, 0.01)
        ok &= r.holds
        ok &= abs(r.f_S - (2.01 * rho)) <= 1e-9
        ok &= r.checks["solution_is_late_block"]
        ok &= r.checks["opt_block_untouched"]
    _report(3, "double-the-cheapest swap keeps only the bait block on family "
               "g1 (rho 2..16, eps 0.01)", ok, started, limit=2.0)


def test_criterion_04_threshold_sieve_bound_vs_brute_force():
    started = time.perf_counter()
    rng = SplitMix64(40_001)
    violations = 0
    checked = 0
    cases = [("modular", "cardinality"), ("modular", "labeled_limit"),
             ("cut", "cardinality"), ("cut", "labeled_limit")]
    while checked < 200:
        objective, constraint = cases[checked % len(cases)]
        n, f, sys = _random_instance(rng, 6, 14, objective, constraint)
        m = max_feasible_singleton(sys, f)
        if m <= 0:
            continue
        tau = 2.0 * m
        sieve = ThresholdSieve(sys, f, tau, rho=exact_rho(sys))
        out = sieve.finish(range(n))
        star, _ = brute_force_opt(f, sys, range(n))
        union = f.value(set(sieve.kept) | set(star))
        denom = 4 * sieve.k * sieve.h * (2 * sieve.k + 1)
        if f.value(out.solution) < (union - tau / 4.0) / denom - 1e-9:
            violations += 1
        checked += 1
    _report(4, f"banded sieve beats (f(kept with optimum) - tau/4) / (4kh(2k+1)) "
               f"on {checked} brute-forced instances, {violations} violations",
            violations == 0, started, limit=60.0)


def test_criterion_05_monotone_end_to_end():
    started = time.perf_counter()
    rng = SplitMix64(50_001)
    violations = 0
    checked = 0
    while checked < 100:
        constraint = ("cardinality", "labeled_limit")[checked % 2]
        n, f, sys = _random_instance(rng, 6, 14, "modular", constraint)
        m = max_feasible_singleton(sys, f)
        if m <= 0:
            continue
        tau = rng.uniform(1.0, 2.0) * m
        sieve = ThresholdSieve(sys, f, tau, rho=exact_rho(sys))
        out = sieve.finish(range(n))
        _, opt = brute_force_opt(f, sys, range(n))
        denom = 8 * sieve.k * sieve.h * (2 * sieve.k + 1)
        if f.value(out.solution) < opt / denom - 1e-9:
            violations += 1
        checked += 1
    _report(5, f"monotone instances: sieve output is at least OPT/(8kh(2k+1)) "
               f"on {checked} instances, {violations} violations",
            violations == 0, started)


def test_criterion_06_cascade_bound_with_measured_ratio():
    started = time.perf_counter()
    rng = SplitMix64(60_001)
    violations = 0
    checked = 0
    r = 4
    while checked < 100:
        constraint = ("cardinality", "labeled_limit")[checked % 2]
        n, f, sys = _random_instance(rng, 6, 12, "cut", constraint)
        m = max_feasible_singleton(sys, f)
        if m <= 0:
            continue
        tau = 2.0 * m
        rho = exact_rho(sys)
        cfg = CascadeConfig(
            copies=r,
            component_factory=lambda: ThresholdSieve(sys, f, tau, rho),
            offline=lambda fo, so, ground: repeated_greedy(fo, so, ground))
        trace = cascade_run(cfg, list(range(n)), sys, f)
        _, opt = brute_force_opt(f, sys, range(n))
        probe = ThresholdSieve(sys, f, tau, rho)
        alpha = 4 * probe.k * probe.h * (2 * probe.k + 1)
        gamma = tau / 4.0
        beta = 1.0
        for idx, outcome in enumerate(trace.outcomes):
            if not outcome.summary:
                continue
            _, opt_restricted = brute_force_opt(f, sys, outcome.summary)
            polished_val = trace.candidates[2 * idx + 1][2]
            if polished_val > 1e-12:
                beta = max(beta, opt_restricted / polished_val)
            elif opt_restricted > 1e-9:
                beta = math.inf
        denom = r * alpha + r * (r - 1) * beta / 2.0
        bound = ((r - 1) * opt - r * gamma) / denom if math.isfinite(denom) else 0.0
        if trace.best_value < bound - 1e-9:
            violations += 1
        checked += 1
    _report(6, f"cascade (r=4, banded sieve inside) clears the "
               f"((r-1) OPT - r gamma)/(r alpha + r(r-1) beta/2) bound with "
               f"measured beta on {checked} instances, {violations} violations",
            violations == 0, started)


def test_criterion_07_exchange_property_per_system_class():
    started = time.perf_counter()
    rng = SplitMix64(70_001)
    failures = {}
    for kind in ("cardinality", "labeled_limit", "knapsack", "node"):
        bad = 0
        for _ in range(500):
            n = rng.randint(5, 12)
            sys = random_system(rng, n, kinds=(kind,))
            order = list(range(n))
            rng.shuffle(order)
            base = unweighted_greedy(sys, order)
            independent = random_independent_set(rng, sys)
            if not exchange_witness(sys, independent, base):
                bad += 1
        failures[kind] = bad
    ok = all(v == 0 for v in failures.values())
    _report(7, f"greedy exchange inequality k|B-A| >= |A-B| holds over 500 "
               f"trials per class ({failures})", ok, started)


def test_criterion_08_space_accounting():
    started = time.perf_counter()
    rng = SplitMix64(80_001)
    ok = True
    checked = 0
    while checked < 50:
        n = rng.randint(8, 18)
        f = random_modular(rng, n)
        sys = random_system(rng, n)
        m = max_feasible_singleton(sys, f)
        if m <= 0:
            continue
        tau = 2.0 * m
        rho = exact_rho(sys)
        if rho < 1:
            continue
        stream = list(range(n))
        rng.shuffle(stream)

        fixed = ThresholdSieve(sys, f, tau, rho)
        report = contract_audit(fixed, stream, sys)
        ok &= report.ok
        ok &= report.peak_stored <= (fixed.ell + 1 + fixed.h) * rho

        adaptive = AdaptiveSieve(sys, f, tau)
        report2 = contract_audit(adaptive, stream, sys)
        ell_final = math.floor(2 * math.log2(adaptive.k * rho) + 3 + 1e-12)
        ok &= report2.ok
        ok &= report2.peak_stored <= (ell_final + 1 + adaptive.h + 1) * rho
        checked += 1
    _report(8, "peak stored elements within the banded-sieve budgets on 50 "
               "audited streams", ok, started)


def test_criterion_09_auto_threshold_dominance():
    started = time.perf_counter()
    rng = SplitMix64(90_001)
    violations = 0
    checked = 0
    while checked < 50:
        constraint = ("cardinality", "labeled_limit")[checked % 2]
        n, f, sys = _random_instance(rng, 6, 14, "modular", constraint)
        m = max_feasible_singleton(sys, f)
        if m <= 0:
            continue
        stream = list(range(n))
        rng.shuffle(stream)
        tau_bar = 2.0 ** _ceil_log2(m)
        fixed = AdaptiveSieve(sys, f, tau_bar)
        fixed_val = f.value(fixed.finish(stream).solution)
        auto = AutoThresholdSieve(sys, f)
        auto_val = f.value(auto.finish(stream).solution)
        if auto_val < fixed_val - 1e-9:
            violations += 1
        checked += 1
    _report(9, f"threshold-free sieve matches the well-tuned fixed threshold "
               f"on {checked} monotone instances, {violations} violations",
            violations == 0, started)


def test_criterion_10_directional_benchmark():
    started = time.perf_counter()
    failures = []
    for family, param, values, instance in (
        ("er", "p", [0.05, 0.1, 0.2],
         {"model": "er", "n": 500, "p": 0.0, "edge_weights": "exp"}),
        ("ws", "beta", [0.1, 0.5],
         {"model": "ws", "n": 500, "k_ring": 20, "beta": 0.0,
          "edge_weights": "exp"}),
    ):
        for objective in ("linear", "cut"):
            cfg = {
                "instance": instance,
                "objective": {"kind": objective, "node_weights": "exp"},
                "constraint": {"type": "node_independent_set"},
                "algorithms": ["framework", "streaming_greedy",
                               "sieve_streaming"],
                "sweep": {"param": param, "values": values},
                "seeds": [1, 2, 3, 4, 5],
            }
            rows = bench.run_experiment(cfg, measure_time=False)
            acc = defaultdict(list)
            for row in rows:
                acc[(row.sweep, row.algorithm)].append(row.value)
            for value in values:
                means = {a: sum(acc[(value, a)]) / len(acc[(value, a)])
                         for a in cfg["algorithms"]}
                if means["framework"] < means["streaming_greedy"] - 1e-9 or \
                   means["framework"] < means["sieve_streaming"] - 1e-9:
                    failures.append((family, objective, value, means))
    _report(10, f"cascade mean beats both streaming baselines in every "
                f"benchmark cell ({len(failures)} failing cells)",
            not failures, started, limit=300.0)


def test_criterion_11_property_suites_full_volume():
    started = time.perf_counter()
    rng = SplitMix64(110_001)
    bad_oracles = {}
    for name, f in sample_oracles(rng, n=12):
        bad_oracles[name] = submodularity_violations(f, rng, samples=10_000)
    bad_systems = {}
    for kind in ("cardinality", "labeled_limit", "knapsack", "node"):
        sys = random_system(rng, 12, kinds=(kind,))
        bad_systems[kind] = downward_closure_violations(sys, rng,
                                                        samples=10_000)
    ok = (all(v == 0 for v in bad_oracles.values())
          and all(v == 0 for v in bad_systems.values()))
    _report(11, f"submodularity and downward-closure suites at 10000 samples "
                f"per oracle (oracles {bad_oracles}, systems {bad_systems})",
            ok, started)
