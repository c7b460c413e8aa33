"""Independent reimplementation of the banded-sieve pseudocode, compared
state-for-state against the shipped components on random instances.

The reference deliberately shares nothing with the implementation: plain
dict/list state, band arithmetic written out directly, and an oracle
without fast marginal paths, so any drift in banding, feasibility checks
or drain order shows up as a bucket mismatch.
"""

import math

from substream import (AdaptiveSieve, Objective, ThresholdSieve, exact_rho)
from substream.prng import SplitMix64

from helpers import max_feasible_singleton, random_cut, random_modular, random_system


def strip_fast_path(f: Objective) -> Objective:
    return Objective(f._fn, f.n)


def reference_fixed_sieve(sys, raw_f, tau, rho, k, stream):
    ell = math.floor(math.log2(4 * rho) + 1e-12)
    h = math.ceil(math.log2(2 * k + 1) - 1e-12)
    buckets = [[] for _ in range(ell + 1)]
    for u in stream:
        union = [x for b in buckets for x in b]
        m = raw_f.value(sorted(union + [u])) - raw_f.value(sorted(union))
        if m <= 1e-9:
            continue
        i = math.floor(math.log2(tau / m) + 1e-12)
        if i < 0 or i > ell:
            continue
        if sys.is_independent(buckets[i] + [u]):
            buckets[i].append(u)
    cands = []
    for j in range(h):
        t = []
        i = j
        while i <= ell:
            for u in buckets[i]:
                if sys.is_independent(t + [u]):
                    t.append(u)
            i += h
        cands.append(t)
    best = cands[0]
    for t in cands[1:]:
        if raw_f.value(t) > raw_f.value(best) + 1e-9:
            best = t
    return buckets, cands, best


def reference_adaptive_sieve(sys, raw_f, tau, k, stream):
    h = math.ceil(math.log2(2 * k + 1) - 1e-12)
    base = []
    ell = -1
    buckets = []
    for u in stream:
        if sys.is_independent(base + [u]):
            base.append(u)
        if base:
            new_ell = math.floor(2 * math.log2(k * len(base)) + 3 + 1e-12)
            while ell < new_ell:
                buckets.append([])
                ell += 1
        union = [x for b in buckets for x in b]
        m = raw_f.value(sorted(union + [u])) - raw_f.value(sorted(union))
        if m <= 1e-9:
            continue
        i = math.floor(math.log2(tau / m) + 1e-12)
        if i < 0 or i > ell:
            continue
        if sys.is_independent(buckets[i] + [u]):
            buckets[i].append(u)
    return base, buckets


def test_fixed_sieve_matches_reference():
    rng = SplitMix64(31_337)
    checked = 0
    while checked < 40:
        n = 6 + rng.randrange(9)
        f = random_modular(rng, n) if checked % 2 else random_cut(rng, n)
        sys = random_system(rng, n)
        m = max_feasible_singleton(sys, f)
        if m <= 0:
            continue
        tau = rng.uniform(1.0, 2.0) * m
        rho = exact_rho(sys)
        stream = list(range(n))
        rng.shuffle(stream)

        sieve = ThresholdSieve(sys, f, tau, rho)
        out = sieve.finish(stream)
        ref_buckets, ref_cands, ref_best = reference_fixed_sieve(
            sys, strip_fast_path(f), tau, rho, sieve.k, stream)

        assert [list(b) for b in sieve.buckets] == ref_buckets
        assert [list(t) for t in sieve.candidates] == ref_cands
        assert sorted(out.solution) == sorted(ref_best)
        checked += 1


def test_adaptive_sieve_matches_reference():
    rng = SplitMix64(31_338)
    checked = 0
    while checked < 40:
        n = 6 + rng.randrange(9)
        f = random_modular(rng, n) if checked % 2 else random_cut(rng, n)
        sys = random_system(rng, n)
        m = max_feasible_singleton(sys, f)
        if m <= 0:
            continue
        tau = rng.uniform(1.0, 2.0) * m
        stream = list(range(n))
        rng.shuffle(stream)

        sieve = AdaptiveSieve(sys, f, tau)
        sieve.push(stream)
        sieve.finish()
        ref_base, ref_buckets = reference_adaptive_sieve(
            sys, strip_fast_path(f), tau, sieve.k, stream)

        assert list(sieve.base) == ref_base
        assert [list(b) for b in sieve.buckets] == ref_buckets
        checked += 1
