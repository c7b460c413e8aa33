"""Independent reimplementation of the threshold-free sieve, compared
step-for-step against the shipped ``AutoThresholdSieve`` on random
instances.

Like ``test_reference_sieve.py``, the reference shares nothing with the
implementation: plain list/dict state, the guess window and band
arithmetic written out directly, holder counts kept by hand, and an oracle
without fast marginal paths.  After every arrival the live copy exponents
(in creation order), each copy's buckets, the shared greedy base and the
evictions the step returned must all agree.
"""

import math

from substream import AutoThresholdSieve, Objective, make_modular
from substream.prng import SplitMix64

from helpers import max_feasible_singleton, random_cut, random_modular, random_system


def strip_fast_path(f: Objective) -> Objective:
    return Objective(f._fn, f.n)


def reference_auto_sieve(sys, raw_f, k, stream):
    """Yield (exponents, buckets per exponent, base, evicted) after each
    arrival of ``stream``."""
    base = []
    best = -math.inf
    copies = {}     # exponent -> {"buckets": [[...]], "kept": [...]}
    holders = {}    # element -> number of structures holding it
    for u in stream:
        evicted = []
        holders[u] = 0
        if sys.is_independent(base + [u]):
            base.append(u)
            holders[u] += 1
        if sys.is_independent([u]):
            best = max(best, raw_f.value([u]))
        window = []
        if base and best > 1e-9:
            lo = math.ceil(math.log2(best) - 1e-12)
            width = 2 * math.log2(k * len(base)) + 5
            hi = math.floor(math.log2(best) + width + 1e-12)
            window = list(range(lo, hi + 1))
        for e in list(copies):
            if e not in window:
                for x in copies[e]["kept"]:
                    holders[x] -= 1
                    if holders[x] == 0:
                        del holders[x]
                        evicted.append(x)
                del copies[e]
        for e in window:
            if e not in copies:
                copies[e] = {"buckets": [], "kept": []}
        ell = math.floor(2 * math.log2(k * len(base)) + 3 + 1e-12) if base else -1
        for e, copy in copies.items():
            buckets, kept = copy["buckets"], copy["kept"]
            while len(buckets) <= ell:
                buckets.append([])
            m = raw_f.value(sorted(kept + [u])) - raw_f.value(sorted(kept))
            if m <= 1e-9:
                continue
            i = math.floor(math.log2(2.0 ** e / m) + 1e-12)
            if i < 0 or i >= len(buckets):
                continue
            if sys.is_independent(buckets[i] + [u]):
                buckets[i].append(u)
                kept.append(u)
                holders[u] += 1
        if holders[u] == 0:
            del holders[u]
            evicted.append(u)
        yield (list(copies), {e: [list(b) for b in c["buckets"]]
                              for e, c in copies.items()},
               list(base), evicted)


def test_auto_sieve_matches_reference_at_every_step():
    rng = SplitMix64(31_339)
    checked = 0
    drop_evictions = 0
    while checked < 48:
        n = 6 + rng.randrange(9)
        # every third instance streams weights spread over many powers of
        # two in rising order, so the window climbs and drops copies that
        # still hold elements
        rising = checked % 3 == 2
        if rising:
            f = make_modular([2.0 ** rng.uniform(0.0, 16.0) for _ in range(n)])
        else:
            f = random_modular(rng, n) if checked % 2 else random_cut(rng, n)
        sys = random_system(rng, n)
        if max_feasible_singleton(sys, f) <= 0:
            continue
        stream = list(range(n))
        rng.shuffle(stream)
        if rising:
            stream.sort(key=f.singleton)

        sieve = AutoThresholdSieve(sys, f)
        reference = reference_auto_sieve(sys, strip_fast_path(f), sieve.k,
                                         stream)
        for u, (exps, buckets, base, evicted) in zip(stream, reference):
            assert sieve.push([u]) == evicted
            assert list(sieve.copies) == exps
            assert {e: [list(b) for b in c.buckets]
                    for e, c in sieve.copies.items()} == buckets
            assert list(sieve.base) == base
            drop_evictions += sum(x != u for x in evicted)
        checked += 1
    assert drop_evictions > 0
