"""Sampled invariant suites at development scale; the acceptance module
re-runs the submodularity and downward-closure suites at full volume."""

from substream import exact_rho
from substream.prng import SplitMix64

from helpers import (downward_closure_violations, random_independent_set,
                     random_system, sample_oracles, submodularity_violations)


def test_every_shipped_oracle_is_submodular_and_nonnegative():
    rng = SplitMix64(2001)
    for name, f in sample_oracles(rng, n=10):
        bad = submodularity_violations(f, rng, samples=800)
        assert bad == 0, name


def test_memoization_transparency():
    rng = SplitMix64(2002)
    for name, f in sample_oracles(rng, n=8):
        for _ in range(60):
            subset = [u for u in range(8) if rng.random() < 0.5]
            first = f.value(subset)
            again = f.value(subset)       # evaluated again
            assert first == again, name


def test_downward_closure_of_every_system_family():
    rng = SplitMix64(2003)
    for kind in ("cardinality", "labeled_limit", "knapsack", "node"):
        for _ in range(5):
            sys = random_system(rng, 8 + rng.randrange(5), kinds=(kind,))
            assert downward_closure_violations(sys, rng, samples=200) == 0, kind


def test_empty_set_always_independent():
    rng = SplitMix64(2004)
    for _ in range(20):
        sys = random_system(rng, 6 + rng.randrange(6))
        assert sys.is_independent(())


def test_rho_hint_matches_exact_enumeration_when_present():
    rng = SplitMix64(2005)
    for _ in range(25):
        sys = random_system(rng, 5 + rng.randrange(6),
                            kinds=("cardinality", "knapsack"))
        if sys.rho_hint is not None:
            assert sys.rho_hint == exact_rho(sys)


def test_random_independent_sets_are_independent():
    rng = SplitMix64(2006)
    for _ in range(30):
        sys = random_system(rng, 6 + rng.randrange(6))
        s = random_independent_set(rng, sys)
        assert sys.is_independent(s)
