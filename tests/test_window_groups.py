"""The grouped AutoThreshold window against the per-copy window of
``helpers.ReferenceWindow`` on hypothesis-drawn instances of every
objective and system family.

Copies that hold one kept set share one state in the grouped window, and
each copy keeps states of its own in the reference, which also works out
each band from its own ``tau / gain``.  After every arrival both must
agree on the evictions in order, the live exponents, every copy's kept
set and buckets in member order, and ``stored_count()``; at end of stream
on the solution, summary, residual, candidates and count.  The grouped
window must never ask more oracle queries than the reference.
"""

from hypothesis import assume, given, settings, strategies as st

from substream import (AutoThresholdSieve, cardinality_system, intersect,
                       knapsack_system, make_coverage_minus_dispersion,
                       make_facility_location, make_logdet, make_modular,
                       node_independent_set_system, planarity_system)
from substream.prng import SplitMix64

from helpers import (ReferenceWindow, max_feasible_singleton, random_cut,
                     random_similarity)


def _objective(kind, rng, n):
    if kind == "modular":
        # weights over many powers of two spread the gains over many levels
        return make_modular([2.0 ** rng.uniform(-4.0, 16.0) for _ in range(n)])
    if kind == "cut":
        return random_cut(rng, n)
    sim = random_similarity(rng, n)
    if kind == "facility":
        return make_facility_location(sim)
    if kind == "logdet":
        return make_logdet(sim, alpha=2.0)
    return make_coverage_minus_dispersion(sim)


def _knapsack(rng, n):
    costs = [float(rng.randint(1, 4)) for _ in range(n)]
    return knapsack_system(costs, float(rng.randint(4, 2 * n)))


def _planarity(rng, n):
    """Planarity over the first n edges of a shuffled K7."""
    pairs = [(a, b) for a in range(7) for b in range(a + 1, 7)]
    rng.shuffle(pairs)
    return planarity_system(7, pairs[:n])


def _system(kind, rng, n):
    if kind == "cardinality":
        return cardinality_system(n, rng.randint(1, max(1, n // 2)))
    if kind == "node":
        return node_independent_set_system(n, [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < 0.3])
    if kind == "planarity":
        return _planarity(rng, n)
    if kind == "knapsack":
        return _knapsack(rng, n)
    return intersect(_planarity(rng, n), _knapsack(rng, n))


OBJECTIVES = ["modular", "cut", "facility", "logdet", "cmd"]
SYSTEMS = ["cardinality", "node", "planarity", "knapsack", "intersect"]


def _build(case):
    n, seed, objective, system = case[:4]
    rng = SplitMix64(seed)
    return _system(system, rng, n), _objective(objective, rng, n)


def _copies(window):
    return {e: (list(c.kept), c.ell, [list(b) for b in c.buckets])
            for e, c in window.copies.items()}


@st.composite
def window_cases(draw):
    n = draw(st.integers(4, 14))
    return (n, draw(st.integers(0, 2**32 - 1)),
            draw(st.sampled_from(OBJECTIVES)), draw(st.sampled_from(SYSTEMS)),
            draw(st.booleans()), draw(st.permutations(range(n))))


@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(window_cases())
def test_grouped_window_matches_the_per_copy_window(case):
    sys, f = _build(case)
    ref_sys, ref_f = _build(case)
    assume(max_feasible_singleton(sys, f) > 0)
    stream = case[-1]
    if case[-2]:
        # rising singletons climb the window past copies that still hold
        # elements, so dropped groups evict
        stream = sorted(stream, key=f.singleton)
    f.evaluations = ref_f.evaluations = 0
    window, ref = AutoThresholdSieve(sys, f), ReferenceWindow(ref_sys, ref_f)
    for u in stream:
        assert window.push([u]) == ref.push([u])
        assert _copies(window) == _copies(ref)
        assert window.stored_count() == ref.stored_count()
    got, want = window.finish(), ref.finish()
    assert list(got.solution) == list(want.solution)
    assert list(got.summary) == list(want.summary)
    assert list(got.residual) == list(want.residual)
    assert window.stored_count() == ref.stored_count()
    assert {e: [list(t) for t in c.candidates]
            for e, c in window.copies.items()} == {
        e: [list(t) for t in c.candidates] for e, c in ref.copies.items()}
    assert f.evaluations <= ref_f.evaluations
