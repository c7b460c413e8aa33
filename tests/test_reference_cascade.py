"""Independent replay of the cascade chaining, compared against
``cascade_run`` on hypothesis-drawn instances.

The reference drives fresh components itself with plain lists: each
arrival is offered to the first copy, and whatever a copy discards is
offered, element by element, to the next copy during the stream; at
finish each copy's residual is handed to the next copy's ``finish``.
Candidates, the winner and the polled peak are then worked out directly,
so a dropped hand-off, a reordered candidate or a missed poll shows up
as a mismatch.
"""

from hypothesis import assume, given, settings, strategies as st

from substream import (AdaptiveSieve, AutoThresholdSieve, CascadeConfig,
                       GreedyStream, ThresholdSieve, cascade_run, exact_rho,
                       repeated_greedy)
from substream.prng import SplitMix64

from helpers import max_feasible_singleton, random_cut, random_modular, random_system

COMPONENTS = {
    "auto": lambda sys, f, tau: AutoThresholdSieve(sys, f),
    "adaptive": lambda sys, f, tau: AdaptiveSieve(sys, f, tau),
    "threshold": lambda sys, f, tau: ThresholdSieve(sys, f, tau,
                                                    exact_rho(sys)),
    "greedy": lambda sys, f, tau: GreedyStream(sys, f),
}


def reference_cascade(make, copies, stream, sys, f):
    comps = [make() for _ in range(copies)]
    peak = 0
    for u in stream:
        pending = [u]
        for comp in comps:
            discarded = []
            for x in pending:
                discarded.extend(comp.push([x]))
            pending = discarded
        peak = max(peak, sum(c.stored_count() for c in comps))
    outcomes = []
    handoff = []
    for comp in comps:
        outcome = comp.finish(handoff)
        outcomes.append(outcome)
        handoff = list(outcome.residual)
    peak = max(peak, sum(c.stored_count() for c in comps))
    candidates = []
    for i, outcome in enumerate(outcomes, start=1):
        polished = repeated_greedy(f, sys, outcome.summary)
        candidates.append((f"s{i}", list(outcome.solution),
                           f.value(outcome.solution)))
        candidates.append((f"s{i}+offline", list(polished), f.value(polished)))
    best = candidates[0]
    for cand in candidates[1:]:
        if cand[2] > best[2] + 1e-9:
            best = cand
    return outcomes, candidates, best, peak


@st.composite
def cascade_cases(draw):
    n = draw(st.integers(4, 10))
    return (n, draw(st.integers(0, 2**32 - 1)),
            draw(st.sampled_from(["modular", "cut"])),
            draw(st.sampled_from(sorted(COMPONENTS))),
            draw(st.integers(1, 4)),
            draw(st.permutations(range(n))))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(cascade_cases())
def test_cascade_run_matches_reference(case):
    n, seed, objective, kind, copies, stream = case
    rng = SplitMix64(seed)
    f = random_modular(rng, n) if objective == "modular" else random_cut(rng, n)
    sys = random_system(rng, n)
    m = max_feasible_singleton(sys, f)
    assume(m > 0)
    tau = 2 * m

    def make():
        return COMPONENTS[kind](sys, f, tau)

    trace = cascade_run(CascadeConfig(copies, make, repeated_greedy), stream, sys, f)
    outcomes, candidates, best, peak = reference_cascade(make, copies, stream,
                                                         sys, f)

    for got, want in zip(trace.outcomes, outcomes, strict=True):
        assert list(got.solution) == list(want.solution)
        assert list(got.summary) == list(want.summary)
        assert list(got.residual) == list(want.residual)
    assert [(label, list(s), v) for label, s, v in trace.candidates] == candidates
    assert (trace.best_label, list(trace.best), trace.best_value) == best
    assert trace.peak_stored == peak
