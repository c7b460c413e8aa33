import math

import pytest

from substream import (CutGraph, ElementSet, IndependenceSystem,
                       SizeLimitError, UnsupportedConstraintError,
                       build_g1, build_g2, cardinality_system,
                       knapsack_system, make_directed_cut,
                       make_facility_location, make_modular,
                       preemption_stream, ratio_swap_stream, sieve_streaming,
                       streaming_greedy)
from substream.baselines import PreemptionStream, RatioSwapStream, SieveGuessStream
from substream.constraints import EXACT_RHO_LIMIT
from substream.core import EPS
from substream.prng import SplitMix64

from helpers import random_cut, random_similarity, reference_cut_marginal


def test_streaming_greedy_examples():
    sys = cardinality_system(3, 2)
    f = make_modular([1.0, 1.0, 1.0])
    out = streaming_greedy(sys, f, [0, 1, 2])
    assert out.solution == {0, 1}
    assert out.summary == {0, 1} and len(out.residual) == 0
    assert streaming_greedy(sys, f, []).solution == set()


def test_streaming_greedy_on_g1_keeps_first_wave():
    inst = build_g1(2, 0.5)
    f = make_directed_cut(inst.graph)
    sys = cardinality_system(inst.graph.n_vertices, 2)
    out = streaming_greedy(sys, f, inst.stream)
    assert out.solution == set(inst.early)
    assert f.value(out.solution) == 2.0


def test_sieve_guess_grid_example():
    # first singleton 4, rho = 2, epsilon = 0.5: grid 4, 6, 9, 13.5 plus cap 16
    sys = cardinality_system(6, 2)
    f = make_modular([4.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    comp = SieveGuessStream(sys, f, epsilon=0.5, rho=2)
    comp.push([0])
    assert sorted(comp.guesses) == [4.0, 6.0, 9.0, 13.5, 16.0]


def test_sieve_accepts_first_singleton():
    sys = cardinality_system(4, 2)
    f = make_modular([3.0, 0.1, 0.1, 0.1])
    out = sieve_streaming(sys, f, range(4))
    assert 0 in out.solution


def test_sieve_threshold_rejects_small_marginal():
    sys = cardinality_system(2, 1)
    f = make_modular([10.0, 1.0])
    comp = SieveGuessStream(sys, f, epsilon=0.5, rho=1)
    comp.push([0])
    high = comp.guesses[10.0].members
    assert 0 in high
    comp.push([1])
    assert 1 not in high  # 1 < 10 / (2 * 1)
    out = comp.finish()
    assert out.solution == {0}


def test_sieve_asks_no_gain_of_guesses_that_cannot_take_u():
    sys = cardinality_system(3, 1)
    f = make_modular([4.0, 3.0, 1.0])
    comp = SieveGuessStream(sys, f, epsilon=0.5, rho=1)
    comp.push([0])
    assert len(comp.guesses) > 1
    assert all(list(state.members) == [0] for state in comp.guesses.values())
    before = f.evaluations
    assert comp.push([1]) == [1]
    assert f.evaluations == before + 1  # u's singleton only


def test_sieve_no_feasible_singleton_returns_empty():
    sys = knapsack_system([5.0, 5.0], budget=1.0)
    f = make_modular([1.0, 1.0])
    out = sieve_streaming(sys, f, range(2), rho=1)
    assert out.solution == set() and out.summary == set()


def test_sieve_uses_rho_hint_or_explicit():
    sys = cardinality_system(4, 2)
    f = make_modular([1.0] * 4)
    assert SieveGuessStream(sys, f).rho == 2
    assert SieveGuessStream(sys, f, rho=3).rho == 3


@pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.5, math.nan, "0.1", None])
def test_sieve_rejects_an_epsilon_outside_the_unit_interval(epsilon):
    sys = cardinality_system(4, 2)
    with pytest.raises(ValueError, match=r"epsilon must be in \(0, 1\)"):
        SieveGuessStream(sys, make_modular([1.0] * 4), epsilon=epsilon)


def test_sieve_needs_rho_beyond_the_exact_rho_limit():
    n = EXACT_RHO_LIMIT + 1
    sys = IndependenceSystem(lambda s: len(s) <= 2, n, k_param=1,
                             class_tag="matroid")  # no rho_hint
    f = make_modular([1.0] * n)
    with pytest.raises(SizeLimitError, match="rho unknown"):
        SieveGuessStream(sys, f)
    assert SieveGuessStream(sys, f, rho=2).rho == 2


def test_preemption_requires_cardinality():
    sys = knapsack_system([1.0, 1.0], budget=2.0)
    f = make_modular([1.0, 1.0])
    with pytest.raises(UnsupportedConstraintError):
        preemption_stream(sys, f, range(2))
    with pytest.raises(UnsupportedConstraintError):
        ratio_swap_stream(sys, f, range(2))


def test_preemption_short_stream_behaves_like_filtered_greedy():
    sys = cardinality_system(5, 4)
    f = make_directed_cut(CutGraph(5, [(0, 1, 1.0), (2, 3, 1.0)]))
    out = preemption_stream(sys, f, [0, 2, 4])
    assert out.solution == {0, 2, 4}  # all gains >= 0, room to spare


def test_preemption_swap_trace_on_g1():
    inst = build_g1(3, 0.25)
    f = make_directed_cut(inst.graph)
    sys = cardinality_system(inst.graph.n_vertices, 3)
    comp = PreemptionStream(sys, f)
    evicted = comp.push(inst.stream)
    out = comp.finish()
    # every planted-optimum element rejected, every late element swapped in
    assert out.solution == set(inst.late)
    assert set(evicted) == set(inst.stream) - set(inst.late)
    assert out.summary == set(inst.early) | set(inst.late)


def test_preemption_swap_tie_breaks_to_earliest_arrival():
    # the early block 1, 2, 3 all remember insertion gain 1, so every swap
    # is a tie among them and must displace the earliest arrival first
    inst = build_g1(3, 0.01)
    f = make_directed_cut(inst.graph)
    sys = cardinality_system(inst.graph.n_vertices, 3)
    comp = PreemptionStream(sys, f)
    assert inst.stream == (1, 2, 3, 4, 5, 6, 7, 8, 9)
    evicted = [comp.push([u]) for u in inst.stream]
    assert evicted == [[], [], [], [4], [5], [6], [1], [2], [3]]


def reference_preemption_trace(rho, marginal, stream):
    """The preemption rule with the victim found by a scan: the first
    minimum of the remembered insertion gains in solution order, each
    gain ``marginal(u, solution)``."""
    solution = ElementSet()
    insert_gain = {}
    trace = []
    for step, u in enumerate(stream):
        gain = marginal(u, solution)
        if len(solution) < rho:
            event = "accept" if gain >= -EPS else "evict"
            if event == "accept":
                solution.add(u)
                insert_gain[u] = gain
            trace.append((step, event, u, -1, gain))
            continue
        cheapest = min(solution, key=insert_gain.__getitem__)
        if gain >= 2.0 * insert_gain[cheapest] - EPS:
            solution.remove(cheapest)
            solution.add(u)
            insert_gain[u] = gain
            trace += [(step, "swap", u, -1, gain),
                      (step, "evict", cheapest, -1, 0.0)]
        else:
            trace.append((step, "evict", u, -1, gain))
    return trace, solution


def _g1_case(rho, epsilon):
    """(oracle factory, n, rho, stream, reference marginal); the cut's
    reference is the plain adjacency loop."""
    inst = build_g1(rho, epsilon)
    return (lambda: make_directed_cut(inst.graph), inst.graph.n_vertices,
            rho, list(inst.stream), reference_cut_marginal(inst.graph))


def _facility_case():
    """As ``_g1_case``; facility gains are ``fn`` differences."""
    rng = SplitMix64(31)
    m = random_similarity(rng, 60)
    stream = list(range(60))
    rng.shuffle(stream)
    return (lambda: make_facility_location(m), 60, 6, stream,
            make_facility_location(m).marginal)


@pytest.mark.parametrize("case", [
    lambda: _g1_case(4, 0.01), lambda: _g1_case(8, 0.05),
    lambda: _g1_case(150, 0.03), _facility_case,
], ids=["g1-4", "g1-8", "g1-150", "facility"])
def test_preemption_victims_match_min_scan(case):
    make_f, n, rho, stream, marginal = case()
    trace = []
    comp = PreemptionStream(cardinality_system(n, rho), make_f(), trace=trace)
    out = comp.finish(stream)
    ref_trace, ref_solution = reference_preemption_trace(rho, marginal, stream)
    assert any(event == "swap" for _, event, *_ in ref_trace)
    assert trace == ref_trace
    assert list(out.solution) == list(ref_solution)


def test_preemption_makes_one_query_per_arrival():
    # every gain comes from the solution's gain state, one query each,
    # not from a marginal that evaluates S + u and S
    make_f, n, rho, stream, _ = _facility_case()
    f = make_f()
    comp = PreemptionStream(cardinality_system(n, rho), f)
    for step, u in enumerate(stream, start=1):
        comp.push([u])
        assert f.evaluations == step
    comp.finish()
    assert f.evaluations == n


def _remembered_gains(comp):
    """The insertion gain each held element is remembered by, as the
    victim heap holds it; the heap holds exactly the solution."""
    gains = {u: gain for gain, _, u in comp._cheapest}
    assert len(gains) == len(comp._cheapest)
    assert set(gains) == set(comp.solution)
    return gains


def test_preemption_gain_cache_matches_prefix_marginal():
    # on the adversarial families the remembered insertion gain equals the
    # gain against the currently held earlier arrivals, at every step
    for inst in (build_g1(3, 0.01), build_g2(4)):
        f = make_directed_cut(inst.graph)
        sys = cardinality_system(inst.graph.n_vertices, inst.rho)
        comp = PreemptionStream(sys, f)
        position = {u: i for i, u in enumerate(inst.stream)}
        for u in inst.stream:
            comp.push([u])
            gains = _remembered_gains(comp)
            for x in comp.solution:
                prefix = ElementSet(
                    s for s in comp.solution if position[s] < position[x])
                recomputed = f.marginal(x, prefix)
                assert abs(gains[x] - recomputed) <= 1e-9


def test_preemption_cache_is_insertion_time_without_swaps():
    rng = SplitMix64(88)
    for _ in range(10):
        n = 8 + rng.randrange(5)
        f = random_cut(rng, n)
        sys = cardinality_system(n, n)  # never full: no swaps ever
        comp = PreemptionStream(sys, f)
        stream = list(range(n))
        rng.shuffle(stream)
        seen = ElementSet()
        for u in stream:
            expect = f.marginal(u, ElementSet(x for x in seen if x in comp.solution))
            comp.push([u])
            if u in comp.solution:
                assert abs(_remembered_gains(comp)[u] - expect) <= 1e-9
            seen.add(u)


def test_ratio_swap_never_decreases_value():
    rng = SplitMix64(89)
    for _ in range(10):
        n = 9 + rng.randrange(5)
        f = random_cut(rng, n)
        sys = cardinality_system(n, 3)
        comp = RatioSwapStream(sys, f)
        stream = list(range(n))
        rng.shuffle(stream)
        last = 0.0
        for u in stream:
            comp.push([u])
            now = f.value(comp.solution)
            if len(comp.solution) == 3:
                assert now >= last - 1e-9
            last = now


def test_ratio_swap_fill_phase_takes_nonnegative_gains():
    sys = cardinality_system(4, 3)
    f = make_modular([1.0, 2.0, 3.0, 4.0])
    out = ratio_swap_stream(sys, f, [0, 1, 2])
    assert out.solution == {0, 1, 2}


def test_preemption_trace_records_one_eviction_per_swap():
    from substream.streaming import trace_to_csv
    inst = build_g1(3, 0.01)
    f = make_directed_cut(inst.graph)
    sys = cardinality_system(inst.graph.n_vertices, 3)
    events = []
    comp = PreemptionStream(sys, f, trace=events)
    comp.push(inst.stream)
    comp.finish()
    swaps = [e for e in events if e[1] == "swap"]
    assert len(swaps) == 3  # every late element displaces one early element
    csv_text = trace_to_csv(events)
    assert csv_text.splitlines()[0] == "step,event,element,bucket,value"
    assert len(csv_text.splitlines()) == 1 + len(events)


def test_g1_inequality_gap_grows_with_rho():
    # the kept fraction of the reachable value shrinks like 1/rho
    ratios = []
    for rho in (2, 4, 8):
        inst = build_g1(rho, 0.5)
        f = make_directed_cut(inst.graph)
        sys = cardinality_system(inst.graph.n_vertices, rho)
        out = preemption_stream(sys, f, inst.stream)
        union = f.value(set(out.solution) | set(inst.planted_opt))
        ratios.append(f.value(out.solution) / union)
        expected = (2 + 0.5) * rho / ((2 + 0.5) * rho + rho * rho)
        assert abs(ratios[-1] - expected) <= 1e-9
    assert ratios[0] > ratios[1] > ratios[2]
