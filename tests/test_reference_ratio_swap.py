"""Independent replay of the best-replacement swap rule, compared against
``RatioSwapStream`` arrival by arrival.

The reference holds its solution in a plain ``ElementSet``, fills it on
``f.marginal`` and weighs every swap by evaluating each trial set
``S - x + u`` in full through ``f.value``, with no gain state.  The
component under test reads its gains and trials from the state of
``Objective.open``, so a wrong table update or a dropped edge term in a
trial shows up as a different eviction, order or value.
"""

import pytest

from substream import (CutGraph, RatioSwapStream, build_g2,
                       cardinality_system, make_directed_cut,
                       make_facility_location, make_modular)
from substream.core import EPS, ElementSet, first_best
from substream.prng import SplitMix64

from helpers import random_similarity


class ReferenceRatioSwap:
    def __init__(self, rho, f):
        self.rho = rho
        self.f = f
        self.solution = ElementSet()
        self.ever_held = ElementSet()
        self.fills = 0
        self.repeats = 0  # full arrivals that value an unchanged solution
        self._valued = False

    def push(self, u):
        if len(self.solution) < self.rho:
            self.fills += 1
            if self.f.marginal(u, self.solution) >= -EPS:
                self.solution.add(u)
                self.ever_held.add(u)
                return []
            return [u]
        current = self.f.value(self.solution)
        self.repeats += self._valued
        self._valued = True
        held = list(self.solution)
        trial_vals = []
        for x in held:
            trial = self.solution.difference((x,))
            trial.add(u)
            trial_vals.append(self.f.value(trial))
        best = first_best(trial_vals)
        victim, victim_val = held[best], trial_vals[best]
        if victim_val - current >= current / self.rho - EPS:
            self.solution.remove(victim)
            self.solution.add(u)
            self.ever_held.add(u)
            self._valued = False
            return [victim]
        return [u]


def _compare(make_f, n, rho, stream):
    ref = ReferenceRatioSwap(rho, make_f())
    f = make_f()
    comp = RatioSwapStream(cardinality_system(n, rho), f)
    for u in stream:
        assert comp.push([u]) == ref.push(u), f"arrival {u}"
        assert list(comp.solution) == list(ref.solution)
    out = comp.finish()
    assert list(out.solution) == list(ref.solution)
    assert list(out.summary) == list(ref.ever_held)
    fresh = make_f()
    assert fresh.value(out.solution) == fresh.value(ref.solution)
    # the same queries, each counted once, except that a fill marginal
    # evaluates two sets where a gain is one query, and the component
    # values a solution once where the reference values it on every
    # full arrival
    assert ref.f.evaluations == f.evaluations + ref.fills + ref.repeats
    return out


@pytest.mark.parametrize("rho", list(range(4, 33)) + list(range(36, 65, 4)))
def test_g2_trace_matches_reference(rho):
    inst = build_g2(rho)
    out = _compare(lambda: make_directed_cut(inst.graph),
                   inst.graph.n_vertices, rho, inst.stream)
    assert set(out.solution) == set(inst.late)


def _random_case(kind, seed):
    rng = SplitMix64(100 + seed)
    n = 10 + rng.randrange(8)
    rho = 2 + rng.randrange(4)
    if kind == "cut":
        graph = CutGraph(n, tuple(
            (u, v, rng.uniform(0.1, 5.0)) for u in range(n) for v in range(n)
            if u != v and rng.random() < 0.4))
        make_f = lambda: make_directed_cut(graph)
    elif kind == "modular":
        w = [rng.uniform(0.1, 10.0) for _ in range(n)]
        make_f = lambda: make_modular(w)
    else:
        m = random_similarity(rng, n)
        make_f = lambda: make_facility_location(m)
    stream = list(range(n))
    rng.shuffle(stream)
    return make_f, n, rho, stream


SEEDS = range(12)


@pytest.mark.parametrize("kind", ["cut", "modular", "facility"])
@pytest.mark.parametrize("seed", SEEDS)
def test_random_instances_match_reference(kind, seed):
    _compare(*_random_case(kind, seed))


@pytest.mark.parametrize("kind", ["cut", "modular"])
def test_most_random_instances_swap(kind):
    swapped = 0
    for seed in SEEDS:
        make_f, n, rho, stream = _random_case(kind, seed)
        comp = RatioSwapStream(cardinality_system(n, rho), make_f())
        comp.push(stream)
        swapped += len(comp.ever_held) > rho
    assert swapped >= len(SEEDS) // 2
