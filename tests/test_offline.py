import heapq

import pytest

from substream import (CutGraph, ElementSet, SizeLimitError, brute_force_opt,
                       cardinality_system, double_greedy, make_directed_cut,
                       make_modular,
                       repeated_greedy, unweighted_greedy, weighted_greedy)
from substream.core import EPS
from substream.prng import SplitMix64

from helpers import (random_cut, random_modular, random_system,
                     reference_weighted_greedy, sample_oracles)


def naive_weighted_greedy(f, sys, ground):
    """Reference implementation: re-evaluate every candidate each round."""
    sol = ElementSet()
    remaining = sorted(set(ground))
    while True:
        best_u, best_gain = None, EPS
        for u in remaining:
            if u in sol or not sys.can_add(u, sol):
                continue
            gain = f.marginal(u, sol)
            if gain > best_gain or (gain == best_gain and
                                    best_u is not None and u < best_u):
                best_u, best_gain = u, gain
        if best_u is None:
            return sol
        sol.add(best_u)


def test_unweighted_greedy_first_fit():
    sys = cardinality_system(3, 2)
    assert unweighted_greedy(sys, [0, 1, 2]) == {0, 1}
    assert unweighted_greedy(sys, []) == set()


def test_unweighted_greedy_is_a_base():
    rng = SplitMix64(3)
    for _ in range(30):
        n = 5 + rng.randrange(6)
        sys = random_system(rng, n)
        order = list(range(n))
        rng.shuffle(order)
        base = unweighted_greedy(sys, order)
        for u in order:
            if u not in base:
                assert not sys.can_add(u, base)


def test_weighted_greedy_examples():
    f = make_modular({0: 3, 1: 2, 2: 1})
    sys = cardinality_system(3, 2)
    sol = weighted_greedy(f, sys, range(3))
    assert sol == {0, 1} and f.value(sol) == 5.0
    zero = make_modular([0.0, 0.0])
    assert weighted_greedy(zero, cardinality_system(2, 2), range(2)) == set()
    cut = make_directed_cut(CutGraph(2, [(0, 1, 1.0)]))
    assert weighted_greedy(cut, cardinality_system(2, 1), range(2)) == {0}


def test_weighted_greedy_modular_returns_top_rho():
    rng = SplitMix64(9)
    for _ in range(20):
        n = 6 + rng.randrange(6)
        weights = [rng.uniform(0.0, 5.0) for _ in range(n)]
        rho = 1 + rng.randrange(n - 1)
        sol = weighted_greedy(make_modular(weights), cardinality_system(n, rho),
                              range(n))
        top = sorted(range(n), key=lambda u: (-weights[u], u))[:rho]
        top = {u for u in top if weights[u] > EPS}
        assert sol == top


def test_lazy_greedy_matches_naive_reference():
    rng = SplitMix64(100)
    for trial in range(40):
        n = 5 + rng.randrange(7)
        f = random_cut(rng, n) if trial % 2 else random_modular(rng, n)
        sys = random_system(rng, n)
        lazy = weighted_greedy(f, sys, range(n))
        naive = naive_weighted_greedy(f, sys, range(n))
        assert lazy == naive, (trial, sorted(lazy), sorted(naive))


class _RecordingSystem:
    """Passes ``can_add`` and ``open`` through and records every
    feasibility query, of the system or of a state it opened, as
    ``(u, members)``."""

    def __init__(self, sys):
        self.sys = sys
        self.queries = []

    def can_add(self, u, members):
        self.queries.append((u, tuple(members)))
        return self.sys.can_add(u, members)

    def open(self):
        return _RecordingState(self.sys.open(), self.queries)


class _RecordingState:
    """Passes a feasibility state through and records its ``can_add``
    queries into ``queries``."""

    def __init__(self, state, queries):
        self.state = state
        self.members = state.members
        self.queries = queries

    def can_add(self, u):
        self.queries.append((u, tuple(self.members)))
        return self.state.can_add(u)

    def add(self, u):
        self.state.add(u)


def _greedy_parity_failures(greedy, seeds):
    """The (seed, family) instances on which ``greedy`` and
    :func:`reference_weighted_greedy` differ in solution, evaluations or
    ``can_add`` queries: one instance per ``sample_oracles`` family and
    seed, each with its own random system and ground subset."""
    failures = []
    for seed in seeds:
        n = 6 + seed % 7
        runs = []
        for impl in (reference_weighted_greedy, greedy):
            rng = SplitMix64(seed)
            run = []
            for label, f in sample_oracles(rng, n):
                sys = _RecordingSystem(random_system(rng, n))
                ground = [u for u in range(n) if rng.random() < 0.9]
                sol = impl(f, sys, ground)
                run.append((label, list(sol), f.evaluations, sys.queries))
            runs.append(run)
        failures += [(seed, ref[0]) for ref, got in zip(*runs) if ref != got]
    return failures


PARITY_SEEDS = range(80)  # 7 families each: 560 instances


def test_weighted_greedy_matches_the_hand_written_round_rule():
    assert not _greedy_parity_failures(weighted_greedy, PARITY_SEEDS)


def _stops_at_the_bar_after_an_infeasible_pop(f, sys, ground):
    """A broken lazy greedy: a round without a feasible best gives up once
    an infeasible pop leaves a bound at or below EPS on top."""
    gains = f.open()
    fits = sys.open()
    sol = gains.members
    heap = [(-gains.gain(u), u) for u in set(ground)]
    heapq.heapify(heap)
    while heap and -heap[0][0] > EPS:
        best, fresh = None, []
        while heap and (best is None or heap[0] < best):
            cand = heapq.heappop(heap)[1]
            if fits.can_add(cand):
                key = (-gains.gain(cand), cand)
                fresh.append(key)
                if best is None or key < best:
                    best = key
            elif heap and -heap[0][0] <= EPS:
                break
        if best is None or -best[0] <= EPS:
            break
        gains.add(best[1])
        fits.add(best[1])
        for key in fresh:
            if key != best:
                heapq.heappush(heap, key)
    return sol


def test_greedy_parity_catches_a_round_stopped_at_the_bar():
    assert _greedy_parity_failures(_stops_at_the_bar_after_an_infeasible_pop,
                                   PARITY_SEEDS)


def test_double_greedy_examples():
    pos = make_modular([1.0, 2.0, 0.5])
    assert double_greedy(pos, range(3)) == {0, 1, 2}
    cut = make_directed_cut(CutGraph(2, [(0, 1, 2.0), (1, 0, 1.0)]))
    assert double_greedy(cut, range(2)) == {0}
    flat = make_modular([0.0, 0.0])
    out = double_greedy(flat, range(2))
    assert flat.value(out) == 0.0


def test_double_greedy_third_guarantee():
    rng = SplitMix64(55)
    for _ in range(25):
        n = 4 + rng.randrange(6)
        f = random_cut(rng, n)
        out = double_greedy(f, range(n))
        best = 0.0
        for mask in range(1 << n):
            subset = [i for i in range(n) if mask >> i & 1]
            best = max(best, f.value(subset))
        assert f.value(out) >= best / 3.0 - 1e-9


def test_repeated_greedy_examples():
    f = make_modular([4.0, 3.0, 2.0, 1.0])
    sys = cardinality_system(4, 2)
    sol = repeated_greedy(f, sys, range(4))
    _, opt = brute_force_opt(f, sys, range(4))
    assert f.value(sol) == opt
    assert repeated_greedy(f, sys, []) == set()
    mono = repeated_greedy(f, sys, range(4))
    assert f.value(mono) >= f.value(weighted_greedy(f, sys, range(4))) - 1e-9


def test_repeated_greedy_beats_its_first_round():
    rng = SplitMix64(77)
    for _ in range(20):
        n = 5 + rng.randrange(6)
        f = random_cut(rng, n)
        sys = random_system(rng, n)
        round1 = weighted_greedy(f, sys, range(n))
        out = repeated_greedy(f, sys, range(n))
        assert f.value(out) >= f.value(round1) - 1e-9


def test_brute_force_examples():
    f = make_modular({0: 1, 1: 2})
    best, val = brute_force_opt(f, cardinality_system(2, 1), range(2))
    assert best == {1} and val == 2.0
    zero = make_modular([0.0, 0.0])
    best, val = brute_force_opt(zero, cardinality_system(2, 2), range(2))
    assert best == set() and val == 0.0
    cut = make_directed_cut(CutGraph(2, [(0, 1, 1.0), (1, 0, 1.0)]))
    best, val = brute_force_opt(cut, cardinality_system(2, 2), range(2))
    assert best == {0} and val == 1.0  # {1} ties; lexicographic break


def test_brute_force_size_limit():
    f = make_modular([1.0] * 30)
    with pytest.raises(SizeLimitError):
        brute_force_opt(f, cardinality_system(30, 2), range(30))


def test_brute_force_dominates_everything():
    rng = SplitMix64(404)
    for _ in range(15):
        n = 5 + rng.randrange(5)
        f = random_cut(rng, n)
        sys = random_system(rng, n)
        _, opt = brute_force_opt(f, sys, range(n))
        for sol in (weighted_greedy(f, sys, range(n)),
                    repeated_greedy(f, sys, range(n)),
                    unweighted_greedy(sys, range(n))):
            if sys.is_independent(sol):
                assert f.value(sol) <= opt + 1e-9
