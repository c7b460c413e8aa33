"""End of stream with each distinct candidate valued once, against the
per-candidate loops it replaced (``tests/helpers.py``): the same winner,
the same value bits, and one value query per distinct candidate set.

Each case streams one seeded instance through two twin components, each
on its own objective, then finishes one and runs the reference loop on
the other; the window's twin is the per-copy window of ``helpers``.
"""

import pytest

from substream import (AdaptiveSieve, AutoThresholdSieve, make_directed_cut,
                       make_modular, node_independent_set_system)
from substream.baselines import SieveGuessStream
from substream.bench import _prepass_tau, gen_erdos_renyi, undirected_pairs
from substream.core import as_sorted_ids, values_once
from substream.prng import SplitMix64

from helpers import (ReferenceWindow, reference_drain,
                     reference_guess_finalize, reference_window_finalize)


def _instance(seed):
    g = gen_erdos_renyi(40, 0.1, seed, weight_mode="exp")
    sys = node_independent_set_system(40, undirected_pairs(g))
    stream = list(range(40))
    SplitMix64(seed).shuffle(stream)
    if seed % 2:
        weights = [SplitMix64(seed + u).uniform(0.1, 4.0) for u in range(40)]
        return sys, lambda: make_modular(weights), stream
    return sys, lambda: make_directed_cut(g), stream


def _twins(make, stream):
    twins = []
    for _ in range(2):
        component, f = make()
        component.push(stream)
        twins.append((component, f))
    return twins


def _distinct(cands):
    return len({as_sorted_ids(t) for t in cands})


SEEDS = [3, 4, 9, 12, 21]


@pytest.mark.parametrize("seed", SEEDS)
def test_window_values_each_distinct_candidate_once(seed):
    sys, make_f, stream = _instance(seed)

    f = make_f()
    window, twin = AutoThresholdSieve(sys, f), ReferenceWindow(sys, make_f())
    window.push(stream)
    twin.push(stream)
    before = f.evaluations
    solution = window.finish().solution
    calls = f.evaluations - before
    winner, value = reference_window_finalize(twin)
    assert list(solution) == list(winner)
    assert f.value(solution) == value
    cands = [t for e in sorted(window.copies)
             for t in window.copies[e].candidates]
    assert calls == _distinct(cands) < len(cands)
    assert values_once(f, cands) == [f.value(t) for t in cands]


@pytest.mark.parametrize("seed", SEEDS)
def test_drain_values_each_distinct_candidate_once(seed):
    sys, make_f, stream = _instance(seed)
    tau = _prepass_tau(sys, make_f(), stream)

    def make():
        f = make_f()
        return AdaptiveSieve(sys, f, tau), f

    (sieve, f), (twin, _) = _twins(make, stream)
    before = f.evaluations
    winner = sieve.finish().solution
    assert f.evaluations - before == _distinct(sieve.candidates)
    ref_winner, ref_value = reference_drain(twin)
    assert list(winner) == list(ref_winner)
    assert f.value(winner) == ref_value


@pytest.mark.parametrize("seed", SEEDS)
def test_guess_finalize_values_each_distinct_candidate_once(seed):
    sys, make_f, stream = _instance(seed)

    def make():
        f = make_f()
        return SieveGuessStream(sys, f, rho=8), f

    (guesses, f), (twin, _) = _twins(make, stream)
    cands = [guesses.guesses[v].members for v in sorted(guesses.guesses)]
    distinct = _distinct([*cands, ()])
    before = f.evaluations
    solution = guesses.finish().solution
    assert f.evaluations - before == distinct
    winner, value = reference_guess_finalize(twin)
    assert list(solution) == list(winner)
    assert f.value(solution) == value


def test_distinct_sets_of_one_size_are_valued_apart():
    f = make_modular([1.0, 2.0, 4.0])
    before = f.evaluations
    assert values_once(f, [(0, 1), (1, 2), (1, 0), (), (2, 1)]) == [
        3.0, 6.0, 3.0, 0.0, 6.0]
    assert f.evaluations - before == 3
