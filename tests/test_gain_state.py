"""Grow-only gain states from ``Objective.open`` against one-off marginals.

The cut accumulator subtracts in insertion order, so its gains may differ
from ``marginal_fn`` in the last bits; they are compared within a
tolerance scaled by the weight on the element's edges.  The generic state
must return ``Objective.marginal``'s float exactly.
"""

import math

import pytest

from substream import (CutGraph, Objective, make_directed_cut,
                       make_facility_location, make_modular)
from substream.core import (DuplicateElementError, GainState, GroundSetError,
                            NumericError, TabulatedGainState)
from substream.objectives import CutGainState
from substream.prng import SplitMix64

from helpers import random_similarity


def _random_graph(rng, n, p):
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                for _ in range(1 + (rng.random() < 0.1)):  # some arcs repeat
                    edges.append((u, v, rng.uniform(0.0, 5.0)))
    return CutGraph(n, tuple(edges))


def _grow(rng, st, n, steps, check):
    """Add ``steps`` random non-members, calling ``check`` before each."""
    order = list(range(n))
    rng.shuffle(order)
    for x in order[:steps]:
        check(st)
        st.add(x)
    check(st)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_cut_gain_matches_marginal_and_slow_path(seed):
    rng = SplitMix64(seed)
    n = 14
    g = _random_graph(rng, n, 0.35)
    f = make_directed_cut(g)
    slow = Objective(f._fn, n, monotone=False)
    edge_weight = [0.0] * n
    for u, v, w in g.edges:
        edge_weight[u] += w
        edge_weight[v] += w

    def check(st):
        members = set(st.members)
        for u in range(n):
            if u in members:
                continue
            before = f.evaluations
            gain = st.gain(u)
            assert f.evaluations == before + 1
            tol = 1e-12 * (1.0 + edge_weight[u])
            assert abs(gain - f.marginal(u, st.members)) <= tol
            assert abs(gain - (slow.value(members | {u})
                               - slow.value(members))) <= tol

    st = f.open()
    assert isinstance(st, CutGainState)
    _grow(rng, st, n, n - 1, check)


@pytest.mark.parametrize("seed", [5, 6])
def test_modular_gain_is_the_weight(seed):
    rng = SplitMix64(seed)
    w = [rng.uniform(0.0, 10.0) for _ in range(12)]
    f = make_modular(w)

    def check(st):
        for u in range(12):
            if u not in st.members:
                before = f.evaluations
                assert st.gain(u) == w[u] == f.marginal(u, st.members)
                assert f.evaluations == before + 2

    st = f.open()
    assert isinstance(st, TabulatedGainState)
    _grow(rng, st, 12, 11, check)


@pytest.mark.parametrize("make", [
    lambda: make_directed_cut(CutGraph(3, [(0, 1, 1.0), (1, 2, 2.0)])),
    lambda: make_modular([1.0, 2.0, 3.0]),
    lambda: make_facility_location(random_similarity(SplitMix64(7), 3)),
], ids=["cut", "modular", "facility"])
def test_gain_state_raises_the_errors_marginal_raises(make):
    f = make()
    st = f.open()
    st.add(1)
    for bad in (-1, 3):
        with pytest.raises(GroundSetError):
            f.marginal(bad, st.members)
        with pytest.raises(GroundSetError):
            st.gain(bad)
    with pytest.raises(DuplicateElementError):
        f.marginal(1, st.members)
    with pytest.raises(DuplicateElementError):
        st.gain(1)
    with pytest.raises(DuplicateElementError):
        st.add(1)
    assert list(st.members) == [1]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_modular_gain_rejects_non_finite_weight(bad):
    f = make_modular([1.0, bad, 2.0])
    st = f.open()
    assert st.gain(0) == 1.0
    with pytest.raises(NumericError):
        st.gain(1)


def test_slow_path_state_returns_marginal_float():
    rng = SplitMix64(9)
    m = random_similarity(rng, 10)
    f = make_facility_location(m)
    ref = make_facility_location(m)

    def check(st):
        for u in range(10):
            if u not in st.members:
                assert st.gain(u) == ref.marginal(u, st.members)
                assert f.evaluations == ref.evaluations

    st = f.open()
    assert type(st) is GainState
    _grow(rng, st, 10, 9, check)
