"""The singleton bound on gains: ``SieveGuessStream`` and
``AutoThresholdSieve`` ask gains only of the groups an arrival can reach
(``streaming._Grouped._reach``).

For a submodular f no gain is above the singleton f({u}), so a guess
whose threshold ``v / (2 rho) - EPS`` is above it, or a window copy whose
top band a gain that small cannot reach, never takes u.  The cap on a
gain is the singleton plus a relative margin of ``EPS`` and ``EPS``
itself (``streaming._Grouped._singleton``).  The tests below check the
batches that reach ``Objective.gains`` against that rule, written out
here, that an infeasible singleton asks no gain, and that a gain a few
ulps above its singleton is still taken, as the per-copy and per-guess
references take it.  A generic state's gain, a difference of two values,
can round above the cap; the last test shows such gains and that the
answers still match the references', which is why no gain above the cap
raises.
"""

import math

import pytest

from substream import AutoThresholdSieve, cardinality_system, knapsack_system
from substream.baselines import SieveGuessStream
from substream.core import EPS, Objective, TabulatedGainState, _running_sum
from substream.prng import SplitMix64
from substream.streaming import _level, band_top

from helpers import (OBJECTIVE_FAMILIES, SYSTEM_FAMILIES, ReferenceGuesses,
                     ReferenceWindow, family_instance, max_feasible_singleton)


def _cap(singleton):
    return singleton + EPS * singleton + EPS


def _spy(monkeypatch, check):
    """Call ``check(u, states)`` before every ``Objective.gains`` call."""
    real = Objective.gains

    def gains(self, u, states):
        check(u, states)
        return real(self, u, states)

    monkeypatch.setattr(Objective, "gains", gains)


def _bumped_modular(weights, bumped):
    """A modular objective whose gain table reads ``bumped[u]`` for the
    elements it names, in place of the singleton ``weights[u]``."""
    table = list(weights)
    for u, gain in bumped.items():
        table[u] = gain
    return Objective(lambda ids: sum(weights[i] for i in ids), len(weights),
                     open_fn=lambda f: TabulatedGainState(f, table))


def _ulps_above(x, count):
    for _ in range(count):
        x = math.nextafter(x, math.inf)
    return x


def _ulps_below(x, count):
    for _ in range(count):
        x = math.nextafter(x, -math.inf)
    return x


def _sieve_admits(stream, group, cap):
    return group.keys[0] / (2.0 * stream.rho) - EPS <= cap


def _window_admits(window, group, cap):
    # copy e places a gain of level L only at e + L <= ell, and a gain at
    # most cap has a level of at least _level(1 / cap)
    return cap > EPS and group.keys[0] <= window.ell - _level(1.0 / cap)


@pytest.mark.parametrize("system", SYSTEM_FAMILIES)
@pytest.mark.parametrize("objective", OBJECTIVE_FAMILIES)
def test_every_batched_state_belongs_to_a_group_the_bound_admits(
        monkeypatch, objective, system):
    skipped = 0
    for seed in range(6):
        case = (12, seed, objective, system)
        sys, f = family_instance(*case)
        fresh_sys, fresh_f = family_instance(*case)
        if max_feasible_singleton(sys, f) <= 0:
            continue
        sieve = SieveGuessStream(sys, f, rho=2)
        window = AutoThresholdSieve(sys, f)
        for component, admits in ((sieve, _sieve_admits),
                                  (window, _window_admits)):
            def check(u, states):
                nonlocal skipped
                cap = (_cap(fresh_f.singleton(u))
                       if fresh_sys.is_independent((u,)) else -math.inf)
                groups = [group for group in component._groups
                          if admits(component, group, cap)]
                skipped += len(component._groups) - len(groups)
                if component is sieve:
                    groups = [group for group in groups
                              if group.buckets[0].can_add(u)]
                assert [id(s) for s in states] == [
                    id(group.gains) for group in groups]

            _spy(monkeypatch, check)
            component.push(range(12))
            component.finish()
            monkeypatch.undo()
    assert skipped


@pytest.mark.parametrize("make", [
    lambda sys, f: SieveGuessStream(sys, f, rho=2),
    lambda sys, f: AutoThresholdSieve(sys, f)])
def test_an_arrival_with_an_infeasible_singleton_asks_no_gain(
        monkeypatch, make):
    # element 2 costs more than the budget, so no state can take it
    f = _bumped_modular([3.0, 2.0, 100.0], {})
    component = make(knapsack_system([1.0, 1.0, 5.0], 3.0), f)
    assert component.push([0, 1]) == []
    batches = []
    _spy(monkeypatch, lambda u, states: batches.append(states))
    before = f.evaluations
    assert component.push([2]) == [2]
    assert f.evaluations == before
    assert all(not states for states in batches)


def test_a_guess_takes_a_gain_a_few_ulps_above_the_singleton():
    # rho = 1: the first singleton, 4, makes guesses 4 .. 8 in one group,
    # whose lowest threshold is 4 / 2 - EPS; element 1's singleton lies 16
    # ulps below it, and its gain on it
    threshold = 4.0 / 2.0 - EPS
    weights = [4.0, _ulps_below(threshold, 16)]
    make = lambda: _bumped_modular(weights, {1: threshold})
    sys = cardinality_system(2, 2)
    stream = SieveGuessStream(sys, make(), rho=1)
    ref = ReferenceGuesses(cardinality_system(2, 2), make(), rho=1)
    for u in (0, 1):
        assert stream.push([u]) == ref.push([u]) == []
        assert {v: list(g.members) for v, g in stream.guesses.items()} == {
            v: list(g.members) for v, g in ref.guesses.items()}
    assert list(ref.guesses[4.0].members) == [0, 1]
    got, want = stream.finish(), ref.finish()
    assert list(got.solution) == list(want.solution)
    assert list(got.summary) == list(want.summary)


def test_a_window_copy_takes_a_gain_a_few_ulps_above_the_singleton():
    # a singleton of 64 opens copies 6..11 with ell = 3, and copies 6..9
    # take element 0; element 1 joins the base (ell = 5) with a singleton
    # of 1, which lies in band e + 0, and a gain 16 ulps above 1, which
    # lies in band e - 1: copy 6 takes it in its top band, 5
    weights = [64.0, 1.0]
    make = lambda: _bumped_modular(weights, {1: _ulps_above(1.0, 16)})
    window = AutoThresholdSieve(cardinality_system(2, 2), make())
    ref = ReferenceWindow(cardinality_system(2, 2), make())
    for u in (0, 1):
        assert window.push([u]) == ref.push([u]) == []
        assert {e: (list(c.kept), [list(b) for b in c.buckets])
                for e, c in window.copies.items()} == {
            e: (list(c.kept), [list(b) for b in c.buckets])
            for e, c in ref.copies.items()}
        assert window.stored_count() == ref.stored_count()
    assert list(ref.copies[6].buckets[5]) == [1]
    got, want = window.finish(), ref.finish()
    assert list(got.solution) == list(want.solution)
    assert list(got.summary) == list(want.summary)
    assert window.stored_count() == ref.stored_count()


def test_generic_state_gains_above_the_cap_change_no_answer(monkeypatch):
    # no open_fn, so a gain is f(S + u) - f(S): two left-to-right sums
    # near 1e14, and each arrival has the lowest id yet, so the sums differ
    # from their first term on and the gain rounds by some ulps of f(S),
    # near 0.01 each.  The last ten weights lie in the lowest band the
    # window still reaches, near 2**23, where the cap's margin is about as
    # small, so a gain can land above its cap.
    n = 100
    ell = band_top(1, n)  # every copy's deepest band once the base holds 91
    stream = list(range(n))[::-1]
    weights = [0.0] * n
    watched = None  # the objective of the grouped component running
    over = 0
    real = Objective.gains

    def gains(self, u, states):
        nonlocal over
        out = real(self, u, states)
        if self is watched:
            over += sum(gain > _cap(weights[u]) for gain in out)
        return out

    def make():
        return Objective(
            lambda ids: _running_sum(map(weights.__getitem__, ids)), n)

    monkeypatch.setattr(Objective, "gains", gains)
    for seed in range(3):
        rng = SplitMix64(seed)
        for i, u in enumerate(stream):
            low = 39 if i < 90 else 39 - ell
            weights[u] = rng.uniform(2.0 ** low, 2.0 ** (low + 1))
        for build, build_ref in (
                (AutoThresholdSieve, ReferenceWindow),
                (lambda sys, f: SieveGuessStream(sys, f, rho=n),
                 lambda sys, f: ReferenceGuesses(sys, f, rho=n))):
            watched = make()
            component = build(cardinality_system(n, n), watched)
            ref = build_ref(cardinality_system(n, n), make())
            for u in stream:
                assert component.push([u]) == ref.push([u])
                assert component.stored_count() == ref.stored_count()
            got, want = component.finish(), ref.finish()
            assert list(got.solution) == list(want.solution)
            assert list(got.summary) == list(want.summary)
            assert component.stored_count() == ref.stored_count()
    assert over
