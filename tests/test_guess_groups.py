"""The grouped guesses of ``SieveGuessStream`` against the per-guess
streamer of ``helpers.ReferenceGuesses`` on hypothesis-drawn instances of
every objective and system family, and the group rules one at a time.

Guesses that hold one set share one state in the grouped streamer, and
each guess keeps states of its own in the reference.  After every arrival
both must agree on the evictions in order, every guess's members in
member order, ``lower_bound`` and ``stored_count()``, and the groups must
keep their invariants (``helpers.check_groups``), each at level 0 alone;
at end of stream on the solution, summary and residual.  The grouped
streamer must never ask more oracle queries than the reference.
"""

import math

from hypothesis import assume, given, settings, strategies as st

from substream import cardinality_system, make_modular
from substream.baselines import SieveGuessStream

from helpers import (OBJECTIVE_FAMILIES, SYSTEM_FAMILIES, ReferenceGuesses,
                     check_groups, family_instance, max_feasible_singleton)


def _members(stream):
    return {v: list(guess.members) for v, guess in stream.guesses.items()}


def _groups(stream):
    return [(group.keys, list(group.members)) for group in stream._groups]


@st.composite
def guess_cases(draw):
    n = draw(st.integers(4, 14))
    return (n, draw(st.integers(0, 2**32 - 1)),
            draw(st.sampled_from(OBJECTIVE_FAMILIES)),
            draw(st.sampled_from(SYSTEM_FAMILIES)),
            draw(st.sampled_from([0.1, 0.5])),
            # a rho below the true one, as the benchmark's greedy rho can be
            draw(st.sampled_from([None, 1, 2, 3])),
            draw(st.booleans()), draw(st.permutations(range(n))))


@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(guess_cases())
def test_grouped_guesses_match_the_per_guess_streamer(case):
    sys, f = family_instance(*case[:4])
    ref_sys, ref_f = family_instance(*case[:4])
    assume(max_feasible_singleton(sys, f) > 0)
    epsilon, rho, rising, stream = case[4:]
    if rising:
        # rising singletons lift the floor past guesses that still hold
        # elements, so dropped groups evict
        stream = sorted(stream, key=f.singleton)
    f.evaluations = ref_f.evaluations = 0
    guesses = SieveGuessStream(sys, f, epsilon=epsilon, rho=rho)
    ref = ReferenceGuesses(ref_sys, ref_f, epsilon=epsilon, rho=rho)
    for u in stream:
        assert guesses.push([u]) == ref.push([u])
        assert _members(guesses) == _members(ref)
        assert guesses.lower_bound == ref.lower_bound
        assert guesses.stored_count() == ref.stored_count()
        check_groups(guesses, guesses.guesses)
        assert all(list(group.buckets) == [0] for group in guesses._groups)
    got, want = guesses.finish(), ref.finish()
    assert list(got.solution) == list(want.solution)
    assert list(got.summary) == list(want.summary)
    assert list(got.residual) == list(want.residual)
    assert f.evaluations <= ref_f.evaluations


def test_a_partial_take_splits_the_group_and_replays_the_part_above():
    # first singleton 4, rho = 2, epsilon = 0.5: guesses 4, 6, 9, 13.5, 16
    f = make_modular([4.0, 3.0, 1.0])
    stream = SieveGuessStream(cardinality_system(3, 3), f, epsilon=0.5, rho=2)
    stream.push([0])
    assert _groups(stream) == [([4.0, 6.0, 9.0, 13.5, 16.0], [0])]
    before = f.evaluations
    live = stream.guesses[4.0].gains
    # a gain of 3 clears v / 4 for v up to 12 only; the lower bound then
    # rises to 2 * 9 / 4 and drops the guess 4, a partial drop
    assert stream.push([1]) == []
    assert f.evaluations == before + 2  # u's singleton, one group's gain
    assert _groups(stream) == [([6.0, 9.0], [0, 1]), ([13.5, 16.0], [0])]
    assert stream.guesses[6.0].gains is live
    assert stream.guesses[13.5].gains is not live
    assert stream.guesses[13.5].buckets[0] is not \
        stream.guesses[6.0].buckets[0]


def test_new_guesses_join_the_top_group_only_while_it_holds_nothing():
    f = make_modular([4.0, 8.0])
    stream = SieveGuessStream(cardinality_system(2, 2), f, epsilon=0.5, rho=2)
    stream.push([0])  # every new guess joins the one empty group
    assert _groups(stream) == [([4.0, 6.0, 9.0, 13.5, 16.0], [0])]
    # a best singleton of 8 raises the top to 32: the new guesses form one
    # new group, which has not taken 0
    stream.push([1])
    assert _groups(stream) == [([9.0, 13.5, 16.0], [0, 1]),
                               ([20.25, 30.375, 32.0], [1])]


def test_a_new_guess_below_an_old_top_gets_a_group_at_its_place():
    # (1 + epsilon)**2 rounds to within EPS under the first top, 2, so the
    # grid leaves it out until the top rises; it then lands inside the
    # group of the guesses 1, 1 + epsilon and 2, which splits around it
    epsilon = math.sqrt(2.0 - 5e-10) - 1.0
    low = 1.0 + epsilon
    new = low * (1.0 + epsilon)
    assert 2.0 - 1e-9 <= new < 2.0
    f = make_modular([1.0, 1.2, 0.9])
    ref_f = make_modular([1.0, 1.2, 0.9])
    stream = SieveGuessStream(cardinality_system(3, 3), f, epsilon=epsilon,
                              rho=1)
    ref = ReferenceGuesses(cardinality_system(3, 3), ref_f, epsilon=epsilon,
                           rho=1)
    assert stream.push([0]) == ref.push([0]) == []
    assert _groups(stream) == [([1.0, low, 2.0], [0])]
    assert stream.push([1]) == ref.push([1]) == []
    assert _groups(stream) == [([new], [1]), ([2.0], [0, 1]), ([2.4], [1])]
    assert list(stream.guesses) == [new, 2.0, 2.4]
    assert list(ref.guesses) == [2.0, new, 2.4]  # in the order made
    assert _members(stream) == _members(ref)
    assert stream.push([2]) == ref.push([2]) == [2]
    assert list(stream.finish().solution) == list(ref.finish().solution)
