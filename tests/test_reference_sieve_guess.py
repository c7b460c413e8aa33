"""``SieveGuessStream`` replayed one arrival at a time: the evictions each
``push`` returns and ``stored_count()`` must follow from the guesses'
member sets alone.

Before every arrival the test snapshots the guesses and their members.
A guess that is gone afterwards was dropped; a member of a dropped guess
leaves once no guess holds it, that is at the last dropped guess holding
it, provided no surviving guess does.  The arrival itself leaves when no
guess took it.  The stored count is the size of the union of the guesses'
members.  Guesses drop below the best singleton and below the running
lower bound alike, so the same replay covers both rules.
"""

from substream import make_modular, node_independent_set_system
from substream.baselines import SieveGuessStream, sieve_streaming
from substream.bench import _greedy_rho
from substream.core import EPS
from substream.prng import SplitMix64

from helpers import max_feasible_singleton, random_cut, random_modular, random_system


def expected_evictions(before, after, u):
    """What ``push([u])`` must return, given the guesses' members before
    and after it (each a dict guess value -> member list)."""
    dropped = [v for v in before if v not in after]
    survivors = [set(members) for members in after.values()]
    evicted = []
    for i, v in enumerate(dropped):
        later = [set(before[w]) for w in dropped[i + 1:]]
        for x in before[v]:
            if not any(x in held for held in survivors + later):
                evicted.append(x)
    if not any(u in held for held in survivors):
        evicted.append(u)
    return evicted


def snapshot(stream):
    return {v: list(guess.members) for v, guess in stream.guesses.items()}


def test_sieve_guess_evictions_and_count_follow_the_members():
    rng = SplitMix64(27_182)
    checked = 0
    drop_evictions = 0
    while checked < 40:
        n = 6 + rng.randrange(9)
        # every other instance streams weights spread over many powers of
        # two in rising order, so guesses drop while they hold elements
        rising = checked % 2 == 0
        if rising:
            f = make_modular([2.0 ** rng.uniform(0.0, 16.0) for _ in range(n)])
        else:
            f = random_modular(rng, n) if checked % 4 == 1 else random_cut(rng, n)
        sys = random_system(rng, n)
        if max_feasible_singleton(sys, f) <= 0:
            continue
        stream = list(range(n))
        rng.shuffle(stream)
        if rising:
            stream.sort(key=f.singleton)
        epsilon = (0.1, 0.5)[rng.randrange(2)]

        sieve = SieveGuessStream(sys, f, epsilon=epsilon)
        for u in stream:
            before = snapshot(sieve)
            evicted = sieve.push([u])
            after = snapshot(sieve)
            assert evicted == expected_evictions(before, after, u)
            held = set().union(*after.values())
            assert sieve.stored_count() == len(held)
            drop_evictions += sum(x != u for x in evicted)
        checked += 1
    assert drop_evictions > 0



def test_lower_bound_drops_follow_the_members_and_keep_the_holder():
    # the replay above, counting the drops that only the running lower
    # bound explains: a dropped guess at or above the singleton floor
    rng = SplitMix64(16_180)
    checked = 0
    bound_drops = 0
    while checked < 40:
        n = 8 + rng.randrange(9)
        f = random_modular(rng, n) if checked % 2 else random_cut(rng, n)
        sys = random_system(rng, n)
        if max_feasible_singleton(sys, f) <= 0:
            continue
        stream = list(range(n))
        rng.shuffle(stream)
        sieve = SieveGuessStream(sys, f, epsilon=(0.1, 0.5)[rng.randrange(2)])
        for u in stream:
            before = snapshot(sieve)
            evicted = sieve.push([u])
            after = snapshot(sieve)
            assert evicted == expected_evictions(before, after, u)
            assert sieve.stored_count() == len(set().union(*after.values()))
            floor = max(sieve.best_singleton - EPS, sieve.lower_bound)
            assert all(v >= floor for v in after)
            bound_drops += sum(v not in after
                               and v >= sieve.best_singleton - EPS
                               for v in before)
        outcome = sieve.finish()
        assert f.value(outcome.solution) >= sieve.lower_bound
        checked += 1
    assert bound_drops > 0


def test_the_guess_that_sets_the_lower_bound_is_kept():
    # a star whose centre streams first: the greedy rho is 1, so each guess
    # takes all 11 leaves and |S_v| * v / 2 alone would pass every guess
    sys = node_independent_set_system(12, [(0, v) for v in range(1, 12)])
    f = make_modular([0.1] + [1.0] * 11)
    stream = list(range(12))
    rho = _greedy_rho(sys, stream)
    assert rho == 1
    outcome = sieve_streaming(sys, f, stream, rho=rho)
    assert f.value(outcome.solution) == 11.0
