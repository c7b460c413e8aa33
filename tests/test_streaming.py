import math

import pytest

from substream import (AdaptiveSieve, AutoThresholdSieve,
                       ContractViolationError, DuplicateElementError,
                       ElementSet, GreedyStream, PreemptionStream,
                       RatioSwapStream, SieveGuessStream, StreamOutcome,
                       ThresholdSieve, brute_force_opt, cardinality_system,
                       cascade_run, contract_audit, exact_rho,
                       knapsack_system, make_modular,
                       node_independent_set_system, repeated_greedy)
from substream.core import EPS, NumericError
from substream.streaming import (_guess_exponent, _level, band_top,
                                 bucket_count, candidate_count)
from substream.prng import SplitMix64

from helpers import (check_groups, max_feasible_singleton, random_cut,
                     random_modular, random_system)


def sieve_for(n=8, rho=2, tau=8.0, weights=None):
    f = make_modular(weights or [1.0] * n)
    sys = cardinality_system(n, rho)
    return ThresholdSieve(sys, f, tau, rho), sys, f


def test_log_helpers_guard_exact_powers():
    assert _level(8.0) == 3
    assert _guess_exponent(8.0) == 3
    assert _level(8.0 / 3.0) == 1
    assert _guess_exponent(5.0) == 3


def _float_floor_log2(x):
    """The float rule the exact band arithmetic replaced."""
    return math.floor(math.log2(x) + 1e-12)


def _float_ceil_log2(x):
    return math.ceil(math.log2(x) - 1e-12)


def test_integer_band_rules_match_the_float_rules_on_a_grid():
    for n in range(1, 3000):
        assert bucket_count(n) == _float_floor_log2(4 * n) + 1
        assert candidate_count(n) == _float_ceil_log2(2 * n + 1)
    for k in range(1, 13):
        for b in range(1, 400):
            assert band_top(k, b) == math.floor(
                2 * math.log2(k * b) + 3 + 1e-12)


def test_integer_band_rules_at_powers_of_two():
    for t in range(2, 70):
        assert bucket_count(2 ** t) == t + 3
        assert bucket_count(2 ** t - 1) == t + 2
        assert candidate_count(2 ** t) == t + 2
        assert candidate_count(2 ** t - 1) == t + 1
        assert band_top(1, 2 ** t) == band_top(2 ** t, 1) == 2 * t + 3
        assert band_top(1, 2 ** t - 1) == 2 * t + 2
    # the float rule's nudge lifts a square just below 2**90 to 2**90
    assert band_top(1, 2 ** 45 - 1) == 92
    assert math.floor(2 * math.log2(2 ** 45 - 1) + 3 + 1e-12) == 93


def test_levels_and_guess_exponents_match_the_float_rules_on_a_grid():
    for i in range(1, 5000):
        x = i / 7.0
        assert _level(x) == _float_floor_log2(x)
        assert _guess_exponent(x) == _float_ceil_log2(x)
        assert _level(8.0 / x) == _float_floor_log2(8.0 / x)


def test_levels_and_guess_exponents_at_powers_of_two():
    for t in range(-1070, 1023):
        x = 2.0 ** t
        below, above = math.nextafter(x, 0.0), math.nextafter(x, math.inf)
        assert (_level(below), _level(x), _level(above)) == (t - 1, t, t)
        assert (_guess_exponent(below), _guess_exponent(x),
                _guess_exponent(above)) == (t, t, t + 1)
    top = 2.0 ** 1023
    assert _level(math.nextafter(top, math.inf)) == _guess_exponent(top) == 1023
    with pytest.raises(NumericError):
        _guess_exponent(math.nextafter(top, math.inf))
    # 0 and infinity lie off every band
    assert _level(0.0) == _level(math.inf) == -1
    assert _float_floor_log2(math.nextafter(8.0, 0.0)) == 3  # one ulp below 8


def test_window_top_is_exact():
    def top(best, k, b):
        auto = AutoThresholdSieve(cardinality_system(4, 4), make_modular(
            [1.0] * 4))
        auto.k, auto.best_singleton = k, best
        auto._lo = _guess_exponent(best)
        auto.base = range(b)
        return auto.active_exponents()

    for i in range(1, 400):
        best = i / 3.0
        for k, b in [(1, 1), (1, 7), (3, 5), (2, 60)]:
            width = 2 * math.log2(k * b) + 5
            hi = math.floor(math.log2(best) + width + 1e-12)
            assert top(best, k, b) == range(_guess_exponent(best), hi + 1)
    for t in range(-20, 40):
        x = 2.0 ** t
        assert top(x, 2, 8).stop - 1 == t + 13
        assert top(math.nextafter(x, 0.0), 2, 8).stop - 1 == t + 12
        assert top(math.nextafter(x, math.inf), 2, 8).stop - 1 == t + 13
    assert top(2.0 ** 1020, 1, 1).stop - 1 == 1023  # 2.0 ** 1024 overflows


def test_band_formula_examples():
    sieve, _, _ = sieve_for(tau=8.0, weights=[3.0, 0.0, 16.0] + [1.0] * 5)
    # gain 3 lands in band floor(log2(8/3)) = 1; a zero gain and gain 16
    # (floor(log2(1/2)) = -1 < 0) fall outside the range and are evicted
    assert sieve.push([0, 1, 2]) == [1, 2]
    assert sieve.buckets == [set(), {0}, set(), set()]


def test_parameters_match_formulas():
    sys = cardinality_system(20, 5)
    f = make_modular([1.0] * 20)
    sieve = ThresholdSieve(sys, f, tau=4.0, rho=5)
    assert sieve.ell == math.floor(math.log2(20))
    assert sieve.h == math.ceil(math.log2(2 * sys.k_param + 1))


def test_candidate_drain_interleaving():
    # h = 2, ell = 3: candidate 0 drains bands 0 and 2, candidate 1 drains 1 and 3
    weights = [6.0, 1.6, 3.0, 0.8, 6.5]
    f = make_modular(weights)
    sys = cardinality_system(5, 4)
    sieve = ThresholdSieve(sys, f, tau=8.0, rho=4)
    assert (sieve.ell, sieve.h) == (4, 2)
    out = sieve.finish(range(5))
    assert sieve.buckets == [{0, 4}, {2}, {1}, {3}, set()]
    c0, c1 = sieve.candidates[0], sieve.candidates[1]
    assert c0 == {0, 4, 1}      # bands 0, 2, 4
    assert c1 == {2, 3}         # bands 1, 3
    assert out.solution == c0


def test_zero_marginal_is_rejected():
    sieve, _, _ = sieve_for(weights=[0.0] * 8)
    out = sieve.finish(range(8))
    assert out.solution == set() and out.summary == set()


def test_gain_ratios_that_overflow_or_underflow_fall_off_every_band():
    # tau / gain is inf for the 1e-5 gain, beyond the deepest band
    sieve, _, _ = sieve_for(n=3, tau=1e307, weights=[1e-5, 1e307, 1.0])
    assert sieve.finish(range(3)).summary == {1}
    # and 0 for the 1e300 gain, above band 0 as the gain of 1 is
    sieve, _, _ = sieve_for(n=2, tau=1e-30, weights=[1e300, 1.0])
    assert sieve.push([0, 1]) == [0, 1]


def test_threshold_sieve_outcome_shape():
    sieve, sys, f = sieve_for(n=6, rho=2, tau=2.0)
    evicted = sieve.push([0, 1, 2])
    out = sieve.finish([3, 4, 5])
    # rejected elements evicted immediately; summary equals kept union
    assert set(evicted) | set(out.residual) | set(out.summary) == set(range(6))
    assert all(u in out.summary for u in out.solution)
    assert sys.is_independent(out.solution)


@pytest.mark.parametrize("tau", [math.nan, math.inf, "1.0", None])
def test_banded_sieves_reject_a_non_finite_tau(tau):
    f = make_modular([1.0] * 4)
    sys = cardinality_system(4, 2)
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        ThresholdSieve(sys, f, tau, 2)
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        AdaptiveSieve(sys, f, tau)


@pytest.mark.parametrize("rho", [2.5, math.nan, math.inf])
def test_threshold_sieve_rejects_a_rho_that_is_not_whole(rho):
    f = make_modular([1.0] * 4)
    with pytest.raises(ValueError, match="field 'rho' must be an integer"):
        ThresholdSieve(cardinality_system(4, 2), f, 2.0, rho)


@pytest.mark.parametrize("rho, message", [
    (0, "rho must be a positive integer"),
    (-3, "rho must be a positive integer"),
    (2.5, "field 'rho' must be an integer, got 2.5"),
])
def test_sieve_guess_stream_rejects_a_rho_below_one_or_not_whole(rho,
                                                                 message):
    f = make_modular([1.0] * 4)
    with pytest.raises(ValueError, match=message):
        SieveGuessStream(cardinality_system(4, 2), f, rho=rho)


def test_whole_float_counts_are_taken_as_ints():
    f = make_modular([1.0] * 4)
    sys = cardinality_system(4, 2)
    assert type(ThresholdSieve(sys, f, 2.0, 3.0).rho) is int
    assert type(SieveGuessStream(sys, f, rho=3.0).rho) is int


def test_push_rejects_duplicates():
    sieve, _, _ = sieve_for()
    sieve.push([0])
    with pytest.raises(DuplicateElementError):
        sieve.push([0])


def test_push_after_finish_is_a_contract_violation():
    sieve, _, _ = sieve_for()
    sieve.finish([0, 1])
    with pytest.raises(ContractViolationError, match="already finished"):
        sieve.push([2])
    with pytest.raises(ContractViolationError, match="already finished"):
        sieve.finish()


def test_telescoping_gain_sum():
    rng = SplitMix64(41)
    for _ in range(25):
        n = 6 + rng.randrange(8)
        f = random_cut(rng, n)
        sys = random_system(rng, n)
        m = max_feasible_singleton(sys, f)
        if m <= 0:
            continue
        events = []
        sieve = ThresholdSieve(sys, f, tau=2 * m, rho=exact_rho(sys),
                               trace=events)
        sieve.finish(range(n))
        total = sum(e[4] for e in events if e[1] == "accept")
        assert abs(total - (f.value(sieve.kept) - f.value(()))) <= 1e-7


def test_kept_value_bound_vs_brute_force():
    rng = SplitMix64(42)
    for _ in range(25):
        n = 6 + rng.randrange(7)
        f = random_cut(rng, n)
        sys = random_system(rng, n)
        m = max_feasible_singleton(sys, f)
        if m <= 0:
            continue
        tau = 2 * m
        sieve = ThresholdSieve(sys, f, tau, rho=exact_rho(sys))
        sieve.finish(range(n))
        star, _ = brute_force_opt(f, sys, range(n))
        union = f.value(set(sieve.kept) | set(star))
        k = sieve.k
        assert f.value(sieve.kept) >= (union - tau / 4) / (2 * k + 1) - 1e-9


def test_candidate_band_mass_bounds():
    # each candidate's value dominates a quarter of its own band mass,
    # with an extra factor k on general k-systems
    rng = SplitMix64(43)
    for _ in range(25):
        n = 6 + rng.randrange(7)
        f = random_modular(rng, n)
        sys = random_system(rng, n)
        m = max_feasible_singleton(sys, f)
        if m <= 0:
            continue
        events = []
        sieve = ThresholdSieve(sys, f, 2 * m, rho=exact_rho(sys),
                               trace=events)
        sieve.finish(range(n))
        accepted_gain = {e[2]: e[4] for e in events if e[1] == "accept"}
        k, h = sieve.k, sieve.h
        factor = 4 * k if sys.class_tag == "k_system" else 4
        for j, cand in enumerate(sieve.candidates):
            mass = sum(accepted_gain[u]
                       for i in range(j, sieve.ell + 1, h)
                       for u in sieve.buckets[i])
            assert f.value(cand) >= mass / factor - 1e-9
            if k >= 4:
                # the weaker per-k form is implied whenever k >= 4
                assert f.value(cand) >= mass / k - 1e-9


def test_adaptive_band_growth_examples():
    sys = cardinality_system(8, 8)
    f = make_modular([1.0] * 8)
    sieve = AdaptiveSieve(sys, f, tau=2.0)
    assert sieve.ell == -1
    sieve.push([0])
    assert sieve.ell == 3          # floor(2 log2(1) + 3)
    sieve.push([1])
    assert sieve.ell == 5          # floor(2 log2(2) + 3)


def test_adaptive_all_singletons_dependent():
    sys = knapsack_system([5.0, 5.0, 5.0], budget=1.0)  # nothing fits
    f = make_modular([1.0, 2.0, 3.0])
    sieve = AdaptiveSieve(sys, f, tau=4.0)
    evicted = sieve.push(range(3))
    out = sieve.finish()
    assert sieve.ell == -1
    assert set(evicted) == {0, 1, 2}  # rejected immediately, never held
    assert out.solution == set() and out.summary == set()
    assert set(out.residual) == set()


def base_size_at(sieve, u):
    """Size of an owned greedy base right after ``u`` arrived, for the
    stream ``range(n)``: the base only grows, in arrival order."""
    return sum(1 for x in sieve.base if x <= u)


def test_adaptive_ignores_low_value_and_dependent_elements():
    rng = SplitMix64(44)
    for _ in range(20):
        n = 6 + rng.randrange(8)
        f = random_modular(rng, n)
        sys = random_system(rng, n)
        m = max_feasible_singleton(sys, f)
        if m <= 0:
            continue
        tau = 2 * m
        sieve = AdaptiveSieve(sys, f, tau)
        sieve.finish(range(n))
        for u in range(n):
            g = base_size_at(sieve, u)
            if not sys.is_independent((u,)):
                assert u not in sieve.kept
            elif g > 0 and f.singleton(u) <= tau / 2 ** (
                    2 * math.log2(sieve.k * g) + 4):
                assert u not in sieve.kept


def gains_outside_bands(sieve, f, n):
    """Arrival gain of every element of the stream ``range(n)`` whose band
    fell outside the sieve's range, replayed from the final state: the gain
    is taken against the accepted prefix, and the range is the one set by
    the base size after the element arrived."""
    gains = {}
    for u in range(n):
        gain = f.marginal(u, ElementSet(x for x in sieve.kept if x < u))
        g = base_size_at(sieve, u)
        ell = math.floor(2 * math.log2(sieve.k * g) + 3 + 1e-12) if g else -1
        if gain <= EPS or not 0 <= _level(sieve.tau / gain) <= ell:
            gains[u] = gain
    return gains


def test_adaptive_out_of_band_mass_bound():
    rng = SplitMix64(45)
    checked = 0
    for _ in range(40):
        n = 6 + rng.randrange(8)
        f = random_cut(rng, n)
        sys = random_system(rng, n)
        m = max_feasible_singleton(sys, f)
        if m <= 0:
            continue
        tau = 2 * m
        sieve = AdaptiveSieve(sys, f, tau)
        sieve.finish(range(n))
        star, _ = brute_force_opt(f, sys, range(n))
        mass = sum(gains_outside_bands(sieve, f, n).get(u, 0.0) for u in star)
        assert mass <= tau / 4 + 1e-9
        checked += 1
    assert checked >= 20


def test_auto_sieve_window_example():
    # best singleton 5, k = 1, base size 2: guesses 2^3 .. 2^9
    sys = cardinality_system(8, 8)
    f = make_modular([5.0, 5.0] + [1.0] * 6)
    auto = AutoThresholdSieve(sys, f)
    auto.push([0, 1])
    assert sorted(auto.copies) == list(range(3, 10))


def test_auto_sieve_window_lists_follow_the_copies():
    # weights grow along the stream, so the window climbs: each step may
    # make copies, drop copies, both or neither
    rng = SplitMix64(61)
    n = 80
    f = make_modular([rng.uniform(0.5, 1.5) * 1.1 ** i for i in range(n)])
    auto = AutoThresholdSieve(cardinality_system(n, 3), f)
    only_dropped = 0
    for u in range(n):
        before = set(auto.copies)
        auto.push([u])
        after = set(auto.copies)
        only_dropped += after < before
        # the groups tile the window in ascending runs of exponents, and
        # each copy reads the state of the group that holds it
        check_groups(auto, auto.active_exponents())
        assert list(auto.copies) == list(auto.active_exponents())
        assert all(c.group in auto._groups and e in c.group.keys
                   and c.kept is c.group.gains.members
                   for e, c in auto.copies.items())
    assert only_dropped > 0


def test_new_top_exponents_join_the_top_group_only_while_it_holds_nothing():
    # the top copy takes an element only if a gain against the empty set
    # rounds above the best singleton; put one in its group by hand
    sys = cardinality_system(8, 8)
    auto = AutoThresholdSieve(sys, make_modular([1.0] * 8))
    auto.push([0])
    top = auto._groups[-1]
    hi = top.keys[-1]
    assert not top.gains.members and not auto.copies[hi].kept
    top.bucket(0, sys).add(7)
    top.gains.add(7)
    auto.push([1])  # the base grows, and so does the window top
    assert auto._groups[-1] is not top and auto._groups[-1].keys[0] == hi + 1
    assert not auto._groups[-1].gains.members and 7 in top.gains.members


def _record_opens(sys):
    """Make ``sys.open()`` append every state it returns to the list
    returned."""
    opened = []
    build = sys._open_fn

    def open_fn(system):
        opened.append(build(system))
        return opened[-1]

    sys._open_fn = open_fn
    return opened


def test_threshold_sieve_opens_a_bucket_state_on_its_first_element():
    sieve, sys, _ = sieve_for(tau=8.0, weights=[3.0, 0.0, 16.0, 2.5] + [1.0] * 4)
    opened = _record_opens(sys)
    sieve.push([1, 2])  # both off every band
    assert opened == []
    assert sieve.buckets == [set(), set(), set(), set()]
    sieve.push([0, 3])  # gains 3 and 2.5 share band 1
    assert [list(state.members) for state in opened] == [[0, 3]]
    assert all(type(b) is ElementSet for b in sieve.buckets)
    assert sieve.buckets == [set(), {0, 3}, set(), set()]


def test_window_run_opens_states_only_for_bands_that_take_an_element():
    rng = SplitMix64(62)
    n = 60
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.1]
    sys = node_independent_set_system(n, edges)
    f = random_cut(rng, n, 0.2)
    opened = _record_opens(sys)
    auto = AutoThresholdSieve(sys, f)
    stream = list(range(n))
    rng.shuffle(stream)
    auto.push(stream)
    # one state never takes an element: the one that tests singletons
    assert [len(state.members) == 0 for state in opened].count(True) == 1
    bands = sum(copy.ell + 1 for copy in auto.copies.values())
    used = sum(1 for copy in auto.copies.values() for b in copy.buckets if b)
    assert 0 < used < bands
    # copies of one group share the state of a level
    shared = sum(1 for g in auto._groups for s in g.buckets.values()
                 if s.members)
    assert shared < used
    assert len(opened) >= 2 + shared  # the base and the singleton test too


def test_auto_sieve_no_feasible_singletons():
    sys = knapsack_system([5.0, 5.0], budget=1.0)
    f = make_modular([1.0, 2.0])
    auto = AutoThresholdSieve(sys, f)
    out = auto.finish(range(2))
    assert not auto.copies and out.solution == set()


def test_auto_sieve_dominates_fixed_threshold_run():
    rng = SplitMix64(46)
    checked = 0
    for _ in range(25):
        n = 6 + rng.randrange(8)
        f = random_modular(rng, n)
        sys = random_system(rng, n)
        m = max_feasible_singleton(sys, f)
        if m <= 0:
            continue
        tau_bar = 2.0 ** _guess_exponent(m)
        fixed = AdaptiveSieve(sys, f, tau_bar)
        v_fixed = f.value(fixed.finish(range(n)).solution)
        auto = AutoThresholdSieve(sys, f)
        v_auto = f.value(auto.finish(range(n)).solution)
        assert v_auto >= v_fixed - 1e-9
        checked += 1
    assert checked >= 15


def test_stream_outcome_contract_validation():
    with pytest.raises(ContractViolationError):
        StreamOutcome(ElementSet([0]), ElementSet([1]), ElementSet())
    with pytest.raises(ContractViolationError):
        StreamOutcome(ElementSet(), ElementSet([1]), ElementSet([1]))


def test_auto_sieve_raises_above_the_largest_guess_before_taking_it():
    sys = cardinality_system(3, 2)
    sieve = AutoThresholdSieve(sys, make_modular([1.0, 1e308, 1.0]))
    sieve.push([0])
    with pytest.raises(NumericError, match="above 2\\*\\*1023"):
        sieve.push([1])
    # neither the base nor a copy took element 1
    assert list(sieve.base) == [0] and sieve.best_singleton == 1.0
    assert sieve.copies and all(1 not in copy.kept
                                for copy in sieve.copies.values())


def test_cascade_single_copy_picks_better_candidate():
    n = 6
    f = make_modular([5.0, 4.0, 3.0, 2.0, 1.0, 0.5])
    sys = cardinality_system(n, 2)
    # stream order puts weak elements first: greedy keeps {4, 5}, the
    # polished summary of a greedy stream is the same two elements, so the
    # cascade answer equals the better of the two
    best = cascade_run([GreedyStream(sys, f)], [4, 5, 0, 1, 2, 3],
                       repeated_greedy).best
    assert f.value(best) == f.value(ElementSet([4, 5]))
    # with a sieve component the offline pass can recover the top pair
    best2 = cascade_run([ThresholdSieve(sys, f, tau=8.0, rho=2)],
                        [4, 5, 0, 1, 2, 3], repeated_greedy).best
    assert f.value(best2) == 9.0


def test_cascade_beats_bare_component():
    rng = SplitMix64(47)
    for _ in range(15):
        n = 6 + rng.randrange(6)
        f = random_modular(rng, n)
        sys = random_system(rng, n)
        m = max_feasible_singleton(sys, f)
        if m <= 0:
            continue
        tau = 2 * m
        rho = exact_rho(sys)
        bare = ThresholdSieve(sys, f, tau, rho)
        v_bare = f.value(bare.finish(range(n)).solution)
        chain = [ThresholdSieve(sys, f, tau, rho) for _ in range(2)]
        best = cascade_run(chain, list(range(n)), repeated_greedy).best
        assert f.value(best) >= v_bare - 1e-9


def test_cascade_elements_flow_to_later_copies():
    n = 6
    f = make_modular([1.0] * n)
    sys = cardinality_system(n, 2)
    chain = [GreedyStream(sys, f) for _ in range(3)]
    trace = cascade_run(chain, list(range(n)),
                        lambda fo, so, ground: ElementSet())
    summaries = [set(o.summary) for o in trace.outcomes]
    assert summaries[0] == {0, 1}
    assert summaries[1] == {2, 3}
    assert summaries[2] == {4, 5}
    assert not (summaries[0] & summaries[1])


def test_cascade_trace_candidate_order_and_determinism():
    n = 8
    rng = SplitMix64(48)
    f = random_modular(rng, n)
    sys = cardinality_system(n, 3)
    t1, t2 = (cascade_run([ThresholdSieve(sys, f, tau=16.0, rho=3)
                           for _ in range(2)], list(range(n)),
                          repeated_greedy) for _ in range(2))
    assert [c[0] for c in t1.candidates] == ["s1", "s1+offline", "s2", "s2+offline"]
    assert sorted(t1.best) == sorted(t2.best)
    assert t1.best_value == t2.best_value


def test_cascade_needs_a_component():
    with pytest.raises(ValueError, match="need at least one component copy"):
        cascade_run([], [0, 1, 2, 3], repeated_greedy)


def test_cascade_rejects_a_dependent_solution():
    class Overfull(GreedyStream):
        def _ingest(self, u):
            self.solution.add(u)  # ignores its own constraint
            return []

    # the second copy keeps two elements where its system allows one
    sys = cardinality_system(4, 1)
    f = make_modular([1.0] * 4)
    chain = [GreedyStream(sys, f), Overfull(sys, f)]
    with pytest.raises(ContractViolationError,
                       match="component returned a dependent solution"):
        cascade_run(chain, [0, 1, 2, 3], repeated_greedy)


@pytest.mark.parametrize("mixed", ["objective", "system"])
def test_cascade_rejects_copies_over_different_inputs(mixed):
    sys = cardinality_system(4, 1)
    f = make_modular([1.0] * 4)
    other_sys = cardinality_system(4, 1) if mixed == "system" else sys
    other_f = make_modular([2.0] * 4) if mixed == "objective" else f
    chain = [GreedyStream(sys, f), GreedyStream(other_sys, other_f)]
    with pytest.raises(ValueError, match="share one system and objective"):
        cascade_run(chain, [0, 1, 2, 3], repeated_greedy)


def test_contract_audit_threshold_sieve_space():
    rng = SplitMix64(49)
    for _ in range(10):
        n = 8 + rng.randrange(8)
        f = random_modular(rng, n)
        sys = random_system(rng, n)
        m = max_feasible_singleton(sys, f)
        if m <= 0:
            continue
        rho = exact_rho(sys)
        sieve = ThresholdSieve(sys, f, 2 * m, rho)
        stream = list(range(n))
        rng.shuffle(stream)
        report = contract_audit(sieve, stream)
        assert report.ok, report.violations
        assert report.peak_stored <= (sieve.ell + 1 + sieve.h) * rho


# every shipped component, built for one instance; tau is the power of
# two in [M, 2M] for the largest feasible singleton value M
AUDITED = {
    "GreedyStream": lambda sys, f, tau: GreedyStream(sys, f),
    "SieveGuessStream": lambda sys, f, tau: SieveGuessStream(sys, f),
    "PreemptionStream": lambda sys, f, tau: PreemptionStream(sys, f),
    "RatioSwapStream": lambda sys, f, tau: RatioSwapStream(sys, f),
    "ThresholdSieve": lambda sys, f, tau: ThresholdSieve(sys, f, tau,
                                                         exact_rho(sys)),
    "AdaptiveSieve": lambda sys, f, tau: AdaptiveSieve(sys, f, tau),
    "AutoThresholdSieve": lambda sys, f, tau: AutoThresholdSieve(sys, f),
}
CARDINALITY_ONLY = ("PreemptionStream", "RatioSwapStream")


@pytest.mark.parametrize("name", list(AUDITED))
def test_contract_audit_over_every_component(name):
    rng = SplitMix64(50 + list(AUDITED).index(name))
    kinds = ("cardinality",) if name in CARDINALITY_ONLY else \
        ("cardinality", "labeled_limit", "knapsack", "node")
    audited = 0
    while audited < 30:
        n = 6 + rng.randrange(9)
        f = random_modular(rng, n) if audited % 2 else random_cut(rng, n)
        sys = random_system(rng, n, kinds)
        m = max_feasible_singleton(sys, f)
        if m <= 0:
            continue
        stream = list(range(n))
        rng.shuffle(stream)
        comp = AUDITED[name](sys, f, 2.0 ** _guess_exponent(m))
        report = contract_audit(comp, stream)
        assert report.ok, report.violations
        assert report.pushed == n
        audited += 1


def test_contract_audit_flags_lost_elements():
    class Lossy(GreedyStream):
        def _ingest(self, u):
            if u % 2 == 0:
                return super()._ingest(u)
            return []  # swallow odd elements silently

    sys = cardinality_system(6, 6)
    f = make_modular([1.0] * 6)
    report = contract_audit(Lossy(sys, f), list(range(6)))
    assert not report.ok
    assert any("lost" in v for v in report.violations)


def test_contract_audit_flags_an_unknown_eviction():
    class EvictsAhead(GreedyStream):
        def _ingest(self, u):
            return super()._ingest(u) + [u + 1]  # not yet pushed

    sys = cardinality_system(6, 6)
    report = contract_audit(EvictsAhead(sys, make_modular([1.0] * 6)),
                            list(range(6)))
    assert not report.ok
    assert "step 0: evicted unknown element 1" in report.violations


def test_contract_audit_flags_an_element_evicted_twice():
    class EvictsAgain(GreedyStream):
        def _ingest(self, u):
            return [u] if u < 2 else [0]  # element 0 goes at steps 0 and 2

    sys = cardinality_system(6, 6)
    report = contract_audit(EvictsAgain(sys, make_modular([1.0] * 6)),
                            list(range(6)))
    assert not report.ok
    assert "step 2: element 0 evicted twice" in report.violations


def test_contract_audit_flags_a_dependent_solution():
    class Overfull(GreedyStream):
        def _ingest(self, u):
            self.solution.add(u)  # ignores the constraint
            return []

    sys = cardinality_system(6, 2)
    report = contract_audit(Overfull(sys, make_modular([1.0] * 6)),
                            list(range(6)))
    assert not report.ok
    assert report.violations == ["solution is not independent"]


def test_trace_records_accepts_and_evictions():
    events = []
    sys = cardinality_system(4, 2)
    f = make_modular([4.0, 4.0, 4.0, 0.0])
    sieve = ThresholdSieve(sys, f, tau=4.0, rho=2, trace=events)
    sieve.finish(range(4))
    kinds = [e[1] for e in events]
    assert kinds.count("accept") == len(sieve.kept)
    assert kinds.count("evict") == 4 - len(sieve.kept)
