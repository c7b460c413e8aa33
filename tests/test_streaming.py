import math

import pytest

from substream import (AdaptiveSieve, AutoThresholdSieve, CascadeConfig,
                       ContractViolationError, DuplicateElementError,
                       ElementSet, GreedyStream, PreemptionStream,
                       RatioSwapStream, SieveGuessStream, StreamOutcome,
                       ThresholdSieve, brute_force_opt, cardinality_system,
                       cascade_run, contract_audit, exact_rho,
                       knapsack_system, make_modular, repeated_greedy)
from substream.core import EPS
from substream.streaming import _ceil_log2, _floor_log2
from substream.prng import SplitMix64

from helpers import (max_feasible_singleton, random_cut, random_modular,
                     random_system)


def sieve_for(n=8, rho=2, tau=8.0, weights=None):
    f = make_modular(weights or [1.0] * n)
    sys = cardinality_system(n, rho)
    return ThresholdSieve(sys, f, tau, rho), sys, f


def test_log_helpers_guard_exact_powers():
    assert _floor_log2(8.0) == 3
    assert _ceil_log2(8.0) == 3
    assert _floor_log2(8.0 / 3.0) == 1
    assert _ceil_log2(5.0) == 3


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


def test_threshold_sieve_outcome_shape():
    sieve, sys, f = sieve_for(n=6, rho=2, tau=2.0)
    evicted = sieve.push([0, 1, 2])
    out = sieve.finish([3, 4, 5])
    # rejected elements evicted immediately; summary equals kept union
    assert set(evicted) | set(out.residual) | set(out.summary) == set(range(6))
    assert all(u in out.summary for u in out.solution)
    assert sys.is_independent(out.solution)


@pytest.mark.parametrize("tau", [math.nan, math.inf])
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


@pytest.mark.parametrize("copies", [2.5, math.nan])
def test_cascade_config_rejects_copies_that_are_not_whole(copies):
    with pytest.raises(ValueError, match="field 'copies' must be an integer"):
        CascadeConfig(copies=copies, component_factory=lambda: None,
                      offline=lambda fo, so, ground: ground)


def test_whole_float_counts_are_taken_as_ints():
    f = make_modular([1.0] * 4)
    sys = cardinality_system(4, 2)
    assert type(ThresholdSieve(sys, f, 2.0, 3.0).rho) is int
    assert type(SieveGuessStream(sys, f, rho=3.0).rho) is int
    cfg = CascadeConfig(copies=2.0, component_factory=lambda: None,
                        offline=lambda fo, so, ground: ground)
    assert type(cfg.copies) is int and cfg.copies == 2


def test_push_rejects_duplicates():
    sieve, _, _ = sieve_for()
    sieve.push([0])
    with pytest.raises(DuplicateElementError):
        sieve.push([0])


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
        if gain <= EPS or not 0 <= _floor_log2(sieve.tau / gain) <= ell:
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
        tau_bar = 2.0 ** _ceil_log2(m)
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


def test_cascade_single_copy_picks_better_candidate():
    n = 6
    f = make_modular([5.0, 4.0, 3.0, 2.0, 1.0, 0.5])
    sys = cardinality_system(n, 2)
    cfg = CascadeConfig(
        copies=1,
        component_factory=lambda: GreedyStream(sys, f),
        offline=lambda fo, so, ground: repeated_greedy(fo, so, ground))
    # stream order puts weak elements first: greedy keeps {4, 5}, the
    # polished summary of a greedy stream is the same two elements, so the
    # cascade answer equals the better of the two
    best = cascade_run(cfg, [4, 5, 0, 1, 2, 3], sys, f).best
    assert f.value(best) == f.value(ElementSet([4, 5]))
    # with a sieve component the offline pass can recover the top pair
    cfg2 = CascadeConfig(
        copies=1,
        component_factory=lambda: ThresholdSieve(sys, f, tau=8.0, rho=2),
        offline=lambda fo, so, ground: repeated_greedy(fo, so, ground))
    best2 = cascade_run(cfg2, [4, 5, 0, 1, 2, 3], sys, f).best
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
        cfg = CascadeConfig(
            copies=2,
            component_factory=lambda: ThresholdSieve(sys, f, tau, rho),
            offline=lambda fo, so, ground: repeated_greedy(fo, so, ground))
        best = cascade_run(cfg, list(range(n)), sys, f).best
        assert f.value(best) >= v_bare - 1e-9


def test_cascade_elements_flow_to_later_copies():
    n = 6
    f = make_modular([1.0] * n)
    sys = cardinality_system(n, 2)
    cfg = CascadeConfig(
        copies=3,
        component_factory=lambda: GreedyStream(sys, f),
        offline=lambda fo, so, ground: ElementSet())
    trace = cascade_run(cfg, list(range(n)), sys, f)
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
    cfg = CascadeConfig(
        copies=2,
        component_factory=lambda: ThresholdSieve(sys, f, tau=16.0, rho=3),
        offline=lambda fo, so, ground: repeated_greedy(fo, so, ground))
    t1 = cascade_run(cfg, list(range(n)), sys, f)
    t2 = cascade_run(cfg, list(range(n)), sys, f)
    assert [c[0] for c in t1.candidates] == ["s1", "s1+offline", "s2", "s2+offline"]
    assert sorted(t1.best) == sorted(t2.best)
    assert t1.best_value == t2.best_value


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
        report = contract_audit(sieve, stream, sys)
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
        comp = AUDITED[name](sys, f, 2.0 ** _ceil_log2(m))
        report = contract_audit(comp, stream, sys)
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
    report = contract_audit(Lossy(sys, f), list(range(6)), sys)
    assert not report.ok
    assert any("lost" in v for v in report.violations)


def test_contract_audit_flags_an_unknown_eviction():
    class EvictsAhead(GreedyStream):
        def _ingest(self, u):
            return super()._ingest(u) + [u + 1]  # not yet pushed

    sys = cardinality_system(6, 6)
    report = contract_audit(EvictsAhead(sys, make_modular([1.0] * 6)),
                            list(range(6)), sys)
    assert not report.ok
    assert "step 0: evicted unknown element 1" in report.violations


def test_contract_audit_flags_an_element_evicted_twice():
    class EvictsAgain(GreedyStream):
        def _ingest(self, u):
            return [u] if u < 2 else [0]  # element 0 goes at steps 0 and 2

    sys = cardinality_system(6, 6)
    report = contract_audit(EvictsAgain(sys, make_modular([1.0] * 6)),
                            list(range(6)), sys)
    assert not report.ok
    assert "step 2: element 0 evicted twice" in report.violations


def test_contract_audit_flags_a_dependent_solution():
    class Overfull(GreedyStream):
        def _ingest(self, u):
            self.solution.add(u)  # ignores the constraint
            return []

    sys = cardinality_system(6, 2)
    report = contract_audit(Overfull(sys, make_modular([1.0] * 6)),
                            list(range(6)), sys)
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
