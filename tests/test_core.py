import math

import pytest

from substream import (AutoThresholdSieve, DuplicateElementError, ElementSet,
                       GroundSetError, NumericError, Objective, ThresholdSieve,
                       cardinality_system, make_directed_cut, make_modular,
                       sieve_streaming, weighted_greedy, CutGraph)
from substream.core import EPS, first_best
from substream.prng import SplitMix64


def test_element_set_preserves_insertion_order():
    s = ElementSet([3, 1, 2])
    assert list(s) == [3, 1, 2]
    assert s.sorted_ids() == (1, 2, 3)
    assert 1 in s and 5 not in s


def test_element_set_rejects_duplicates():
    s = ElementSet([0, 1])
    with pytest.raises(DuplicateElementError):
        s.add(0)
    with pytest.raises(DuplicateElementError):
        ElementSet([2, 2])


def test_element_set_equality_ignores_order():
    assert ElementSet([1, 2]) == ElementSet([2, 1])
    assert ElementSet([1, 2]) == {1, 2}
    assert ElementSet([1]) != ElementSet([1, 2])


def test_element_set_not_equal_matches_equality():
    assert not (ElementSet([1, 2]) != {2, 1})
    assert not (ElementSet([1, 2]) != frozenset({1, 2}))
    assert not (ElementSet([1, 2]) != ElementSet([2, 1]))
    assert ElementSet([1]) != {1, 2}
    assert ElementSet([1]) != ElementSet([2])


def test_element_set_never_equals_a_plain_dict():
    assert (ElementSet([1]) == {1: None}) is not True
    assert ({1: None} == ElementSet([1])) is not True
    assert ElementSet([1]) != {1: None}


def test_element_set_ops_keep_type_and_insertion_order():
    s = ElementSet([4, 0, 2])
    for out, expect in ((s.copy(), [4, 0, 2]),
                        (s.union([1, 4], ElementSet([3])), [4, 0, 2, 1, 3]),
                        (s.difference([0, 9]), [4, 2])):
        assert type(out) is ElementSet
        assert list(out) == expect
        with pytest.raises(DuplicateElementError):
            out.add(4)
    assert list(s) == [4, 0, 2]


def test_element_set_is_unhashable():
    with pytest.raises(TypeError):
        hash(ElementSet([1]))
    with pytest.raises(TypeError):
        {ElementSet()}


def test_element_set_ops():
    s = ElementSet([0, 1, 2])
    assert list(s.difference([1])) == [0, 2]
    assert list(s.union([5, 0])) == [0, 1, 2, 5]
    t = s.copy()
    t.remove(0)
    assert 0 in s and 0 not in t


def test_evaluate_empty_cut_is_zero():
    f = make_directed_cut(CutGraph(1, ()))
    assert f.value([0]) == 0.0


def test_evaluate_modular_examples():
    f = make_modular({0: 2, 1: 3})
    assert f.value([0, 1]) == 5.0
    f2 = make_modular({0: 0.5, 1: 2.5, 2: 1})
    assert f2.value([1, 2]) == 3.5


def test_evaluate_cut_example():
    f = make_directed_cut(CutGraph(3, [(0, 1, 1.0), (1, 2, 2.0)]))
    assert f.value([0, 1]) == 2.0


def test_marginal_examples():
    f = make_modular({0: 2})
    assert f.marginal(0, ElementSet()) == 2.0
    g = make_directed_cut(CutGraph(2, [(0, 1, 1.0)]))
    assert g.marginal(1, ElementSet([0])) == -1.0
    assert g.marginal(0, ElementSet()) == 1.0


def test_marginal_rejects_member():
    f = make_modular([1.0, 1.0])
    with pytest.raises(DuplicateElementError):
        f.marginal(0, [0, 1])


def test_unknown_id_raises():
    f = make_modular([1.0, 1.0])
    with pytest.raises(GroundSetError):
        f.value([0, 7])
    with pytest.raises(GroundSetError):
        f.marginal(7, [0])


def test_memoization_serves_cache_without_counting():
    calls = []

    def raw(ids):
        calls.append(ids)
        return float(len(ids))

    f = Objective(raw, 8, monotone=True)
    v1 = f.value([3, 1])
    v2 = f.value([1, 3])
    assert v1 == v2
    assert f.evaluations == 1
    assert len(calls) == 1


def test_cache_eviction_keeps_answers_identical():
    f = Objective(lambda ids: sum(ids) * 0.1, 64, monotone=True,
                  cache_entries=4)
    vals = {key: f.value(key) for key in [(1,), (2,), (3,), (4,), (5,), (6,)]}
    for key, v in vals.items():
        assert f.value(key) == v  # re-evaluated or cached, same bits


def test_marginal_fast_path_counts_one_call():
    f = make_modular([2.0, 3.0])
    before = f.evaluations
    assert f.marginal(1, [0]) == 3.0
    assert f.evaluations == before + 1


def test_marginal_fast_path_matches_eval_difference():
    rng = SplitMix64(11)
    from helpers import random_cut
    f = random_cut(rng, 10)
    slow = Objective(f._fn, 10, monotone=False)
    for _ in range(200):
        members = {u for u in range(10) if rng.random() < 0.4}
        u = rng.randrange(10)
        if u in members:
            continue
        fast = f.marginal(u, members)
        ref = slow.value(members | {u}) - slow.value(members)
        assert abs(fast - ref) <= 1e-9


# --- non-finite oracle values -------------------------------------------

WEIGHTS = [1.0, 0.0, 2.0, 0.5]  # the placeholder at 1 becomes NaN or inf


def _bad_objective(bad: float, fast: bool) -> Objective:
    w = list(WEIGHTS)
    w[1] = bad
    if fast:
        return make_modular(w)
    return Objective(lambda ids: sum(w[u] for u in ids), len(w), monotone=True)


def _threshold_sieve(f):
    comp = ThresholdSieve(cardinality_system(4, 2), f, 2.0, 2)
    comp.push(range(4))
    return comp.finish().solution


def _auto_sieve(f):
    comp = AutoThresholdSieve(cardinality_system(4, 2), f)
    comp.push(range(4))
    return comp.finish().solution


def _sieve_streaming(f):
    return sieve_streaming(cardinality_system(4, 2), f, range(4)).solution


def _weighted_greedy(f):
    return weighted_greedy(f, cardinality_system(4, 2), range(4))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_value_rejects_non_finite(bad):
    f = Objective(lambda ids: bad, 3, monotone=True)
    with pytest.raises(NumericError):
        f.value([0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_marginal_fast_path_rejects_non_finite(bad):
    f = Objective(lambda ids: 0.0, 3, monotone=True,
                  marginal_fn=lambda u, members: bad)
    with pytest.raises(NumericError):
        f.marginal(0, ())


# Each of these used to crash with an unrelated error (NaN: ValueError in
# the sieves; inf: math domain error or OverflowError) or, for the greedy,
# silently return a solution chosen by NaN comparisons.
@pytest.mark.parametrize("fast", [True, False], ids=["marginal_fn", "fn"])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("run", [_threshold_sieve, _auto_sieve,
                                 _sieve_streaming, _weighted_greedy],
                         ids=["threshold_sieve", "auto_sieve",
                              "sieve_streaming", "weighted_greedy"])
def test_algorithms_raise_numeric_error_on_non_finite_oracle(run, bad, fast):
    with pytest.raises(NumericError):
        run(_bad_objective(bad, fast))


def test_first_best_replaces_only_beyond_eps():
    assert first_best([2.0]) == 0
    assert first_best([1.0, 1.0 + 0.5 * EPS, 1.0]) == 0   # within EPS: keep
    assert first_best([1.0, 1.0 + 2 * EPS]) == 1          # beyond EPS: win
    # each step is within EPS of the last, but the third beats the best
    assert first_best([1.0, 1.0 + 0.6e-9, 1.0 + 1.2e-9]) == 2
    assert first_best(iter([3.0, 5.0, 5.0])) == 1
    with pytest.raises(ValueError):
        first_best([])
