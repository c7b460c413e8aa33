import math

import pytest

from substream import (AutoThresholdSieve, DuplicateElementError, ElementSet,
                       GroundSetError, IndependenceSystem, KeywordTable,
                       NumericError, Objective, ReservoirConfig,
                       SieveGuessStream, ThresholdSieve, build_g1, build_g2,
                       cardinality_system, labeled_limit_system,
                       make_coverage_minus_dispersion, make_directed_cut,
                       make_facility_location, make_logdet, make_modular,
                       make_sqrt_coverage, sieve_streaming,
                       verify_ratio_swap_counterexample, w_sequence,
                       weighted_greedy, CutGraph)
from substream.core import EPS, first_best
from substream.prng import SplitMix64

from helpers import random_cut, random_modular, random_similarity


def test_element_set_preserves_insertion_order():
    s = ElementSet([3, 1, 2])
    assert list(s) == [3, 1, 2]
    assert repr(s) == "ElementSet([3, 1, 2])"
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


def test_value_counts_every_evaluation():
    calls = []

    def raw(ids):
        calls.append(ids)
        return float(len(ids))

    f = Objective(raw, 8)
    assert f.value([3, 1]) == f.value([1, 3]) == 2.0
    assert f.evaluations == 2
    assert calls == [(1, 3), (1, 3)]


def test_slow_path_marginal_counts_two():
    f = Objective(lambda ids: float(sum(ids)), 8)
    assert f.marginal(5, [3, 1]) == 5.0
    assert f.marginal(5, [3, 1]) == 5.0
    assert f.evaluations == 4


@pytest.mark.parametrize("make", [list, lambda ids: (u for u in ids), iter],
                         ids=["list", "generator", "iterator"])
def test_marginal_reads_a_one_shot_subset_once(make):
    f = Objective(lambda ids: len(ids) ** 0.5, 5)
    assert f.marginal(3, make([1, 2])) == 3 ** 0.5 - 2 ** 0.5
    assert f.evaluations == 2
    with pytest.raises(DuplicateElementError):
        f.marginal(2, make([1, 2]))
    assert f.evaluations == 2


def _singleton_objective(label):
    rng = SplitMix64(12)
    if label == "cut":
        return random_cut(rng, 9)
    if label == "modular":
        return random_modular(rng, 9)
    sim = random_similarity(rng, 9)
    if label == "facility":
        return make_facility_location(sim)
    return make_logdet(sim, 2.0)


@pytest.mark.parametrize("label", ["cut", "modular", "facility", "logdet"])
def test_singleton_table_matches_fn_and_counts_every_call(label):
    f = _singleton_objective(label)
    for u in [*range(f.n), *range(f.n)]:
        before = f.evaluations
        assert f.singleton(u) == f._fn((u,))
        assert f.evaluations == before + 1
    for bad in (-1, f.n):
        with pytest.raises(GroundSetError):
            f.singleton(bad)


def _tabled_objective(family, seed):
    """An objective whose builder passes ``table_fn``, over inputs that
    reach the edges of each table: a weight of -0.0, parallel arcs, a
    vertex with no out-edges, and more than 128 sampled facility rows,
    where numpy's pairwise sum splits a row."""
    rng = SplitMix64(seed)
    if family == "modular":
        w = [rng.uniform(0.0, 10.0) for _ in range(12)]
        w[seed % 12] = -0.0
        return make_modular(w)
    if family == "cut":
        n = 10
        edges = [(u, v, rng.uniform(0.1, 5.0)) for u in range(n - 1)
                 for v in range(n) if u != v and rng.random() < 0.3]
        edges += [edges[0], edges[-1],  # parallel arcs
                  (seed % (n - 1), n - 1, -0.0), (n - 2, 0, -0.0)]
        return make_directed_cut(CutGraph(n, edges))  # n - 1 has no out-edges
    n = 9 + 70 * seed
    sim = random_similarity(rng, n)
    if family == "facility":
        return make_facility_location(sim)
    if family == "facility-sampled":
        return make_facility_location(sim, ReservoirConfig(n - seed, seed))
    return make_coverage_minus_dispersion(sim)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("family", ["modular", "cut", "facility",
                                    "facility-sampled", "dispersion"])
def test_singleton_tables_keep_the_bits_of_fn(family, seed):
    f = _tabled_objective(family, seed)
    table = f._table_fn()
    assert len(table) == f.n
    for u in range(f.n):
        bits = float.hex(float(f._fn((u,))))
        assert float.hex(table[u]) == bits
        assert float.hex(f.singleton(u)) == bits
    assert f.evaluations == f.n


def test_logdet_and_sqrt_coverage_have_no_singleton_table():
    sim = random_similarity(SplitMix64(3), 6)
    words = KeywordTable(words=({"a"}, {"a", "b"}), values=(1.0, 4.0))
    for f in (make_logdet(sim, 2.0), make_sqrt_coverage(words)):
        assert f._table_fn is None
        assert f.singleton(1) == f._fn((1,))
        assert f._table is None


def test_a_singleton_table_is_filled_once_on_the_first_singleton():
    calls = []

    def spy():
        calls.append(None)
        return [2.0, 3.0, 5.0]

    f = Objective(lambda ids: float(len(ids)), 3, table_fn=spy)
    assert calls == []
    f.value([0, 1])
    f.value([2])
    assert calls == []
    for u in (2, 0, 2, 1, 0):
        f.singleton(u)
    assert calls == [None]
    assert f.evaluations == 7
    for family in ("modular", "cut", "facility", "facility-sampled",
                   "dispersion"):
        g = _tabled_objective(family, 1)
        g.value([0, 1])
        assert g._table is None
        g.singleton(1)
        assert g._table is not None


@pytest.mark.parametrize("tabled", [True, False], ids=["table", "fn"])
def test_a_table_singleton_keeps_the_checks_of_fn(tabled):
    raw = [1.0, math.nan, -1e-20, -1.0]
    if tabled:
        f = Objective(lambda ids: 0.0, 4, table_fn=lambda: raw)
    else:
        f = Objective(lambda ids: raw[ids[0]], 4)
    with pytest.raises(NumericError, match="non-finite value nan"):
        f.singleton(1)
    assert f.evaluations == 1
    assert float.hex(f.singleton(2)) == float.hex(0.0)
    with pytest.raises(NumericError, match="negative value -1.0"):
        f.singleton(3)
    assert f.singleton(0) == 1.0
    assert f.evaluations == 4
    with pytest.raises(NumericError, match="non-finite value nan"):
        f.singleton(1)
    assert f.evaluations == 5


def test_a_cut_singleton_that_overflows_raises_as_fn_does():
    # vertex 0's two 1e308 out-weights sum to inf, as in the CLI's test
    f = make_directed_cut(CutGraph(3, [(0, 1, 1e308), (0, 2, 1e308),
                                       (1, 2, 1.0)]))
    for ask in (f.singleton, lambda u: f.value([u])):
        with pytest.raises(NumericError,
                           match="^oracle returned non-finite value inf$"):
            ask(0)
    assert f.singleton(1) == 1.0


# --- non-finite oracle values -------------------------------------------

WEIGHTS = [1.0, 0.0, 2.0, 0.5]  # the placeholder at 1 becomes NaN or inf


def _bad_objective(bad: float, fast: bool) -> Objective:
    w = list(WEIGHTS)
    w[1] = bad
    if fast:
        return make_modular(w)
    return Objective(lambda ids: sum(w[u] for u in ids), len(w))


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
    f = Objective(lambda ids: bad, 3)
    with pytest.raises(NumericError):
        f.value([0])


def test_value_clamps_just_below_zero_and_rejects_lower_values():
    assert Objective(lambda ids: -0.5 * EPS, 3).value([0]) == 0.0
    with pytest.raises(NumericError, match="oracle returned negative value"):
        Objective(lambda ids: -2.0 * EPS, 3).value([0])


# Each of these used to crash with an unrelated error (NaN: ValueError in
# the sieves; inf: math domain error or OverflowError) or, for the greedy,
# silently return a solution chosen by NaN comparisons.  The "marginal_fn"
# case is the additive oracle, which reads its gains from its weight table;
# the "fn" case has only a value function.
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


# every whole-count field, with the name its error gives
_TWO_LABELS = [["a"], ["b"]]
_COUNT_FIELDS = {
    "IndependenceSystem.k_param": ("k_param", lambda b: IndependenceSystem(
        lambda s: True, 3, k_param=b, class_tag="matroid")),
    "labeled_limit_system.k_param": ("k_param", lambda b:
                                     labeled_limit_system(_TWO_LABELS, 1, 2,
                                                          k_param=b)),
    "labeled_limit_system.total_limit": ("total_limit", lambda b:
                                         labeled_limit_system(_TWO_LABELS,
                                                              1, b)),
    "labeled_limit_system.per_label_limit": ("per_label_limit", lambda b:
                                             labeled_limit_system(
                                                 _TWO_LABELS, b, 2)),
    "labeled_limit_system.per_label_limit_map": (
        "per_label_limit for label 'b'", lambda b: labeled_limit_system(
            _TWO_LABELS, {"a": 1, "b": b}, 2)),
    "cardinality_system.rho": ("rho", lambda b: cardinality_system(5, b)),
    "ThresholdSieve.rho": ("rho", lambda b: ThresholdSieve(
        cardinality_system(4, 2), make_modular([1.0] * 4), 1.0, b)),
    "SieveGuessStream.rho": ("rho", lambda b: SieveGuessStream(
        cardinality_system(4, 2), make_modular([1.0] * 4), rho=b)),
    "build_g1.rho": ("rho", build_g1),
    "build_g2.rho": ("rho", build_g2),
    "w_sequence.rho": ("rho", w_sequence),
    "verify_ratio_swap_counterexample.rho": (
        "rho", verify_ratio_swap_counterexample),
    "CutGraph.n_vertices": ("n_vertices", lambda b: CutGraph(b, ())),
    "CutGraph.from_arrays.n_vertices": (
        "n_vertices", lambda b: CutGraph.from_arrays(b, [], [], [])),
    "ReservoirConfig.r_cap": ("r_cap", ReservoirConfig),
}


@pytest.mark.parametrize("bad", [0, -1, 0.0])
@pytest.mark.parametrize("case", list(_COUNT_FIELDS))
def test_a_whole_count_below_one_is_rejected(case, bad):
    name, build = _COUNT_FIELDS[case]
    with pytest.raises(ValueError,
                       match=f"^{name} must be a positive integer$"):
        build(bad)


def test_objective_takes_a_whole_float_ground_set_size():
    f = Objective(lambda ids: float(len(ids)), 3.0)
    assert f.n == 3 and type(f.n) is int
    assert f.value([0, 2]) == 2.0


@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf])
def test_objective_rejects_a_fractional_ground_set_size(bad):
    with pytest.raises(ValueError, match="field 'n' must be an integer"):
        Objective(lambda ids: 0.0, bad)


@pytest.mark.parametrize("bad", [0, -2, 0.0])
def test_objective_rejects_an_empty_ground_set(bad):
    with pytest.raises(ValueError, match="ground set must be non-empty"):
        Objective(lambda ids: 0.0, bad)
