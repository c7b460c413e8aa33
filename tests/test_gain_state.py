"""Gain states from ``Objective.open`` against one-off marginals and values.

The cut accumulator subtracts in insertion order, so its gains and losses
may differ from a difference of values in the last bits; they are
compared within a tolerance.  The facility state must give
``fn(S + u) - fn(S)`` exactly; the log-determinant and
coverage-minus-dispersion states sum in member order and are held to
1e-12 relative.  The generic state must return ``Objective.marginal``'s
float exactly, and every state but a tabulated one must return
``f(S) - f(S - x)`` as a loss exactly.  A batch (``Objective.gains``)
must give each state's own gain exactly, count what one ``gain`` call per
state counts and raise what the first failing state raises.
"""

import math

import numpy as np
import pytest

from substream import (CutGraph, KeywordTable, Objective, ReservoirConfig,
                       cardinality_system, make_coverage_minus_dispersion,
                       make_directed_cut, make_facility_location, make_logdet,
                       make_modular, make_sqrt_coverage)
from substream.baselines import SieveGuessStream
from substream.bench import gen_erdos_renyi, gen_watts_strogatz
from substream.core import (AccumulatingGainState, DuplicateElementError,
                            GainState, GroundSetError, NumericError,
                            SizeLimitError, TabulatedGainState)
from substream.objectives import LOGDET_MAX_SUBSET, CutGainState
from substream.prng import SplitMix64

from helpers import TwoLoopCutGainState, random_similarity, sample_oracles


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
    slow = Objective(f._fn, n)
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
            before = f.evaluations
            if u in st.members:
                assert st.loss(u) == w[u]
            else:
                assert st.gain(u) == w[u]
            assert f.evaluations == before + 1

    st = f.open()
    assert isinstance(st, TabulatedGainState)
    _grow(rng, st, 12, 11, check)


@pytest.mark.parametrize("make", [
    lambda: make_directed_cut(CutGraph(3, [(0, 1, 1.0), (1, 2, 2.0)])),
    lambda: make_modular([1.0, 2.0, 3.0]),
    lambda: make_facility_location(random_similarity(SplitMix64(7), 3)),
    lambda: make_logdet(random_similarity(SplitMix64(7), 3), 2.0),
    lambda: make_coverage_minus_dispersion(random_similarity(SplitMix64(7), 3)),
], ids=["cut", "modular", "facility", "logdet", "coverage_minus_dispersion"])
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
    for bad in (-1, 3):
        with pytest.raises(GroundSetError):
            st.swap_values(bad, f.value(st.members))
    with pytest.raises(DuplicateElementError):
        st.swap_values(1, f.value(st.members))
    assert list(st.members) == [1]


def test_generic_state_add_rejects_an_id_outside_the_ground_set():
    st = Objective(lambda ids: float(len(ids)), 3).open()
    assert type(st) is GainState
    for bad in (-1, 3):
        with pytest.raises(GroundSetError):
            st.add(bad)
    assert not st.members


class _SummedGains(AccumulatingGainState):
    """Accumulating state whose gain is a per-element table entry."""

    __slots__ = ("table",)

    def __init__(self, f, table):
        self.table = table
        super().__init__(f)

    def _clear(self):
        pass

    def _absorb(self, u):
        pass

    def _gain(self, u):
        return self.table[u]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_accumulating_gain_rejects_non_finite_gain(bad):
    table = [1.0, bad, 2.0]
    f = Objective(lambda ids: sum(table[u] for u in ids), 3,
                  open_fn=lambda fo: _SummedGains(fo, table))
    st = f.open()
    assert st.gain(0) == 1.0
    with pytest.raises(NumericError, match="non-finite gain"):
        st.gain(1)
    assert f.evaluations == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_modular_gain_rejects_non_finite_weight(bad):
    f = make_modular([1.0, bad, 2.0])
    st = f.open()
    assert st.gain(0) == 1.0
    with pytest.raises(NumericError):
        st.gain(1)
    st.add(1)
    with pytest.raises(NumericError):
        st.loss(1)


def test_slow_path_state_returns_marginal_float():
    rng = SplitMix64(9)
    table = KeywordTable(
        words=[{str(rng.randrange(5)), str(rng.randrange(5))} for _ in range(10)],
        values=[rng.uniform(0.0, 6.0) for _ in range(10)])
    f = make_sqrt_coverage(table)
    ref = make_sqrt_coverage(table)

    def check(st):
        for u in range(10):
            if u not in st.members:
                assert st.gain(u) == ref.marginal(u, st.members)
                assert f.evaluations == ref.evaluations

    st = f.open()
    assert type(st) is GainState
    _grow(rng, st, 10, 9, check)


def _churn(rng, st, n, steps, check):
    """Add or remove a random element ``steps`` times, calling ``check``
    before each step and after the last."""
    for _ in range(steps):
        check(st)
        members = list(st.members)
        if members and (len(members) == n or rng.random() < 0.4):
            st.remove(members[rng.randrange(len(members))])
        else:
            outside = [u for u in range(n) if u not in st.members]
            st.add(outside[rng.randrange(len(outside))])
    check(st)



LOSS_LABELS = [label for label, _ in sample_oracles(SplitMix64(0))] + ["plain"]


def _loss_oracle(label, seed):
    """One oracle of a shipped family, or a plain value function."""
    if label == "plain":
        return Objective(lambda ids: math.sqrt(1.0 + sum(ids)) - 1.0, 10)
    return dict(sample_oracles(SplitMix64(seed), 10))[label]


def _check_losses(f, st):
    """Each member's loss against ``f(S) - f(S - x)``, with its count; a
    non-member's loss raises what its removal raises."""
    tabulated = isinstance(st, TabulatedGainState)
    members = list(st.members)
    for x in members:
        before = f.evaluations
        loss = st.loss(x)
        assert f.evaluations == before + (1 if tabulated else 2)
        expect = f.value(members) - f.value([y for y in members if y != x])
        if tabulated:
            assert abs(loss - expect) <= 1e-12 * max(1.0, abs(expect))
        else:
            assert loss == expect
    for y in (-1, f.n, *(u for u in range(f.n) if u not in st.members)):
        with pytest.raises(KeyError):
            st.remove(y)
        with pytest.raises(KeyError):
            st.loss(y)
    assert list(st.members) == members


@pytest.mark.parametrize("seed", [41, 42])
@pytest.mark.parametrize("label", LOSS_LABELS)
def test_loss_matches_value_difference(label, seed):
    f = _loss_oracle(label, seed)
    _churn(SplitMix64(seed), f.open(), f.n, 40, lambda st: _check_losses(f, st))


class _RemoveSkipsInEdges(CutGainState):
    """A broken cut state: removing x gives back x's out-edge weights only."""

    __slots__ = ()

    def remove(self, x):
        TabulatedGainState.remove(self, x)
        for v, w in self.out_adj[x].items():
            self.gains[v] += w


def test_loss_check_catches_a_cut_remove_that_skips_in_edges():
    f = _loss_oracle("directed_cut", 41)
    fresh = f.open()
    broken = _RemoveSkipsInEdges(f, fresh.gains, fresh.out_adj, fresh.in_adj)
    with pytest.raises(AssertionError):
        _churn(SplitMix64(41), broken, f.n, 40,
               lambda st: _check_losses(f, st))

@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_cut_swap_values_match_fn_after_adds_and_removes(seed):
    rng = SplitMix64(seed)
    n = 14
    g = _random_graph(rng, n, 0.35)
    f = make_directed_cut(g)
    slow = Objective(f._fn, n)

    def close(a, b):
        return abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def check(st):
        members = list(st.members)
        current = slow.value(members)
        for u in range(n):
            if u in st.members:
                continue
            assert close(st.gain(u), slow.value(members + [u]) - current)
            before = f.evaluations
            trials = st.swap_values(u, current)
            assert f.evaluations == before + len(members)
            assert len(trials) == len(members)
            for x, val in zip(members, trials):
                rest = [y for y in members if y != x]
                assert close(val, slow.value(rest + [u]))

    st = f.open()
    _churn(rng, st, n, 60, check)


def test_generic_swap_values_are_value_calls():
    rng = SplitMix64(15)
    m = random_similarity(rng, 9)
    f = make_facility_location(m)
    ref = make_facility_location(m)

    def check(st):
        current = ref.value(st.members)
        assert f.value(st.members) == current
        for u in range(9):
            if u not in st.members:
                trials = st.swap_values(u, current)
                expect = [ref.value([y for y in st.members if y != x] + [u])
                          for x in st.members]
                assert trials == expect
                assert f.evaluations == ref.evaluations

    st = f.open()
    _churn(rng, st, 9, 30, check)


@pytest.mark.parametrize("make", [
    lambda: make_directed_cut(CutGraph(3, [(0, 1, 1.0), (1, 2, 2.0)])),
    lambda: make_modular([1.0, 2.0, 3.0]),
], ids=["cut", "modular"])
def test_removed_element_is_outside_again(make):
    f = make()
    st = f.open()
    st.add(0)
    st.add(1)
    st.remove(0)
    assert list(st.members) == [1]
    assert st.gain(0) == f.marginal(0, {1})
    st.add(0)
    assert list(st.members) == [1, 0]
    with pytest.raises(KeyError):
        st.remove(2)


FEATURE_OBJECTIVES = {
    "facility": make_facility_location,
    "facility_sampled": lambda m: make_facility_location(
        m, ReservoirConfig(r_cap=5, seed=3)),
    "logdet": lambda m: make_logdet(m, 2.0),
    "coverage_minus_dispersion": make_coverage_minus_dispersion,
}


@pytest.mark.parametrize("seed", [21, 22, 23])
@pytest.mark.parametrize("kind", list(FEATURE_OBJECTIVES))
def test_feature_gain_matches_value_difference(kind, seed):
    rng = SplitMix64(seed)
    n = 12
    m = random_similarity(rng, n)
    f = FEATURE_OBJECTIVES[kind](m)
    generic = FEATURE_OBJECTIVES[kind](m)
    fn = f._fn

    def check(st):
        members = list(st.members)
        current = fn(st.members.sorted_ids())
        for u in range(n):
            if u in st.members:
                continue
            before = f.evaluations
            gain = st.gain(u)
            assert f.evaluations == before + 1
            expect = fn(tuple(sorted(members + [u]))) - current
            if kind.startswith("facility"):
                assert gain == expect
            else:
                assert abs(gain - expect) <= 1e-12 * max(1.0, abs(expect))
            reference = GainState(generic)
            for x in members:
                reference.add(x)
            assert st.swap_values(u, current) == reference.swap_values(
                u, current)

    st = f.open()
    assert isinstance(st, GainState) and type(st) is not GainState
    _grow(rng, st, n, n - 1, check)
    _churn(rng, f.open(), n, 40, check)


def test_logdet_state_refuses_more_than_the_oracle_factorizes():
    n = LOGDET_MAX_SUBSET + 2
    f = make_logdet(np.eye(n), 1.0)
    st = f.open()
    for u in range(LOGDET_MAX_SUBSET - 1):
        st.add(u)
    assert st.gain(n - 1) == math.log(2.0)  # I + I on the diagonal
    st.add(LOGDET_MAX_SUBSET - 1)
    with pytest.raises(SizeLimitError):
        f.marginal(LOGDET_MAX_SUBSET, st.members)
    with pytest.raises(SizeLimitError):
        st.gain(LOGDET_MAX_SUBSET)
    with pytest.raises(SizeLimitError):
        st.add(LOGDET_MAX_SUBSET)
    assert len(st.members) == LOGDET_MAX_SUBSET


def test_logdet_state_raises_when_the_factorization_fails():
    # I + 2 * [[0, 1], [1, 0]] = [[1, 2], [2, 1]] has determinant -3
    f = make_logdet(np.array([[0.0, 1.0], [1.0, 0.0]]), 2.0)
    st = f.open()
    assert st.gain(0) == 0.0
    st.add(0)
    with pytest.raises(NumericError):
        f.marginal(1, st.members)
    with pytest.raises(NumericError):
        st.gain(1)
    with pytest.raises(NumericError):
        st.add(1)
    assert list(st.members) == [0]


# ---------------------------------------------------------------------------
# batched gains: Objective.gains against one gain call per state


def _batch_oracles(seed):
    """One oracle of each family with a batched or generic gain path, on
    40 elements; the sampled facility keeps 17 of the 40 rows."""
    rng = SplitMix64(seed)
    n = 40
    sim = random_similarity(rng, n)
    table = KeywordTable(
        words=[{str(rng.randrange(6)), str(rng.randrange(6))} for _ in range(n)],
        values=[rng.uniform(0.0, 6.0) for _ in range(n)])
    return {
        "modular": make_modular([rng.uniform(0.0, 5.0) for _ in range(n)]),
        "cut": make_directed_cut(_random_graph(rng, n, 0.15)),
        "facility": make_facility_location(sim),
        "facility_sampled": make_facility_location(
            sim, ReservoirConfig(r_cap=17, seed=3)),
        "logdet": make_logdet(sim, 2.0),
        "coverage_minus_dispersion": make_coverage_minus_dispersion(sim),
        "sqrt_coverage": make_sqrt_coverage(table),
    }


BATCH_KINDS = list(_batch_oracles(0))


@pytest.mark.parametrize("count", [1, 9, 45])
@pytest.mark.parametrize("kind", BATCH_KINDS)
def test_batched_gains_equal_one_gain_call_per_state(kind, count):
    rng = SplitMix64(100 + count)
    f = _batch_oracles(count)[kind]
    n = f.n
    states = [f.open() for _ in range(count)]
    assert f.gains(0, []) == [] and f.evaluations == 0
    for _ in range(3 * count + 20):
        # grow one state at a time, so the sizes differ and some stay empty
        st = states[rng.randrange(count)]
        outside = [u for u in range(n) if u not in st.members]
        if len(outside) > n // 2:
            st.add(outside[rng.randrange(len(outside))])
        for u in (rng.randrange(n) for _ in range(4)):
            asked = [s for s in states if u not in s.members]
            before = f.evaluations
            batch = f.gains(u, asked)
            middle = f.evaluations
            single = [s.gain(u) for s in asked]
            assert batch == single
            assert [type(g) for g in batch] == [type(g) for g in single]
            assert middle - before == f.evaluations - middle


def _outcome(f, call):
    """(error type, message, queries counted) of a call that must raise."""
    before = f.evaluations
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value), f.evaluations - before


def _assert_same_failure(f, u, states, error):
    batch = _outcome(f, lambda: f.gains(u, states))
    assert batch[0] is error
    assert batch == _outcome(f, lambda: [s.gain(u) for s in states])


@pytest.mark.parametrize("kind", BATCH_KINDS)
def test_batched_gains_raise_what_the_first_failing_state_raises(kind):
    f = _batch_oracles(7)[kind]
    states = [f.open() for _ in range(5)]
    states[2].add(3)
    states[4].add(0)
    for bad in (-1, f.n):
        _assert_same_failure(f, bad, states, GroundSetError)
    for member in (3, 0):
        _assert_same_failure(f, member, states, DuplicateElementError)


def test_batched_gains_raise_on_a_non_finite_table_entry():
    f = make_modular([1.0, math.nan, 2.0])
    states = [f.open() for _ in range(3)]
    _assert_same_failure(f, 1, states, NumericError)
    states[2].add(1)  # the first state fails before the member is reached
    _assert_same_failure(f, 1, states, NumericError)
    states[0].add(1)
    _assert_same_failure(f, 1, states, DuplicateElementError)


def test_batched_gains_raise_on_a_non_finite_facility_gain():
    f = _batch_oracles(7)["facility"]
    states = [f.open() for _ in range(4)]
    for i, st in enumerate(states):
        st.add(i)
    states[2].value = math.nan
    _assert_same_failure(f, 9, states, NumericError)


def test_batched_gains_raise_when_a_logdet_factorization_fails():
    # I + 2 * [[0, 1], [1, 0]] = [[1, 2], [2, 1]] has determinant -3
    f = make_logdet(np.array([[0.0, 1.0], [1.0, 0.0]]), 2.0)
    states = [f.open() for _ in range(3)]
    states[1].add(0)
    _assert_same_failure(f, 1, states, NumericError)
    big = make_logdet(np.eye(LOGDET_MAX_SUBSET + 1), 1.0)
    full = big.open()
    for u in range(LOGDET_MAX_SUBSET):
        full.add(u)
    _assert_same_failure(big, LOGDET_MAX_SUBSET, [big.open(), full],
                         SizeLimitError)


class _PoisonedGains(AccumulatingGainState):
    """Modular gains, except that element 3's gain is NaN in a state
    that does not hold element 0."""

    __slots__ = ("weights",)

    def __init__(self, f, weights):
        self.weights = weights
        super().__init__(f)

    def _clear(self):
        pass

    def _absorb(self, u):
        pass

    def _gain(self, u):
        if u == 3 and 0 not in self.members:
            return math.nan
        return self.weights[u]


def test_sieve_guesses_leave_an_element_whose_batch_fails():
    weights = [0.2, 1.0, 1.0, 1.0]
    f = Objective(lambda ids: sum(weights[u] for u in ids), 4,
                  open_fn=lambda fo: _PoisonedGains(fo, weights))
    stream = SieveGuessStream(cardinality_system(4, 3), f, rho=3)
    stream.push([1, 0])
    holding_zero = [v for v, g in stream.guesses.items() if 0 in g.members]
    # the lowest guesses take 0 and come first, so one gain call per
    # guess would add 3 to them before a later guess raised
    assert holding_zero == list(stream.guesses)[:len(holding_zero)]
    assert 0 < len(holding_zero) < len(stream.guesses)
    with pytest.raises(NumericError):
        stream.push([3])
    assert all(3 not in g.members for g in stream.guesses.values())


CUT_KINDS = ["symmetric", "directed", "mixed", "erdos_renyi", "watts_strogatz"]


def _cut_graph(rng, kind, n=16):
    """A graph of one kind: every edge stored both ways with one weight,
    arcs drawn one way at a time, or a mix of both halves.  The mix joins
    a symmetric part on the lower half of the vertices, whose reverse arcs
    come later in shuffled order, to an upper half with one-way arcs,
    unequal weights in the two directions, parallel arcs and zero weights
    of either sign."""
    if kind == "erdos_renyi":
        return gen_erdos_renyi(n, 0.3, rng.randrange(1000), weight_mode="exp")
    if kind == "watts_strogatz":
        return gen_watts_strogatz(n, 4, 0.3, rng.randrange(1000),
                                  weight_mode="exp")
    edges, later = [], []
    for u in range(n):
        for v in range(u + 1, n):
            w = rng.uniform(0.0, 5.0)
            if kind == "directed":
                for a, b in ((u, v), (v, u)):
                    if rng.random() < 0.3:
                        edges.append((a, b, rng.uniform(0.0, 5.0)))
            elif kind == "symmetric" or v < n // 2:
                if rng.random() < 0.4:
                    edges.append((u, v, w))
                    (edges if kind == "symmetric" else later).append((v, u, w))
            elif u >= n // 2:
                pick = rng.randrange(6)
                if pick == 0:  # one way
                    edges.append((u, v, w) if rng.random() < 0.5 else (v, u, w))
                elif pick == 1:  # unequal weights
                    edges += [(u, v, w), (v, u, w + 1.0)]
                elif pick == 2:  # parallel arcs, in both directions
                    x = rng.uniform(0.0, 5.0)
                    edges += [(u, v, w), (v, u, x), (u, v, x), (v, u, w)]
                elif pick == 3:  # zero weights
                    edges += [(u, v, 0.0), (v, u, -0.0 if w < 2.5 else 0.0)]
                elif pick == 4:
                    edges += [(u, v, w), (v, u, w)]
    rng.shuffle(later)
    return CutGraph(n, tuple(edges + later))


def _same_cut_state(f, st, ref):
    """Gains, losses and swap trials of ``st`` equal the reference's."""
    assert [x.hex() for x in st.gains] == [x.hex() for x in ref.gains]
    members = list(st.members)
    assert list(ref.members) == members
    for x in members:
        assert st.loss(x) == ref.loss(x)
    current = f.value(members)
    for u in range(f.n):
        if u not in st.members:
            assert st.gain(u) == ref.gain(u)
            assert st.swap_values(u, current) == ref.swap_values(u, current)


@pytest.mark.parametrize("seed", [51, 52, 53])
@pytest.mark.parametrize("kind", CUT_KINDS)
def test_cut_state_matches_the_two_loop_reference_exactly(kind, seed):
    rng = SplitMix64(seed)
    g = _cut_graph(rng, kind)
    f = make_directed_cut(g)
    st, ref = f.open(), TwoLoopCutGainState(f, g)
    n = g.n_vertices
    for _ in range(80):
        _same_cut_state(f, st, ref)
        members = list(st.members)
        if members and (len(members) == n or rng.random() < 0.4):
            x = members[rng.randrange(len(members))]
            st.remove(x)
            ref.remove(x)
        else:
            outside = [u for u in range(n) if u not in st.members]
            u = outside[rng.randrange(len(outside))]
            st.add(u)
            ref.add(u)
    _same_cut_state(f, st, ref)


@pytest.mark.parametrize("kind", CUT_KINDS)
def test_cut_shares_a_dict_exactly_where_the_two_dicts_are_equal(kind):
    g = _cut_graph(SplitMix64(7), kind)
    f = make_directed_cut(g)
    st, ref = f.open(), TwoLoopCutGainState(f, g)
    n = g.n_vertices
    for v in range(n):
        # the same edges in the same order as the reference tables
        assert list(st.out_adj[v].items()) == list(ref.out_adj[v].items())
        if st.in_adj[v] is not st.out_adj[v]:
            assert list(st.in_adj[v].items()) == list(ref.in_adj[v].items())
    shared = [st.in_adj[v] is st.out_adj[v] for v in range(n)]
    assert shared == [ref.in_adj[v] == ref.out_adj[v] for v in range(n)]
    if kind == "directed":
        assert not any(shared)
    elif kind == "mixed":
        assert any(shared) and not all(shared)
        # equal dicts whose edges came in different orders are shared too
        assert any(list(ref.in_adj[v]) != list(ref.out_adj[v])
                   for v in range(n) if shared[v])
    else:
        assert all(shared)
