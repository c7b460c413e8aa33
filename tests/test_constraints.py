import gc
import math
import random
import re
import sys as sys_module
import threading
import tracemalloc
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from substream import (ElementSet, GroundSetError, IndependenceSystem,
                       constraints, planarity,
                       SizeLimitError,
                       cardinality_system, exact_rho,
                       intersect, knapsack_system, labeled_limit_system,
                       make_system, node_independent_set_system,
                       planarity_system, unweighted_greedy)
from substream.constraints import (EXACT_RHO_LIMIT, FeasibilityState,
                                   _KnapsackState,
                                   _NodeState, _PlanarityState)
from substream.planarity import planarity_check
from substream.prng import SplitMix64

from helpers import (count_planarity_tests, exchange_witness,
                     random_independent_set, random_labels, random_system,
                     state_holding)


def test_cardinality_basics():
    sys = cardinality_system(5, 2)
    assert sys.k_param == 1 and sys.class_tag == "matroid"
    assert sys.rho_hint == 2
    assert sys.is_independent([0, 1])
    assert not sys.is_independent([0, 1, 2])


def test_knapsack_k_param_example():
    sys = knapsack_system({0: 3.0, 1: 1.0}, budget=4.0)
    assert sys.k_param == 3
    assert sys.is_independent([0, 1])
    tight = knapsack_system([2.0, 3.0], budget=4.0)
    assert not tight.is_independent([0, 1])


def test_knapsack_rejects_zero_cost():
    with pytest.raises(ValueError):
        knapsack_system([0.0, 1.0], budget=1.0)


def test_a_system_needs_a_known_class_tag():
    with pytest.raises(ValueError, match="class_tag must be one of"):
        IndependenceSystem(_true, 3, k_param=1, class_tag="graphic")


def test_knapsack_needs_a_cost():
    with pytest.raises(ValueError, match="^empty ground set$"):
        knapsack_system([], budget=1.0)


@pytest.mark.parametrize("parts", [1, 3])
def test_make_system_intersects_exactly_two_specs(parts):
    spec = {"type": "cardinality", "n": 2, "rho": 1}
    with pytest.raises(ValueError, match="intersect expects exactly two"):
        make_system({"intersect": [spec] * parts})


@pytest.mark.parametrize("costs, budget, message", [
    ([1.0, 2.0], math.nan, "budget must be positive, got nan"),
    ([1.0, math.nan], 3.0, "knapsack cost nan is not finite"),
    ([1.0, math.inf], 3.0, "knapsack cost inf is not finite"),
])
def test_knapsack_rejects_non_finite_input(costs, budget, message):
    with pytest.raises(ValueError, match=message):
        make_system({"type": "knapsack", "costs": costs, "budget": budget})


def test_planarity_k_param_and_membership():
    k5_edges = list(combinations(range(5), 2))
    sys = planarity_system(5, k5_edges)
    assert sys.k_param == 3 and sys.class_tag == "k_system"
    assert not sys.is_independent(range(10))      # K5 itself
    k4_ids = [i for i, (u, v) in enumerate(k5_edges) if u < 4 and v < 4]
    assert sys.is_independent(k4_ids)             # K4 subset is planar


def test_planarity_is_independent_tests_only_beyond_8_edges(monkeypatch):
    calls = count_planarity_tests(monkeypatch)
    sys = planarity_system(5, list(combinations(range(5), 2)))  # K5
    for size in range(1, 9):
        for ids in combinations(range(10), size):
            assert sys.is_independent(ids)
    assert calls == []
    assert sys.is_independent(range(9)) and calls == [9]
    assert not sys.is_independent(range(10)) and calls == [9, 10]


def test_node_independent_set_path_graph():
    sys = node_independent_set_system(3, [(0, 1), (1, 2)])
    assert sys.k_param == 2
    assert sys.is_independent([0, 2])
    assert not sys.is_independent([0, 1])
    assert unweighted_greedy(sys, [0, 1, 2]) == {0, 2}


def test_labeled_limit_k_param_and_override():
    labels = [{"a", "b"}, {"a"}, {"b"}]
    sys = labeled_limit_system(labels, per_label_limit=1, total_limit=2)
    assert sys.k_param == 3  # max two labels per element, plus one
    assert sys.is_independent([1, 2])
    assert not sys.is_independent([0, 1])  # label "a" over its limit
    forced = labeled_limit_system(labels, 1, 2, k_param=5)
    assert forced.k_param == 5


def test_node_and_label_predicates_match_their_definitions_on_every_subset():
    # compare is_independent with the families' definitions, written out
    # by hand, on all 2**8 subsets
    edges = [(0, 1), (1, 2), (2, 3), (4, 5), (0, 5), (6, 7), (3, 7)]
    nis = node_independent_set_system(8, edges)
    labels = [{"a"}, {"a", "b"}, {"b"}, {"b", "c"}, {"c"}, set(), {"a", "c"},
              {"c"}]
    limits = {"a": 1, "b": 2, "c": 2}
    lab = labeled_limit_system(labels, limits, total_limit=4)
    for size in range(9):
        for s in combinations(range(8), size):
            spans_edge = any(u in s and v in s for u, v in edges)
            assert nis.is_independent(s) == (not spans_edge), s
            within = size <= 4 and all(
                sum(name in labels[u] for u in s) <= cap
                for name, cap in limits.items())
            assert lab.is_independent(s) == within, s


def _edge_list_graph(rng, n, m, isolated=5):
    """``m`` random edges over the first ``n - isolated`` vertices, with
    some of them listed again as given and some reversed."""
    edges = []
    for _ in range(m):
        u, v = rng.sample_indices(n - isolated, 2)
        if rng.random() < 0.5:
            u, v = v, u
        edges.append((u, v))
        if rng.random() < 0.1:
            edges.append((u, v))
        if rng.random() < 0.1:
            edges.append((v, u))
    return edges


def test_node_predicate_and_states_match_the_edge_list():
    # the edge list is the reference: a set is independent when it holds
    # both ends of no edge.  Ids run past 64 and 256, so masks span
    # several machine words
    rng = SplitMix64(1824)
    for n, m in ((70, 160), (300, 700)):
        edges = _edge_list_graph(rng, n, m)
        sys = node_independent_set_system(n, edges)

        def independent(s):
            return not any(u in s and v in s for u, v in edges)

        for u, v in edges[:50]:
            assert not sys.is_independent((u, v)), (u, v)
        for _ in range(50):
            s = set(rng.sample_indices(n, 1 + rng.randrange(4)))
            assert sys.is_independent(s) == independent(s), s
        for _ in range(3):
            state = sys.open()
            order = list(range(n))
            rng.shuffle(order)
            for u in order:
                members = state.members
                fits = independent(set(members) | {u})
                assert sys.is_independent(list(members) + [u]) == fits, u
                assert sys.can_add(u, members) == fits, u
                assert state.can_add(u) == fits, u
                if fits:
                    state.add(u)
            assert sys.is_independent(state.members)
            isolated = range(n - 5, n)
            assert set(isolated) <= set(state.members), isolated


def test_node_systems_answer_numpy_ids_as_python_ints():
    # 1 << np.int64(100) is np.int64(0), and shifting a Python int of more
    # than 64 bits by a numpy id overflows
    sys = node_independent_set_system(200, [(i, i + 1) for i in range(199)])
    assert not sys.is_independent(np.array([100, 101]))
    for ids in ([64, 66], [64, 65], [100, 102, 199], [150, 152, 153]):
        assert sys.is_independent(np.array(ids)) is sys.is_independent(ids)
    state = sys.open()
    state.add(np.int64(100))
    state.add(np.int64(70))
    assert list(state.members) == [100, 70]
    for u in (64, 69, 71, 99, 101, 102, 199):
        expected = u not in (69, 71, 99, 101)
        assert state.can_add(np.int64(u)) is expected, u
        assert state.can_add(u) is expected, u
        assert sys.can_add(np.int64(u), state.members) is expected, u
        assert sys.can_add(np.int64(u), [100, 70]) is expected, u
    state.add(np.int64(199))
    assert not state.can_add(np.int64(198)) and state.can_add(np.int64(197))


def test_node_system_keeps_only_its_masks():
    # one mask per vertex, as wide as its highest neighbour id: about
    # 0.05 MiB here, where neighbour sets would keep about 4 MiB more
    rng = SplitMix64(1825)
    pairs = list(combinations(range(500), 2))
    edges = [pairs[i] for i in rng.sample_indices(len(pairs), 25_000)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sys = node_independent_set_system(500, edges)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sys.k_param > 1
    assert kept < 0.5 * 2**20, kept


def test_intersect_examples():
    a = cardinality_system(6, 2)
    b = cardinality_system(6, 3)
    both = intersect(a, b)
    assert both.k_param == 2
    assert both.class_tag == "k_system"
    assert both.is_independent([0, 5])
    assert not both.is_independent([0, 1, 2])
    wide = intersect(a, cardinality_system(6, 6))
    for size in range(4):
        subset = list(range(size))
        assert wide.is_independent(subset) == a.is_independent(subset)


def test_intersect_requires_same_ground():
    with pytest.raises(GroundSetError):
        intersect(cardinality_system(3, 1), cardinality_system(4, 1))


def test_make_system_dispatch():
    assert make_system({"type": "cardinality", "n": 4, "rho": 2}).rho_hint == 2
    knap = make_system({"type": "knapsack", "costs": [3.0, 1.0], "budget": 4.0})
    assert knap.k_param == 3
    combo = make_system({"intersect": [
        {"type": "cardinality", "n": 4, "rho": 2},
        {"type": "knapsack", "costs": [1.0, 1.0, 2.0, 2.0], "budget": 3.0}]})
    assert combo.k_param == 1 + 2


@pytest.mark.parametrize("spec, field", [
    ({"type": "cardinality", "rho": 2}, "n"),
    ({"type": "knapsack", "costs": [1.0]}, "budget"),
    ({"type": "node_independent_set", "n": 3}, "edges"),
    ({"type": "planarity", "edges": [[0, 1]]}, "n_vertices"),
    ({"type": "labeled_limit", "labels": [[0]], "total_limit": 1},
     "per_label_limit"),
    ({"intersect": [{"type": "cardinality", "n": 2, "rho": 1},
                    {"type": "knapsack", "budget": 1.0}]}, "costs"),
])
def test_make_system_names_missing_field(spec, field):
    with pytest.raises(ValueError, match=f"missing field '{field}'"):
        make_system(spec)


_INT_FIELD_SPECS = {
    "n": {"type": "cardinality", "n": 4, "rho": 2},
    "rho": {"type": "cardinality", "n": 4, "rho": 2},
    "total_limit": {"type": "labeled_limit", "labels": [["a"], ["b"]],
                    "per_label_limit": 1, "total_limit": 2},
    "per_label_limit": {"type": "labeled_limit", "labels": [["a"], ["b"]],
                        "per_label_limit": 1, "total_limit": 2},
    "k_param": {"type": "labeled_limit", "labels": [["a"], ["b"]],
                "per_label_limit": 1, "total_limit": 2, "k_param": 2},
    "n_vertices": {"type": "planarity", "n_vertices": 3,
                   "edges": [[0, 1], [1, 2]]},
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, 2.7, "4"])
@pytest.mark.parametrize("name", list(_INT_FIELD_SPECS))
def test_make_system_rejects_non_integer_field(name, bad):
    spec = dict(_INT_FIELD_SPECS[name])
    make_system(spec)  # the unchanged spec is valid
    spec[name] = bad
    with pytest.raises(ValueError,
                       match=f"field '{name}' must be an integer, got {bad!r}"):
        make_system(spec)


_KNAPSACK = {"type": "knapsack", "costs": [1.0, 2.0], "budget": 2.0}


@pytest.mark.parametrize("bad", [math.inf, "5", b"5", [2.0]])
def test_make_system_rejects_a_budget_that_is_no_finite_number(bad):
    make_system(_KNAPSACK)  # the unchanged spec is valid
    with pytest.raises(ValueError, match=re.escape(
            f"field 'budget' must be a finite number, got {bad!r}")):
        make_system({**_KNAPSACK, "budget": bad})


@pytest.mark.parametrize("bad", ["1", b"1", None, [1.0]])
def test_make_system_rejects_a_cost_that_is_no_number(bad):
    with pytest.raises(ValueError, match=re.escape(
            f"field 'costs' at index 1 must be a finite number, got {bad!r}")):
        make_system({**_KNAPSACK, "costs": [1.0, bad]})


def test_knapsack_fields_take_any_real_number():
    sys = make_system({"type": "knapsack", "costs": [np.float32(1.0), 2, True],
                       "budget": np.int64(3)})
    assert sys.is_independent([0, 1]) and not sys.is_independent([0, 1, 2])


def test_make_system_integer_fields():
    assert make_system({"type": "cardinality", "n": 4.0,
                        "rho": np.int64(2)}).rho_hint == 2
    sys = make_system({"type": "node_independent_set", "n": 3.0,
                       "edges": [[0, 1]]})
    assert sys.n == 3
    with pytest.raises(ValueError, match="field 'n' must be an integer"):
        make_system({"type": "node_independent_set", "n": 3.5, "edges": []})
    spec = dict(_INT_FIELD_SPECS["per_label_limit"],
                per_label_limit={"a": 1, "b": 1.5})
    with pytest.raises(ValueError,
                       match="field 'per_label_limit' for label 'b' must be "
                             "an integer, got 1.5"):
        make_system(spec)
    spec["per_label_limit"] = {"a": 1, "b": 2.0}
    assert make_system(spec).is_independent([0, 1])


_TWO_LABELS = [["a"], ["b"]]
_BOUNDED_CONSTRUCTORS = {
    "rho": lambda b: cardinality_system(5, b),
    "per_label_limit": lambda b: labeled_limit_system(_TWO_LABELS, b, 2),
    "per_label_limit_map": lambda b: labeled_limit_system(
        _TWO_LABELS, {"a": 1, "b": b}, 2),
    "total_limit": lambda b: labeled_limit_system(_TWO_LABELS, 1, b),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, 2.7])
@pytest.mark.parametrize("name", list(_BOUNDED_CONSTRUCTORS))
def test_constructors_reject_non_integer_bound(name, bad):
    field = name.removesuffix("_map")
    with pytest.raises(ValueError, match=f"field '{field}'.*must be an "
                                         f"integer, got {bad!r}"):
        _BOUNDED_CONSTRUCTORS[name](bad)


def _true(s):
    return True


_SYSTEM_INT_ARGS = {
    "n=2.5": (lambda: IndependenceSystem(_true, 2.5, k_param=1,
                                         class_tag="matroid"), "custom", "n"),
    "n=nan": (lambda: IndependenceSystem(_true, math.nan, k_param=1,
                                         class_tag="matroid"), "custom", "n"),
    "k_param=1.7": (lambda: IndependenceSystem(_true, 3, k_param=1.7,
                                               class_tag="matroid"),
                    "custom", "k_param"),
    "k_param=nan": (lambda: IndependenceSystem(_true, 3, k_param=math.nan,
                                               class_tag="matroid"),
                    "custom", "k_param"),
    "labeled k_param=2.5": (lambda: labeled_limit_system(
        _TWO_LABELS, 1, 2, k_param=2.5), "labeled_limit", "k_param"),
    "cardinality n=4.5": (lambda: cardinality_system(4.5, 2),
                          "cardinality", "n"),
    "node_independent_set n=2.5": (lambda: node_independent_set_system(
        2.5, [(0, 1)]), "node_independent_set", "n"),
    "planarity n_vertices=2.5": (lambda: planarity_system(
        2.5, [(0, 1), (1, 2)]), "planarity", "n_vertices"),
}


@pytest.mark.parametrize("case", list(_SYSTEM_INT_ARGS))
def test_systems_reject_non_integer_n_and_k_param(case):
    build, kind, field = _SYSTEM_INT_ARGS[case]
    with pytest.raises(ValueError, match=f"^{kind} spec field '{field}' "
                                         "must be an integer"):
        build()


def test_systems_take_integral_n_and_k_param_as_int():
    sys = IndependenceSystem(_true, 3.0, k_param=np.int64(2),
                             class_tag="matroid")
    assert (sys.n, sys.k_param) == (3, 2)
    assert type(sys.n) is int and type(sys.k_param) is int
    with pytest.raises(GroundSetError):
        sys.can_add(3, ())
    sys = cardinality_system(4.0, 5)
    assert (sys.n, sys.rho_hint) == (4, 4) and type(sys.rho_hint) is int


def test_constructors_accept_integral_float_bounds():
    sys = cardinality_system(5, 3.0)
    assert sys.rho_hint == 3 and type(sys.rho_hint) is int
    assert sys.is_independent([0, 1, 2]) and not sys.is_independent(range(4))
    for build in (_BOUNDED_CONSTRUCTORS["per_label_limit"],
                  _BOUNDED_CONSTRUCTORS["per_label_limit_map"],
                  _BOUNDED_CONSTRUCTORS["total_limit"]):
        sys = build(2.0)
        assert sys.is_independent([0, 1])


def test_can_add_agrees_with_membership():
    rng = SplitMix64(99)
    for _ in range(40):
        n = 5 + rng.randrange(6)
        sys = random_system(rng, n)
        members = random_independent_set(rng, sys)
        for u in range(n):
            if u in members:
                continue
            expected = sys.is_independent(list(members) + [u])
            assert sys.can_add(u, members) == expected


def test_custom_can_add_falls_back_to_the_whole_set_test():
    # a custom system has no state of its own: can_add asks
    # is_independent of S + u
    weights = [3, 1, 4, 1, 5, 9, 2, 6]
    sys = IndependenceSystem(lambda s: sum(weights[u] for u in s) <= 10, 8,
                             k_param=2, class_tag="k_system")
    rng = SplitMix64(101)
    for _ in range(30):
        members = random_independent_set(rng, sys)
        for u in range(sys.n):
            expected = (u not in members
                        and sys.is_independent(list(members) + [u]))
            assert sys.can_add(u, members) is expected
    for bad in (-1, sys.n):
        with pytest.raises(GroundSetError):
            sys.can_add(bad, ())


def test_labeled_limit_map_must_cover_every_label():
    message = ("labeled_limit spec field 'per_label_limit' has no limit for "
               "label 'b'")
    with pytest.raises(ValueError, match=message):
        labeled_limit_system([["a"], ["b"]], {"a": 1}, 2)
    with pytest.raises(ValueError, match=message):
        make_system({"type": "labeled_limit", "labels": [["a"], ["b", "c"]],
                     "per_label_limit": {"a": 1, "c": 1}, "total_limit": 2})
    # a limit for a label nobody carries is harmless
    sys = labeled_limit_system([["a"], ["b"]], {"a": 1, "b": 1, "z": 1}, 2)
    assert sys.is_independent([0, 1])


def _subdivide(edges, count, rng):
    """Replace ``count`` random edges by two-edge paths through new vertices."""
    edges = list(edges)
    fresh = 1 + max(max(e) for e in edges)
    for _ in range(count):
        u, v = edges.pop(rng.randrange(len(edges)))
        edges += [(u, fresh), (fresh, v)]
        fresh += 1
    return edges


def _random_graph(rng, n, p, offset=0):
    return [(offset + u, offset + v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < p]


def _planarity_instances(rng):
    k5 = list(combinations(range(5), 2))
    k33 = [(u, v) for u in range(3) for v in range(3, 6)]
    yield k5
    yield k33
    for count in (1, 2, 4):
        yield _subdivide(k5, count, rng)
        yield _subdivide(k33, count, rng)
    for _ in range(8):
        yield _random_graph(rng, 6 + rng.randrange(9), rng.uniform(0.3, 0.9))
    for _ in range(4):
        # two dense blocks and a few edges between them
        a, b = 5 + rng.randrange(3), 5 + rng.randrange(3)
        edges = _random_graph(rng, a, 0.8) + _random_graph(rng, b, 0.8, a)
        edges += [(rng.randrange(a), a + rng.randrange(b)) for _ in range(3)]
        yield sorted(set(edges))


def _grow_and_compare(sys, edges, rng, extra=lambda u, members: True):
    """Offer the edges in random order, keeping each one that fits.  After
    every acceptance, ask a state holding the members (:func:`state_holding`)
    about every non-member in random order.  Some edges are asked again
    right away, of states holding a random subset of the members and then
    the members themselves; the first edge is asked once more after all
    the others."""

    def expected(u, members):
        return (planarity_check([edges[i] for i in members] + [edges[u]])
                and extra(u, members))

    members = ElementSet()
    offers = list(range(len(edges)))
    rng.shuffle(offers)
    for offered in offers:
        if not expected(offered, members):
            assert not state_holding(sys, members).can_add(offered)
            continue
        assert state_holding(sys, members).can_add(offered)
        members.add(offered)
        others = [u for u in range(len(edges)) if u not in members]
        rng.shuffle(others)
        for u in others:
            asks = [members]
            if rng.random() < 0.3:
                asks += [{x for x in members if rng.random() < 0.7},
                         list(members)]
            for asked in asks:
                assert (state_holding(sys, asked).can_add(u)
                        == expected(u, asked)), (u, asked)
        if others:
            u = others[0]
            assert (state_holding(sys, members).can_add(u)
                    == expected(u, members))


def test_planarity_can_add_agrees_with_full_test():
    rng = SplitMix64(2024)
    for edges in _planarity_instances(rng):
        n_vertices = 1 + max(max(e) for e in edges)
        _grow_and_compare(planarity_system(n_vertices, edges), edges, rng)


def test_planarity_knapsack_can_add_agrees_with_full_test():
    rng = SplitMix64(77)
    for edges in _planarity_instances(rng):
        n_vertices = 1 + max(max(e) for e in edges)
        costs = [float(rng.randint(1, 4)) for _ in edges]
        budget = 0.6 * sum(costs)
        sys = intersect(planarity_system(n_vertices, edges),
                        knapsack_system(costs, budget))

        def fits(u, members):
            return sum(costs[x] for x in members) + costs[u] <= budget + 1e-12

        _grow_and_compare(sys, edges, rng, fits)


def _oracle_block(edges, u, members):
    """networkx's biconnected component of ``members + u`` that holds u."""
    graph = nx.Graph()
    graph.add_edges_from(edges[i] for i in members)
    graph.add_edge(*edges[u])
    ab = frozenset(edges[u])
    for component in nx.biconnected_component_edges(graph):
        block = {frozenset(e) for e in component}
        if ab in block:
            return block
    raise AssertionError("no block holds the new edge")


def _blocky_graph(rng):
    """Dense pieces chained by bridges, pendant edges and a separate
    component, plus random chords among all their vertices."""
    edges = []
    pieces = []
    n = 0
    for _ in range(1 + rng.randrange(3)):
        size = 3 + rng.randrange(4)
        edges += _random_graph(rng, size, 0.7, n)
        pieces.append(range(n, n + size))
        n += size
    for left, right in zip(pieces, pieces[1:]):
        edges.append((left[rng.randrange(len(left))],
                      right[rng.randrange(len(right))]))
    for _ in range(rng.randrange(4)):
        edges.append((rng.randrange(n), n))
        n += 1
    edges += _random_graph(rng, 4, 0.8, n)
    n += 4
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(6)]
    distinct = {}
    for x, y in edges:
        if x != y:
            distinct.setdefault(frozenset((x, y)), (x, y) if rng.random() < 0.5
                                else (y, x))
    return list(distinct.values())


def test_merged_block_matches_networkx():
    rng = SplitMix64(4242)
    for _ in range(300):
        if rng.random() < 0.7:
            edges = _blocky_graph(rng)
        else:
            edges = _random_graph(rng, 3 + rng.randrange(10),
                                  rng.uniform(0.1, 0.9)) or [(0, 1)]
        sys = planarity_system(1 + max(max(e) for e in edges), edges)
        for _ in range(5):
            u = rng.randrange(len(edges))
            keep = rng.uniform(0.3, 1.0)
            members = [i for i in range(len(edges))
                       if i != u and rng.random() < keep]
            block, n_block = state_holding(sys, members).merged_block(u)
            expected = _oracle_block(edges, u, members)
            assert len(block) == len(set(block))
            assert set(block) <= set(members)
            assert {frozenset(edges[i]) for i in block} | {
                frozenset(edges[u])} == expected
            assert n_block == len(set().union(*expected))



_K4 = list(combinations(range(4), 2))
_K33_LESS_AN_EDGE = [(x, y) for x in range(3) for y in range(3, 6)][1:]


def _block_chain(rng, n, count):
    """``count`` blocks on fresh vertices from ``n`` on, each K4 or K3,3
    less an edge.  Each block after the first shares a cut vertex with an
    earlier block (mostly the one before) or hangs from it by a bridge.
    Returns the edges and the next fresh vertex."""
    edges, blocks = [], []
    for _ in range(count):
        shape = _K4 if rng.random() < 0.5 else _K33_LESS_AN_EDGE
        names = list(range(n, n + 1 + max(map(max, shape))))
        n += len(names)
        rng.shuffle(names)
        if blocks:
            below = blocks[-1] if rng.random() < 0.7 else rng.choice(blocks)
            glue = rng.choice(below)
            if rng.random() < 0.7:
                names[0] = glue
            else:
                edges.append((glue, names[0]))
        blocks.append(names)
        edges += [(names[x], names[y]) for x, y in shape]
    return edges, n


def _cactus(rng, n, count):
    """``count`` cycles of 3 to 5 vertices, each after the first sharing
    one vertex with the earlier ones, from vertex ``n`` on."""
    edges, vertices = [], [n]
    n += 1
    for _ in range(count):
        fresh = range(n, n + 2 + rng.randrange(3))
        cycle = [rng.choice(vertices), *fresh]
        n += len(cycle) - 1
        vertices += cycle[1:]
        edges += zip(cycle, cycle[1:] + cycle[:1])
    return edges, n


def _two_trees_and_their_links(rng):
    """Two connected graphs of many blocks, block chains or cacti, whose
    edges come first in random order, then a few edges between the two
    and chords inside each, in random order: the first edge between the
    two is a bridge joining two trees of blocks.  Endpoints are flipped
    at random."""
    parts, n = [], 0
    for _ in range(2):
        if rng.random() < 0.5:
            part, end = _block_chain(rng, n, 3)
        else:
            part, end = _cactus(rng, n, 4)
        parts.append((part, range(n, end)))
        n = end
    (left, left_range), (right, right_range) = parts
    links = [(rng.choice(left_range), rng.choice(right_range))
             for _ in range(3)]
    for _, vertices in parts:
        links += [(rng.choice(vertices), rng.choice(vertices))
                  for _ in range(2)]
    seen, edges = set(), []
    for x, y in rng.sample(left + right, len(left + right)) + rng.sample(
            links, len(links)):
        if x != y and frozenset((x, y)) not in seen:
            seen.add(frozenset((x, y)))
            edges.append((x, y) if rng.random() < 0.5 else (y, x))
    return edges


def _forest_faults(state, edges):
    """The blocks of a planarity state's forest that break its rules: a
    block's head is one of its vertices, the block is the parent of each
    of its other vertices, and every climb reaches a root within as many
    steps as there are blocks."""
    find, vb, head = state._find, state.vb, state.head
    faults = []
    for x, block in state.block_edges.items():
        vertices = {v for i in block for v in edges[i]}
        if (len(vertices) != state.n_vertices[x] or head[x] not in vertices
                or any(find(vb[v]) != x for v in vertices - {head[x]})):
            faults.append(x)
    for v in vb:
        above = v
        for _ in range(len(state.block_edges) + 1):
            if vb[above] is None:
                break
            above = head[find(vb[above])]
        else:
            faults.append(("no root above", v))
    return faults


def test_planarity_forest_follows_block_chains_and_cacti():
    # every edge is offered in the order built; before each offer, every
    # non-member's answer and merged block must match the whole-set test
    # and networkx, through bridges that reroot a tree and links that
    # merge long block paths
    rng = random.Random(4343)
    answers = set()
    for _ in range(10):
        edges = _two_trees_and_their_links(rng)
        sys = planarity_system(1 + max(map(max, edges)), edges)
        state = sys.open()
        for offered in range(len(edges)):
            members = state.members
            for u in range(len(edges)):
                if u in members:
                    continue
                answer = state.can_add(u)
                assert answer == sys.can_add(u, members), (u, list(members))
                answers.add(answer)
                block, n_block = state.merged_block(u)
                expected = _oracle_block(edges, u, members)
                assert {frozenset(edges[i]) for i in block} | {
                    frozenset(edges[u])} == expected, (u, list(members))
                assert n_block == len(set().union(*expected))
            if state.can_add(offered):
                state.add(offered)
                assert _forest_faults(state, edges) == [], offered
    assert answers == {True, False}

_K33 = [(x, y) for x in range(3) for y in range(3, 6)]


def test_planarity_answers_depend_on_the_block_edges_not_its_vertices():
    # both member sets are one block on the vertices 0..5 with the same new
    # edge, and only one of them closes a K3,3; a memo keyed by the block's
    # vertices would give the second query the first one's answer
    ab = (0, 3)
    closes_k33 = [e for e in _K33 if e != ab]
    stays_planar = [e for e in closes_k33 if e != (1, 4)] + [(0, 1)]
    edges = _K33 + [(0, 1)]
    ids = {e: i for i, e in enumerate(edges)}
    bad = [ids[e] for e in closes_k33]
    good = [ids[e] for e in stays_planar]
    for order in ((bad, good), (good, bad)):
        sys = planarity_system(6, edges)
        for members in order:
            assert (state_holding(sys, members).can_add(ids[ab])
                    == (members is good))


_K5 = list(combinations(range(5), 2))


@pytest.mark.parametrize("block, pendant, ab", [
    ([e for e in _K5 if e != (0, 1)], (1, 5), (5, 0)),
    ([e for e in _K5 if e != (0, 1)], (1, 5), (0, 5)),
    ([e for e in _K33 if e != (0, 3)], (3, 6), (6, 0)),
    ([e for e in _K33 if e != (0, 3)], (3, 6), (0, 6)),
])
def test_planarity_tests_every_block_on_the_path(block, pendant, ab):
    # the members are a block and a pendant edge hanging from it, and the
    # new edge closes a cycle through both: either block with ab is planar,
    # only their merge is a subdivided K5 or K3,3
    edges = block + [pendant, ab]
    sys = planarity_system(1 + max(max(e) for e in edges), edges)
    u = len(edges) - 1
    for part in block, [pendant]:
        assert planarity_check(part + [ab])
    assert not state_holding(sys, range(u)).can_add(u)
    assert not sys.is_independent(range(len(edges)))


def test_planarity_block_answers_are_shared_until_fresh(monkeypatch):
    calls = count_planarity_tests(monkeypatch)
    edges = _K33 + [(5, 6), (4, 7)]
    u = edges.index((0, 3))
    block = [i for i in range(len(_K33)) if i != u]
    one, other = block + [len(_K33)], block + [len(_K33) + 1]
    sys = planarity_system(8, edges)
    assert not state_holding(sys, one).can_add(u) and calls == [9]
    # the members differ outside the block: the answer is kept
    assert not state_holding(sys, other).can_add(u) and len(calls) == 1
    # asking about another edge in between keeps the block answer
    assert state_holding(sys, other).can_add(len(_K33)) and len(calls) == 1
    assert not state_holding(sys, one).can_add(u) and len(calls) == 1
    assert not state_holding(sys.fresh(), one).can_add(u) and len(calls) == 2


def test_planarity_can_add_stays_exact_under_concurrent_queries():
    # threads ask states of one system, which share its memo, and each
    # state is asked by several threads at once; every answer must still
    # be the full test's
    rng = SplitMix64(515)
    edges = _random_graph(rng, 9, 0.8)
    sys = planarity_system(9, edges)
    cases = []
    for _ in range(300):
        u = rng.randrange(len(edges))
        members = [i for i in range(len(edges)) if i != u and rng.random() < 0.5]
        if planarity_check([edges[i] for i in members]):
            expected = planarity_check([edges[i] for i in members] + [edges[u]])
            cases.append((u, state_holding(sys, members), expected))
    wrong = []

    def ask(offset):
        for _ in range(20):
            for u, state, expected in cases[offset:] + cases[:offset]:
                if state.can_add(u) != expected:
                    wrong.append((u, list(state.members)))

    interval = sys_module.getswitchinterval()
    sys_module.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=ask, args=(37 * k,))
                   for k in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys_module.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(cases) > 50 and wrong == []


def test_fresh_is_the_system_itself_unless_it_keeps_answers():
    knapsack = knapsack_system([1.0] * 4, 2.0)
    for sys in (cardinality_system(4, 2), knapsack,
                labeled_limit_system([["a"]] * 4, 1, 2),
                node_independent_set_system(4, [(0, 1)]),
                intersect(cardinality_system(4, 2), knapsack),
                IndependenceSystem(lambda s: True, 4, k_param=1,
                                   class_tag="matroid")):
        assert sys.fresh() is sys
    square = planarity_system(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for sys in (square, intersect(square, knapsack),
                intersect(knapsack, square)):
        copy = sys.fresh()
        assert copy is not sys
        assert (copy.n, copy.k_param, copy.class_tag, copy.kind) == (
            sys.n, sys.k_param, sys.class_tag, sys.kind)
        for members in ([0], [0, 1, 2]):
            assert (state_holding(copy, members).can_add(3)
                    == state_holding(sys, members).can_add(3))


_GRAPH_CONSTRUCTORS = {"planarity": (planarity_system, "n_vertices"),
                       "node_independent_set": (node_independent_set_system,
                                                "n")}


@pytest.mark.parametrize("bad", [1.5, math.nan, math.inf])
@pytest.mark.parametrize("kind", list(_GRAPH_CONSTRUCTORS))
def test_graph_constructors_reject_non_integer_endpoints(kind, bad):
    build, size = _GRAPH_CONSTRUCTORS[kind]
    message = re.escape(f"{kind} spec field 'edges' in edge (2, {bad!r}) "
                        f"must be an integer, got {bad!r}")
    with pytest.raises(ValueError, match=message):
        build(3, [(0, 1), (2, bad)])
    with pytest.raises(ValueError, match=message):
        make_system({"type": kind, size: 3, "edges": [[0, 1], [2, bad]]})


@pytest.mark.parametrize("kind", list(_GRAPH_CONSTRUCTORS))
def test_graph_constructors_accept_integral_endpoints(kind):
    build, size = _GRAPH_CONSTRUCTORS[kind]
    sys = build(3, [(0, 1.0), (np.int64(1), 2)])
    exact = build(3, [(0, 1), (1, 2)])
    assert sys.k_param == exact.k_param
    for subset in ([0], [1], [0, 1]):
        assert sys.is_independent(subset) == exact.is_independent(subset)
    spec = make_system({"type": kind, size: 3, "edges": [[0, 1.0], [1, 2]]})
    assert spec.is_independent([0, 1]) == exact.is_independent([0, 1])


def test_downward_closure_sampled():
    rng = SplitMix64(123)
    for _ in range(20):
        n = 5 + rng.randrange(6)
        sys = random_system(rng, n)
        for _ in range(50):
            big = random_independent_set(rng, sys, keep_prob=0.8)
            small = ElementSet([u for u in big if rng.random() < 0.6])
            assert sys.is_independent(small)


def test_base_ratio_bounded_by_k():
    # enumerate all bases of random restricted grounds on small instances
    rng = SplitMix64(321)
    for _ in range(20):
        n = 5 + rng.randrange(4)
        sys = random_system(rng, n)
        ground = [u for u in range(n) if rng.random() < 0.7]
        bases = []
        for mask in range(1 << len(ground)):
            subset = [ground[i] for i in range(len(ground)) if mask >> i & 1]
            if not sys.is_independent(subset):
                continue
            if all(not sys.can_add(u, subset) for u in ground if u not in subset):
                bases.append(len(subset))
        if bases and min(bases) > 0:
            assert max(bases) <= sys.k_param * min(bases)


def test_exchange_witness_diagnostic():
    sys = cardinality_system(6, 3)
    base = unweighted_greedy(sys, range(6))
    assert exchange_witness(sys, base, base)
    assert exchange_witness(sys, ElementSet([3, 4]), base)
    with pytest.raises(ValueError):
        exchange_witness(sys, ElementSet([0, 1, 2, 3]), base)


def test_exact_rho():
    sys = cardinality_system(8, 3)
    assert exact_rho(sys) == 3
    path = node_independent_set_system(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert exact_rho(path) == 3
    with pytest.raises(SizeLimitError, match="exact rho limited to 20"):
        exact_rho(cardinality_system(EXACT_RHO_LIMIT + 1, 3))


def _state_disagreements(sys, rng, runs=4, open_state=None):
    """Grow ``runs`` random sets through a state from ``sys.open()`` (or
    ``open_state()``), offering every element once in random order and
    adding each one the state accepts.  Before every offer, compare
    ``state.can_add(u)`` with ``sys.can_add(u, state.members)``, which
    asks the family's whole-set predicate, for every id u, members
    included; return the ``(run, step, u)`` that differ."""
    open_state = open_state or sys.open
    bad = []
    for run in range(runs):
        state = open_state()
        order = list(range(sys.n))
        rng.shuffle(order)
        for step, offered in enumerate(order):
            for u in range(sys.n):
                if state.can_add(u) is not sys.can_add(u, state.members):
                    bad.append((run, step, u))
            if state.can_add(offered):
                state.add(offered)
    return bad


def _state_families(rng):
    """(label, system) for every family with a state of its own, the
    generic state's label limits and whole-set systems, and two
    intersections."""
    n = 14
    nis_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.25]
    costs = [rng.uniform(0.3, 3.0) for _ in range(n)]
    labels = random_labels(rng, n, n_labels=4, max_per_element=3)
    limits = {lab: 1 + rng.randrange(3) for lab in range(4)}
    planar_edges = _random_graph(rng, 9, 0.7)  # K5 and K3,3 minors abound
    m = len(planar_edges)
    n_vertices = 1 + max(max(e) for e in planar_edges)
    weights = [rng.randint(1, 5) for _ in range(n)]
    yield "cardinality", cardinality_system(n, 5)
    yield "knapsack", knapsack_system(costs, 0.4 * sum(costs))
    yield "labeled_limit", labeled_limit_system(labels, limits, 7)
    yield "node_independent_set", node_independent_set_system(n, nis_edges)
    yield "planarity", planarity_system(n_vertices, planar_edges)
    yield "custom", IndependenceSystem(
        lambda s: sum(weights[u] for u in s) <= 12, n, k_param=5,
        class_tag="k_system")
    yield "planarity & knapsack", intersect(
        planarity_system(n_vertices, planar_edges),
        knapsack_system([float(rng.randint(1, 4)) for _ in range(m)],
                        0.5 * 2.5 * m))
    yield "node_independent_set & cardinality", intersect(
        node_independent_set_system(n, nis_edges), cardinality_system(n, 3))


def test_every_state_agrees_with_can_add_at_every_step():
    rng = SplitMix64(1818)
    for label, sys in _state_families(rng):
        assert _state_disagreements(sys, rng) == [], label


def test_states_keep_members_in_order_and_reject_bad_ids():
    rng = SplitMix64(1819)
    for label, sys in _state_families(rng):
        state = sys.open()
        added = []
        for u in range(sys.n):
            if state.can_add(u):
                state.add(u)
                added.append(u)
        assert isinstance(state.members, ElementSet), label
        assert list(state.members) == added and len(added) > 1, label
        assert sys.is_independent(state.members), label
        for x in added:
            assert state.can_add(x) is False, (label, x)
        for bad in (-1, sys.n):
            with pytest.raises(GroundSetError):
                state.can_add(bad)
            with pytest.raises(GroundSetError):
                sys.can_add(bad, state.members)
            with pytest.raises(GroundSetError):
                state.add(bad)
        assert list(state.members) == added, label


def test_states_of_one_system_are_independent_of_each_other():
    rng = SplitMix64(1820)
    for label, sys in _state_families(rng):
        first, second = sys.open(), sys.open()
        first.add(0)
        assert list(second.members) == [], label
        assert second.can_add(0), label


def test_an_empty_state_answers_the_singleton_test():
    rng = SplitMix64(1824)
    costs = [rng.uniform(0.3, 3.0) for _ in range(14)]
    nis_edges = [(u, v) for u in range(14) for v in range(u + 1, 14)
                 if rng.random() < 0.25]
    families = [*_state_families(rng),
                ("knapsack over costly singletons", knapsack_system(costs, 1.5)),
                ("node_independent_set & costly knapsack", intersect(
                    node_independent_set_system(14, nis_edges),
                    knapsack_system(costs, 1.5)))]
    rejected = 0
    for label, sys in families:
        empty = sys.open()
        for u in range(sys.n):
            for uid in (u, np.int64(u)):
                answer = empty.can_add(uid)
                assert answer is sys.is_independent((uid,)), (label, u)
            rejected += not answer
        for bad in (-1, sys.n):
            with pytest.raises(GroundSetError) as by_state:
                empty.can_add(bad)
            with pytest.raises(GroundSetError) as by_system:
                sys.is_independent((bad,))
            assert str(by_state.value) == str(by_system.value), label
        assert list(empty.members) == [], label
    assert rejected > 0


class _StaleMaskState(_NodeState):
    """A broken node state: ``add`` blocks the new member but not its
    neighbours."""

    __slots__ = ()

    def add(self, u):
        self.members.add(u)
        self.blocked |= 1 << u


def test_agreement_check_catches_a_stale_blocked_mask():
    rng = SplitMix64(1821)
    edges = [(u, v) for u in range(12) for v in range(u + 1, 12)
             if rng.random() < 0.3]
    sys = node_independent_set_system(12, edges)
    assert _state_disagreements(sys, rng) == []
    stale = _state_disagreements(
        sys, rng, open_state=lambda: _StaleMaskState(sys, sys.open().masks))
    assert stale


def test_agreement_check_catches_a_block_test_that_always_fits():
    rng = SplitMix64(1822)
    edges = _random_graph(rng, 9, 0.7)
    sys = planarity_system(9, edges)
    assert _state_disagreements(sys, rng) == []
    lax = _state_disagreements(
        sys, rng, open_state=lambda: _PlanarityState(
            sys, lambda u, block, n_block: True, edges))
    assert lax


class _CostlessState(_KnapsackState):
    """A broken knapsack state: ``add`` skips the new member's cost."""

    __slots__ = ()

    def add(self, u):
        FeasibilityState.add(self, u)


def test_agreement_check_catches_a_knapsack_state_that_skips_costs():
    rng = SplitMix64(1823)
    costs = [rng.uniform(0.3, 3.0) for _ in range(12)]
    sys = knapsack_system(costs, 0.4 * sum(costs))
    assert _state_disagreements(sys, rng) == []
    costless = _state_disagreements(
        sys, rng, open_state=lambda: _CostlessState(sys, costs,
                                                    sys.open().limit))
    assert costless


def test_knapsack_adds_costs_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so the left-to-right sum of these
    # costs fits the budget; a compensated sum (math.fsum, and sum() on
    # Python 3.12 and later) is 1e16 + 2 and would not
    costs = [1e16, 1.0, 1.0]
    assert math.fsum(costs) > 1e16 + 1e-12
    sys = knapsack_system(costs, 1e16)
    assert sys.is_independent([0, 1, 2])
    assert sys.can_add(2, ElementSet([0, 1]))
    state = sys.open()
    state.add(0)
    state.add(1)
    assert state.can_add(2)


def _cycle_free_builders():
    square = [(0, 1), (1, 2), (2, 3), (0, 3)]
    return [
        lambda: cardinality_system(4, 2),
        lambda: knapsack_system([1.0] * 4, 2.0),
        lambda: labeled_limit_system([["a"], ["a", "b"], ["b"], []], 1, 2),
        lambda: node_independent_set_system(4, [(0, 1)]),
        lambda: planarity_system(4, square),
        lambda: IndependenceSystem(lambda s: len(s) <= 2, 4, k_param=1,
                                   class_tag="matroid"),
        lambda: intersect(planarity_system(4, square),
                          knapsack_system([1.0] * 4, 2.0)),
        lambda: intersect(node_independent_set_system(4, [(0, 1)]),
                          cardinality_system(4, 2)),
        lambda: make_system({"type": "cardinality", "n": 4, "rho": 2}),
    ]


def _garbage_after(build):
    """Objects the cyclic collector finds after building a system, taking
    a fresh copy, opening a state on each, adding one element and
    dropping them all, with automatic collection off."""
    gc.collect()
    gc.disable()
    try:
        sys = build()
        copy = sys.fresh()
        for owner in (sys, copy):
            state = owner.open()
            state.add(0)
        del sys, copy, owner, state
        return gc.collect()
    finally:
        gc.enable()


def test_no_system_forms_a_reference_cycle():
    for build in _cycle_free_builders():
        assert _garbage_after(build) == 0


def test_reference_cycle_check_sees_a_factory_closing_over_its_system():
    def build():
        system = cardinality_system(4, 2)
        system._open_fn = lambda _: FeasibilityState(system)
        return system

    assert _garbage_after(build) > 0


@pytest.mark.parametrize("edges", [[(0, 1), (1, 0)], [(0, 1), (0, 1)],
                                   [(0, 1), (1, 2), (2.0, 1.0)]])
def test_planarity_system_rejects_a_parallel_edge(edges):
    with pytest.raises(ValueError, match="parallel edge between"):
        planarity_system(3, edges)


def test_planarity_system_checks_its_edges_once(monkeypatch):
    # the left-right tests of the system's states and predicate run on
    # edges checked when the system was built, and skip the edge check
    checks = []
    real = planarity._check

    def counted(edges):
        checks.append(len(edges))
        return real(edges)

    monkeypatch.setattr(planarity, "_check", counted)
    monkeypatch.setattr(constraints, "_check", counted)
    calls = count_planarity_tests(monkeypatch)
    edges = list(combinations(range(6), 2))  # K6
    sys = planarity_system(6, edges)
    state = sys.open()
    for u in range(len(edges)):
        if state.can_add(u):
            state.add(u)
    assert not sys.is_independent(range(len(edges)))
    assert calls and checks == [len(edges)]
    with pytest.raises(ValueError, match="parallel edge between"):
        planarity_check([(0, 1), (2, 3), (1, 0)])
    assert checks == [len(edges), 3]


def test_a_cost_map_must_be_keyed_from_zero():
    with pytest.raises(ValueError,
                       match=r"^cost map keys must be exactly 0\.\.n-1$"):
        knapsack_system({1: 1.0, 2: 1.0}, 1.0)
    sys = knapsack_system({1: 2.0, 0: 1.0}, 1.5)  # any key order
    assert sys.is_independent([0]) and not sys.is_independent([1])


@pytest.mark.parametrize("build", [lambda: planarity_system(3, []),
                                   lambda: labeled_limit_system([], 1, 1)],
                         ids=["planarity", "labeled_limit"])
def test_an_empty_ground_set_gets_the_one_message(build):
    with pytest.raises(ValueError, match="^ground set must be non-empty$"):
        build()


_LABELS = {"type": "labeled_limit", "per_label_limit": 1, "total_limit": 2}


@pytest.mark.parametrize("spec, message", [
    ({**_LABELS, "labels": 5}, "field 'labels' must be a collection, got 5"),
    ({**_LABELS, "labels": [1, 2, 3, 4]},
     "field 'labels' at index 0 must be a collection, got 1"),
    ({"type": "node_independent_set", "n": 3, "edges": 5},
     "node_independent_set spec field 'edges' must be a collection, got 5"),
    ({"type": "planarity", "n_vertices": 3, "edges": 5},
     "planarity spec field 'edges' must be a collection, got 5"),
    ({"type": "knapsack", "budget": 2.0, "costs": 5},
     "knapsack spec field 'costs' must be a collection, got 5"),
], ids=["labels", "label-entry", "nis-edges", "planarity-edges", "costs"])
def test_a_collection_field_that_is_not_iterable_is_named(spec, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make_system(spec)
    # a string entry of labels still reads as its characters
    chars = make_system({**_LABELS, "labels": ["ab", "c", "b"]})
    sets = make_system({**_LABELS, "labels": [["a", "b"], ["c"], ["b"]]})
    for s in [(0, 1), (0, 2), (1, 2)]:
        assert chars.is_independent(s) == sets.is_independent(s)
    assert not chars.is_independent((0, 2))


@pytest.mark.parametrize("edge", [[0], [], 0, None, {"a": 1}],
                         ids=["one-endpoint", "empty", "int", "none", "map"])
@pytest.mark.parametrize("kind", ["node_independent_set", "planarity"])
def test_an_edge_that_is_not_two_endpoints_is_named(kind, edge):
    n = "n" if kind == "node_independent_set" else "n_vertices"
    spec = {"type": kind, n: 3, "edges": [[0, 1], edge]}
    with pytest.raises(ValueError, match=re.escape(
            f"edge {edge!r} is not a sequence of two endpoints")):
        make_system(spec)
    spec["edges"] = [[0, 1], [1, 2, 7.5]]  # a longer edge reads as two
    assert make_system(spec).n == (3 if kind == "node_independent_set" else 2)
