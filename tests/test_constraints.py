import math
from itertools import combinations

import pytest

from substream import (ElementSet, GroundSetError, cardinality_system,
                       exact_rho, exchange_witness, intersect,
                       knapsack_system, labeled_limit_system, make_system,
                       node_independent_set_system, planarity_system,
                       unweighted_greedy)
from substream.planarity import planarity_check
from substream.prng import SplitMix64

from helpers import random_independent_set, random_system


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
    every acceptance, ask ``can_add`` about every non-member in random
    order.  Some edges are asked again right away, against a random subset
    of the members and then the members themselves; the first edge is
    asked once more after all the others."""

    def expected(u, members):
        return (planarity_check([edges[i] for i in members] + [edges[u]])
                and extra(u, members))

    members = ElementSet()
    offers = list(range(len(edges)))
    rng.shuffle(offers)
    for offered in offers:
        if not expected(offered, members):
            assert not sys.can_add(offered, members)
            continue
        assert sys.can_add(offered, members)
        members.add(offered)
        others = [u for u in range(len(edges)) if u not in members]
        rng.shuffle(others)
        for u in others:
            asks = [members]
            if rng.random() < 0.3:
                asks += [{x for x in members if rng.random() < 0.7},
                         list(members)]
            for asked in asks:
                assert sys.can_add(u, asked) == expected(u, asked), (u, asked)
        if others:
            u = others[0]
            assert sys.can_add(u, members) == expected(u, members)


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
