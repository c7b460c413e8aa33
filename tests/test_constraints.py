import math
import re
import sys as sys_module
import threading
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from substream import (ElementSet, GroundSetError, IndependenceSystem,
                       cardinality_system, exact_rho, exchange_witness,
                       intersect, knapsack_system, labeled_limit_system,
                       make_system, node_independent_set_system,
                       planarity_system, unweighted_greedy)
from substream.constraints import merged_block
from substream.planarity import planarity_check
from substream.prng import SplitMix64

from helpers import (count_planarity_tests, random_independent_set,
                     random_system)


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


def test_add_defined_families_match_their_definitions_on_every_subset():
    # is_independent builds the set through the add predicate; compare it
    # with the families' definitions on all 2**8 subsets
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, 2.7])
@pytest.mark.parametrize("name", list(_INT_FIELD_SPECS))
def test_make_system_rejects_non_integer_field(name, bad):
    spec = dict(_INT_FIELD_SPECS[name])
    make_system(spec)  # the unchanged spec is valid
    spec[name] = bad
    with pytest.raises(ValueError,
                       match=f"field '{name}' must be an integer, got {bad!r}"):
        make_system(spec)


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
        for _ in range(5):
            u = rng.randrange(len(edges))
            keep = rng.uniform(0.3, 1.0)
            members = [i for i in range(len(edges))
                       if i != u and rng.random() < keep]
            block, n_block = merged_block(edges, u, members)
            expected = _oracle_block(edges, u, members)
            assert len(block) == len(set(block))
            assert set(block) <= set(members)
            assert {frozenset(edges[i]) for i in block} | {
                frozenset(edges[u])} == expected
            assert n_block == len(set().union(*expected))


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
            assert sys.can_add(ids[ab], members) == (members is good)


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
    assert not sys.can_add(u, range(u))
    assert not sys.is_independent(range(len(edges)))


def test_planarity_block_answers_are_shared_until_fresh(monkeypatch):
    calls = count_planarity_tests(monkeypatch)
    edges = _K33 + [(5, 6), (4, 7)]
    u = edges.index((0, 3))
    block = [i for i in range(len(_K33)) if i != u]
    one, other = block + [len(_K33)], block + [len(_K33) + 1]
    sys = planarity_system(8, edges)
    assert not sys.can_add(u, one) and calls == [9]
    # the members differ outside the block: the answer is kept
    assert not sys.can_add(u, other) and len(calls) == 1
    # another edge empties the per-edge memo, the block answer stays
    assert sys.can_add(len(_K33), other) and len(calls) == 1
    assert not sys.can_add(u, one) and len(calls) == 1
    assert not sys.fresh().can_add(u, one) and len(calls) == 2


def test_planarity_can_add_stays_exact_under_concurrent_queries():
    # threads share one system's memos and empty each other's per-edge
    # entries; every answer must still be the full test's
    rng = SplitMix64(515)
    edges = _random_graph(rng, 9, 0.8)
    sys = planarity_system(9, edges)
    cases = []
    for _ in range(300):
        u = rng.randrange(len(edges))
        members = [i for i in range(len(edges)) if i != u and rng.random() < 0.5]
        if planarity_check([edges[i] for i in members]):
            expected = planarity_check([edges[i] for i in members] + [edges[u]])
            cases.append((u, frozenset(members), expected))
    wrong = []

    def ask(offset):
        for _ in range(20):
            for u, members, expected in cases[offset:] + cases[:offset]:
                if sys.can_add(u, members) != expected:
                    wrong.append((u, members))

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
            assert copy.can_add(3, members) == sys.can_add(3, members)


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
