"""The left-right test is checked against classical facts and, on random
graphs, against networkx's implementation as an independent oracle."""

import random
import sys
from itertools import combinations

import networkx as nx
import pytest

from substream import planarity_check
from substream.constraints import merged_block


def k_complete(n):
    return list(combinations(range(n), 2))


def k_bipartite(a, b):
    return [(i, a + j) for i in range(a) for j in range(b)]


def subdivide(edges, times, base=1000):
    out = []
    nxt = base
    for (u, v) in edges:
        prev = u
        for _ in range(times):
            out.append((prev, nxt))
            prev = nxt
            nxt += 1
        out.append((prev, v))
    return out


def test_empty_edge_set_is_planar():
    assert planarity_check([]) is True


def test_kuratowski_families():
    assert planarity_check(k_complete(4)) is True
    assert planarity_check(k_complete(5)) is False
    assert planarity_check(k_bipartite(3, 3)) is False
    assert planarity_check(k_complete(5)[1:]) is True  # K5 minus one edge


def test_subdivisions_do_not_change_the_answer():
    assert planarity_check(subdivide(k_complete(5), 2)) is False
    assert planarity_check(subdivide(k_bipartite(3, 3), 3)) is False
    assert planarity_check(subdivide(k_complete(4), 2)) is True


def test_petersen_graph_nonplanar():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    assert planarity_check(outer + inner + spokes) is False


def test_disconnected_components():
    good = k_complete(4) + [(u + 10, v + 10) for u, v in k_complete(4)]
    assert planarity_check(good) is True
    bad = k_complete(4) + [(u + 10, v + 10) for u, v in k_complete(5)]
    assert planarity_check(bad) is False


def test_rejects_self_loops_and_parallel_edges():
    with pytest.raises(ValueError):
        planarity_check([(1, 1)])
    with pytest.raises(ValueError):
        planarity_check([(0, 1), (1, 0)])


def test_euler_bound_is_respected():
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randint(2, 12)
        pool = list(combinations(range(n), 2))
        edges = rng.sample(pool, rng.randint(0, len(pool)))
        if planarity_check(edges):
            touched = {u for e in edges for u in e}
            assert len(edges) <= max(1, 3 * len(touched) - 6)


def test_matches_networkx_on_random_graphs():
    rng = random.Random(20240817)
    for _ in range(1500):
        n = rng.randint(2, 11)
        pool = list(combinations(range(n), 2))
        edges = rng.sample(pool, rng.randint(0, len(pool)))
        mine = planarity_check(edges)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        assert mine == nx.check_planarity(g)[0], edges


def test_matches_networkx_on_sparse_large_graphs():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(20, 60)
        edges = set()
        target = rng.randint(n, 3 * n - 6)
        while len(edges) < target:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        edges = sorted(edges)
        g = nx.Graph()
        g.add_edges_from(edges)
        assert planarity_check(edges) == nx.check_planarity(g)[0]


def nx_planar(edges):
    g = nx.Graph()
    g.add_edges_from(edges)
    return nx.check_planarity(g)[0]


def shuffled(rng, edges):
    """The same graph with its edges listed in random order and each one
    reversed with probability one half."""
    out = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(out)
    return out


def shuffled_random_graphs(rng):
    for _ in range(1500):
        n = rng.randint(4, 13)
        pool = list(combinations(range(n), 2))
        yield shuffled(rng, rng.sample(pool, rng.randint(
            n - 1, min(len(pool), 3 * n - 6))))


def relabelled_graphs(rng):
    """Strings, tuples, ints past the small-int cache and negative ints."""
    makers = [lambda i: f"v{i}", lambda i: ("t", i % 3, i),
              lambda i: 257 + 1000 * i, lambda i: -i - 1]
    for _ in range(600):
        n = rng.randint(5, 12)
        pool = list(combinations(range(n), 2))
        edges = rng.sample(pool, rng.randint(n, min(len(pool), 3 * n - 6)))
        label = rng.choice(makers)
        perm = rng.sample(range(n), n)
        yield shuffled(rng, [(label(perm[u]), label(perm[v]))
                             for u, v in edges])


def random_block(rng, first):
    """A dense random graph on vertices ``first..`` with a spanning path,
    so it is connected; about one in three is not planar."""
    n = rng.randint(3, 8)
    path = [(first + i, first + i + 1) for i in range(n - 1)]
    extra = [(first + u, first + v)
             for u, v in combinations(range(n), 2) if v > u + 1]
    return path + rng.sample(extra, rng.randint(0, len(extra)))


def multi_block_graphs(rng):
    """Random blocks, each glued to an earlier one at a cut vertex, joined
    to it by a bridge, or left as a component of its own."""
    for _ in range(300):
        edges, nxt, anchors = [], 0, []
        for _ in range(rng.randint(2, 5)):
            block = random_block(rng, nxt)
            size = 1 + max(v for e in block for v in e) - nxt
            if anchors and rng.random() < 0.7:
                old = rng.choice(anchors)
                if rng.random() < 0.5:
                    block = [tuple(old if x == nxt else x for x in e)
                             for e in block]
                else:
                    block.append((old, nxt))
            anchors += range(nxt, nxt + size)
            edges += block
            nxt += size
        yield shuffled(rng, edges)


def merged_blocks(rng):
    """Inputs shaped like the edge-planarity workload's: the merged block
    of a planar member set and one new edge, in G(20, 57), at 9 to 54
    edges and close to the Euler bound e = 3v - 6."""
    pool = list(combinations(range(20), 2))
    made = 0
    while made < 600:
        edges = shuffled(rng, rng.sample(pool, 57))
        members = []
        for i in rng.sample(range(57), rng.randint(20, 57)):
            if nx_planar([edges[j] for j in members] + [edges[i]]):
                members.append(i)
        for u in set(range(57)).difference(members):
            block, n_block = merged_block(edges, u, members)
            part = [edges[i] for i in block] + [edges[u]]
            if 9 <= len(part) <= 54 and len(part) <= 3 * n_block - 6:
                made += 1
                yield part


@pytest.mark.parametrize("family", [shuffled_random_graphs, relabelled_graphs,
                                    multi_block_graphs, merged_blocks])
def test_kernel_agrees_with_networkx(family):
    answers = set()
    for edges in family(random.Random(family.__name__)):
        answer = planarity_check(edges)
        assert answer == nx_planar(edges), edges
        answers.add(answer)
    assert answers == {True, False}


def call_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_deep_graphs_run_under_a_tight_recursion_limit():
    """A ladder of 7,000 rungs (20,998 edges) makes both depth-first
    searches about 14,000 vertices deep; the test must still run with
    hardly any Python stack to spare."""
    ladder = nx.ladder_graph(7000)
    plain = list(ladder.edges())
    k5 = [(("k", a), ("k", b)) for a, b in k_complete(5)]
    with_k5 = plain + k5 + [(13999, ("k", 0))]
    expected = [nx_planar(plain), nx_planar(with_k5)]
    assert len(plain) >= 20_000 and expected == [True, False]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(call_depth() + 50)
    try:
        answers = [planarity_check(plain), planarity_check(with_k5)]
    finally:
        sys.setrecursionlimit(limit)
    assert answers == expected


@pytest.mark.parametrize("edge", [(1,), [1], 1, None, (), "a"])
def test_edges_with_fewer_than_two_endpoints_are_rejected(edge):
    with pytest.raises(ValueError, match="two endpoints") as info:
        planarity_check([(0, 1), edge])
    assert repr(edge) in str(info.value)


def test_fields_past_the_second_endpoint_are_ignored():
    weighted = [(u, v, 1.5, "x") for u, v in k_complete(5)]
    assert planarity_check(weighted) is False
    assert planarity_check(weighted[1:]) is True
    assert planarity_check(["ab", "bc", "ca"]) is True
