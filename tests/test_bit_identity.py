"""The C-level fast paths against the plain Python loops they replaced.

Each reference below is the earlier implementation, kept verbatim, so any
change in floating-point summation order or in the counted quantity shows
up as an exact (``==``) mismatch rather than hiding inside a tolerance.
"""

import math

import pytest

from substream import (AdaptiveSieve, AutoThresholdSieve, CutGraph, ElementSet,
                       ThresholdSieve, contract_audit, make_directed_cut,
                       node_independent_set_system)
from substream.bench import gen_erdos_renyi, undirected_pairs
from substream.prng import SplitMix64
from substream.streaming import _ceil_log2

from helpers import max_feasible_singleton


def reference_cut_marginal(g):
    """The cut marginal as a plain loop over both adjacency dicts."""
    out_adj = [{} for _ in range(g.n_vertices)]
    in_adj = [{} for _ in range(g.n_vertices)]
    for u, v, w in g.edges:
        out_adj[u][v] = out_adj[u].get(v, 0.0) + w
        in_adj[v][u] = in_adj[v].get(u, 0.0) + w
    out_total = [sum(adj.values()) for adj in out_adj]

    def marginal_fn(u, members):
        gain = out_total[u]
        for v, w in out_adj[u].items():
            if v in members:
                gain -= w
        for s, w in in_adj[u].items():
            if s in members:
                gain -= w
        return gain

    return marginal_fn


def random_exp_digraph(n, p, seed):
    """Directed graph, each arc drawn on its own with a mean-1 exponential
    weight; some arcs repeat, so adjacency weights are sums."""
    rng = SplitMix64(seed)
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                for _ in range(1 + (rng.random() < 0.1)):
                    edges.append((u, v, -math.log(1.0 - rng.random())))
    return CutGraph(n, tuple(edges))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("container", [ElementSet, set, frozenset, tuple])
def test_cut_marginal_matches_reference_loop_exactly(seed, container):
    g = random_exp_digraph(60, 0.15, seed)
    fast = make_directed_cut(g)._marginal_fn
    ref = reference_cut_marginal(g)
    rng = SplitMix64(seed)
    for _ in range(300):
        order = list(range(60))
        rng.shuffle(order)
        members = container(order[:rng.randrange(60)])
        u = order[-1]
        assert fast(u, members) == ref(u, members)


def test_node_is_add_pred_matches_any_form():
    rng = SplitMix64(5)
    g = gen_erdos_renyi(50, 0.1, 5)
    pairs = undirected_pairs(g)
    nbrs = [set() for _ in range(50)]
    for a, b in pairs:
        nbrs[a].add(b)
        nbrs[b].add(a)
    add_pred = node_independent_set_system(50, pairs)._add_predicate
    for _ in range(500):
        members = ElementSet(x for x in range(50) if rng.random() < 0.1)
        u = rng.randrange(50)
        for m in (members, set(members), tuple(members)):
            assert add_pred(u, m) == (not any(v in nbrs[u] for v in m))


def legacy_stored_count(comp):
    """The stored count summed over every bucket of every copy."""
    def buckets_and_candidates(sieve):
        count = sum(len(b) for b in sieve.buckets)
        if sieve.candidates is not None:
            count += sum(len(t) for t in sieve.candidates)
        return count

    if isinstance(comp, AutoThresholdSieve):
        return len(comp.base) + sum(buckets_and_candidates(c)
                                    for c in comp.copies.values())
    count = buckets_and_candidates(comp)
    if isinstance(comp, AdaptiveSieve) and comp._owns_base:
        count += len(comp.base)
    return count


def _sieves(sys, f):
    tau = 2.0 ** _ceil_log2(max_feasible_singleton(sys, f))
    return [ThresholdSieve(sys, f, tau, sys.n), AdaptiveSieve(sys, f, tau),
            AutoThresholdSieve(sys, f)]


@pytest.mark.parametrize("seed", [4, 9])
def test_stored_count_matches_bucket_sum_at_every_step(seed):
    g = gen_erdos_renyi(40, 0.1, seed, weight_mode="exp")
    sys = node_independent_set_system(40, undirected_pairs(g))
    stream = list(range(40))
    SplitMix64(seed).shuffle(stream)
    for comp in _sieves(sys, make_directed_cut(g)):
        pairs = []
        stored_count = comp.stored_count

        def checked():
            pairs.append((stored_count(), legacy_stored_count(comp)))
            return pairs[-1][0]

        comp.stored_count = checked
        report = contract_audit(comp, stream, sys)
        assert report.ok
        assert len(pairs) == len(stream) + 1
        assert all(new == old for new, old in pairs)
        assert max(new for new, _ in pairs) > 0
