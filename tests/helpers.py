"""Seeded random instance builders, references and checks shared across
the test modules."""

import heapq
import math

from substream import (CutGraph, brute_force_opt, build_g1, build_g2,
                       cardinality_system, constraints, knapsack_system,
                       labeled_limit_system, make_directed_cut, make_modular,
                       node_independent_set_system, similarity_from_features)
from substream.core import EPS
from substream.prng import SplitMix64


def random_modular(rng: SplitMix64, n: int):
    return make_modular([rng.uniform(0.1, 10.0) for _ in range(n)])


def random_cut(rng: SplitMix64, n: int, p: float = 0.3):
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                edges.append((u, v, rng.uniform(0.1, 5.0)))
    if not edges:
        edges = [(0, 1, 1.0)]
    return make_directed_cut(CutGraph(n, tuple(edges)))


def random_similarity(rng: SplitMix64, n: int, dim: int = 3, lam: float = 0.4):
    feats = [[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(n)]
    return similarity_from_features(feats, lam)


def random_labels(rng: SplitMix64, n: int, n_labels: int = 3,
                  max_per_element: int = 2):
    labels = []
    for _ in range(n):
        count = 1 + rng.randrange(max_per_element)
        labels.append(frozenset(rng.randrange(n_labels) for _ in range(count)))
    return labels


def random_system(rng: SplitMix64, n: int, kinds=("cardinality", "labeled_limit",
                                                  "knapsack", "node")):
    kind = kinds[rng.randrange(len(kinds))]
    if kind == "cardinality":
        return cardinality_system(n, rng.randint(1, max(1, n // 2)))
    if kind == "labeled_limit":
        return labeled_limit_system(random_labels(rng, n),
                                    rng.randint(1, 3),
                                    rng.randint(2, max(2, n // 2)))
    if kind == "knapsack":
        costs = [float(rng.randint(1, 4)) for _ in range(n)]
        return knapsack_system(costs, float(rng.randint(4, 3 * n)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.3]
    return node_independent_set_system(n, edges)


def max_feasible_singleton(sys, f):
    best = 0.0
    for u in range(sys.n):
        if sys.is_independent((u,)):
            best = max(best, f.singleton(u))
    return best


def random_independent_set(rng: SplitMix64, sys, keep_prob: float = 0.5):
    from substream import ElementSet
    order = list(range(sys.n))
    rng.shuffle(order)
    out = ElementSet()
    for u in order:
        if rng.random() < keep_prob and sys.can_add(u, out):
            out.add(u)
    return out


def state_holding(sys, members):
    """A feasibility state of ``sys`` holding ``members``, added in their
    order without feasibility checks."""
    state = sys.open()
    for u in members:
        state.add(u)
    return state


def submodularity_violations(f, rng: SplitMix64, samples: int,
                             tol: float = 1e-9) -> int:
    """Count sampled (A subset of B, u outside B) triples violating the
    diminishing-gain inequality, also checking non-negativity."""
    n = f.n
    bad = 0
    for _ in range(samples):
        big = {v for v in range(n) if rng.random() < 0.5}
        small = {v for v in big if rng.random() < 0.6}
        outside = [v for v in range(n) if v not in big]
        if not outside:
            continue
        u = outside[rng.randrange(len(outside))]
        if f.marginal(u, small) < f.marginal(u, big) - tol:
            bad += 1
        if f.value(big) < 0.0:
            bad += 1
    return bad


def downward_closure_violations(sys, rng: SplitMix64, samples: int) -> int:
    bad = 0
    for _ in range(samples):
        big = random_independent_set(rng, sys, keep_prob=0.8)
        small = [u for u in big if rng.random() < 0.6]
        if not sys.is_independent(small):
            bad += 1
    return bad


def sample_oracles(rng: SplitMix64, n: int = 10):
    """One instance of every shipped objective family, tagged by name."""
    from substream import (KeywordTable, ReservoirConfig,
                           make_coverage_minus_dispersion,
                           make_facility_location, make_logdet,
                           make_sqrt_coverage)
    sim = random_similarity(rng, n)
    words = [frozenset({rng.randrange(5), rng.randrange(5)}) for _ in range(n)]
    table = KeywordTable(words=[{str(w) for w in ws} for ws in words],
                         values=[rng.uniform(0.0, 6.0) for _ in range(n)])
    return [
        ("modular", random_modular(rng, n)),
        ("directed_cut", random_cut(rng, n)),
        ("coverage_minus_dispersion", make_coverage_minus_dispersion(sim)),
        ("facility_location", make_facility_location(sim)),
        ("facility_location_sampled",
         make_facility_location(sim, ReservoirConfig(r_cap=max(2, n // 2), seed=5))),
        ("logdet", make_logdet(sim, alpha=2.0)),
        ("sqrt_coverage", make_sqrt_coverage(table)),
    ]


def count_planarity_tests(monkeypatch) -> list[int]:
    """Wrap ``constraints.planarity_check`` for one test; the returned
    list gets the edge count of every left-right test made."""
    calls = []
    real = constraints.planarity_check

    def counted(edges):
        calls.append(len(edges))
        return real(edges)

    monkeypatch.setattr(constraints, "planarity_check", counted)
    return calls


def reference_cut_marginal(g):
    """The cut gain ``f(S + u) - f(S)`` as a plain loop over both
    adjacency dicts: u's out-weight less its out-edges into the members,
    then less its in-edges from them, each in adjacency order."""
    out_adj = [{} for _ in range(g.n_vertices)]
    in_adj = [{} for _ in range(g.n_vertices)]
    for u, v, w in g.edges:
        out_adj[u][v] = out_adj[u].get(v, 0.0) + w
        in_adj[v][u] = in_adj[v].get(u, 0.0) + w
    out_total = [sum(adj.values()) for adj in out_adj]

    def marginal(u, members):
        gain = out_total[u]
        for v, w in out_adj[u].items():
            if v in members:
                gain -= w
        for s, w in in_adj[u].items():
            if s in members:
                gain -= w
        return gain

    return marginal


def brute_optimum_matches(family: str, rho: int, epsilon: float = 0.01) -> bool:
    """For small rho, confirm by enumeration that the planted block is the
    constrained optimum with value rho^2."""
    inst = build_g1(rho, epsilon) if family == "g1" else build_g2(rho)
    f = make_directed_cut(inst.graph)
    sys = cardinality_system(inst.graph.n_vertices, rho)
    best, val = brute_force_opt(f, sys, inst.stream)
    return set(best) == set(inst.planted_opt) and abs(val - rho * rho) <= EPS


def exchange_witness(sys, a, b) -> bool:
    """Whether k * |B without A| >= |A without B| holds.

    ``a`` must be independent; ``b`` is expected to be a greedily built
    base (not checkable here).
    """
    a_set = set(a)
    b_set = set(b)
    if not sys.is_independent(a_set):
        raise ValueError("witness requires an independent first set")
    return sys.k_param * len(b_set - a_set) >= len(a_set - b_set)


def reference_weighted_greedy(f, sys, ground):
    """The lazy greedy with its round rule written out by hand: largest
    fresh gain first, smallest id on equal gains, and a round that stops
    popping once the heap top's bound cannot beat the best so far."""
    gains = f.open()
    sol = gains.members
    heap = []
    for u in set(ground):
        heap.append((-gains.gain(u), u))
    heapq.heapify(heap)

    while heap:
        if -heap[0][0] <= EPS:
            break
        best_u = None
        best_gain = -math.inf
        fresh = []
        while heap:
            bound = -heap[0][0]
            cand = heap[0][1]
            if best_u is not None and (bound < best_gain or
                                       (bound == best_gain and cand > best_u)):
                break
            heapq.heappop(heap)
            if not sys.can_add(cand, sol):
                continue  # infeasible now, infeasible forever
            gain = gains.gain(cand)
            fresh.append((gain, cand))
            if gain > best_gain or (gain == best_gain and cand < best_u):
                best_gain = gain
                best_u = cand
        if best_u is None or best_gain <= EPS:
            break
        gains.add(best_u)
        for gain, cand in fresh:
            if cand != best_u:
                heapq.heappush(heap, (-gain, cand))
    return sol
