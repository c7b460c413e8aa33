"""The C-level fast paths against the plain Python loops they replaced.

Each reference below is the earlier implementation, kept verbatim, so any
change in floating-point summation order or in the counted quantity shows
up as an exact (``==``) mismatch rather than hiding inside a tolerance.
"""

import math

import numpy as np
import pytest

from substream import (AdaptiveSieve, AutoThresholdSieve, CutGraph, ElementSet,
                       Objective, RatioSwapStream, ReservoirConfig,
                       ThresholdSieve, cardinality_system, contract_audit, make_coverage_minus_dispersion,
                       make_directed_cut, make_facility_location, make_logdet,
                       make_system, node_independent_set_system,
                       similarity_from_features)
from substream import bench
from substream.bench import (gen_erdos_renyi, gen_watts_strogatz, run_algorithm,
                             undirected_pairs)
from substream.counterexamples import build_g1, build_g2, w_sequence
from substream.core import DuplicateElementError, GainState, GroundSetError
from substream.prng import SplitMix64
from substream.streaming import _drive, _guess_exponent

from helpers import max_feasible_singleton, state_holding


def reference_cut_value(g):
    """The cut value of a sorted id tuple as a plain loop over the
    out-adjacency dicts, parallel arcs summed in edge order."""
    out_adj = [{} for _ in range(g.n_vertices)]
    for u, v, w in g.edges:
        out_adj[u][v] = out_adj[u].get(v, 0.0) + w

    def value(ids):
        members = set(ids)
        total = 0.0
        for u in ids:
            total += sum(out_adj[u].values())
            for v, w in out_adj[u].items():
                if v in members:
                    total -= w
        return total

    return value


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
    # a marginal is the difference of two values, whatever holds the set
    g = random_exp_digraph(60, 0.15, seed)
    f = make_directed_cut(g)
    ref = Objective(reference_cut_value(g), 60)
    rng = SplitMix64(seed)
    for _ in range(300):
        order = list(range(60))
        rng.shuffle(order)
        chosen = order[:rng.randrange(60)]
        u = order[-1]
        before = f.evaluations
        assert (f.marginal(u, container(chosen))
                == ref.value(chosen + [u]) - ref.value(chosen))
        assert f.evaluations == before + 2


def test_node_can_add_matches_any_form():
    rng = SplitMix64(5)
    g = gen_erdos_renyi(50, 0.1, 5)
    pairs = undirected_pairs(g)
    nbrs = [set() for _ in range(50)]
    for a, b in pairs:
        nbrs[a].add(b)
        nbrs[b].add(a)
    sys = node_independent_set_system(50, pairs)
    for _ in range(500):
        order = list(range(50))
        rng.shuffle(order)
        members = ElementSet()
        for x in order:
            if rng.random() < 0.1 and nbrs[x].isdisjoint(members):
                members.add(x)
        u = rng.randrange(50)
        expected = u not in members and not any(v in nbrs[u] for v in members)
        for m in (members, set(members), tuple(members)):
            assert sys.can_add(u, m) == expected
            assert state_holding(sys, m).can_add(u) == expected


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
    if isinstance(comp, AdaptiveSieve):
        count += len(comp.base)
    return count


def _sieves(sys, f):
    tau = 2.0 ** _guess_exponent(max_feasible_singleton(sys, f))
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
        report = contract_audit(comp, stream)
        assert report.ok
        assert len(pairs) == len(stream) + 1
        assert all(new == old for new, old in pairs)
        assert max(new for new, _ in pairs) > 0


def reference_er(n, p, seed, weight_mode):
    """The Erdos-Renyi generator as one uniform draw per pair in row order,
    plus one more per edge for non-unit weights."""
    rng = SplitMix64(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                if weight_mode == "unit":
                    w = 1.0
                elif weight_mode == "uniform":
                    w = rng.random()
                else:
                    w = -math.log(max(rng.random(), 2.0**-53))
                edges.append((i, j, w))
                edges.append((j, i, w))
    return edges


def test_random_block_matches_scalar_draws():
    for seed in (0, 1, 2**63, 2**64 - 1, -7):
        a, b = SplitMix64(seed), SplitMix64(seed)
        for count in (0, 1, 5, 1000):
            block = a.random_block(count)
            assert block.dtype == np.float64
            assert block.tolist() == [b.random() for _ in range(count)]
        assert a.next_u64() == b.next_u64()


@pytest.mark.parametrize("block", [1, 2, 7, 1 << 14])
@pytest.mark.parametrize("weight_mode", ["unit", "uniform", "exp"])
def test_erdos_renyi_matches_per_pair_loop(monkeypatch, block, weight_mode):
    # small blocks put edge draws and their weight draws on block borders
    monkeypatch.setattr(bench, "_ER_BLOCK", block, raising=False)
    for n, p, seed in [(1, 0.5, 3), (2, 1.0, 1), (23, 0.0, 4), (23, 0.2, 5),
                       (23, 0.9, 2**63 + 11), (31, 1.0, 2**64 - 1),
                       (40, 0.05, 6)]:
        edges = gen_erdos_renyi(n, p, seed, weight_mode).edges
        assert list(edges) == reference_er(n, p, seed, weight_mode)
        assert all(type(w) is float for _, _, w in edges)


# ---------------------------------------------------------------------------
# the graph builders' arrays against the tuple loops they replaced


def _hexed(edges):
    """Edges with exact types and every weight as its bit pattern."""
    return [(type(u), type(v), type(w), u, v, w.hex()) for u, v, w in edges]


def reference_counter_edges(rho, bait_weights):
    """The g1/g2 edge list as the tuple builder made it."""
    early = list(range(1, rho + 1))
    edges = [(i, 0, 1.0) for i in early]
    edges += [(j, i, 1.0) for j in range(rho + 1, 2 * rho + 1) for i in early]
    edges += [(m, 0, w) for m, w in zip(range(2 * rho + 1, 3 * rho + 1),
                                        bait_weights)]
    return edges


def reference_ws(n, k_ring, beta, seed, weight_mode):
    """The Watts-Strogatz generator as the tuple builder made it."""
    rng = SplitMix64(seed)
    present = set()
    lattice = []
    for i in range(n):
        for d in range(1, k_ring // 2 + 1):
            j = (i + d) % n
            lattice.append((i, j))
            present.add(frozenset((i, j)))
    pairs = []
    for (i, j) in lattice:
        if rng.random() < beta:
            key = frozenset((i, j))
            for _ in range(8 * n):
                t = rng.randrange(n)
                new = frozenset((i, t))
                if t != i and new not in present:
                    present.discard(key)
                    present.add(new)
                    j = t
                    break
        pairs.append((i, j))
    edges = []
    for (i, j) in pairs:
        w = bench._draw_weight(rng, weight_mode)
        edges.append((i, j, w))
        edges.append((j, i, w))
    return edges


def reference_undirected_pairs(edges):
    seen = set()
    pairs = []
    for u, v, _ in edges:
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            pairs.append(key)
    return pairs


@pytest.mark.parametrize("rho", [1, 2, 4, 7, 30, 64])
def test_counterexample_arrays_match_tuple_builder(rho):
    for eps in (0.01, 0.0731, 1e-9):
        g = build_g1(rho, eps).graph
        assert g.n_vertices == 3 * rho + 1
        assert _hexed(g.edges) == _hexed(
            reference_counter_edges(rho, [2.0 + eps] * rho))
    g = build_g2(rho).graph
    assert _hexed(g.edges) == _hexed(
        reference_counter_edges(rho, w_sequence(rho)))


@pytest.mark.parametrize("weight_mode", ["unit", "uniform", "exp"])
def test_random_graph_arrays_match_tuple_builders(weight_mode):
    for seed in (0, 3, 17, 2**63 + 5):
        for n, p in [(2, 1.0), (25, 0.0), (25, 0.3), (60, 0.08)]:
            g = gen_erdos_renyi(n, p, seed, weight_mode)
            edges = reference_er(n, p, seed, weight_mode)
            assert _hexed(g.edges) == _hexed(edges)
            assert undirected_pairs(g) == reference_undirected_pairs(edges)
        for n, k_ring, beta in [(5, 2, 1.0), (12, 4, 0.0), (30, 6, 0.3),
                                (40, 8, 1.0)]:
            g = gen_watts_strogatz(n, k_ring, beta, seed, weight_mode)
            edges = reference_ws(n, k_ring, beta, seed, weight_mode)
            assert _hexed(g.edges) == _hexed(edges)
            assert undirected_pairs(g) == reference_undirected_pairs(edges)


def test_undirected_pairs_keep_first_appearance_order():
    edges = [(3, 1, 1.0), (0, 2, 1.0), (1, 3, 2.0), (2, 0, 1.0), (4, 3, 0.5),
             (1, 0, 1.0), (3, 4, 1.0), (0, 1, 1.0)]
    pairs = undirected_pairs(CutGraph(5, edges))
    assert pairs == reference_undirected_pairs(edges)
    assert pairs == [(1, 3), (0, 2), (3, 4), (0, 1)]
    assert all(type(u) is int and type(v) is int for u, v in pairs)


# ---------------------------------------------------------------------------
# the feature objectives' value path


def reference_facility_fn(m, estimator=None):
    """Facility location as a column gather from the row-major matrix."""
    n = m.shape[0]
    rows, divisor = m, n
    if estimator is not None:
        idx = SplitMix64(estimator.seed).sample_indices(n, estimator.r_cap)
        rows, divisor = m[idx, :], len(idx)

    def fn(ids):
        if not ids:
            return 0.0
        return float(rows[:, list(ids)].max(axis=1).sum()) / divisor

    return fn


def reference_logdet_fn(m, alpha):
    """Log-determinant with the identity added to each gathered block."""
    def fn(ids):
        if not ids:
            return 0.0
        idx = list(ids)
        a = np.eye(len(idx)) + alpha * m[np.ix_(idx, idx)]
        return float(2.0 * np.sum(np.log(np.diag(np.linalg.cholesky(a)))))

    return fn


def reference_cmd_fn(m):
    """Coverage minus dispersion with the block gathered by ``np.ix_``."""
    row_sums = m.sum(axis=1)

    def fn(ids):
        if not ids:
            return 0.0
        idx = list(ids)
        return float(row_sums[idx].sum() - m[np.ix_(idx, idx)].sum())

    return fn


class ThreeSortObjective(Objective):
    """``Objective`` whose marginal sorts the subset, then sorts ``S + u``
    and ``S`` again inside two ``value`` calls."""

    __slots__ = ()

    def marginal(self, u, subset):
        if u < 0 or u >= self.n:
            raise GroundSetError(f"id {u} outside range(0, {self.n})")
        base = self._key(subset)
        if u in base:
            raise DuplicateElementError(f"element {u} already in subset")
        return self.value(base + (u,)) - self.value(base)


def feature_similarity(n, seed):
    """Clustered points, as the feature workloads draw them."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.0, 10.0, size=(4, 5))
    points = centres[rng.integers(0, 4, size=n)] + rng.normal(size=(n, 5))
    return similarity_from_features(points, 0.1)


def feature_objectives(sim):
    """(label, objective as built, reference objective) for each feature
    objective, the reference built from the kernels above.  The reference
    has no ``open_fn``, so its gains take the generic path."""
    n = sim.shape[0]
    res = ReservoirConfig(r_cap=n // 3, seed=5)
    pairs = [("facility", make_facility_location(sim),
              reference_facility_fn(sim)),
             ("facility-reservoir", make_facility_location(sim, res),
              reference_facility_fn(sim, res)),
             ("logdet", make_logdet(sim, 20.0), reference_logdet_fn(sim, 20.0)),
             ("cmd", make_coverage_minus_dispersion(sim), reference_cmd_fn(sim))]
    return [(label, cur, ThreeSortObjective(ref_fn, n))
            for label, cur, ref_fn in pairs]


def objective_pairs(sim):
    """(label, current objective, reference objective) for each feature
    objective; the current one keeps the oracle's kernels but, like the
    reference, has no ``open_fn``."""
    return [(label, Objective(cur._fn, cur.n), ref)
            for label, cur, ref in feature_objectives(sim)]


@pytest.mark.parametrize("seed", [1, 2])
def test_feature_values_match_reference_kernels(seed):
    n = 80
    sim = feature_similarity(n, seed)
    rng = SplitMix64(seed)
    subsets = [()] + [(u,) for u in range(n)]
    for _ in range(120):
        order = list(range(n))
        rng.shuffle(order)
        subsets.append(tuple(sorted(order[:2 + rng.randrange(59)])))
    for label, new, ref in objective_pairs(sim):
        for ids in subsets:
            assert new._fn(ids) == ref._fn(ids), (label, ids)
        for ids in subsets[n + 1:]:
            members = list(ids)
            rng.shuffle(members)
            u = next(x for x in range(n) if x not in ids)
            for container in (ElementSet, set, tuple):
                assert (new.marginal(u, container(members))
                        == ref.marginal(u, container(members))), label
        assert new.evaluations == ref.evaluations, label


@pytest.mark.parametrize("algorithm", ["framework", "sieve_streaming",
                                       "threshold_sieve", "auto_sieve",
                                       "repeated_greedy"])
def test_feature_runs_match_reference_kernels(algorithm):
    n = 40
    sim = feature_similarity(n, 7)
    sys = make_system({"type": "cardinality", "rho": 6, "n": n})
    stream = list(range(n))
    SplitMix64(7).shuffle(stream)
    for label, new, ref in objective_pairs(sim):
        sol_new, peak_new = run_algorithm(algorithm, sys, new, stream, {})
        sol_ref, peak_ref = run_algorithm(algorithm, sys, ref, stream, {})
        assert list(sol_new) == list(sol_ref), label
        assert peak_new == peak_ref, label
        assert new.evaluations == ref.evaluations, label
        assert new.value(sol_new) == ref.value(sol_ref), label


@pytest.mark.parametrize("algorithm", ["framework", "sieve_streaming",
                                       "threshold_sieve", "auto_sieve",
                                       "repeated_greedy"])
def test_feature_gain_state_runs_match_reference_kernels(algorithm):
    # the objectives as built read every streaming and greedy gain from
    # their gain states; the references ask ``fn`` differences
    n = 40
    sim = feature_similarity(n, 11)
    sys = make_system({"type": "cardinality", "rho": 6, "n": n})
    stream = list(range(n))
    SplitMix64(11).shuffle(stream)
    for label, cur, ref in feature_objectives(sim):
        assert type(cur.open()) is not GainState, label
        sol, peak = run_algorithm(algorithm, sys, cur, stream, {})
        sol_ref, peak_ref = run_algorithm(algorithm, sys, ref, stream, {})
        assert list(sol) == list(sol_ref), label
        assert peak == peak_ref, label
        assert cur.value(sol) == ref.value(sol_ref), label


def test_facility_state_ratio_swap_matches_reference_kernels():
    # a caller of GainState.remove; the elements most like element
    # 0 arrive first, so later, more distant ones are swapped in
    n = 40
    sim = feature_similarity(n, 13)
    stream = sorted(range(n), key=lambda u: -sim[0, u])
    sys = cardinality_system(n, 5)
    for label, cur, ref in feature_objectives(sim)[:2]:
        (out,), peak, evictions = _drive([RatioSwapStream(sys, cur)], stream)
        (out_ref,), peak_ref, evictions_ref = _drive(
            [RatioSwapStream(sys, ref)], stream)
        # a swap evicts a held element instead of the arrival
        assert any(x != stream[step] for step, x in evictions), label
        assert evictions == evictions_ref, label
        assert list(out.solution) == list(out_ref.solution), label
        assert peak == peak_ref, label
        assert cur.value(out.solution) == ref.value(out_ref.solution), label
