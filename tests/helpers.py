"""Seeded random instance builders, references and checks shared across
the test modules."""

import heapq
import math
from itertools import chain
from typing import NamedTuple

from substream import (CutGraph, brute_force_opt, build_g1, build_g2,
                       cardinality_system, constraints, intersect,
                       knapsack_system, labeled_limit_system,
                       make_coverage_minus_dispersion, make_directed_cut,
                       make_facility_location, make_logdet, make_modular,
                       node_independent_set_system, planarity_system,
                       similarity_from_features)
from substream.constraints import (EXACT_RHO_LIMIT, FeasibilityState,
                                   IndependenceSystem, exact_rho)
from substream.core import (EPS, ElementSet, GainState, Objective,
                            SizeLimitError, TabulatedGainState, _spec_count,
                            first_best, values_once)
from substream.offline import unweighted_greedy
from substream.prng import SplitMix64
from substream.streaming import (StreamingComponent, _guess_exponent, _level,
                                 _unheld, band_top, candidate_count)


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


OBJECTIVE_FAMILIES = ["modular", "cut", "facility", "logdet", "cmd"]
SYSTEM_FAMILIES = ["cardinality", "node", "planarity", "knapsack", "intersect"]


def _family_objective(kind, rng, n):
    if kind == "modular":
        # weights over many powers of two spread the gains over many levels
        return make_modular([2.0 ** rng.uniform(-4.0, 16.0) for _ in range(n)])
    if kind == "cut":
        return random_cut(rng, n)
    sim = random_similarity(rng, n)
    if kind == "facility":
        return make_facility_location(sim)
    if kind == "logdet":
        return make_logdet(sim, alpha=2.0)
    return make_coverage_minus_dispersion(sim)


def _family_knapsack(rng, n):
    costs = [float(rng.randint(1, 4)) for _ in range(n)]
    return knapsack_system(costs, float(rng.randint(4, 2 * n)))


def _family_planarity(rng, n):
    """Planarity over the first n edges of a shuffled K7."""
    pairs = [(a, b) for a in range(7) for b in range(a + 1, 7)]
    rng.shuffle(pairs)
    return planarity_system(7, pairs[:n])


def _family_system(kind, rng, n):
    if kind == "cardinality":
        return cardinality_system(n, rng.randint(1, max(1, n // 2)))
    if kind == "node":
        return node_independent_set_system(n, [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < 0.3])
    if kind == "planarity":
        return _family_planarity(rng, n)
    if kind == "knapsack":
        return _family_knapsack(rng, n)
    return intersect(_family_planarity(rng, n), _family_knapsack(rng, n))


def family_instance(n, seed, objective, system):
    """A seeded ``(sys, f)`` over ``range(n)`` of one of the
    ``SYSTEM_FAMILIES`` and one of the ``OBJECTIVE_FAMILIES`` (n <= 21,
    the edges of K7)."""
    rng = SplitMix64(seed)
    return _family_system(system, rng, n), _family_objective(objective, rng, n)


def check_groups(component, keys):
    """Assert the group invariants of a grouped window or guess streamer
    whose copies or guesses are ``keys``, in order: the groups' keys
    ascend within and across groups and equal ``keys``, and each level
    state holds its members in member order, the level states together
    holding exactly the group's members."""
    groups = component._groups
    assert all(group.keys for group in groups)
    flat = [key for group in groups for key in group.keys]
    assert all(a < b for a, b in zip(flat, flat[1:]))
    assert flat == list(keys)
    for group in groups:
        kept = list(group.members)
        states = group.buckets.values()
        assert sorted(x for s in states for x in s.members) == sorted(kept)
        assert all(list(s.members) == [x for x in kept if x in s.members]
                   for s in states)


def random_independent_set(rng: SplitMix64, sys, keep_prob: float = 0.5):
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
    """Wrap ``constraints._is_planar``, the left-right test a planarity
    system asks, for one test; the returned list gets the edge count of
    every test made."""
    calls = []
    real = constraints._is_planar

    def counted(edges):
        calls.append(len(edges))
        return real(edges)

    monkeypatch.setattr(constraints, "_is_planar", counted)
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


class TwoLoopCutGainState(TabulatedGainState):
    """Reference cut gain state: adding x walks x's out-edges and then its
    in-edges, taking each weight off its neighbour's entry, and removing
    x walks both again to add them back, whether or not the two dicts
    hold the same edges."""

    __slots__ = ("out_adj", "in_adj")

    def __init__(self, f, g):
        out_adj = [{} for _ in range(g.n_vertices)]
        in_adj = [{} for _ in range(g.n_vertices)]
        for u, v, w in g.edges:
            out_adj[u][v] = out_adj[u].get(v, 0.0) + w
            in_adj[v][u] = in_adj[v].get(u, 0.0) + w
        super().__init__(f, [sum(adj.values()) for adj in out_adj])
        self.out_adj = out_adj
        self.in_adj = in_adj

    def add(self, u):
        super().add(u)
        gains = self.gains
        for v, w in self.out_adj[u].items():
            gains[v] -= w
        for v, w in self.in_adj[u].items():
            gains[v] -= w

    def remove(self, x):
        super().remove(x)
        gains = self.gains
        for v, w in self.out_adj[x].items():
            gains[v] += w
        for v, w in self.in_adj[x].items():
            gains[v] += w

    def swap_values(self, u, current):
        self._check_outside(u)
        gains, members = self.gains, self.members
        self.f.evaluations += len(members)
        gain_u = gains[u]
        out_u = self.out_adj[u]
        in_u = self.in_adj[u]
        return [current - gains[x] + gain_u + out_u.get(x, 0.0)
                + in_u.get(x, 0.0) for x in members]


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


def reference_candidates(sieve):
    """A banded sieve's h candidates, built from its ``buckets``:
    candidate j is the feasibility greedy over buckets j, j+h, ..."""
    buckets, h = sieve.buckets, sieve.h
    return [unweighted_greedy(sieve.sys, chain.from_iterable(buckets[j::h]))
            for j in range(h)]


def reference_drain(sieve):
    """A banded sieve's drain over :func:`reference_candidates`, with one
    value query per candidate: ``(winner, value)``."""
    cands = reference_candidates(sieve)
    values = [sieve.f.value(t) for t in cands]
    best = first_best(values)
    return cands[best], values[best]


class ReferenceCopy:
    """One copy of :class:`ReferenceWindow`: a banded sieve with
    ``tau = 2**exponent`` and states of its own, driven by the window
    through :meth:`place` and :meth:`drain`."""

    def __init__(self, sys, f, exponent):
        self.sys, self.f = sys, f
        self.tau = 2.0 ** exponent
        self.h = candidate_count(sys.k_param)
        self.ell = -1
        self.states = []  # one per band, None until it takes an element
        self.gains = f.open()
        self.kept = self.gains.members
        self.candidates = None

    def widen(self, ell):
        while self.ell < ell:
            self.states.append(None)
            self.ell += 1

    @property
    def buckets(self):
        return [ElementSet() if state is None else state.members
                for state in self.states]

    def place(self, u, gain):
        """Add ``u`` to the bucket of band ``floor(log2(tau / gain))``, if
        that bucket can take it; returns whether it did."""
        if gain <= EPS:
            return False
        i = _level(self.tau / gain)
        if i < 0 or i > self.ell:
            return False
        if self.states[i] is None:
            self.states[i] = self.sys.open()
        if not self.states[i].can_add(u):
            return False
        self.states[i].add(u)
        self.gains.add(u)
        return True

    def drain(self, known):
        cands = self.candidates = reference_candidates(self)
        values = values_once(self.f, cands, known)
        best = first_best(values)
        return cands[best], values[best]


class ReferenceWindow(StreamingComponent):
    """The AutoThreshold window with one :class:`ReferenceCopy` per
    exponent, each with states of its own: the window as it ran before
    copies that hold one set shared one state.  Each arrival asks every
    copy's gain in one :meth:`Objective.gains` call; at end of stream
    the copies drain in exponent order with one shared memo."""

    def __init__(self, sys, f):
        super().__init__(sys, f)
        self.k = sys.k_param
        self._base = sys.open()
        self.base = self._base.members
        self._empty = sys.open()
        self.best_singleton = -math.inf
        self._lo = 0
        self.copies = {}  # exponent -> ReferenceCopy, ascending
        self._stored = 0

    def active_exponents(self):
        if self.best_singleton <= EPS:
            return range(0)
        p, q = self.best_singleton.as_integer_ratio()
        hi = ((p * 32 * (self.k * len(self.base)) ** 2).bit_length()
              - q.bit_length())
        return range(self._lo, min(hi, 1023) + 1)

    def _move(self):
        window = self.active_exponents()
        evicted = []
        for exponent in [e for e in self.copies if e not in window]:
            dropped = self.copies.pop(exponent).kept
            self._stored -= len(dropped)
            evicted += _unheld(dropped, [
                self.base, *(c.kept for c in self.copies.values())])
        top = band_top(self.k, len(self.base))
        for exponent in window:
            if exponent not in self.copies:
                self.copies[exponent] = ReferenceCopy(self.sys, self.f,
                                                      exponent)
            self.copies[exponent].widen(top)
        return evicted

    def _ingest(self, u):
        moved = False
        if self._empty.can_add(u):
            value = self.f.singleton(u)
            if value > self.best_singleton and value > EPS:
                self._lo = _guess_exponent(value)
                self.best_singleton = value
                moved = True
        held = self._base.can_add(u)
        if held:
            self._base.add(u)
            moved = True
        evicted = self._move() if moved else []
        copies = list(self.copies.values())
        gains = self.f.gains(u, [copy.gains for copy in copies])
        for copy, gain in zip(copies, gains):
            if copy.place(u, gain):
                held = True
                self._stored += 1
        if not held:
            evicted.append(u)
        return evicted

    def _finalize(self):
        copies = list(self.copies.values())
        known = {}
        winners = [copy.drain(known) for copy in copies]
        self._stored += sum(len(t) for copy in copies for t in copy.candidates)
        best = (winners[first_best(val for _, val in winners)][0] if winners
                else ElementSet())
        return best, ElementSet().union(*(copy.kept for copy in copies))

    def stored_count(self):
        return len(self.base) + self._stored


class ReferenceGuess(NamedTuple):
    """One guess of :class:`ReferenceGuesses`: the gain state and the
    feasibility state of its solution, which hold the same members."""

    gains: GainState
    fits: FeasibilityState

    @property
    def members(self) -> ElementSet:
        return self.gains.members


class ReferenceGuesses(StreamingComponent):
    """``SieveGuessStream`` with one :class:`ReferenceGuess` per guess
    value, each with states of its own: the guess streamer as it ran
    before guesses that hold one set shared one state.  ``guesses`` is a
    dict in insertion order; each arrival asks every guess that can take
    it for its gain in one :meth:`Objective.gains` call, and drops evict
    guess by guess in dict order."""

    def __init__(self, sys: IndependenceSystem, f: Objective,
                 epsilon: float = 0.1, rho: int | None = None):
        super().__init__(sys, f)
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        rho = (sys.rho_hint if rho is None
               else _spec_count("SieveGuessStream", "rho", rho))
        if rho is None:
            if sys.n > EXACT_RHO_LIMIT:
                raise SizeLimitError(
                    "rho unknown and too large to brute force; pass rho=")
            rho = exact_rho(sys)
        self.epsilon = float(epsilon)
        self.rho = int(rho)
        self.anchor: float | None = None
        self.best_singleton = 0.0
        self.lower_bound = 0.0
        self.guesses: dict[float, ReferenceGuess] = {}
        self._held = 0  # distinct elements in the guesses' members
        self._empty = sys.open()  # never takes an element: the singleton test

    def _floor(self) -> float:
        return max(self.best_singleton - EPS, self.lower_bound)

    def _grid(self) -> list[float]:
        """Guess values currently in the window [floor, 2 * rho * best]."""
        top = 2.0 * self.rho * self.best_singleton
        floor = self._floor()
        values = []
        v = self.anchor
        while v < top - EPS:
            if v >= floor:
                values.append(v)
            v *= 1.0 + self.epsilon
        values.append(top)  # top >= LB: LB is at most a held guess
        return values

    def _drop_below(self, floor: float) -> list[int]:
        """Drop every guess below ``floor``; returns the evicted members."""
        evicted: list[int] = []
        for v in [g for g in self.guesses if g < floor]:
            evicted += _unheld(self.guesses.pop(v).members,
                               [g.members for g in self.guesses.values()])
        self._held -= len(evicted)
        return evicted

    def _refresh_guesses(self) -> list[int]:
        for v in self._grid():
            if v not in self.guesses:
                self.guesses[v] = ReferenceGuess(self.f.open(), self.sys.open())
        return self._drop_below(self._floor())

    def _ingest(self, u: int) -> list[int]:
        evicted: list[int] = []
        if self._empty.can_add(u):
            value = self.f.singleton(u)
            if value > self.best_singleton + EPS:
                self.best_singleton = value
                if self.anchor is None:
                    self.anchor = value
                evicted.extend(self._refresh_guesses())
        taken = False
        bound = self.lower_bound
        takers = [(v, guess) for v, guess in self.guesses.items()
                  if guess.fits.can_add(u)]
        gains = self.f.gains(u, [guess.gains for _, guess in takers])
        for (v, guess), gain in zip(takers, gains):
            threshold = v / (2.0 * self.rho) - EPS
            if gain >= threshold:
                guess.gains.add(u)
                guess.fits.add(u)
                taken = True
                bound = max(bound, min(v, len(guess.members) * threshold))
        if taken:
            self._held += 1
            if bound > self.lower_bound:
                self.lower_bound = bound
                evicted += self._drop_below(bound)
        else:
            evicted.append(u)
        return evicted

    def _finalize(self):
        cands = [ElementSet()]
        cands += [self.guesses[v].members for v in sorted(self.guesses)]
        best = cands[first_best(values_once(self.f, cands))]
        return best, ElementSet().union(*cands)

    def stored_count(self) -> int:
        return self._held


def reference_window_finalize(window):
    """A :class:`ReferenceWindow`'s end of stream as one drain per copy,
    each valuing its own candidates: ``(winner, value)``, or the empty
    set and None without copies."""
    copies = [window.copies[e] for e in sorted(window.copies)]
    drained = [reference_drain(copy) for copy in copies]
    if not drained:
        return ElementSet(), None
    return drained[first_best(val for _, val in drained)]


def reference_guess_finalize(stream):
    """The guess streamer's end of stream with one value query for the
    empty set and one per guess: ``(winner, value)``."""
    cands = [ElementSet()]
    cands += [stream.guesses[v].members for v in sorted(stream.guesses)]
    values = [stream.f.value(t) for t in cands]
    best = first_best(values)
    return cands[best], values[best]
