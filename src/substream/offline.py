"""Offline algorithms: feasibility-only greedy, value greedy, deterministic
unconstrained double greedy, the repeated greedy reduction for non-monotone
objectives, and an exhaustive optimum oracle for testing.

All routines are deterministic: value ties break toward the smallest
element id, so independent runs reproduce each other exactly.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable

from .core import EPS, ElementSet, Objective, SizeLimitError, first_best
from .constraints import IndependenceSystem

BRUTE_FORCE_LIMIT = 22


def unweighted_greedy(sys: IndependenceSystem, order: Iterable[int]) -> ElementSet:
    """Scan ``order`` and keep every element that preserves independence.

    The result is a base of the presented elements: nothing presented can
    be added to it afterwards.  It only grows, so one feasibility state
    from :meth:`IndependenceSystem.open` answers every query.
    """
    state = sys.open()
    for u in order:
        if state.can_add(u):
            state.add(u)
    return state.members


def weighted_greedy(f: Objective, sys: IndependenceSystem,
                    ground: Iterable[int]) -> ElementSet:
    """Repeatedly add the feasible element of largest marginal gain,
    smallest id first on equal gains.

    Stops as soon as no feasible element gains more than the tolerance.
    Internally lazy (Minoux): the heap holds ``(-gain, id)`` keys whose
    gains, from earlier rounds, are upper bounds by submodularity, and a
    round pops and re-evaluates entries until the smallest fresh key beats
    every key still on the heap.  That key is the round's choice, so the
    selection matches the naive re-evaluate-everything greedy exactly.
    The solution only grows, so every gain is read from one gain state
    from :meth:`Objective.open`, and every feasibility query is asked of
    one feasibility state from :meth:`IndependenceSystem.open` beside it.
    """
    gains = f.open()
    fits = sys.open()
    sol = gains.members
    heap = [(-gains.gain(u), u) for u in set(ground)]
    heapq.heapify(heap)
    while heap and -heap[0][0] > EPS:
        best, fresh = None, []
        while heap and (best is None or heap[0] < best):
            cand = heapq.heappop(heap)[1]
            if fits.can_add(cand):  # infeasible now, infeasible forever
                key = (-gains.gain(cand), cand)
                fresh.append(key)
                if best is None or key < best:
                    best = key
        if best is None or -best[0] <= EPS:
            break
        gains.add(best[1])
        fits.add(best[1])
        for key in fresh:
            if key != best:
                heapq.heappush(heap, key)
    return sol


def double_greedy(f: Objective, ground: Iterable[int]) -> ElementSet:
    """Deterministic unconstrained maximizer with a 1/3 guarantee
    (Buchbinder, Feldman, Naor and Schwartz, FOCS 2012).

    Sweeps the ground set in ascending id order keeping two gain states:
    ``keep``, the grown set, starts empty, and ``pool``, the
    not-yet-shrunk set, starts as the whole ground set.  Each element is
    kept when its gain to ``keep`` is at least minus its loss from
    ``pool`` (ties keep), and otherwise removed from ``pool``.
    """
    ids = sorted(set(ground))
    keep = f.open()
    pool = f.open()
    for u in ids:
        pool.add(u)
    for u in ids:
        if keep.gain(u) >= -pool.loss(u) - EPS:
            keep.add(u)
        else:
            pool.remove(u)
    return keep.members


def repeated_greedy(f: Objective, sys: IndependenceSystem,
                    ground: Iterable[int]) -> ElementSet:
    """Greedy rounds on shrinking ground sets, each polished by the
    unconstrained double greedy; returns the set :func:`first_best`
    picks among the empty set and every round's two sets, in that order.

    It runs ceil(sqrt(k)) + 1 rounds for the system's exchange parameter
    k, the count of the reduction's analysis (2 rounds on a matroid), and
    stops early once a round's greedy set comes out empty.
    """
    # ceil(sqrt(k)) + 1, in exact integer arithmetic
    iterations = math.isqrt(sys.k_param - 1) + 2
    remaining = ElementSet(sorted(set(ground)))
    cands = [ElementSet()]
    values = [f.value(cands[0])]
    for _ in range(iterations):
        round_sol = weighted_greedy(f, sys, remaining)
        if not round_sol:
            break
        polished = double_greedy(f, round_sol)
        for cand in (round_sol, polished):
            cands.append(cand)
            values.append(f.value(cand))
        remaining.difference_update(round_sol)
    return cands[first_best(values)]


def brute_force_opt(f: Objective, sys: IndependenceSystem,
                    ground: Iterable[int]) -> tuple[ElementSet, float]:
    """Exhaustive feasible optimum; ties prefer the lexicographically
    smallest sorted id sequence.  Only for small grounds."""
    ids = sorted(set(ground))
    n = len(ids)
    if n > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(f"brute force limited to {BRUTE_FORCE_LIMIT} elements")
    best_key: tuple[int, ...] = ()
    best_val = f.value(())
    for mask in range(1, 1 << n):
        subset = tuple(ids[i] for i in range(n) if mask >> i & 1)
        if not sys.is_independent(subset):
            continue
        val = f.value(subset)
        if val > best_val or (val == best_val and subset < best_key):
            best_val = val
            best_key = subset
    return ElementSet(best_key), best_val
