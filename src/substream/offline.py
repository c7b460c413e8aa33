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
    be added to it afterwards.
    """
    out = ElementSet()
    for u in order:
        if sys.can_add(u, out):
            out.add(u)
    return out


def weighted_greedy(f: Objective, sys: IndependenceSystem,
                    ground: Iterable[int]) -> ElementSet:
    """Repeatedly add the feasible element of largest marginal gain.

    Stops as soon as no feasible element gains more than the tolerance.
    Internally lazy: gains from earlier rounds are upper bounds by
    submodularity, so an entry is only re-evaluated while its bound could
    still win the round.
    The selection (including smallest-id tie-breaks) matches the naive
    re-evaluate-everything greedy exactly.  The solution only grows, so
    every gain is read from one gain state from :meth:`Objective.open`.
    """
    gains = f.open()
    sol = gains.members
    heap: list[tuple[float, int]] = []
    for u in set(ground):
        heap.append((-gains.gain(u), u))
    heapq.heapify(heap)

    while heap:
        if -heap[0][0] <= EPS:
            break
        best_u = None
        best_gain = -math.inf
        fresh: list[tuple[float, int]] = []
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
