"""Streaming baselines from the literature, exposed both as components and
as one-call convenience functions.

The two swap-based algorithms are defined for a cardinality constraint
only; both fill the solution first and then trade elements in under their
respective rules.  Tie-breaks always prefer the earliest arrival, which
makes runs exactly reproducible.
"""

from __future__ import annotations

import heapq
import numbers
from bisect import bisect_left
from collections.abc import Mapping
from types import MappingProxyType

from .core import (EPS, ElementSet, Objective, SizeLimitError,
                   UnsupportedConstraintError, _spec_count, first_best,
                   values_once)
from .constraints import EXACT_RHO_LIMIT, IndependenceSystem, exact_rho
from .streaming import (StreamingComponent, StreamOutcome, _drive, _Group,
                        _Grouped)


class GreedyStream(StreamingComponent):
    """Feasibility-first streaming greedy: keep whatever still fits.

    Value-blind, so it carries no finite quality guarantee; shipped as the
    simplest baseline.  The solution is the members of one feasibility
    state from :meth:`IndependenceSystem.open`.
    """

    def __init__(self, sys: IndependenceSystem, f: Objective):
        super().__init__(sys, f)
        self._state = sys.open()
        self.solution = self._state.members

    def _ingest(self, u: int) -> list[int]:
        if self._state.can_add(u):
            self._state.add(u)
            return []
        return [u]

    def _finalize(self):
        return self.solution.copy(), self.solution.copy()

    def stored_count(self) -> int:
        return len(self.solution)


class SieveGuessStream(_Grouped):
    """Threshold-guessing streamer: one growing solution per value guess,
    with the guess pruning of Sieve-Streaming++ (Kazemi et al., ICML 2019).

    Guesses form a geometric grid anchored at the first positive feasible
    singleton and spanning up to ``2 * rho`` times the best singleton seen
    (the window top itself is always a guess).  A guess accepts an element
    when it fits and its marginal gain clears ``guess / (2 * rho)``.
    An element leaves when no guess holds it any more.  The best guess
    solution, or the empty set, wins at the end; each distinct candidate
    is valued once (:func:`values_once`).

    Pruning.  ``lower_bound`` (LB) needs no oracle call: when guess v
    takes an element, LB rises to at least
    ``min(v, |S_v| * (v / (2 * rho) - EPS))``.  Every gain S_v accepted
    cleared ``v / (2 * rho) - EPS``, so for non-negative f the second
    term is at most f(S_v), and so is v when it is the smaller one.
    After the take every guess below LB is dropped, and no guess below
    ``max(best_singleton - EPS, LB)`` is made or kept.  The guarantee
    stands: some guess v* has OPT/(1+epsilon) <= v* <= OPT.  If v* is
    dropped below LB, then LB > v*, and the guess that set LB holds a
    set worth at least LB; it has v >= LB, so only the singleton floor
    drops it, once a singleton worth more than v >= LB arrives.  The
    ``min(v, ...)`` keeps that guess: with a greedy ``rho`` below the
    true one, ``|S_v|`` can exceed ``2 * rho``, and the product alone
    would exceed every guess.

    The singleton prunes too.  For a submodular f no gain is above
    f({u}), so a guess whose threshold ``v / (2 * rho) - EPS`` is above
    it cannot take u.  Each arrival is offered only to the groups whose
    lowest threshold is at most the gain cap that
    :meth:`~.streaming._Grouped._singleton` gives
    (:meth:`~.streaming._Grouped._reach`), and an infeasible singleton to
    none.

    Guesses are grouped by the rules of :class:`~.streaming._Grouped`;
    ``guesses`` maps each guess value to its group, which keeps its
    members at level 0, in a state opened with the group.  Each arrival
    asks one ``can_add`` per group it is offered to, and one
    :meth:`Objective.gains` call answers the groups that can take it, so
    an error leaves every guess without the element.  The threshold
    rises with v, so a group's guesses that take it are a prefix, and
    the LB term, non-decreasing in v float for float, is evaluated once,
    at that prefix's top.  A
    new value below the top guess (within ``EPS`` under an old, off-grid
    top) gets an empty group of its own at its place.

    ``epsilon`` must be a number in (0, 1), and a ``rho`` passed in a
    whole number of at least 1; without one the system's ``rho_hint`` is
    used, else its exact rho.
    """

    def __init__(self, sys: IndependenceSystem, f: Objective,
                 epsilon: float = 0.1, rho: int | None = None):
        super().__init__(sys, f)
        if not (isinstance(epsilon, numbers.Real) and 0 < epsilon < 1):
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
        self._held = 0  # distinct elements in the guesses' members

    @property
    def guesses(self) -> Mapping[float, _Group]:
        """Guess value -> its group, in ascending value order."""
        return MappingProxyType({v: group for group in self._groups
                                 for v in group.keys})

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

    def _group(self, keys: list[float]) -> _Group:
        group = super()._group(keys)
        group.bucket(0, self.sys)  # read as buckets[0] at every arrival
        return group

    def _drop(self, floor: float) -> list[int]:
        """:meth:`_drop_below` ``floor``, counted in ``_held``."""
        evicted = self._drop_below(floor)[0]
        self._held -= len(evicted)
        return evicted

    def _refresh_guesses(self) -> list[int]:
        known = self.guesses
        for v in self._grid():
            if v in known:
                continue
            groups = self._groups  # _split replaces _groups
            if groups and v < groups[-1].keys[-1]:
                # only within EPS under an old top, which is off the grid
                i = next(i for i, group in enumerate(groups)
                         if v < group.keys[-1])
                k = bisect_left(groups[i].keys, v)
                if k:
                    self._split(groups[i], 0, k)
                    i += 1
                self._groups.insert(i, self._group([v]))
            else:
                self._extend([v])
        return self._drop(self._floor())

    def _ingest(self, u: int) -> list[int]:
        evicted: list[int] = []
        value, cap = self._singleton(u)
        if value > self.best_singleton + EPS:
            self.best_singleton = value
            if self.anchor is None:
                self.anchor = value
            evicted.extend(self._refresh_guesses())
        taken = False
        bound = self.lower_bound
        half = 2.0 * self.rho
        # v / half - EPS <= cap, solved for v; rounding moves the bound by
        # a few ulps, far inside the cap's margin
        fits = [group for group in self._reach((cap + EPS) * half)
                if group.buckets[0].can_add(u)]
        gains = self.f.gains(u, [group.gains for group in fits])
        for group, gain in zip(fits, gains):  # _split replaces _groups
            keys = group.keys
            k = len(keys)
            if not gain >= keys[-1] / half - EPS:
                k = 0
                while gain >= keys[k] / half - EPS:
                    k += 1
                if not k:
                    continue
                self._split(group, 0, k)
            group.buckets[0].add(u)
            group.gains.add(u)
            taken = True
            top = keys[k - 1]
            bound = max(bound, min(top, len(group.members) * (top / half - EPS)))
        if taken:
            self._held += 1
            if bound > self.lower_bound:
                self.lower_bound = bound
                evicted += self._drop(bound)
        else:
            evicted.append(u)
        return evicted

    def _finalize(self):
        cands = [ElementSet()]
        cands += [group.members for group in self._groups
                  for _ in group.keys]
        best = cands[first_best(values_once(self.f, cands))]
        return best, ElementSet().union(*cands)

    def stored_count(self) -> int:
        return self._held


class _SwapStream(StreamingComponent):
    """Fill-then-swap bookkeeping shared by the two swap baselines;
    cardinality constraints only.

    The solution is the members of one gain state from
    :meth:`Objective.open`: it fills through ``gain``/``add`` and swaps
    through ``remove``/``add``.  ``ever_held`` is every element that was
    ever in the solution, the summary at end of stream.  Both fill alike:
    below ``rho`` elements an arrival is taken (:meth:`_take`) when its
    gain is at least ``-EPS``; a subclass writes only ``_swap_in``, which
    gets each arrival once the solution is full.
    """

    def __init__(self, sys: IndependenceSystem, f: Objective):
        super().__init__(sys, f)
        if sys.kind != "cardinality" or sys.rho_hint is None:
            raise UnsupportedConstraintError(
                "this algorithm is defined for a cardinality constraint only")
        self.rho = sys.rho_hint
        self.state = f.open()
        self.solution = self.state.members
        self.ever_held = ElementSet()

    def _take(self, u: int, gain: float) -> None:
        """Put ``u``, weighed by ``gain``, in the solution."""
        self.state.add(u)
        self.ever_held.add(u)

    def _ingest(self, u: int) -> list[int]:
        if len(self.solution) >= self.rho:
            return self._swap_in(u)
        gain = self.state.gain(u)
        if gain >= -EPS:
            self._take(u, gain)
            self._note("accept", u, -1, gain)
            return []
        self._note("evict", u, -1, gain)
        return [u]

    def _finalize(self):
        return self.solution.copy(), self.ever_held.copy()

    def stored_count(self) -> int:
        return len(self.solution)


class PreemptionStream(_SwapStream):
    """Fill then swap: a newcomer replaces the cheapest held element when
    its gain is at least twice that element's remembered insertion gain.

    Each held element remembers the marginal gain it had against the part
    of the solution that arrived before it; later swaps do not change the
    remembered gain.  Every gain is one ``gain`` query on the solution's
    gain state.

    The held elements sit in a heap keyed by (insertion gain,
    ``len(ever_held)`` after it), so the victim, the cheapest held element
    and among equals the earliest inserted, is found without a scan; only
    the heap's minimum leaves, so the heap holds exactly the solution.
    """

    def __init__(self, sys: IndependenceSystem, f: Objective,
                 trace: list | None = None):
        super().__init__(sys, f)
        self.trace = trace
        self._cheapest: list[tuple[float, int, int]] = []

    def _take(self, u: int, gain: float) -> None:
        super()._take(u, gain)
        heapq.heappush(self._cheapest, (gain, len(self.ever_held), u))

    def _swap_in(self, u: int) -> list[int]:
        gain = self.state.gain(u)
        cheapest_gain, _, cheapest = self._cheapest[0]
        if gain >= 2.0 * cheapest_gain - EPS:
            heapq.heappop(self._cheapest)
            self.state.remove(cheapest)
            self._take(u, gain)
            self._note("swap", u, -1, gain)
            self._note("evict", cheapest, -1, 0.0)
            return [cheapest]
        self._note("evict", u, -1, gain)
        return [u]


class RatioSwapStream(_SwapStream):
    """Fill then swap: evaluate the best single replacement for a newcomer
    and take it when the improvement is at least f(S)/rho.

    The swap victim is the held element whose removal (with the newcomer
    added) leaves the most value.  The value never decreases across a
    swap.  The swaps are weighed with the gain state's ``swap_values``:
    each trial is one query, O(1) for the directed cut.  f(S) is asked
    once per solution: it is kept from the first full arrival until a
    swap.
    """

    _current: float | None = None  # f(solution), until the next swap

    def _swap_in(self, u: int) -> list[int]:
        state = self.state
        current = self._current
        if current is None:
            current = self._current = self.f.value(state.members)
        trial_vals = state.swap_values(u, current)
        best = first_best(trial_vals)
        if trial_vals[best] - current >= current / self.rho - EPS:
            victim = list(state.members)[best]
            state.remove(victim)
            self._take(u, trial_vals[best] - current)
            self._current = None
            return [victim]
        return [u]


def streaming_greedy(sys: IndependenceSystem, f: Objective,
                     stream) -> StreamOutcome:
    return _drive([GreedyStream(sys, f)], stream)[0][0]


def sieve_streaming(sys: IndependenceSystem, f: Objective, stream,
                    epsilon: float = 0.1, rho: int | None = None) -> StreamOutcome:
    component = SieveGuessStream(sys, f, epsilon=epsilon, rho=rho)
    return _drive([component], stream)[0][0]


def preemption_stream(sys: IndependenceSystem, f: Objective,
                      stream) -> StreamOutcome:
    return _drive([PreemptionStream(sys, f)], stream)[0][0]


def ratio_swap_stream(sys: IndependenceSystem, f: Objective,
                      stream) -> StreamOutcome:
    return _drive([RatioSwapStream(sys, f)], stream)[0][0]
