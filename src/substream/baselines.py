"""Streaming baselines from the literature, exposed both as components and
as one-call convenience functions.

The two swap-based algorithms are defined for a cardinality constraint
only; both fill the solution first and then trade elements in under their
respective rules.  Tie-breaks always prefer the earliest arrival, which
makes runs exactly reproducible.
"""

from __future__ import annotations

import heapq

from .core import (EPS, ElementSet, GainState, Objective, SizeLimitError,
                   UnsupportedConstraintError, first_best)
from .constraints import (EXACT_RHO_LIMIT, IndependenceSystem, _spec_int,
                          exact_rho)
from .streaming import StreamingComponent, StreamOutcome, _drive, _release


class GreedyStream(StreamingComponent):
    """Feasibility-first streaming greedy: keep whatever still fits.

    Value-blind, so it carries no finite quality guarantee; shipped as the
    simplest baseline.
    """

    def __init__(self, sys: IndependenceSystem, f: Objective):
        super().__init__()
        self.sys = sys
        self.f = f
        self.solution = ElementSet()

    def _ingest(self, u: int) -> list[int]:
        if self.sys.can_add(u, self.solution):
            self.solution.add(u)
            return []
        return [u]

    def _finalize(self):
        return self.solution.copy(), self.solution.copy(), list(self.solution)

    def stored_count(self) -> int:
        return len(self.solution)


class SieveGuessStream(StreamingComponent):
    """Threshold-guessing streamer: one growing solution per value guess.

    Guesses form a geometric grid anchored at the first positive feasible
    singleton and spanning up to ``2 * rho`` times the best singleton seen
    (the window top itself is always a guess).  A guess accepts an element
    when it fits and its marginal gain clears ``guess / (2 * rho)``.
    Guesses that fall below the best singleton are deleted and their
    exclusive elements evicted.  The best guess solution wins at the end.

    A guess's solution only grows, so each guess holds a gain state from
    :meth:`Objective.open`; ``guesses`` maps a guess value to its state,
    whose ``members`` is the solution.

    A ``rho`` passed in must be a whole number of at least 1; without one
    the system's ``rho_hint`` is used, else its exact rho.
    """

    def __init__(self, sys: IndependenceSystem, f: Objective,
                 epsilon: float = 0.1, rho: int | None = None):
        super().__init__()
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if rho is None:
            rho = sys.rho_hint
        elif _spec_int("SieveGuessStream", "rho", rho) < 1:
            raise ValueError("rho must be a positive integer")
        if rho is None:
            if sys.n > EXACT_RHO_LIMIT:
                raise SizeLimitError(
                    "rho unknown and too large to brute force; pass rho=")
            rho = exact_rho(sys)
        self.sys = sys
        self.f = f
        self.epsilon = float(epsilon)
        self.rho = int(rho)
        self.anchor: float | None = None
        self.best_singleton = 0.0
        self.guesses: dict[float, GainState] = {}
        self._holders: dict[int, int] = {}

    def _grid(self) -> list[float]:
        """Guess values currently in the window [best, 2 * rho * best]."""
        top = 2.0 * self.rho * self.best_singleton
        values = []
        v = self.anchor
        while v < top - EPS:
            if v >= self.best_singleton - EPS:
                values.append(v)
            v *= 1.0 + self.epsilon
        values.append(top)
        return values

    def _refresh_guesses(self) -> list[int]:
        evicted: list[int] = []
        for v in self._grid():
            if v not in self.guesses:
                self.guesses[v] = self.f.open()
        floor = self.best_singleton - EPS
        for v in [g for g in self.guesses if g < floor]:
            _release(self._holders, self.guesses.pop(v).members, evicted)
        return evicted

    def _ingest(self, u: int) -> list[int]:
        evicted: list[int] = []
        if self.sys.is_independent((u,)):
            value = self.f.singleton(u)
            if value > self.best_singleton + EPS:
                self.best_singleton = value
                if self.anchor is None:
                    self.anchor = value
                evicted.extend(self._refresh_guesses())
        held = 0
        for v, state in self.guesses.items():
            if (self.sys.can_add(u, state.members)
                    and state.gain(u) >= v / (2.0 * self.rho) - EPS):
                state.add(u)
                held += 1
        if held:
            self._holders[u] = self._holders.get(u, 0) + held
        else:
            evicted.append(u)
        return evicted

    def _finalize(self):
        cands = [ElementSet()]
        cands += [self.guesses[v].members for v in sorted(self.guesses)]
        summary = ElementSet().union(*cands)
        best = cands[first_best(self.f.value(t) for t in cands)]
        return best, summary, list(summary)

    def stored_count(self) -> int:
        return len(self._holders)


class _SwapStream(StreamingComponent):
    """Fill-then-swap bookkeeping shared by the two swap baselines;
    cardinality constraints only.

    The solution is the members of one gain state from
    :meth:`Objective.open`: it fills through ``gain``/``add`` and swaps
    through ``remove``/``add``.  ``ever_held`` is every element that was
    ever in the solution, the summary at end of stream.
    """

    def __init__(self, sys: IndependenceSystem, f: Objective):
        super().__init__()
        if sys.kind != "cardinality" or sys.rho_hint is None:
            raise UnsupportedConstraintError(
                "this algorithm is defined for a cardinality constraint only")
        self.rho = sys.rho_hint
        self.sys = sys
        self.f = f
        self.state = f.open()
        self.solution = self.state.members
        self.ever_held = ElementSet()

    def _finalize(self):
        return self.solution.copy(), self.ever_held.copy(), list(self.solution)

    def stored_count(self) -> int:
        return len(self.solution)


class PreemptionStream(_SwapStream):
    """Fill then swap: a newcomer replaces the cheapest held element when
    its gain is at least twice that element's remembered insertion gain.

    Each held element remembers the marginal gain it had against the part
    of the solution that arrived before it; later swaps do not change the
    remembered gain.  Every gain is one ``gain`` query on the solution's
    gain state.

    The held elements sit in a heap keyed by (insertion gain, insertion
    count), so the victim, the cheapest held element and among equals the
    earliest inserted, is found without a scan.  Only the heap's minimum
    ever leaves the solution, so the heap holds exactly the solution.
    """

    def __init__(self, sys: IndependenceSystem, f: Objective,
                 trace: list | None = None):
        super().__init__(sys, f)
        self._trace = trace
        self._cheapest: list[tuple[float, int, int]] = []
        self._inserted = 0

    def _record(self, u: int, gain: float):
        self.state.add(u)
        self.ever_held.add(u)
        self._inserted += 1
        heapq.heappush(self._cheapest, (gain, self._inserted, u))

    def _note(self, event: str, u: int, value: float):
        if self._trace is not None:
            self._trace.append((len(self._seen) - 1, event, u, -1, value))

    def _ingest(self, u: int) -> list[int]:
        gain = self.state.gain(u)
        if len(self.solution) < self.rho:
            if gain >= -EPS:
                self._record(u, gain)
                self._note("accept", u, gain)
                return []
            self._note("evict", u, gain)
            return [u]
        cheapest_gain, _, cheapest = self._cheapest[0]
        if gain >= 2.0 * cheapest_gain - EPS:
            heapq.heappop(self._cheapest)
            self.state.remove(cheapest)
            self._record(u, gain)
            self._note("swap", u, gain)
            self._note("evict", cheapest, 0.0)
            return [cheapest]
        self._note("evict", u, gain)
        return [u]


class RatioSwapStream(_SwapStream):
    """Fill then swap: evaluate the best single replacement for a newcomer
    and take it when the improvement is at least f(S)/rho.

    The swap victim is the held element whose removal (with the newcomer
    added) leaves the most value.  The value never decreases across a
    swap.  The swaps are weighed with the gain state's ``swap_values``:
    each trial is one query, O(1) for the directed cut.
    """

    def _ingest(self, u: int) -> list[int]:
        state = self.state
        if len(state.members) < self.rho:
            if state.gain(u) >= -EPS:
                state.add(u)
                self.ever_held.add(u)
                return []
            return [u]
        current = self.f.value(state.members)
        trial_vals = state.swap_values(u, current)
        best = first_best(trial_vals)
        if trial_vals[best] - current >= current / self.rho - EPS:
            victim = list(state.members)[best]
            state.remove(victim)
            state.add(u)
            self.ever_held.add(u)
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
