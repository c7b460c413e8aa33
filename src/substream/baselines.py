"""Streaming baselines from the literature, exposed both as components and
as one-call convenience functions.

The two swap-based algorithms are defined for a cardinality constraint
only; both fill the solution first and then trade elements in under their
respective rules.  Tie-breaks always prefer the earliest arrival, which
makes runs exactly reproducible.
"""

from __future__ import annotations

import math

from .core import (EPS, ElementSet, Objective, SizeLimitError,
                   UnsupportedConstraintError)
from .constraints import EXACT_RHO_LIMIT, IndependenceSystem, exact_rho
from .streaming import StreamingComponent, StreamOutcome, _drive


def _require_cardinality(sys: IndependenceSystem) -> int:
    if sys.kind != "cardinality" or sys.rho_hint is None:
        raise UnsupportedConstraintError(
            "this algorithm is defined for a cardinality constraint only")
    return sys.rho_hint


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
    """

    def __init__(self, sys: IndependenceSystem, f: Objective,
                 epsilon: float = 0.1, rho: int | None = None):
        super().__init__()
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if rho is None:
            rho = sys.rho_hint
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
        self.guesses: dict[float, ElementSet] = {}
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
                self.guesses[v] = ElementSet()
        floor = self.best_singleton - EPS
        for v in [g for g in self.guesses if g < floor]:
            for x in self.guesses[v]:
                self._holders[x] -= 1
                if self._holders[x] == 0:
                    del self._holders[x]
                    evicted.append(x)
            del self.guesses[v]
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
        for v, sol in self.guesses.items():
            if (self.f.marginal(u, sol) >= v / (2.0 * self.rho) - EPS
                    and self.sys.can_add(u, sol)):
                sol.add(u)
                held += 1
        if held:
            self._holders[u] = self._holders.get(u, 0) + held
        else:
            evicted.append(u)
        return evicted

    def _finalize(self):
        best = ElementSet()
        best_val = self.f.value(best)
        summary = ElementSet()
        for v in sorted(self.guesses):
            sol = self.guesses[v]
            val = self.f.value(sol)
            if val > best_val + EPS:
                best, best_val = sol, val
            for x in sol:
                if x not in summary:
                    summary.add(x)
        return best, summary, list(summary)

    def stored_count(self) -> int:
        return len(self._holders)


class PreemptionStream(StreamingComponent):
    """Fill then swap: a newcomer replaces the cheapest held element when
    its gain is at least twice that element's remembered insertion gain.

    Each held element remembers the marginal gain it had against the part
    of the solution that arrived before it; the cache is never updated by
    later swaps.  Cardinality constraints only.
    """

    def __init__(self, sys: IndependenceSystem, f: Objective,
                 trace: list | None = None):
        super().__init__()
        self.rho = _require_cardinality(sys)
        self.sys = sys
        self.f = f
        self.solution = ElementSet()
        self.insert_gain: dict[int, float] = {}
        self.ever_held = ElementSet()
        self._trace = trace

    def _record(self, u: int, gain: float):
        self.solution.add(u)
        self.insert_gain[u] = gain
        self.ever_held.add(u)

    def _note(self, event: str, u: int, value: float):
        if self._trace is not None:
            self._trace.append((len(self._seen) - 1, event, u, -1, value))

    def _ingest(self, u: int) -> list[int]:
        gain = self.f.marginal(u, self.solution)
        if len(self.solution) < self.rho:
            if gain >= -EPS:
                self._record(u, gain)
                self._note("accept", u, gain)
                return []
            self._note("evict", u, gain)
            return [u]
        cheapest = min(self.solution,
                       key=lambda x: (self.insert_gain[x], self.arrival_rank(x)))
        if gain >= 2.0 * self.insert_gain[cheapest] - EPS:
            self.solution.remove(cheapest)
            self._record(u, gain)
            self._note("swap", u, gain)
            self._note("evict", cheapest, 0.0)
            return [cheapest]
        self._note("evict", u, gain)
        return [u]

    def _finalize(self):
        return self.solution.copy(), self.ever_held.copy(), list(self.solution)

    def stored_count(self) -> int:
        return len(self.solution)


class RatioSwapStream(StreamingComponent):
    """Fill then swap: evaluate the best single replacement for a newcomer
    and take it when the improvement is at least f(S)/rho.

    The swap victim is the held element whose removal (with the newcomer
    added) leaves the most value; cardinality constraints only.  The value
    never decreases across a swap.
    """

    def __init__(self, sys: IndependenceSystem, f: Objective):
        super().__init__()
        self.rho = _require_cardinality(sys)
        self.sys = sys
        self.f = f
        self.solution = ElementSet()
        self.ever_held = ElementSet()

    def _ingest(self, u: int) -> list[int]:
        if len(self.solution) < self.rho:
            if self.f.marginal(u, self.solution) >= -EPS:
                self.solution.add(u)
                self.ever_held.add(u)
                return []
            return [u]
        current = self.f.value(self.solution)
        victim = None
        victim_val = -math.inf
        for x in self.solution:
            trial = self.solution.difference((x,))
            trial.add(u)
            val = self.f.value(trial)
            if val > victim_val + EPS or victim is None:
                victim, victim_val = x, val
        if victim_val - current >= current / self.rho - EPS:
            self.solution.remove(victim)
            self.solution.add(u)
            self.ever_held.add(u)
            return [victim]
        return [u]

    def _finalize(self):
        return self.solution.copy(), self.ever_held.copy(), list(self.solution)

    def stored_count(self) -> int:
        return len(self.solution)


def streaming_greedy(sys: IndependenceSystem, f: Objective,
                     stream) -> StreamOutcome:
    return _drive(GreedyStream(sys, f), stream)[0]


def sieve_streaming(sys: IndependenceSystem, f: Objective, stream,
                    epsilon: float = 0.1, rho: int | None = None) -> StreamOutcome:
    return _drive(SieveGuessStream(sys, f, epsilon=epsilon, rho=rho), stream)[0]


def preemption_stream(sys: IndependenceSystem, f: Objective,
                      stream) -> StreamOutcome:
    return _drive(PreemptionStream(sys, f), stream)[0]


def ratio_swap_stream(sys: IndependenceSystem, f: Objective,
                      stream) -> StreamOutcome:
    return _drive(RatioSwapStream(sys, f), stream)[0]
