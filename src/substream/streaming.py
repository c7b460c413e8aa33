"""Single-pass algorithms built on value-banded independent buckets, plus
the cascade that turns a monotone-capable component into one that handles
non-monotone objectives.

Every component follows the same protocol: ``push(batch)`` feeds elements
one batch at a time and returns whatever the component discarded, and
``finish(batch)`` closes the stream, returning a :class:`StreamOutcome`
with the feasible solution S, the retained summary A (S is a subset of A)
and the residual D of elements that were still held but did not make the
summary.  Elements discarded while processing the final batch also land in
D, so nothing a component ever received is lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Sequence

from .core import (EPS, ContractViolationError, DuplicateElementError,
                   ElementSet, Objective, first_best)
from .constraints import IndependenceSystem, _spec_int
from .offline import unweighted_greedy

# log2 is evaluated in floating point; the nudge keeps floor/ceil stable
# when the argument sits on an exact power of two.
_LOG_GUARD = 1e-12


def _floor_log2(x: float) -> int:
    return math.floor(math.log2(x) + _LOG_GUARD)


def _ceil_log2(x: float) -> int:
    return math.ceil(math.log2(x) - _LOG_GUARD)


def bucket_count(rho: int) -> int:
    """Number of marginal-value bands kept for a capacity bound ``rho``."""
    return _floor_log2(4 * rho) + 1


def band_top(k: int, base_size: int) -> int:
    """Deepest band of an adaptive sieve whose greedy base has
    ``base_size`` elements."""
    return math.floor(2 * math.log2(k * base_size) + 3 + _LOG_GUARD)


def candidate_count(k: int) -> int:
    """Number of interleaved candidate solutions built at end of stream."""
    return _ceil_log2(2 * k + 1)


def trace_to_csv(events) -> str:
    """Render trace events (step, event, element, bucket, value) as CSV.

    Components accepting a ``trace`` list append one tuple per accept,
    evict or swap; this is the audit-tooling exchange format.
    """
    lines = ["step,event,element,bucket,value"]
    for step, event, element, bucket, value in events:
        lines.append(f"{step},{event},{element},{bucket},{value!r}")
    return "\n".join(lines) + "\n"


def _release(holders: dict[int, int], members: Iterable[int],
             evicted: list[int]) -> None:
    """Drop one hold on each member; a member left with none is evicted."""
    for x in members:
        holders[x] -= 1
        if holders[x] == 0:
            del holders[x]
            evicted.append(x)


@dataclass
class StreamOutcome:
    """End-of-stream triple (S, A, D)."""

    solution: ElementSet
    summary: ElementSet
    residual: ElementSet

    def __post_init__(self):
        if any(u not in self.summary for u in self.solution):
            raise ContractViolationError("solution is not inside the summary")
        if any(u in self.summary for u in self.residual):
            raise ContractViolationError("summary and residual overlap")


class StreamingComponent:
    """Base class implementing the push/finish bookkeeping.

    Subclasses implement ``_ingest(u) -> list`` (returning immediate
    evictions), ``_finalize() -> (solution, summary, held)`` and
    ``stored_count()``.
    """

    def __init__(self):
        self._seen: set[int] = set()
        self._finished = False

    def push(self, batch: Iterable[int]) -> list[int]:
        if self._finished:
            raise ContractViolationError("component already finished")
        evicted: list[int] = []
        for u in batch:
            if u in self._seen:
                raise DuplicateElementError(f"element {u} presented twice")
            self._seen.add(u)
            evicted.extend(self._ingest(u))
        return evicted

    def finish(self, batch: Iterable[int] = ()) -> StreamOutcome:
        evicted = self.push(batch)
        self._finished = True
        solution, summary, held = self._finalize()
        # Evictions triggered while draining the final batch belong in the
        # residual, except for elements that made the summary anyway
        # (swap-style components both evict and remember an element).
        residual = ElementSet()
        for u in evicted:
            if u not in summary:
                residual.add(u)
        for u in held:
            if u not in summary and u not in residual:
                residual.add(u)
        return StreamOutcome(solution, summary, residual)

    def _ingest(self, u: int) -> list[int]:
        raise NotImplementedError

    def _finalize(self):
        raise NotImplementedError

    def stored_count(self) -> int:
        raise NotImplementedError


class _BandedSieve(StreamingComponent):
    """Value-banded sieve shared by :class:`ThresholdSieve` and
    :class:`AdaptiveSieve`.

    Each arriving element is bucketed by how its marginal gain against
    everything kept so far compares with ``tau``; each bucket independently
    keeps a feasibility-greedy base.  Nothing kept is ever dropped, so
    ``kept`` is the members of one grow-only gain state from
    :meth:`Objective.open`, which answers every gain query.  At end of
    stream, :meth:`drain` builds ``candidate_count(sys.k_param)``
    interleaved candidates from the buckets and returns the best one.
    :meth:`widen` appends the bands (``ell``, one bucket per band) that
    :meth:`process` sorts arrivals into; subclasses may keep elements
    outside the buckets in ``base``.
    """

    def __init__(self, sys: IndependenceSystem, f: Objective, tau: float,
                 trace: list | None):
        super().__init__()
        if not 0.0 < tau < math.inf:  # also false for NaN
            raise ValueError(f"tau must be positive and finite, got {tau!r}")
        self.sys = sys
        self.f = f
        self.tau = float(tau)
        self.k = sys.k_param
        self.h = candidate_count(self.k)
        self.ell = -1
        self.buckets: list[ElementSet] = []
        self._kept_gains = f.open()
        self.kept = self._kept_gains.members  # union of buckets, arrival order
        self.base = ElementSet()
        self.candidates: list[ElementSet] | None = None
        self._trace = trace

    def widen(self, ell: int) -> None:
        """Append empty buckets until the deepest band is ``ell``."""
        while self.ell < ell:
            self.buckets.append(ElementSet())
            self.ell += 1

    def process(self, u: int) -> bool:
        gain = self._kept_gains.gain(u)
        if gain <= EPS:
            return False  # band infinity
        i = _floor_log2(self.tau / gain)
        if i < 0 or i > self.ell:
            return False
        bucket = self.buckets[i]
        if not self.sys.can_add(u, bucket):
            return False
        bucket.add(u)
        self._kept_gains.add(u)
        if self._trace is not None:
            self._trace.append((len(self._seen) - 1, "accept", u, i, gain))
        return True

    def _ingest(self, u: int) -> list[int]:
        if self.process(u) or u in self.base:
            return []
        if self._trace is not None:
            self._trace.append((len(self._seen) - 1, "evict", u, -1, 0.0))
        return [u]

    def drain(self) -> tuple[ElementSet, float]:
        """Build the h candidates and return the first best with its value.

        Candidate j is the feasibility greedy (:func:`unweighted_greedy`)
        over buckets j, j+h, ...  Buckets are visited in ascending index
        (descending marginal band) and each bucket in insertion order, so
        the construction is deterministic and stream-faithful.  The
        candidates stay in ``candidates``.
        """
        cands = [unweighted_greedy(self.sys,
                                   chain.from_iterable(self.buckets[j::self.h]))
                 for j in range(self.h)]
        self.candidates = cands
        values = [self.f.value(t) for t in cands]
        best = first_best(values)
        return cands[best], values[best]

    def _finalize(self):
        best, _ = self.drain()
        return best, self.kept.copy(), list(self.kept.union(self.base))

    def stored_count(self) -> int:
        count = len(self.kept) + len(self.base)  # the buckets partition kept
        if self.candidates is not None:
            count += sum(len(t) for t in self.candidates)
        return count


class ThresholdSieve(_BandedSieve):
    """Banded sieve with a known acceptance threshold and capacity bound.

    ``tau`` must lie in [M, 2M] where M is the largest value of a feasible
    singleton; ``rho`` is the size of the largest independent set (any
    upper bound is sound, at the price of extra buckets).  The band range
    is fixed at ``bucket_count(rho)`` buckets.  A ``tau`` that is not
    positive and finite, or a ``rho`` that is not a whole number of at
    least 1, raises ``ValueError``.
    """

    def __init__(self, sys: IndependenceSystem, f: Objective, tau: float,
                 rho: int, *, trace: list | None = None):
        super().__init__(sys, f, tau, trace)
        self.rho = _spec_int("ThresholdSieve", "rho", rho)
        if self.rho < 1:
            raise ValueError("rho must be a positive integer")
        self.widen(bucket_count(self.rho) - 1)


class AdaptiveSieve(_BandedSieve):
    """Banded sieve that learns its capacity bound on the fly.

    Instead of a known ``rho`` it tracks a feasibility-greedy base of the
    prefix seen so far and widens to ``band_top(k, |base|)`` each time the
    base grows.  ``tau`` keeps the same [M, 2M] contract as
    :class:`ThresholdSieve`.  A window copy of :class:`AutoThresholdSieve`
    is driven through :meth:`process` and :meth:`drain` alone: its own
    base stays empty and the window widens it.
    """

    # an __init__ of its own: perfbench/tracing.py counts window copies by it
    def __init__(self, sys: IndependenceSystem, f: Objective, tau: float, *,
                 trace: list | None = None):
        super().__init__(sys, f, tau, trace)

    def _ingest(self, u: int) -> list[int]:
        if self.sys.can_add(u, self.base):
            self.base.add(u)
            self.widen(band_top(self.k, len(self.base)))
        return super()._ingest(u)


class AutoThresholdSieve(StreamingComponent):
    """Banded sieve needing neither the capacity bound nor the threshold.

    Keeps one :class:`AdaptiveSieve` copy per active power-of-two threshold
    guess.  The guess window follows the best feasible singleton seen so
    far and the size of a greedy base kept here; copies whose guess drops
    out of the window are deleted (their exclusive elements are evicted),
    and missing guesses are instantiated on arrival.  Copies are driven
    through ``process`` and ``drain``, and widened to ``band_top`` of this
    base when made and whenever it grows.
    """

    def __init__(self, sys: IndependenceSystem, f: Objective):
        super().__init__()
        self.sys = sys
        self.f = f
        self.k = sys.k_param
        self.base = ElementSet()
        self.best_singleton = -math.inf
        self.copies: dict[int, AdaptiveSieve] = {}  # exponent -> copy
        self._holders: dict[int, int] = {}

    def active_exponents(self) -> range:
        """Exponents i with best_singleton <= 2**i <= window top."""
        if not self.base or self.best_singleton <= EPS:
            return range(0)
        lo = _ceil_log2(self.best_singleton)
        width = 2 * math.log2(self.k * len(self.base)) + 5
        hi = math.floor(math.log2(self.best_singleton) + width + _LOG_GUARD)
        return range(lo, hi + 1)

    def _ingest(self, u: int) -> list[int]:
        holders = self._holders
        holders[u] = 0
        if self.sys.can_add(u, self.base):
            self.base.add(u)
            holders[u] += 1
            top = band_top(self.k, len(self.base))
            for copy in self.copies.values():
                copy.widen(top)
        if self.sys.is_independent((u,)):
            value = self.f.singleton(u)
            if value > self.best_singleton:
                self.best_singleton = value
        evicted: list[int] = []
        window = self.active_exponents()
        for exponent in list(self.copies):
            if exponent not in window:
                _release(holders, self.copies.pop(exponent).kept, evicted)
        for exponent in window:
            if exponent not in self.copies:
                copy = self.copies[exponent] = AdaptiveSieve(
                    self.sys, self.f, 2.0 ** exponent)
                copy.widen(band_top(self.k, len(self.base)))
        for copy in self.copies.values():
            if copy.process(u):
                holders[u] += 1
        if holders[u] == 0:
            del holders[u]
            evicted.append(u)
        return evicted

    def _finalize(self):
        copies = [self.copies[exponent] for exponent in sorted(self.copies)]
        drained = [copy.drain() for copy in copies]  # (winner, value) each
        best = (drained[first_best(val for _, val in drained)][0] if drained
                else ElementSet())
        summary = ElementSet().union(*(copy.kept for copy in copies))
        return best, summary, list(summary.union(self.base))

    def stored_count(self) -> int:
        count = len(self.base)
        for copy in self.copies.values():
            count += len(copy.kept)  # the buckets partition kept
            if copy.candidates is not None:
                count += sum(len(t) for t in copy.candidates)
        return count


def _drive(chain: Sequence[StreamingComponent], stream: Iterable[int]
           ) -> tuple[list[StreamOutcome], int, list[tuple[int, int]]]:
    """Push a stream one element at a time through a chain of components.

    Each component gets what the one before discarded: the batch its
    ``push`` returned, and at finish its residual.  Returns every outcome,
    the peak stored count summed over the chain (polled after every
    element and once more after the drain) and the last component's
    ``(step, element)`` evictions in the order ``push`` returned them.
    """
    peak = 0
    evictions: list[tuple[int, int]] = []
    for step, u in enumerate(stream):
        batch: list[int] = [u]
        for comp in chain:
            batch = comp.push(batch)
            if not batch:
                break
        for x in batch:  # the last component's discards, if it was reached
            evictions.append((step, x))
        peak = max(peak, sum(c.stored_count() for c in chain))
    outcomes: list[StreamOutcome] = []
    batch = []
    for comp in chain:
        outcomes.append(comp.finish(batch))
        batch = list(outcomes[-1].residual)
    return outcomes, max(peak, sum(c.stored_count() for c in chain)), evictions


@dataclass
class CascadeConfig:
    """Setup for the monotone-to-general reduction.

    ``copies`` chained components, a whole number of at least 1, each
    receive what the previous one discarded; at end of stream every component's summary is additionally
    polished by ``offline`` and the best of all candidate sets wins.
    """

    copies: int
    component_factory: Callable[[], StreamingComponent]
    offline: Callable[[Objective, IndependenceSystem, ElementSet], ElementSet]

    def __post_init__(self):
        self.copies = _spec_int("CascadeConfig", "copies", self.copies)
        if self.copies < 1:
            raise ValueError("need at least one component copy")


@dataclass
class CascadeTrace:
    """Result of :func:`cascade_run`: the winning set with its value and
    label, every labelled candidate, each copy's outcome and the peak number
    of stored elements."""

    best: ElementSet
    best_value: float
    best_label: str
    candidates: list[tuple[str, ElementSet, float]]
    outcomes: list[StreamOutcome]
    peak_stored: int


def cascade_run(cfg: CascadeConfig, stream: Sequence[int],
                sys: IndependenceSystem, f: Objective) -> CascadeTrace:
    """Feed the stream through chained components and return the best of
    their solutions and the offline-polished summaries.

    The copies form one :func:`_drive` chain, so what copy i rejects or
    later drops is pushed to copy i+1, and the peak is summed over all
    copies.  Every copy's solution must be independent in ``sys``.  With
    deterministic components and offline solver the whole run is
    deterministic.  A later candidate wins only when it beats the best so
    far by more than ``EPS`` (:func:`first_best`): near-ties resolve to the
    earliest candidate, lower copy index and streamed before polished.
    """
    comps = [cfg.component_factory() for _ in range(cfg.copies)]
    outcomes, peak, _ = _drive(comps, stream)
    for outcome in outcomes:
        if not sys.is_independent(outcome.solution):
            raise ContractViolationError("component returned a dependent solution")

    candidates: list[tuple[str, ElementSet, float]] = []
    for idx, outcome in enumerate(outcomes, start=1):
        candidates.append((f"s{idx}", outcome.solution,
                           f.value(outcome.solution)))
        polished = cfg.offline(f, sys, outcome.summary)
        candidates.append((f"s{idx}+offline", polished, f.value(polished)))
    best_label, best, best_val = candidates[first_best(
        val for _, _, val in candidates)]
    return CascadeTrace(best, best_val, best_label, candidates, outcomes, peak)


@dataclass
class AuditReport:
    """Replay record produced by :func:`contract_audit`."""

    ok: bool
    violations: list[str]
    peak_stored: int
    pushed: int
    outcome: StreamOutcome


def contract_audit(component: StreamingComponent, stream: Iterable[int],
                   sys: IndependenceSystem) -> AuditReport:
    """Replay a stream through a fresh component, checking the protocol.

    Verifies that no element is dropped twice or lost (everything pushed
    is either discarded or accounted for in summary/residual), that the
    solution sits inside the summary and is independent in ``sys``, the
    component's system, and reports the peak
    number of stored elements (candidate sets included).  Violations are
    reported, never raised.
    """
    stream = list(stream)
    (outcome,), peak, evictions = _drive([component], stream)
    position = {u: step for step, u in enumerate(stream)}
    violations: list[str] = []
    evicted: set[int] = set()
    for step, x in evictions:
        if x not in position or position[x] > step:
            violations.append(f"step {step}: evicted unknown element {x}")
        if x in evicted:
            violations.append(f"step {step}: element {x} evicted twice")
        evicted.add(x)
    accounted = set(outcome.summary) | set(outcome.residual)
    for u in position:
        if u not in evicted and u not in accounted:
            violations.append(f"element {u} lost (never evicted, not in A or D)")
    if not sys.is_independent(outcome.solution):
        violations.append("solution is not independent")
    return AuditReport(ok=not violations, violations=violations,
                       peak_stored=peak, pushed=len(position), outcome=outcome)
