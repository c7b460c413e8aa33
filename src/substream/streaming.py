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
from typing import Callable, Collection, Iterable, Sequence

from .core import (EPS, ContractViolationError, DuplicateElementError,
                   ElementSet, GainState, NumericError, Objective,
                   _spec_count, first_best, values_once)
from .constraints import FeasibilityState, IndependenceSystem
from .offline import unweighted_greedy

# log2 is evaluated in floating point; the nudge keeps floor/ceil stable
# when the argument sits on an exact power of two.
_LOG_GUARD = 1e-12


def _floor_log2(x: float) -> int:
    return math.floor(math.log2(x) + _LOG_GUARD)


def _ceil_log2(x: float) -> int:
    return math.ceil(math.log2(x) - _LOG_GUARD)


def _guess_exponent(m: float) -> int:
    """Exponent of the smallest power of two at or above ``m > 0``; above
    ``2**1023`` no finite one is, and ``NumericError`` is raised."""
    if m > 2.0 ** 1023:
        raise NumericError(f"best singleton value {m} is above 2**1023")
    return _ceil_log2(m)


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


def _unheld(members: Iterable[int],
            holders: Sequence[Collection[int]]) -> list[int]:
    """The members that no holder set contains, in member order."""
    return [x for x in members if not any(x in held for held in holders)]


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
    """Base class implementing the push/finish bookkeeping over the
    system ``sys`` and the objective ``f`` a component is built with.

    Subclasses implement ``_ingest(u) -> list`` (returning immediate
    evictions), ``_finalize() -> (solution, summary)`` and
    ``stored_count()``; ``base`` holds what a component keeps outside its
    summary.  The residual is the last batch's evictions outside the
    summary, then the ``base`` elements outside it.  A ``trace`` list,
    when a component takes one, records its events through :meth:`_note`.
    """

    base: Collection[int] = ()
    trace: list | None = None

    def __init__(self, sys: IndependenceSystem, f: Objective):
        self.sys = sys
        self.f = f
        self._seen: set[int] = set()
        self._finished = False

    def _note(self, event: str, u: int, bucket: int, value: float) -> None:
        """Append ``(step, event, u, bucket, value)`` to ``trace``, if one
        is attached; ``step`` is the index of the arrival being ingested."""
        if self.trace is not None:
            self.trace.append((len(self._seen) - 1, event, u, bucket, value))

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
        solution, summary = self._finalize()
        # a swap-style component may both evict and remember an element
        residual = ElementSet(u for u in evicted if u not in summary).union(
            u for u in self.base if u not in summary)
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
    keeps a feasibility-greedy base in a feasibility state from
    :meth:`IndependenceSystem.open`, and ``buckets`` lists their members.
    A bucket's state is opened the first time an element reaches its
    band, so a band that never takes one costs no state (``buckets``
    reports it as an empty :class:`ElementSet`).
    Nothing kept is ever dropped, so ``kept`` is the members of one
    grow-only gain state from :meth:`Objective.open`, which answers every
    gain query.  At end of stream, :meth:`drain` builds
    ``candidate_count(sys.k_param)`` interleaved candidates from the
    buckets and returns the best one.  :meth:`widen` appends the bands
    (``ell``, one bucket per band) that :meth:`place` sorts arrivals
    into.  An arrival that no bucket takes is evicted unless ``base``
    (what :class:`AdaptiveSieve` keeps outside the buckets) holds it.
    """

    def __init__(self, sys: IndependenceSystem, f: Objective, tau: float):
        super().__init__(sys, f)
        if not 0.0 < tau < math.inf:  # also false for NaN
            raise ValueError(f"tau must be positive and finite, got {tau!r}")
        self.tau = float(tau)
        self.k = sys.k_param
        self.h = candidate_count(self.k)
        self.ell = -1
        self._bucket_states: list[FeasibilityState | None] = []
        self._kept_gains = f.open()
        self.kept = self._kept_gains.members  # union of buckets, arrival order
        self.candidates: list[ElementSet] | None = None

    def widen(self, ell: int) -> None:
        """Append empty buckets until the deepest band is ``ell``."""
        while self.ell < ell:
            self._bucket_states.append(None)
            self.ell += 1

    @property
    def buckets(self) -> list[ElementSet]:
        """Each bucket's members, deepest band last."""
        return [ElementSet() if state is None else state.members
                for state in self._bucket_states]

    def place(self, u: int, gain: float) -> bool:
        """Add ``u`` to the bucket of the band that ``gain``, u's gain
        against ``kept``, falls in, if that bucket can take it; returns
        whether it did.  A pushed sieve asks its own gain state for the
        gain; the AutoThreshold window asks every copy's at once.
        """
        if gain <= EPS:
            return False  # band infinity
        try:
            i = _floor_log2(self.tau / gain)
        except (OverflowError, ValueError):  # ratio inf or 0: off every band
            return False
        if i < 0 or i > self.ell:
            return False
        bucket = self._bucket_states[i]
        if bucket is None:
            bucket = self._bucket_states[i] = self.sys.open()
        if not bucket.can_add(u):
            return False
        bucket.add(u)
        self._kept_gains.add(u)
        self._note("accept", u, i, gain)
        return True

    def _ingest(self, u: int) -> list[int]:
        if self.place(u, self._kept_gains.gain(u)) or u in self.base:
            return []
        self._note("evict", u, -1, 0.0)
        return [u]

    def build_candidates(self) -> list[ElementSet]:
        """Build the h candidates and keep them in ``candidates``.

        Candidate j is the feasibility greedy (:func:`unweighted_greedy`)
        over buckets j, j+h, ...  Buckets are visited in ascending index
        (descending marginal band) and each bucket in insertion order, so
        the construction is deterministic and stream-faithful.
        """
        buckets = self.buckets
        self.candidates = [unweighted_greedy(
            self.sys, chain.from_iterable(buckets[j::self.h]))
            for j in range(self.h)]
        return self.candidates

    def drain(self, known: dict | None = None) -> tuple[ElementSet, float]:
        """Build the candidates and return the first best with its value;
        each distinct candidate is valued once (:func:`values_once`), in
        every drain that shares the memo ``known``."""
        cands = self.build_candidates()
        values = values_once(self.f, cands, known)
        best = first_best(values)
        return cands[best], values[best]

    def _finalize(self):
        best, _ = self.drain()
        return best, self.kept.copy()

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
        super().__init__(sys, f, tau)
        self.trace = trace
        self.rho = _spec_count("ThresholdSieve", "rho", rho)
        self.widen(bucket_count(self.rho) - 1)


class AdaptiveSieve(_BandedSieve):
    """Banded sieve that learns its capacity bound on the fly.

    Instead of a known ``rho`` it tracks a feasibility-greedy base of the
    prefix seen so far and widens to ``band_top(k, |base|)`` each time the
    base grows.  ``tau`` keeps the same [M, 2M] contract as
    :class:`ThresholdSieve`.  A window copy of :class:`AutoThresholdSieve`
    is driven through :meth:`place` and :meth:`drain` alone: it opens no
    base of its own, and the window widens it.  Unlike
    :class:`ThresholdSieve` it takes no ``trace`` list.
    """

    # an __init__ of its own: perfbench/tracing.py counts window copies by it
    def __init__(self, sys: IndependenceSystem, f: Objective, tau: float):
        super().__init__(sys, f, tau)
        self._base: FeasibilityState | None = None  # opened on the first push

    def _ingest(self, u: int) -> list[int]:
        state = self._base
        if state is None:
            state = self._base = self.sys.open()
            self.base = state.members
        if state.can_add(u):
            state.add(u)
            self.widen(band_top(self.k, len(self.base)))
        return super()._ingest(u)


class AutoThresholdSieve(StreamingComponent):
    """Banded sieve needing neither the capacity bound nor the threshold.

    Keeps one :class:`AdaptiveSieve` copy per active power-of-two threshold
    guess.  The guess window follows the best feasible singleton seen so
    far and the size of a greedy base kept here, so :meth:`_move` runs
    only when one of those two grows: it drops the copies whose guess
    left the window, makes the missing ones and widens every copy to
    ``band_top`` of this base.  An element leaves when neither the base
    nor any copy holds it any more.  Copies are driven through ``place``
    and ``drain``; at end of stream they drain in exponent order with one
    shared memo, so each distinct candidate is valued once across the
    window (:func:`values_once`), and the first best winner wins.
    ``stored_count()`` reads a running count: one per element a copy
    places, less a dropped copy's kept set, plus the candidates once built.

    Each arrival's gain against every copy's kept set comes from one
    :meth:`Objective.gains` call, asked before any copy takes it, so an
    error leaves every copy without the element.  ``_live`` lists the
    copies in ``copies`` order and ``_live_states`` their kept gain
    states; :meth:`_move` rebuilds both.  Whether an arrival is a
    feasible singleton is asked of one state that never takes an
    element.  ``best_singleton`` is the best feasible singleton worth over
    ``EPS`` (``-inf`` before one); :func:`_guess_exponent` checks a new
    best before the base or any copy takes it.
    """

    def __init__(self, sys: IndependenceSystem, f: Objective):
        super().__init__(sys, f)
        self.k = sys.k_param
        self._base = sys.open()
        self.base = self._base.members
        self._empty = sys.open()  # never takes an element
        self.best_singleton = -math.inf
        self._lo = 0  # _guess_exponent(best_singleton), once it is set
        self.copies: dict[int, AdaptiveSieve] = {}  # exponent -> copy
        self._live: list[AdaptiveSieve] = []
        self._live_states: list[GainState] = []
        self._stored = 0  # the copies' kept elements, then their candidates

    def active_exponents(self) -> range:
        """Exponents i with best_singleton <= 2**i <= window top; the base
        holds an element once a feasible singleton is worth over ``EPS``."""
        if self.best_singleton <= EPS:
            return range(0)
        width = 2 * math.log2(self.k * len(self.base)) + 5
        hi = math.floor(math.log2(self.best_singleton) + width + _LOG_GUARD)
        return range(self._lo, min(hi, 1023) + 1)  # 2.0 ** 1024 overflows

    def _move(self) -> list[int]:
        """Fit the copies to the window after ``best_singleton`` or the
        base grew; returns what only the dropped copies held."""
        window = self.active_exponents()
        evicted: list[int] = []
        for exponent in [e for e in self.copies if e not in window]:
            dropped = self.copies.pop(exponent).kept
            self._stored -= len(dropped)
            evicted += _unheld(dropped, [
                self.base, *(c.kept for c in self.copies.values())])
        top = band_top(self.k, len(self.base))
        for exponent in window:
            copy = self.copies.get(exponent)
            if copy is None:
                copy = self.copies[exponent] = AdaptiveSieve(
                    self.sys, self.f, 2.0 ** exponent)
            copy.widen(top)
        self._live = list(self.copies.values())
        self._live_states = [copy._kept_gains for copy in self._live]
        return evicted

    def _ingest(self, u: int) -> list[int]:
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
        gains = self.f.gains(u, self._live_states)
        for copy, gain in zip(self._live, gains):
            if copy.place(u, gain):
                held = True
                self._stored += 1
        if not held:
            evicted.append(u)
        return evicted

    def _finalize(self):
        copies = [self.copies[exponent] for exponent in sorted(self.copies)]
        known: dict[tuple[int, ...], float] = {}
        winners = [copy.drain(known) for copy in copies]
        self._stored += sum(len(t) for copy in copies for t in copy.candidates)
        best = (winners[first_best(val for _, val in winners)][0] if winners
                else ElementSet())
        return best, ElementSet().union(*(copy.kept for copy in copies))

    def stored_count(self) -> int:
        return len(self.base) + self._stored


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


def cascade_run(chain: Sequence[StreamingComponent], stream: Sequence[int],
                offline: Callable[..., ElementSet]) -> CascadeTrace:
    """Feed a stream through a chain of components; return the best of their
    solutions and their summaries polished by ``offline(f, sys, summary)``.

    The chain, usually r fresh copies of one component, runs as one
    :func:`_drive` chain, so what copy i rejects or later drops is pushed
    to copy i+1, and the peak is summed over all copies.  The copies share
    the first copy's ``sys``, in which each solution must be independent,
    and its ``f``, which values every candidate; an empty chain or a copy
    over another system or objective object raises ``ValueError``.  With
    deterministic components and offline solver the whole run is
    deterministic.  A later candidate wins only when it beats the best so
    far by more than ``EPS`` (:func:`first_best`): near-ties resolve to
    the earliest candidate, lower copy index and streamed before polished.
    """
    if not chain:
        raise ValueError("need at least one component copy")
    sys, f = chain[0].sys, chain[0].f
    if any(copy.sys is not sys or copy.f is not f for copy in chain):
        raise ValueError("copies must share one system and objective")
    outcomes, peak, _ = _drive(chain, stream)
    candidates: list[tuple[str, ElementSet, float]] = []
    for idx, outcome in enumerate(outcomes, start=1):
        if not sys.is_independent(outcome.solution):
            raise ContractViolationError("component returned a dependent solution")
        candidates.append((f"s{idx}", outcome.solution,
                           f.value(outcome.solution)))
        polished = offline(f, sys, outcome.summary)
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


def contract_audit(component: StreamingComponent,
                   stream: Iterable[int]) -> AuditReport:
    """Replay a stream through a fresh component, checking the protocol.

    Verifies that no element is dropped twice or lost (everything pushed
    is either discarded or accounted for in summary/residual), that the
    solution sits inside the summary and is independent in the
    component's own ``sys``, and reports the peak number of stored
    elements (candidate sets included).  Violations are reported, never
    raised.
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
    if not component.sys.is_independent(outcome.solution):
        violations.append("solution is not independent")
    return AuditReport(ok=not violations, violations=violations,
                       peak_stored=peak, pushed=len(position), outcome=outcome)
