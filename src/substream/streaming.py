"""Single-pass algorithms built on value-banded independent buckets, plus
the cascade that turns a monotone-capable component into one that handles
non-monotone objectives.

Every banded sieve is one window of sieve copies (:class:`_Window`):
:class:`ThresholdSieve` and :class:`AdaptiveSieve` are windows of one
copy with a given threshold, and :class:`AutoThresholdSieve` is a window
of power-of-two guesses that follows the stream.

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
import numbers
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Mapping, Sequence

from .core import (EPS, ContractViolationError, DuplicateElementError,
                   ElementSet, GainState, NumericError, Objective,
                   _spec_count, first_best, values_once)
from .constraints import FeasibilityState, IndependenceSystem
from .offline import unweighted_greedy

def _guess_exponent(m: float) -> int:
    """Exponent of the smallest power of two at or above ``m > 0``; above
    ``2**1023`` no finite one is, and ``NumericError`` is raised."""
    if m > 2.0 ** 1023:
        raise NumericError(f"best singleton value {m} is above 2**1023")
    mantissa, exponent = math.frexp(m)  # m = mantissa * 2**exponent
    return exponent - 1 if mantissa == 0.5 else exponent


def _level(ratio: float) -> int:
    """``floor(log2(ratio))`` for a positive finite ``ratio``, read off its
    exponent; -1 for 0 and infinity, which lie off every band."""
    return math.frexp(ratio)[1] - 1


def bucket_count(rho: int) -> int:
    """Number of marginal-value bands kept for a capacity bound ``rho``:
    ``floor(log2(4 rho)) + 1``."""
    return (4 * rho).bit_length()


def band_top(k: int, base_size: int) -> int:
    """Deepest band of an adaptive sieve whose greedy base has
    ``base_size`` elements: ``floor(2 log2(k base_size)) + 3``."""
    return ((k * base_size) ** 2).bit_length() + 2


def candidate_count(k: int) -> int:
    """Number of interleaved candidate solutions built at end of stream:
    ``ceil(log2(2k + 1))``."""
    return (2 * k).bit_length()


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


class _Group:
    """Copies or guesses ``keys`` (ascending) that hold one set in one
    order: exponents for a window, guess values for the guess streamer.

    ``gains`` is the set's gain state and ``buckets`` one feasibility state
    per level; together the level states hold the members, each in member
    order.  A guess group keeps all its members at level 0.
    ``candidates`` holds a window group's candidates once it drains.
    """

    __slots__ = ("keys", "gains", "buckets", "candidates")

    def __init__(self, keys: list, gains: GainState):
        self.keys = keys
        self.gains = gains
        self.buckets: dict[int, FeasibilityState] = {}
        self.candidates: list[ElementSet] | None = None

    @property
    def members(self) -> ElementSet:
        return self.gains.members

    def bucket(self, level: int, sys: IndependenceSystem) -> FeasibilityState:
        """The state of ``level``, opened on first use."""
        state = self.buckets.get(level)
        if state is None:
            state = self.buckets[level] = sys.open()
        return state


class _Grouped(StreamingComponent):
    """A component whose copies (or guesses) that hold one set in one
    order share one state: ``_groups`` lists the groups (:class:`_Group`)
    in ascending key order, four rules keep them and a fifth picks the
    groups an arrival can reach.

    * :meth:`_replay` gives keys states of their own, rebuilt from a
      group's members in member order, level by level.
    * :meth:`_split` keeps a group's ``keys[i:j]`` on its live states and
      replays the keys below and above them, when only those keys take an
      element; it builds a new ``_groups`` list, so a loop over the old
      one goes on unharmed.
    * :meth:`_extend` adds new top keys: they join the top group while it
      holds nothing, else form a new empty group.
    * :meth:`_drop_below` trims groups from the bottom: a group dropped
      whole evicts the members that neither ``base`` nor a later group
      holds, and a group dropped in part evicts nothing.
    * :meth:`_reach` lists the groups whose first key could take a gain
      of at most a cap, a prefix, as keys ascend.  The cap comes from
      :meth:`_singleton`, the one place an arrival's singleton is asked.

    A subclass writes its arrival loop, which passes :meth:`_reach` the
    highest key that could take a gain of at most the cap, and its own
    count, and may open states of a new group in :meth:`_group`.
    """

    def __init__(self, sys: IndependenceSystem, f: Objective):
        super().__init__(sys, f)
        self._groups: list[_Group] = []
        self._empty = sys.open()  # never takes an element: _singleton asks it

    def _singleton(self, u: int) -> tuple[float, float]:
        """``u``'s singleton value and a cap on its gain against any set;
        ``(-inf, -inf)`` when ``u`` alone is not independent, as then no
        state can take it (the families are downward closed).

        For a submodular f no gain is above f({u}).  The cap adds a
        relative margin of ``EPS`` and ``EPS`` itself, for a gain read off
        a table or running sums that rounds a few ulps above f({u}).  A
        generic state's gain ``f(S + u) - f(S)`` rounds by about an ulp of
        f(S) and can land above the cap, so a gain above it proves
        nothing and raises no alarm; a custom ``Objective`` that is not
        submodular may get another answer than with every group asked."""
        if not self._empty.can_add(u):
            return -math.inf, -math.inf
        value = self.f.singleton(u)
        return value, value + EPS * value + EPS

    def _group(self, keys: list) -> _Group:
        """A new empty group of ``keys``."""
        return _Group(keys, self.f.open())

    def _reach(self, top) -> list[_Group]:
        """The prefix of ``_groups`` whose first key is at most ``top``:
        the groups an arrival can reach, when ``top`` is the highest key
        that could take its gain.  Keys ascend, so the walk stops at the
        first group that fails."""
        groups = self._groups
        for i, group in enumerate(groups):
            if group.keys[0] > top:
                return groups[:i]
        return groups

    def _replay(self, group: _Group, keys: list) -> _Group:
        """A group of ``keys`` with states of their own that hold
        ``group``'s members, at their levels, in member order."""
        part = self._group(keys)
        for x in group.gains.members:
            part.gains.add(x)
        for level, state in group.buckets.items():
            if state.members:  # else it refused all it was offered
                bucket = part.bucket(level, self.sys)
                for x in state.members:
                    bucket.add(x)
        return part

    def _split(self, group: _Group, i: int, j: int) -> None:
        """Cut ``group`` to its ``keys[i:j]``; the keys below and above
        them become groups of their own (:meth:`_replay`)."""
        keys = group.keys
        parts = [group]
        if i:
            parts.insert(0, self._replay(group, keys[:i]))
        if j < len(keys):
            parts.append(self._replay(group, keys[j:]))
        group.keys = keys[i:j]
        at = self._groups.index(group)
        self._groups = self._groups[:at] + parts + self._groups[at + 1:]

    def _extend(self, keys: list) -> None:
        """Add ``keys``, all above every key held, at the top."""
        groups = self._groups
        if groups and not groups[-1].gains.members:
            groups[-1].keys += keys
        else:
            groups.append(self._group(keys))

    def _drop_below(self, floor) -> tuple[list[int], int]:
        """Drop every key below ``floor``; returns the evicted members and
        the number of (key, member) pairs dropped."""
        groups = self._groups
        evicted: list[int] = []
        dropped = 0
        while groups and groups[0].keys[0] < floor:
            keys, members = groups[0].keys, groups[0].gains.members
            cut = bisect_left(keys, floor)
            dropped += cut * len(members)
            if cut < len(keys):
                del keys[:cut]
                break
            groups.pop(0)
            evicted += _unheld(members, [
                self.base, *(later.gains.members for later in groups)])
        return evicted, dropped


class _CopyView:
    """One window copy as a banded sieve with threshold ``tau * 2**exponent``
    shows it: ``kept``, ``buckets`` (bands 0..``ell``), ``ell`` and
    ``candidates``, all read from the copy's group."""

    __slots__ = ("group", "exponent", "ell", "h")

    def __init__(self, group: _Group, exponent: int, ell: int, h: int):
        self.group = group
        self.exponent = exponent
        self.ell = ell
        self.h = h

    @property
    def kept(self) -> ElementSet:
        return self.group.gains.members

    @property
    def buckets(self) -> list[ElementSet]:
        states = self.group.buckets
        return [ElementSet() if state is None else state.members
                for state in (states.get(i - self.exponent)
                              for i in range(self.ell + 1))]

    @property
    def candidates(self) -> list[ElementSet] | None:
        cands = self.group.candidates
        if cands is None:
            return None
        return [cands[(j - self.exponent) % self.h] for j in range(self.h)]


class _Window(_Grouped):
    """A window of value-banded sieve copies, one per exponent e, where
    copy e is a banded sieve with threshold ``tau * 2**e``; every banded
    sieve here is one.

    Each band of a copy keeps a feasibility-greedy base, opened the first
    time an element reaches it, and a copy's bands 0..``ell`` are its
    buckets.  A gain g has level ``floor(log2(tau / g))``, read exactly
    off the float's exponent (:func:`_level`), and copy e puts it in band
    ``e + level``, so copy e can take it when ``0 <= e + level <= ell``.
    Nothing kept is dropped while its copy lives.

    Copies are grouped by the rules of :class:`_Grouped`: a group's keys
    are a contiguous run of exponents, with one feasibility state per
    level.  :meth:`_arrive` returns a cap on the arrival's gain, and a
    gain ``g <= cap`` has level at least ``_level(tau / cap)``, as
    :func:`_level` does not fall as its ratio grows, so only the groups
    with a first exponent of at most ``ell - _level(tau / cap)`` can place
    it (:meth:`_reach`).  Each arrival's gain against each of those
    groups' kept sets comes from one :meth:`Objective.gains` call, asked
    before any group takes it, so an error leaves every copy without the
    element.  A group then asks one ``can_add`` of its level's state, and
    splits when only some of its copies can take the element.  An arrival
    that no copy takes is evicted unless ``base`` holds it.

    At end of stream each group builds its h = ``candidate_count(k)``
    candidates once, one per residue of a level mod h: the feasibility
    greedy (:func:`unweighted_greedy`) over those levels in ascending
    order, each in member order.  Copy e's candidate j is the group's
    candidate ``(j - e) mod h``, as the copy's buckets j, j+h, ... hold
    exactly those levels.  Copies choose in exponent order, each distinct
    candidate valued once across the window (:func:`values_once`), and
    the first best winner wins.  ``copies`` maps each exponent to a
    read-only view of its copy (:class:`_CopyView`).  ``stored_count()``
    counts per copy: one per copy that takes an element, less a dropped
    copy's kept set, plus the candidates once built, plus ``base``.

    A subclass sets ``ell`` and the groups, and follows each arrival in
    :meth:`_arrive` before any copy is offered it; a window that asks no
    singleton caps no gain and skips no group.  A ``tau`` that is no
    positive finite number (NaN neither) raises ``ValueError``.
    """

    def __init__(self, sys: IndependenceSystem, f: Objective, tau: float):
        super().__init__(sys, f)
        if not (isinstance(tau, numbers.Real) and 0 < tau < math.inf):
            raise ValueError(f"tau must be positive and finite, got {tau!r}")
        self.tau = float(tau)
        self.k = sys.k_param
        self.h = candidate_count(self.k)
        self.ell = -1  # every copy's deepest band
        self._stored = 0  # the copies' kept elements, then their candidates

    @property
    def copies(self) -> Mapping[int, _CopyView]:
        """Exponent -> view of its copy, in ascending exponent order."""
        return MappingProxyType({
            e: _CopyView(group, e, self.ell, self.h)
            for group in self._groups for e in group.keys})

    def _arrive(self, u: int) -> tuple[bool, list[int], float]:
        """Follow the arrival ``u`` before any copy is offered it; returns
        whether ``base`` took it, what a move of the window evicted and
        a cap on its gain: the one :meth:`_Grouped._singleton` gives, or
        ``inf`` for a window that asks no singleton."""
        return False, [], math.inf

    def _ingest(self, u: int) -> list[int]:
        held, evicted, cap = self._arrive(u)
        ell, tau = self.ell, self.tau
        # a gain at most EPS goes nowhere; copy e places a gain of level L
        # only if e + L <= ell
        groups = self._reach(ell - _level(tau / cap) if cap > EPS
                             else -math.inf)
        gains = self.f.gains(u, [group.gains for group in groups])
        for group, gain in zip(groups, gains):  # _split replaces _groups
            if gain <= EPS:
                continue
            level = _level(tau / gain)
            keys = group.keys
            first, last = keys[0], keys[-1]
            lo, hi = max(first, -level), min(last, ell - level)
            if lo > hi:
                continue
            bucket = group.buckets.get(level)  # group.bucket, inlined
            if bucket is None:
                bucket = group.buckets[level] = self.sys.open()
            if not bucket.can_add(u):
                continue
            if lo != first or hi != last:
                self._split(group, lo - first, hi - first + 1)
            bucket.add(u)
            group.gains.add(u)
            self._stored += hi - lo + 1
            self._note("accept", u, level, gain)
            held = True
        if not held:
            self._note("evict", u, -1, 0.0)
            evicted.append(u)
        return evicted

    def _finalize(self):
        known: dict[tuple[int, ...], float] = {}
        winners: list[tuple[ElementSet, float]] = []
        h = self.h
        for group in self._groups:
            buckets = group.buckets
            levels = sorted(buckets)
            cands = group.candidates = [unweighted_greedy(
                self.sys, chain.from_iterable(
                    buckets[level].members for level in levels
                    if level % h == r)) for r in range(h)]
            values = values_once(self.f, cands, known)
            for e in group.keys:
                turn = [(j - e) % h for j in range(h)]
                best = turn[first_best(values[r] for r in turn)]
                winners.append((cands[best], values[best]))
            self._stored += len(group.keys) * sum(len(t) for t in cands)
        best = (winners[first_best(val for _, val in winners)][0] if winners
                else ElementSet())
        return best, ElementSet().union(
            *(group.gains.members for group in self._groups))

    def stored_count(self) -> int:
        return len(self.base) + self._stored


class _OneCopy(_Window):
    """A window of one copy, at exponent 0: one banded sieve with
    threshold ``tau``, whose ``kept``, ``buckets`` and ``candidates`` it
    shows as its own."""

    def __init__(self, sys: IndependenceSystem, f: Objective, tau: float):
        super().__init__(sys, f, tau)
        self._extend([0])
        self.kept = self._groups[0].gains.members  # arrival order

    @property
    def buckets(self) -> list[ElementSet]:
        """Each bucket's members, deepest band last."""
        return self.copies[0].buckets

    @property
    def candidates(self) -> list[ElementSet] | None:
        """The h candidates, once the sieve drains."""
        return self.copies[0].candidates


class ThresholdSieve(_OneCopy):
    """Banded sieve with a known acceptance threshold and capacity bound.

    ``tau`` must lie in [M, 2M] where M is the largest value of a feasible
    singleton; ``rho`` is the size of the largest independent set (any
    upper bound is sound, at the price of extra buckets).  The band range
    is fixed at ``bucket_count(rho)`` buckets.  A ``tau`` that is no
    positive finite number, or a ``rho`` that is not a whole number of at
    least 1, raises ``ValueError``.  A ``trace`` list gets one record per
    accept, with the element's band, and per eviction.
    """

    def __init__(self, sys: IndependenceSystem, f: Objective, tau: float,
                 rho: int, *, trace: list | None = None):
        super().__init__(sys, f, tau)
        self.trace = trace
        self.rho = _spec_count("ThresholdSieve", "rho", rho)
        self.ell = bucket_count(self.rho) - 1


class AdaptiveSieve(_OneCopy):
    """Banded sieve that learns its capacity bound on the fly.

    Instead of a known ``rho`` it keeps a feasibility-greedy base of the
    prefix seen so far and moves its deepest band to
    ``ell = band_top(k, |base|)`` each time the base grows.  ``tau`` keeps
    the same [M, 2M] contract as :class:`ThresholdSieve`.  It is driven by
    ``push`` and ``finish`` alone, and unlike :class:`ThresholdSieve` it
    takes no ``trace`` list.
    """

    # an __init__ of its own, which perfbench/tracing.py patches
    def __init__(self, sys: IndependenceSystem, f: Objective, tau: float):
        super().__init__(sys, f, tau)
        self._base = sys.open()
        self.base = self._base.members

    def _arrive(self, u: int) -> tuple[bool, list[int], float]:
        if not self._base.can_add(u):
            return False, [], math.inf
        self._base.add(u)
        self.ell = band_top(self.k, len(self.base))
        return True, [], math.inf


class AutoThresholdSieve(_Window):
    """Banded sieve needing neither the capacity bound nor the threshold.

    A window with ``tau = 1``: one copy, with threshold ``2**e``, per
    exponent e of the active power-of-two threshold guesses.  The window
    follows the best feasible singleton seen so far and the size of a
    greedy base kept here, so :meth:`_move`, which drops and adds
    exponents by the rules of :class:`_Grouped`, runs only when one of
    those two grows.  Every copy's deepest band is
    ``ell = band_top(k, |base|)``.  An element leaves when neither the
    base nor any copy holds it any more.

    Each arrival's singleton value and gain cap come from
    :meth:`_Grouped._singleton`, so only the groups it can reach ask a
    gain (:meth:`_Grouped._reach`); an infeasible singleton asks none.
    ``best_singleton`` is the best feasible singleton worth over ``EPS``
    (``-inf`` before one); :func:`_guess_exponent` checks a new best
    before the base or any copy takes it.
    """

    def __init__(self, sys: IndependenceSystem, f: Objective):
        super().__init__(sys, f, 1.0)
        self._base = sys.open()
        self.base = self._base.members
        self.best_singleton = -math.inf
        self._lo = 0  # _guess_exponent(best_singleton), once it is set

    def active_exponents(self) -> range:
        """Exponents i with best_singleton <= 2**i <= window top, where the
        top is ``best_singleton * 32 (k |base|)**2``; the base holds an
        element once a feasible singleton is worth over ``EPS``."""
        if self.best_singleton <= EPS:
            return range(0)
        # floor(log2(p / q * 32 (k |base|)**2)), exactly, as q = 2**t
        p, q = self.best_singleton.as_integer_ratio()
        hi = ((p * 32 * (self.k * len(self.base)) ** 2).bit_length()
              - q.bit_length())
        return range(self._lo, min(hi, 1023) + 1)  # 2.0 ** 1024 overflows

    def _move(self) -> list[int]:
        """Fit the groups to the window after ``best_singleton`` or the
        base grew; returns what only the dropped copies held."""
        window = self.active_exponents()
        evicted, dropped = self._drop_below(window.start)
        self._stored -= dropped
        first = self._groups[-1].keys[-1] + 1 if self._groups else window.start
        if first < window.stop:
            # the top copy's band for a gain up to best_singleton is past
            # ell, so the top group holds nothing unless a gain against
            # the empty set rounds above the best singleton
            self._extend(list(range(first, window.stop)))
        self.ell = band_top(self.k, len(self.base))
        return evicted

    def _arrive(self, u: int) -> tuple[bool, list[int], float]:
        moved = False
        value, cap = self._singleton(u)
        if value > self.best_singleton and value > EPS:
            self._lo = _guess_exponent(value)
            self.best_singleton = value
            moved = True
        held = self._base.can_add(u)
        if held:
            self._base.add(u)
            moved = True
        return held, (self._move() if moved else []), cap


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
