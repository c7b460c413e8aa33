"""Ground-set primitives shared by every algorithm in the package.

Elements are plain integer ids drawn from ``range(n)`` for a ground set of
size ``n``.  ``ElementSet`` is an ordered set of ids; algorithms rely on its
insertion order (streaming buckets are drained in arrival order).  It
subclasses ``dict`` (every value is None) so that membership tests,
``len``, iteration and copies run as C-level dict operations: the
streaming inner loops make on the order of 10^8 membership tests, and a
Python-level ``__contains__`` wrapper dominated their cost.
``Objective`` wraps a raw set function with memoization, call accounting and
marginal-gain helpers; ``Objective.open`` hands out a grow-only
``GainState`` that answers gain queries against one growing set.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import OrderedDict
from typing import Callable, Iterable

# Absolute tolerance for every inequality test performed by the algorithms.
EPS = 1e-9

# Default number of memoized set evaluations kept per oracle (LRU).
DEFAULT_CACHE_ENTRIES = 1 << 16


class GroundSetError(ValueError):
    """An element id falls outside the oracle's ground set."""


class DuplicateElementError(ValueError):
    """An element was supplied twice where it must appear at most once."""


class SizeLimitError(ValueError):
    """An exact computation was requested beyond its supported size."""


class NumericError(ArithmeticError):
    """A numerical evaluation failed beyond the accepted tolerance."""


class UnsupportedConstraintError(ValueError):
    """An algorithm received a constraint class it is not defined for."""


class ContractViolationError(RuntimeError):
    """A streaming component broke the push/finish outcome contract."""


class ElementSet(dict):
    """Ordered collection of distinct element ids.

    Iteration follows insertion order.  ``add`` rejects duplicates so that
    algorithmic bookkeeping errors surface immediately.  Equality compares
    membership only, not order, and holds against another ``ElementSet``
    or a ``set``/``frozenset``, never against a plain dict.  Instances are
    unhashable.
    """

    __slots__ = ()
    __hash__ = None

    def __init__(self, items: Iterable[int] = ()):
        for u in items:
            self.add(u)

    def add(self, u: int) -> None:
        if u in self:
            raise DuplicateElementError(f"element {u} already present")
        self[u] = None

    def remove(self, u: int) -> None:
        del self[u]

    def discard(self, u: int) -> None:
        self.pop(u, None)

    def copy(self) -> "ElementSet":
        out = ElementSet()
        out.update(self)
        return out

    def union(self, *others: Iterable[int]) -> "ElementSet":
        out = self.copy()
        for other in others:
            out.update(dict.fromkeys(other))
        return out

    def difference(self, other: Iterable[int]) -> "ElementSet":
        out = self.copy()
        for u in other:
            out.pop(u, None)
        return out

    def difference_update(self, other: Iterable[int]) -> None:
        for u in other:
            self.pop(u, None)

    def sorted_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self))

    def __eq__(self, other) -> bool:
        if isinstance(other, ElementSet):
            return self.keys() == other.keys()
        if isinstance(other, (set, frozenset)):
            return self.keys() == other
        if isinstance(other, dict):
            return False
        return NotImplemented

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __repr__(self) -> str:
        return f"ElementSet({list(self)})"


def first_best(values: Iterable[float]) -> int:
    """Index of the winner among candidate values: a later value replaces
    the best so far only when it beats it by more than ``EPS``.  Every
    choice among candidate sets goes through this rule."""
    best, best_val = -1, -math.inf
    for i, val in enumerate(values):
        if val > best_val + EPS:
            best, best_val = i, val
    if best < 0:
        raise ValueError("no values to choose from")
    return best


def as_sorted_ids(subset: Iterable[int]) -> tuple[int, ...]:
    """Canonical sorted-id fingerprint of a subset."""
    if isinstance(subset, ElementSet):
        return subset.sorted_ids()
    return tuple(sorted(set(subset)))


class Objective:
    """Memoized oracle for a non-negative set function over ``range(n)``.

    ``fn`` receives a sorted tuple of element ids and must return a
    finite non-negative value (values within ``EPS`` below zero are clamped
    to zero; anything lower, and a NaN or infinity from ``fn`` or
    ``marginal_fn``, raises ``NumericError``).  Repeated evaluations of
    the same subset are served from a bounded LRU cache without touching
    the call counter.

    ``marginal_fn(u, members)``, when provided, must equal
    ``fn(S + u) - fn(S)`` for ``u`` outside ``S``; it is used as a fast
    path by :meth:`marginal` and counts as a single oracle call.  Without
    it, :meth:`marginal` sorts ``S`` once, inserts ``u`` by bisection and
    looks up ``S + u`` before ``S`` through the same cache, so the LRU
    order (and with it every evaluation count) is that of two
    :meth:`value` calls in that order.

    :meth:`open` returns an empty :class:`GainState` for a set that only
    grows.  ``open_fn(objective)``, when provided, builds it; objectives
    that keep a running gain per element (additive and directed cut) pass
    one.  Without it the state asks :meth:`marginal` for every gain.

    Instances are read-only after construction apart from the cache and
    the call counter, which are not synchronized: use one oracle per run
    when running concurrently.
    """

    __slots__ = ("n", "monotone", "evaluations", "_fn", "_marginal_fn",
                 "_open_fn", "_cache", "_cache_entries")

    def __init__(self, fn: Callable[[tuple[int, ...]], float], n: int, *,
                 monotone: bool,
                 marginal_fn: Callable[[int, Iterable[int]], float] | None = None,
                 open_fn: Callable[["Objective"], "GainState"] | None = None,
                 cache_entries: int = DEFAULT_CACHE_ENTRIES):
        if n <= 0:
            raise ValueError("ground set must be non-empty")
        if cache_entries < 1:
            raise ValueError("cache_entries must be positive")
        self.n = n
        self.monotone = monotone
        self.evaluations = 0
        self._fn = fn
        self._marginal_fn = marginal_fn
        self._open_fn = open_fn
        self._cache: OrderedDict[tuple[int, ...], float] = OrderedDict()
        self._cache_entries = cache_entries

    def _key(self, subset: Iterable[int]) -> tuple[int, ...]:
        key = as_sorted_ids(subset)
        if key and (key[0] < 0 or key[-1] >= self.n):
            raise GroundSetError(f"ids outside range(0, {self.n}): {key}")
        return key

    def value(self, subset: Iterable[int]) -> float:
        return self._lookup(self._key(subset))

    def _lookup(self, key: tuple[int, ...]) -> float:
        """Cached value of a key already validated by :meth:`_key`."""
        cache = self._cache
        hit = cache.get(key)
        if hit is not None:
            cache.move_to_end(key)
            return hit
        self.evaluations += 1
        val = float(self._fn(key))
        if not math.isfinite(val):
            raise NumericError(f"oracle returned non-finite value {val}")
        if val < 0.0:
            if val < -EPS:
                raise NumericError(f"oracle returned negative value {val}")
            val = 0.0
        cache[key] = val
        if len(cache) > self._cache_entries:
            cache.popitem(last=False)
        return val

    __call__ = value

    def marginal(self, u: int, subset: Iterable[int]) -> float:
        """Gain of adding ``u`` to ``subset``; may be negative."""
        if u < 0 or u >= self.n:
            raise GroundSetError(f"id {u} outside range(0, {self.n})")
        if u in subset:
            raise DuplicateElementError(f"element {u} already in subset")
        if self._marginal_fn is not None:
            self.evaluations += 1
            gain = float(self._marginal_fn(u, subset))
            if not math.isfinite(gain):
                raise NumericError(f"marginal oracle returned non-finite gain {gain}")
            return gain
        base = self._key(subset)
        i = bisect_left(base, u)
        return self._lookup(base[:i] + (u,) + base[i:]) - self._lookup(base)

    def singleton(self, u: int) -> float:
        return self.value((u,))

    def open(self) -> "GainState":
        """Empty grow-only gain state over this objective."""
        if self._open_fn is None:
            return GainState(self)
        return self._open_fn(self)


class GainState:
    """A set that only grows, with the gain of each element outside it.

    Returned empty by :meth:`Objective.open`.  ``members`` is the set in
    insertion order; grow it through :meth:`add` only.  ``gain(u)`` is
    ``f.marginal(u, members)``: the same checks, the same count and, in
    this generic state, the same float.
    """

    __slots__ = ("f", "members")

    def __init__(self, f: Objective):
        self.f = f
        self.members = ElementSet()

    def gain(self, u: int) -> float:
        return self.f.marginal(u, self.members)

    def add(self, u: int) -> None:
        if u < 0 or u >= self.f.n:
            raise GroundSetError(f"id {u} outside range(0, {self.f.n})")
        self.members.add(u)


class TabulatedGainState(GainState):
    """Gain state that reads each gain from a per-element table.

    ``gains[u]`` must hold u's gain against ``members`` for every ``u``
    outside it.  :meth:`gain` keeps the checks of :meth:`Objective.marginal`
    and counts one evaluation per query, as its fast path does.  This
    class never writes ``gains``; a subclass whose :meth:`add` updates the
    table passes in a copy of its own.
    """

    __slots__ = ("gains",)

    def __init__(self, f: Objective, gains: list[float]):
        super().__init__(f)
        self.gains = gains

    def gain(self, u: int) -> float:
        f = self.f
        if u < 0 or u >= f.n:
            raise GroundSetError(f"id {u} outside range(0, {f.n})")
        if u in self.members:
            raise DuplicateElementError(f"element {u} already in subset")
        f.evaluations += 1
        gain = self.gains[u]
        if not math.isfinite(gain):
            raise NumericError(f"marginal oracle returned non-finite gain {gain}")
        return gain
