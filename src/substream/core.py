"""Ground-set primitives shared by every algorithm in the package.

Elements are plain integer ids drawn from ``range(n)`` for a ground set of
size ``n``.  ``ElementSet`` is an ordered set of ids; algorithms rely on its
insertion order (streaming buckets are drained in arrival order).  It
subclasses ``dict`` (every value is None) so that membership tests,
``len``, iteration and copies run as C-level dict operations: the
streaming inner loops make on the order of 10^8 membership tests, and a
Python-level ``__contains__`` wrapper dominated their cost.
``Objective`` wraps a raw set function with query counting;
``Objective.open`` hands out a ``GainState`` that answers gain, loss and
swap queries against one set as it changes.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Iterable, Mapping, Sequence

# Absolute tolerance for every inequality test performed by the algorithms.
EPS = 1e-9


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


def _outside(u: int, n: int) -> GroundSetError:
    return GroundSetError(f"id {u} outside range(0, {n})")


def _checked(val: float) -> float:
    """An oracle value as the toolkit takes it: a NaN, an infinity or a
    value below ``-EPS`` raises ``NumericError``, one in ``[-EPS, 0)``
    reads ``0.0``."""
    if not math.isfinite(val):
        raise NumericError(f"oracle returned non-finite value {val}")
    if val < 0.0:
        if val < -EPS:
            raise NumericError(f"oracle returned negative value {val}")
        val = 0.0
    return val


def _spec_int(kind: str, name: str, value, where: str = "") -> int:
    """An integer field of a spec or a constructor's bound: an integral
    number (a bool too), or a real number whose value is finite and whole;
    a string or bytes is no number.  ``where`` narrows the error message."""
    if isinstance(value, numbers.Integral) or (
            isinstance(value, numbers.Real) and math.isfinite(value)
            and float(value).is_integer()):
        return int(value)
    raise ValueError(f"{kind} spec field {name!r}{where} must be an "
                     f"integer, got {value!r}")


def _spec_float(kind: str, name: str, value, where: str = "") -> float:
    """A real-valued field of a spec: a finite real number (an integral
    one, a bool too); a string or bytes is no number, and NaN and the
    infinities are not finite.  ``where`` narrows the error message."""
    if isinstance(value, numbers.Real) and math.isfinite(value):
        return float(value)
    raise ValueError(f"{kind} spec field {name!r}{where} must be a finite "
                     f"number, got {value!r}")


def _spec_count(kind: str, name: str, value, where: str = "") -> int:
    """A whole-number field (:func:`_spec_int`, with the same ``where``)
    that must be at least 1."""
    count = _spec_int(kind, name, value, where)
    if count < 1:
        raise ValueError(f"{name}{where} must be a positive integer")
    return count


def _dense(subject: str, table: Mapping) -> list:
    """The values of the mapping ``table`` in key order; its keys must be
    exactly ``0..n-1``, else ``ValueError`` names ``subject``."""
    n = len(table)
    if set(table) != set(range(n)):
        raise ValueError(f"{subject} must be exactly 0..n-1")
    return [table[i] for i in range(n)]


def _endpoints(kind: str, e: Sequence, n: int) -> tuple[int, int]:
    """The two vertices of a graph edge, checked like :func:`_spec_int`
    and against ``range(n)``; errors name the edge."""
    u, v = e[0], e[1]
    if type(u) is not int or type(v) is not int:
        where = f" in edge {tuple(e)!r}"
        u = _spec_int(kind, "edges", u, where)
        v = _spec_int(kind, "edges", v, where)
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) outside vertex range")
    return u, v


def _running_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0: the one rule for a float
    sum whose result reaches a value, a weight or a cost.  ``sum``
    compensates float rounding from Python 3.12 on, so a result that used
    it would differ in its last bits between versions."""
    total = 0.0
    for x in values:
        total += x
    return total


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


def values_once(f: "Objective", sets: Iterable[Iterable[int]],
                known: dict | None = None) -> list[float]:
    """``[f.value(s) for s in sets]``, asking :meth:`Objective.value` once
    per distinct set.  Sets are keyed by their sorted ids, the tuple that
    ``value`` passes to ``fn``, so equal keys get equal bits; the values
    live in the memo ``known`` if one is passed, else only for this call."""
    known = {} if known is None else known
    values = []
    for s in sets:
        key = as_sorted_ids(s)
        val = known.get(key)
        if val is None:
            val = known[key] = f.value(key)
        values.append(val)
    return values


def as_sorted_ids(subset: Iterable[int]) -> tuple[int, ...]:
    """Canonical sorted-id fingerprint of a subset."""
    if isinstance(subset, ElementSet):
        return subset.sorted_ids()
    return tuple(sorted(set(subset)))


class Objective:
    """Counted oracle for a non-negative set function over ``range(n)``;
    ``n`` is a whole number (:func:`_spec_int`) of at least 1.

    ``fn`` receives a sorted tuple of element ids and must return a
    finite non-negative value (values within ``EPS`` below zero are clamped
    to zero; anything lower, and a NaN or infinity, raises
    ``NumericError``).

    ``evaluations`` counts oracle queries, the ``oracle_calls`` of a
    result row: one per :meth:`value`, :meth:`singleton` and gain, loss
    or swap trial of a :class:`GainState`, two per :meth:`marginal` (the
    generic state counts the calls it makes).  A query counts the same
    whatever was asked before, also when :meth:`singleton` reads its table.

    :meth:`open` returns an empty :class:`GainState`.
    ``open_fn(objective)``, when provided, builds it; objectives that keep
    running sums over the set (additive, directed cut, facility location,
    log-determinant and coverage-minus-dispersion) pass one.  Without it
    the state asks :meth:`marginal` for every gain and :meth:`value` for
    every loss and swap trial.

    :meth:`gains` asks many states for one element's gain at once, as
    the threshold copies of a sieve do; it counts one query per state
    with running sums or a table, and the two of each :meth:`marginal`
    call for generic states.

    ``table_fn()``, when provided, returns n values, entry u with the bits
    of ``fn((u,))``; the objective builders whose singletons are numbers
    they already hold (additive, directed cut, facility location and
    coverage-minus-dispersion) pass one.  It is called once, on the first
    :meth:`singleton` call, and each entry gets ``fn``'s checks when its
    element is first asked, so a singleton answers, counts and raises as
    ``value((u,))`` would.

    Instances are read-only after construction apart from the call
    counter, the singleton table and the ``table_fn`` values, which are
    not synchronized: use one oracle per run when running concurrently.
    """

    __slots__ = ("n", "evaluations", "_fn", "_open_fn", "_singletons",
                 "_table_fn", "_table")

    def __init__(self, fn: Callable[[tuple[int, ...]], float], n: int, *,
                 open_fn: Callable[["Objective"], "GainState"] | None = None,
                 table_fn: Callable[[], Sequence[float]] | None = None):
        n = _spec_int("Objective", "n", n)
        if n <= 0:
            raise ValueError("ground set must be non-empty")
        self.n = n
        self.evaluations = 0
        self._fn = fn
        self._open_fn = open_fn
        self._singletons: list[float | None] = [None] * n
        self._table_fn = table_fn
        self._table: Sequence[float] | None = None

    def _key(self, subset: Iterable[int]) -> tuple[int, ...]:
        key = as_sorted_ids(subset)
        if key and (key[0] < 0 or key[-1] >= self.n):
            raise GroundSetError(f"ids outside range(0, {self.n}): {key}")
        return key

    def _eval(self, key: tuple[int, ...]) -> float:
        """``fn`` of a key already validated by :meth:`_key`, checked and
        counted."""
        self.evaluations += 1
        return _checked(float(self._fn(key)))

    def value(self, subset: Iterable[int]) -> float:
        return self._eval(self._key(subset))

    __call__ = value

    def marginal(self, u: int, subset: Iterable[int]) -> float:
        """Gain of adding ``u`` to ``subset``, ``value(S + u) - value(S)``:
        two queries; may be negative."""
        if u < 0 or u >= self.n:
            raise _outside(u, self.n)
        base = self._key(subset)  # reads a one-shot iterator once
        if u in base:
            raise DuplicateElementError(f"element {u} already in subset")
        return self.value(base + (u,)) - self._eval(base)

    def singleton(self, u: int) -> float:
        """``value((u,))``: the first call for ``u`` computes it, or reads
        it off the ``table_fn`` values through :func:`_checked`, and later
        calls read it from an n-slot table; every call counts one query."""
        if u < 0 or u >= self.n:
            raise _outside(u, self.n)
        val = self._singletons[u]
        if val is not None:
            self.evaluations += 1
        elif self._table_fn is None:
            self._singletons[u] = val = self._eval((u,))
        else:
            if self._table is None:
                self._table = self._table_fn()
            self.evaluations += 1
            self._singletons[u] = val = _checked(self._table[u])
        return val

    def open(self) -> "GainState":
        """Empty gain state over this objective: the one ``open_fn``
        builds, else the generic :class:`GainState`."""
        if self._open_fn is None:
            return GainState(self)
        return self._open_fn(self)

    def gains(self, u: int, states: list["GainState"]) -> list[float]:
        """``[s.gain(u) for s in states]`` in one call, equal float for
        float, for states that all come from this objective's
        :meth:`open`.

        It counts what those calls count and raises what the first
        failing one raises.  The states' class answers the batch
        (:meth:`GainState.gains_of`).
        """
        if not states:
            return []
        return type(states[0]).gains_of(u, states)


class GainState:
    """A set with the gain of each element outside it and the loss of
    each member.

    Returned empty by :meth:`Objective.open`.  ``members`` is the set in
    insertion order; change it through :meth:`add` and :meth:`remove`
    only.  ``gain(u)`` is ``f(S + u) - f(S)`` with the checks of
    :meth:`Objective.marginal`; ``loss(x)`` is ``f(S) - f(S - x)`` and
    raises what :meth:`remove` raises for a non-member.  This generic
    state asks :meth:`Objective.marginal` for a gain and
    :meth:`Objective.value` for both sets of a loss, two queries each.
    :meth:`swap_values` gives the value of every single-element swap, as
    a swap-based streamer weighs them, one query per trial.
    """

    __slots__ = ("f", "members")

    def __init__(self, f: Objective):
        self.f = f
        self.members = ElementSet()

    def gain(self, u: int) -> float:
        return self.f.marginal(u, self.members)

    @classmethod
    def gains_of(cls, u: int, states: list["GainState"]) -> list[float]:
        """:meth:`Objective.gains` for states of this class: one
        :meth:`gain` call per state.

        :class:`TabulatedGainState` and ``objectives.FacilityGainState``
        answer the batch at once when ``u`` is in range and outside every
        state and every gain is finite, counting one query per state.
        Otherwise they call this loop, which raises and counts what the
        first failing state raises and counts; a gain never changes its
        state, so nothing else needs undoing.
        """
        return [s.gain(u) for s in states]

    def loss(self, x: int) -> float:
        members = self.members
        if x not in members:
            raise KeyError(x)
        return self.f.value(members) - self.f.value(members.difference((x,)))

    def add(self, u: int) -> None:
        if u < 0 or u >= self.f.n:
            raise _outside(u, self.f.n)
        self.members.add(u)

    def remove(self, x: int) -> None:
        self.members.remove(x)

    def _check_outside(self, u: int) -> None:
        """Raise what :meth:`Objective.marginal` raises for ``u``."""
        n = self.f.n
        if u < 0 or u >= n:
            raise _outside(u, n)
        if u in self.members:
            raise DuplicateElementError(f"element {u} already in subset")

    def swap_values(self, u: int, current: float) -> list[float]:
        """``f(S - x + u)`` for each member ``x`` in member order, where
        ``current`` is ``f(S)`` and ``u`` is outside ``S``.

        This generic state asks :meth:`Objective.value` for every trial
        set; ``current`` is not read.
        """
        self._check_outside(u)
        members, value = self.members, self.f.value
        out = []
        for x in members:
            trial = members.difference((x,))
            trial.add(u)
            out.append(value(trial))
        return out


class TabulatedGainState(GainState):
    """Gain state that reads gains and losses from a per-element table.

    ``gains[u]`` must hold u's gain for every ``u`` outside ``members``
    and its loss for every member.  :meth:`gain` keeps the checks of
    :meth:`Objective.marginal`; a gain or loss counts one evaluation and
    raises ``NumericError`` on a non-finite entry.  A batch
    (:meth:`Objective.gains`) reads every state's entry in one pass.
    This class never writes ``gains``; a subclass whose :meth:`add`
    updates the table passes in a copy of its own and undoes the update
    in :meth:`remove`.
    """

    __slots__ = ("gains",)

    def __init__(self, f: Objective, gains: list[float]):
        super().__init__(f)
        self.gains = gains

    def gain(self, u: int) -> float:
        f = self.f
        if u < 0 or u >= f.n:
            raise _outside(u, f.n)
        if u in self.members:
            raise DuplicateElementError(f"element {u} already in subset")
        f.evaluations += 1
        gain = self.gains[u]
        if not math.isfinite(gain):
            raise NumericError(f"marginal oracle returned non-finite gain {gain}")
        return gain

    @classmethod
    def gains_of(cls, u: int, states: list[GainState]) -> list[float]:
        f = states[0].f
        if 0 <= u < f.n:
            # members are skipped, so a short list means u is in a state
            out = [s.gains[u] for s in states if u not in s.members]
            if len(out) == len(states) and math.isfinite(sum(out)):
                f.evaluations += len(out)
                return out
        return super().gains_of(u, states)

    def loss(self, x: int) -> float:
        if x not in self.members:
            raise KeyError(x)
        self.f.evaluations += 1
        loss = self.gains[x]
        if not math.isfinite(loss):
            raise NumericError(f"marginal oracle returned non-finite loss {loss}")
        return loss


class AccumulatingGainState(GainState):
    """Gain state that keeps running sums over its members.

    A subclass folds one new member into its sums in ``_absorb(u)``, reads
    u's gain from them in ``_gain(u)`` and empties them in ``_clear()``;
    ``_absorb`` may raise, and then leaves the state as it was.
    :meth:`gain` keeps the checks of :meth:`Objective.marginal`, counts one
    evaluation per query and raises ``NumericError`` on a non-finite gain.
    :meth:`remove` clears the sums and absorbs the remaining members again
    in member order; the swap baselines and the double greedy's pool
    remove, so that path is cold.  Losses and swap trials stay the
    generic :meth:`Objective.value` calls.
    """

    __slots__ = ()

    def __init__(self, f: Objective):
        super().__init__(f)
        self._clear()

    def gain(self, u: int) -> float:
        self._check_outside(u)
        self.f.evaluations += 1
        gain = self._gain(u)
        if not math.isfinite(gain):
            raise NumericError(f"marginal oracle returned non-finite gain {gain}")
        return gain

    def add(self, u: int) -> None:
        self._check_outside(u)
        self._absorb(u)
        self.members.add(u)

    def remove(self, x: int) -> None:
        self.members.remove(x)
        self._clear()
        for y in self.members:
            self._absorb(y)

    def _clear(self) -> None:
        raise NotImplementedError

    def _absorb(self, u: int) -> None:
        raise NotImplementedError

    def _gain(self, u: int) -> float:
        raise NotImplementedError
