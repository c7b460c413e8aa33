"""Independence-system oracles and the combinators the algorithms rely on.

Every system is a downward-closed family over ``range(n)`` exposed through
a membership predicate, together with a certified exchange parameter
``k_param`` and a ``class_tag`` of ``"matroid"``, ``"k_extendible"`` or
``"k_system"``.  The predicate defines the family, and
``can_add(u, members)`` asks it about the whole set ``members + u`` on
every call.  A caller whose set only grows asks ``open()`` for a
:class:`FeasibilityState` instead: the one incremental path.  A state
keeps running summaries of its members (a count, a running cost, a
bitmask of blocked vertices, a memoized block test) and answers
``can_add(u)`` from them, exactly as the predicate would.

The oracles are stateless except the planarity system, whose states
keep the answers of their block tests in memos shared by every state of
one system.  ``fresh()`` returns a system with nothing kept (the system
itself when it keeps nothing), and ``bench.run_algorithm`` starts each
run with it, so no kept answer outlives a run and runs that share a
system share none.  Within one system the memos are not synchronized,
but each entry is keyed by everything its answer depends on, so
concurrent queries stay exact; at worst they empty each other's entries
and repeat a test.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from typing import Callable, Iterable, Mapping, Sequence

from .core import (ElementSet, GroundSetError, SizeLimitError,
                   UnsupportedConstraintError)
from .planarity import planarity_check

CLASS_TAGS = ("matroid", "k_extendible", "k_system")

# Ground sets up to this size may have their largest independent set
# computed exactly by enumeration.
EXACT_RHO_LIMIT = 20


class IndependenceSystem:
    """Membership oracle for a downward-closed set family.

    ``predicate`` decides independence of an id set and defines the
    family; :meth:`can_add` and :meth:`is_independent` ask it.
    ``rho_hint`` is the exact size of the largest independent set when it
    is cheaply known, else None.  ``n`` and ``k_param`` must be whole
    numbers (a float such as ``3.0`` is taken as 3); a NaN, infinite or
    fractional one raises ``ValueError`` naming it.

    :meth:`open` returns an empty :class:`FeasibilityState`.
    ``open_fn(system)``, when provided, builds it; every family but label
    limits passes one that builds a state of its own.  ``open_fn`` receives
    the system rather than closing over it, so a system and its factory
    form no reference cycle.  Without it the generic state asks
    :meth:`can_add`.
    """

    __slots__ = ("n", "k_param", "class_tag", "kind", "rho_hint",
                 "_predicate", "_open_fn", "_fresh")

    def __init__(self, predicate: Callable[[frozenset], bool], n: int, *,
                 k_param: int, class_tag: str, kind: str = "custom",
                 rho_hint: int | None = None,
                 open_fn: Callable[[IndependenceSystem], FeasibilityState] | None = None):
        n = _spec_int(kind, "n", n)
        k_param = _spec_int(kind, "k_param", k_param)
        if n <= 0:
            raise ValueError("ground set must be non-empty")
        if k_param < 1:
            raise ValueError("k_param must be a positive integer")
        if class_tag not in CLASS_TAGS:
            raise ValueError(f"class_tag must be one of {CLASS_TAGS}")
        self.n = n
        self.k_param = k_param
        self.class_tag = class_tag
        self.kind = kind
        self.rho_hint = rho_hint
        self._predicate = predicate
        self._open_fn = open_fn
        self._fresh: Callable[[], IndependenceSystem] | None = None

    def fresh(self) -> IndependenceSystem:
        """The same family with no answers kept from earlier queries: the
        system itself unless it keeps some (only planarity does)."""
        return self if self._fresh is None else self._fresh()

    def _checked(self, subset: Iterable[int]) -> frozenset:
        s = frozenset(subset)
        for u in s:
            if not (0 <= u < self.n):
                raise _outside(u, self.n)
        return s

    def is_independent(self, subset: Iterable[int]) -> bool:
        return bool(self._predicate(self._checked(subset)))

    def can_add(self, u: int, members: Iterable[int]) -> bool:
        """Whether ``members + u`` is independent, for a non-member ``u``,
        by asking the predicate about the whole set.  Every state from
        :meth:`open` must answer the same."""
        if not (0 <= u < self.n):
            raise _outside(u, self.n)
        if u in members:
            return False
        return bool(self._predicate(frozenset(members) | {u}))

    def open(self) -> FeasibilityState:
        """Empty feasibility state over this system: the one ``open_fn``
        builds, else the generic :class:`FeasibilityState`."""
        if self._open_fn is None:
            return FeasibilityState(self)
        return self._open_fn(self)


def _outside(u: int, n: int) -> GroundSetError:
    return GroundSetError(f"id {u} outside range(0, {n})")


class FeasibilityState:
    """An independent set that only grows, with running summaries that
    answer ``can_add``.

    Returned empty by :meth:`IndependenceSystem.open`.  ``members`` is
    the set in insertion order; change it through :meth:`add` only.
    ``can_add(u)`` answers exactly what ``sys.can_add(u, members)``
    answers and raises what it raises.  ``add(u)`` puts ``u`` in the set
    and raises ``GroundSetError`` for an id outside ``range(n)`` and
    ``DuplicateElementError`` for a member; it does not test
    feasibility, so callers ask :meth:`can_add` first.  This generic
    state keeps no summary: it asks the system's :meth:`can_add` about
    the members.
    """

    __slots__ = ("sys", "n", "members")

    def __init__(self, sys: IndependenceSystem):
        self.sys = sys
        self.n = sys.n
        self.members = ElementSet()

    def can_add(self, u: int) -> bool:
        return self.sys.can_add(u, self.members)

    def add(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise _outside(u, self.n)
        self.members.add(u)


class _CardinalityState(FeasibilityState):
    """Reads the member count."""

    __slots__ = ("rho",)

    def __init__(self, sys: IndependenceSystem, rho: int):
        super().__init__(sys)
        self.rho = rho

    def can_add(self, u: int) -> bool:
        if not (0 <= u < self.n):
            raise _outside(u, self.n)
        members = self.members
        return u not in members and len(members) < self.rho


class _KnapsackState(FeasibilityState):
    """Keeps the members' running cost, added in insertion order
    (:func:`_running_sum`)."""

    __slots__ = ("costs", "limit", "cost")

    def __init__(self, sys: IndependenceSystem, costs: list[float],
                 limit: float):
        super().__init__(sys)
        self.costs = costs
        self.limit = limit
        self.cost = 0.0

    def can_add(self, u: int) -> bool:
        if not (0 <= u < self.n):
            raise _outside(u, self.n)
        if u in self.members:
            return False
        return self.cost + self.costs[u] <= self.limit

    def add(self, u: int) -> None:
        super().add(u)
        self.cost += self.costs[u]


class _NodeState(FeasibilityState):
    """Keeps a bitmask of the vertices that are members or adjacent to
    one: ``can_add`` reads u's bit, and ``add`` ORs in u's mask, which
    holds u's neighbours and u itself."""

    __slots__ = ("masks", "blocked")

    def __init__(self, sys: IndependenceSystem, masks: list[int]):
        super().__init__(sys)
        self.masks = masks
        self.blocked = 0

    def can_add(self, u: int) -> bool:
        if not (0 <= u < self.n):
            raise _outside(u, self.n)
        return not self.blocked >> u & 1

    def add(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise _outside(u, self.n)
        self.members.add(u)
        self.blocked |= self.masks[u]


class _PlanarityState(FeasibilityState):
    """Asks the system's memoized block test (see
    :func:`planarity_system`), whose memos every state of one system
    shares."""

    __slots__ = ("block_test",)

    def __init__(self, sys: IndependenceSystem,
                 block_test: Callable[[int, ElementSet], bool]):
        super().__init__(sys)
        self.block_test = block_test

    def can_add(self, u: int) -> bool:
        if not (0 <= u < self.n):
            raise _outside(u, self.n)
        members = self.members
        return u not in members and self.block_test(u, members)


class _PairState(FeasibilityState):
    """State of an intersection: asks the first part's state before the
    second's.  ``members`` is the first part's."""

    __slots__ = ("first", "second")

    def __init__(self, sys: IndependenceSystem, first: FeasibilityState,
                 second: FeasibilityState):
        self.sys = sys
        self.n = sys.n
        self.first = first
        self.second = second
        self.members = first.members

    def can_add(self, u: int) -> bool:
        return self.first.can_add(u) and self.second.can_add(u)

    def add(self, u: int) -> None:
        self.first.add(u)
        self.second.add(u)


def cardinality_system(n: int, rho: int) -> IndependenceSystem:
    """All subsets of size at most ``rho`` (a uniform matroid).

    ``rho`` must be a whole number (a float such as ``3.0`` is taken as
    3); a NaN, infinite or fractional one raises ``ValueError``.
    """
    n = _spec_int("cardinality", "n", n)
    rho = _spec_int("cardinality", "rho", rho)
    if rho < 1:
        raise ValueError("rho must be positive")
    return IndependenceSystem(
        lambda s: len(s) <= rho, n,
        k_param=1, class_tag="matroid", kind="cardinality",
        rho_hint=min(rho, n),
        open_fn=lambda system: _CardinalityState(system, rho))


def knapsack_system(costs, budget: float) -> IndependenceSystem:
    """Subsets whose total cost stays within the budget.

    A set's cost is its members' costs added left to right from 0
    (:func:`_running_sum`), in the set's iteration order; a state from
    ``open()`` adds them in insertion order.  Costs must be finite and
    strictly positive (a zero cost would leave the exchange parameter
    ceil(c_max / c_min) undefined; clamp to an epsilon first); the budget
    must be positive.
    """
    if isinstance(costs, Mapping):
        if set(costs) != set(range(len(costs))):
            raise ValueError("cost map keys must be exactly 0..n-1")
        c = [float(costs[i]) for i in range(len(costs))]
    else:
        c = [float(x) for x in costs]
    if not c:
        raise ValueError("empty ground set")
    for x in c:
        if not 0 < x < math.inf:  # also false for NaN
            raise ValueError(f"knapsack cost {x} is not finite and positive")
    if not budget > 0:  # also false for NaN
        raise ValueError(f"budget must be positive, got {budget}")
    k = math.ceil(max(c) / min(c) - 1e-12)
    # rho: the cheapest elements fill the budget first
    rho = 0
    acc = 0.0
    for x in sorted(c):
        if acc + x > budget + 1e-12:
            break
        acc += x
        rho += 1

    limit = budget + 1e-12

    def pred(s):
        return _running_sum(c, s) <= limit

    return IndependenceSystem(pred, len(c), k_param=max(k, 1),
                              class_tag="k_extendible", kind="knapsack",
                              rho_hint=rho,
                              open_fn=lambda system: _KnapsackState(
                                  system, c, limit))


def _running_sum(costs: Sequence[float], ids: Iterable[int]) -> float:
    """``costs[u]`` summed over ``ids`` left to right from 0.  ``sum``
    compensates float rounding from Python 3.12 on, so a knapsack that
    used it would answer differently near its budget on different
    versions."""
    total = 0.0
    for u in ids:
        total += costs[u]
    return total


def labeled_limit_system(labels: Sequence[Iterable], per_label_limit,
                         total_limit: int,
                         k_param: int | None = None) -> IndependenceSystem:
    """At most ``total_limit`` elements overall and at most the per-label
    limit among elements carrying each label.

    Labels may overlap, so this is generally not a matroid.  The default
    exchange parameter is (max labels per element) + 1; pass ``k_param``
    to override it when a sharper value is known for the instance.  The
    limits must be whole numbers (a float such as ``3.0`` is taken as 3);
    a NaN, infinite or fractional one raises ``ValueError`` naming it, and
    so does a ``per_label_limit`` mapping that lacks a label in use.
    """
    labs = [frozenset(l) for l in labels]
    if not labs:
        raise ValueError("empty ground set")
    kind = "labeled_limit"
    total_limit = _spec_int(kind, "total_limit", total_limit)
    if total_limit < 1:
        raise ValueError("total_limit must be positive")
    all_labels = frozenset().union(*labs) if labs else frozenset()
    if isinstance(per_label_limit, Mapping):
        checked = {lab: _spec_int(kind, "per_label_limit", v,
                                  f" for label {lab!r}")
                   for lab, v in per_label_limit.items()}
        missing = all_labels - checked.keys()
        if missing:
            raise ValueError(f"{kind} spec field 'per_label_limit' has no "
                             f"limit for label {min(map(repr, missing))}")
        limits = {lab: checked[lab] for lab in all_labels}
    else:
        limits = dict.fromkeys(all_labels, _spec_int(
            kind, "per_label_limit", per_label_limit))
    if any(v < 1 for v in limits.values()):
        raise ValueError("per-label limits must be positive")
    if k_param is None:
        k_param = (max((len(l) for l in labs), default=0)) + 1

    def pred(s):
        counts = Counter(lab for u in s for lab in labs[u])
        return (len(s) <= total_limit
                and all(counts[lab] <= limits[lab] for lab in counts))

    return IndependenceSystem(pred, len(labs), k_param=k_param,
                              class_tag="k_extendible", kind=kind)


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


def node_independent_set_system(n: int, edges: Iterable[Sequence[int]]) -> IndependenceSystem:
    """Vertex subsets spanning no edge of the supplied undirected graph.

    Its states keep a bitmask of blocked vertices (:class:`_NodeState`)
    and read the neighbour masks built here, one per vertex, holding its
    neighbours and itself.  ``n`` and the endpoints must be whole numbers
    (a float such as ``3.0`` is taken as 3); a NaN, infinite or
    fractional one raises ``ValueError`` naming the field or the edge.
    """
    n = _spec_int("node_independent_set", "n", n)
    adj: list[set[int]] = [set() for _ in range(n)]
    for e in edges:
        u, v = _endpoints("node_independent_set", e, n)
        adj[u].add(v)
        adj[v].add(u)
    d_max = max((len(a) for a in adj), default=0)
    bits = [1 << v for v in range(n)]
    # distinct bits, so their sum is their union
    masks = [sum(map(bits.__getitem__, a)) | bits[u] for u, a in enumerate(adj)]

    def pred(s):
        return all(adj[u].isdisjoint(s) for u in s)

    return IndependenceSystem(pred, n,
                              k_param=max(d_max, 1), class_tag="k_extendible",
                              kind="node_independent_set",
                              open_fn=lambda system: _NodeState(system, masks))


def planarity_system(n_vertices: int, edge_list: Sequence[Sequence[int]]) -> IndependenceSystem:
    """Edge subsets whose graph is planar; element i stands for edge i.

    ``is_independent`` and ``can_add`` run the left-right test on the
    whole subset, but only beyond 8 edges: the smallest non-planar
    graphs, K3,3 and K5, have 9 and 10.  A state from ``open()``
    (:class:`_PlanarityState`) relies on its members being planar
    already.  A graph is planar exactly when each of its biconnected
    blocks is (Hopcroft and Tarjan, CACM 1973), and adding the edge ab to
    the members changes only one block: the block of ``members + ab``
    that holds ab, which is the union of the members' blocks on the a-b
    path of their block-cut tree, plus ab (see :func:`merged_block`).
    The state's ``can_add`` tests that merged block alone, and only when
    the test can fail: never on at most 8 edges, so never for a bridge or
    a pendant edge, and not when the block already breaks Euler's bound
    e <= 3v - 6.

    The block answers are kept in two memos, both exact, that every
    state of the system shares.  The first is keyed by the edge and the
    member set, so the many sieve buckets and threshold guesses that hold
    the same members share one block pass; it is emptied when another
    edge is asked about.  The second is keyed by the edge and the merged
    block's edge set, so member sets that differ only outside that block
    share one left-right test, also when the same edge arrives again
    later (cascade copies, later window copies, repeated greedy rounds);
    it is kept for the life of the system.  ``fresh()`` returns the same
    system with both memos empty, and ``bench.run_algorithm`` starts
    every run with it, so no answer carries over from one run to the
    next.

    ``n_vertices`` and the endpoints must be whole numbers (a float such
    as ``3.0`` is taken as 3); a NaN, infinite or fractional one raises
    ``ValueError`` naming the field or the edge.
    """
    n_vertices = _spec_int("planarity", "n_vertices", n_vertices)
    edges = []
    seen = set()
    for e in edge_list:
        u, v = _endpoints("planarity", e, n_vertices)
        key = frozenset((u, v))
        if key in seen:
            raise ValueError(f"parallel edge between {u} and {v}")
        seen.add(key)
        edges.append((u, v))
    if not edges:
        raise ValueError("empty ground set")
    return _planarity(edges)


def _planarity(edges: list[tuple[int, int]]) -> IndependenceSystem:
    """The planarity system over checked edges, with empty memos."""

    def pred(s):
        return len(s) <= 8 or planarity_check([edges[i] for i in s])

    memo: dict = {}
    memo_u = None
    tested: dict = {}

    def block_test(u, members):
        nonlocal memo_u
        if len(members) <= 7:
            return True
        s = frozenset(members)
        hit = memo.get((u, s))
        if hit is not None:
            return hit
        if u != memo_u:
            memo.clear()
            memo_u = u
        memo[u, s] = answer = planar_with(u, s)
        return answer

    def planar_with(u, members):
        block, n_block = merged_block(edges, u, members)
        m = len(block) + 1
        if m <= 8:
            return True
        if m > 3 * n_block - 6:
            return False
        key = (u, frozenset(block))
        answer = tested.get(key)
        if answer is None:
            tested[key] = answer = planarity_check(
                [edges[i] for i in block] + [edges[u]])
        return answer

    system = IndependenceSystem(pred, len(edges), k_param=3,
                                class_tag="k_system", kind="planarity",
                                open_fn=lambda system: _PlanarityState(
                                    system, block_test))
    system._fresh = lambda: _planarity(edges)
    return system


def merged_block(edges: Sequence[tuple[int, int]], u: int,
                 members: Iterable[int]) -> tuple[list[int], int]:
    """The members in the biconnected block of ``members + u`` that holds
    edge ``u``, and the number of vertices of that block.

    With (a, b) = ``edges[u]``, that block is the union of the members'
    blocks on the a-b path of their block-cut tree, plus ab.  One
    iterative Hopcroft-Tarjan pass with an edge stack finds it: a is the
    root and b its only child, so the pass walks just the part of the
    members' graph that b reaches without a, and cuts every block that
    closes below b off the stack.  What is left when b is done is the
    merged block; it is empty when ab is a bridge or a pendant edge.  The
    edges must be distinct and ``u`` no member.
    """
    a, b = edges[u]
    adj: dict = {}
    for i in members:
        x, y = edges[i]
        adj.setdefault(x, []).append(i)
        adj.setdefault(y, []).append(i)
    if a not in adj or b not in adj:
        return [], 2
    disc = {a: 0, b: 1}
    low = [0, 1]  # by discovery number
    block: list[int] = []  # the edge stack
    # stack height and tree-edge count when each open tree edge was pushed
    marks = []
    # tree edges on the stack: one per block vertex other than a and b
    trees = 0
    path = [(b, u, iter(adj[b]))]
    while path:
        v, via, todo = path[-1]
        dv = disc[v]
        for i in todo:
            if i == via:
                continue
            x, y = edges[i]
            w = y if x == v else x
            dw = disc.get(w)
            if dw is None:
                disc[w] = dw = len(low)
                low.append(dw)
                marks.append((len(block), trees))
                block.append(i)
                trees += 1
                path.append((w, i, iter(adj[w])))
                break
            if dw < dv:  # a back edge; seen from below it is already stacked
                block.append(i)
                if dw < low[dv]:
                    low[dv] = dw
        else:
            path.pop()
            if path:
                dp = disc[path[-1][0]]
                height, count = marks.pop()
                if low[dv] >= dp:  # v's subtree closes a block without ab
                    del block[height:]
                    trees = count
                elif low[dv] < low[dp]:
                    low[dp] = low[dv]
    return block, trees + 2


def intersect(a: IndependenceSystem, b: IndependenceSystem) -> IndependenceSystem:
    """Conjunction of two systems; the exchange parameters add."""
    if a.n != b.n:
        raise GroundSetError("systems live on different ground sets")

    def pred(s):
        return a.is_independent(s) and b.is_independent(s)

    system = IndependenceSystem(pred, a.n, k_param=a.k_param + b.k_param,
                                class_tag="k_system", kind="intersection",
                                open_fn=lambda system: _PairState(
                                    system, a.open(), b.open()))
    if a._fresh is not None or b._fresh is not None:
        system._fresh = lambda: intersect(a.fresh(), b.fresh())
    return system


# fields each spec type must carry
_SPEC_FIELDS = {"cardinality": ("n", "rho"), "knapsack": ("costs", "budget"),
                "labeled_limit": ("labels", "per_label_limit", "total_limit"),
                "node_independent_set": ("n", "edges"),
                "planarity": ("n_vertices", "edges")}


def _spec_int(kind: str, name: str, value, where: str = "") -> int:
    """An integer field of a spec or a constructor's bound: an integral
    number, or a float whose value is finite and whole.  ``where`` narrows
    the error message."""
    whole = (not isinstance(value, numbers.Real)
             or isinstance(value, numbers.Integral)
             or (math.isfinite(value) and float(value).is_integer()))
    if whole:
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{kind} spec field {name!r}{where} must be an "
                     f"integer, got {value!r}")


def make_system(spec: Mapping) -> IndependenceSystem:
    """Build a system from a JSON-style config mapping.

    Recognized ``type`` values: ``cardinality`` (n, rho), ``knapsack``
    (costs, budget), ``labeled_limit`` (labels, per_label_limit,
    total_limit, optional k_param), ``node_independent_set`` (n, edges),
    ``planarity`` (n_vertices, edges).  ``{"intersect": [specA, specB]}``
    combines two specs.  A missing field, or an integer field (n, rho,
    per_label_limit, total_limit, k_param, n_vertices) holding a NaN,
    infinite or fractional number, raises ``ValueError`` naming it.
    """
    if "intersect" in spec:
        parts = spec["intersect"]
        if len(parts) != 2:
            raise ValueError("intersect expects exactly two specs")
        return intersect(make_system(parts[0]), make_system(parts[1]))
    kind = spec.get("type")
    for name in _SPEC_FIELDS.get(kind, ()):
        if spec.get(name) is None:
            raise ValueError(f"{kind} spec is missing field {name!r}")

    def field(name):
        return _spec_int(kind, name, spec[name])

    if kind == "cardinality":
        return cardinality_system(field("n"), spec["rho"])
    if kind == "knapsack":
        return knapsack_system(spec["costs"], float(spec["budget"]))
    if kind == "labeled_limit":
        k_param = None if spec.get("k_param") is None else field("k_param")
        return labeled_limit_system(spec["labels"], spec["per_label_limit"],
                                    spec["total_limit"], k_param)
    if kind == "node_independent_set":
        return node_independent_set_system(field("n"), spec["edges"])
    if kind == "planarity":
        return planarity_system(field("n_vertices"), spec["edges"])
    raise UnsupportedConstraintError(f"unknown constraint spec {spec!r}")


def exact_rho(sys: IndependenceSystem) -> int:
    """Size of the largest independent subset, by pruned enumeration.

    Walks the independent sets in id order, extending only while the
    remaining elements could still beat the current best.  Exact but
    limited to ground sets of at most EXACT_RHO_LIMIT elements.
    """
    n = sys.n
    if n > EXACT_RHO_LIMIT:
        raise SizeLimitError(f"exact rho limited to {EXACT_RHO_LIMIT} elements")
    best = 0
    members: set[int] = set()

    def extend(pos: int):
        nonlocal best
        best = max(best, len(members))
        for u in range(pos, n):
            if len(members) + (n - u) <= best:
                return
            if sys.can_add(u, members):
                members.add(u)
                extend(u + 1)
                members.discard(u)

    extend(0)
    return best
