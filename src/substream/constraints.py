"""Independence-system oracles and the combinators the algorithms rely on.

Every system is a downward-closed family over ``range(n)`` exposed through
a membership predicate, together with a certified exchange parameter
``k_param`` and a ``class_tag`` of ``"matroid"``, ``"k_extendible"`` or
``"k_system"``.  The predicate defines the family, and
``can_add(u, members)`` asks it about the whole set ``members + u`` on
every call.  A caller whose set only grows asks ``open()`` for a
:class:`FeasibilityState` instead: the one incremental path.  A state
keeps running summaries of its members (a count, a running cost, a
bitmask of blocked vertices built from the neighbour masks that the node
predicate reads too, a block-cut forest) and answers ``can_add(u)`` from
them, exactly as the predicate would.

The oracles are stateless except the planarity system, whose states
keep the answers of their block tests in one memo shared by every state
of one system.  ``fresh()`` returns a system with nothing kept (the
system itself when it keeps nothing), and ``bench.run_algorithm`` starts
each run with it, so no kept answer outlives a run and runs that share a
system share none.  Within one system the memo is not synchronized, but
each entry is keyed by everything its answer depends on, so concurrent
queries stay exact; at worst two of them run the same test.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from typing import Callable, Iterable, Mapping, Sequence

from .core import (ElementSet, GroundSetError, SizeLimitError,
                   UnsupportedConstraintError, _dense, _endpoints, _outside,
                   _running_sum, _spec_count, _spec_float, _spec_int,
                   _spec_iter)
# planarity_check stays importable from here: perfbench/tracing.py patches it
from .planarity import _check, _is_planar, planarity_check  # noqa: F401

CLASS_TAGS = ("matroid", "k_extendible", "k_system")

# Ground sets up to this size may have their largest independent set
# computed exactly by enumeration.
EXACT_RHO_LIMIT = 20


class IndependenceSystem:
    """Membership oracle for a downward-closed set family.

    ``predicate`` decides independence of an id set and defines the
    family; :meth:`can_add` and :meth:`is_independent` ask it.
    ``rho_hint`` is the exact size of the largest independent set when it
    is cheaply known, else None.  ``n`` and ``k_param`` (at least 1) must
    be whole numbers (``3.0`` is taken as 3); a NaN, infinite, fractional
    or smaller one raises ``ValueError`` naming it.

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
        k_param = _spec_count(kind, "k_param", k_param)
        if n <= 0:
            raise ValueError("ground set must be non-empty")
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
    holds u's neighbours and u itself (the masks the predicate reads)."""

    __slots__ = ("masks", "blocked")

    def __init__(self, sys: IndependenceSystem, masks: list[int]):
        super().__init__(sys)
        self.masks = masks
        self.blocked = 0

    def can_add(self, u: int) -> bool:
        if not (0 <= u < self.n):
            raise _outside(u, self.n)
        try:
            return not self.blocked >> u & 1
        except OverflowError:  # a numpy id shifts only a fixed-width int
            return not self.blocked >> int(u) & 1

    def add(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise _outside(u, self.n)
        self.members.add(u)
        self.blocked |= self.masks[u]


class _PlanarityState(FeasibilityState):
    """Keeps the block-cut forest of its members' graph and asks the
    system's ``block_test`` about the one block that ``u`` would change
    (see :func:`planarity_system`).

    The forest is rooted: ``vb`` maps each member vertex to its parent
    block, or to None for the root of its tree, and a block's ``head``
    is its vertex nearest the root.  A block is named by the id of the
    edge that opened it, and ``uf`` is a union-find over those names
    (:meth:`_find` gives a block's current name; a merge keeps the name
    of its longest part).  Each current block keeps its edge ids in
    ``block_edges`` and its vertex count in ``n_vertices``.
    ``block_test(u, block, n_block)`` answers whether the edge ids
    ``block`` with ``u``, on ``n_block`` vertices, are planar.  Only
    ``add`` changes the forest; ``can_add`` at most shortens union-find
    paths, so concurrent queries of one state stay exact.
    """

    __slots__ = ("block_test", "edges", "vb", "uf", "head", "block_edges",
                 "n_vertices")

    def __init__(self, sys: IndependenceSystem,
                 block_test: Callable[[int, list[int], int], bool],
                 edges: list[tuple[int, int]]):
        super().__init__(sys)
        self.block_test = block_test
        self.edges = edges
        self.vb: dict[int, int | None] = {}
        self.uf: dict[int, int] = {}
        self.head: dict[int, int] = {}
        self.block_edges: dict[int, list[int]] = {}
        self.n_vertices: dict[int, int] = {}

    def can_add(self, u: int) -> bool:
        if not (0 <= u < self.n):
            raise _outside(u, self.n)
        if u in self.members:
            return False
        if len(self.members) <= 7:
            return True
        return self.block_test(u, *self.merged_block(u))

    def merged_block(self, u: int) -> tuple[list[int], int]:
        """The members in the block of ``members + u`` that holds edge
        ``u``, and the number of that block's vertices: the members'
        blocks on the a-b path, merged.  Empty, on 2 vertices, when ab is
        a bridge."""
        found = self._path(*self.edges[u])
        if found is None:
            return [], 2
        path = found[0]
        block_edges, n_vertices = self.block_edges, self.n_vertices
        return ([i for x in path for i in block_edges[x]],
                sum(n_vertices[x] for x in path) - len(path) + 1)

    def add(self, u: int) -> None:
        super().add(u)
        a, b = self.edges[u]
        found = self._path(a, b)
        if found is None:
            self._bridge(u, a, b)
            return
        path, top = found
        uf = self.uf
        block_edges, n_vertices, head = (self.block_edges, self.n_vertices,
                                         self.head)
        # keep the longest edge list and extend it with the others
        keep = max(path, key=lambda x: len(block_edges[x]))
        kept = block_edges[keep]
        n_block = n_vertices[keep]
        for x in path:
            if x != keep:
                uf[x] = keep
                kept += block_edges.pop(x)
                n_block += n_vertices.pop(x) - 1
                del head[x]
        kept.append(u)
        n_vertices[keep] = n_block
        head[keep] = top

    def _find(self, x: int) -> int:
        uf = self.uf
        while uf[x] != x:
            uf[x] = x = uf[uf[x]]
        return x

    def _climb(self, v: int) -> tuple[list[int], int]:
        """The blocks from ``v`` up to its tree's root, and that root."""
        vb, head, find = self.vb, self.head, self._find
        blocks = []
        parent = vb[v]
        while parent is not None:
            parent = find(parent)
            blocks.append(parent)
            v = head[parent]
            parent = vb[v]
        return blocks, v

    def _path(self, a: int, b: int) -> tuple[list[int], int] | None:
        """The blocks on the a-b path of the forest and the head of their
        merge, or None when a and b are not in one tree."""
        vb = self.vb
        if a not in vb or b not in vb:
            return None
        up_a, root = self._climb(a)
        up_b, root_b = self._climb(b)
        if root != root_b:
            return None
        last = None
        while up_a and up_b and up_a[-1] == up_b[-1]:
            last = up_a.pop()
            up_b.pop()
        head = self.head
        end_a = head[up_a[-1]] if up_a else a
        end_b = head[up_b[-1]] if up_b else b
        up_a += up_b
        if end_a == end_b:  # the path turns at a cut vertex
            return up_a, end_a
        up_a.append(last)  # it turns inside the lowest common block
        return up_a, head[last]

    def _bridge(self, u: int, a: int, b: int) -> None:
        """Hang b's tree, rerooted at b, below a through the new block
        ``{u}``."""
        vb, head = self.vb, self.head
        if a not in vb:
            if b in vb:  # hang a below b instead: no reroot
                a, b = b, a
            else:
                vb[a] = None
        if b in vb:  # reverse the pointers along b's path to its root
            v, parent = b, vb[b]
            while parent is not None:
                parent = self._find(parent)
                up = head[parent]
                above = vb[up]
                head[parent] = v
                vb[up] = parent
                v, parent = up, above
        vb[b] = u
        self.uf[u] = u
        head[u] = a
        self.block_edges[u] = [u]
        self.n_vertices[u] = 2


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
    rho = _spec_count("cardinality", "rho", rho)
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
    must be positive and finite.  Both must be real numbers
    (:func:`_spec_float`): a string is none.
    """
    if isinstance(costs, Mapping):
        costs = _dense("cost map keys", costs)
    costs = list(_spec_iter("knapsack", "costs", costs))
    if not costs:  # max and min below need a cost
        raise ValueError("empty ground set")
    # a float needs only the range check below, which also catches NaN
    c = [x if type(x) is float
         else _spec_float("knapsack", "costs", x, f" at index {i}")
         for i, x in enumerate(costs)]
    for x in c:
        if not 0 < x < math.inf:
            raise ValueError(f"knapsack cost {x} is not finite and positive")
    if isinstance(budget, numbers.Real) and not budget > 0:
        raise ValueError(f"budget must be positive, got {budget}")
    budget = _spec_float("knapsack", "budget", budget)
    k = math.ceil(max(c) / min(c) - 1e-12)
    limit = budget + 1e-12
    # rho: the cheapest elements fill the budget first
    rho = 0
    acc = 0.0
    for x in sorted(c):
        if acc + x > limit:
            break
        acc += x
        rho += 1

    def pred(s):
        return _running_sum(map(c.__getitem__, s)) <= limit

    return IndependenceSystem(pred, len(c), k_param=max(k, 1),
                              class_tag="k_extendible", kind="knapsack",
                              rho_hint=rho,
                              open_fn=lambda system: _KnapsackState(
                                  system, c, limit))


def labeled_limit_system(labels: Sequence[Iterable], per_label_limit,
                         total_limit: int,
                         k_param: int | None = None) -> IndependenceSystem:
    """At most ``total_limit`` elements overall and at most the per-label
    limit among elements carrying each label.

    Labels may overlap, so this is generally not a matroid.  The default
    exchange parameter is (max labels per element) + 1; pass ``k_param``
    to override it when a sharper value is known for the instance.  The
    limits must be whole numbers of at least 1 (a float such as ``3.0`` is
    taken as 3); a NaN, infinite, fractional or smaller one raises
    ``ValueError`` naming it, and so does a ``per_label_limit`` mapping
    that lacks a label in use; :class:`IndependenceSystem` rejects no labels.
    """
    kind = "labeled_limit"
    labs = [frozenset(_spec_iter(kind, "labels", l, f" at index {i}"))
            for i, l in enumerate(_spec_iter(kind, "labels", labels))]
    total_limit = _spec_count(kind, "total_limit", total_limit)
    all_labels = frozenset().union(*labs)
    if isinstance(per_label_limit, Mapping):
        checked = {lab: _spec_count(kind, "per_label_limit", v,
                                    f" for label {lab!r}")
                   for lab, v in per_label_limit.items()}
        missing = all_labels - checked.keys()
        if missing:
            raise ValueError(f"{kind} spec field 'per_label_limit' has no "
                             f"limit for label {min(map(repr, missing))}")
        limits = {lab: checked[lab] for lab in all_labels}
    else:
        limits = dict.fromkeys(all_labels, _spec_count(
            kind, "per_label_limit", per_label_limit))
    if k_param is None:
        k_param = (max((len(l) for l in labs), default=0)) + 1

    def pred(s):
        counts = Counter(lab for u in s for lab in labs[u])
        return (len(s) <= total_limit
                and all(counts[lab] <= limits[lab] for lab in counts))

    return IndependenceSystem(pred, len(labs), k_param=k_param,
                              class_tag="k_extendible", kind=kind)


def node_independent_set_system(n: int, edges: Iterable[Sequence[int]]) -> IndependenceSystem:
    """Vertex subsets spanning no edge of the supplied undirected graph.

    The predicate and the states (:class:`_NodeState`) read one bitmask
    per vertex, holding its neighbours and itself, and nothing else.
    ``n`` and the endpoints must be whole numbers (a float such as
    ``3.0`` is taken as 3); a NaN, infinite or fractional one raises
    ``ValueError`` naming the field or the edge.
    """
    n = _spec_int("node_independent_set", "n", n)
    adj: list[set[int]] = [set() for _ in range(n)]
    for e in _spec_iter("node_independent_set", "edges", edges):
        u, v = _endpoints("node_independent_set", e, n)
        adj[u].add(v)
        adj[v].add(u)
    d_max = max((len(a) for a in adj), default=0)
    bits = [1 << v for v in range(n)]
    # distinct bits, so their sum is their union
    masks = [sum(map(bits.__getitem__, a)) | bits[u] for u, a in enumerate(adj)]

    def pred(s):
        union = 0
        for u in s:
            union |= 1 << int(u)  # 1 << np.int64(100) is np.int64(0)
        for u in s:  # each mask meets the members only at its own bit
            if masks[u] & union != 1 << int(u):
                return False
        return True

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
    path of their block-cut tree, plus ab.  Each state keeps its own
    block-cut forest and updates it as members arrive (blocks kept on
    line, as in Westbrook and Tarjan, Algorithmica 7, 1992), so
    ``can_add`` reads the a-b path off the forest
    (:meth:`_PlanarityState.merged_block`) and tests that merged block
    alone, and only when the test can fail: never on at most 8 edges, so
    never for a bridge or a pendant edge, and not when the block already
    breaks Euler's bound e <= 3v - 6.

    The left-right answers are kept in one exact memo that every state of
    the system shares, keyed by the edge and the merged block's edge set:
    member sets that differ only outside that block share one test, also
    when the same edge arrives again later (cascade copies, later window
    copies, repeated greedy rounds).  ``fresh()`` returns the same system
    with the memo empty, and ``bench.run_algorithm`` starts every run
    with it, so no answer carries over from one run to the next.

    ``n_vertices`` and the endpoints must be whole numbers (a float such
    as ``3.0`` is taken as 3); a NaN, infinite or fractional one raises
    ``ValueError`` naming the field or the edge; a parallel edge is
    rejected here, once, so the left-right tests skip the edge check, and
    :class:`IndependenceSystem` rejects an empty edge list.
    """
    n_vertices = _spec_int("planarity", "n_vertices", n_vertices)
    edges = [_endpoints("planarity", e, n_vertices)
             for e in _spec_iter("planarity", "edges", edge_list)]
    _check(edges)  # rejects a parallel edge
    return _planarity(edges)


def _planarity(edges: list[tuple[int, int]]) -> IndependenceSystem:
    """The planarity system over checked edges, with an empty memo."""

    def pred(s):
        return len(s) <= 8 or _is_planar([edges[i] for i in s])

    tested: dict = {}

    def block_test(u, block, n_block):
        m = len(block) + 1
        if m <= 8:
            return True
        if m > 3 * n_block - 6:
            return False
        key = (u, frozenset(block))
        answer = tested.get(key)
        if answer is None:
            tested[key] = answer = _is_planar(
                [edges[i] for i in block] + [edges[u]])
        return answer

    system = IndependenceSystem(pred, len(edges), k_param=3,
                                class_tag="k_system", kind="planarity",
                                open_fn=lambda system: _PlanarityState(
                                    system, block_test, edges))
    system._fresh = lambda: _planarity(edges)
    return system


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


# type -> (builder, required fields, optional fields), in argument order
_SPECS = {
    "cardinality": (cardinality_system, ("n", "rho"), ()),
    "knapsack": (knapsack_system, ("costs", "budget"), ()),
    "labeled_limit": (labeled_limit_system,
                      ("labels", "per_label_limit", "total_limit"),
                      ("k_param",)),
    "node_independent_set": (node_independent_set_system, ("n", "edges"), ()),
    "planarity": (planarity_system, ("n_vertices", "edges"), ()),
}


def make_system(spec: Mapping) -> IndependenceSystem:
    """Build a system from a JSON-style config mapping.

    Recognized ``type`` values (:data:`_SPECS`): ``cardinality`` (n,
    rho), ``knapsack`` (costs, budget), ``labeled_limit`` (labels,
    per_label_limit, total_limit, optional k_param),
    ``node_independent_set`` (n, edges), ``planarity`` (n_vertices,
    edges).  ``{"intersect": [specA, specB]}`` combines two specs.  A
    missing field, an integer field (n, rho, per_label_limit,
    total_limit, k_param, n_vertices) holding a NaN, infinite or
    fractional number, a knapsack budget or cost that is no finite
    number (a string, say), or a collection field (costs, labels and
    each label entry, edges) holding something that is not iterable,
    raises ``ValueError`` naming it.
    """
    if "intersect" in spec:
        parts = spec["intersect"]
        if len(parts) != 2:
            raise ValueError("intersect expects exactly two specs")
        return intersect(make_system(parts[0]), make_system(parts[1]))
    kind = spec.get("type")
    if kind not in _SPECS:
        raise UnsupportedConstraintError(f"unknown constraint spec {spec!r}")
    build, required, optional = _SPECS[kind]
    for name in required:
        if spec.get(name) is None:
            raise ValueError(f"{kind} spec is missing field {name!r}")
    return build(*(spec[name] for name in required),
                 *(spec.get(name) for name in optional))


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
