"""Concrete non-negative submodular objectives used by the experiments and
the adversarial instances.

Every constructor returns a counted :class:`~substream.core.Objective`
over integer ids ``0..n-1``.  An oracle's set function never changes
after construction; its query counter and singleton table are not
synchronized, so use one oracle per run when running concurrently.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (AccumulatingGainState, NumericError, Objective,
                   SizeLimitError, TabulatedGainState, _dense, _endpoints,
                   _running_sum, _spec_count, _spec_int)
from .prng import SplitMix64

# Largest subset a log-determinant oracle will factorize.
LOGDET_MAX_SUBSET = 512


def _check_edge(n: int, e) -> tuple[int, int, float]:
    """The edge ``e = (u, v, w)`` of an n-vertex graph as ``(u, v, float(w))``
    (:func:`_endpoints` checks u and v); an edge that is not a sequence
    of three fields, or a weight that is not a finite non-negative
    number, raises ``ValueError`` naming the edge."""
    try:
        _, _, w = e
    except (TypeError, ValueError):
        raise ValueError(f"edge {e!r} is not a sequence of three fields "
                         "(u, v, w)") from None
    u, v = _endpoints("graph", e, n)
    try:
        w = float(w)
    except (OverflowError, TypeError, ValueError):
        pass  # named below, as it was given
    if type(w) is not float or not 0.0 <= w < math.inf:  # also for NaN
        raise ValueError(f"edge ({u}, {v}) has weight {w!r}; "
                         "weights must be finite and non-negative")
    return u, v, w


def _owned(values, dtype, kinds: str, what: str) -> np.ndarray:
    """A read-only one-dimensional copy of ``values`` as ``dtype``."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional")
    if arr.size and arr.dtype.kind not in kinds:
        raise TypeError(f"{what} must be numeric, got dtype {arr.dtype}")
    arr = np.array(arr, dtype=dtype)
    arr.flags.writeable = False
    return arr


class CutGraph:
    """Weighted directed graph on vertices ``0..n_vertices-1``.

    Edge i runs from ``src[i]`` to ``dst[i]`` with weight ``weight[i]``:
    three parallel arrays (int64, int64, float64) that the graph owns and
    that are read-only, so the graph never changes after construction.
    ``CutGraph(n, edges)`` converts a sequence of ``(u, v, w)`` triples
    as ``int(u), int(v), float(w)``; :meth:`from_arrays` copies three
    arrays.  ``n_vertices`` and the endpoints must be whole numbers (a
    float such as ``3.0`` is taken as 3), ``n_vertices`` positive.  The
    edges are checked in order: the first edge that has a fractional
    endpoint, is a self-loop, leaves the vertex range or has a weight
    that is not a finite non-negative number raises ``ValueError`` naming
    it.  A weight of ``-0.0`` is kept as it is.  ``edges`` lists the
    edges as ``(int, int, float)`` tuples, built anew on each read.
    """

    __slots__ = ("n_vertices", "src", "dst", "weight")

    def __init__(self, n_vertices: int, edges=()):
        n = _spec_count("graph", "n_vertices", n_vertices)
        triples = [_check_edge(n, e) for e in edges]
        self._init(n, [u for u, _, _ in triples], [v for _, v, _ in triples],
                   [w for _, _, w in triples])

    @classmethod
    def from_arrays(cls, n_vertices: int, src, dst, weight) -> CutGraph:
        """The graph whose edge i is ``(src[i], dst[i], weight[i])``; the
        arrays are copied, so the caller may change them afterwards."""
        n = _spec_count("graph", "n_vertices", n_vertices)
        g = cls.__new__(cls)
        g._init(n, src, dst, weight)
        bad = g.src == g.dst
        # as uint64 a negative id reads as a huge one
        bad |= np.maximum(g.src.view(np.uint64), g.dst.view(np.uint64)) >= n
        bad |= ~(g.weight >= 0.0) | (g.weight == math.inf)  # negative, NaN, inf
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            _check_edge(n, (int(g.src[i]), int(g.dst[i]), float(g.weight[i])))
        return g

    def _init(self, n: int, src, dst, weight) -> None:
        src = _owned(src, np.int64, "biu", "src")
        dst = _owned(dst, np.int64, "biu", "dst")
        weight = _owned(weight, np.float64, "biuf", "weight")
        if not len(src) == len(dst) == len(weight):
            raise ValueError("src, dst and weight must have one entry per edge")
        for name, value in (("n_vertices", n), ("src", src), ("dst", dst),
                            ("weight", weight)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"CutGraph is read-only; cannot set {name!r}")

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(zip(self.src.tolist(), self.dst.tolist(),
                         self.weight.tolist()))


@dataclass(frozen=True)
class KeywordTable:
    """Per-element keyword sets and finite non-negative values."""

    words: tuple[frozenset[str], ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.words) != len(self.values):
            raise ValueError("words and values must align")
        object.__setattr__(self, "words", tuple(frozenset(w) for w in self.words))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        for v in self.values:
            if not 0.0 <= v < math.inf:  # also false for NaN
                raise ValueError(f"keyword value {v} is not finite and "
                                 "non-negative")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ReservoirConfig:
    """Row-sampling setup for estimated facility-location evaluation; both
    fields are whole numbers (a float such as ``3.0`` is taken as 3)."""

    r_cap: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "r_cap",
                           _spec_count("reservoir", "r_cap", self.r_cap))
        object.__setattr__(self, "seed",
                           _spec_int("reservoir", "seed", self.seed))


def make_modular(weights) -> Objective:
    """Additive objective: the value of a set is the sum of its weights."""
    if isinstance(weights, Mapping):
        weights = _dense("weight map keys", weights)
    w = [float(x) for x in weights]
    for x in w:
        if x < 0:
            raise ValueError(f"negative weight {x}")

    def fn(ids):
        return _running_sum(map(w.__getitem__, ids))

    # gains and losses never change, so every state reads w itself; a
    # singleton is 0.0 + w[u], as fn's sum from 0.0 gives, so -0.0 reads 0.0
    return Objective(fn, len(w), open_fn=lambda f: TabulatedGainState(f, w),
                     table_fn=lambda: [0.0 + x for x in w])


class CutGainState(TabulatedGainState):
    """Gain state of a directed cut: ``gains[v]`` is v's out-weight minus
    the weight of its edges to and from members.

    Starts from a copy of ``out_total``.  Adding x takes x's out-edge
    weights and then its in-edge weights off each neighbour's entry, in
    adjacency order; removing x walks its out-edges and then its in-edges
    and adds them back in the same order: O(deg x) per add or remove and
    O(1) per gain.  When x's two dicts are one shared dict
    (:func:`make_directed_cut`), ``add`` walks it once and takes ``w``
    off twice, ``gains[v] - w - w``: each entry gets the same two
    operations in the same order as in two walks, and no entry reads
    another, so every gain keeps its bits.  For a member x, ``gains[x]`` is
    ``f(S) - f(S - x)``, x's loss, so a swap trial ``f(S - x + u)`` is
    ``f(S) - gains[x] + gains[u]`` plus the weight between u and x, which
    ``gains[u]`` took off: O(1) per trial, counted as one query.  The
    table is updated in insertion order, so a gain, loss or trial may
    differ from a difference of ``fn`` values in the last bits.
    """

    __slots__ = ("out_adj", "in_adj")

    def __init__(self, f: Objective, out_total: list[float],
                 out_adj: list[dict[int, float]],
                 in_adj: list[dict[int, float]]):
        super().__init__(f, list(out_total))
        self.out_adj = out_adj
        self.in_adj = in_adj

    def add(self, u: int) -> None:
        super().add(u)
        gains = self.gains
        out_u = self.out_adj[u]
        in_u = self.in_adj[u]
        if out_u is in_u:
            for v, w in out_u.items():
                gains[v] = gains[v] - w - w
            return
        for v, w in out_u.items():
            gains[v] -= w
        for v, w in in_u.items():
            gains[v] -= w

    def remove(self, x: int) -> None:
        super().remove(x)
        gains = self.gains
        for v, w in self.out_adj[x].items():
            gains[v] += w
        for v, w in self.in_adj[x].items():
            gains[v] += w

    def swap_values(self, u: int, current: float) -> list[float]:
        self._check_outside(u)
        gains, members = self.gains, self.members
        self.f.evaluations += len(members)
        gain_u = gains[u]
        out_u = self.out_adj[u]
        in_u = self.in_adj[u]
        return [current - gains[x] + gain_u + out_u.get(x, 0.0)
                + in_u.get(x, 0.0) for x in members]


def make_directed_cut(g: CutGraph) -> Objective:
    """Weight of edges leaving the chosen set; non-monotone in general.

    The oracle keeps one dict per vertex of its out-edges and one of its
    in-edges, keyed by neighbour, filled in edge order.  Every vertex is
    one int object in all of them (read from the graph's arrays through
    one list of ids), so a membership test that finds it compares
    identities.  A vertex whose two dicts are equal, as every vertex of a
    graph that stores each edge both ways with one weight, keeps one dict
    under both names, and :meth:`CutGainState.add` walks it once.  Equal
    dicts may differ in order, but a walk touches each neighbour's entry
    once per dict and no entry reads another, so the order does not reach
    a gain.
    """
    n = g.n_vertices
    out_adj: list[dict[int, float]] = [{} for _ in range(n)]
    in_adj: list[dict[int, float]] = [{} for _ in range(n)]
    vid = list(range(n)).__getitem__
    for u, v, w in zip(map(vid, memoryview(g.src)), map(vid, memoryview(g.dst)),
                       memoryview(g.weight)):
        # parallel arcs sum in edge order; a first arc stores 0.0 + w, as a
        # sum from 0.0 would, so a weight of -0.0 reads 0.0
        if v in out_adj[u]:
            out_adj[u][v] += w
            in_adj[v][u] += w
        else:
            out_adj[u][v] = in_adj[v][u] = 0.0 + w
    in_adj = [out if out == inn else inn for out, inn in zip(out_adj, in_adj)]
    out_total = [_running_sum(adj.values()) for adj in out_adj]

    def fn(ids):
        members = set(ids)
        total = 0.0
        for u in ids:
            total += out_total[u]
            for v, w in out_adj[u].items():
                if v in members:
                    total -= w
        return total

    # with no self-loops fn((u,)) is 0.0 + out_total[u], and a sum from
    # 0.0 is never -0.0, so out_total is the singleton table as it is
    return Objective(fn, g.n_vertices,
                     open_fn=lambda f: CutGainState(f, out_total, out_adj,
                                                    in_adj),
                     table_fn=lambda: out_total)


def validate_similarity(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("similarity matrix must be square")
    if m.size == 0:
        raise ValueError("similarity matrix is empty")
    finite = np.isfinite(m)
    if not finite.all():
        r, c = np.argwhere(~finite)[0].tolist()
        raise ValueError(f"similarity entry ({r}, {c}) is not finite: {m[r, c]}")
    if np.any(m < 0):
        raise ValueError("similarity entries must be non-negative")
    if np.max(np.abs(m - m.T)) > 1e-12:
        raise ValueError("similarity matrix must be symmetric within 1e-12")
    return m


class DispersionGainState(AccumulatingGainState):
    """Coverage-minus-dispersion gain state: ``inner[v]`` is the similarity
    of v to the members, ``m[v, x]`` summed in member order.

    A gain is ``row_sums[v] - 2 * inner[v] - m[v, v]``, O(1); an add is one
    O(n) column sum.  ``fn`` sums the same entries in its own order, so a
    gain may differ from a difference of ``fn`` values in the last bits
    (the agreement tests allow 1e-12 relative).
    """

    __slots__ = ("m", "row_sums", "diagonal", "inner")

    def __init__(self, f: Objective, m: np.ndarray, row_sums: list[float],
                 diagonal: list[float]):
        self.m = m
        self.row_sums = row_sums
        self.diagonal = diagonal
        super().__init__(f)

    def _clear(self) -> None:
        self.inner = np.zeros(self.m.shape[0])

    def _absorb(self, u: int) -> None:
        self.inner += self.m[:, u]

    def _gain(self, u: int) -> float:
        return self.row_sums[u] - 2.0 * float(self.inner[u]) - self.diagonal[u]


def make_coverage_minus_dispersion(m: np.ndarray) -> Objective:
    """Total similarity covered by the set minus similarity inside it.

    ``fn`` gathers the chosen rows, then their chosen columns, and sums
    the block.  Its gain state (:class:`DispersionGainState`) keeps each
    element's similarity to the set in an n-vector: a gain is O(1) and
    counts one query, an add is O(n), and gains agree with
    ``f(S + u) - f(S)`` within 1e-12 relative.
    """
    m = validate_similarity(m)
    row_sums = m.sum(axis=1)
    row_sum_list = row_sums.tolist()
    diagonal = m.diagonal().tolist()

    def fn(ids):
        if not ids:
            return 0.0
        idx = list(ids)
        return float(row_sums[idx].sum() - m.take(idx, 0).take(idx, 1).sum())

    # fn((u,)) is row_sums[u] - m[u, u], one float64 subtraction
    return Objective(fn, m.shape[0],
                     open_fn=lambda f: DispersionGainState(f, m, row_sum_list,
                                                           diagonal),
                     table_fn=lambda: (row_sums - m.diagonal()).tolist())


class FacilityGainState(AccumulatingGainState):
    """Facility-location gain state: ``best`` is each (sampled) row's best
    similarity to the members and ``value`` is f(S).

    A gain is the sum of ``max(best, cols[v])`` over the rows, divided and
    less ``value``; an add folds ``cols[v]`` into ``best``.  Both are O(rows).
    The max is exact and the sum runs over a contiguous vector of the same
    length as the oracle's, so every gain is the float ``f(S + u) - f(S)``
    gives, with or without row sampling.  A batch (:meth:`Objective.gains`)
    stacks the states' ``best`` rows and takes one max and one row-wise
    sum, float for float the same gains; when ``u`` is out of range or in
    a state, or a gain is not finite, it asks the states one by one.
    """

    __slots__ = ("cols", "divisor", "best", "value", "_scratch")

    def __init__(self, f: Objective, cols: np.ndarray, divisor: int):
        self.cols = cols
        self.divisor = divisor
        self._scratch = np.empty(cols.shape[1])
        super().__init__(f)

    def _clear(self) -> None:
        # max(-inf, x) is x, so the first member's row is taken as it is
        self.best = np.full(self.cols.shape[1], -math.inf)
        self.value = 0.0

    def _absorb(self, u: int) -> None:
        np.maximum(self.best, self.cols[u], out=self.best)
        self.value = float(self.best.sum()) / self.divisor

    def _gain(self, u: int) -> float:
        covered = np.maximum(self.best, self.cols[u], out=self._scratch)
        return float(covered.sum()) / self.divisor - self.value

    @classmethod
    def gains_of(cls, u: int, states: list[FacilityGainState]) -> list[float]:
        first = states[0]
        f = first.f
        if not 0 <= u < f.n or any([u in s.members for s in states]):
            return super().gains_of(u, states)
        # one (states x rows) max; each row sums as the single-state
        # vector does, contiguous and pairwise, so every gain is the same
        covered = np.concatenate([s.best for s in states]).reshape(
            len(states), -1)
        np.maximum(covered, first.cols[u], out=covered)
        divisor = first.divisor
        out = [total / divisor - s.value
               for total, s in zip(covered.sum(axis=1).tolist(), states)]
        if not math.isfinite(sum(out)):
            return super().gains_of(u, states)
        f.evaluations += len(out)
        return out


def make_facility_location(m: np.ndarray,
                           estimator: ReservoirConfig | None = None) -> Objective:
    """Mean best-similarity coverage; the empty set covers nothing.

    With ``estimator`` given, the outer mean runs over a uniform sample of
    ``r_cap`` rows (drawn once, ascending order) rescaled by ``1/r_cap``;
    ``r_cap == n`` reproduces the exact value bit for bit.

    The oracle keeps the sampled rows transposed into its own C-contiguous
    buffer (n x r_cap floats, n x n without an estimator), so a subset's
    best similarities are a max over contiguous rows.  Its gain state
    (:class:`FacilityGainState`) keeps the running best similarity of each
    row: a gain is O(rows), counts one query and is bit-identical to
    ``f(S + u) - f(S)``.
    """
    m = validate_similarity(m)
    n = m.shape[0]
    if estimator is None:
        rows = m
        divisor = n
    else:
        idx = SplitMix64(estimator.seed).sample_indices(n, estimator.r_cap)
        rows = m[idx, :]
        divisor = len(idx)
    cols = np.ascontiguousarray(rows.T)

    def fn(ids):
        if not ids:
            return 0.0
        return float(cols.take(ids, 0).max(axis=0).sum()) / divisor

    # each row of cols sums as fn's one-row max does, contiguous and
    # pairwise, so row u's sum over the divisor is fn((u,))
    return Objective(fn, n, open_fn=lambda f: FacilityGainState(f, cols, divisor),
                     table_fn=lambda: (cols.sum(axis=1) / divisor).tolist())


class LogdetGainState(AccumulatingGainState):
    """Log-determinant gain state: an incremental Cholesky factorization of
    ``I + alpha * m`` in member order over every element at once, as in
    fast greedy MAP inference for DPPs (Chen, Zhang & Zhou, NeurIPS 2018).

    ``factor[j]`` is the j-th member's row of the factor over all n
    elements and ``resid[v]`` is v's residual: the square of the diagonal
    entry v would add, so v's gain is ``log(resid[v])``, O(1).  An add is
    O(n * |S|); ``factor`` grows by one row per member, not to
    ``LOGDET_MAX_SUBSET`` up front.  Once the set holds that many members
    a gain or an add raises ``SizeLimitError``, and a residual that is not
    positive (the factorization of ``S + v`` failed) raises
    ``NumericError``, as the oracle does.  The factorization runs in member
    order, not sorted order, so a gain may differ from ``f(S + v) - f(S)``
    in the last bits (the agreement tests allow 1e-12 relative).
    """

    __slots__ = ("shifted", "factor", "resid")

    def __init__(self, f: Objective, shifted: np.ndarray):
        self.shifted = shifted
        super().__init__(f)

    def _clear(self) -> None:
        self.factor = np.empty((0, self.shifted.shape[0]))
        self.resid = self.shifted.diagonal().copy()

    def _residual(self, u: int) -> float:
        if len(self.factor) >= LOGDET_MAX_SUBSET:
            raise SizeLimitError(f"subset larger than {LOGDET_MAX_SUBSET}")
        d = float(self.resid[u])
        if not d > 0.0:  # also false for NaN
            raise NumericError(f"factorization failed adding {u}: "
                               f"residual {d} is not positive")
        return d

    def _absorb(self, u: int) -> None:
        d = self._residual(u)
        rows = self.factor
        e = (self.shifted[u] - rows[:, u] @ rows) / math.sqrt(d)
        self.factor = np.vstack((rows, e))
        self.resid -= e * e

    def _gain(self, u: int) -> float:
        return math.log(self._residual(u))


def make_logdet(m: np.ndarray, alpha: float) -> Objective:
    """Log-determinant diversity of the chosen principal submatrix.

    The value of ``S`` is ``log det(I + alpha * m[S, S])``.  The oracle
    keeps ``I + alpha * m`` in its own n x n buffer and factorizes the
    principal submatrix taken from it; every entry is the float the
    per-subset sum would give, since adding an off-diagonal ``0.0`` is
    exact.  Its gain state (:class:`LogdetGainState`) factorizes the set
    incrementally: a gain is O(1) and counts one query, an add is
    O(n * |S|), and gains agree with ``f(S + u) - f(S)`` within 1e-12
    relative.
    """
    m = validate_similarity(m)
    if not 0 < alpha < math.inf:  # also false for NaN
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    shifted = np.eye(m.shape[0]) + alpha * m

    def fn(ids):
        if not ids:
            return 0.0
        if len(ids) > LOGDET_MAX_SUBSET:
            raise SizeLimitError(f"subset larger than {LOGDET_MAX_SUBSET}")
        a = shifted.take(ids, 0).take(ids, 1)
        try:
            chol = np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"factorization failed for subset {list(ids)}") from exc
        return float(2.0 * np.log(chol.diagonal()).sum())

    return Objective(fn, m.shape[0], open_fn=lambda f: LogdetGainState(f, shifted))


def make_sqrt_coverage(kw: KeywordTable) -> Objective:
    """Square-root keyword coverage: sum over words of the root of the
    total value contributed by set members carrying that word; words are
    visited sorted, since set order follows string hashing."""
    words = [sorted(ws) for ws in kw.words]

    def fn(ids):
        totals: dict[str, float] = {}
        for u in ids:
            val = kw.values[u]
            if val <= 0.0:
                continue
            for w in words[u]:
                totals[w] = totals.get(w, 0.0) + val
        return _running_sum(map(math.sqrt, totals.values()))

    return Objective(fn, len(kw))


def similarity_from_features(features, lam: float) -> np.ndarray:
    """Gaussian-style similarity ``exp(-lam * euclidean distance)``."""
    if not 0 <= lam < math.inf:  # also false for NaN
        raise ValueError(f"lambda must be non-negative and finite, got {lam!r}")
    feats = np.asarray(features, dtype=float)
    if feats.ndim == 1:
        feats = feats.reshape(-1, 1)
    if feats.ndim != 2:
        raise ValueError("features must be a 2-d array of row vectors")
    diff = feats[:, None, :] - feats[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    m = np.exp(-lam * dist)
    np.fill_diagonal(m, 1.0)
    # Symmetrize away any rounding asymmetry from the distance computation.
    return (m + m.T) / 2.0


def load_features(path) -> np.ndarray:
    """Feature CSV with header ``id,f1,...,fd`` and one element per row."""
    rows: dict[int, list[float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0].strip() != "id":
            raise ValueError("feature CSV must start with an 'id' header column")
        width = len(header) - 1
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) - 1 != width:
                raise ValueError(f"line {lineno}: expected {width} features")
            try:
                ident, feats = int(row[0]), [float(x) for x in row[1:]]
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if ident in rows:
                raise ValueError(f"line {lineno}: duplicate id {ident}")
            for x in feats:
                if not math.isfinite(x):
                    raise ValueError(f"line {lineno}: non-finite feature {x}")
            rows[ident] = feats
    return np.array(_dense("feature ids", rows), dtype=float)


def load_keyword_table(path) -> KeywordTable:
    """Keyword CSV with rows ``id,value,word1;word2;...``."""
    rows: dict[int, tuple[float, frozenset[str]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or row[0].startswith("#"):
                continue
            if len(row) < 2:
                raise ValueError(f"line {lineno}: expected id,value,words")
            try:
                ident, value = int(row[0]), float(row[1])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if ident in rows:
                raise ValueError(f"line {lineno}: duplicate id {ident}")
            if not 0.0 <= value < math.inf:
                raise ValueError(f"line {lineno}: keyword value {value} is "
                                 "not finite and non-negative")
            words = frozenset(w for w in (row[2].split(";") if len(row) > 2 else ()) if w)
            rows[ident] = (value, words)
    table = _dense("keyword ids", rows)
    return KeywordTable(words=tuple(words for _, words in table),
                        values=tuple(value for value, _ in table))
