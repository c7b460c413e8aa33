"""Concrete non-negative submodular objectives used by the experiments and
the adversarial instances.

Every constructor returns a counted :class:`~substream.core.Objective`
over integer ids ``0..n-1``.  Oracles are immutable after construction and
safe for concurrent reads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import sub
from typing import Mapping

import numpy as np

from .constraints import _spec_int
from .core import (AccumulatingGainState, NumericError, Objective,
                   SizeLimitError, TabulatedGainState)
from .prng import SplitMix64

# Largest subset a log-determinant oracle will factorize.
LOGDET_MAX_SUBSET = 512


def _as_edge(e) -> tuple[int, int, float]:
    u, v, w = e
    return int(u), int(v), float(w)


@dataclass(frozen=True)
class CutGraph:
    """Weighted directed graph; vertices are ``0..n_vertices-1``."""

    n_vertices: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n_vertices <= 0:
            raise ValueError("graph needs at least one vertex")
        # an edge that is already an exact (int, int, float) tuple is kept
        # as it is; anything else (bool, numpy scalars, lists) is converted
        object.__setattr__(self, "edges", tuple(
            e if type(e) is tuple and len(e) == 3 and type(e[0]) is int
            and type(e[1]) is int and type(e[2]) is float else _as_edge(e)
            for e in self.edges))
        for u, v, w in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge ({u}, {v}) outside vertex range")
            if not 0.0 <= w < math.inf:  # also false for NaN
                raise ValueError(f"edge ({u}, {v}) has weight {w}; "
                                 "weights must be finite and non-negative")


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
        for name in ("r_cap", "seed"):
            object.__setattr__(self, name, _spec_int(
                "reservoir", name, getattr(self, name)))
        if self.r_cap <= 0:
            raise ValueError("r_cap must be positive")


def _as_weight_list(weights) -> list[float]:
    if isinstance(weights, Mapping):
        n = len(weights)
        if set(weights) != set(range(n)):
            raise ValueError("weight map keys must be exactly 0..n-1")
        return [float(weights[i]) for i in range(n)]
    return [float(w) for w in weights]


def make_modular(weights) -> Objective:
    """Additive objective: the value of a set is the sum of its weights."""
    w = _as_weight_list(weights)
    for x in w:
        if x < 0:
            raise ValueError(f"negative weight {x}")

    def fn(ids):
        return sum(w[u] for u in ids)

    def marginal_fn(u, members):
        return w[u]

    # a gain never changes as the set grows, so every state reads w itself
    return Objective(fn, len(w), marginal_fn=marginal_fn,
                     open_fn=lambda f: TabulatedGainState(f, w))


class CutGainState(TabulatedGainState):
    """Gain state of a directed cut: ``gains[v]`` is v's out-weight minus
    the weight of its edges to and from members.

    Starts from a copy of ``out_total``.  Adding x takes x's out-edge
    weights and then its in-edge weights off each neighbour's entry, in
    adjacency order; removing x adds them back in the same order: O(deg x)
    per add or remove and O(1) per gain.  For a member x, ``gains[x]`` is
    ``f(S) - f(S - x)``, so a swap trial ``f(S - x + u)`` is
    ``f(S) - gains[x] + gains[u]`` plus the weight between u and x, which
    ``gains[u]`` took off: O(1) per trial, counted as one query.  The
    table is updated in insertion order, so a gain or trial may differ
    from the one-off ``marginal_fn`` or ``fn`` in the last bits.
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
        for v, w in self.out_adj[u].items():
            gains[v] -= w
        for v, w in self.in_adj[u].items():
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
    """Weight of edges leaving the chosen set; non-monotone in general."""
    out_adj: list[dict[int, float]] = [{} for _ in range(g.n_vertices)]
    in_adj: list[dict[int, float]] = [{} for _ in range(g.n_vertices)]
    for u, v, w in g.edges:
        # parallel arcs sum in edge order; a first arc stores 0.0 + w, as a
        # sum from 0.0 would, so a weight of -0.0 reads 0.0
        if v in out_adj[u]:
            out_adj[u][v] += w
            in_adj[v][u] += w
        else:
            out_adj[u][v] = in_adj[v][u] = 0.0 + w
    out_total = [sum(adj.values()) for adj in out_adj]

    def fn(ids):
        members = set(ids)
        total = 0.0
        for u in ids:
            total += out_total[u]
            for v, w in out_adj[u].items():
                if v in members:
                    total -= w
        return total

    def marginal_fn(u, members):
        # subtracts the weights of u's edges into members, out-edges then
        # in-edges, each in adjacency order: the same float operations in
        # the same order as the plain loop, run by C-level iterators
        contains = members.__contains__
        out_u = out_adj[u]
        in_u = in_adj[u]
        gain = reduce(sub, compress(out_u.values(), map(contains, out_u)),
                      out_total[u])
        return reduce(sub, compress(in_u.values(), map(contains, in_u)), gain)

    return Objective(fn, g.n_vertices, marginal_fn=marginal_fn,
                     open_fn=lambda f: CutGainState(f, out_total, out_adj,
                                                    in_adj))


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
    O(n) column sum.  ``marginal_fn`` sums the same entries in its own
    order, so a gain may differ from it in the last bits (the agreement
    tests allow 1e-12 relative).
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

    Its gain state (:class:`DispersionGainState`) keeps each element's
    similarity to the set in an n-vector: a gain is O(1) and counts one
    query, an add is O(n), and gains agree with ``f(S + u) - f(S)`` within
    1e-12 relative.
    """
    m = validate_similarity(m)
    row_sums = m.sum(axis=1)
    row_sum_list = row_sums.tolist()
    diagonal = m.diagonal().tolist()

    def fn(ids):
        if not ids:
            return 0.0
        idx = list(ids)
        return float(row_sums[idx].sum() - m[np.ix_(idx, idx)].sum())

    def marginal_fn(u, members):
        idx = list(members)
        inner = float(m[u].take(idx).sum()) if idx else 0.0
        return float(row_sums[u]) - 2.0 * inner - float(m[u, u])

    return Objective(fn, m.shape[0], marginal_fn=marginal_fn,
                     open_fn=lambda f: DispersionGainState(f, m, row_sum_list,
                                                           diagonal))


class FacilityGainState(AccumulatingGainState):
    """Facility-location gain state: ``best`` is each (sampled) row's best
    similarity to the members and ``value`` is f(S).

    A gain is the sum of ``max(best, cols[v])`` over the rows, divided and
    less ``value``; an add folds ``cols[v]`` into ``best``.  Both are O(rows).
    The max is exact and the sum runs over a contiguous vector of the same
    length as the oracle's, so every gain is the float the slow path gives,
    with or without row sampling.
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
    row: a gain is O(rows), counts one query and is bit-identical to the
    slow path's.
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

    return Objective(fn, n, open_fn=lambda f: FacilityGainState(f, cols, divisor))


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
        return sum(math.sqrt(t) for t in totals.values())

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
            ident = int(row[0])
            if ident in rows:
                raise ValueError(f"line {lineno}: duplicate id {ident}")
            feats = [float(x) for x in row[1:]]
            for x in feats:
                if not math.isfinite(x):
                    raise ValueError(f"line {lineno}: non-finite feature {x}")
            rows[ident] = feats
    if set(rows) != set(range(len(rows))):
        raise ValueError("feature ids must be exactly 0..n-1")
    return np.array([rows[i] for i in range(len(rows))], dtype=float)


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
            ident = int(row[0])
            if ident in rows:
                raise ValueError(f"line {lineno}: duplicate id {ident}")
            value = float(row[1])
            if not 0.0 <= value < math.inf:
                raise ValueError(f"line {lineno}: keyword value {value} is "
                                 "not finite and non-negative")
            words = frozenset(w for w in (row[2].split(";") if len(row) > 2 else ()) if w)
            rows[ident] = (value, words)
    if set(rows) != set(range(len(rows))):
        raise ValueError("keyword ids must be exactly 0..n-1")
    return KeywordTable(words=tuple(rows[i][1] for i in range(len(rows))),
                        values=tuple(rows[i][0] for i in range(len(rows))))
