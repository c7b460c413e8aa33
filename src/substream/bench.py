"""Benchmark harness: seeded graph generators, instance loaders, an
algorithm matrix runner and CSV emission.

Determinism: every cell derives four sub-seeds (graph, weights, costs,
stream shuffle) from its 64-bit seed through one splitmix64 generator, so
identical configs reproduce identical instances and, with timing disabled,
byte-identical CSV output.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import (ElementSet, Objective, _running_sum, _spec_float, _spec_int,
                   first_best)
from .prng import SplitMix64
from .objectives import (CutGraph, load_features, load_keyword_table,
                         make_coverage_minus_dispersion, make_directed_cut,
                         make_facility_location, make_logdet, make_modular,
                         make_sqrt_coverage, similarity_from_features,
                         ReservoirConfig)
from .constraints import IndependenceSystem, make_system
from .offline import repeated_greedy, unweighted_greedy, weighted_greedy
from .streaming import (AdaptiveSieve, AutoThresholdSieve, ThresholdSieve,
                        cascade_run, _drive, _guess_exponent, _singleton)
from .baselines import GreedyStream, SieveGuessStream

RESULT_HEADER = "algorithm,sweep,seed,value,oracle_calls,peak_elements,ms"


@dataclass(frozen=True)
class ResultRow:
    algorithm: str
    sweep: float
    seed: int
    value: float
    oracle_calls: int
    peak_elements: int
    ms: int

    def as_csv(self) -> str:
        return (f"{self.algorithm},{self.sweep!r},{self.seed},{self.value!r},"
                f"{self.oracle_calls},{self.peak_elements},{self.ms}")


# ---------------------------------------------------------------------------
# graph generation and IO


# Uniforms drawn at a time by gen_erdos_renyi.
_ER_BLOCK = 1 << 14


def _weight_of(r: float, mode: str) -> float:
    """The weight a non-unit ``mode`` makes of the uniform draw ``r``."""
    if mode == "uniform":
        return r
    if mode == "exp":
        # mean-1 exponential; the clamp keeps log() finite
        return -math.log(max(r, 2.0**-53))
    raise ValueError(f"unknown weight mode {mode!r}")


def _draw_weight(rng: SplitMix64, mode: str) -> float:
    if mode == "unit":
        return 1.0
    return _weight_of(rng.random(), mode)


def gen_erdos_renyi(n: int, p: float, seed: int,
                    weight_mode: str = "unit") -> CutGraph:
    """Independent-pairs random graph; each undirected edge appears with
    probability ``p`` and is materialized in both directions, the two
    directions carrying the same weight (drawn per ``weight_mode``).

    The pairs ``(i, j)``, ``i < j``, are visited in row order; each takes
    one uniform draw, and an edge takes the next draw as its weight unless
    weights are unit.  The draws come in numpy blocks and only edges are
    visited in Python: between two edges every draw is a pair's.  The
    edges go to the graph as arrays, ``i -> j`` then ``j -> i`` for each
    pair drawn.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = SplitMix64(seed)
    weighted = weight_mode != "unit"
    if weighted:
        _weight_of(0.5, weight_mode)  # an unknown mode raises before any draw
    npairs = max(n, 0) * (n - 1) // 2
    hits: list[int] = []       # indices, in row order, of the pairs drawn
    weights: list[float] = []
    k = 0                      # pairs decided so far
    owed = False               # the last edge's weight is the next draw
    while k < npairs or owed:
        block = rng.random_block(
            min(_ER_BLOCK, (1 + weighted) * (npairs - k) + owed))
        c = 0                  # draws of this block used so far
        if owed:
            weights.append(_weight_of(block.item(0), weight_mode))
            c, owed = 1, False
        for pos in np.flatnonzero(block < p).tolist():
            if pos < c:
                continue       # drawn as the previous edge's weight
            pair = k + pos - c
            if pair >= npairs:
                break
            hits.append(pair)
            k, c = pair + 1, pos + 1
            if weighted:
                if c == len(block):
                    owed = True
                else:
                    weights.append(_weight_of(block.item(c), weight_mode))
                    c += 1
        k = min(npairs, k + len(block) - c)
    # row i holds pairs starts[i] .. starts[i] + n - i - 2
    i_all = np.arange(n)
    starts = i_all * (2 * n - i_all - 1) // 2
    pair = np.array(hits, dtype=np.int64)
    rows = np.searchsorted(starts, pair, side="right") - 1
    cols = pair - starts[rows] + rows + 1
    return _both_directions(n, rows, cols,
                            weights if weighted else np.ones(len(hits)))


def _pair_array(pairs) -> np.ndarray:
    """The ``(u, v)`` pairs of a sized collection as an m x 2 int64 array."""
    return np.fromiter(chain.from_iterable(pairs), np.int64,
                       2 * len(pairs)).reshape(-1, 2)


def _both_directions(n: int, ends_a, ends_b, weights) -> CutGraph:
    """The graph with edges ``a -> b`` and ``b -> a`` for each undirected
    edge ``(a, b)`` in turn, both carrying its weight."""
    src = np.empty(2 * len(ends_a), dtype=np.int64)
    dst = np.empty_like(src)
    src[0::2] = dst[1::2] = ends_a
    src[1::2] = dst[0::2] = ends_b
    return CutGraph.from_arrays(n, src, dst, np.repeat(weights, 2))


def gen_watts_strogatz(n: int, k_ring: int, beta: float, seed: int,
                       weight_mode: str = "unit") -> CutGraph:
    """Ring lattice with ``k_ring`` nearest neighbours per node, each edge
    rewired with probability ``beta`` (resampled targets, no self-loops or
    duplicates).  The undirected edge count is always ``n * k_ring / 2``;
    both directions of an edge carry the same weight.  Every edge is
    rewired first, then the weights are drawn in edge order; the edges go
    to the graph as arrays, ``i -> j`` then ``j -> i`` for each edge."""
    if k_ring % 2 != 0 or k_ring < 2 or k_ring >= n:
        raise ValueError("k_ring must be even, positive and below n")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    rng = SplitMix64(seed)
    present: set[frozenset] = set()
    lattice: list[tuple[int, int]] = []
    for i in range(n):
        for d in range(1, k_ring // 2 + 1):
            j = (i + d) % n
            lattice.append((i, j))
            present.add(frozenset((i, j)))
    pairs: list[tuple[int, int]] = []
    for (i, j) in lattice:
        if rng.random() < beta:
            key = frozenset((i, j))
            # resample until the new endpoint is fresh; bounded retries keep
            # the loop finite even at extreme densities
            for _ in range(8 * n):
                t = rng.randrange(n)
                new = frozenset((i, t))
                if t != i and new not in present:
                    present.discard(key)
                    present.add(new)
                    j = t
                    break
        pairs.append((i, j))
    ends = _pair_array(pairs)
    weights = [_draw_weight(rng, weight_mode) for _ in pairs]
    return _both_directions(n, ends[:, 0], ends[:, 1], weights)


def gen_node_weights(n: int, seed: int, mode: str = "uniform") -> list[float]:
    """Random node weights for the additive objective."""
    rng = SplitMix64(seed)
    return [_draw_weight(rng, mode) for _ in range(n)]


def load_edge_list(path) -> tuple[CutGraph, dict]:
    """Parse ``u<TAB>v<TAB>weight`` lines into a graph.

    A ``u<TAB>v`` line weighs 1.0, ``#`` starts a comment line, and a file
    with no edge lines gives one vertex.  Vertices are renumbered densely in
    first appearance order and the mapping is returned alongside the graph;
    repeated directed edges have their weights summed.  Bad weights are
    errors naming the edge's (last) line and the file's labels.  The lines
    are read one at a time; the summed edges go to the graph as arrays, in
    the order of their first line.
    """
    mapping: dict = {}
    weights: dict[tuple[int, int], float] = {}  # first appearance order
    last_line: dict[tuple[int, int], int] = {}

    def bad_edge(u, v, what):
        labels = list(mapping)
        return ValueError(f"{path}:{last_line[(u, v)]}: edge {labels[u]!r} -> "
                          f"{labels[v]!r} has {what}")

    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) == 2:
                parts.append("1.0")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected u<TAB>v<TAB>weight")
            try:
                u_raw, v_raw, w = parts[0], parts[1], float(parts[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad weight {parts[2]!r}") from exc
            for key in (u_raw, v_raw):
                if key not in mapping:
                    mapping[key] = len(mapping)
            u, v = mapping[u_raw], mapping[v_raw]
            if u == v:
                raise ValueError(f"{path}:{lineno}: self-loop at {u_raw!r}")
            last_line[(u, v)] = lineno
            total = weights.get((u, v), 0.0) + w
            if not math.isfinite(total):  # a bad weight, or an overflow
                raise bad_edge(u, v, f"weight {w}" if not math.isfinite(w)
                               else f"summed weight {total}")
            weights[(u, v)] = total
    for (u, v), w in weights.items():
        if w < 0.0:
            raise bad_edge(u, v, f"summed weight {w}")
    ends = _pair_array(weights)
    graph = CutGraph.from_arrays(max(len(mapping), 1), ends[:, 0], ends[:, 1],
                                 list(weights.values()))
    return graph, mapping


def write_edge_list(g: CutGraph, path) -> None:
    with open(path, "w") as fh:
        fh.write("# u\tv\tweight\n")
        for u, v, w in g.edges:
            fh.write(f"{u}\t{v}\t{w!r}\n")


def undirected_pairs(g: CutGraph) -> list[tuple[int, int]]:
    """Distinct undirected edges of a graph as sorted endpoint pairs, in
    the order of their first edge."""
    lo = np.minimum(g.src, g.dst)
    hi = np.maximum(g.src, g.dst)
    _, first = np.unique(lo * g.n_vertices + hi, return_index=True)
    first.sort()
    return list(zip(lo[first].tolist(), hi[first].tolist()))


# ---------------------------------------------------------------------------
# knapsack cost rules and normalization


def normalize_costs(costs: Sequence[float], mode: str, n_vertices: int) -> list[float]:
    """Rescale costs; ``sum_vertices`` makes them sum to the vertex count,
    ``mean_tenth`` makes the mean cost 1/10."""
    total = _running_sum(costs)
    if total <= 0:
        raise ValueError("cannot normalize non-positive cost mass")
    if mode == "sum_vertices":
        factor = n_vertices / total
    elif mode == "mean_tenth":
        factor = (len(costs) / 10.0) / total
    else:
        raise ValueError(f"unknown normalization {mode!r}")
    return [c * factor for c in costs]


def degree_costs(pairs: Sequence[tuple[int, int]], n_vertices: int,
                 q: int = 6) -> list[float]:
    """Edge costs proportional to max(1, degree(first endpoint) - q)."""
    deg = [0] * n_vertices
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    return [float(max(1, deg[u] - q)) for u, _ in pairs]


def random_int_costs(count: int, seed: int) -> list[float]:
    """``count`` whole costs drawn uniformly from 1 to 5."""
    rng = SplitMix64(seed)
    return [float(rng.randint(1, 5)) for _ in range(count)]


# ---------------------------------------------------------------------------
# cell assembly


@dataclass
class Cell:
    """One fully materialized experiment point."""

    sys: IndependenceSystem
    objective_factory: Callable[[], Objective]
    stream: list[int]
    sweep: float
    seed: int


def _build_graph(instance: Mapping, seed: int) -> CutGraph:
    if "edge_list" in instance:
        path = _path("instance", instance, "edge_list")
        graph, mapping = load_edge_list(path)
        if mapping:
            return graph
        raise ValueError(f"config instance edge_list {path!r} has no edge lines")
    model = instance.get("model")

    def field(name):
        return _spec_int("instance", name, instance[name])

    def real(name):
        return _spec_float("instance", name, instance[name])

    weight_mode = instance.get("edge_weights", "unit")
    if model == "er":
        return gen_erdos_renyi(field("n"), real("p"), seed, weight_mode)
    if model == "ws":
        return gen_watts_strogatz(field("n"), field("k_ring"), real("beta"),
                                  seed, weight_mode)
    raise ValueError(f"unknown instance spec {instance!r}")


def _path(section: str, fields: Mapping, name: str):
    """``fields[name]``, which must name a file: a ``str`` or
    ``os.PathLike``.  Anything else raises ``ValueError`` naming the field;
    ``open`` would take an int as a file descriptor."""
    value = fields[name]
    if isinstance(value, (str, os.PathLike)):
        return value
    raise ValueError(f"config {section} field {name!r} must be a path, "
                     f"got {value!r}")


def _leaves(spec, offset: int = 0):
    """``(leaf, cost-seed offset)`` for each leaf of a constraint spec,
    depth first; part i of an intersection adds i to the offset.  A node
    that is not a mapping, or parts that are not a list, raise."""
    if "intersect" not in _shaped("config constraint", spec):
        yield spec, offset
        return
    parts = _shaped("config constraint intersect", spec["intersect"], list)
    for i, part in enumerate(parts):
        yield from _leaves(part, offset + i)


def _fill_constraint(spec: dict, ground_size: int, graph: CutGraph | None,
                     pairs: list[tuple[int, int]] | None,
                     cost_seed: int) -> None:
    """Fill in the fields of a leaf spec (:func:`_leaves`) that it leaves
    out and the instance determines; explicit fields are kept.  Random
    costs come from ``cost_seed``: the cell's, plus the leaf's offset."""
    kind = spec.get("type")
    if kind == "cardinality" and spec.get("n") is None:
        spec["n"] = ground_size
    elif kind in ("node_independent_set", "planarity") and graph is not None:
        spec.setdefault("n" if kind == "node_independent_set" else "n_vertices",
                        graph.n_vertices)
        if "edges" not in spec:
            spec["edges"] = undirected_pairs(graph) if pairs is None else pairs
    elif kind == "knapsack" and "costs" not in spec and pairs is not None:
        rule = spec.get("cost_rule", "degree")
        if rule == "degree":
            costs = degree_costs(pairs, graph.n_vertices,
                                 _spec_int(kind, "q", spec.get("q", 6)))
        elif rule == "random_int":
            costs = random_int_costs(len(pairs), cost_seed)
        else:
            raise ValueError(f"unknown cost rule {rule!r}")
        spec["costs"] = normalize_costs(
            costs, spec.get("normalize", "sum_vertices"), graph.n_vertices)


def _shaped(name: str, value, shape: type = Mapping):
    """``value``, which must be a mapping, or a list (a tuple too) when
    ``shape`` is ``list``; anything else raises ``ValueError`` naming the
    config section ``name``."""
    if isinstance(value, (list, tuple) if shape is list else Mapping):
        return value
    what = "list" if shape is list else "mapping of names to values"
    raise ValueError(f"{name} must be a {what}, got {value!r}")


def _sweep_of(cfg: Mapping) -> Mapping:
    """A config's sweep; a missing or empty one is ``{}``."""
    return _shaped("config sweep", cfg.get("sweep") or {})  # empty is none


def build_cell(cfg: Mapping, sweep_value, seed: int) -> Cell:
    """Materialize the (sweep value, seed) point of a config.

    The sweep parameter goes to the instance, else to the first
    constraint leaf (:func:`_leaves`) that holds it.  ``ground`` is
    ``"nodes"`` or ``"edges"`` for a cut or linear objective, by default
    edges for planarity and knapsack constraints and their intersections;
    the other objectives have one ground set, ``"nodes"``.  An unknown
    ground, or a file field that is not a path (:func:`_path`), raises."""
    instance = dict(_shaped("config instance", cfg.get("instance", {})))
    constraint = json.loads(json.dumps(cfg["constraint"]))  # deep copy
    leaves = list(_leaves(constraint))
    param = _sweep_of(cfg).get("param")
    if param is not None:
        specs = [instance, *(leaf for leaf, _ in leaves)]
        holder = next((spec for spec in specs if param in spec), None)
        if holder is None:
            raise ValueError(f"sweep parameter {param!r} matches no config key")
        holder[param] = sweep_value

    rng = SplitMix64(seed)
    graph_seed = rng.next_u64()
    weight_seed = rng.next_u64()
    cost_seed = rng.next_u64()
    shuffle_seed = rng.next_u64()

    objective = _shaped("config objective",
                        cfg.get("objective", {"kind": "linear"}))
    kind = objective["kind"]
    grounds = ("nodes", "edges") if kind in ("cut", "linear") else ("nodes",)
    ground_kind = cfg.get("ground")
    if ground_kind is not None and ground_kind not in grounds:
        raise ValueError(f"unknown ground {ground_kind!r} for a {kind} "
                         f"objective; expected {' or '.join(map(repr, grounds))}")

    graph = pairs = None
    if kind in ("facility", "logdet", "coverage_minus_dispersion"):
        feats = load_features(_path("objective", objective, "features"))
        lam = _spec_float("objective", "lambda", objective.get("lambda", 0.1))
        sim = similarity_from_features(feats, lam)
        if kind == "facility":
            res = _shaped("config objective reservoir",
                          objective.get("reservoir") or {})  # empty is none
            cfg_res = None if not res else ReservoirConfig(
                res["r_cap"], res.get("seed", 0))
            factory = lambda: make_facility_location(sim, cfg_res)
        elif kind == "logdet":
            alpha = _spec_float("objective", "alpha",
                                objective.get("alpha", 20.0))
            factory = lambda: make_logdet(sim, alpha)
        else:
            factory = lambda: make_coverage_minus_dispersion(sim)
        ground = list(range(sim.shape[0]))
    elif kind == "sqrt_coverage":
        table = load_keyword_table(_path("objective", objective, "keywords"))
        factory = lambda: make_sqrt_coverage(table)
        ground = list(range(len(table)))
    elif kind in ("cut", "linear"):
        graph = _build_graph(instance, graph_seed)
        if ground_kind is None:
            ground_kind = "edges" if constraint.get("type") in ("planarity", "knapsack") \
                or "intersect" in constraint else "nodes"
        pairs = undirected_pairs(graph) if ground_kind == "edges" else None
        if kind == "cut":
            if ground_kind != "nodes":
                raise ValueError("cut objective needs the node ground set")
            factory = lambda: make_directed_cut(graph)
        else:
            if ground_kind == "edges":
                weights = [1.0] * len(pairs)
            else:
                weights = gen_node_weights(graph.n_vertices, weight_seed,
                                           objective.get("node_weights", "uniform"))
            factory = lambda: make_modular(weights)
        ground = list(range(len(pairs))) if ground_kind == "edges" \
            else list(range(graph.n_vertices))
    else:
        raise ValueError(f"unknown objective kind {kind!r}")
    for leaf, offset in leaves:
        _fill_constraint(leaf, len(ground), graph, pairs, cost_seed + offset)
    sys = make_system(constraint)
    if sys.n != len(ground):
        raise ValueError(f"constraint covers {sys.n} elements but the "
                         f"ground set has {len(ground)}")

    options = _shaped("config options", cfg.get("options", {}))
    order = options.get("stream_order", "shuffle")
    stream = list(ground)
    if order == "shuffle":
        SplitMix64(shuffle_seed).shuffle(stream)
    elif order != "id":
        raise ValueError(f"unknown stream order {order!r}")
    return Cell(sys=sys, objective_factory=factory, stream=stream,
                sweep=sweep_value, seed=seed)


# ---------------------------------------------------------------------------
# algorithm runners


def _prepass_tau(sys: IndependenceSystem, f: Objective, stream) -> float:
    """Power-of-two threshold in [M, 2M] from a singleton sweep."""
    empty = sys.open()  # never takes an element: _singleton asks it
    best = max([0.0, *(_singleton(empty, f, u)[0] for u in stream)])
    if best <= 0.0:
        return 1.0  # degenerate instance; any threshold rejects everything
    return 2.0 ** _guess_exponent(best)


def _greedy_rho(sys: IndependenceSystem, stream, scale: int = 1) -> int:
    """The system's exact rho when known, else ``scale`` times the size of
    a feasibility-greedy base (at least 1)."""
    if sys.rho_hint is not None:
        return max(1, sys.rho_hint)
    return max(1, scale * len(unweighted_greedy(sys, stream)))


def _framework_offline(f: Objective, sys: IndependenceSystem,
                       ground: ElementSet) -> ElementSet:
    """The framework's summary polish: value greedy and arrival-order first
    fit complement each other on summaries; first fit wins only beyond
    EPS."""
    by_value = repeated_greedy(f, sys, ground)
    by_order = unweighted_greedy(sys, ground)
    return (by_value, by_order)[first_best(
        (f.value(by_value), f.value(by_order)))]


# The keys an experiment's ``options`` may hold.
OPTIONS = ("stream_order", "cascade_copies")


def _check_options(options: Mapping) -> None:
    """Reject any ``options`` key outside :data:`OPTIONS`."""
    for key in options:
        if key not in OPTIONS:
            raise ValueError(f"unknown option {key!r}")


def run_algorithm(name: str, sys: IndependenceSystem, f: Objective,
                  stream, options: Mapping) -> tuple[ElementSet, int]:
    """Execute one named algorithm; returns (solution, peak stored).

    The run uses ``sys.fresh()``, so it starts with no answers kept from
    earlier runs on the same system."""
    _check_options(options)
    sys = sys.fresh()
    if name == "streaming_greedy":
        component = GreedyStream(sys, f)
    elif name == "sieve_streaming":
        component = SieveGuessStream(sys, f, rho=_greedy_rho(sys, stream))
    elif name == "threshold_sieve":
        # any upper bound on rho is sound: k times a greedy base is one
        tau = _prepass_tau(sys, f, stream)
        component = ThresholdSieve(sys, f, tau,
                                   _greedy_rho(sys, stream, sys.k_param))
    elif name == "adaptive_sieve":
        component = AdaptiveSieve(sys, f, _prepass_tau(sys, f, stream))
    elif name == "auto_sieve":
        component = AutoThresholdSieve(sys, f)
    elif name in ("framework", "framework_tau"):
        if name == "framework_tau":
            tau = _prepass_tau(sys, f, stream)
            factory = lambda: AdaptiveSieve(sys, f, tau)
        else:
            factory = lambda: AutoThresholdSieve(sys, f)
        copies = _spec_int("options", "cascade_copies",
                           options.get("cascade_copies", 2))
        trace = cascade_run([factory() for _ in range(copies)], stream,
                            _framework_offline)
        return trace.best, trace.peak_stored
    elif name == "weighted_greedy":
        return weighted_greedy(f, sys, stream), len(stream)
    elif name == "repeated_greedy":
        return repeated_greedy(f, sys, stream), len(stream)
    else:
        raise ValueError(f"unknown algorithm {name!r}")
    (outcome,), peak, _ = _drive([component], stream)
    return outcome.solution, peak


ALGORITHMS = ("streaming_greedy", "sieve_streaming", "threshold_sieve",
              "adaptive_sieve", "auto_sieve", "framework", "framework_tau",
              "weighted_greedy", "repeated_greedy")


# ---------------------------------------------------------------------------
# experiment driver


def run_experiment(cfg: Mapping, *, measure_time: bool = True) -> list[ResultRow]:
    """Run every (algorithm x sweep value x seed) cell of a config.

    Rows come back sorted by (sweep, algorithm, seed).  With
    ``measure_time=False`` the ms column is zeroed, making the emitted CSV
    a pure function of the config.
    """
    _shaped("config", cfg)
    algorithms = list(_shaped("config algorithms", cfg["algorithms"], list))
    if not algorithms:
        raise ValueError("config lists no algorithms")
    for name in algorithms:
        if name not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {name!r}")
    seeds = [_spec_int("config", "seeds", s)
             for s in _shaped("config seeds", cfg.get("seeds", [0]), list)]
    if not seeds:
        raise ValueError("config lists no seeds")
    sweep = _sweep_of(cfg)
    if sweep and sweep.get("param") is None:
        raise ValueError("config sweep names no param")
    if sweep and not sweep.get("values"):
        raise ValueError("config sweep lists no values")
    sweep_values = _shaped("config sweep values", sweep.get("values", [0]),
                           list)
    options = _shaped("config options", cfg.get("options", {}))
    _check_options(options)

    rows: list[ResultRow] = []
    for sweep_value in sweep_values:
        for seed in seeds:
            cell = build_cell(cfg, sweep_value, seed)
            for name in algorithms:
                f = cell.objective_factory()
                calls_before = f.evaluations
                started = time.perf_counter()
                solution, peak = run_algorithm(name, cell.sys, f,
                                               cell.stream, options)
                elapsed = time.perf_counter() - started
                value = f.value(solution)
                calls = f.evaluations - calls_before
                rows.append(ResultRow(
                    algorithm=name, sweep=sweep_value, seed=seed,
                    value=value, oracle_calls=calls, peak_elements=peak,
                    ms=int(elapsed * 1000) if measure_time else 0))
    rows.sort(key=lambda r: (r.sweep, r.algorithm, r.seed))
    return rows


def rows_to_csv(rows: Iterable[ResultRow]) -> str:
    lines = [RESULT_HEADER]
    lines.extend(row.as_csv() for row in rows)
    return "\n".join(lines) + "\n"
