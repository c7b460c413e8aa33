"""Span tracing for the benchmark's traced run.

The package source stays unpatched: :func:`install` swaps class and module
attributes for thin wrappers that record one span per call, and
:func:`uninstall` puts every original back.  Spans are kept in flat arrays
(name id, start, end, parent index, trace id) and written out only when
the run ends.  Counts that need the call's arguments or result, such as
cache hits or accepted feasibility queries, are taken in the same wrappers.

Layers follow the package's modules.  A streaming component's methods
belong to the layer of the module that defines its class, so
``SieveGuessStream.push`` is a ``baselines`` span and
``AutoThresholdSieve.push`` a ``streaming`` one.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

from substream import (baselines, bench, constraints, core, counterexamples,
                       offline, streaming)

WRAPPED_MARK = "__perfbench_wrapped__"

class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.trace = array("l")
        self.stack: list[int] = []
        self.trace_id = -1  # -1: outside any cell (set-up, read-back)
        self._traces = 0
        self.counts: Counter = Counter()
        self.objective_depth = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.trace.append(self.trace_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def new_trace(self) -> None:
        """Start a new trace id; the benchmark calls this once per cell."""
        self.trace_id = self._traces
        self._traces += 1

    def end_trace(self) -> None:
        self.trace_id = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.array(self.name, dtype=np.int64),
                "start": np.array(self.start), "end": np.array(self.end),
                "parent": np.array(self.parent, dtype=np.int64),
                "trace": np.array(self.trace, dtype=np.int64)}

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(name id, self time, trace id) per span; self time is the
        duration minus the durations of the span's children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        return a["name"], dur - child, a["trace"]

    def write(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a)


# ---------------------------------------------------------------------------
# wrappers


def _span(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    opn, cls = tracer.open, tracer.close

    def wrapper(*args, **kwargs):
        idx = opn(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            cls(idx)

    return wrapper


def _objective_span(tracer: Tracer, name: str, fn):
    """Span plus the package's own counters; a query is a call from outside
    the objective layer, and its evaluations are what ``Objective`` counted."""
    nid = tracer.name_id(name)
    opn, cls, counts = tracer.open, tracer.close, tracer.counts
    is_value = name == "objectives.value"

    def wrapper(obj, *args, **kwargs):
        outer = tracer.objective_depth == 0
        before = obj.evaluations
        tracer.objective_depth += 1
        idx = opn(nid)
        try:
            return fn(obj, *args, **kwargs)
        finally:
            cls(idx)
            tracer.objective_depth -= 1
            spent = obj.evaluations - before
            if is_value and spent == 0:
                counts["objectives.value_hits"] += 1
            if outer:
                counts["objectives.queries"] += 1
                counts["objectives.evaluations"] += spent

    return wrapper


def _feasibility_span(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    opn, cls, counts = tracer.open, tracer.close, tracer.counts

    def wrapper(*args, **kwargs):
        idx = opn(nid)
        try:
            ok = fn(*args, **kwargs)
        finally:
            cls(idx)
        if ok:
            counts["constraints.accepted"] += 1
        return ok

    return wrapper


def _layer_of(cls: type) -> str:
    return cls.__module__.rsplit(".", 1)[-1]


def _push_span(tracer: Tracer, fn):
    ids = {layer: tracer.name_id(f"{layer}.push")
           for layer in ("streaming", "baselines")}
    opn, cls, counts = tracer.open, tracer.close, tracer.counts

    def wrapper(comp, *args, **kwargs):
        layer = _layer_of(type(comp))
        idx = opn(ids[layer])
        try:
            evicted = fn(comp, *args, **kwargs)
        finally:
            cls(idx)
        counts[f"{layer}.evicted"] += len(evicted)
        return evicted

    return wrapper


def _finish_span(tracer: Tracer, fn):
    ids = {layer: tracer.name_id(f"{layer}.finish")
           for layer in ("streaming", "baselines")}
    opn, cls = tracer.open, tracer.close

    def wrapper(comp, *args, **kwargs):
        idx = opn(ids[_layer_of(type(comp))])
        try:
            return fn(comp, *args, **kwargs)
        finally:
            cls(idx)

    return wrapper


def _counting_init(tracer: Tracer, key: str, fn):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _component_classes() -> list[type]:
    out, todo = [], [streaming.StreamingComponent]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def _targets(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every patched name.

    ``bench`` imports the offline solvers, the sieve classes and
    ``cascade_run`` by name, so those names are patched in ``bench`` too;
    classes are patched once, on the class object that every importer
    shares.  ``Objective.__call__`` was bound to the original ``value``
    when the class was created and needs its own wrapper.
    """
    obj = core.Objective
    sysc = constraints.IndependenceSystem
    comp = streaming.StreamingComponent
    out = [
        (obj, "value", _objective_span(tracer, "objectives.value", obj.value)),
        (obj, "__call__", _objective_span(tracer, "objectives.value",
                                          obj.__call__)),
        (obj, "marginal", _objective_span(tracer, "objectives.marginal",
                                          obj.marginal)),
        (obj, "singleton", _objective_span(tracer, "objectives.singleton",
                                           obj.singleton)),
        (sysc, "can_add", _feasibility_span(tracer, "constraints.can_add",
                                            sysc.can_add)),
        (sysc, "is_independent", _feasibility_span(
            tracer, "constraints.is_independent", sysc.is_independent)),
        (constraints, "planarity_check", _span(
            tracer, "planarity.check", constraints.planarity_check)),
        (comp, "push", _push_span(tracer, comp.push)),
        (comp, "finish", _finish_span(tracer, comp.finish)),
        (streaming.AdaptiveSieve, "__init__", _counting_init(
            tracer, "streaming.window_copies_created",
            streaming.AdaptiveSieve.__init__)),
    ]
    for cls in _component_classes():
        if "stored_count" in vars(cls) and cls is not comp:
            out.append((cls, "stored_count", _span(
                tracer, f"{_layer_of(cls)}.stored_count",
                vars(cls)["stored_count"])))
    cascade = _span(tracer, "streaming.cascade_run", streaming.cascade_run)
    out += [(streaming, "cascade_run", cascade), (bench, "cascade_run", cascade)]
    for fname in ("repeated_greedy", "weighted_greedy", "unweighted_greedy",
                  "double_greedy"):
        wrapped = _span(tracer, f"offline.{fname}", getattr(offline, fname))
        out.append((offline, fname, wrapped))
        if hasattr(bench, fname):
            out.append((bench, fname, wrapped))
    for fname in ("gen_erdos_renyi", "gen_watts_strogatz", "gen_node_weights"):
        out.append((bench, fname, _span(tracer, "bench.generate",
                                        getattr(bench, fname))))
    out.append((bench, "build_cell", _span(tracer, "bench.build_cell",
                                           bench.build_cell)))
    out.append((bench, "run_algorithm", _span(tracer, "bench.run_algorithm",
                                              bench.run_algorithm)))
    for fname in ("build_g1", "build_g2"):
        out.append((counterexamples, fname, _span(
            tracer, "counterexamples.build", getattr(counterexamples, fname))))
    for fname in ("verify_preemption_counterexample",
                  "verify_ratio_swap_counterexample"):
        out.append((counterexamples, fname, _span(
            tracer, "counterexamples.verify", getattr(counterexamples, fname))))
    return out


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Patch every target; returns the originals for :func:`uninstall`."""
    saved = []
    for owner, attr, wrapper in _targets(tracer):
        setattr(wrapper, WRAPPED_MARK, True)
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)
    return saved


def uninstall(saved: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
    assert_unpatched()


def patched_names() -> list[str]:
    """Every traced attribute that currently holds a benchmark wrapper."""
    found = []
    owners = [core.Objective, constraints.IndependenceSystem, constraints,
              streaming, bench, offline, counterexamples, baselines,
              *_component_classes()]
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found


def assert_unpatched() -> None:
    """Raise unless the package is free of wrappers; called before every
    untraced timing, so it never pays for tracing."""
    left = patched_names()
    if left:
        raise RuntimeError(f"tracing wrappers still installed: {left}")


# ---------------------------------------------------------------------------
# per-layer metrics


def _sum_self(names, self_s, tracer: Tracer, *span_names: str) -> float:
    ids = [tracer._ids[n] for n in span_names if n in tracer._ids]
    if not ids:
        return 0.0
    return float(self_s[np.isin(names, ids)].sum())


def _calls(names, tracer: Tracer, *span_names: str) -> int:
    ids = [tracer._ids[n] for n in span_names if n in tracer._ids]
    return int(np.isin(names, ids).sum()) if ids else 0


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics, from every span and count the tracer holds.

    Every ``*_s`` figure is self time: a span's duration minus what its
    child spans cover, so the figures add up without double counting.
    """
    names, self_s, trace = tracer.self_times()
    c = tracer.counts
    calls = lambda *n: _calls(names, tracer, *n)
    secs = lambda *n: _sum_self(names, self_s, tracer, *n)
    value_calls = calls("objectives.value")
    feas_calls = calls("constraints.can_add", "constraints.is_independent")
    return {
        "objectives.marginal_calls": calls("objectives.marginal"),
        "objectives.marginal_s": secs("objectives.marginal"),
        "objectives.value_calls": value_calls,
        "objectives.value_s": secs("objectives.value"),
        "objectives.cache_hit_ratio":
            c["objectives.value_hits"] / value_calls if value_calls else 0.0,
        "objectives.queries": c["objectives.queries"],
        "objectives.evaluations": c["objectives.evaluations"],
        "constraints.can_add_calls": calls("constraints.can_add"),
        "constraints.can_add_s": secs("constraints.can_add"),
        "constraints.is_independent_calls": calls("constraints.is_independent"),
        "constraints.is_independent_s": secs("constraints.is_independent"),
        "constraints.accept_ratio":
            c["constraints.accepted"] / feas_calls if feas_calls else 0.0,
        "planarity.check_calls": calls("planarity.check"),
        "planarity.check_s": secs("planarity.check"),
        "streaming.push_calls": calls("streaming.push"),
        "streaming.push_self_s": secs("streaming.push"),
        "streaming.finish_s": secs("streaming.finish"),
        "streaming.stored_count_calls": calls("streaming.stored_count"),
        "streaming.stored_count_s": secs("streaming.stored_count"),
        "streaming.evicted": c["streaming.evicted"],
        "streaming.window_copies_created": c["streaming.window_copies_created"],
        "streaming.cascade_self_s": secs("streaming.cascade_run"),
        "baselines.push_calls": calls("baselines.push"),
        "baselines.push_self_s": secs("baselines.push", "baselines.finish"),
        "baselines.stored_count_calls": calls("baselines.stored_count"),
        "baselines.stored_count_s": secs("baselines.stored_count"),
        "offline.repeated_greedy_s": secs("offline.repeated_greedy"),
        "offline.weighted_greedy_s": secs("offline.weighted_greedy"),
        "offline.unweighted_greedy_s": secs("offline.unweighted_greedy"),
        "offline.double_greedy_s": secs("offline.double_greedy"),
        "bench.generate_s": secs("bench.generate"),
        "bench.build_cell_s": secs("bench.build_cell"),
        "bench.run_algorithm_self_s": secs("bench.run_algorithm"),
        "counterexamples.build_s": secs("counterexamples.build"),
        "counterexamples.verify_self_s": secs("counterexamples.verify"),
        "trace.spans": len(names),
        "trace.self_sum_s": float(self_s[trace >= 0].sum()),
    }
