"""Adversarial cut instances on which the swap-based streaming baselines
keep an arbitrarily small fraction of the reachable value.

Both instances live on 3*rho + 1 vertices u_0 .. u_{3 rho}.  Vertex u_0
is a sink that never appears in the stream; the others arrive in subscript
order.  The first wave u_1..u_rho each carry one unit edge into the sink,
the planted optimum u_{rho+1}..u_{2 rho} each point one unit edge at every
first-wave vertex (so the optimum cuts rho^2), and the late wave
u_{2 rho+1}..u_{3 rho} carry bait edges into the sink whose weights are
tuned per instance:

* family g1 uses constant weight 2 + epsilon, which makes the
  double-the-cheapest swap rule evict the entire first wave;
* family g2 uses the recurrence w_1 = 2,
  w_i = (2 rho + 1 - i + sum_{j<i} w_j) / rho, which keeps the
  improvement of every swap exactly at the value/rho bar of the
  best-replacement rule.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .objectives import CutGraph, make_directed_cut
from .constraints import cardinality_system
from .baselines import preemption_stream, ratio_swap_stream
from .core import _spec_count


@dataclass(frozen=True)
class CounterInstance:
    """A hard cut instance plus its stream order and special vertex blocks."""

    graph: CutGraph
    stream: tuple[int, ...]
    rho: int
    epsilon: float | None = None

    @property
    def early(self) -> tuple[int, ...]:
        """First wave that fills the solution (marginal 1 each)."""
        return tuple(range(1, self.rho + 1))

    @property
    def planted_opt(self) -> tuple[int, ...]:
        """The optimum block; cuts rho^2 but gains nothing next to S."""
        return tuple(range(self.rho + 1, 2 * self.rho + 1))

    @property
    def late(self) -> tuple[int, ...]:
        """Bait block whose sink edges trigger every swap."""
        return tuple(range(2 * self.rho + 1, 3 * self.rho + 1))


def w_sequence(rho: int) -> list[float]:
    """Bait weights for family g2, by the defining recurrence."""
    rho = _spec_count("counterexample", "rho", rho)
    ws: list[float] = [2.0]
    total = 2.0  # _running_sum(ws), kept as ws grows
    for i in range(2, rho + 1):
        ws.append((2 * rho + 1 - i + total) / rho)
        total += ws[-1]
    return ws


def w_sequence_closed_form(rho: int) -> list[float]:
    """The same weights via w_i = 2 + sum_j C(i-1, j) rho^-j."""
    rho = _spec_count("counterexample", "rho", rho)
    out = []
    for i in range(1, rho + 1):
        acc = 2.0
        for j in range(1, i):
            acc += math.comb(i - 1, j) * rho ** float(-j)
        out.append(acc)
    return out


def w_sequence_total(rho: int) -> float:
    """Closed form of sum(w_sequence(rho)): 2 rho + rho((1 + 1/rho)^rho - 2)."""
    return 2.0 * rho + rho * ((1.0 + 1.0 / rho) ** rho - 2.0)


def _build(rho: int, bait_weights: list[float],
           epsilon: float | None) -> CounterInstance:
    # edges in order: each early vertex to the sink, each planted vertex
    # to every early one (planted-major), each late vertex to the sink
    n = 3 * rho + 1
    early = np.arange(1, rho + 1)
    sink = np.zeros(rho, dtype=np.int64)
    src = np.concatenate((early, np.repeat(early + rho, rho), early + 2 * rho))
    dst = np.concatenate((sink, np.tile(early, rho), sink))
    weight = np.concatenate((np.ones(rho + rho * rho), bait_weights))
    graph = CutGraph.from_arrays(n, src, dst, weight)
    return CounterInstance(graph=graph, stream=tuple(range(1, n)),
                           rho=rho, epsilon=epsilon)


def build_g1(rho: int, epsilon: float = 0.01) -> CounterInstance:
    """Family g1: every bait edge weighs 2 + ``epsilon``.  A ``rho`` that is
    not a whole number of at least 1 (3.0 is taken as 3), or an ``epsilon``
    that is no positive finite number (NaN neither), raises ``ValueError``
    naming it."""
    rho = _spec_count("counterexample", "rho", rho)
    if not (isinstance(epsilon, numbers.Real) and 0 < epsilon < math.inf):
        raise ValueError(f"epsilon must be positive and finite, "
                         f"got {epsilon!r}")
    return _build(rho, [2.0 + epsilon] * rho, epsilon)


def build_g2(rho: int) -> CounterInstance:
    """Family g2: bait weights from :func:`w_sequence`; ``rho`` is checked
    like :func:`build_g1`'s."""
    rho = _spec_count("counterexample", "rho", rho)
    return _build(rho, w_sequence(rho), None)


@dataclass
class CounterReport:
    """Verifier output; ``checks`` itemizes each asserted identity."""

    family: str
    rho: int
    epsilon: float | None
    f_S: float
    f_opt: float
    f_union: float
    bound: float
    holds: bool
    checks: dict[str, bool] = field(default_factory=dict)

    def as_json(self) -> dict:
        return {"rho": self.rho, "epsilon": self.epsilon, "f_S": self.f_S,
                "f_opt": self.f_opt, "f_union": self.f_union,
                "bound": self.bound, "holds": self.holds}


def _report(family, inst, stream_fn, expected_value, ratio_factor,
            extra_checks) -> CounterReport:
    """Run ``stream_fn(sys, f, stream)`` on the instance's directed cut
    under a cardinality constraint of ``inst.rho`` and check its solution;
    ``extra_checks(f_S, f_opt, f_union)`` adds family-specific checks."""
    f = make_directed_cut(inst.graph)
    sys = cardinality_system(inst.graph.n_vertices, inst.rho)
    sol = stream_fn(sys, f, inst.stream).solution
    f_s = f.value(sol)
    f_opt = f.value(inst.planted_opt)
    f_union = f.value(set(sol) | set(inst.planted_opt))
    bound = ratio_factor * f_union
    checks = {
        "solution_is_late_block": set(sol) == set(inst.late),
        "value_matches_trace": abs(f_s - expected_value) <= 1e-9,
        "ratio_bound": f_s <= bound + 1e-9,
        "opt_block_untouched": not set(sol) & set(inst.planted_opt),
    }
    checks.update(extra_checks(f_s, f_opt, f_union))
    return CounterReport(family=family, rho=inst.rho, epsilon=inst.epsilon,
                         f_S=f_s, f_opt=f_opt, f_union=f_union, bound=bound,
                         holds=all(checks.values()), checks=checks)


def verify_preemption_counterexample(rho: int,
                                     epsilon: float = 0.01) -> CounterReport:
    """Run the double-the-cheapest swap baseline on family g1.

    The final solution must be exactly the bait block with value
    (2 + epsilon) * rho, never touching the planted optimum, and satisfy
    f(S) <= ((2 + epsilon) / rho) * f(S union OPT).  ``rho`` and
    ``epsilon`` are checked as in :func:`build_g1`.
    """
    inst = build_g1(rho, epsilon)
    rho = inst.rho
    return _report("g1", inst, preemption_stream, (2.0 + epsilon) * rho,
                   (2.0 + epsilon) / rho, lambda f_s, f_opt, f_union: {
                       "opt_value": abs(f_opt - rho * rho) <= 1e-9})


def verify_ratio_swap_counterexample(rho: int) -> CounterReport:
    """Run the best-replacement swap baseline on family g2.

    Requires rho >= 4 (the smallest integer above 1 + e).  The final
    solution must be exactly the bait block with value
    2 rho + rho((1 + 1/rho)^rho - 2) <= e rho, and satisfy
    f(S) <= (e / rho) * f(S union OPT) with f(S union OPT) >= rho^2.
    ``rho`` is checked as in :func:`build_g1`.
    """
    if _spec_count("counterexample", "rho", rho) < 4:
        raise ValueError("rho must be at least 4 (an integer above 1 + e)")
    inst = build_g2(rho)
    rho = inst.rho
    return _report("g2", inst, ratio_swap_stream, w_sequence_total(rho),
                   math.e / rho, lambda f_s, f_opt, f_union: {
                       "value_at_most_e_rho": f_s <= math.e * rho + 1e-9,
                       "union_at_least_opt": f_union >= rho * rho - 1e-9})

