import json
import math
import re
from pathlib import Path

import pytest

from substream.bench import (ALGORITHMS, _prepass_tau, build_cell,
                             degree_costs,
                             gen_erdos_renyi,
                             gen_node_weights,
                             gen_watts_strogatz, load_edge_list,
                             normalize_costs, random_int_costs,
                             rows_to_csv, run_algorithm, run_experiment,
                             undirected_pairs, write_edge_list, RESULT_HEADER)
from substream import (KeywordTable, Objective, cardinality_system,
                       make_coverage_minus_dispersion, make_directed_cut,
                       knapsack_system, make_facility_location,
                       make_modular, make_sqrt_coverage,
                       node_independent_set_system)
from substream.core import GainState, NumericError
from substream.prng import SplitMix64

from helpers import count_planarity_tests, random_similarity


def test_splitmix_reference_stream():
    # first outputs for seed 0; pinned so ports can cross-check the PRNG
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    rng2 = SplitMix64(0)
    assert rng2.next_u64() == 0xE220A8397B1DCDAF


def test_splitmix_rejects_an_empty_range_and_an_empty_sample():
    rng = SplitMix64(0)
    with pytest.raises(ValueError, match="randrange needs a positive bound"):
        rng.randrange(0)
    with pytest.raises(ValueError, match="sample size must be positive"):
        rng.sample_indices(5, 0)


def test_erdos_renyi_edge_probability_extremes():
    g = gen_erdos_renyi(2, 1.0, seed=1)
    assert len(undirected_pairs(g)) == 1
    assert len(g.edges) == 2  # both directions materialized
    assert gen_erdos_renyi(6, 0.0, seed=1).edges == ()
    for p in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            gen_erdos_renyi(6, p, seed=1)


def test_erdos_renyi_deterministic_per_seed():
    a = gen_erdos_renyi(30, 0.3, seed=42)
    b = gen_erdos_renyi(30, 0.3, seed=42)
    c = gen_erdos_renyi(30, 0.3, seed=43)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_watts_strogatz_ring_and_rewiring():
    ring = gen_watts_strogatz(10, 4, 0.0, seed=5)
    assert len(undirected_pairs(ring)) == 10 * 4 // 2
    rewired = gen_watts_strogatz(10, 2, 1.0, seed=5)
    pairs = undirected_pairs(rewired)
    assert len(pairs) == 10  # edge count preserved
    degree_sum = sum(1 for _ in pairs) * 2
    assert degree_sum == 20
    again = gen_watts_strogatz(10, 2, 1.0, seed=5)
    assert rewired.edges == again.edges


def test_watts_strogatz_validation():
    with pytest.raises(ValueError):
        gen_watts_strogatz(10, 3, 0.1, seed=0)  # odd k_ring
    with pytest.raises(ValueError):
        gen_watts_strogatz(4, 4, 0.1, seed=0)   # k_ring not below n
    with pytest.raises(ValueError, match=r"beta must lie in \[0, 1\]"):
        gen_watts_strogatz(10, 2, 1.5, seed=0)


def test_weight_modes():
    unit = gen_erdos_renyi(10, 0.5, seed=9, weight_mode="unit")
    assert all(w == 1.0 for (_, _, w) in unit.edges)
    exp = gen_erdos_renyi(10, 0.5, seed=9, weight_mode="exp")
    ws = [w for (_, _, w) in exp.edges]
    assert all(w > 0 for w in ws) and len(set(ws)) > 1
    # both directions of an undirected edge carry the same weight
    wmap = {(u, v): w for (u, v, w) in exp.edges}
    for (u, v), w in wmap.items():
        assert wmap[(v, u)] == w
    assert len(gen_node_weights(5, 3)) == 5
    with pytest.raises(ValueError, match="unknown weight mode 'normal'"):
        gen_node_weights(5, 3, "normal")


def test_load_edge_list_roundtrip(tmp_path):
    g = gen_erdos_renyi(12, 0.4, seed=7, weight_mode="exp")
    path = tmp_path / "g.tsv"
    write_edge_list(g, path)
    loaded, mapping = load_edge_list(path)
    assert loaded.n_vertices == g.n_vertices
    assert len(mapping) == 12
    # identical up to the dense first-appearance renumbering
    relabeled = sorted((mapping[str(u)], mapping[str(v)], w)
                       for (u, v, w) in g.edges)
    assert sorted(loaded.edges) == relabeled


def test_load_edge_list_merge_and_comments(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("# comment only\na\tb\t1.0\na\tb\t2.5\nb\tc\t1.0\n")
    g, mapping = load_edge_list(path)
    assert g.n_vertices == 3
    weights = {(u, v): w for (u, v, w) in g.edges}
    assert weights[(mapping["a"], mapping["b"])] == 3.5
    path.write_text("a\tb\nb\tc\t2.0\n")  # a line without weight weighs 1.0
    assert load_edge_list(path)[0].edges == ((0, 1, 1.0), (1, 2, 2.0))


def test_load_edge_list_errors(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\tnot_a_number\n")
    with pytest.raises(ValueError, match="bad.tsv:1"):
        load_edge_list(path)
    for text, message in [("a\tb\t1.0\tx\n", "bad.tsv:1: expected u<TAB>v"),
                          ("a\tb\t1.0\nb\n", "bad.tsv:2: expected u<TAB>v"),
                          ("a\tb\t1.0\nb\tb\t1.0\n",
                           "bad.tsv:2: self-loop at 'b'")]:
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_edge_list(path)
    empty = tmp_path / "c.tsv"
    empty.write_text("# nothing\n")
    g, _ = load_edge_list(empty)
    assert g.edges == ()


@pytest.mark.parametrize("text, message", [
    ("a\tb\t1.0\nb\tc\tnan\n", "g.tsv:2: edge 'b' -> 'c' has weight nan"),
    ("a\tb\t-inf\n", "g.tsv:1: edge 'a' -> 'b' has weight -inf"),
    ("a\tb\t1e308\nb\tc\t1.0\na\tb\t1e308\n",
     "g.tsv:3: edge 'a' -> 'b' has summed weight inf"),
    ("a\tb\t1.0\na\tb\t-3.0\nb\tc\t-1.0\nb\tc\t2.0\n",
     "g.tsv:2: edge 'a' -> 'b' has summed weight -2.0"),
], ids=["nan-line", "inf-line", "overflowing-sum", "negative-sum"])
def test_load_edge_list_names_the_line_and_labels(tmp_path, text, message):
    path = tmp_path / "g.tsv"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_edge_list(path)
    assert str(exc.value).endswith(message)


def test_load_edge_list_accepts_a_negative_line_in_a_non_negative_sum(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("a\tb\t-1.0\na\tb\t1.5\n")
    g, _ = load_edge_list(path)
    assert g.edges == ((0, 1, 0.5),)


def test_cost_rules_and_normalization():
    pairs = [(0, 1), (0, 2), (0, 3), (2, 3)]
    costs = degree_costs(pairs, 4, q=1)
    assert costs == [2.0, 2.0, 2.0, 1.0]  # degree(0) = 3, q = 1
    scaled = normalize_costs(costs, "sum_vertices", 4)
    assert abs(sum(scaled) - 4.0) <= 1e-9
    tenth = normalize_costs(costs, "mean_tenth", 4)
    assert abs(sum(tenth) / len(tenth) - 0.1) <= 1e-9
    randoms = random_int_costs(20, seed=3)
    assert all(1.0 <= c <= 5.0 for c in randoms)
    assert randoms == random_int_costs(20, seed=3)
    with pytest.raises(ValueError, match="non-positive cost mass"):
        normalize_costs([], "sum_vertices", 4)
    with pytest.raises(ValueError, match="unknown normalization 'median'"):
        normalize_costs(costs, "median", 4)


def _toy_config(**overrides):
    cfg = {
        "instance": {"model": "er", "n": 24, "p": 0.2, "edge_weights": "exp"},
        "objective": {"kind": "linear", "node_weights": "exp"},
        "constraint": {"type": "node_independent_set"},
        "algorithms": ["streaming_greedy", "weighted_greedy"],
        "sweep": {"param": "p", "values": [0.1, 0.3]},
        "seeds": [1, 2],
    }
    cfg.update(overrides)
    return cfg


def test_run_experiment_row_matrix():
    rows = run_experiment(_toy_config(), measure_time=False)
    assert len(rows) == 2 * 2 * 2  # algorithms x sweep x seeds
    assert [r.ms for r in rows] == [0] * len(rows)
    keys = [(r.sweep, r.algorithm, r.seed) for r in rows]
    assert keys == sorted(keys)


def test_run_experiment_deterministic_csv():
    a = rows_to_csv(run_experiment(_toy_config(), measure_time=False))
    b = rows_to_csv(run_experiment(_toy_config(), measure_time=False))
    assert a == b
    assert a.splitlines()[0] == RESULT_HEADER


def test_offline_greedy_dominates_streaming_greedy_on_modular():
    rows = run_experiment(_toy_config(), measure_time=False)
    by_cell = {}
    for r in rows:
        by_cell.setdefault((r.sweep, r.seed), {})[r.algorithm] = r.value
    for cell in by_cell.values():
        assert cell["weighted_greedy"] >= cell["streaming_greedy"] - 1e-9


def test_oracle_call_accounting():
    rows = run_experiment(_toy_config(algorithms=["sieve_streaming"]),
                          measure_time=False)
    assert all(r.oracle_calls > 0 for r in rows)
    assert all(r.value >= 0 for r in rows)


def test_oracle_calls_are_per_cell_deltas():
    # feasibility-first greedy consults the oracle exactly once: the final
    # value report; a second algorithm in the same cell gets a fresh oracle
    rows = run_experiment(_toy_config(
        algorithms=["streaming_greedy", "weighted_greedy"]),
        measure_time=False)
    greedy_rows = [r for r in rows if r.algorithm == "streaming_greedy"]
    value_rows = [r for r in rows if r.algorithm == "weighted_greedy"]
    assert all(r.oracle_calls == 1 for r in greedy_rows)
    assert all(r.oracle_calls > 1 for r in value_rows)


def _recount_queries(monkeypatch) -> list[int]:
    """Wrap the public oracle queries for one test; the returned list
    holds one running total, counted on outermost calls only: one per
    ``value``, ``singleton`` and gain-state ``gain`` or ``loss``, two per
    ``marginal``, one per member in ``swap_values`` and one per state in
    ``gains``.  The generic state's ``gain`` and ``loss``, and a ``gains``
    over generic states, are left to the ``marginal`` and ``value`` calls
    they make."""
    total, depth = [0], [0]

    def wrap(cls, name, weight):
        real = cls.__dict__[name]

        def counted(self, *args):
            weighed = weight(self, *args)
            if weighed is None:  # counted by the queries it makes
                return real(self, *args)
            if not depth[0]:
                total[0] += weighed
            depth[0] += 1
            try:
                return real(self, *args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(cls, name, counted)

    one = lambda *_: 1
    for name in ("value", "__call__", "singleton"):
        wrap(Objective, name, one)
    wrap(Objective, "marginal", lambda *_: 2)
    wrap(Objective, "gains", lambda f, u, states: (
        None if states and type(states[0]) is GainState else len(states)))
    classes = [GainState]
    for cls in classes:
        classes.extend(cls.__subclasses__())
        for name in ("gain", "loss"):
            if name in cls.__dict__ and cls is not GainState:
                wrap(cls, name, one)
        if "swap_values" in cls.__dict__:
            wrap(cls, "swap_values", lambda state, *_: len(state.members))
    return total


def _recount_cells():
    rng = SplitMix64(31)
    sim = random_similarity(rng, 14)
    words = [{str(rng.randrange(6)), str(rng.randrange(6))} for _ in range(14)]
    table = KeywordTable(words=words,
                         values=[rng.uniform(0.0, 6.0) for _ in range(14)])
    graph = gen_erdos_renyi(14, 0.2, 31, weight_mode="exp")
    return {"cut": (lambda: make_directed_cut(graph),
                    node_independent_set_system(14, undirected_pairs(graph))),
            "facility": (lambda: make_facility_location(sim),
                         cardinality_system(14, 4)),
            "coverage_minus_dispersion": (
                lambda: make_coverage_minus_dispersion(sim),
                cardinality_system(14, 4)),
            "sqrt_coverage": (lambda: make_sqrt_coverage(table),
                              cardinality_system(14, 4))}


@pytest.mark.parametrize("kind", ["cut", "facility", "coverage_minus_dispersion",
                                  "sqrt_coverage"])
def test_oracle_calls_equal_an_independent_recount(monkeypatch, kind):
    make_f, sys = _recount_cells()[kind]
    stream = list(range(14))
    SplitMix64(7).shuffle(stream)
    total = _recount_queries(monkeypatch)
    for name in ALGORITHMS:
        f = make_f()
        total[0] = 0
        # the read-back of the solution's value, as a results row makes
        f.value(run_algorithm(name, sys, f, stream, {})[0])
        assert f.evaluations == total[0], name


def test_constraint_sweep_on_cardinality():
    cfg = _toy_config(constraint={"type": "cardinality", "rho": 2},
                      sweep={"param": "rho", "values": [1, 3]},
                      algorithms=["streaming_greedy"])
    rows = run_experiment(cfg, measure_time=False)
    small = [r for r in rows if r.sweep == 1]
    big = [r for r in rows if r.sweep == 3]
    for s, b in zip(small, big):
        assert s.seed == b.seed and b.value >= s.value - 1e-9


def test_edge_ground_planarity_knapsack_cell():
    # planarity with knapsack over edges, budget swept inside the intersect
    cfg = {
        "instance": {"model": "er", "n": 10, "p": 0.5},
        "objective": {"kind": "linear"},
        "constraint": {"intersect": [
            {"type": "planarity"},
            {"type": "knapsack", "budget": 0.5, "cost_rule": "degree",
             "normalize": "sum_vertices"}]},
        "algorithms": ["streaming_greedy", "auto_sieve"],
        "sweep": {"param": "budget", "values": [0.2, 0.8]},
        "seeds": [3],
    }
    rows = run_experiment(cfg, measure_time=False)
    assert len(rows) == 4
    by_algo = {}
    for r in rows:
        assert r.value >= 0.0
        by_algo.setdefault(r.algorithm, {})[r.sweep] = r.value
    # the sweep must actually reach the nested knapsack budget: at least
    # one algorithm sees different values across the two budgets
    assert any(sweeps[0.2] != sweeps[0.8] for sweeps in by_algo.values())


@pytest.mark.parametrize("constraint", [
    {"type": "planarity"},
    {"intersect": [{"type": "planarity"},
                   {"type": "knapsack", "budget": 8.0, "cost_rule": "degree",
                    "normalize": "sum_vertices"}]},
], ids=["planarity", "planarity-knapsack"])
def test_planarity_answers_last_one_run(monkeypatch, constraint):
    # a run on a system that earlier runs have used makes as many
    # left-right tests as a run on a newly built one
    calls = count_planarity_tests(monkeypatch)
    cfg = {"instance": {"model": "er", "n": 14, "p": 0.5},
           "objective": {"kind": "linear"}, "constraint": constraint}
    cell = build_cell(cfg, None, 4)
    counts = []
    solutions = []
    for sys in (cell.sys, cell.sys, build_cell(cfg, None, 4).sys):
        before = len(calls)
        solution, _ = run_algorithm("framework", sys, cell.objective_factory(),
                                    cell.stream, {})
        counts.append(len(calls) - before)
        solutions.append(solution)
    assert counts[0] > 0 and counts == [counts[0]] * 3
    assert solutions == [solutions[0]] * 3


def test_framework_entry_runs_and_reports_peak():
    cfg = _toy_config(algorithms=["framework"],
                      sweep={"param": "p", "values": [0.25]}, seeds=[5])
    rows = run_experiment(cfg, measure_time=False)
    assert len(rows) == 1
    assert rows[0].peak_elements > 0


def test_prepass_tau_when_every_feasible_singleton_is_worth_zero():
    # element 2 is worth 5 but too heavy on its own; the rest are worth 0
    f = make_modular([0.0, 0.0, 5.0, 0.0])
    sys = knapsack_system([1.0, 1.0, 10.0, 1.0], 5.0)
    assert _prepass_tau(sys, f, range(4)) == 1.0
    for name in ("threshold_sieve", "adaptive_sieve", "framework_tau"):
        solution, _ = run_algorithm(name, sys, f, list(range(4)), {})
        assert f.value(solution) == 0.0


@pytest.mark.parametrize("name", ALGORITHMS)
def test_values_near_the_float_maximum_overflow_no_algorithm(name):
    # 1e307 / 1e-5 overflows to inf, and the guesses above 2**1023 do too
    sys = cardinality_system(3, 2)
    f = make_modular([1e-5, 1e307, 1.0])
    solution, _ = run_algorithm(name, sys, f, [0, 1, 2], {})
    assert sys.is_independent(solution) and 1 in solution
    # no finite power of two lies in [M, 2M] for M = 1e308 > 2**1023
    f = make_modular([1e-5, 1e308, 1.0])
    try:
        solution, _ = run_algorithm(name, sys, f, [0, 1, 2], {})
    except NumericError as error:
        assert "1e+308" in str(error)
    else:
        assert sys.is_independent(solution)


@pytest.mark.parametrize("name", ["threshold_sieve", "adaptive_sieve",
                                  "framework_tau", "auto_sieve", "framework"])
def test_every_threshold_algorithm_raises_above_the_largest_guess(name):
    sys = cardinality_system(3, 2)
    f = make_modular([1e-5, 2.0 ** 1023, 1.0])  # the largest guess fits
    solution, _ = run_algorithm(name, sys, f, [0, 1, 2], {})
    assert list(solution) == [1]
    f = make_modular([1e-5, 1e308, 1.0])
    with pytest.raises(NumericError, match=r"value 1e\+308 is above 2\*\*1023"):
        run_algorithm(name, sys, f, [0, 1, 2], {})


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        run_experiment(_toy_config(algorithms=["nope"]), measure_time=False)
    with pytest.raises(ValueError, match="unknown algorithm 'nope'"):
        run_algorithm("nope", cardinality_system(2, 1), make_modular([1.0] * 2),
                      [0, 1], {})


def test_unknown_algorithm_rejected_before_any_cell_is_built(monkeypatch):
    def no_cells(*args):
        raise AssertionError("a cell was built")

    monkeypatch.setattr("substream.bench.build_cell", no_cells)
    with pytest.raises(ValueError, match="'nope'"):
        run_experiment(_toy_config(algorithms=["weighted_greedy", "nope"]),
                       measure_time=False)


def test_unknown_option_rejected_before_any_cell_is_built(monkeypatch):
    def no_cells(*args):
        raise AssertionError("a cell was built")

    monkeypatch.setattr("substream.bench.build_cell", no_cells)
    with pytest.raises(ValueError, match="unknown option 'sieve_rho'"):
        run_experiment(_toy_config(options={"sieve_rho": 4}),
                       measure_time=False)
    with pytest.raises(ValueError, match="unknown option 'sieve_epsilon'"):
        run_experiment(_toy_config(options={"sieve_epsilon": 0.1}),
                       measure_time=False)


@pytest.mark.parametrize("sweep, message", [
    ({"param": "p", "values": []}, "config sweep lists no values"),
    ({"param": "p"}, "config sweep lists no values"),
    ({"values": [0.1, 0.3]}, "config sweep names no param"),
    ([0.1], r"config sweep must be a mapping .*, got \[0\.1\]"),
    ({"param": "p", "values": 0.3}, "sweep values must be a list, got 0.3"),
    ({"param": "p", "values": "ab"}, "sweep values must be a list, got 'ab'"),
])
def test_malformed_sweep_rejected_before_any_cell_is_built(monkeypatch, sweep,
                                                           message):
    def no_cells(*args):
        raise AssertionError("a cell was built")

    monkeypatch.setattr("substream.bench.build_cell", no_cells)
    with pytest.raises(ValueError, match=message):
        run_experiment(_toy_config(sweep=sweep), measure_time=False)


def test_build_cell_rejects_a_sweep_that_is_not_a_mapping():
    with pytest.raises(ValueError, match="config sweep must be a mapping"):
        build_cell(_toy_config(sweep=["p", 0.3]), 0.3, 1)


def test_an_empty_sweep_is_no_sweep_and_build_cell_takes_a_bare_param():
    rows = run_experiment(_toy_config(sweep={}), measure_time=False)
    cfg = _toy_config()
    del cfg["sweep"]
    assert rows == run_experiment(cfg, measure_time=False)
    assert {r.sweep for r in rows} == {0}
    bare = build_cell(_toy_config(sweep={"param": "p"}), 0.3, 1)
    assert bare.sweep == 0.3
    assert bare.stream == build_cell(_toy_config(), 0.3, 1).stream


def test_every_algorithm_returns_the_empty_set_when_no_element_fits():
    # no element fits, so the knapsack's rho hint is 0; a sieve's capacity
    # bound must be at least 1
    cfg = _toy_config(
        instance={"model": "er", "n": 6, "p": 0.4}, ground="nodes",
        constraint={"type": "knapsack", "budget": 1.0, "costs": [2.0] * 6},
        algorithms=list(ALGORITHMS), sweep={}, seeds=[1])
    rows = run_experiment(cfg, measure_time=False)
    assert sorted(r.algorithm for r in rows) == sorted(ALGORITHMS)
    assert all(r.value == 0.0 for r in rows)


def test_stream_order_id_streams_the_ground_set_in_id_order():
    cfg = _toy_config(options={"stream_order": "id"})
    assert build_cell(cfg, 0.3, 1).stream == list(range(24))
    assert build_cell(_toy_config(), 0.3, 1).stream != list(range(24))


@pytest.mark.parametrize("name", ["framework", "streaming_greedy"])
def test_run_algorithm_rejects_unknown_option(name):
    g = gen_erdos_renyi(12, 0.3, seed=2)
    sys = node_independent_set_system(12, undirected_pairs(g))
    f = make_directed_cut(g)
    with pytest.raises(ValueError, match="unknown option 'cascade_copy'"):
        run_algorithm(name, sys, f, list(range(12)), {"cascade_copy": 5})
    assert f.evaluations == 0  # rejected before anything ran
    solution, _ = run_algorithm(name, sys, f, list(range(12)),
                                {"cascade_copies": 1})
    assert sys.is_independent(solution)


def _facility_config(tmp_path, constraint):
    path = tmp_path / "feats.csv"
    rows = [f"{i},{i * 0.5},{(i * 7) % 3}" for i in range(6)]
    path.write_text("id,f1,f2\n" + "\n".join(rows) + "\n")
    return {"objective": {"kind": "facility", "features": str(path)},
            "constraint": constraint, "algorithms": ["streaming_greedy"]}


@pytest.mark.parametrize("constraint", [
    {"type": "node_independent_set", "n": 6, "edges": [[0, 1]]},
    {"type": "planarity", "n_vertices": 4,
     "edges": [[0, 1], [1, 2], [2, 3], [3, 0], [0, 2], [1, 3]]},
    {"type": "cardinality", "rho": 2},
])
def test_build_cell_takes_explicit_fields_without_a_graph(tmp_path, constraint):
    cell = build_cell(_facility_config(tmp_path, constraint), 0, 1)
    assert cell.sys.n == 6 and sorted(cell.stream) == list(range(6))
    assert cell.sys.kind == constraint["type"]


def test_build_cell_explicit_fields_win_over_the_instance():
    cfg = _toy_config(constraint={"type": "node_independent_set", "n": 24,
                                  "edges": [[0, 1]]})
    sys = build_cell(cfg, 0.3, 1).sys
    assert sys.is_independent(range(1, 24))
    assert not sys.is_independent([0, 1])


@pytest.mark.parametrize("constraint, field", [
    ({"type": "node_independent_set"}, "n"),
    ({"type": "planarity", "n_vertices": 4}, "edges"),
    ({"type": "knapsack", "budget": 1.0}, "costs"),
])
def test_build_cell_names_a_field_it_cannot_derive(tmp_path, constraint, field):
    with pytest.raises(ValueError, match=f"missing field '{field}'"):
        build_cell(_facility_config(tmp_path, constraint), 0, 1)


@pytest.mark.parametrize("ground, constraint", [
    ("nodes", {"type": "planarity"}),
    ("edges", {"type": "node_independent_set"}),
    ("nodes", {"type": "cardinality", "n": 5, "rho": 2}),
])
def test_build_cell_rejects_a_constraint_over_another_ground_set(ground,
                                                                 constraint):
    cfg = _toy_config(constraint=constraint, ground=ground)
    with pytest.raises(ValueError, match="ground set has"):
        build_cell(cfg, 0.3, 1)


@pytest.mark.parametrize("objective", ["cut", "linear", "facility", "logdet",
                                       "coverage_minus_dispersion",
                                       "sqrt_coverage"])
@pytest.mark.parametrize("ground", ["edge", "node", "vertices"])
def test_build_cell_rejects_an_unknown_ground(objective, ground):
    cfg = _toy_config(objective={"kind": objective}, ground=ground)
    with pytest.raises(ValueError, match=f"unknown ground {ground!r}"):
        build_cell(cfg, 0.3, 1)


@pytest.mark.parametrize("overrides", [
    {"ground": "edges"}, {"constraint": {"type": "planarity"}}],
    ids=["explicit", "default"])
def test_a_cut_objective_rejects_the_edge_ground(overrides):
    cfg = _toy_config(objective={"kind": "cut"}, **overrides)
    with pytest.raises(ValueError, match="cut objective needs the node ground"):
        build_cell(cfg, 0.3, 1)


DATA = Path(__file__).parent / "data"

# the objectives read from a data file, whose rows are their one ground set
FILE_OBJECTIVES = {
    "facility": {"kind": "facility", "features": str(DATA / "features.csv")},
    "logdet": {"kind": "logdet", "features": str(DATA / "features.csv")},
    "coverage_minus_dispersion": {"kind": "coverage_minus_dispersion",
                                  "features": str(DATA / "features.csv")},
    "sqrt_coverage": {"kind": "sqrt_coverage",
                      "keywords": str(DATA / "keywords.csv")},
}


@pytest.mark.parametrize("kind", sorted(FILE_OBJECTIVES))
def test_a_file_objective_has_only_the_node_ground(kind):
    cfg = _toy_config(objective=FILE_OBJECTIVES[kind],
                      constraint={"type": "cardinality", "rho": 3}, sweep={})
    assert build_cell({**cfg, "ground": "nodes"}, 0, 1).stream \
        == build_cell(cfg, 0, 1).stream
    with pytest.raises(ValueError, match=f"unknown ground 'edges' for a "
                                         f"{kind} objective"):
        build_cell({**cfg, "ground": "edges"}, 0, 1)


@pytest.mark.parametrize("bad", [999_999, 2.5, None, ["g.tsv"], b"g.tsv"],
                         ids=["int", "float", "none", "list", "bytes"])
@pytest.mark.parametrize("section, field, fields", [
    ("instance", "edge_list", {}),
    ("objective", "features", {"kind": "facility"}),
    ("objective", "keywords", {"kind": "sqrt_coverage"}),
], ids=["edge_list", "features", "keywords"])
def test_build_cell_rejects_a_file_field_that_is_not_a_path(section, field,
                                                            fields, bad):
    # open() would take an int as a file descriptor
    cfg = _toy_config(sweep={}, **{section: {**fields, field: bad}})
    with pytest.raises(ValueError, match=f"^config {section} field "
                                         f"'{field}' must be a path, got "):
        build_cell(cfg, 0.3, 1)


def test_build_cell_takes_a_path_object(tmp_path):
    graph = tmp_path / "g.tsv"
    write_edge_list(gen_erdos_renyi(12, 0.3, seed=4), graph)
    by_str = build_cell(_toy_config(instance={"edge_list": str(graph)},
                                    sweep={}), 0, 1)
    by_path = build_cell(_toy_config(instance={"edge_list": graph},
                                     sweep={}), 0, 1)
    assert by_path.stream == by_str.stream and by_path.sys.n == 12
    cfg = _toy_config(objective={**FILE_OBJECTIVES["facility"],
                                 "features": DATA / "features.csv"},
                      constraint={"type": "cardinality", "rho": 3}, sweep={})
    assert build_cell(cfg, 0, 1).sys.n == 24


def _results(cfg):
    """A config's rows without their sweep and ms fields."""
    return [(r.algorithm, r.seed, r.value, r.oracle_calls, r.peak_elements)
            for r in run_experiment(cfg, measure_time=False)]


def _edge_config(constraint, **overrides):
    return {"instance": {"model": "er", "n": 9, "p": 0.5},
            "objective": {"kind": "linear"}, "constraint": constraint,
            "algorithms": ["threshold_sieve", "repeated_greedy"],
            "seeds": [5, 17], **overrides}


def _knapsack(rule):
    return {"type": "knapsack", "budget": 2.0, "cost_rule": rule}


@pytest.mark.parametrize("constraint, target", [
    # only the second part holds the parameter
    ({"intersect": [{"type": "planarity"}, _knapsack("degree")]}, [1]),
    # both parts hold it: the first takes it
    ({"intersect": [_knapsack("degree"), _knapsack("random_int")]}, [0]),
    ({"intersect": [{"type": "planarity"}, {"intersect": [
        _knapsack("random_int"), _knapsack("degree")]}]}, [1, 0]),
    # a stray key on the intersection node is no constraint field
    ({"budget": 1.0,
      "intersect": [{"type": "planarity"}, _knapsack("degree")]}, [1]),
], ids=["second-part", "first-of-two", "nested-first-of-two", "stray-key"])
def test_a_constraint_sweep_goes_to_the_first_leaf_that_holds_it(constraint,
                                                                  target):
    for value in (0.5, 9.0):
        fixed = json.loads(json.dumps(constraint))
        leaf = fixed
        for index in target:
            leaf = leaf["intersect"][index]
        leaf["budget"] = value
        swept = _edge_config(constraint,
                             sweep={"param": "budget", "values": [value]})
        assert _results(swept) == _results(_edge_config(fixed))


def test_a_sweep_parameter_on_no_leaf_matches_no_config_key():
    cfg = _edge_config({"rho": 3, "intersect": [{"type": "planarity"},
                                                _knapsack("degree")]},
                       sweep={"param": "rho", "values": [1]})
    with pytest.raises(ValueError, match="sweep parameter 'rho' matches no "
                                         "config key"):
        run_experiment(cfg, measure_time=False)


NESTED_ROWS = """\
algorithm,sweep,seed,value,oracle_calls,peak_elements,ms
repeated_greedy,0,5,8.0,56,12,0
repeated_greedy,0,17,8.0,127,24,0
repeated_greedy,0,29,8.0,85,17,0
sieve_streaming,0,5,8.0,23,8,0
sieve_streaming,0,17,6.0,33,6,0
sieve_streaming,0,29,8.0,28,8,0
threshold_sieve,0,5,8.0,27,16,0
threshold_sieve,0,17,6.0,51,12,0
threshold_sieve,0,29,8.0,37,16,0
"""


def test_a_nested_random_knapsack_draws_from_its_offset_cost_seed():
    # the knapsack is part 1 of part 1, so its costs come from the cell's
    # cost seed plus 2; rows recorded before the constraint walk was merged
    cfg = _edge_config({"intersect": [
        {"type": "planarity"},
        {"intersect": [{"type": "cardinality", "rho": 8},
                       {"type": "knapsack", "budget": 0.8,
                        "cost_rule": "random_int",
                        "normalize": "mean_tenth"}]}]},
        algorithms=["threshold_sieve", "repeated_greedy", "sieve_streaming"],
        seeds=[5, 17, 29])
    assert rows_to_csv(run_experiment(cfg, measure_time=False)) == NESTED_ROWS


def test_run_experiment_rejects_a_config_that_is_not_a_mapping():
    with pytest.raises(ValueError, match=r"^config must be a mapping of "
                                         r"names to values, got \[1\]$"):
        run_experiment([1])


@pytest.mark.parametrize("reservoir", [5, "x", [1]],
                         ids=["int", "string", "list"])
def test_a_reservoir_that_is_no_mapping_is_named(tmp_path, reservoir):
    cfg = _facility_config(tmp_path, {"type": "cardinality", "rho": 2})
    cfg["objective"]["reservoir"] = reservoir
    with pytest.raises(ValueError, match=re.escape(
            "config objective reservoir must be a mapping of names to "
            f"values, got {reservoir!r}")):
        build_cell(cfg, None, 1)
    cfg["objective"]["reservoir"] = 0  # an empty reservoir is none
    assert build_cell(cfg, None, 1).objective_factory().value([0, 1]) > 0


@pytest.mark.parametrize("n, p", [(5, 0.0), (1, 0.5)])
def test_an_unknown_weight_mode_is_rejected_before_any_draw(n, p):
    # with no pair drawn, or no edge, no draw is ever weighed
    with pytest.raises(ValueError, match="^unknown weight mode 'bogus'$"):
        gen_erdos_renyi(n, p, 1, "bogus")


def _with(cfg, path, value):
    """A deep copy of ``cfg`` with the field at ``path`` set to ``value``."""
    cfg = json.loads(json.dumps(cfg))
    *parents, last = path
    target = cfg
    for key in parents:
        target = target[key]
    target[last] = value
    return cfg


def _integer_field_cases(tmp_path):
    """Field name -> (config, path of that integer field) for each integer
    field a config carries outside the constraint spec's own fields."""
    er = _toy_config(algorithms=["framework"], seeds=[1],
                     sweep={"param": "p", "values": [0.2]})
    ws = _toy_config(instance={"model": "ws", "n": 24, "k_ring": 4,
                               "beta": 0.3}, sweep={}, seeds=[1])
    knapsack = _toy_config(constraint={"type": "knapsack", "budget": 2.0,
                                       "q": 3}, sweep={}, seeds=[1])
    facility = _facility_config(tmp_path, {"type": "cardinality", "rho": 2})
    facility["objective"]["reservoir"] = {"r_cap": 3, "seed": 1}
    return {"n": (er, ("instance", "n")),
            "k_ring": (ws, ("instance", "k_ring")),
            "q": (knapsack, ("constraint", "q")),
            "r_cap": (facility, ("objective", "reservoir", "r_cap")),
            "seed": (facility, ("objective", "reservoir", "seed")),
            "cascade_copies": (_with(er, ("options",), {}),
                               ("options", "cascade_copies")),
            "seeds": (er, ("seeds", 0))}


INTEGER_FIELDS = ["n", "k_ring", "q", "r_cap", "seed", "cascade_copies",
                  "seeds"]


@pytest.mark.parametrize("bad", [2.5, math.nan, "4"])
@pytest.mark.parametrize("name", INTEGER_FIELDS)
def test_integer_fields_reject_fractions_and_nan_by_name(tmp_path, name, bad):
    cfg, path = _integer_field_cases(tmp_path)[name]
    message = re.escape(f"field '{name}' must be an integer, got {bad!r}")
    with pytest.raises(ValueError, match=message):
        run_experiment(_with(cfg, path, bad), measure_time=False)


@pytest.mark.parametrize("name", INTEGER_FIELDS)
def test_integer_fields_take_whole_floats(tmp_path, name):
    cfg, path = _integer_field_cases(tmp_path)[name]
    whole = rows_to_csv(run_experiment(_with(cfg, path, 4.0),
                                       measure_time=False))
    assert whole == rows_to_csv(run_experiment(_with(cfg, path, 4),
                                               measure_time=False))
