import pytest

from substream.bench import (build_cell, degree_costs, gen_erdos_renyi,
                             gen_node_weights,
                             gen_watts_strogatz, load_edge_list,
                             normalize_costs, random_int_costs,
                             rows_to_csv, run_algorithm, run_experiment,
                             undirected_pairs, write_edge_list, RESULT_HEADER)
from substream import make_directed_cut, node_independent_set_system
from substream.prng import SplitMix64

from helpers import count_planarity_tests


def test_splitmix_reference_stream():
    # first outputs for seed 0; pinned so ports can cross-check the PRNG
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    rng2 = SplitMix64(0)
    assert rng2.next_u64() == 0xE220A8397B1DCDAF


def test_erdos_renyi_edge_probability_extremes():
    g = gen_erdos_renyi(2, 1.0, seed=1)
    assert len(undirected_pairs(g)) == 1
    assert len(g.edges) == 2  # both directions materialized
    assert gen_erdos_renyi(6, 0.0, seed=1).edges == ()


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


def test_load_edge_list_errors(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\tnot_a_number\n")
    with pytest.raises(ValueError, match="bad.tsv:1"):
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


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        run_experiment(_toy_config(algorithms=["nope"]), measure_time=False)


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
