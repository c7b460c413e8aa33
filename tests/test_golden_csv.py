"""Byte-for-byte pins of the ``--no-timing`` results CSV on four small
matrices: node independent sets on ER/WS graphs, the edge-ground
constraints (cardinality, knapsack cost rules, planarity and their
intersection) that the bench fills in from the instance, planarity on
denser ER(20, 0.3) edge graphs, where solutions grow large enough that
feasibility queries run the full left-right test, and the objectives
read from data files (facility location, exact and sampled, logdet,
coverage minus dispersion, sqrt coverage) under a cardinality bound and
explicit label limits.

Performance work must not change a single result bit: any change to an
objective's summation order, a tie-break, the peak bookkeeping or the
fields the bench derives for a constraint spec shows up here as a diff.
To record an expected file again after a change that is meant to alter
results, run from the repository root::

    PYTHONPATH=src python tests/test_golden_csv.py nis > tests/data/golden_nis.csv
    PYTHONPATH=src python tests/test_golden_csv.py edges > tests/data/golden_edges.csv
    PYTHONPATH=src python tests/test_golden_csv.py planarity > tests/data/golden_planarity.csv
    PYTHONPATH=src python tests/test_golden_csv.py features > tests/data/golden_features.csv

and say in the change log why the results moved.  Each file without
its ``oracle_calls`` column is also pinned to a hash, so a change that
moves only query counts (re-recorded as above) cannot move a value or a
peak with them unseen.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from substream.bench import rows_to_csv, run_experiment

DATA = Path(__file__).parent / "data"

ALGORITHMS = ["framework", "framework_tau", "sieve_streaming",
              "streaming_greedy", "threshold_sieve", "adaptive_sieve",
              "auto_sieve"]

INSTANCES = {
    "er": {"model": "er", "n": 60, "p": 0.1, "edge_weights": "exp"},
    "ws": {"model": "ws", "n": 60, "k_ring": 4, "beta": 0.3,
           "edge_weights": "exp"},
}

NIS_MATRIX = [
    (f"{family}-{kind}",
     {"instance": instance,
      "objective": {"kind": kind, "node_weights": "exp"},
      "constraint": {"type": "node_independent_set"},
      "algorithms": ALGORITHMS,
      "seeds": [3, 11, 29]})
    for family, instance in INSTANCES.items()
    for kind in ("linear", "cut")]

EDGE_ALGORITHMS = ["threshold_sieve", "adaptive_sieve", "framework_tau",
                   "sieve_streaming", "repeated_greedy"]

EDGE_INSTANCES = {
    "er": {"model": "er", "n": 9, "p": 0.5},
    "ws": {"model": "ws", "n": 10, "k_ring": 4, "beta": 0.3},
}

EDGE_CONSTRAINTS = {
    # n comes from the edge count of the instance
    "cardinality": {"type": "cardinality", "rho": 4},
    "degree-knapsack": {"type": "knapsack", "budget": 3.0,
                        "cost_rule": "degree", "q": 2},
    # the knapsack half draws its costs from the second cost seed
    "planarity-random-knapsack": {"intersect": [
        {"type": "planarity"},
        {"type": "knapsack", "budget": 0.8, "cost_rule": "random_int",
         "normalize": "mean_tenth"}]},
    "planarity": {"type": "planarity"},
}

EDGE_MATRIX = [
    (f"{family}-{label}",
     {"instance": instance,
      "objective": {"kind": "linear"},
      "constraint": constraint,
      "ground": "edges",
      "algorithms": EDGE_ALGORITHMS,
      "seeds": [5, 17]})
    for family, instance in EDGE_INSTANCES.items()
    for label, constraint in EDGE_CONSTRAINTS.items()]

# dense edge graphs, where planarity queries reach the left-right test
PLANARITY_ALGORITHMS = ["framework", "sieve_streaming", "streaming_greedy",
                        "repeated_greedy", "auto_sieve"]

PLANARITY_CONSTRAINTS = {
    "planarity": {"type": "planarity"},
    "planarity-random-knapsack": {"intersect": [
        {"type": "planarity"},
        {"type": "knapsack", "budget": 12.0, "cost_rule": "random_int"}]},
}

PLANARITY_MATRIX = [
    (f"er20-{label}",
     {"instance": {"model": "er", "n": 20, "p": 0.3},
      "objective": {"kind": "linear"},
      "constraint": constraint,
      "ground": "edges",
      "algorithms": PLANARITY_ALGORITHMS,
      "seeds": [7, 23]})
    for label, constraint in PLANARITY_CONSTRAINTS.items()]

# objectives over the 24 elements of tests/data/features.csv and
# tests/data/keywords.csv
FEATURE_ALGORITHMS = ["framework", "framework_tau", "sieve_streaming",
                      "streaming_greedy", "auto_sieve", "repeated_greedy"]

FEATURE_OBJECTIVES = {
    "facility": {"kind": "facility", "features": str(DATA / "features.csv"),
                 "lambda": 0.5},
    "facility-reservoir": {"kind": "facility",
                           "features": str(DATA / "features.csv"),
                           "lambda": 0.5,
                           "reservoir": {"r_cap": 10, "seed": 3}},
    "logdet": {"kind": "logdet", "features": str(DATA / "features.csv"),
               "lambda": 0.5, "alpha": 2.0},
    "cmd": {"kind": "coverage_minus_dispersion",
            "features": str(DATA / "features.csv"), "lambda": 0.5},
    "sqrt-coverage": {"kind": "sqrt_coverage",
                      "keywords": str(DATA / "keywords.csv")},
}

# labels overlap (every third element carries a second one), so the label
# limits form no matroid
FEATURE_CONSTRAINTS = {
    "cardinality": {"type": "cardinality", "rho": 5},
    "labeled-limit": {"type": "labeled_limit",
                      "labels": [["abcd"[u % 4]] + (["e"] if u % 3 == 0 else [])
                                 for u in range(24)],
                      "per_label_limit": {"a": 2, "b": 2, "c": 3, "d": 3,
                                          "e": 2},
                      "total_limit": 6},
}

FEATURE_MATRIX = [
    (f"{label}-{constraint_label}",
     {"objective": objective,
      "constraint": constraint,
      "algorithms": FEATURE_ALGORITHMS,
      "seeds": [2, 13]})
    for label, objective in FEATURE_OBJECTIVES.items()
    for constraint_label, constraint in FEATURE_CONSTRAINTS.items()]

MATRICES = {"nis": NIS_MATRIX, "edges": EDGE_MATRIX,
            "planarity": PLANARITY_MATRIX, "features": FEATURE_MATRIX}


# sha256 prefixes of each golden file without its oracle_calls column
VALUES_HASHES = {"nis": "e83b947e11e47b47", "edges": "f7660a4c8de80f06",
                 "planarity": "19d06b46db5933be",
                 "features": "956db8c579321ea4"}


def without_oracle_calls(text: str) -> str:
    """``text`` with the oracle_calls field cut from every CSV line."""
    lines, col = [], None
    for line in text.splitlines(keepends=True):
        fields = line.split(",")
        if line.startswith("algorithm,"):
            col = fields.index("oracle_calls")
        if not line.startswith("#"):
            del fields[col]
        lines.append(",".join(fields))
    return "".join(lines)


def golden_text(matrix) -> str:
    return "".join(f"# {label}\n"
                   + rows_to_csv(run_experiment(cfg, measure_time=False))
                   for label, cfg in matrix)


def test_no_timing_csv_is_byte_identical():
    assert golden_text(NIS_MATRIX) == (DATA / "golden_nis.csv").read_text()


def test_edge_ground_csv_is_byte_identical():
    assert golden_text(EDGE_MATRIX) == (DATA / "golden_edges.csv").read_text()


def test_dense_planarity_csv_is_byte_identical():
    assert (golden_text(PLANARITY_MATRIX)
            == (DATA / "golden_planarity.csv").read_text())


def test_feature_objective_csv_is_byte_identical():
    assert (golden_text(FEATURE_MATRIX)
            == (DATA / "golden_features.csv").read_text())


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_golden_csv_values_and_peaks_keep_their_hash(name):
    text = without_oracle_calls((DATA / f"golden_{name}.csv").read_text())
    assert "oracle_calls" not in text
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == VALUES_HASHES[name]


if __name__ == "__main__":
    print(golden_text(MATRICES[sys.argv[1]]), end="")
