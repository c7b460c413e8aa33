"""Byte-for-byte pin of the ``--no-timing`` results CSV on a small
node-independent-set matrix.

Performance work must not change a single result bit: any change to an
objective's summation order, a tie-break or the peak bookkeeping shows up
here as a diff.  To record the expected file again after a change that is
meant to alter results, run from the repository root::

    PYTHONPATH=src python tests/test_golden_csv.py > tests/data/golden_nis.csv

and say in the change log why the results moved.
"""

from pathlib import Path

from substream.bench import rows_to_csv, run_experiment

GOLDEN = Path(__file__).parent / "data" / "golden_nis.csv"

ALGORITHMS = ["framework", "framework_tau", "sieve_streaming",
              "streaming_greedy", "threshold_sieve", "adaptive_sieve",
              "auto_sieve"]

INSTANCES = {
    "er": {"model": "er", "n": 60, "p": 0.1, "edge_weights": "exp"},
    "ws": {"model": "ws", "n": 60, "k_ring": 4, "beta": 0.3,
           "edge_weights": "exp"},
}


def golden_text() -> str:
    parts = []
    for family, instance in INSTANCES.items():
        for kind in ("linear", "cut"):
            cfg = {"instance": instance,
                   "objective": {"kind": kind, "node_weights": "exp"},
                   "constraint": {"type": "node_independent_set"},
                   "algorithms": ALGORITHMS,
                   "seeds": [3, 11, 29]}
            rows = run_experiment(cfg, measure_time=False)
            parts.append(f"# {family}-{kind}\n" + rows_to_csv(rows))
    return "".join(parts)


def test_no_timing_csv_is_byte_identical():
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    print(golden_text(), end="")
