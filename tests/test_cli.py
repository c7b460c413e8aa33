import json
import math
from pathlib import Path

import pytest

from substream.bench import RESULT_HEADER
from substream.cli import main

FEATURES = Path(__file__).parent / "data" / "features.csv"


def test_gen_graph_and_run_stream(tmp_path, capsys):
    graph_path = tmp_path / "g.tsv"
    assert main(["bench", "gen-graph", "--model", "er", "--n", "16",
                 "--p", "0.3", "--seed", "11", "--out", str(graph_path)]) == 0
    assert graph_path.exists()

    spec_path = tmp_path / "constraint.json"
    spec_path.write_text(json.dumps({"type": "node_independent_set"}))
    assert main(["run-stream", "--graph", str(graph_path),
                 "--objective", "cut", "--constraint", str(spec_path),
                 "--algo", "auto_sieve", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == RESULT_HEADER
    assert len(out.splitlines()) == 2


@pytest.mark.parametrize("order, value", [("id", 22.0), ("shuffle", 27.0)])
def test_run_stream_follows_the_stream_order(tmp_path, capsys, order, value):
    graph_path = tmp_path / "g.tsv"
    main(["bench", "gen-graph", "--model", "er", "--n", "30", "--p", "0.2",
          "--seed", "1", "--out", str(graph_path)])
    spec_path = tmp_path / "cardinality.json"
    spec_path.write_text(json.dumps({"type": "cardinality", "rho": 5}))
    assert main(["run-stream", "--graph", str(graph_path),
                 "--objective", "cut", "--constraint", str(spec_path),
                 "--algo", "streaming_greedy", "--stream-order", order]) == 0
    row = capsys.readouterr().out.splitlines()[-1]
    assert float(row.split(",")[3]) == value


def test_gen_graph_ws_requires_parameters(tmp_path, capsys):
    out = tmp_path / "w.tsv"
    base = ["bench", "gen-graph", "--model", "ws", "--n", "12", "--seed", "0",
            "--out", str(out)]
    for given in ([], ["--kring", "2"], ["--beta", "0.1"]):
        _fails_cleanly(base + given, capsys,
                       "--kring and --beta are required for the ws model")
    assert not out.exists()


def test_gen_graph_er_requires_p(tmp_path, capsys):
    out = tmp_path / "g.tsv"
    _fails_cleanly(["bench", "gen-graph", "--model", "er", "--n", "12",
                    "--seed", "0", "--out", str(out)], capsys,
                   "--p is required for the er model")
    assert not out.exists()


def test_bench_run_writes_csv(tmp_path, capsys):
    cfg = {
        "instance": {"model": "er", "n": 14, "p": 0.3},
        "objective": {"kind": "linear"},
        "constraint": {"type": "cardinality", "rho": 3},
        "algorithms": ["streaming_greedy", "threshold_sieve"],
        "sweep": {"param": "p", "values": [0.2, 0.4]},
        "seeds": [1],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "rows.csv"
    assert main(["bench", "run", "--config", str(cfg_path),
                 "--out", str(out_path), "--no-timing"]) == 0
    assert capsys.readouterr().out == ""
    lines = out_path.read_text().splitlines()
    assert lines[0] == RESULT_HEADER
    assert len(lines) == 1 + 2 * 2
    # --out holds what stdout shows without it
    main(["bench", "run", "--config", str(cfg_path), "--no-timing"])
    assert capsys.readouterr().out == out_path.read_text()
    # reproducible with timing zeroed
    out2 = tmp_path / "rows2.csv"
    main(["bench", "run", "--config", str(cfg_path), "--out", str(out2),
          "--no-timing"])
    assert out2.read_text() == out_path.read_text()


def test_counterexample_subcommand(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["counterexample", "--family", "g2", "--rho", "4",
                 "--out", str(report_path)]) == 0
    payload = json.loads(report_path.read_text())
    assert set(payload) == {"rho", "epsilon", "f_S", "f_opt", "f_union",
                            "bound", "holds"}
    assert payload["holds"] is True

    assert main(["counterexample", "--family", "g1", "--rho", "3",
                 "--epsilon", "0.25"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is True and payload["epsilon"] == 0.25


def _fails_cleanly(argv, capsys, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("substream: error: ")
    assert message in err and "Traceback" not in err


def test_bench_run_rejects_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    _fails_cleanly(["bench", "run", "--config", str(bad)], capsys, "bad.json")
    _fails_cleanly(["bench", "run", "--config", str(tmp_path / "missing.json")],
                   capsys, "missing.json")
    cfg = {"instance": {"model": "er", "n": 8, "p": 0.3},
           "constraint": {"type": "cardinality", "rho": 2},
           "algorithms": ["streaming_greedy"]}
    for key, value, message in [
            ("algorithms", ["streaming_greedy", "nope"], "unknown algorithm"),
            ("constraint", {"type": "nope"}, "unknown constraint"),
            ("objective", {"kind": "nope"}, "unknown objective kind"),
            ("ground", "edge", "unknown ground 'edge'"),
            ("seeds", 3, "config seeds must be a list, got 3"),
            ("algorithms", "streaming_greedy",
             "config algorithms must be a list"),
            ("constraint", ["cardinality"],
             "config constraint must be a mapping"),
            ("constraint", {"intersect": [1, 2]},
             "config constraint must be a mapping of names to values, got 1"),
            ("constraint", {"intersect": 2},
             "config constraint intersect must be a list, got 2"),
            ("instance", [1], "config instance must be a mapping"),
            ("objective", "cut", "config objective must be a mapping"),
            ("options", ["id"], "config options must be a mapping"),
            # open() would take an int as a file descriptor
            ("instance", {"edge_list": 999_999},
             "config instance field 'edge_list' must be a path"),
            ("objective", {"kind": "facility", "features": 999_999},
             "config objective field 'features' must be a path"),
            ("algorithms", [], "config lists no algorithms"),
            ("seeds", [], "config lists no seeds"),
            ("instance", {"model": "grid", "n": 8},
             "unknown instance spec"),
            ("constraint", {"type": "knapsack", "budget": 2.0,
                            "cost_rule": "uniform"},
             "unknown cost rule 'uniform'"),
            ("options", {"stream_order": "reverse"},
             "unknown stream order 'reverse'"),
            # float() would read a numeric string as a number
            ("constraint", {"type": "knapsack", "budget": "5"},
             "field 'budget' must be a finite number, got '5'"),
            ("constraint", {"type": "knapsack", "budget": 5,
                            "costs": [1.0] * 7 + ["1"]},
             "field 'costs' at index 7 must be a finite number, got '1'"),
            ("instance", {"model": "er", "n": 8, "p": "0.3"},
             "field 'p' must be a finite number, got '0.3'"),
            ("instance", {"model": "ws", "n": 8, "k_ring": 2, "beta": "0.3"},
             "field 'beta' must be a finite number, got '0.3'"),
            ("objective", {"kind": "facility", "features": str(FEATURES),
                           "lambda": "0.1"},
             "field 'lambda' must be a finite number, got '0.1'"),
            ("objective", {"kind": "logdet", "features": str(FEATURES),
                           "alpha": "20"},
             "field 'alpha' must be a finite number, got '20'")]:
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({**cfg, key: value}))
        _fails_cleanly(["bench", "run", "--config", str(path)], capsys, message)


@pytest.mark.parametrize("sweep, message", [
    ({"param": "p", "values": []}, "config sweep lists no values"),
    ({"param": "p"}, "config sweep lists no values"),
    ({"values": [0.2]}, "config sweep names no param"),
    ({"param": "p", "values": 0.3}, "config sweep values must be a list"),
    ([0.2], "config sweep must be a mapping"),
])
def test_bench_run_rejects_a_malformed_sweep(tmp_path, capsys, sweep,
                                             message):
    cfg = {"instance": {"model": "er", "n": 8, "p": 0.3},
           "constraint": {"type": "cardinality", "rho": 2},
           "algorithms": ["streaming_greedy"], "sweep": sweep}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    _fails_cleanly(["bench", "run", "--config", str(path)], capsys, message)


def test_bench_run_rejects_bad_budget_and_unknown_option(tmp_path, capsys):
    cfg = {"instance": {"model": "er", "n": 10, "p": 0.3},
           "constraint": {"type": "knapsack", "budget": math.nan},
           "algorithms": ["framework"]}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(cfg))  # json writes and reads NaN
    _fails_cleanly(["bench", "run", "--config", str(path)], capsys,
                   "budget must be positive, got nan")
    cfg["constraint"]["budget"] = 2.0
    cfg["options"] = {"cascade_copy": 3}
    path.write_text(json.dumps(cfg))
    _fails_cleanly(["bench", "run", "--config", str(path)], capsys,
                   "unknown option 'cascade_copy'")


def test_bench_run_names_an_integer_field_that_is_not_whole(tmp_path,
                                                            capsys):
    cfg = {"instance": {"model": "er", "n": 10.5, "p": 0.3},
           "constraint": {"type": "cardinality", "rho": 2},
           "algorithms": ["framework"]}
    path = tmp_path / "half.json"
    path.write_text(json.dumps(cfg))
    _fails_cleanly(["bench", "run", "--config", str(path)], capsys,
                   "field 'n' must be an integer, got 10.5")
    cfg["instance"]["n"] = 10
    cfg["options"] = {"cascade_copies": math.nan}
    path.write_text(json.dumps(cfg))
    _fails_cleanly(["bench", "run", "--config", str(path)], capsys,
                   "field 'cascade_copies' must be an integer, got nan")


def test_bench_run_rejects_zero_cascade_copies(tmp_path, capsys):
    cfg = {"instance": {"model": "er", "n": 10, "p": 0.3},
           "constraint": {"type": "cardinality", "rho": 2},
           "algorithms": ["framework"], "options": {"cascade_copies": 0}}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    _fails_cleanly(["bench", "run", "--config", str(path)], capsys,
                   "need at least one component copy")


@pytest.mark.parametrize("rho, message", [
    ("2.5", "argument --rho: invalid int value: '2.5'"),
    ("nan", "argument --rho: invalid int value: 'nan'"),
    ("0", "rho must be a positive integer"),
])
@pytest.mark.parametrize("family", ["g1", "g2"])
def test_counterexample_rejects_a_bad_rho(capsys, family, rho, message):
    _fails_cleanly(["counterexample", "--family", family, "--rho", rho],
                   capsys, message)


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-1"])
def test_counterexample_rejects_a_bad_epsilon(capsys, epsilon):
    _fails_cleanly(["counterexample", "--family", "g1", "--rho", "3",
                    "--epsilon", epsilon], capsys,
                   f"epsilon must be positive and finite, "
                   f"got {float(epsilon)!r}")


def test_run_stream_rejects_malformed_input(tmp_path, capsys):
    graph_path = tmp_path / "g.tsv"
    main(["bench", "gen-graph", "--model", "er", "--n", "8", "--p", "0.3",
          "--seed", "1", "--out", str(graph_path)])
    spec = tmp_path / "constraint.json"
    base = ["run-stream", "--graph", str(graph_path), "--objective", "cut",
            "--algo", "auto_sieve", "--constraint"]
    spec.write_text("[")
    _fails_cleanly(base + [str(spec)], capsys, "constraint.json")
    spec.write_text(json.dumps({"type": "nope"}))
    _fails_cleanly(base + [str(spec)], capsys, "unknown constraint")
    _fails_cleanly(base + [str(tmp_path / "none.json")], capsys, "none.json")
    spec.write_text(json.dumps({"type": "labeled_limit",
                                "labels": [["a"]] * 7 + [["b"]],
                                "per_label_limit": {"a": 1},
                                "total_limit": 2}))
    _fails_cleanly(base + [str(spec)], capsys,
                   "field 'per_label_limit' has no limit for label 'b'")
    _fails_cleanly(base[:-3] + ["--algo", "nope", "--constraint", str(spec)],
                   capsys, "argument --algo: invalid choice: 'nope'")


def _deep_intersect(path, depth=3000):
    """A constraint file of ``depth`` nested intersects, too deep for
    ``json.load``."""
    path.write_text('{"intersect": [' * depth + "]}" * depth)
    return path


def test_run_stream_rejects_a_constraint_nested_too_deeply(tmp_path, capsys):
    graph_path = tmp_path / "g.tsv"
    main(["bench", "gen-graph", "--model", "er", "--n", "8", "--p", "0.3",
          "--seed", "1", "--out", str(graph_path)])
    spec = _deep_intersect(tmp_path / "deep.json")
    _fails_cleanly(["run-stream", "--graph", str(graph_path), "--objective",
                    "cut", "--algo", "auto_sieve", "--constraint", str(spec)],
                   capsys, f"{spec}: nested too deeply")


def test_bench_run_rejects_a_config_nested_too_deeply(tmp_path, capsys):
    cfg = _deep_intersect(tmp_path / "deep.json")
    _fails_cleanly(["bench", "run", "--config", str(cfg)], capsys,
                   f"{cfg}: nested too deeply")


def test_run_stream_rejects_non_finite_edge_weight(tmp_path, capsys):
    graph_path = tmp_path / "g.tsv"
    graph_path.write_text("a\tb\t1.0\nb\tc\tnan\n")
    spec = tmp_path / "constraint.json"
    spec.write_text(json.dumps({"type": "node_independent_set"}))
    _fails_cleanly(["run-stream", "--graph", str(graph_path), "--objective",
                    "cut", "--algo", "auto_sieve", "--constraint", str(spec)],
                   capsys, "g.tsv:2: edge 'b' -> 'c' has weight nan")


def test_an_overflowing_objective_fails_cleanly(tmp_path, capsys):
    # vertex 0's two 1e308 out-weights sum to inf
    graph_path = tmp_path / "g.tsv"
    graph_path.write_text("0\t1\t1e308\n0\t2\t1e308\n1\t2\t1.0\n")
    spec = tmp_path / "constraint.json"
    spec.write_text(json.dumps({"type": "cardinality", "rho": 2}))
    message = "oracle returned non-finite value inf"
    _fails_cleanly(["run-stream", "--graph", str(graph_path), "--objective",
                    "cut", "--algo", "framework", "--constraint", str(spec)],
                   capsys, message)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instance": {"edge_list": str(graph_path)},
                               "objective": {"kind": "cut"},
                               "constraint": {"type": "cardinality", "rho": 2},
                               "algorithms": ["framework"]}))
    _fails_cleanly(["bench", "run", "--config", str(cfg)], capsys, message)


@pytest.mark.parametrize("text", ["", "# u\tv\tweight\n\n"],
                         ids=["empty", "comments-only"])
def test_an_edge_list_without_edge_lines_fails_cleanly(tmp_path, capsys,
                                                       text):
    graph_path = tmp_path / "g.tsv"
    graph_path.write_text(text)
    spec = tmp_path / "constraint.json"
    spec.write_text(json.dumps({"type": "cardinality", "rho": 2}))
    message = f"config instance edge_list {str(graph_path)!r} has no edge lines"
    _fails_cleanly(["run-stream", "--graph", str(graph_path), "--objective",
                    "linear", "--algo", "streaming_greedy", "--constraint",
                    str(spec)], capsys, message)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instance": {"edge_list": str(graph_path)},
                               "constraint": {"type": "cardinality", "rho": 2},
                               "algorithms": ["streaming_greedy"]}))
    _fails_cleanly(["bench", "run", "--config", str(cfg)], capsys, message)


def test_missing_subcommand_fails_cleanly(capsys):
    _fails_cleanly([], capsys, "required: command")
    _fails_cleanly(["bench"], capsys, "required: bench_command")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run-stream", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: substream run-stream")
