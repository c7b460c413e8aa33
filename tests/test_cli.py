import json
import math

import pytest

from substream.bench import RESULT_HEADER
from substream.cli import main


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


def test_gen_graph_ws_requires_parameters(tmp_path):
    with pytest.raises(SystemExit):
        main(["bench", "gen-graph", "--model", "ws", "--n", "12",
              "--seed", "0", "--out", str(tmp_path / "w.tsv")])


def test_bench_run_writes_csv(tmp_path):
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
    lines = out_path.read_text().splitlines()
    assert lines[0] == RESULT_HEADER
    assert len(lines) == 1 + 2 * 2
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
            ("objective", {"kind": "nope"}, "unknown objective kind")]:
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({**cfg, key: value}))
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
    _fails_cleanly(base[:-3] + ["--algo", "nope", "--constraint", str(spec)],
                   capsys, "argument --algo: invalid choice: 'nope'")


def test_run_stream_rejects_non_finite_edge_weight(tmp_path, capsys):
    graph_path = tmp_path / "g.tsv"
    graph_path.write_text("a\tb\t1.0\nb\tc\tnan\n")
    spec = tmp_path / "constraint.json"
    spec.write_text(json.dumps({"type": "node_independent_set"}))
    _fails_cleanly(["run-stream", "--graph", str(graph_path), "--objective",
                    "cut", "--algo", "auto_sieve", "--constraint", str(spec)],
                   capsys, "g.tsv:2: edge 'b' -> 'c' has weight nan")


def test_missing_subcommand_fails_cleanly(capsys):
    _fails_cleanly([], capsys, "required: command")
    _fails_cleanly(["bench"], capsys, "required: bench_command")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run-stream", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: substream run-stream")
