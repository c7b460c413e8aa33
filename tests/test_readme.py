"""README's library quick start and example experiment config run as
written."""

import json
import pathlib
import re

from substream.bench import run_experiment

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out == "[1, 3] 6.5 s1\n"


def test_readme_experiment_config_runs_shrunk():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    cfg = json.loads(blocks[0])
    # every documented key is kept; only the instance, sweep and seeds shrink
    cfg["instance"]["n"] = 40
    cfg["sweep"]["values"] = cfg["sweep"]["values"][:1]
    cfg["seeds"] = cfg["seeds"][:1]
    rows = run_experiment(cfg, measure_time=False)
    assert sorted(r.algorithm for r in rows) == sorted(cfg["algorithms"])
    assert all(r.value > 0 for r in rows)
