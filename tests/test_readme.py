"""README's library quick start runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out == "[1, 3] 6.5 s1\n"
