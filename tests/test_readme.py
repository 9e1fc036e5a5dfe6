"""The README's library example runs, and every exported name resolves."""

import re
from pathlib import Path

import plgrad

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "True\n"


def test_every_exported_name_resolves():
    missing = [name for name in plgrad.__all__ if not hasattr(plgrad, name)]
    assert not missing
    assert len(set(plgrad.__all__)) == len(plgrad.__all__)
