"""The README's examples run against the package as it stands."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs(capsys):
    # a quickstart that imports a deleted name fails here, not for its reader
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == block.count("print(")
