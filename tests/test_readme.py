"""The README's examples run against the package as it stands."""

import json
import re
import shlex
from pathlib import Path

from otto_rel import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")


def test_library_quickstart_runs(capsys):
    # a quickstart that imports a deleted name fails here, not for its reader
    section = TEXT.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == block.count("print(")


def _cli_examples():
    """Each otto-rel command of a README sh block, with the block that follows it."""
    blocks = re.findall(r"```(\w+)\n(.*?)```", TEXT, re.DOTALL)
    examples = []
    for (lang, body), after in zip(blocks, blocks[1:] + [("", "")]):
        if lang == "sh":
            examples += [(line, after) for line in body.splitlines() if line.startswith("otto-rel ")]
    return examples


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    # phase-map and figure write map.csv and fig3.csv to the working directory
    monkeypatch.chdir(tmp_path)
    examples = _cli_examples()
    assert len(examples) == 6
    for line, (lang, after) in examples:
        assert cli.main(shlex.split(line)[1:]) == 0, line
        out = capsys.readouterr().out
        if lang != "json":
            continue
        # the JSON shown after a command: same keys in the same order, each
        # elided value "0.39049..." a prefix of the printed one
        shown = re.findall(r'"(\w+)": ("[^"]*"|[^,}]+)', after)
        printed = json.loads(out)
        assert [key for key, _ in shown] == list(printed), line
        for key, value in shown:
            text = json.dumps(printed[key])
            if value.endswith("..."):
                assert text.startswith(value[:-3]), (key, value, text)
            else:
                assert text == value, (key, value, text)


def test_cited_tests_exist():
    # a renamed or deleted test leaves no dangling citation behind
    cited = re.findall(r"tests/(\w+\.py)::(\w+)", TEXT)
    assert cited
    tests = README.parent / "tests"
    for name, function in cited:
        source = (tests / name).read_text(encoding="utf-8")
        assert re.search(rf"^def {function}\(", source, re.MULTILINE), (name, function)
