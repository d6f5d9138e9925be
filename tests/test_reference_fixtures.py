"""The 60-digit fixtures in tests/_reference.py are what their generator writes.

scripts/generate_reference.py is the suite's independent judge, so it must
not import the package it judges, and its output must be the committed file
byte for byte, rendered with every warning an error.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
GENERATOR = ROOT / "scripts" / "generate_reference.py"
FIXTURES = ROOT / "tests" / "_reference.py"

# Its own interpreter, so the generator's mp.mp.dps = 60 never reaches the suite.
RENDER = (
    "import runpy, sys; "
    "text = runpy.run_path(sys.argv[1], run_name='ref')['render'](); "
    "sys.stdout.buffer.write(text.encode('utf-8'))"
)


def _imported_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module.split(".")[0])
    return modules


def test_generator_is_independent_of_the_package():
    modules = _imported_modules(GENERATOR)
    assert "mpmath" in modules
    assert "otto_rel" not in modules


def test_fixtures_are_what_the_generator_writes():
    pytest.importorskip("mpmath")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", RENDER, str(GENERATOR)],
        capture_output=True,
        cwd=ROOT,
        timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    assert proc.stdout == FIXTURES.read_bytes()
