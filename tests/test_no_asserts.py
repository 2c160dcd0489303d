"""Internal checks in the package raise InvariantError; ``python -O`` strips asserts."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "capclass"
MODULES = sorted(SRC.glob("*.py"))


def test_the_package_modules_are_found():
    assert {p.name for p in MODULES} >= {"gf2.py", "capset.py", "classifier.py", "templates.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"
