"""Rules on the package source itself."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hilb3"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements; every invariant check must raise
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


def _imports(path, module):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return any(isinstance(node, ast.Import) and any(a.name == module for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == module
               for node in ast.walk(tree))


def test_one_text_grammar():
    # every text input is read by poly3's tokenizer; no other module uses re
    assert [p.name for p in sorted(SRC.glob("*.py")) if _imports(p, "re")] == ["poly3.py"]
