"""Rules on the package source itself."""

import ast
from pathlib import Path

import quivertangle


def test_no_assert_in_src():
    # python -O strips assert statements, so a check in src/ must raise
    package = Path(quivertangle.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found
