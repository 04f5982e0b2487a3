"""Checks on the library source itself."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "soldyn"


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so a certificate or input check
    # written as one would silently stop running; the library raises instead
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) >= 10
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not found, found
