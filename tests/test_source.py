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


def test_fraction_internals_are_written_in_one_function():
    # `plkernel.fraction` makes a Fraction from a pair it trusts to be reduced
    # by writing the two slots; the slot names may appear in that function
    # alone, so no copy of it (nor a setattr or descriptor write) can hide
    slots = {"_numerator", "_denominator"}
    owners, writes = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        functions = [
            n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "value", None)
            if not isinstance(node, (ast.Attribute, ast.Constant)) or name not in slots:
                continue
            # the innermost function around the mention, or the module
            around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            owner = f"{path.name}:{around[-1].name if around else '<module>'}"
            owners.add(owner)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                writes.add((owner, name))
    assert owners == {"plkernel.py:fraction"}, owners
    assert writes == {("plkernel.py:fraction", s) for s in slots}, writes
