"""The public surface: every soldyn name the benchmark scripts use resolves on
the package, and the period builders take no knobs."""
import ast
import importlib
import inspect
from pathlib import Path

import soldyn

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _used_names():
    """(module, name, where) for each soldyn name that a bench script uses."""
    used = []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases |= {a.asname or a.name for a in node.names if a.name == "soldyn"}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "soldyn":
                used += [(node.module, a.name, f"{path.name}:{node.lineno}") for a in node.names]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                used.append(("soldyn", node.attr, f"{path.name}:{node.lineno}"))
    return used


def test_bench_names_resolve_on_soldyn():
    used = _used_names()
    assert any(mod == "soldyn" and name == "pl_new" for mod, name, _ in used)
    missing = [
        f"{where}: {mod}.{name}"
        for mod, name, where in used
        if not hasattr(importlib.import_module(mod), name)
    ]
    assert not missing, missing


def test_traced_layers_and_boundaries_exist():
    # bench/tracing.py imports soldyn.<layer> and wraps EXTRA's private helpers
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    consts = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("LAYERS", "EXTRA")
    }
    for layer in consts["LAYERS"]:
        mod = importlib.import_module(f"soldyn.{layer}")
        for attr in consts["EXTRA"].get(layer, {}):
            assert callable(getattr(mod, attr)), f"soldyn.{layer}.{attr}"


def test_period_builders_take_no_knobs():
    # the hull decides the period; no caller picks candidate periods or offsets
    arity = {
        "minimal_period": 1, "hull_of": 1, "quotient_map": 1, "periodicity_classify": 1,
        "leaf_quotient": 1,
    }
    for name, n in arity.items():
        assert len(inspect.signature(getattr(soldyn, name)).parameters) == n, name
    assert list(inspect.signature(soldyn.PLLift.descend).parameters) == ["self", "T"]


def test_covered_circle_maps_live_in_hull():
    assert soldyn.circle_map.__module__ == soldyn.CircleMapModN.__module__ == "soldyn.hull"
